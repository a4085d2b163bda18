"""End-to-end cases of the installed ``mixdiv`` console script.

Each row of ``CASES`` is one command line, the exit code it must give and the
checks its JSON report must pass. An argument ``@name`` stands for the
document ``DOCUMENTS[name]``, written to a temporary directory first. The
report is read from ``--output`` in that directory, or from stdout for rows
that say so (usage errors print their report there).

Run it after installing the package, with ``mixdiv`` on PATH:

    python tests/installed_cli.py

It exits 1 if any row fails. pytest does not collect it (its name does not
start with ``test_``): it exercises the installed script, not the source tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Callable, NamedTuple

#: input documents by name: an object is written as JSON, a string as it stands
DOCUMENTS = {
    "d": {"mu": [1, 1], "pairs": [{"p": [0.5, 0.5], "q": [0.5, 0.5]}]},
    "i": {"mu": [1, 1], "pairs": [{"p": [0.5, 0.5], "q": [0.25, 0.75]},
                                  {"p": [0.8, 0.2], "q": [0.5, 0.5]}]},
    # f(p/q) * q = 1e350 at atom 0, but mu_0 times it is 1e250
    "o": {"mu": [1e-100, 1], "pairs": [{"p": [1e250, 1], "q": [1e150, 1]}]},
    # the same factor with mu_0 = 1: the integral is beyond the float range
    "oe": {"mu": [1, 1], "pairs": [{"p": [1e250, 1], "q": [1e150, 1]}]},
    "p": {"mu": [1, 1], "pairs": 5},
    # an integer literal of 401 digits, beyond the float range
    "h": '{"mu":[1,1],"pairs":[{"p":[1%s,1],"q":[0.5,0.5]}]}' % ("0" * 400),
    # an integer literal of 5,001 digits, beyond json's digit limit
    "dl": '{"mu":[1,1],"pairs":[{"p":[1%s,1],"q":[0.5,0.5]}]}' % ("0" * 5000),
    # q * (p/q)**2 = 1e-400 underflows: the order-2 Hellinger integral is 0, with no log
    "renyi": {"mu": [1, 1], "pairs": [{"p": [1e-200, 1e-200], "q": [1, 1]}]},
    # the power-3 mixed value is about 1.25e199, so the substitution side [D]**2 overflows
    "af": {"mu": [0.5, 0.5], "pairs": [{"p": [1, 1], "q": [2e-100, 1.9999999999999998]}] * 2},
}


def has_error(report: dict, stderr: str) -> None:
    assert report["error"], report


def one_error_line(report: dict, stderr: str) -> None:
    has_error(report, stderr)
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def three_ith_values(report: dict, stderr: str) -> None:
    values = report["values"]
    assert len(values["ith_mixed"]) == len(values["i_grid"]) == 3, values


def near_1e250(report: dict, stderr: str) -> None:
    value = report["values"]["f_divergence"][0]
    assert abs(value / 1e250 - 1) <= 1e-13, value


class Case(NamedTuple):
    argv: list
    code: int = 0
    checks: tuple[Callable[[dict, str], None], ...] = ()
    stdout: bool = False  # read the report from stdout instead of --output


BALL, DEEP = '{"semi_axes":[1,1,1]}', "[" * 5000
HUGE = '{"semi_axes":[1e200,1,1]}'
CASES = [
    Case(["audit", "--instances", "3"]),
    Case(["compute", "--input", "@d", "--f", '{"kind":"power"}'], 1, (has_error,)),
    Case(["ith", "--input", "@i", "--alpha", "0.5", "--i", "0", "--i", "0.5", "--i", "2"],
         checks=(three_ith_values,)),
    Case(["geometry", "--body", BALL, "--body", '{"semi_axes":[2,2,2]}', "--i", "0",
          "--i", "1.5", "--resolution", "16"]),
    Case(["compute", "--input", "@o", "--f", '{"kind":"power","alpha":2}'],
         checks=(near_1e250,)),
    Case(["compute", "--input", "@oe", "--f", '{"kind":"power","alpha":2}'], 1,
         (one_error_line,)),
    Case(["audit", "--instances", "0"], 1, (has_error,)),
    Case(["compute", "--input", "@p", "--f", '{"kind":"tv"}'], 1, (has_error,)),
    Case(["audit", "--instances", "abc"], 1, (has_error,), stdout=True),
    Case(["audit", "--instances", "1", "--f", '{"kind":"tv"}'], 1, (has_error,), stdout=True),
    Case(["geometry", "--body", BALL, "--body", BALL, "--body", BALL, "--resolution", "100000"],
         1, (has_error,)),
    Case(["audit", "--seed", "-1", "--instances", "1"], 1, (has_error,)),
    Case(["compute", "--input", "@d", "--f", '{"kind":"tv"}', "--epsilon-floor", "-1"], 1,
         (has_error,)),
    Case(["geometry", "--body", HUGE, "--body", HUGE, "--body", HUGE, "--resolution", "16"], 1,
         (one_error_line,)),
    Case(["compute", "--input", "@h", "--f", '{"kind":"tv"}'], 1, (one_error_line,)),
    Case(["compute", "--input", "@dl", "--f", '{"kind":"tv"}'], 1, (has_error,)),
    Case(["geometry", "--body", DEEP], 1, (has_error,), stdout=True),
    Case(["compute", "--input", "@d", "--f", DEEP], 1, (has_error,), stdout=True),
    Case(["mixed", "--input", "@renyi", "--f", '{"kind":"tv"}', "--alpha", "2"], 1,
         (one_error_line,)),
    Case(["mixed", "--input", "@af", "--f", '{"kind":"power","alpha":3}', "--m", "2"], 1,
         (one_error_line,)),
]


def run_case(script: str, case: Case, tmp: str, number: int) -> None:
    """Run one row; raises (an AssertionError, say) where it fails."""
    argv = [os.path.join(tmp, a[1:] + ".json") if a.startswith("@") else a for a in case.argv]
    out = os.path.join(tmp, f"report{number}.json")
    if not case.stdout:
        argv += ["--output", out]
    proc = subprocess.run([script, *argv], capture_output=True, text=True, check=False)
    assert proc.returncode == case.code, (proc.returncode, proc.stderr[-2000:])
    if case.stdout:
        report = json.loads(proc.stdout)
    else:
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
    for check in case.checks:
        check(report, proc.stderr)


def main() -> int:
    script = shutil.which("mixdiv")
    if script is None:
        print("mixdiv is not on PATH; install the package first", file=sys.stderr)
        return 1
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in DOCUMENTS.items():
            with open(os.path.join(tmp, name + ".json"), "w", encoding="utf-8") as fh:
                fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        for number, case in enumerate(CASES, start=1):
            shown = " ".join(case.argv)
            shown = shown if len(shown) <= 100 else shown[:97] + "..."
            try:
                run_case(script, case, tmp, number)
            except Exception as exc:  # a failed check, or a report missing or malformed
                failed += 1
                print(f"FAIL {number:2d} mixdiv {shown}: {exc!r}")
            else:
                print(f"ok   {number:2d} mixdiv {shown}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
