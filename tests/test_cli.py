import copy
import json
import math
import re
from collections import Counter

import pytest

from mixdiv.audit import COROLLARY_CASES
from mixdiv.cli import JobSpec, load_document, main, run_job
from mixdiv.errors import NonpositiveDensity, ParseError

MIXED_SQRT_VALUE = 0.9129266728982846

FIXTURE = {
    "mu": [1.0, 1.0],
    "pairs": [
        {"p": [0.5, 0.5], "q": [0.25, 0.75], "f": {"kind": "sqrt"}},
        {"p": [0.8, 0.2], "q": [0.5, 0.5], "f": {"kind": "sqrt"}},
    ],
}


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(FIXTURE))
    return str(path)


def test_load_input_json(fixture_path):
    space, pairs = load_document(fixture_path)[:2]
    assert space.n_atoms == 2 and space.total_mass == 2.0
    assert len(pairs) == 2
    for p, q in pairs:
        assert p.prob_certified and q.prob_certified


def test_load_input_csv(tmp_path):
    path = tmp_path / "input.csv"
    path.write_text("atom,mu,p1,q1\na,1.0,0.5,0.25\nb,1.0,0.5,0.75\n")
    space, pairs = load_document(str(path))[:2]
    assert space.atom_ids == ("a", "b")
    assert len(pairs) == 1
    assert pairs[0][0].prob_certified


def test_load_input_missing_mu(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"pairs": []}))
    with pytest.raises(ParseError, match="mu required"):
        load_document(str(path))


def test_load_input_zero_density_rejected(tmp_path):
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps({"mu": [1.0, 1.0], "pairs": [{"p": [0.0, 1.0], "q": [0.5, 0.5]}]}))
    with pytest.raises(NonpositiveDensity):
        load_document(str(path))


def test_load_input_csv_zero_density_names_atom(tmp_path):
    path = tmp_path / "input.csv"
    path.write_text("atom,mu,p1,q1\nleft,1.0,0.0,0.25\nright,1.0,1.0,0.75\n")
    with pytest.raises(NonpositiveDensity, match="left"):
        load_document(str(path))
    # the floor option repairs the same file
    _, pairs = load_document(str(path), epsilon_floor=1e-6)[:2]
    assert pairs[0][0].values[0] > 0.0


def test_epsilon_floor_repairs_zeros(tmp_path):
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps({"mu": [1.0, 1.0], "pairs": [{"p": [0.0, 1.0], "q": [0.5, 0.5]}]}))
    space, pairs = load_document(str(path), epsilon_floor=1e-6)[:2]
    p, _ = pairs[0]
    assert p.prob_certified  # renormalized after flooring
    assert p.values[0] > 0.0
    assert abs(p.integral() - 1.0) <= 1e-9


def test_uncertified_pairs_warn(tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"mu": [1.0, 1.0], "pairs": [{"p": [2.0, 3.0], "q": [0.5, 0.5]}]}))
    _, pairs, warnings, _ = load_document(str(path))
    assert not pairs[0][0].prob_certified
    assert pairs[0][1].prob_certified
    assert len(warnings) == 1


def test_mixed_job_values(fixture_path, tmp_path):
    out = tmp_path / "report.json"
    code = run_job(JobSpec(command="mixed", input_path=fixture_path, output_path=str(out)))
    assert code == 0
    report = json.loads(out.read_text())
    got = report["values"]["mixed_divergence"]
    assert abs(got - MIXED_SQRT_VALUE) <= 1e-12
    row = report["values"]["order_change_row"]
    assert len(row) == 3
    assert all(abs(v - got) <= 1e-12 * max(1.0, got) for v in row)


def test_mixed_job_optional_index_flags(fixture_path, tmp_path):
    out = tmp_path / "flags.json"
    code = run_job(
        JobSpec(command="mixed", input_path=fixture_path, output_path=str(out),
                alpha=0.5, m=2)
    )
    assert code == 0
    values = json.loads(out.read_text())["values"]
    assert values["renyi"]["value"] == pytest.approx(
        -2.0 * math.log(values["mixed_divergence"]), rel=1e-12
    )
    assert values["substitution_inequality"]["holds"]


def test_ith_alpha_shortcut(fixture_path, tmp_path):
    out = tmp_path / "ith.json"
    code = run_job(
        JobSpec(command="ith", input_path=fixture_path, output_path=str(out),
                alpha=0.5, i_values=[1.0], n=2)
    )
    assert code == 0
    values = json.loads(out.read_text())["values"]
    assert values["generators"] == ["power(0.5)", "power(0.5)"]
    assert abs(values["ith_mixed"][0] - MIXED_SQRT_VALUE) <= 1e-12


def test_same_job_spec_twice_gives_identical_reports(fixture_path, tmp_path):
    out = tmp_path / "ith.json"
    spec = JobSpec(command="ith", input_path=fixture_path, output_path=str(out), alpha=0.5)
    before = copy.deepcopy(spec)
    assert run_job(spec) == 0
    first = out.read_bytes()
    assert run_job(spec) == 0
    assert out.read_bytes() == first
    assert spec == before
    assert json.loads(first)["inputs"]["options"]["generator_specs"] == []


def test_report_echo_round_trip(fixture_path, tmp_path):
    out = tmp_path / "report.json"
    run_job(JobSpec(command="mixed", input_path=fixture_path, output_path=str(out)))
    report = json.loads(out.read_text())
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(report["inputs"]["document"]))
    out2 = tmp_path / "report2.json"
    run_job(JobSpec(command="mixed", input_path=str(echo_path), output_path=str(out2)))
    v1 = report["values"]["mixed_divergence"]
    v2 = json.loads(out2.read_text())["values"]["mixed_divergence"]
    assert abs(v1 - v2) <= 1e-15 * max(1.0, abs(v1))


def test_compute_job(fixture_path, tmp_path):
    out = tmp_path / "c.json"
    code = run_job(JobSpec(command="compute", input_path=fixture_path, output_path=str(out)))
    assert code == 0
    values = json.loads(out.read_text())["values"]["f_divergence"]
    assert len(values) == 2


def test_ith_job_grid(fixture_path, tmp_path):
    out = tmp_path / "i.json"
    code = run_job(
        JobSpec(command="ith", input_path=fixture_path, output_path=str(out),
                i_values=[0.0, 1.0, 2.0], n=2)
    )
    assert code == 0
    values = json.loads(out.read_text())["values"]
    assert values["i_grid"] == [0.0, 1.0, 2.0]
    assert abs(values["ith_mixed"][1] - MIXED_SQRT_VALUE) <= 1e-12


def test_dissimilarity_job(fixture_path, tmp_path):
    out = tmp_path / "d.json"
    code = run_job(
        JobSpec(command="dissimilarity", input_path=fixture_path, output_path=str(out),
                generator_specs=[{"kind": "matusita", "arity": 2}])
    )
    assert code == 0
    v = json.loads(out.read_text())["values"]["dissimilarity"]
    want = -(math.sqrt(0.5 * 0.8) + math.sqrt(0.5 * 0.2))
    assert abs(v - want) <= 1e-12


def test_dissimilarity_job_with_density_block(tmp_path):
    doc = {
        "mu": [1.0, 1.0],
        "pairs": [],
        "densities": [[0.5, 0.5], [0.25, 0.75], [0.8, 0.2]],
    }
    path = tmp_path / "dens.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "d.json"
    code = run_job(
        JobSpec(command="dissimilarity", input_path=str(path), output_path=str(out),
                generator_specs=[{"kind": "toussaint", "weights": [0.2, 0.5, 0.3]}])
    )
    assert code == 0
    v = json.loads(out.read_text())["values"]["dissimilarity"]
    want = -sum(
        (0.5, 0.5)[j] ** 0.2 * (0.25, 0.75)[j] ** 0.5 * (0.8, 0.2)[j] ** 0.3
        for j in range(2)
    )
    assert abs(v - want) <= 1e-12


def test_audit_job_exit_zero(tmp_path):
    out = tmp_path / "audit.json"
    code = run_job(JobSpec(command="audit", seed=42, instances=5, output_path=str(out)))
    assert code == 0
    values = json.loads(out.read_text())["values"]
    assert values["violations"] == 0
    assert values["total_reports"] > 0


def test_audit_job_instances_per_family(tmp_path):
    out = tmp_path / "audit.json"
    assert run_job(JobSpec(command="audit", seed=3, instances=12, output_path=str(out))) == 0
    counts = Counter(
        r["detail"].get("family", r["name"]) for r in json.loads(out.read_text())["values"]["reports"]
    )
    for name in ("permutation_invariance", "concave_product_chain", "jensen_bound",
                 "holder_interpolation", "ith_duality"):
        assert counts[name] == 12
    for case in COROLLARY_CASES:
        assert counts[f"corollary_{case}"] == 12 // 6
    for family in ("identical_triples", "jensen_linear", "corollary_diagonal",
                   "corollary_reference"):
        assert counts[family] == 12 // 5


def test_audit_job_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code = run_job(JobSpec(command="audit", seed=42, instances=5, output_path=str(out)))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_geometry_job_unit_ball(tmp_path):
    out = tmp_path / "g.json"
    bodies = [{"semi_axes": [1, 1, 1]}] * 3
    code = run_job(JobSpec(command="geometry", bodies=bodies, output_path=str(out)))
    assert code == 0
    v = json.loads(out.read_text())["values"]["mixed_affine_surface_area"]
    assert abs(v - 4 * math.pi) <= 1e-6 * 4 * math.pi


def test_geometry_job_ith(tmp_path):
    out = tmp_path / "g.json"
    bodies = [{"semi_axes": [1, 1, 1]}, {"semi_axes": [2, 2, 2]}]
    code = run_job(
        JobSpec(command="geometry", bodies=bodies, i_values=[1.5], output_path=str(out))
    )
    assert code == 0
    v = json.loads(out.read_text())["values"]["ith_mixed_affine_surface_area"][0]
    want = 4 * math.pi * 2**0.75
    assert abs(v - want) <= 1e-6 * want


def test_one_spec_serves_every_slot_as_one_generator():
    from mixdiv import cli

    gens = cli._generators([{"kind": "sqrt"}], 3, "bodies")
    assert len(gens) == 3 and gens[0] is gens[1] is gens[2]
    gens = cli._generators([{"kind": "sqrt"}] * 3, 3, "bodies")
    assert len({id(g) for g in gens}) == 3


def test_missing_input_exits_one(tmp_path):
    out = tmp_path / "x.json"
    code = run_job(JobSpec(command="mixed", input_path=str(tmp_path / "nope.json"),
                           output_path=str(out)))
    assert code == 1
    assert "error" in json.loads(out.read_text())


def test_invalid_density_exits_one_with_report(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mu": [1.0, 1.0], "pairs": [{"p": [-1.0, 1.0], "q": [0.5, 0.5]}]}))
    out = tmp_path / "r.json"
    code = run_job(JobSpec(command="mixed", input_path=str(path), output_path=str(out)))
    assert code == 1
    report = json.loads(out.read_text())
    assert report["error"]["type"] == "NonpositiveDensity"


#: input documents that malformed-input rows name by an "@name" argument;
#: a string is the document's text as written
BAD_DOCUMENTS = {
    "@overflowing_mass": {
        "mu": [1e308, 1e308], "pairs": [{"p": [1e-308, 1e-308], "q": [1e-308, 1e-308]}],
    },
    "@overflowing_integral": {
        "mu": [1.0, 1.0], "pairs": [{"p": [1e308, 1e308], "q": [1e308, 1e308]}],
    },
    "@string_list_density": {"mu": [1.0, 1.0], "pairs": [{"p": ["a", "b"], "q": [0.5, 0.5]}]},
    "@string_density": {"mu": [1.0, 1.0], "pairs": [{"p": "ab", "q": [0.5, 0.5]}]},
    "@numeric_string_density": {
        "mu": [1.0, 1.0], "pairs": [{"p": ["0.5", True], "q": [0.5, 0.5]}],
    },
    "@bool_density": {"mu": [1.0, 1.0], "pairs": [{"p": [1.0, True], "q": [0.5, 0.5]}]},
    "@numeric_string_mu": {"mu": ["1", "1"], "pairs": [{"p": [0.5, 0.5], "q": [0.5, 0.5]}]},
    "@string_density_row": {
        "mu": [1.0, 1.0], "pairs": [{"p": [0.5, 0.5], "q": [0.5, 0.5]}],
        "densities": [["0.5", "ab"], [0.5, 0.5]],
    },
    "@pairs_not_list": {"mu": [1.0, 1.0], "pairs": 5},
    "@pairs_not_objects": {"mu": [1.0, 1.0], "pairs": [5]},
    "@densities_not_list": {
        "mu": [1.0, 1.0], "pairs": [{"p": [0.5, 0.5], "q": [0.5, 0.5]}], "densities": 5,
    },
    # json.dumps writes the integer literal 1 followed by 400 zeros
    "@huge_int_density": {"mu": [1.0, 1.0], "pairs": [{"p": [10**400, 1.0], "q": [0.5, 0.5]}]},
    # json.loads refuses integer literals of more than 4,300 digits with a ValueError
    "@over_digit_limit": '{"mu":[1,1],"pairs":[{"p":[1%s,1],"q":[0.5,0.5]}]}' % ("0" * 5000),
    # nesting beyond the recursion limit makes json.loads raise RecursionError
    "@deep_nesting": "[" * 5000,
    # f(p/q) * q = 1e350 at atom 0 with mu = (1, 1): the integral is beyond the float range
    "@overflowing_factor": {
        "mu": [1.0, 1.0],
        "pairs": [{"p": [1e250, 1.0], "q": [1e150, 1.0]}] * 2,
    },
    # at order 1e307 every log of q * (p/q)**alpha is below the float range:
    # the Hellinger integral is 0, and its log is no float
    "@vanishing_hellinger": {"mu": [1, 1], "pairs": [{"p": [1e-200, 1e-200], "q": [1, 1]}]},
    # the power-3 mixed value is about 1.25e199, so the substitution side [D]**2 overflows
    "@overflowing_af_side": {
        "mu": [0.5, 0.5],
        "pairs": [{"p": [1, 1], "q": [2e-100, 1.9999999999999998]}] * 2,
    },
    "@pair_without_q": {"mu": [1.0, 1.0], "pairs": [{"p": [0.5, 0.5]}]},
    "@invalid_json": '{"mu": [1, 1],',
    "@top_level_list": [1.0, 1.0],
    "@no_specs": {"mu": [1.0, 1.0], "pairs": [{"p": [0.5, 0.5], "q": [0.5, 0.5]}]},
    "@no_pairs": {"mu": [1.0, 1.0]},
    "@one_pair": {"mu": [1.0, 1.0], "pairs": [{"p": [0.5, 0.5], "q": [0.25, 0.75]}]},
    "@bodies_not_list": {"bodies": {"semi_axes": [1, 1, 1]}},
    # a name ending in .csv is written to a .csv file
    "@empty.csv": "",
    "@no_atom_mu.csv": "x,mu,p1,q1\n0,1,0.5,0.5\n",
    "@odd_columns.csv": "atom,mu,p1\n0,1,0.5\n",
    "@short_row.csv": "atom,mu,p1,q1\n0,1,0.5\n",
    "@non_numeric.csv": "atom,mu,p1,q1\n0,1,abc,0.5\n",
    # atom ids that are not a list: a number, a boolean, or a string (which
    # would otherwise be split into one-character labels)
    **{f"@atom_ids_{name}": {"mu": [1.0, 1.0], "atom_ids": ids,
                             "pairs": [{"p": [0.5, 0.5], "q": [0.5, 0.5]}]}
       for name, ids in (("int", 5), ("float", 1.5), ("bool", True), ("string", "ab"))},
    # bytes are written as they are: one 0xff byte makes the file not UTF-8
    "@not_utf8": b'{"mu":[1,1],"atom_ids":["\xff","b"],"pairs":[{"p":[0.5,0.5],"q":[0.5,0.5]}]}',
    "@not_utf8.csv": b"atom,mu,p1,q1\n\xff,1,0.5,0.5\nb,1,0.5,0.5\n",
}

#: the rows of BAD_DOCUMENTS that the loader rejects with a ParseError naming the file
UNREADABLE_DOCUMENTS = ["@atom_ids_int", "@atom_ids_float", "@atom_ids_bool", "@atom_ids_string",
                        "@not_utf8", "@not_utf8.csv"]

BALL = '{"semi_axes":[1,1,1]}'

#: rows whose error must also reach stderr as exactly one ``error:`` line
VALUE_ERROR_ARGV = [
    ["mixed", "--f", '{"kind":"tv"}', "--alpha", "1e307", "--input", "@vanishing_hellinger"],
    ["mixed", "--f", '{"kind":"power","alpha":3}', "--m", "2", "--input", "@overflowing_af_side"],
]


def _with_documents(argv, tmp_path):
    """``argv`` with each "@name" argument written to a file and replaced by its path."""
    for name, doc in BAD_DOCUMENTS.items():
        if name in argv:
            path = tmp_path / ("bad.csv" if name.endswith(".csv") else "bad.json")
            if isinstance(doc, bytes):
                path.write_bytes(doc)
            else:
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            argv = [str(path) if a == name else a for a in argv]
    return argv


@pytest.mark.parametrize("argv", [
    ["compute", "--f", '{"kind":"power"}'],
    ["compute", "--f", '{"kind":"linear","a":"x","b":1}'],
    ["compute", "--f", '{"kind":"custom"}'],
    ["compute", "--f", '{"kind":"power","alpha":0.5,"beta":1}'],
    ["dissimilarity", "--f", '{"kind":"matusita"}'],
    ["audit", "--instances", "3", "--tol-ineq", "nan"],
    ["audit", "--instances", "3", "--tol-ineq", "-1"],
    ["geometry", "--body", '{}'],
    ["geometry", "--body", '[1,2]'],
    ["geometry", "--body", '{"semi_axes":["x"]}'],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@overflowing_mass"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@overflowing_integral"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@string_list_density"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@string_density"],
    ["compute", "--f", '{"kind":"power","alpha":1e308}'],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@numeric_string_density"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@bool_density"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@numeric_string_mu"],
    ["compute", "--f", '{"kind":"tv"}', "--epsilon-floor", "1e-9",
     "--input", "@numeric_string_density"],
    ["dissimilarity", "--f", '{"kind":"matusita","arity":2}', "--input", "@string_density_row"],
    ["compute", "--f", '{"kind":"power","alpha":2}', "--input", "@overflowing_factor"],
    ["mixed", "--f", '{"kind":"power","alpha":2}', "--input", "@overflowing_factor"],
    ["ith", "--f", '{"kind":"power","alpha":2}', "--i", "3", "--input", "@overflowing_factor"],
    ["ith", "--i", "nan"],
    ["ith", "--i", "inf"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@pairs_not_list"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@pairs_not_objects"],
    ["dissimilarity", "--f", '{"kind":"matusita","arity":2}', "--input", "@densities_not_list"],
    ["audit", "--instances", "0"],
    ["audit", "--instances", "-1"],
    ["geometry", "--resolution", "100000"] + ["--body", '{"semi_axes":[1,1,1]}'] * 3,
    ["audit", "--seed", "-1", "--instances", "1"],
    ["compute", "--f", '{"kind":"tv"}', "--epsilon-floor", "-1"],
    ["compute", "--f", '{"kind":"tv"}', "--epsilon-floor", "0"],
    ["compute", "--f", '{"kind":"tv"}', "--epsilon-floor", "inf"],
    ["compute", "--f", '{"kind":"tv"}', "--epsilon-floor", "nan"],
    ["geometry", "--resolution", "16"] + ["--body", '{"semi_axes":[1e200,1,1]}'] * 3,
    ["geometry", "--resolution", "16"] + ["--body", '{"semi_axes":[1e300,1e300,1e300]}'] * 3,
    ["geometry", "--resolution", "16"] + ["--body", '{"semi_axes":[1%s,1,1]}' % ("0" * 400)] * 3,
    ["compute", "--f", '{"kind":"tv"}', "--input", "@huge_int_density"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@over_digit_limit"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@deep_nesting"],
    ["geometry", "--input", "@deep_nesting"],
    *VALUE_ERROR_ARGV,
    ["compute", "--f", '{"kind":"tv"}', "--input", "@empty.csv"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@no_atom_mu.csv"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@odd_columns.csv"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@short_row.csv"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@non_numeric.csv"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@pair_without_q"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@invalid_json"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@top_level_list"],
    ["compute", "--input", "@no_specs"],
    ["compute", "--f", '{"kind":"tv"}', "--input", "@no_pairs"],
    ["ith", "--f", '{"kind":"tv"}', "--input", "@one_pair"],
    ["dissimilarity"],
    ["dissimilarity"] + ["--f", '{"kind":"matusita","arity":2}'] * 2,
    ["geometry", "--input", "@bodies_not_list"],
    ["geometry", "--i", "1"] + ["--body", BALL] * 3,
    ["geometry", "--i", "1"] + ["--body", BALL] * 2 + ["--f", '{"kind":"sqrt"}'] * 3,
    ["geometry"] + ["--body", BALL] * 2 + ["--f", '{"kind":"sqrt"}'] * 3,
    *(["compute", "--f", '{"kind":"tv"}', "--input", name] for name in UNREADABLE_DOCUMENTS),
    ["geometry", "--input", "@not_utf8"],
])
@pytest.mark.filterwarnings("error")  # a numpy warning would reach stderr beside the error line
def test_malformed_input_exits_one_with_error_block(argv, fixture_path, tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = _with_documents(argv, tmp_path)
    if argv[0] not in ("audit", "geometry") and "--input" not in argv:
        argv = argv + ["--input", fixture_path]
    assert main(argv + ["--output", str(out)]) == 1
    error = json.loads(out.read_text())["error"]
    assert error["type"] and error["message"]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("name", UNREADABLE_DOCUMENTS)
def test_unreadable_document_is_a_parse_error_naming_the_file(name, tmp_path):
    path = _with_documents([name], tmp_path)[0]
    with pytest.raises(ParseError, match=f"^{re.escape(path)}: "):
        load_document(path)


@pytest.mark.parametrize("argv, error_type", [
    (["compute"], "ParseError"),  # the job succeeds; only its report cannot be written
    (["compute", "--epsilon-floor", "-1"], "MixdivError"),  # the job's own error is reported
])
def test_unwritable_output_sends_the_report_to_stdout(argv, error_type, fixture_path, tmp_path,
                                                       capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(argv + ["--input", fixture_path, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["type"] == error_type and not out.exists()
    lines = captured.err.splitlines()
    assert lines == [f"error: {error['message']}"]


def test_blank_csv_rows_are_skipped(tmp_path):
    rows = ["atom,mu,p1,q1", "a,1.0,0.5,0.25", "b,1.0,0.5,0.75"]
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text("\n".join(rows) + "\n")
    blank.write_text("\n".join(rows[:2] + ["", ",,,"] + rows[2:]) + "\n")
    loaded = []
    for path in (plain, blank):
        space, pairs = load_document(str(path))[:2]
        loaded.append((space.atom_ids, space.weights.tolist(),
                       [(p.values.tolist(), q.values.tolist()) for p, q in pairs]))
    assert loaded[0] == loaded[1]


def test_substitution_violation_exits_two(tmp_path):
    # three identical tv pairs with |p - q| = 1 on the first two atoms: every
    # log-factor is 0 or -inf, so D = 0.1378 + 0.1378 = 0.2756 exactly under
    # any exp/log implementation. [D]**3 rounds once, D * D * D twice, and the
    # product lands one unit below: at a tolerance below any rounding, AF fails
    pair = {"p": [1.5, 0.5, 0.7244], "q": [0.5, 1.5, 0.7244]}
    path, out = tmp_path / "doc.json", tmp_path / "r.json"
    path.write_text(json.dumps({"mu": [0.1378, 0.1378, 1.0], "pairs": [pair] * 3}))
    argv = ["mixed", "--f", '{"kind":"tv"}', "--m", "3", "--tol-ineq", "5e-324",
            "--input", str(path), "--output", str(out)]
    assert main(argv) == 2
    values = json.loads(out.read_text())["values"]
    assert values["mixed_divergence"] == 0.2756
    check = values["substitution_inequality"]
    assert not check["holds"] and check["equality_expected"]
    assert check["rhs"] == 0.2756 * 0.2756 * 0.2756 < check["lhs"] == math.pow(0.2756, 3)


@pytest.mark.parametrize("argv", VALUE_ERROR_ARGV)
@pytest.mark.filterwarnings("error")
def test_value_beyond_the_float_range_is_one_error_line(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(_with_documents(argv, tmp_path) + ["--output", str(out)]) == 1
    assert json.loads(out.read_text())["error"]["type"] == "MixdivError"
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_renyi_of_an_underflowing_hellinger_integral_is_reported(tmp_path):
    # at order 2 the Hellinger integral 2e-400 underflows; its log does not
    out = tmp_path / "r.json"
    argv = ["mixed", "--f", '{"kind":"tv"}', "--alpha", "2", "--input", "@vanishing_hellinger"]
    assert main(_with_documents(argv, tmp_path) + ["--output", str(out)]) == 0
    renyi = json.loads(out.read_text())["values"]["renyi"]["value"]
    assert renyi == pytest.approx(-920.3408900170584, abs=1e-13)


@pytest.mark.parametrize("argv, key", [
    (["compute"], "f_divergence"),
    (["mixed"], "mixed_divergence"),
    (["ith", "--i", "3"], "ith_mixed"),
])
@pytest.mark.filterwarnings("error")
def test_factor_beyond_float_range_in_a_finite_integral(argv, key, tmp_path):
    import mpmath

    # f(p/q) * q = 1e350 at atom 0 overflows, but mu_0 * 1e350 = 1e250 does not
    doc = {"mu": [1e-100, 1.0], "pairs": [{"p": [1e250, 1.0], "q": [1e150, 1.0]}] * 2}
    path, out = tmp_path / "doc.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    argv = argv + ["--f", '{"kind":"power","alpha":2}', "--input", str(path), "--output", str(out)]
    assert main(argv) == 0
    got = json.loads(out.read_text())["values"][key]
    with mpmath.workprec(200):
        want = mpmath.mpf(1e-100) * mpmath.mpf(1e250) ** 2 / mpmath.mpf(1e150) + 1
        for value in got if isinstance(got, list) else [got]:
            assert abs(mpmath.mpf(value) / want - 1) <= 1e-13, (value, want)


@pytest.mark.filterwarnings("error")
def test_weighted_log_overflowing_to_minus_inf_is_a_zero_term(tmp_path):
    # 1.5 * 1e308 * log 0.2 overflows to -inf at atom 0: that term is 0
    doc = {"mu": [1, 1], "pairs": [{"p": [0.2, 1], "q": [1, 1]}, {"p": [1, 1], "q": [1, 1]}]}
    path, out = tmp_path / "doc.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    argv = ["ith", "--i", "3", "--f", '{"kind":"power","alpha":1e308}',
            "--input", str(path), "--output", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["values"]["ith_mixed"] == [1.0]


#: command -> the flags it accepts, besides --help
ACCEPTED_FLAGS = {
    "compute": {"--input", "--output", "--f", "--epsilon-floor"},
    "dissimilarity": {"--input", "--output", "--f", "--epsilon-floor"},
    "mixed": {"--input", "--output", "--f", "--epsilon-floor", "--alpha", "--m",
              "--tol-ineq", "--tol-eq", "--tol-prop"},
    "ith": {"--input", "--output", "--f", "--epsilon-floor", "--i", "--n", "--alpha"},
    "audit": {"--output", "--seed", "--instances", "--tol-ineq", "--tol-eq", "--tol-prop"},
    "geometry": {"--input", "--output", "--f", "--body", "--i", "--resolution"},
}


@pytest.mark.parametrize("command", sorted(ACCEPTED_FLAGS))
def test_help_lists_exactly_the_flags_each_command_reads(command, capsys):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == ACCEPTED_FLAGS[command]


@pytest.mark.parametrize("argv", [
    ["audit", "--instances", "abc"],
    ["audit", "--f", '{"kind":"tv"}'],
    ["compute", "--tol-ineq", "1e-9"],
    ["geometry", "--epsilon-floor", "1e-6"],
    ["mixed", "--k", "1"],
    ["geometry", "--dimension", "3"],
    ["compute"],
    ["compute", "--f", "{"],
    ["mixed", "--inp", "x.json"],
    ["bogus"],
    [],
    ["compute", "--f", "[" * 5000],
    ["geometry", "--body", "[" * 5000],
    ["geometry", "--body", '{"semi_axes":[1%s]}' % ("0" * 5000)],
])
def test_usage_error_exits_one_with_error_on_stdout(argv, capsys):
    assert main(argv) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParseError" and error["message"]


def test_missing_input_report_reaches_output(tmp_path):
    out = tmp_path / "r.json"
    assert main(["compute", "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["error"] == {"type": "ParseError", "message": "compute needs --input"}


def test_report_echoes_the_options_its_command_reads(fixture_path, tmp_path):
    out = tmp_path / "r.json"
    assert main(["audit", "--instances", "1", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["inputs"]["options"] == {"seed": 0, "instances": 1}
    assert main(["mixed", "--input", fixture_path, "--output", str(out)]) == 0
    options = json.loads(out.read_text())["inputs"]["options"]
    assert list(options) == ["generator_specs", "alpha", "m", "epsilon_floor"]


def test_unknown_command_exits_one_before_reading_input(tmp_path):
    out = tmp_path / "r.json"
    assert run_job(JobSpec(command="bogus", output_path=str(out))) == 1
    report = json.loads(out.read_text())
    assert report["error"]["message"] == "unknown command 'bogus'"
    assert report["inputs"]["document"] is None


def test_main_entry_point(fixture_path, tmp_path):
    out = tmp_path / "main.json"
    code = main(["mixed", "--input", fixture_path, "--output", str(out)])
    assert code == 0
    assert out.exists()


def test_main_geometry_flags(tmp_path):
    out = tmp_path / "geo.json"
    code = main([
        "geometry",
        "--body", '{"semi_axes":[1,2,3]}',
        "--body", '{"semi_axes":[1,2,3]}',
        "--body", '{"semi_axes":[1,2,3]}',
        "--f", '{"kind":"power","alpha":0.25}',
        "--output", str(out),
    ])
    assert code == 0
    v = json.loads(out.read_text())["values"]["mixed_affine_surface_area"]
    want = 4 * math.pi * math.sqrt(6.0)
    assert abs(v - want) <= 1e-6 * want


def test_floats_serialized_round_trip(fixture_path, tmp_path):
    out = tmp_path / "report.json"
    run_job(JobSpec(command="mixed", input_path=fixture_path, output_path=str(out)))
    text = out.read_text()
    value = json.loads(text)["values"]["mixed_divergence"]
    assert repr(value) in text  # shortest round-trip rendering


@pytest.mark.parametrize("argv", [
    ["compute", "--f", '{"kind":"sqrt"}'],
    ["mixed", "--alpha", "0.5", "--m", "1"],
    ["ith", "--i", "0.5", "--i", "2"],
    ["dissimilarity", "--f", '{"kind":"matusita","arity":2}'],
    ["audit", "--seed", "3", "--instances", "2"],
    ["geometry", "--body", '{"semi_axes":[1,2,3]}', "--resolution", "16"],
    ["compute", "--f", '{"kind":"power"}'],
    ["audit", "--seed", "-1", "--instances", "1"],
    ["geometry"],
])
def test_reports_are_indent_2_json(argv, fixture_path, tmp_path):
    out = tmp_path / "r.json"
    if argv[0] not in ("audit", "geometry"):
        argv = argv + ["--input", fixture_path]
    main(argv + ["--output", str(out)])
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_usage_error_report_is_indent_2_json(capsys):
    assert main(["bogus"]) == 1
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
