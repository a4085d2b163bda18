import importlib.util
import math
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "dispatch_check", Path(__file__).resolve().parent.parent / "tools" / "dispatch_check.py")
dispatch_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(dispatch_check)


def test_dispatch_check_band_and_verdicts():
    report = {"name": "jensen_bound", "lhs": 1.0, "holds": True, "n": 3, "spread": math.inf}
    moved = []
    assert dispatch_check.differences(report, dict(report), (), moved) == [] and moved == []
    within = {**report, "lhs": 1.0 + 4e-13}
    assert dispatch_check.differences(report, within, (), moved) == []
    assert moved == [abs(within["lhs"] - 1.0) / within["lhs"]]
    for key, value in (("lhs", 1.0 + 2e-12), ("holds", False), ("n", 3.0), ("spread", 1e308),
                       ("name", "jensen")):
        assert dispatch_check.differences(report, {**report, key: value}, (), []) == [(key,)]
    assert dispatch_check.differences([report], [report, report], (), []) == [()]


def test_dispatch_check_jobs_are_valid_command_lines():
    from mixdiv.cli import _build_parser

    assert [args[0] for args in dispatch_check.JOBS.values()] == ["audit", "geometry", "geometry"]
    for args in dispatch_check.JOBS.values():
        _build_parser().parse_args(args)
