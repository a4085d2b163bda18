import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdiv.audit import AuditConfig, audit_suite, report_to_dict, reports_to_json
from mixdiv.report import dumps_report

SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1.7976931348623157e308,
           10**30, -(2**64) - 1, True, False, None, "", 'q"\\\n\t\x00\x7f', "é☃\U0001f600"]

scalars = st.one_of(
    st.sampled_from(SPECIAL), st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
)
keys = st.one_of(st.text(max_size=8), st.integers(), st.floats(), st.booleans(), st.none())
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(keys, children, max_size=6),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_dumps_report_equals_indent_2_json(tree):
    assert dumps_report(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("tree", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, 1.5, "x", None,
    {"a": [1, {"b": (2.0, [])}, "c"], "d": {"e": None, 1: [True], 2.5: {}}},
    {float("nan"): [1], None: [2], False: {"x": 1}},
])
def test_dumps_report_edge_cases(tree):
    assert dumps_report(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("tree", [{(1, 2): [1]}, [{"a": object()}], [object()], {"a": [{1, 2}]}])
def test_dumps_report_rejects_what_json_rejects(tree):
    with pytest.raises(TypeError) as ours:
        dumps_report(tree)
    with pytest.raises(TypeError) as theirs:
        json.dumps(tree, indent=2)
    assert str(ours.value) == str(theirs.value)


def test_reports_to_json_is_indent_2_json():
    reports = audit_suite(AuditConfig(
        seed=5, identities=2, af_convex=2, af_concave=2, concave_chain=2,
        jensen=2, interpolation=2, corollaries=1, equality_families=2,
    ))
    assert reports_to_json(reports) == json.dumps([report_to_dict(r) for r in reports], indent=2)
