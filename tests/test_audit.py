import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdiv import (
    AuditConfig,
    PairTriple,
    audit_suite,
    build_nk,
    check_alexandrov_fenchel,
    check_concave_upper,
    check_corollary,
    check_interpolation,
    check_jensen_bound,
    effectively_proportional,
    f_divergence,
    make_generator,
    make_space,
    reports_to_json,
    validate_density,
    violations,
)
from mixdiv import audit
from mixdiv.audit import Tolerances, report_to_dict
from mixdiv.errors import (
    DegenerateIndices,
    IndexOutOfRange,
    LengthMismatch,
    MixdivError,
    NotProbability,
    ReferenceNotProbability,
    ShapeMismatch,
)
from mixdiv.generators import scale_generator

MIXED_SQRT_VALUE = 0.9129266728982846
BHATT_VALUE = 0.9659258262890683
SQRT_PAIR2_VALUE = 0.9486832980505138


def _rel_eq(a, b, rel=1e-12):
    assert abs(a - b) <= rel * max(1.0, abs(a), abs(b)), (a, b)


def _sqrt_triples(two_atom):
    sq = make_generator("sqrt")
    return (
        PairTriple(sq, two_atom["p1"], two_atom["q1"]),
        PairTriple(sq, two_atom["p2"], two_atom["q2"]),
    )


# --- effective proportionality ------------------------------------------------------

def test_proportional_exact_multiple():
    v = effectively_proportional([2.0, 4.0], [1.0, 2.0])
    assert v.proportional and v.null_factor_index is None
    assert v.ratio_spread == 0.0


def test_proportional_null_factor():
    v = effectively_proportional([0.0, 0.0], [1.0, 2.0])
    assert v.proportional and v.null_factor_index == 0
    v = effectively_proportional([1.0, 2.0], [0.0, 0.0])
    assert v.proportional and v.null_factor_index == 1


def test_not_proportional_spread():
    v = effectively_proportional([1.0, 2.0], [1.0, 3.0])
    assert not v.proportional
    assert v.ratio_spread == pytest.approx(0.4, rel=1e-12)  # ratios 1 and 2/3


def test_proportional_zero_pattern_mismatch():
    v = effectively_proportional([0.0, 1.0], [1.0, 1.0])
    assert not v.proportional and math.isinf(v.ratio_spread)


def test_proportional_matching_zero_patterns():
    v = effectively_proportional([0.0, 2.0, 4.0], [0.0, 1.0, 2.0])
    assert v.proportional


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u, v, proportional", [
    ([1e-300, 1e-300], [1e300, 1e300], True),  # u = 1e-600 * v
    ([2.0**1000, 3 * 2.0**1000], [2.0**-1000, 3 * 2.0**-1000], True),
    ([-(2.0**1000), -3 * 2.0**1000], [2.0**-1074, 3 * 2.0**-1074], True),  # subnormal
    ([1e-300, 1e-300], [1e300, 2e300], False),
    # a range beyond the floats inside each vector: 1e-100 and 1e-90 differ
    ([1e300, 1e-100], [1e300, 1e-90], False),
    # the sign rule: the signs must agree everywhere or differ everywhere
    ([1.0, -2.0], [1.0, 2.0], False),
    ([-1.0, -2.0], [1.0, 2.0], True),
])
def test_proportionality_at_the_ends_of_the_float_range(u, v, proportional):
    for a, b in ((u, v), (v, u)):
        verdict = effectively_proportional(a, b)
        assert verdict.proportional == proportional
        assert (verdict.ratio_spread == 0.0) == proportional


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u, v", [
    ([math.nan, 1.0], [1.0, 1.0]),
    ([math.inf, 1.0], [math.inf, 1.0]),
])
def test_proportionality_of_non_finite_values_is_typed(u, v):
    for a, b in ((u, v), (v, u)):
        with pytest.raises(MixdivError, match="not NaN or infinite"):
            effectively_proportional(a, b)


def test_proportional_length_mismatch():
    with pytest.raises(LengthMismatch):
        effectively_proportional([1.0], [1.0, 2.0])


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_proportional_symmetry_and_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 32))
    v = rng.uniform(0.1, 5.0, n)
    c = float(rng.uniform(0.01, 100.0))
    u = c * v  # exactly proportional pair
    w = rng.uniform(0.1, 5.0, n)  # generically not proportional
    for a, b in [(u, v), (w, v)]:
        f1 = effectively_proportional(a, b)
        f2 = effectively_proportional(b, a)
        f3 = effectively_proportional(c * np.asarray(a), b)
        assert f1.proportional == f2.proportional == f3.proportional
        assert f1.ratio_spread == pytest.approx(f2.ratio_spread, rel=1e-9, abs=0.0) or (
            math.isinf(f1.ratio_spread) and math.isinf(f2.ratio_spread)
        )


# --- substitution vectors -------------------------------------------------------------

def test_build_nk_full_substitution(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    out = build_nk([t1, t2], m=2, k=1)
    assert out == [t1, t1]
    out = build_nk([t1, t2], m=2, k=2)
    assert out == [t2, t2]


def test_build_nk_identity(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    assert build_nk([t1, t2], m=1, k=2) == [t1, t2]


def test_build_nk_partial(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    triples = [t1, t2, t1]
    assert build_nk(triples, m=2, k=3) == [t1, t1, t1]


def test_build_nk_ranges(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    with pytest.raises(IndexOutOfRange):
        build_nk([t1, t2], m=0, k=2)
    with pytest.raises(IndexOutOfRange):
        build_nk([t1, t2], m=3, k=2)
    with pytest.raises(IndexOutOfRange):
        build_nk([t1, t2], m=1, k=1)  # k must exceed n - m


# --- the substitution inequality --------------------------------------------------------

def test_af_worked_example(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    rep = check_alexandrov_fenchel([t1, t2], m=2)
    _rel_eq(rep.lhs, MIXED_SQRT_VALUE**2)
    _rel_eq(rep.rhs, BHATT_VALUE * SQRT_PAIR2_VALUE)
    assert rep.holds and not rep.equality_expected and not rep.equality_observed


def test_af_m_equals_n_is_product_of_classical(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    rep = check_alexandrov_fenchel([t1, t2], m=2)
    product = math.prod(f_divergence(t.generator, t.p, t.q) for t in (t1, t2))
    _rel_eq(rep.rhs, product)


def test_af_identical_triples_equality(two_atom):
    t1, _ = _sqrt_triples(two_atom)
    for n, m in [(2, 1), (3, 2), (4, 4)]:
        rep = check_alexandrov_fenchel([t1] * n, m=m)
        assert rep.equality_expected and rep.equality_observed
        assert abs(rep.slack) <= 1e-10 * max(1.0, abs(rep.lhs), abs(rep.rhs))


def test_af_scaled_generator_family_equality(two_atom):
    base = make_generator("power", alpha=2.0)
    p, q = two_atom["p1"], two_atom["q1"]
    triples = [PairTriple(scale_generator(base, lam), p, q) for lam in (1.0, 2.0, 3.0)]
    for m in (1, 2, 3):
        rep = check_alexandrov_fenchel(triples, m=m)
        assert rep.equality_expected and rep.equality_observed, m


def test_af_rejects_mixed_shapes(two_atom):
    p, q = two_atom["p1"], two_atom["q1"]
    triples = [
        PairTriple(make_generator("power", alpha=2.0), p, q),
        PairTriple(make_generator("sqrt"), p, q),
    ]
    with pytest.raises(ShapeMismatch):
        check_alexandrov_fenchel(triples, m=1)


def test_af_linear_members_fit_either_shape(two_atom):
    p, q = two_atom["p1"], two_atom["q1"]
    lin = PairTriple(make_generator("linear", a=1.0, b=1.0), p, q)
    convex = PairTriple(make_generator("power", alpha=2.0), p, q)
    concave = PairTriple(make_generator("sqrt"), p, q)
    assert check_alexandrov_fenchel([lin, convex], m=1).holds
    assert check_alexandrov_fenchel([lin, concave], m=1).holds


def test_af_requires_probability(two_atom):
    space = two_atom["space"]
    raw = validate_density(space, [0.5, 0.5], require_prob=False)
    triples = [PairTriple(make_generator("sqrt"), raw, raw)]
    with pytest.raises(NotProbability):
        check_alexandrov_fenchel(triples, m=1)


def test_af_m_range(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    for m in (0, 3):
        with pytest.raises(IndexOutOfRange):
            check_alexandrov_fenchel([t1, t2], m=m)


def test_af_concave_vector_accepted(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    rep = check_alexandrov_fenchel([t1, t2], m=1)
    assert rep.detail["shape"] == "concave"
    assert rep.holds


def _one_m_reports(triples, idx):
    return [audit._tagged(check_alexandrov_fenchel(triples, m), instance=idx)
            for m in range(1, len(triples) + 1)]


def test_af_instance_reports_equal_the_one_m_checks():
    config = AuditConfig()
    seen = set()
    for pool in ("convex", "concave"):
        for seed in range(40):
            reports = audit._af_instance(pool, np.random.default_rng(seed), config, seed)
            triples = audit._rand_triples(np.random.default_rng(seed), pool)
            want = _one_m_reports(triples, seed)
            assert reports == want, (pool, seed)
            assert reports_to_json(reports) == reports_to_json(want)
            seen.add((pool, len(triples)))
    assert seen == {(pool, n) for pool in ("convex", "concave") for n in range(1, 7)}


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_af_shared_values_for_repeated_and_scaled_families(two_atom, n):
    p, q = two_atom["p1"], two_atom["q1"]
    cube = make_generator("power", alpha=3.0)
    families = ([PairTriple(cube, p, q)] * n,
                [PairTriple(scale_generator(cube, 0.5 + lam), p, q) for lam in range(n)])
    for triples in families:
        reports = audit._af_reports(triples, range(1, n + 1), audit.DEFAULT_TOLERANCES)
        assert [audit._tagged(r, instance=n) for r in reports] == _one_m_reports(triples, n)


def test_af_instance_raises_what_its_first_failing_m_raises():
    space = make_space([0.5, 0.5])
    p = validate_density(space, [1.0, 1.0], require_prob=True)
    q = validate_density(space, [2e-100, 1.9999999999999998], require_prob=True)
    # the mixed value is about 1.25e199: m = 1 passes, [D]**2 is beyond the float range
    triples = [PairTriple(make_generator("power", alpha=3.0), p, q) for _ in range(3)]
    assert check_alexandrov_fenchel(triples, 1).holds
    with pytest.raises(MixdivError) as one_m:
        check_alexandrov_fenchel(triples, 2)
    with pytest.raises(MixdivError) as every_m:
        audit._af_reports(triples, range(1, 4), audit.DEFAULT_TOLERANCES)
    assert (type(every_m.value), str(every_m.value)) == (type(one_m.value), str(one_m.value))


@pytest.mark.parametrize("n", range(1, 7))
def test_af_instance_evaluates_each_value_once(monkeypatch, n):
    calls = {"mixed": 0, "pair": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(audit, "mixed_divergence", counted("mixed", audit.mixed_divergence))
    monkeypatch.setattr(audit, "f_divergence", counted("pair", audit.f_divergence))
    rng = np.random.default_rng(n)
    space = audit._rand_space(rng)
    triples = [audit._rand_triple(rng, space, "convex") for _ in range(n)]
    reports = audit._af_reports(triples, range(1, n + 1), audit.DEFAULT_TOLERANCES)
    assert len(reports) == n
    assert calls == {"mixed": n * (n + 1) // 2, "pair": n}


# --- the concave chain ---------------------------------------------------------------------

def test_concave_chain_worked_example(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    rep = check_concave_upper([t1, t2])
    _rel_eq(rep.lhs, MIXED_SQRT_VALUE**2)
    _rel_eq(rep.detail["product_of_divergences"], BHATT_VALUE * SQRT_PAIR2_VALUE)
    _rel_eq(rep.rhs, 1.0)
    assert rep.holds and not rep.equality_observed


def test_concave_chain_common_density_equality(two_atom):
    p = two_atom["p1"]
    triples = [
        PairTriple(make_generator("power", alpha=a), p, p) for a in (0.25, 0.5, 0.75)
    ]
    rep = check_concave_upper(triples)
    assert rep.equality_expected and rep.equality_observed
    assert rep.detail["equality_basis"] == "strict-concave"
    assert abs(rep.slack) <= 1e-10


def test_concave_chain_linear_convex_combination_equality():
    # p_i != q_i but every (a_i p_i + b_i q_i)/(a_i + b_i) equals one density
    space = make_space([0.5, 0.5])
    p1 = validate_density(space, [1.4, 0.6], require_prob=True)
    q1 = validate_density(space, [1.0, 1.0], require_prob=True)
    p2 = validate_density(space, [1.3, 0.7], require_prob=True)
    q2 = validate_density(space, [0.9, 1.1], require_prob=True)
    triples = [
        PairTriple(make_generator("linear", a=1.0, b=1.0), p1, q1),
        PairTriple(make_generator("linear", a=3.0, b=1.0), p2, q2),
    ]
    rep = check_concave_upper(triples)
    assert rep.detail["equality_basis"] == "linear-remark"
    assert rep.equality_expected and rep.equality_observed
    _rel_eq(rep.lhs, 8.0)
    _rel_eq(rep.rhs, 8.0)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_affine_powers_predict_equality_by_the_linear_remark(two_atom, alpha):
    # t**1 has the mix p and t**0 the mix q: one common p (or q) agrees
    p, q1, q2 = two_atom["p1"], two_atom["q1"], two_atom["q2"]
    pairs = [(p, q1), (p, q2)] if alpha == 1.0 else [(q1, p), (q2, p)]
    g = make_generator("power", alpha=alpha)
    triples = [PairTriple(g, *pair) for pair in pairs]
    reports = [
        check_concave_upper(triples),
        check_corollary("concave_0_i_n", triples[0], 2, 0.5, pair2=triples[1]),
    ]
    for rep in reports:
        assert rep.detail["equality_basis"] == "linear-remark", rep.name
        assert rep.equality_expected and rep.equality_observed, rep.name


def test_declared_linear_strict_custom_gets_one_basis(two_atom):
    g = make_generator("custom", fn=lambda t: t + 1.0, shape="linear", strict=True,
                       positive=True)
    t1 = PairTriple(g, two_atom["p1"], two_atom["q1"])
    t2 = PairTriple(g, two_atom["p2"], two_atom["q2"])
    chain = check_concave_upper([t1, t2])
    corollary = check_corollary("concave_0_i_n", t1, 2, 1.0, pair2=t2)
    assert chain.detail["equality_basis"] == corollary.detail["equality_basis"] == "linear-remark"


@pytest.mark.filterwarnings("error")
def test_identically_zero_linear_generator_has_no_linear_remark(two_atom):
    # f = 0*t + 0: every factor is null and the mixes (a*p + b*q)/(a + b) are undefined
    g = make_generator("custom", fn=lambda t: 0.0, shape="linear")
    t = PairTriple(g, two_atom["p1"], two_atom["q1"])
    rep = check_concave_upper([t, t])
    assert rep.holds and rep.lhs == rep.rhs == 0.0
    assert rep.detail["equality_basis"] == "none" and not rep.equality_expected


def test_concave_chain_rejects_convex(two_atom):
    p, q = two_atom["p1"], two_atom["q1"]
    with pytest.raises(ShapeMismatch):
        check_concave_upper([PairTriple(make_generator("power", alpha=2.0), p, q)])


# --- Jensen bounds ---------------------------------------------------------------------------

def test_jensen_tv_lower_bound(two_atom):
    rep = check_jensen_bound(make_generator("tv"), two_atom["p1"], two_atom["q1"])
    assert rep.detail["direction"] == "lower"
    assert rep.lhs == 0.0  # f(1) = 0
    _rel_eq(rep.rhs, 0.5)
    assert rep.holds


def test_jensen_concave_upper_bound(two_atom):
    rep = check_jensen_bound(make_generator("sqrt"), two_atom["p1"], two_atom["q1"])
    assert rep.detail["direction"] == "upper"
    _rel_eq(rep.lhs, BHATT_VALUE)
    assert rep.rhs == 1.0
    assert rep.holds and not rep.equality_expected


def test_jensen_linear_exact(two_atom):
    rep = check_jensen_bound(make_generator("linear", a=2.0, b=1.0),
                             two_atom["p1"], two_atom["q1"])
    assert rep.detail["direction"] == "equality"
    _rel_eq(rep.lhs, 3.0)
    _rel_eq(rep.rhs, 3.0)
    assert rep.holds and rep.equality_expected and rep.equality_observed
    assert abs(rep.slack) <= 1e-12 * max(1.0, abs(rep.rhs))


def test_jensen_strict_diagonal_equality(two_atom):
    p = two_atom["p1"]
    rep = check_jensen_bound(make_generator("power", alpha=2.0), p, p)
    assert rep.equality_expected and rep.equality_observed


def test_jensen_power_zero_and_one_are_exact(two_atom):
    # both are tagged linear, so the bound is an identity for any inputs
    for alpha in (0.0, 1.0):
        rep = check_jensen_bound(
            make_generator("power", alpha=alpha), two_atom["p1"], two_atom["q1"]
        )
        assert rep.detail["direction"] == "equality"
        assert rep.equality_expected and rep.equality_observed
        assert abs(rep.slack) <= 1e-12


def test_jensen_requires_probability():
    space = make_space([1.0, 1.0])
    raw = validate_density(space, [1.0, 2.0], require_prob=False)
    with pytest.raises(NotProbability):
        check_jensen_bound(make_generator("tv"), raw, raw)


# --- interpolation ----------------------------------------------------------------------------

def test_interpolation_worked_example(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    rep = check_interpolation(t1, t2, n=2, i=1.0, j=0.0, k=2.0)
    _rel_eq(rep.lhs, MIXED_SQRT_VALUE)
    _rel_eq(rep.rhs, math.sqrt(SQRT_PAIR2_VALUE * BHATT_VALUE))
    assert rep.holds and not rep.equality_expected


def test_interpolation_endpoint_equality(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    rep = check_interpolation(t1, t2, n=2, i=0.0, j=0.0, k=2.0)
    assert rep.equality_expected and rep.equality_observed


def test_interpolation_proportional_family_equality(two_atom):
    p, q = two_atom["p1"], two_atom["q1"]
    f2 = make_generator("sqrt")
    f1 = scale_generator(f2, 2.0)
    rep = check_interpolation(
        PairTriple(f1, p, q), PairTriple(f2, p, q), n=2, i=1.2, j=0.5, k=1.9
    )
    assert rep.equality_expected and rep.equality_observed


def test_interpolation_outside_unit_range(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    rep = check_interpolation(t1, t2, n=2, i=1.0, j=-2.0, k=4.5)
    assert rep.holds


def test_interpolation_errors(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    with pytest.raises(DegenerateIndices):
        check_interpolation(t1, t2, n=2, i=1.0, j=1.0, k=1.0)
    with pytest.raises(IndexOutOfRange):
        check_interpolation(t1, t2, n=2, i=3.0, j=0.0, k=2.0)
    tv_pair = PairTriple(make_generator("tv"), two_atom["p1"], two_atom["q1"])
    with pytest.raises(ShapeMismatch):
        check_interpolation(tv_pair, t2, n=2, i=1.0, j=0.0, k=2.0)


# --- corollaries -------------------------------------------------------------------------------

def test_corollary_concave_unit_range(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    rep = check_corollary("concave_0_i_n", t1, 2, 1.0, pair2=t2)
    _rel_eq(rep.lhs, MIXED_SQRT_VALUE**2)
    _rel_eq(rep.rhs, 1.0)
    assert rep.holds


def test_corollary_convex_concave_endpoint_reduces_to_jensen(two_atom):
    p, q = two_atom["p1"], two_atom["q1"]
    pair1 = PairTriple(make_generator("power", alpha=2.0), p, q)
    pair2 = PairTriple(make_generator("sqrt"), two_atom["p2"], two_atom["q2"])
    rep = check_corollary("convex_concave_k_ge_n", pair1, 2, 2.0, pair2=pair2)
    d1 = f_divergence(pair1.generator, p, q)
    _rel_eq(rep.rhs, d1**2)
    assert rep.lhs == 1.0
    assert rep.holds


def test_corollary_k_le_zero(two_atom):
    p, q = two_atom["p1"], two_atom["q1"]
    pair1 = PairTriple(make_generator("sqrt"), p, q)
    pair2 = PairTriple(make_generator("power", alpha=2.0), two_atom["p2"], two_atom["q2"])
    rep = check_corollary("concave_convex_k_le_0", pair1, 2, -1.0, pair2=pair2)
    assert rep.holds


def test_corollary_all_densities_equal_gives_equality(two_atom):
    p = two_atom["p1"]
    cases = [
        ("concave_0_i_n", "sqrt", "power_cc", 1.0),
        ("convex_concave_k_ge_n", "power_cv", "power_cc", 3.0),
        ("concave_convex_k_le_0", "power_cc", "power_cv", -0.5),
    ]
    mk = {
        "sqrt": make_generator("sqrt"),
        "power_cc": make_generator("power", alpha=0.25),
        "power_cv": make_generator("power", alpha=2.0),
    }
    for case, g1, g2, index in cases:
        rep = check_corollary(
            case, PairTriple(mk[g1], p, p), 2, index, pair2=PairTriple(mk[g2], p, p)
        )
        assert rep.equality_expected and rep.equality_observed, case
        assert abs(rep.slack) <= 1e-10 * max(1.0, abs(rep.lhs), abs(rep.rhs))


def _prob_space_fixture():
    space = make_space([0.5, 0.5])
    p = validate_density(space, [1.2, 0.8], require_prob=True)
    q = validate_density(space, [0.6, 1.4], require_prob=True)
    unit = validate_density(space, [1.0, 1.0], require_prob=True)
    return space, p, q, unit


def test_corollary_reference_cases_hold():
    _, p, q, _ = _prob_space_fixture()
    f2 = make_generator("power", alpha=2.0)
    pair_cc = PairTriple(make_generator("sqrt"), p, q)
    assert check_corollary("ref_concave", pair_cc, 2, 1.0, f2=f2).holds
    pair_cv = PairTriple(make_generator("power", alpha=2.0), p, q)
    assert check_corollary("ref_convex", pair_cv, 2, 3.0, f2=f2).holds
    assert check_corollary("ref_concave_k_le_0", pair_cc, 2, -1.0, f2=f2).holds


def test_corollary_reference_equality_at_base_measure():
    _, _, _, unit = _prob_space_fixture()
    pair = PairTriple(make_generator("sqrt"), unit, unit)
    rep = check_corollary("ref_concave", pair, 2, 1.0, f2=make_generator("sqrt"))
    assert rep.equality_expected and rep.equality_observed
    assert rep.detail["equality_basis"] == "strict"


def test_corollary_reference_linear_equality_condition():
    # a*p1 + b*q1 = a + b with p1 != q1
    space = make_space([0.5, 0.5])
    p = validate_density(space, [1.2, 0.8], require_prob=True)
    q = validate_density(space, [0.8, 1.2], require_prob=True)  # mean is the unit density
    pair = PairTriple(make_generator("linear", a=1.0, b=1.0), p, q)
    rep = check_corollary("ref_concave", pair, 2, 1.5, f2=make_generator("sqrt"))
    assert rep.detail["equality_basis"] == "linear-remark"
    assert rep.equality_expected and rep.equality_observed


def test_corollary_reference_requires_probability_space(two_atom):
    t1, _ = _sqrt_triples(two_atom)  # total mass 2
    with pytest.raises(ReferenceNotProbability):
        check_corollary("ref_concave", t1, 2, 1.0, f2=make_generator("sqrt"))


def test_corollary_index_and_shape_errors(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    cv = PairTriple(make_generator("power", alpha=2.0), two_atom["p1"], two_atom["q1"])
    with pytest.raises(IndexOutOfRange):
        check_corollary("concave_0_i_n", t1, 2, 3.0, pair2=t2)
    with pytest.raises(IndexOutOfRange):
        check_corollary("convex_concave_k_ge_n", cv, 2, 1.0, pair2=t2)
    with pytest.raises(ShapeMismatch):
        # sqrt is concave, not admissible as the convex f1
        check_corollary("convex_concave_k_ge_n", t1, 2, 3.0, pair2=t2)
    tv_pair = PairTriple(make_generator("tv"), two_atom["p1"], two_atom["q1"])
    with pytest.raises(ShapeMismatch):
        check_corollary("concave_0_i_n", tv_pair, 2, 1.0, pair2=t2)
    with pytest.raises(ShapeMismatch, match="f1 power.2. must be concave"):
        check_corollary("concave_0_i_n", cv, 2, 1.0, pair2=t2)


@pytest.mark.parametrize("call, error, match", [
    (lambda t1, t2: check_concave_upper([]), IndexOutOfRange, "at least one triple"),
    (lambda t1, t2: check_corollary("no_such_case", t1, 2, 1.0, pair2=t2),
     MixdivError, "unknown corollary case"),
    (lambda t1, t2: check_corollary("ref_concave", t1, 2, 1.0),
     MixdivError, "needs the f2 generator"),
    (lambda t1, t2: check_corollary("concave_0_i_n", t1, 2, 1.0),
     MixdivError, "needs a second triple"),
])
def test_unusable_check_arguments_are_typed(two_atom, call, error, match):
    with pytest.raises(error, match=match):
        call(*_sqrt_triples(two_atom))


@pytest.mark.filterwarnings("error")
def test_sides_beyond_the_float_range_are_typed():
    space = make_space([0.5, 0.5])
    p = validate_density(space, [1.0, 1.0], require_prob=True)
    q = validate_density(space, [2e-100, 1.9999999999999998], require_prob=True)
    # the mixed value is about 1.25e199, so [D]**2 is beyond the float range
    cube = PairTriple(make_generator("power", alpha=3.0), p, q)
    with pytest.raises(MixdivError, match="^alexandrov_fenchel: "):
        check_alexandrov_fenchel([cube, cube], 2)
    # with the large factor at the other atom in the second pair, [D]**2 is finite,
    # but the product of the two classical divergences, about 1.6e398, is not
    mirror = PairTriple(cube.generator, p, validate_density(
        space, [1.9999999999999998, 2e-100], require_prob=True))
    with pytest.raises(MixdivError, match="^alexandrov_fenchel: side beyond"):
        check_alexandrov_fenchel([cube, mirror], 2)
    # f(1) = 2e200 for both coordinates: [D]**2 is about 4e400
    big = PairTriple(make_generator("linear", a=1e200, b=1e200), p, q)
    with pytest.raises(MixdivError, match="^concave_product_chain: "):
        check_concave_upper([big, big])
    # f2(1)**(1 - 6/4) = 1e150 inside the integral, then [D]**4 is about 1e600
    f2 = scale_generator(make_generator("power", alpha=2.0), 1e-300)
    convex = PairTriple(make_generator("power", alpha=2.0), p, q)
    with pytest.raises(MixdivError, match="^corollary_ref_convex: "):
        check_corollary("ref_convex", convex, 4, 6.0, f2=f2)


@pytest.mark.filterwarnings("error")
def test_equality_predictions_read_the_log_factors():
    import mpmath

    # q * f(p/q) = 2.5e599 at atom 0 is beyond the float range, but the atom's
    # weight 1e-300 brings the divergence to about 2.5e299
    space = make_space([1e-300, 1.0])
    p = validate_density(space, [5e299, 0.5], require_prob=True)
    q = validate_density(space, [1.0, 1.0], require_prob=True)
    t = PairTriple(make_generator("power", alpha=2.0), p, q)
    rep = check_alexandrov_fenchel([t], 1)
    assert rep.holds and rep.equality_expected and rep.equality_observed
    with mpmath.workprec(200):
        want = mpmath.fsum(mpmath.mpf(m) * mpmath.mpf(a) ** 2 / mpmath.mpf(b)
                           for m, a, b in zip(space.weights, p.values, q.values))
        assert abs(mpmath.mpf(rep.detail["mixed_value"]) / want - 1) <= 1e-13
    rep = check_interpolation(t, PairTriple(make_generator("sqrt"), p, q), n=2, i=0.5, j=0, k=1)
    assert rep.holds and math.isfinite(rep.detail["proportionality_spread"])


# --- the randomized suite -----------------------------------------------------------------------

def test_audit_suite_empty_config():
    assert audit_suite(AuditConfig(seed=1)) == []


@pytest.mark.parametrize("field, value", [
    ("identities", -3), ("jensen", 2.5), ("af_convex", "2"), ("corollaries", True), ("seed", -1),
])
def test_audit_config_rejects_bad_counts(field, value):
    with pytest.raises(IndexOutOfRange, match=f"^{field} "):
        audit_suite(AuditConfig(**{"seed": 1, "jensen": 2, field: value}))


def test_audit_config_takes_numpy_integers():
    assert len(audit_suite(AuditConfig(seed=np.int64(1), identities=np.int64(0), jensen=2))) == 2


def test_audit_suite_small_run_clean():
    cfg = AuditConfig(
        seed=7, identities=20, af_convex=20, af_concave=20, concave_chain=20,
        jensen=20, interpolation=20, corollaries=5, equality_families=5,
    )
    reports = audit_suite(cfg)
    assert reports
    assert violations(reports) == []
    for r in reports:
        if r.equality_observed:
            assert r.holds
        assert r.slack == r.rhs - r.lhs


def test_audit_suite_equality_families_are_tight():
    cfg = AuditConfig(seed=11, equality_families=30)
    reports = audit_suite(cfg)
    assert reports
    for r in reports:
        assert r.equality_expected, r.detail.get("family")
        assert r.equality_observed, (r.detail.get("family"), r.slack)


def test_audit_suite_deterministic():
    cfg = AuditConfig(
        seed=42, identities=10, af_convex=10, af_concave=10, concave_chain=10,
        jensen=10, interpolation=10, corollaries=3, equality_families=3,
    )
    assert reports_to_json(audit_suite(cfg)) == reports_to_json(audit_suite(cfg))


def test_report_serialization_shape(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    rep = check_alexandrov_fenchel([t1, t2], m=2)
    d = report_to_dict(rep)
    assert set(d) == {
        "name", "lhs", "rhs", "slack", "holds", "equality_expected",
        "equality_observed", "tolerances", "detail",
    }
    assert d["tolerances"] == {"eps_ineq": 1e-12, "eps_eq": 1e-10, "eps_prop": 1e-8}
    # floats survive the JSON round trip bit for bit
    import json

    back = json.loads(reports_to_json([rep]))[0]
    assert back["lhs"] == rep.lhs and back["rhs"] == rep.rhs


def test_tolerance_overrides_respected(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    loose = Tolerances(ineq=1e-2, eq=1.0, prop=1e-8)
    rep = check_alexandrov_fenchel([t1, t2], m=2, tolerances=loose)
    assert rep.equality_observed  # |slack| ~ 0.08 <= 1.0 * scale


@pytest.mark.filterwarnings("error")
def test_interpolation_log_difference_beyond_the_float_range():
    # power(1e308) log-factors are log q + 1e308 * log(p/q): near +-1.7e308,
    # finite, but their difference at atom 0, about 2e308, is not
    space = make_space([0.25] * 4)
    power = make_generator("power", alpha=1e308)
    pairs = []
    for r in ([1.0, 0.0, -1.7, -1.7], [-1.0, 0.0, -0.3, 1.0]):
        e = np.exp(r)
        c = (3.0 - (e[0] + e[1] + e[3])) / (e[2] - 1.0)  # p and q of equal mass
        q = np.array([1.0, 1.0, c, 1.0])
        mass = 0.25 * q.sum()  # one normalizer keeps log(p/q) = 0 at atom 1 exact
        pairs.append(PairTriple(power, validate_density(space, q * e / mass),
                                validate_density(space, q / mass)))
    rep = check_interpolation(*pairs, n=100, i=40, j=38, k=48)
    assert not rep.equality_expected
    assert rep.detail["proportionality_spread"] == math.inf
