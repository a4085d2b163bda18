import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdiv import (
    f_divergence,
    integrate,
    make_generator,
    make_space,
    make_vector,
    validate_density,
)
from mixdiv import measures
from mixdiv.errors import (
    EmptySpace,
    LengthMismatch,
    MixdivError,
    NonpositiveDensity,
    NonpositiveWeight,
    NotNormalized,
    SpaceMismatch,
)

from mixdiv.measures import EPS_NORM, _EXTRACT_CUTOVER, _SUM_BLOCK, _SUM_CHUNK, _exact_sum

from oracles import direct_integral


def test_make_space_counting_measure():
    space = make_space([1.0, 1.0])
    assert space.n_atoms == 2
    assert space.total_mass == 2.0
    assert space.atom_ids == (0, 1)


def test_make_space_probability_base():
    space = make_space([0.5, 0.25, 0.25])
    assert space.total_mass == 1.0
    assert space.is_probability


def test_make_space_rejects_zero_weight():
    with pytest.raises(NonpositiveWeight, match="index 1"):
        make_space([1.0, 0.0])


def test_make_space_rejects_negative_and_nonfinite():
    with pytest.raises(NonpositiveWeight):
        make_space([1.0, -2.0])
    with pytest.raises(NonpositiveWeight):
        make_space([1.0, math.inf])


def test_make_space_empty():
    with pytest.raises(EmptySpace):
        make_space([])


def test_make_space_custom_atom_ids():
    space = make_space([1.0, 2.0], atom_ids=["a", "b"])
    assert space.atom_ids == ("a", "b")
    with pytest.raises(LengthMismatch):
        make_space([1.0], atom_ids=["a", "b"])


@pytest.mark.parametrize("ids", [5, 1.5, True])
def test_make_space_uniterable_atom_ids_are_typed(ids):
    with pytest.raises(MixdivError, match="atom ids must be a sequence of labels"):
        make_space([1.0, 2.0], atom_ids=ids)


def test_weights_are_read_only():
    space = make_space([1.0, 2.0])
    with pytest.raises(ValueError):
        space.weights[0] = 5.0


def test_validate_density_certified():
    space = make_space([1.0, 1.0])
    d = validate_density(space, [0.5, 0.5], require_prob=True)
    assert d.prob_certified
    assert abs(d.integral() - 1.0) <= 1e-9


def test_validate_density_not_normalized():
    space = make_space([1.0, 1.0])
    with pytest.raises(NotNormalized):
        validate_density(space, [0.5, 0.6], require_prob=True)


def test_validate_density_raw_is_first_class():
    space = make_space([1.0, 1.0])
    d = validate_density(space, [2.0, 3.0], require_prob=False)
    assert not d.prob_certified
    assert d.integral() == 5.0


def test_validate_density_rejects_zero():
    space = make_space([1.0, 1.0])
    with pytest.raises(NonpositiveDensity):
        validate_density(space, [0.5, 0.0])


def test_validate_density_length():
    space = make_space([1.0, 1.0])
    with pytest.raises(LengthMismatch):
        validate_density(space, [0.5])


def test_integrate_examples():
    assert integrate(make_space([1.0, 1.0]), [0.5, 0.5]) == 1.0
    assert integrate(make_space([0.5, 0.25, 0.25]), [1.0, 1.0, 1.0]) == 1.0
    assert integrate(make_space([1.0, 1.0]), [0.3466, 0.0]) == pytest.approx(
        direct_integral([1.0, 1.0], [0.3466, 0.0]), rel=0, abs=0
    )


def test_integrate_length_mismatch():
    with pytest.raises(LengthMismatch):
        integrate(make_space([1.0, 1.0]), [1.0, 2.0, 3.0])


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_integrate_linearity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    space = make_space(rng.uniform(0.1, 3.0, n))
    u = rng.uniform(-5.0, 5.0, n)
    v = rng.uniform(-5.0, 5.0, n)
    a, b = rng.uniform(-3.0, 3.0, 2)
    lhs = integrate(space, a * u + b * v)
    rhs = a * integrate(space, u) + b * integrate(space, v)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_certified_density_integrates_to_one(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 64))
    space = make_space(rng.uniform(0.1, 3.0, n))
    raw = np.exp(rng.uniform(-2.0, 2.0, n))
    d = validate_density(space, raw / integrate(space, raw), require_prob=True)
    assert abs(d.integral() - 1.0) <= 1e-9


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_integrate_permutation_exact(seed):
    # fsum is exactly rounded, so any atom reordering gives identical bits
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 64))
    w = rng.uniform(0.1, 3.0, n)
    v = rng.uniform(-5.0, 5.0, n)
    perm = rng.permutation(n)
    assert integrate(make_space(w), v) == integrate(make_space(w[perm]), v[perm])


def test_make_vector_requires_shared_space():
    s1 = make_space([1.0, 1.0])
    s2 = make_space([1.0, 2.0])
    d1 = validate_density(s1, [0.5, 0.5])
    d2 = validate_density(s2, [0.5, 0.25])
    with pytest.raises(SpaceMismatch):
        make_vector([d1, d2])
    vec = make_vector([d1, d1])
    assert len(vec) == 2


def test_space_value_equality():
    assert make_space([1.0, 2.0]) == make_space([1.0, 2.0])
    assert make_space([1.0, 2.0]) != make_space([2.0, 1.0])


@pytest.mark.parametrize("n", [1, 5, 1000])
def test_default_labels_are_built_on_first_read(n):
    w = np.linspace(1.0, 2.0, n)
    space, twin = make_space(w), make_space(w)
    assert space == twin  # two default-labelled spaces compare weights alone
    assert "atom_ids" not in vars(space) and "atom_ids" not in vars(twin)
    assert space.atom_ids == tuple(range(n))
    assert space.atom_ids is space.atom_ids  # cached
    explicit = make_space(w, atom_ids=range(n))
    assert space == explicit and explicit == space
    assert make_space(w, atom_ids=range(1, n + 1)) != make_space(w)
    assert make_space(w) != make_space(w, atom_ids=[str(j) for j in range(n)])
    with pytest.raises(AttributeError):
        space.atom_ids = ()


@pytest.mark.parametrize("labels, named", [(None, "3"), (list("abcde"), "'d'")])
def test_errors_name_the_atom_by_its_label(labels, named):
    space = make_space(np.ones(5), atom_ids=labels)
    values = np.full(5, 0.2)
    values[3] = -1.0
    with pytest.raises(NonpositiveDensity, match=f"density at atom {named} is"):
        validate_density(space, values)
    p, q = np.ones(5), np.ones(5)
    p[3], q[3] = 1e250, 1e150  # f(p/q) * q = 1e350 for f = t**2
    square = make_generator("power", alpha=2.0)
    p, q = validate_density(space, p), validate_density(space, q)
    with np.errstate(over="ignore"), pytest.raises(MixdivError, match=f"at atom {named}$"):
        f_divergence(square, p, q)


def test_make_space_retains_only_its_weights():
    w = np.random.default_rng(3).uniform(0.5, 2.0, 10**6)
    tracemalloc.start()
    try:
        space = make_space(w)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert space.n_atoms == w.size
    assert retained < 1.5 * w.nbytes


def test_error_paths_build_no_atom_labels():
    n = 10**6
    space = make_space(np.ones(n))
    bad = np.ones(n)
    bad[n - 1] = -1.0
    p, q = np.ones(n), np.ones(n)
    p[n - 2], q[n - 2] = 1e300, 1e-300
    p, q = validate_density(space, p), validate_density(space, q)
    tracemalloc.start()
    try:
        with pytest.raises(NonpositiveDensity, match=f"density at atom {n - 1} is -1.0;"):
            validate_density(space, bad)
        # the log of the factor is 1e308 * 1381, beyond the float range
        with pytest.raises(MixdivError, match=f"at atom {n - 2}$"):
            f_divergence(make_generator("power", alpha=1e308), p, q)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert "atom_ids" not in vars(space)
    assert retained < 2**20


def test_error_messages_print_plain_floats():
    with pytest.raises(NonpositiveWeight, match=r"weight at index 1 is -1\.0;"):
        make_space([1.0, -1.0])
    with pytest.raises(NonpositiveDensity, match=r"density at atom 0 is 0\.0;"):
        validate_density(make_space(np.ones(2)), np.array([0.0, 1.0]))


def _verdict(space, values):
    try:
        validate_density(space, values, require_prob=True)
    except NotNormalized:
        return False
    return True


@pytest.mark.parametrize("n", [2, 1024, 10**5, 10**6])
def test_certification_verdict_is_the_exact_integrals(n):
    # the last atom has weight 1 and takes up the target minus the other
    # atoms' integral (about 0.5, so the subtraction is exact): the exact
    # integral is then within an ULP of each target. Targets a few ULP either
    # side of 1 +- EPS_NORM need the exact fallback; the float sum alone
    # accepts those well inside, and those well outside are refused.
    rng = np.random.default_rng(n)
    w, v = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 1.5, n)
    w[-1] = 1.0
    v[:-1] *= 0.5 / integrate(make_space(w[:-1]), v[:-1])
    rest = integrate(make_space(w[:-1]), v[:-1])
    perm = rng.permutation(n)
    space, permuted = make_space(w), make_space(w[perm])
    edges = [1.0 + side * EPS_NORM + k * math.ulp(1.0) for side in (-1, 1) for k in range(-4, 5)]
    verdicts = []
    for target in edges + [1.0, 1.0 - EPS_NORM / 2, 1.0 - 2 * EPS_NORM, 1.0 + 2 * EPS_NORM]:
        v[-1] = target - rest
        want = abs(integrate(space, v) - 1.0) <= EPS_NORM
        assert _verdict(space, v) is want, target
        assert _verdict(permuted, v[perm]) is want, target
        verdicts.append(want)
    assert verdicts[:len(edges)].count(True) >= 4 and verdicts[:len(edges)].count(False) >= 4


def test_well_normalized_density_skips_the_exact_integral(monkeypatch):
    rng = np.random.default_rng(5)
    space = make_space(rng.uniform(0.5, 2.0, 10**4))
    values = rng.uniform(0.5, 1.5, 10**4)
    values /= integrate(space, values)

    def exact(*args):
        raise AssertionError("exact integral called")

    monkeypatch.setattr(measures, "integrate", exact)
    assert validate_density(space, values, require_prob=True).prob_certified


def test_not_normalized_quotes_the_exact_total():
    # a float sum in index order rounds each 2**-53 away (ties to even);
    # the exact total keeps their sum 2**-52
    space = make_space([1.0, 1.0, 1.0])
    with pytest.raises(NotNormalized) as err:
        validate_density(space, [1.5, 2.0**-53, 2.0**-53], require_prob=True)
    assert str(err.value) == "density integrates to 1.5000000000000002, not 1"


def _signed(rng, n):
    return rng.choice([-1.0, 1.0], n)


def _cancelling(rng, n):
    # terms of magnitude up to 1e20 that cancel in pairs, plus tiny leftovers
    a = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-20.0, 20.0, n // 2)
    rest = rng.standard_normal(n - 2 * a.size) * 1e-30
    return rng.permutation(np.concatenate([a, -a, rest]))


#: input families for the exact-sum property test: name -> (rng, n) -> array
_SUM_INPUTS = {
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
    "same_sign": lambda rng, n: rng.uniform(0.5, 1.0, n) * 10.0 ** rng.uniform(-300.0, 300.0),
    "cancellation": _cancelling,
    "near_1e300": lambda rng, n: _signed(rng, n) * 10.0 ** rng.uniform(290.0, 300.0, n),
    "overflowing": lambda rng, n: _signed(rng, n) * 10.0 ** rng.uniform(300.0, 308.25, n),
    "near_1e-300": lambda rng, n: _signed(rng, n) * 10.0 ** rng.uniform(-323.0, -295.0, n),
    "subnormal": lambda rng, n: _signed(rng, n) * 5e-324 * rng.integers(1, 2**52, n),
    "full_range": lambda rng, n: _signed(rng, n) * np.ldexp(
        rng.uniform(0.5, 1.0, n), rng.integers(-1074, 1024, n)
    ),
    "positive": lambda rng, n: np.exp(rng.uniform(-30.0, 30.0, n)),
    "zeros": lambda rng, n: _signed(rng, n) * 0.0,
}


def _outcome(fn, x):
    try:
        return struct.pack("<d", fn(x))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@given(
    seed=st.integers(0, 10**9),
    n=st.one_of(
        st.integers(1, _EXTRACT_CUTOVER - 1),
        st.integers(_EXTRACT_CUTOVER, 5000),
        st.integers(_SUM_CHUNK - _SUM_BLOCK, 3 * _SUM_CHUNK + _SUM_BLOCK),
    ),
    kind=st.sampled_from(sorted(_SUM_INPUTS)),
    special=st.sampled_from([None, math.inf, -math.inf, math.nan]),
)
@settings(max_examples=300, deadline=None)
def test_exact_sum_matches_fsum_bitwise(seed, n, kind, special):
    rng = np.random.default_rng(seed)
    x = _SUM_INPUTS[kind](rng, n)
    if special is not None:
        x[rng.integers(0, n, 1 + n // 1000)] = special
    assert _outcome(_exact_sum, x) == _outcome(lambda a: math.fsum(a.tolist()), x)


def test_exact_sum_same_sign_block_sums():
    # terms near the maximum make block sums as large as they get; sigma's
    # headroom must still keep every block sum exact
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(_EXTRACT_CUTOVER, _SUM_CHUNK + 5000))
        x = rng.uniform(0.5, 1.0, n) * 2.0 ** int(rng.integers(-100, 100))
        assert _exact_sum(x) == math.fsum(x.tolist())


def _near_tie(rng, n, offset):
    """n atoms summing exactly to the midpoint between a random float r0 and
    the next float up, plus offset * r0: r0 and the half gap are each spread
    over c atoms (c a power of two, at least 1024 from 4,096 atoms on), and
    the other atoms cancel in pairs; the sign of the whole array is random."""
    c = 2 ** int(math.log2(n // 4))
    r0 = rng.uniform(1.0, 2.0) * 2.0 ** int(rng.integers(-200, 200))
    noise = rng.uniform(-1.0, 1.0, (n - 2 * c - 1) // 2) * r0 / c
    x = np.concatenate([np.full(c, r0 / c), np.full(c, math.ulp(r0) / (2 * c)),
                        noise, -noise, [offset * r0]])
    x = np.concatenate([x, np.zeros(n - x.size)])
    return rng.choice([-1.0, 1.0]) * x[rng.permutation(n)]


#: sizes at the edges of the math.fsum cutover and of the extraction chunk
_EDGE_SIZES = [
    _EXTRACT_CUTOVER - 1, _EXTRACT_CUTOVER, _EXTRACT_CUTOVER + 1,
    _SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1, 2 * _SUM_CHUNK + 1,
]


@pytest.mark.parametrize("n", _EDGE_SIZES)
@pytest.mark.parametrize("offset", [0.0, 2.0**-60, -(2.0**-60), 2.0**-120, -(2.0**-120)])
def test_exact_sum_at_and_near_rounding_midpoints(n, offset):
    rng = np.random.default_rng(n)
    for _ in range(3):
        x = _near_tie(rng, n, offset)
        assert _outcome(_exact_sum, x) == _outcome(lambda a: math.fsum(a.tolist()), x)


@pytest.mark.parametrize("n", _EDGE_SIZES)
@pytest.mark.parametrize("kind", ["cancel", "neg_zeros", "signed_zeros"])
def test_exact_sum_cancelling_to_zero(n, kind):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n // 2) * 10.0 ** rng.uniform(-300.0, 300.0, n // 2)
    x = {
        "cancel": np.concatenate([v, -v, np.zeros(n % 2)]),
        "neg_zeros": np.full(n, -0.0),
        "signed_zeros": rng.choice([-0.0, 0.0], n),
    }[kind][rng.permutation(n)]
    assert _outcome(_exact_sum, x) == _outcome(lambda a: math.fsum(a.tolist()), x)


@pytest.mark.parametrize("n", _EDGE_SIZES)
def test_exact_sum_at_edge_sizes(n):
    rng = np.random.default_rng(n)
    for kind in sorted(_SUM_INPUTS):
        x = _SUM_INPUTS[kind](rng, n)
        assert _outcome(_exact_sum, x) == _outcome(lambda a: math.fsum(a.tolist()), x), kind


def test_one_extraction_pass_unless_the_rounding_is_uncertain(monkeypatch):
    passes = []
    extract = measures._extract

    def spy(x, limit):
        passes.append(limit)
        return extract(x, limit)

    monkeypatch.setattr(measures, "_extract", spy)
    rng = np.random.default_rng(11)
    bulk = np.exp(rng.uniform(-5.0, 5.0, 10**5)) * rng.uniform(0.5, 2.0, 10**5)
    assert _exact_sum(bulk) == math.fsum(bulk.tolist())
    assert passes == [1]
    passes.clear()
    tie = _near_tie(rng, 10**5, 0.0)
    assert _exact_sum(tie) == math.fsum(tie.tolist())
    assert passes == [1, math.inf]


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_integrate_permutation_exact_above_cutover(n):
    rng = np.random.default_rng(n)
    w = rng.uniform(0.1, 3.0, n)
    v = rng.uniform(-5.0, 5.0, n) * np.exp(rng.uniform(-30.0, 30.0, n))
    want = math.fsum((v * w).tolist())
    assert integrate(make_space(w), v) == want
    for _ in range(3):
        perm = rng.permutation(n)
        assert integrate(make_space(w[perm]), v[perm]) == want


@pytest.mark.parametrize("n", [2, 2 * _EXTRACT_CUTOVER])
def test_summation_overflow_is_typed(n):
    with pytest.raises(NonpositiveWeight, match="total mass is not finite"):
        make_space(np.full(n, 1e308))
    space = make_space(np.ones(n))
    with pytest.raises(MixdivError, match="float range"):
        integrate(space, np.full(n, 1e308))
    terms = np.ones(n)
    terms[-1] = math.inf
    assert integrate(space, terms) == math.inf


@pytest.mark.parametrize("values", [
    ["a", "b"], "ab", [1.0, {"x": 1}],
    # numpy would read these as numbers
    ["1", "1"], ["0.5", True], [1.0, True], np.array([True, True]), np.array(["1", "2"]),
    [10**400, 1.0],  # an integer beyond float range
])
def test_non_numeric_per_atom_data_is_typed(values):
    with pytest.raises(MixdivError, match="per-atom data must be numbers"):
        make_space(values)
    with pytest.raises(MixdivError, match="per-atom data must be numbers"):
        validate_density(make_space([1.0, 1.0]), values)
