import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdiv import (
    Generator,
    IthMixedSpec,
    PairTriple,
    adjoint,
    check_alexandrov_fenchel,
    f_dissimilarity,
    f_divergence,
    integrate,
    ith_bhattacharyya,
    ith_hellinger,
    ith_kl,
    ith_mixed,
    ith_mixed_reference,
    ith_renyi,
    ith_total_variation,
    make_generator,
    make_space,
    make_vector,
    matusita_affinity,
    mixed_bhattacharyya,
    mixed_divergence,
    mixed_divergence_k,
    mixed_hellinger,
    mixed_kl,
    mixed_renyi,
    mixed_total_variation,
    paired,
    toussaint_affinity,
    validate_density,
)
from mixdiv import divergence, generators
from mixdiv.divergence import weighted_product_integral
from mixdiv.generators import generator_from_spec, scale_generator
from mixdiv.errors import (
    ArityMismatch,
    EmptySpace,
    IndexOutOfRange,
    LengthMismatch,
    MixdivError,
    MixedArityZero,
    ReferenceNotProbability,
    RenyiAlphaOne,
    SpaceMismatch,
)

import oracles
from conftest import catalog_generators

# Frozen values regenerated with the direct-summation oracle (tests/oracles.py).
TV_VALUE = 0.5
KL_VALUE = 0.34657359027997264
BHATT_VALUE = 0.9659258262890683
MIXED_SQRT_VALUE = 0.9129266728982846
RENYI_HALF_VALUE = 0.06933646419507386
SQRT_PAIR2_VALUE = 0.9486832980505138
ITH_REF_VALUE = 0.9749466075207308

REL = 1e-12


def _rel_eq(a, b, rel=REL):
    assert abs(a - b) <= rel * max(1.0, abs(a), abs(b)), (a, b)


def _sqrt_triples(two_atom):
    sq = make_generator("sqrt")
    t1 = PairTriple(sq, two_atom["p1"], two_atom["q1"])
    t2 = PairTriple(sq, two_atom["p2"], two_atom["q2"])
    return t1, t2


def _random_instance(seed, max_pairs=6, max_atoms=32, positive_only=False):
    rng = np.random.default_rng(seed)
    atoms = int(rng.integers(2, max_atoms + 1))
    space = make_space(rng.uniform(0.25, 2.0, atoms))
    n = int(rng.integers(1, max_pairs + 1))

    def dens():
        raw = np.exp(rng.uniform(-2.0, 2.0, atoms))
        return validate_density(space, raw / integrate(space, raw), require_prob=True)

    alphas = (-1.0, -0.5, 0.25, 0.5, 0.75, 2.0, 3.0)

    def gen():
        c = int(rng.integers(4 if not positive_only else 2))
        if not positive_only and c == 0:
            return make_generator("tv"), oracles.tv
        if not positive_only and c == 1:
            return make_generator("kl+"), oracles.klp
        if c in (0, 2):
            a, b = rng.uniform(0.1, 2.0, 2)
            return make_generator("linear", a=a, b=b), oracles.linear(a, b)
        alpha = float(alphas[rng.integers(len(alphas))])
        return make_generator("power", alpha=alpha), oracles.power(alpha)

    triples, fs = [], []
    for _ in range(n):
        g, f = gen()
        triples.append(PairTriple(g, dens(), dens()))
        fs.append(f)
    return space, triples, fs


# --- classical divergence ----------------------------------------------------------

def test_f_divergence_fixture_values(two_atom):
    p1, q1 = two_atom["p1"], two_atom["q1"]
    _rel_eq(f_divergence(make_generator("tv"), p1, q1), TV_VALUE)
    _rel_eq(f_divergence(make_generator("kl+"), p1, q1), KL_VALUE)
    _rel_eq(
        f_divergence(make_generator("sqrt"), two_atom["p2"], two_atom["q2"]),
        SQRT_PAIR2_VALUE,
    )


def test_f_divergence_equal_densities_gives_f_at_one(two_atom):
    p1 = two_atom["p1"]
    for g in (make_generator("tv"), make_generator("power", alpha=2.0)):
        _rel_eq(f_divergence(g, p1, p1), g(1.0))


def test_f_divergence_space_mismatch():
    s1 = make_space([1.0, 1.0])
    s2 = make_space([1.0, 2.0])
    d1 = validate_density(s1, [0.5, 0.5])
    d2 = validate_density(s2, [0.5, 0.25])
    with pytest.raises(SpaceMismatch):
        f_divergence(make_generator("tv"), d1, d2)
    with pytest.raises(SpaceMismatch):
        PairTriple(make_generator("tv"), d1, d2)


# --- mixed divergence ----------------------------------------------------------------

def test_mixed_bhattacharyya_fixture(two_atom):
    t1, _ = _sqrt_triples(two_atom)
    _rel_eq(mixed_divergence([t1, t1]), BHATT_VALUE)


def test_mixed_two_pairs_fixture(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    _rel_eq(mixed_divergence([t1, t2]), MIXED_SQRT_VALUE)


def test_mixed_diagonal_equals_classical(two_atom):
    t1, _ = _sqrt_triples(two_atom)
    for n in (1, 2, 5):
        _rel_eq(
            mixed_divergence([t1] * n),
            f_divergence(t1.generator, t1.p, t1.q),
        )


def test_mixed_identical_distributions_gives_product_of_f_ones(two_atom):
    p = two_atom["p1"]
    gens = [make_generator("power", alpha=a) for a in (0.25, 2.0, -1.0)]
    triples = [PairTriple(g, p, p) for g in gens]
    _rel_eq(mixed_divergence(triples), 1.0)  # every power has f(1) = 1


def test_mixed_arity_zero():
    with pytest.raises(MixedArityZero):
        mixed_divergence([])


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_mixed_matches_direct_oracle(seed):
    space, triples, fs = _random_instance(seed)
    mu = space.weights.tolist()
    ps = [t.p.values.tolist() for t in triples]
    qs = [t.q.values.tolist() for t in triples]
    _rel_eq(mixed_divergence(triples), oracles.direct_mixed(fs, ps, qs, mu))


# --- order change ---------------------------------------------------------------------

def test_order_change_row_fixture(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    base = mixed_divergence([t1, t2])
    for k in range(3):
        _rel_eq(mixed_divergence_k([t1, t2], k), base)


def test_order_change_k_equals_n_is_definition(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    assert mixed_divergence_k([t1, t2], 2) == mixed_divergence([t1, t2])


def test_order_change_k_zero_is_adjoint_swap(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    swapped = [PairTriple(adjoint(t.generator), t.q, t.p) for t in (t1, t2)]
    _rel_eq(mixed_divergence_k([t1, t2], 0), mixed_divergence(swapped))


def test_order_change_index_range(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    for k in (-1, 3):
        with pytest.raises(IndexOutOfRange):
            mixed_divergence_k([t1, t2], k)


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_order_change_invariance(seed):
    _, triples, _ = _random_instance(seed)
    base = mixed_divergence(triples)
    for k in range(len(triples) + 1):
        _rel_eq(mixed_divergence_k(triples, k), base)


@pytest.mark.filterwarnings("error")
def test_custom_adjoint_factor_where_its_closure_would_overflow():
    # at atom 0, q/p = 1e200: the adjoint t * fn(1/t) = 1 + t**2 overflows there,
    # but the factor p + q**2/p = 1e250 is finite, in adjoint form as in direct form
    g = make_generator("custom", fn=lambda t: t + 1.0 / t, shape="convex", strict=True,
                       positive=True)
    space = make_space([1.0, 1.0])
    t = PairTriple(g, validate_density(space, [1e-150, 1.0]), validate_density(space, [1e50, 1.0]))
    direct = mixed_divergence_k([t], 1)
    _rel_eq(direct, 1e250, rel=1e-13)
    assert mixed_divergence_k([t], 0) == direct


# --- factors shared per triple ------------------------------------------------------

def _convex_probability_triples(seed):
    """Freshly built triples: four convex power generators on 32 atoms."""
    rng = np.random.default_rng(seed)
    space = make_space(rng.uniform(0.25, 2.0, 32))

    def dens():
        raw = np.exp(rng.uniform(-2.0, 2.0, 32))
        return validate_density(space, raw / integrate(space, raw), require_prob=True)

    return [PairTriple(make_generator("power", alpha=a), dens(), dens())
            for a in (2.0, 3.0, -0.5, 1.5)]


def _counted_passes(monkeypatch):
    """Patch Generator.log_perspective to record one label per factor pass."""
    passes = []
    log_perspective = Generator.log_perspective

    def counted(self, x, y):
        passes.append(self.label)
        return log_perspective(self, x, y)

    monkeypatch.setattr(Generator, "log_perspective", counted)
    return passes


def test_order_change_row_evaluates_each_factor_once(monkeypatch):
    passes = _counted_passes(monkeypatch)
    triples = _convex_probability_triples(0)
    n = len(triples)
    for k in range(n + 1):
        mixed_divergence_k(triples, k)
    assert len(passes) == 2 * n  # one integrand and one adjoint pass per triple


def test_factors_are_shared_read_only_arrays():
    t = _convex_probability_triples(1)[0]
    for name in ("log_integrand_factor", "log_adjoint_factor"):
        w = getattr(t, name)
        assert getattr(t, name) is w
        with pytest.raises(ValueError):
            w[0] = 1.0


def test_reused_triples_match_fresh_triples_bit_for_bit():
    reused = _convex_probability_triples(2)
    n = len(reused)
    for _ in range(2):  # the second round reads only factors cached by the first
        for k in range(n + 1):
            assert mixed_divergence_k(reused, k) == mixed_divergence_k(
                _convex_probability_triples(2), k)
        for i in (-0.5, 0.0, 1.0, 2.5):
            fresh = _convex_probability_triples(2)
            assert ith_mixed(IthMixedSpec(reused[0], reused[1], i=i, n=n)) == ith_mixed(
                IthMixedSpec(fresh[0], fresh[1], i=i, n=n))
        for m in range(1, n + 1):
            assert check_alexandrov_fenchel(reused, m) == check_alexandrov_fenchel(
                _convex_probability_triples(2), m)


def _pair_densities(seed, atoms=32):
    rng = np.random.default_rng(seed)
    space = make_space(rng.uniform(0.25, 2.0, atoms))
    p, q = (validate_density(space, np.exp(rng.uniform(-3.0, 3.0, atoms))) for _ in range(2))
    return p, q


def _bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("k", [0, 2, 6])
def test_bulk_shaped_op_evaluates_each_integrand_factor_once(monkeypatch, k):
    passes = _counted_passes(monkeypatch)
    p, q = _pair_densities(k)
    gens = [make_generator("power", alpha=a) for a in (2.0, 3.0, -0.5, 1.5)]
    gens += [make_generator("total_variation"), make_generator("linear", a=2.0, b=1.0)]
    triples = [PairTriple(g, p, q) for g in gens]
    mixed_divergence(triples)
    mixed_divergence_k(triples, k)
    for t in triples:
        f_divergence(t.generator, t.p, t.q)
    for i in (0.5, 1.0, 1.5):
        ith_mixed(IthMixedSpec(triples[0], triples[1], i=i, n=2))
    # one integrand pass per triple, one adjoint pass per adjoint-form factor
    assert len(passes) == 6 + (6 - k)


def _catalog_and_custom():
    gens = catalog_generators()
    gens += [adjoint(g) for g in gens] + [scale_generator(g, 2.5) for g in gens]
    custom = make_generator("custom", fn=lambda t: t + 1.0 / t, shape="convex", strict=True)
    return gens + [custom, adjoint(custom)]


def test_f_divergence_reads_a_live_triple_bit_for_bit(monkeypatch):
    passes = _counted_passes(monkeypatch)
    p, q = _pair_densities(11)
    for g in _catalog_and_custom():
        fresh = f_divergence(g, p, q)  # no live triple holds (g, p, q)
        t = PairTriple(g, p, q)
        lw = t.log_integrand_factor
        passes.clear()
        assert _bits(f_divergence(g, p, q)) == _bits(fresh), g.label
        assert passes == [] and t.log_integrand_factor is lw
        f_divergence(g, q, p)  # the pair reversed is a miss
        f_divergence(dataclasses.replace(g), p, q)  # and so is an equal generator
        assert len(passes) == 2


def test_f_divergence_of_a_live_triple_raises_the_same_error():
    import gc

    t = _overflow_triple(1.0)  # the integral, about 1e350, is beyond range
    g, p, q = t.generator, t.p, t.q

    def raised():
        with pytest.raises(MixdivError) as e:
            f_divergence(g, p, q)
        return type(e.value), str(e.value)

    live = [raised(), raised()]
    del t
    gc.collect()  # the tracebacks held the triple
    assert (id(g), id(p), id(q)) not in divergence._LIVE_TRIPLES
    assert live == [raised()] * 2


def test_no_factor_outlives_its_triple(monkeypatch):
    import gc
    import weakref

    passes = _counted_passes(monkeypatch)
    p, q = _pair_densities(12)
    g = make_generator("power", alpha=3.0)
    t = PairTriple(g, p, q)
    value = f_divergence(g, p, q)
    assert len(passes) == 1
    factor = weakref.ref(t.log_integrand_factor)
    del t
    gc.collect()
    assert factor() is None
    assert (id(g), id(p), id(q)) not in divergence._LIVE_TRIPLES
    assert _bits(f_divergence(g, p, q)) == _bits(value)
    assert len(passes) == 2  # evaluated again


def test_spaces_densities_and_cached_triples_pickle():
    import pickle

    from mixdiv import sphere_grid

    p, q = _pair_densities(13)
    triples = [PairTriple(make_generator("power", alpha=a), p, q) for a in (0.5, 2.0)]

    def values(ts):
        fs = [f_divergence(t.generator, t.p, t.q) for t in ts]
        return [_bits(v) for v in [*fs, mixed_divergence(ts), mixed_divergence_k(ts, 0)]]

    before = values(triples)  # caches both factors of each triple
    space = pickle.loads(pickle.dumps(p.space))
    assert space == p.space
    dens = pickle.loads(pickle.dumps(p))
    assert dens.space == p.space and np.array_equal(dens.values, p.values)
    copies = pickle.loads(pickle.dumps(triples))
    for t, c in zip(triples, copies):
        assert np.array_equal(c.log_integrand_factor, t.log_integrand_factor)
        assert np.array_equal(c.log_adjoint_factor, t.log_adjoint_factor)
    assert values(copies) == before
    grid = sphere_grid(3, 8)
    grid_copy = pickle.loads(pickle.dumps(grid))
    assert np.array_equal(grid_copy.nodes, grid.nodes) and grid_copy.space == grid.space
    # every array comes back read-only, as it was
    for array in (space.weights, dens.values, copies[0].log_integrand_factor,
                  copies[0].log_adjoint_factor, grid_copy.nodes, grid_copy.weights):
        assert array.flags.writeable is False


def test_an_unpickled_triple_reads_its_cached_factor(monkeypatch):
    import pickle

    p, q = _pair_densities(14)
    t = PairTriple(make_generator("power", alpha=2.0), p, q)
    value = f_divergence(t.generator, t.p, t.q)  # caches the factor
    copy = pickle.loads(pickle.dumps(t))
    passes = _counted_passes(monkeypatch)
    assert _bits(f_divergence(copy.generator, copy.p, copy.q)) == _bits(value)
    assert passes == []
    assert divergence._LIVE_TRIPLES[id(copy.generator), id(copy.p), id(copy.q)] is copy


def test_threads_build_triples_and_read_them_bit_for_bit():
    import gc
    import threading

    pairs = [_pair_densities(seed, atoms=4096) for seed in (21, 22)]
    gens = [make_generator("power", alpha=a) for a in (0.5, 3.0)] + [make_generator("tv")]
    jobs = [(g, p, q) for g in gens for p, q in pairs]
    want = [_bits(f_divergence(g, p, q)) for g, p, q in jobs]
    start = threading.Barrier(4)
    got = [[] for _ in range(4)]

    def work(n):
        """25 rounds of create-triple-then-f_divergence over every job, each
        thread in its own order, so threads race on the same three objects."""
        start.wait()
        for r in range(25):
            for j in range(len(jobs)):
                k = (j + n + r) % len(jobs)
                t = PairTriple(*jobs[k])
                got[n].append((k, _bits(f_divergence(t.generator, t.p, t.q))))

    threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert [len(g) for g in got] == [25 * len(jobs)] * 4
    assert all(bits == want[k] for g in got for k, bits in g)
    gc.collect()
    assert len(divergence._LIVE_TRIPLES) == 0


# --- permutation / symmetry / rescaling properties -------------------------------------

@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_permutation_invariance(seed):
    _, triples, _ = _random_instance(seed)
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(len(triples))
    _rel_eq(mixed_divergence([triples[j] for j in perm]), mixed_divergence(triples))


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_adjoint_swap_invariance(seed):
    _, triples, _ = _random_instance(seed)
    swapped = [PairTriple(adjoint(t.generator), t.q, t.p) for t in triples]
    _rel_eq(mixed_divergence(swapped), mixed_divergence(triples))


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_symmetry_in_distributions(seed):
    _, triples, _ = _random_instance(seed)
    star = [PairTriple(adjoint(t.generator), t.p, t.q) for t in triples]
    rev = [PairTriple(t.generator, t.q, t.p) for t in triples]
    rev_star = [PairTriple(adjoint(t.generator), t.q, t.p) for t in triples]
    s_pq = mixed_divergence(triples) + mixed_divergence(star)
    s_qp = mixed_divergence(rev) + mixed_divergence(rev_star)
    _rel_eq(s_pq, s_qp)


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_measure_rescaling_invariance(seed):
    space, triples, _ = _random_instance(seed)
    rng = np.random.default_rng(seed + 2)
    c = float(rng.uniform(0.2, 5.0))
    scaled = make_space(space.weights * c)
    rescaled = [
        PairTriple(
            t.generator,
            validate_density(scaled, t.p.values / c, require_prob=True),
            validate_density(scaled, t.q.values / c, require_prob=True),
        )
        for t in triples
    ]
    _rel_eq(mixed_divergence(rescaled), mixed_divergence(triples))


# --- i-th mixed divergence --------------------------------------------------------------

def test_ith_endpoints(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    _rel_eq(
        ith_mixed(IthMixedSpec(t1, t2, i=0.0, n=2)),
        f_divergence(t2.generator, t2.p, t2.q),
    )
    _rel_eq(
        ith_mixed(IthMixedSpec(t1, t2, i=2.0, n=2)),
        f_divergence(t1.generator, t1.p, t1.q),
    )


def test_ith_middle_coincides_with_mixed(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    _rel_eq(ith_mixed(IthMixedSpec(t1, t2, i=1.0, n=2)), MIXED_SQRT_VALUE)


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_ith_duality(seed):
    rng = np.random.default_rng(seed)
    _, triples, _ = _random_instance(seed, max_pairs=2, positive_only=True)
    if len(triples) < 2:
        triples = triples * 2
    t1, t2 = triples[0], triples[1]
    n = int(rng.integers(1, 7))
    i = float(rng.uniform(-2.0, n + 2.0))
    lhs = ith_mixed(IthMixedSpec(t1, t2, i=i, n=n))
    rhs = ith_mixed(IthMixedSpec(t2, t1, i=n - i, n=n))
    _rel_eq(lhs, rhs)


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_ith_matches_direct_oracle(seed):
    rng = np.random.default_rng(seed)
    space, triples, fs = _random_instance(seed, max_pairs=2, positive_only=True)
    if len(triples) < 2:
        triples, fs = triples * 2, fs * 2
    n = int(rng.integers(1, 7))
    i = float(rng.uniform(0.0, n))
    got = ith_mixed(IthMixedSpec(triples[0], triples[1], i=i, n=n))
    want = oracles.direct_ith(
        fs[0], triples[0].p.values.tolist(), triples[0].q.values.tolist(),
        fs[1], triples[1].p.values.tolist(), triples[1].q.values.tolist(),
        i, n, space.weights.tolist(),
    )
    _rel_eq(got, want)


def test_ith_spec_validation(two_atom):
    t1, t2 = _sqrt_triples(two_atom)
    with pytest.raises(IndexOutOfRange):
        IthMixedSpec(t1, t2, i=1.0, n=0)
    other = make_space([1.0, 2.0])
    d = validate_density(other, [0.5, 0.25])
    with pytest.raises(SpaceMismatch):
        IthMixedSpec(t1, PairTriple(make_generator("sqrt"), d, d), i=1.0, n=2)


def test_ith_zero_factor_uses_zero_power_zero_convention():
    # with i=0 the first factor is absent even where it vanishes
    space = make_space([1.0, 1.0])
    p = validate_density(space, [0.5, 0.5], require_prob=True)
    q = validate_density(space, [0.25, 0.75], require_prob=True)
    tv_pair = PairTriple(make_generator("tv"), p, p)  # integrand identically 0
    sqrt_pair = PairTriple(make_generator("sqrt"), p, q)
    _rel_eq(
        ith_mixed(IthMixedSpec(tv_pair, sqrt_pair, i=0.0, n=2)),
        f_divergence(make_generator("sqrt"), p, q),
    )
    # positive exponent on a zero integrand kills every atom
    assert ith_mixed(IthMixedSpec(tv_pair, sqrt_pair, i=1.0, n=2)) == 0.0


def test_log_space_handles_extreme_indices():
    # direct power evaluation overflows here; the log-space path must not
    space = make_space([1.0])
    one = validate_density(space, [1.0], require_prob=True)
    tiny = make_generator("linear", a=1e-15, b=0.0)
    pair = PairTriple(tiny, one, one)
    value = ith_mixed(IthMixedSpec(pair, pair, i=-50.0, n=2))
    # w1 = w2 = 1e-15; exponents -25 and 26 multiply back to w = 1e-15
    _rel_eq(value, 1e-15, rel=1e-10)
    with pytest.raises(OverflowError):
        (1e-15) ** (-25.0) * (1e-15) ** 26.0


def test_weighted_product_integral_zero_rules():
    space = make_space([1.0, 1.0])
    # the factors (0, 2), (3, 4) and (0, 1), given by their logs
    w_zero = np.array([-math.inf, math.log(2.0)])
    w_pos = np.log([3.0, 4.0])
    w_zero_one = np.array([-math.inf, 0.0])
    # (log-factors, exponents, expected integral over mu = (1, 1), relative
    # tolerance); a tolerance of 0 asks for the exact value
    table = [
        ([w_zero], [0.0], 2.0, 0.0),  # 0**0 = 1
        ([w_zero, w_pos], [0.0, 0.0], 2.0, 0.0),  # no nonzero exponent: integral of 1
        ([], [], 2.0, 0.0),
        ([w_zero, w_pos], [0.5, 0.5], math.sqrt(8.0), REL),  # 0**e = 0 for e > 0
        ([w_zero], [-1.0], math.inf, 0.0),  # 0**e = inf for e < 0
        # zero-to-positive and zero-to-negative at one atom, in both orders:
        # that atom gives 0, the other gives 1**0.5 * 1**-1.5 = 1
        ([w_zero_one, w_zero_one], [0.5, -1.5], 1.0, 0.0),
        ([w_zero_one, w_zero_one], [-1.5, 0.5], 1.0, 0.0),
    ]
    for factors, exponents, want, rel in table:
        got = weighted_product_integral(space, factors, exponents)
        if rel == 0.0:
            assert got == want, (exponents, got, want)
        else:
            _rel_eq(got, want, rel=rel)
    for factors, exponents, error in [
        ([w_pos, np.zeros(3)], [0.5, 0.5], LengthMismatch),
        ([np.zeros(3)], [0.0], LengthMismatch),
        ([w_pos], [0.5, 0.5], ArityMismatch),
        ([w_pos], [math.nan], IndexOutOfRange),
        ([w_pos, w_pos], [math.inf, -math.inf], IndexOutOfRange),
        ([w_pos, w_pos], [1e300, -1e300], IndexOutOfRange),
    ]:
        with pytest.raises(error):
            weighted_product_integral(space, factors, exponents)


@pytest.mark.parametrize("call, error, match", [
    (lambda pair: mixed_hellinger([pair, pair], [0.5]), ArityMismatch, "2 pairs vs 1 generators"),
    (lambda pair: make_space([[1.0, 2.0]]), MixdivError, "one-dimensional"),
    (lambda pair: make_vector([]), EmptySpace, "at least one density"),
    (lambda pair: toussaint_affinity([-0.5, 1.5]), MixdivError, ">= 0 and sum to 1"),
    (lambda pair: toussaint_affinity("ab"), MixdivError, "must be a list"),
    (lambda pair: matusita_affinity(1.5), MixdivError, "integer >= 1"),
    (lambda pair: scale_generator(make_generator("tv"), 0.0), MixdivError, "finite and > 0"),
    (lambda pair: generator_from_spec("tv"), MixdivError, "an object with a string 'kind'"),
])
def test_unusable_arguments_are_typed(two_atom, call, error, match):
    with pytest.raises(error, match=match):
        call((two_atom["p1"], two_atom["q1"]))


def _term_spy(monkeypatch):
    """Record the per-atom terms each divergence hands to the exact sum."""
    captured = []
    real = divergence._sum_terms

    def spy(terms):
        captured.append(np.array(terms, dtype=float))
        return real(terms)

    monkeypatch.setattr(divergence, "_sum_terms", spy)
    return captured


def _power_instance(rng, atoms, alphas):
    space = make_space(rng.uniform(0.25, 2.0, atoms))
    triples = [
        PairTriple(
            make_generator("power", alpha=a),
            validate_density(space, np.exp(rng.uniform(-3.0, 3.0, atoms))),
            validate_density(space, np.exp(rng.uniform(-3.0, 3.0, atoms))),
        )
        for a in alphas
    ]
    return space, triples


def _restrict(triples, atoms):
    """The same triples on the sub-space of the given atoms, in that order."""
    space = triples[0].space
    sub = make_space(space.weights[atoms])
    return [
        PairTriple(t.generator, validate_density(sub, t.p.values[atoms]),
                   validate_density(sub, t.q.values[atoms]))
        for t in triples
    ]


_EVALUATIONS = {
    "mixed": mixed_divergence,
    "order_k": lambda triples: mixed_divergence_k(triples, 2),
    "ith": lambda triples: ith_mixed(IthMixedSpec(triples[0], triples[1], i=0.7, n=2)),
}


@pytest.mark.parametrize("name", sorted(_EVALUATIONS))
def test_per_atom_terms_independent_of_batch_and_position(name, monkeypatch):
    evaluate = _EVALUATIONS[name]
    atoms = 200
    rng = np.random.default_rng(20261018)
    _, triples = _power_instance(rng, atoms, (-1.0, -0.5, 0.25, 0.5, 2.0, 3.0))
    captured = _term_spy(monkeypatch)
    evaluate(triples)
    (batch,) = captured
    singles = []
    for j in range(atoms):
        evaluate(_restrict(triples, [j]))
        singles.append(captured[-1][0])
    differ = np.flatnonzero(batch != np.array(singles))
    assert differ.size == 0, f"{differ.size} of {atoms} terms depend on the batch"
    perm = rng.permutation(atoms)
    evaluate(_restrict(triples, perm))
    assert np.array_equal(captured[-1], batch[perm])


def _gather_instance(atoms):
    """kl+, tv and sqrt pairs on a space of mass just below 1, so every term is
    near and the kernel gathers the live ones; p < q on about half of the
    atoms (kl+ factor 0) and p == q on every eighth (tv factor 0)."""
    rng = np.random.default_rng(atoms)
    w = rng.uniform(0.5, 2.0, atoms)
    space = make_space(w / (w.sum() * (1.0 + 1e-12)))
    triples = []
    for kind in ("kl+", "tv", "sqrt"):
        p = np.exp(rng.uniform(-2.0, 2.0, atoms))
        q = p * np.exp(rng.uniform(-1.0, 1.0, atoms))
        q[::8] = p[::8]
        triples.append(PairTriple(make_generator(kind), validate_density(space, p),
                                  validate_density(space, q)))
    return space, triples


_GATHERED = {  # name -> (engine call, oracle call on (fs, ps, qs, mu))
    "f_divergence_kl": (lambda ts: f_divergence(ts[0].generator, ts[0].p, ts[0].q),
                        lambda fs, ps, qs, mu: oracles.direct_f_divergence(fs[0], ps[0], qs[0], mu)),
    "f_divergence_tv": (lambda ts: f_divergence(ts[1].generator, ts[1].p, ts[1].q),
                        lambda fs, ps, qs, mu: oracles.direct_f_divergence(fs[1], ps[1], qs[1], mu)),
    "mixed": (mixed_divergence, oracles.direct_mixed),
    "ith": (lambda ts: ith_mixed(IthMixedSpec(ts[0], ts[1], i=0.7, n=2)),
            lambda fs, ps, qs, mu: oracles.direct_ith(fs[0], ps[0], qs[0], fs[1], ps[1], qs[1],
                                                      0.7, 2, mu)),
}


@pytest.mark.parametrize("atoms", [4096, 16384])
@pytest.mark.parametrize("name", sorted(_GATHERED))
def test_gathered_zero_terms_keep_every_bit(atoms, name, monkeypatch):
    # from _GATHER_MIN atoms on, zero factors skip kl's logs and the kernel's
    # exp; the value must be the one the ungathered path gives, bit for bit
    evaluate, oracle = _GATHERED[name]
    space, triples = _gather_instance(atoms)
    gathered = evaluate(triples)
    monkeypatch.setattr(divergence, "_GATHER_MIN", atoms + 1)
    monkeypatch.setattr(generators, "_GATHER_MIN", atoms + 1)
    assert evaluate(_gather_instance(atoms)[1]) == gathered  # fresh triples: no cached factors
    fs = [oracles.klp, oracles.tv, oracles.power(0.5)]
    ps = [t.p.values.tolist() for t in triples]
    qs = [t.q.values.tolist() for t in triples]
    _rel_eq(gathered, oracle(fs, ps, qs, space.weights.tolist()), rel=1e-12)


def test_gathered_terms_match_single_atoms(monkeypatch):
    # from _GATHER_MIN atoms on, zero factors skip the log and the exp; each
    # term must still be the one its atom gives alone
    from mixdiv.generators import _GATHER_MIN

    rng = np.random.default_rng(20261019)
    atoms = _GATHER_MIN + 64
    space = make_space(rng.uniform(0.25, 2.0, atoms))

    def dens():
        return validate_density(space, np.exp(rng.uniform(-3.0, 3.0, atoms)))

    triples = [PairTriple(make_generator(kind), dens(), dens()) for kind in ("kl+", "tv", "sqrt")]
    captured = _term_spy(monkeypatch)
    sample = rng.choice(atoms, 48, replace=False)
    for evaluate in (mixed_divergence, lambda ts: f_divergence(ts[0].generator, ts[0].p, ts[0].q)):
        evaluate(triples)
        batch = captured[-1]
        assert np.count_nonzero(batch == 0.0) > atoms // 4  # the kl zeros took the gathered path
        for j in sample:
            evaluate(_restrict(triples, [j]))
            assert captured[-1][0] == batch[j], j


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_products_of_powers_match_mpmath(seed):
    # imported here so the rest of the module is collected without it
    import mpmath

    def power_factor(alpha, p, q):
        return (mpmath.mpf(p) / mpmath.mpf(q)) ** mpmath.mpf(alpha) * mpmath.mpf(q)

    rng = np.random.default_rng(seed)
    alphas = [float(a) for a in rng.choice([-1.0, -0.5, 0.25, 0.5, 0.75, 2.0, 3.0], 6)]
    space, triples = _power_instance(rng, 64, alphas)
    exponents = [float(e) for e in rng.uniform(-2.0, 2.0, 6)]
    with mpmath.workprec(200):
        mu = [mpmath.mpf(float(m)) for m in space.weights]
        direct = [[power_factor(a, p, q) for p, q in zip(t.p.values, t.q.values)]
                  for a, t in zip(alphas, triples)]
        mixed_want = mpmath.fsum(
            m * mpmath.fprod(col) ** (mpmath.mpf(1) / 6) for m, col in zip(mu, zip(*direct))
        )
        # the combination alone, on the engine's own double log-factors
        factors = [t.log_integrand_factor for t in triples]
        exact = [[mpmath.exp(mpmath.mpf(float(v))) for v in f] for f in factors]
        wpi_want = mpmath.fsum(
            m * mpmath.fprod(w ** mpmath.mpf(e) for w, e in zip(col, exponents))
            for m, col in zip(mu, zip(*exact))
        )
        for got, want in [
            (mixed_divergence(triples), mixed_want),
            (mixed_divergence_k(triples, 3), mixed_want),
            (weighted_product_integral(space, factors, exponents), wpi_want),
        ]:
            assert abs(mpmath.mpf(got) / want - 1) <= 1e-13, (got, want)


def _overflow_triple(mu0):
    # f(p/q) = 1e200 is finite, but f(p/q) * q = 1e350 is not; the divergence
    # is about mu0 * 1e350 (the second atom contributes 1)
    space = make_space([mu0, 1.0])
    p = validate_density(space, [1e250, 1.0])
    q = validate_density(space, [1e150, 1.0])
    return PairTriple(make_generator("power", alpha=2.0), p, q)


def _overflow_cases(t):
    return [
        lambda: f_divergence(t.generator, t.p, t.q),
        lambda: mixed_divergence([t, t]),
        lambda: mixed_divergence_k([t, t], 0),
        lambda: ith_mixed(IthMixedSpec(t, t, i=3.0, n=2)),
        lambda: f_dissimilarity(paired(t.generator), make_vector([t.p, t.q])),
    ]


def test_overflowing_integrand_factor_is_typed():
    import mpmath

    # a factor beyond the float range, in an integral within it: every
    # functional gives the value
    t = _overflow_triple(1e-100)
    with mpmath.workprec(200):
        mu, p, q = ([mpmath.mpf(float(v)) for v in arr]
                    for arr in (t.space.weights, t.p.values, t.q.values))
        want = mpmath.fsum(m * b * (a / b) ** 2 for m, a, b in zip(mu, p, q))
        for case in _overflow_cases(t):
            got = case()
            assert abs(mpmath.mpf(got) / want - 1) <= 1e-13, (got, want)
    assert np.isfinite(t.log_integrand_factor).all() and np.isfinite(t.log_adjoint_factor).all()
    # the same factor with mu = (1, 1): the integral, about 1e350, is beyond range
    t = _overflow_triple(1.0)
    for case in _overflow_cases(t):
        with pytest.raises(MixdivError, match="not finite at atom 0"):
            case()


# --- the log-factor engine over the whole float range ------------------------------------

def test_factor_beyond_float_range_reproducers():
    import mpmath

    space = make_space([1.0, 1.0])

    def dens(values):
        return validate_density(space, values)

    # t**3 and t**-3 at p/q = 2e-300: t**-3 alone overflows, the product is q**2
    p, q = dens([1e-300, 1.0]), dens([0.5, 0.5])
    cube = [PairTriple(make_generator("power", alpha=a), p, q) for a in (3.0, -3.0)]
    _rel_eq(mixed_divergence(cube), 1.0, rel=1e-13)
    # the linear factor 1e-330 underflows, but sqrt(1e-330 * 2.2e-103**-3) = 9.7e-12 counts
    one = dens([1.0, 1.0])
    under = [PairTriple(make_generator("power", alpha=3.0), dens([1e-110, 1.0]), one),
             PairTriple(make_generator("power", alpha=-3.0), dens([2.2e-103, 1.0]), one)]
    with mpmath.workprec(200):
        want = 1 + mpmath.sqrt(mpmath.mpf(1e-110) ** 3 / mpmath.mpf(2.2e-103) ** 3)
        assert abs(mpmath.mpf(mixed_divergence(under)) / want - 1) <= 1e-15
    assert mixed_divergence(under) > 1.0 + 9.6e-12
    # p/q = 1e600 overflows, but sqrt(p * q) = 1
    assert f_divergence(make_generator("sqrt"), dens([1e300, 1.0]), dens([1e-300, 1.0])) == 2.0


def test_overflowing_log_terms_are_typed():
    # e * log w overflowing to +inf at an atom with no zero factor raises, as
    # does a sum of such overflows of both signs; a zero factor's inf stays
    space = make_space([1.0, 1.0])
    with pytest.raises(MixdivError, match="beyond the float range: term not finite at atom 0"):
        weighted_product_integral(space, [np.array([7e8, 0.0])], [1e300])
    with pytest.raises(MixdivError, match="beyond the float range: term not finite at atom 1"):
        weighted_product_integral(space, [np.array([0.0, 1e9]), np.array([0.0, -1e9])],
                                  [5e299, 5e299])
    assert weighted_product_integral(space, [np.array([-math.inf, 0.0])], [-1.0]) == math.inf
    # a NaN log-factor (the log of a negative number, say) is no zero factor either
    with pytest.raises(MixdivError, match="term not finite at atom 0"):
        weighted_product_integral(space, [np.array([math.nan, 0.0])], [0.5])


def test_log_term_overflowing_to_minus_inf_is_zero():
    # log w = 1e308 * log 0.2 = -1.6e308 at atom 0; times 1.5 it overflows to
    # -inf, an underflowed term whose value is 0, so the integral is 1
    space = make_space([1.0, 1.0])
    g = make_generator("power", alpha=1e308)
    one = validate_density(space, [1.0, 1.0])
    pair1 = PairTriple(g, validate_density(space, [0.2, 1.0]), one)
    assert ith_mixed(IthMixedSpec(pair1, PairTriple(g, one, one), i=3.0, n=2)) == 1.0


@pytest.mark.parametrize("alpha", [1e17, 3.0, -0.5])
def test_power_on_the_diagonal_is_q(alpha):
    # q * (p/q)**alpha = q where p = q, for any alpha: the log-factor is log q exactly
    rng = np.random.default_rng(4)
    space = make_space(rng.uniform(0.5, 2.0, 8))
    p = validate_density(space, rng.uniform(0.5, 2.0, 8))
    g = make_generator("power", alpha=alpha)
    assert np.array_equal(PairTriple(g, p, p).log_integrand_factor, np.log(p.values))
    _rel_eq(f_divergence(g, p, p), integrate(space, p.values), rel=1e-15)


def test_kl_near_the_diagonal_keeps_its_digits():
    import mpmath

    space = make_space([1.0])
    p, q = 5.0 * (1.0 + 1e-10), 5.0
    got = f_divergence(make_generator("kl+"), validate_density(space, [p]),
                       validate_density(space, [q]))
    with mpmath.workprec(200):
        want = mpmath.mpf(p) * mpmath.log(mpmath.mpf(p) / mpmath.mpf(q))
        assert abs(mpmath.mpf(got) / want - 1) <= 1e-14, (got, want)


def _extreme_catalog():
    """name -> (generator, q * f(p/q) in mpmath, alpha of a power perspective or None)."""
    import mpmath

    mp = mpmath.mpf
    table = {
        "tv": (make_generator("tv"), lambda p, q: abs(p - q), None),
        "kl+": (make_generator("kl+"), lambda p, q: p * mpmath.log(p / q) if p > q else mp(0), None),
        "linear": (make_generator("linear", a=0.3, b=1.7),
                   lambda p, q: mp(0.3) * p + mp(1.7) * q, None),
        "scaled": (scale_generator(make_generator("power", alpha=0.75), 2.5),
                   lambda p, q: mp(2.5) * q * (p / q) ** mp(0.75), 0.75),
        # a custom generator (and its adjoint, the same column swapped) sees p/q
        # itself, so instances with one keep their densities within 1e+-150
        "custom": (make_generator("custom", fn=lambda t: t + 1.0 / t, shape="convex", positive=True),
                   lambda p, q: p + q * q / p, None),
    }
    for a in (-0.5, 0.25, 0.5, 0.75, 2.0, 3.0):
        table[f"power({a:g})"] = (make_generator("power", alpha=a),
                                  lambda p, q, a=a: q * (p / q) ** mp(a), a)
    return table


@pytest.mark.parametrize("seed", range(24))
def test_extreme_range_matches_mpmath(seed):
    """Densities log-uniform over 1e+-300, every generator kind, every functional.

    A value within the float range agrees with its 200-bit value within the
    rounding of the logs it combines: per atom, each of the about n + 4
    rounded operations that touch a log errs by at most 2**-53 times
    S = |log mu| + sum_i |e_i| * (|log q_i| + |a_i| * (|log p_i| + |log q_i|)),
    with a_i the power's alpha (1 for every other kind). That is 1e-13
    relative or better wherever logs stay below about 100, and up to a few
    1e-13 where logs near 690 meet exponents such as 3. One factor of a kind
    other than power agrees within 1e-13 at any size. A value beyond the
    float range raises a typed error.
    """
    import mpmath

    catalog = _extreme_catalog()
    rng = np.random.default_rng(seed)
    atoms, n = int(rng.integers(2, 17)), int(rng.integers(1, 5))
    names = [str(x) for x in rng.choice(sorted(catalog), n)]
    span = 150.0 if "custom" in names else 300.0
    mu = 10.0 ** rng.uniform(-50.0, 50.0, atoms)
    space = make_space(mu / math.fsum(mu.tolist()))
    values = [10.0 ** rng.uniform(-span, span, atoms) for _ in range(2 * n)]
    dens = [validate_density(space, v) for v in values]
    triples = [PairTriple(catalog[nm][0], dens[2 * j], dens[2 * j + 1]) for j, nm in enumerate(names)]

    def size(j):  # |log q| + |a| * (|log p| + |log q|) per atom, as in the docstring
        a = catalog[names[j]][2]
        lp, lq = np.abs(np.log(values[2 * j])), np.abs(np.log(values[2 * j + 1]))
        return lq + abs(1.0 if a is None else a) * (lp + lq)

    with mpmath.workprec(200):
        mp_mu = [mpmath.mpf(float(m)) for m in space.weights]
        mp_w = [[catalog[nm][1](mpmath.mpf(float(p)), mpmath.mpf(float(q)))
                 for p, q in zip(values[2 * j], values[2 * j + 1])] for j, nm in enumerate(names)]

        def exact(cols, exponents):
            return mpmath.fsum(
                m * mpmath.fprod(c[a] ** e for c, e in zip(cols, exponents) if e != 0)
                if all(c[a] != 0 or e > 0 for c, e in zip(cols, exponents) if e != 0) else 0
                for a, m in enumerate(mp_mu))

        def check(compute, cols, exponents, sizes, single=False):
            want = exact(cols, [mpmath.mpf(e) for e in exponents])
            if want > mpmath.mpf(sys.float_info.max):
                with pytest.raises(MixdivError):
                    compute()
                return
            if want < mpmath.mpf(sys.float_info.min):
                return
            got = compute()
            s = np.abs(np.log(space.weights)) + sum(abs(float(e)) * z for e, z in zip(exponents, sizes))
            bound = 1e-14 + (sum(1 for e in exponents if e != 0) + 4) * 2.0**-53 * float(s.max())
            if single:
                bound = min(bound, 1e-13)
            assert abs(mpmath.mpf(got) / want - 1) <= bound, (got, want, bound)

        for j, t in enumerate(triples):
            single = catalog[names[j]][2] is None
            check(lambda: f_divergence(t.generator, t.p, t.q), [mp_w[j]], [1], [size(j)], single)
            check(lambda: f_dissimilarity(paired(t.generator), make_vector([t.p, t.q])),
                  [mp_w[j]], [1], [size(j)], single)
        third = mpmath.mpf(1) / n
        sizes = [size(j) for j in range(n)]
        check(lambda: mixed_divergence(triples), mp_w, [third] * n, sizes)
        k = int(rng.integers(0, n + 1))
        check(lambda: mixed_divergence_k(triples, k), mp_w, [third] * n, sizes)
        i = float(rng.uniform(0.0, 2.0))
        if n >= 2:
            check(lambda: ith_mixed(IthMixedSpec(triples[0], triples[1], i=i, n=2)),
                  mp_w[:2], [mpmath.mpf(i) / 2, 1 - mpmath.mpf(i) / 2], sizes[:2])
        check(lambda: ith_mixed_reference(triples[0], i, 2, make_generator("power", alpha=2.0)),
              mp_w[:1], [mpmath.mpf(i) / 2], sizes[:1])
        arity = min(3, 2 * n)
        cols = [[mpmath.mpf(float(v)) for v in values[a]] for a in range(arity)]
        check(lambda: -f_dissimilarity(matusita_affinity(arity), make_vector(dens[:arity])),
              cols, [mpmath.mpf(1) / arity] * arity,
              [np.abs(np.log(values[a])) for a in range(arity)])


# --- reference-measure variant ------------------------------------------------------------

def _reference_fixture():
    space = make_space([0.5, 0.5])
    p1 = validate_density(space, [1.2, 0.8], require_prob=True)
    q1 = validate_density(space, [0.6, 1.4], require_prob=True)
    return space, PairTriple(make_generator("sqrt"), p1, q1)


def test_ith_reference_endpoints():
    _, pair1 = _reference_fixture()
    f2 = make_generator("power", alpha=2.0)
    _rel_eq(ith_mixed_reference(pair1, 0.0, 2, f2), f2(1.0))
    _rel_eq(
        ith_mixed_reference(pair1, 2.0, 2, f2),
        f_divergence(pair1.generator, pair1.p, pair1.q),
    )


def test_ith_reference_worked_value():
    _, pair1 = _reference_fixture()
    value = ith_mixed_reference(pair1, 1.0, 2, make_generator("power", alpha=2.0))
    _rel_eq(value, ITH_REF_VALUE)
    want = oracles.direct_ith_reference(
        oracles.power(0.5), [1.2, 0.8], [0.6, 1.4], 1.0, 2, 1.0, [0.5, 0.5]
    )
    _rel_eq(value, want)


def test_ith_reference_requires_probability_base():
    space = make_space([1.0, 1.0])  # total mass 2
    p = validate_density(space, [0.5, 0.5], require_prob=True)
    pair = PairTriple(make_generator("sqrt"), p, p)
    with pytest.raises(ReferenceNotProbability):
        ith_mixed_reference(pair, 1.0, 2, make_generator("sqrt"))


@pytest.mark.filterwarnings("error")
def test_ith_reference_beyond_scalar_powers():
    # f1 = f2 = 5t + 5 on P1 = Q1 = 1: every factor is 10, so the value is 10 at any i,
    # although f2(1)**(1 - i/n) = 10**320 at i = -638 is beyond the float range
    space = make_space([0.5, 0.5])
    one = validate_density(space, [1.0, 1.0], require_prob=True)
    linear = make_generator("linear", a=5.0, b=5.0)
    pair1 = PairTriple(linear, one, one)
    _rel_eq(ith_mixed_reference(pair1, -638.0, 2, linear), 10.0)
    # f2 = tv has f2(1) = 0, to the power 1 - 3/2 < 0: the kernel's zero rule gives inf
    assert ith_mixed_reference(pair1, 3.0, 2, make_generator("tv")) == math.inf


@pytest.mark.parametrize("seed", range(12))
def test_ith_reference_is_ith_mixed_against_the_unit_pair(seed):
    rng = np.random.default_rng(seed)
    atoms = int(rng.integers(2, 33))
    weights = rng.uniform(0.25, 2.0, atoms)
    space = make_space(weights / weights.sum())

    def dens():
        raw = np.exp(rng.uniform(-2.0, 2.0, atoms))
        return validate_density(space, raw / integrate(space, raw), require_prob=True)

    gens = catalog_generators()
    f1, f2 = (gens[int(rng.integers(len(gens)))] for _ in range(2))
    pair1 = PairTriple(f1, dens(), dens())
    n = int(rng.integers(1, 7))
    unit = validate_density(space, np.ones(atoms), require_prob=True)
    for i in rng.uniform(-4.0, n + 4.0, 5).tolist() + [0.0, float(n)]:
        want = ith_mixed(IthMixedSpec(pair1, PairTriple(f2, unit, unit), i=i, n=n))
        assert ith_mixed_reference(pair1, i, n, f2) == want, (f1, f2, i, n)


# --- dissimilarity --------------------------------------------------------------------------

def test_matusita_all_equal_probability(two_atom):
    p = two_atom["p1"]
    for arity in (1, 2, 4):
        vec = make_vector([p] * arity)
        _rel_eq(f_dissimilarity(matusita_affinity(arity), vec), -1.0)


def test_toussaint_all_equal_probability(two_atom):
    p = two_atom["p1"]
    g = toussaint_affinity([0.2, 0.5, 0.3])
    _rel_eq(f_dissimilarity(g, make_vector([p] * 3)), -1.0)


def test_paired_dissimilarity_equals_f_divergence(two_atom):
    p1, q1 = two_atom["p1"], two_atom["q1"]
    tv = make_generator("tv")
    vec = make_vector([p1, q1])
    _rel_eq(f_dissimilarity(paired(tv), vec), TV_VALUE)
    for g in catalog_generators():
        assert f_dissimilarity(paired(g), vec) == f_divergence(g, p1, q1), g.label


@pytest.mark.parametrize("seed", range(20))
def test_affinities_match_direct_oracle_and_atom_reversal(seed):
    rng = np.random.default_rng(seed)
    n, arity = int(rng.integers(2, 300)), int(rng.integers(1, 7))
    mu = rng.uniform(0.1, 2.0, n)
    ps = [np.exp(rng.uniform(-5.0, 5.0, n)) for _ in range(arity)]
    weights = rng.dirichlet(np.ones(arity)).tolist()
    space, back = make_space(mu), make_space(mu[::-1])
    vec = make_vector([validate_density(space, p) for p in ps])
    rev = make_vector([validate_density(back, p[::-1]) for p in ps])
    for g, exponents in ((matusita_affinity(arity), [1.0 / arity] * arity),
                         (toussaint_affinity(weights), weights)):
        value = f_dissimilarity(g, vec)
        _rel_eq(value, oracles.direct_affinity(exponents, [p.tolist() for p in ps], mu.tolist()))
        assert f_dissimilarity(g, rev) == value, g.label


def test_paired_overflow_raises_as_f_divergence():
    t = _overflow_triple(1.0)
    with pytest.raises(MixdivError) as want:
        f_divergence(t.generator, t.p, t.q)
    with pytest.raises(MixdivError) as got:
        f_dissimilarity(paired(t.generator), make_vector([t.p, t.q]))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_dissimilarity_arity_mismatch(two_atom):
    vec = make_vector([two_atom["p1"]])
    with pytest.raises(ArityMismatch):
        f_dissimilarity(matusita_affinity(2), vec)


# --- named wrappers --------------------------------------------------------------------------

def test_wrappers_fixture_values(two_atom):
    pair1 = (two_atom["p1"], two_atom["q1"])
    pair2 = (two_atom["p2"], two_atom["q2"])
    _rel_eq(mixed_bhattacharyya([pair1, pair1]), BHATT_VALUE)
    _rel_eq(mixed_hellinger([pair1, pair2], [0.5, 0.5]), MIXED_SQRT_VALUE)
    _rel_eq(mixed_renyi([pair1, pair1], 0.5), RENYI_HALF_VALUE)
    # a normal Hellinger integral keeps the plain log, bit for bit
    hellinger = mixed_hellinger([pair1, pair2], [3.0, 3.0])
    assert mixed_renyi([pair1, pair2], 3.0) == math.log(hellinger) / 2.0
    _rel_eq(mixed_total_variation([pair1, pair1]), TV_VALUE)
    _rel_eq(mixed_kl([pair1, pair1]), KL_VALUE)


def test_renyi_rejects_alpha_one(two_atom):
    pair1 = (two_atom["p1"], two_atom["q1"])
    with pytest.raises(RenyiAlphaOne):
        mixed_renyi([pair1], 1.0)
    with pytest.raises(RenyiAlphaOne):
        ith_renyi(pair1, pair1, 1.0, 1.0, 2)


def test_renyi_of_a_vanishing_hellinger_integral_is_typed():
    # at order 1e307 the log of q * (p/q)**alpha is about -4.6e309, beyond the
    # float range, so every term is 0 and ln H has no float value
    space = make_space([1.0, 1.0])
    pair = (validate_density(space, [1e-200, 1e-200]), validate_density(space, [1.0, 1.0]))
    with pytest.raises(MixdivError, match="Hellinger integral 0.0"):
        mixed_renyi([pair], 1e307)
    with pytest.raises(MixdivError, match="Hellinger integral 0.0"):
        ith_renyi(pair, pair, 1e307, 1.0, 2)


def test_renyi_of_an_underflowing_hellinger_integral_matches_mpmath():
    # q * (p/q)**2 = 1e-400 underflows, but ln H = ln(2e-400) is a float
    import mpmath

    space = make_space([1.0, 1.0])
    pair = (validate_density(space, [1e-200, 1e-200]), validate_density(space, [1.0, 1.0]))
    for got in (mixed_renyi([pair], 2.0), ith_renyi(pair, pair, 2.0, 1.0, 2)):
        assert got == pytest.approx(-920.3408900170584, abs=1e-13)
        with mpmath.workprec(200):
            assert abs(mpmath.mpf(got) - mpmath.log(2 * mpmath.mpf(1e-200) ** 2)) <= 1e-13


def test_renyi_vanishes_on_diagonal(two_atom):
    p = two_atom["p1"]
    assert abs(mixed_renyi([(p, p), (p, p)], 0.5)) <= 1e-12


def test_ith_wrappers(two_atom):
    pair1 = (two_atom["p1"], two_atom["q1"])
    pair2 = (two_atom["p2"], two_atom["q2"])
    _rel_eq(ith_bhattacharyya(pair1, pair2, 1.0, 2), MIXED_SQRT_VALUE)
    _rel_eq(
        ith_renyi(pair1, pair1, 0.5, 2.0, 2),
        mixed_renyi([pair1, pair1], 0.5),
    )


@pytest.mark.parametrize("i", [0.0, 0.7, 1.0, 1.5, 2.0])
def test_named_ith_wrappers_match_direct_oracle(two_atom, i):
    pair1 = (two_atom["p1"], two_atom["q1"])
    pair2 = (two_atom["p2"], two_atom["q2"])
    lists = [d.values.tolist() for d in (*pair1, *pair2)]
    mu = two_atom["space"].weights.tolist()
    for got, f1, f2 in [
        (ith_total_variation(pair1, pair2, i, 2), oracles.tv, oracles.tv),
        (ith_kl(pair1, pair2, i, 2), oracles.klp, oracles.klp),
        (ith_hellinger(pair1, pair2, 0.25, 2.0, i, 2), oracles.power(0.25), oracles.power(2.0)),
    ]:
        want = oracles.direct_ith(f1, *lists[:2], f2, *lists[2:], i, 2, mu)
        _rel_eq(got, want)
