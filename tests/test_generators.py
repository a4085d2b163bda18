import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdiv import (
    adjoint,
    eval_generator,
    f_divergence,
    make_generator,
    make_space,
    validate_density,
)
from mixdiv.errors import (
    InvalidLinear,
    MixdivError,
    NegativeValue,
    NonpositiveArgument,
    ShapeMismatch,
)
from mixdiv.generators import generator_from_spec, multivariate_from_spec, scale_generator

from conftest import catalog_generators

LOG_GRID = [2.0**k for k in range(-10, 11)]


def test_total_variation_values():
    tv = make_generator("total_variation")
    assert tv(2.0) == 1.0
    assert tv(1.0) == 0.0
    assert tv(0.25) == 0.75
    assert tv.shape == "convex" and not tv.strict and not tv.positive


def test_kl_positive_part_values():
    kl = make_generator("kl_positive_part")
    assert kl(2.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    assert kl(0.5) == 0.0  # 0.5*ln(0.5) < 0 clips to 0
    assert kl(math.e) == pytest.approx(math.e, rel=1e-15)
    assert kl.shape == "convex" and not kl.strict


def test_power_values_and_shapes():
    assert make_generator("power", alpha=0.5)(4.0) == 2.0
    assert make_generator("power", alpha=2.0)(3.0) == 9.0
    for alpha, shape, strict in [
        (-1.0, "convex", True),
        (-0.5, "convex", True),
        (0.0, "linear", False),
        (0.25, "concave", True),
        (0.75, "concave", True),
        (1.0, "linear", False),
        (2.0, "convex", True),
    ]:
        g = make_generator("power", alpha=alpha)
        assert (g.shape, g.strict) == (shape, strict), alpha
        assert g.positive


def test_sqrt_is_power_half():
    g = make_generator("sqrt")
    assert g.kind == "power" and g.params == (0.5,)
    assert g.shape == "concave" and g.strict


def test_linear_validation():
    g = make_generator("linear", a=2.0, b=1.0)
    assert g(3.0) == 7.0
    assert g.shape == "linear" and g.positive
    for a, b in [(-1.0, 1.0), (1.0, -0.5), (0.0, 0.0)]:
        with pytest.raises(InvalidLinear):
            make_generator("linear", a=a, b=b)


def test_adjoint_closed_forms():
    p25 = adjoint(make_generator("power", alpha=0.25))
    assert p25.kind == "power" and p25.params == (0.75,)
    assert p25(16.0) == pytest.approx(8.0, rel=1e-15)  # 16**0.75

    sq = make_generator("sqrt")
    assert adjoint(sq).params == (0.5,)  # self-adjoint
    for t in LOG_GRID:
        assert adjoint(sq)(t) == pytest.approx(sq(t), rel=1e-15)

    tv = make_generator("tv")
    for t in LOG_GRID:
        assert adjoint(tv)(t) == pytest.approx(tv(t), rel=1e-12)

    lin = adjoint(make_generator("linear", a=2.0, b=1.0))
    assert lin.params == (1.0, 2.0)


def test_kl_adjoint_is_positive_part_of_minus_log():
    kl = make_generator("kl+")
    star = adjoint(kl)
    assert star.kind == "kl_adjoint"
    for t in LOG_GRID:
        assert star(t) == pytest.approx(max(-math.log(t), 0.0), rel=1e-12, abs=1e-300)
    # and back
    assert adjoint(star) is kl


def test_involution_returns_original_object():
    for g in catalog_generators():
        assert adjoint(adjoint(g)) is g


def test_involution_values_on_grid():
    for g in catalog_generators():
        gg = adjoint(adjoint(g))
        for t in LOG_GRID:
            a, b = gg(t), g(t)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)), (g.label, t)


@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
@settings(max_examples=200, deadline=None)
def test_adjoint_pointwise_identity(p, q):
    # q*f(p/q) = p*f*(q/p) is the identity behind the order-change principle
    for g in catalog_generators():
        lhs = q * g(p / q)
        rhs = p * adjoint(g)(q / p)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs)), g.label


def test_adjoint_preserves_shape_metadata():
    for g in catalog_generators():
        star = adjoint(g)
        assert star.shape == g.shape
        assert star.strict == g.strict
        assert star.positive == g.positive


@given(st.floats(0.01, 50.0), st.floats(0.01, 50.0))
@settings(max_examples=200, deadline=None)
def test_midpoint_shape_consistency(s, t):
    for g in catalog_generators():
        mid = g((s + t) / 2.0)
        chord = (g(s) + g(t)) / 2.0
        tol = 1e-12 * max(1.0, abs(mid), abs(chord))
        if g.is_convex:
            assert mid <= chord + tol, g.label
        if g.is_concave:
            assert mid >= chord - tol, g.label


def test_eval_rejects_nonpositive():
    g = make_generator("tv")
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(NonpositiveArgument):
            eval_generator(g, bad)
    with pytest.raises(NonpositiveArgument):
        g.eval_array(np.array([1.0, 0.0]))


def test_eval_array_of_no_arguments_is_empty():
    for g in catalog_generators():
        assert g.eval_array(np.array([])).shape == (0,), g.label


@pytest.mark.parametrize("g, t", [
    (make_generator("power", alpha=1e308), 2.0),
    (make_generator("power", alpha=-400.0), 1e-10),
    (make_generator("linear", a=1e308, b=1.0), 2.0),
    (scale_generator(make_generator("power", alpha=2.0), 1e300), 1e10),
])
def test_overflowing_value_is_typed(g, t):
    with pytest.raises(MixdivError, match=f"not finite at t={t!r}"):
        g.eval_array(np.array([1.0, t]))
    with pytest.raises(MixdivError, match="not finite"):
        g(t)


def test_custom_generator_roundtrip():
    g = make_generator(
        "custom", fn=lambda t: (t - 1.0) ** 2, shape="convex", strict=True,
        positive=False,
    )
    assert g(3.0) == 4.0
    star = adjoint(g)
    assert star(2.0) == pytest.approx(2.0 * (0.5 - 1.0) ** 2, rel=1e-15)
    assert adjoint(star) is g


def test_custom_adjoint_is_a_registry_kind_with_the_same_callable():
    def fn(t):
        return (t - 1.0) ** 2 + t**-0.5

    g = make_generator("custom", fn=fn, shape="convex")
    star = adjoint(g)
    assert star.kind == "custom_adjoint" and star.fn is fn and adjoint(star) is g
    grid = np.exp(np.linspace(-6.0, 6.0, 50))
    # the values of t * fn(1/t) on Python floats, bit for bit
    assert star.eval_array(grid).tolist() == [t * fn(1.0 / t) for t in grid.tolist()]
    with pytest.raises(MixdivError, match="unknown generator kind"):
        make_generator("custom_adjoint", fn=fn, shape="convex")
    with pytest.raises(MixdivError, match="unknown generator kind"):
        generator_from_spec({"kind": "custom_adjoint"})


def test_custom_shape_both_normalizes_to_linear():
    g = make_generator("custom", fn=lambda t: 2.0 * t + 1.0, shape="both")
    assert g.shape == "linear"
    assert g.is_convex and g.is_concave


def test_custom_shape_contradiction_rejected():
    with pytest.raises(ShapeMismatch):
        make_generator("custom", fn=lambda t: math.sqrt(t), shape="convex")
    with pytest.raises(ShapeMismatch):
        make_generator("custom", fn=lambda t: t * t, shape="concave")


def test_custom_negative_rejected():
    with pytest.raises(NegativeValue):
        make_generator("custom", fn=lambda t: t - 10.0, shape="convex")


def test_custom_positive_claim_checked():
    with pytest.raises(ShapeMismatch):
        make_generator("custom", fn=lambda t: abs(t - 1.0), shape="convex", positive=True)


def test_custom_generator_misuse_is_typed():
    with pytest.raises(MixdivError, match="unknown shape 'wavy'"):
        make_generator("custom", fn=lambda t: t, shape="wavy")
    with pytest.raises(MixdivError, match="custom generator not finite at t="):
        make_generator("custom", fn=lambda t: math.inf if t > 2.0 else 1.0, shape="linear")
    with pytest.raises(ShapeMismatch, match="declared positive but value 0.0 at t="):
        make_generator("custom", fn=lambda t: max(0.0, 2.0 - t), shape="convex", positive=True)
    # declared linear and constant on the sampled range [2**-10, 2**10], negative beyond it
    step = make_generator("custom", fn=lambda t: 1.0 if t <= 2.0**10 else -1.0, shape="linear")
    with pytest.raises(NegativeValue, match="custom generator returned a negative value"):
        step(4000.0)
    space = make_space([1.0, 1.0])
    p = validate_density(space, [1e300, 1.0], require_prob=False)
    q = validate_density(space, [1e-300, 1.0], require_prob=False)
    with pytest.raises(NonpositiveArgument, match="argument p/q is not finite"):
        f_divergence(step, p, q)


def test_scale_generator():
    g = make_generator("power", alpha=2.0)
    h = scale_generator(g, 3.0)
    assert h(2.0) == 12.0
    assert h.shape == g.shape and h.strict == g.strict and h.positive
    grid = np.array(LOG_GRID)
    for g in catalog_generators():
        h = scale_generator(g, 1.7)
        assert h.kind == g.kind, g.label
        # the adjoint keeps the scale factor, and the involution stays exact
        assert adjoint(h).eval_array(grid).tolist() == (1.7 * adjoint(g).eval_array(grid)).tolist()
        assert adjoint(adjoint(h)) is h


def test_scalar_and_array_evaluation_agree_bitwise():
    grid = np.exp(np.linspace(-6.0, 6.0, 50))
    custom = make_generator("custom", fn=lambda t: (t - 1.0) ** 2 + t**-0.5, shape="convex")
    for g in catalog_generators() + [custom]:
        for h in (g, adjoint(g), scale_generator(g, 1.7), adjoint(scale_generator(g, 1.7))):
            assert [h(t) for t in grid] == h.eval_array(grid).tolist(), h.label


def test_parameter_beyond_float_range_is_typed():
    for bad in (10**400, -(10**400), math.inf, math.nan, True, "0.5"):
        with pytest.raises(MixdivError, match="must be a finite number"):
            make_generator("power", alpha=bad)
    assert make_generator("power", alpha=10**300).params == (1e300,)


def test_generator_from_spec():
    assert generator_from_spec({"kind": "power", "alpha": 0.5}).params == (0.5,)
    assert generator_from_spec({"kind": "tv"}).kind == "total_variation"
    assert generator_from_spec({"kind": "kl+"}).kind == "kl_positive_part"
    assert generator_from_spec({"kind": "linear", "a": 1, "b": 0}).params == (1.0, 0.0)


def test_unknown_multivariate_kind_is_typed():
    with pytest.raises(MixdivError, match="unknown multivariate kind 'nope'"):
        multivariate_from_spec({"kind": "nope"})
