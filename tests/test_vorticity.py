import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from steadywaves.vorticity import (VorticityFunction, FlowParameters,
                                   gamma_tilde, gamma_cap, zero_vorticity,
                                   two_layer, DomainError)


def test_zero_vorticity_everywhere(v_zero):
    for p in (-1.0, -0.5, -0.25, 0.0):
        assert v_zero.eval(p) == 0.0


def test_two_layer_values(v_two_layer):
    assert v_two_layer.eval(-0.75) == 3.0
    assert v_two_layer.eval(-0.25) == 0.0
    # one-sided limits at the jump
    assert v_two_layer.eval(-0.5, side="left") == 3.0
    assert v_two_layer.eval(-0.5, side="right") == 0.0
    assert v_two_layer.jump_points == (-0.5,)


def test_domain_error(v_two_layer, params):
    with pytest.raises(DomainError):
        v_two_layer.eval(-1.5)
    with pytest.raises(DomainError):
        v_two_layer.eval(0.5)
    # NaN is outside the domain too, alone or among valid points
    for p in (np.nan, np.array([-0.5, np.nan, -0.25])):
        with pytest.raises(DomainError):
            gamma_cap(v_two_layer, params, p)
        with pytest.raises(DomainError):
            v_two_layer.eval(p)
    # an empty window of p-nodes is no error
    assert gamma_cap(v_two_layer, params, np.array([])).shape == (0,)


def _polyval_reference(v, polys, p, side):
    """Each p's piece by searchsorted over all the edges, clipped to the
    end pieces, then `npoly.polyval` of its polynomial on each piece's
    points: the evaluation that `eval` and `integral` must match bit for
    bit."""
    edges = np.array([lo for lo, _, _ in v.pieces] + [0.0])
    idx = np.clip(np.searchsorted(edges, p, side=side) - 1,
                  0, len(v.pieces) - 1)
    out = np.empty_like(p)
    for k, cs in enumerate(polys):
        out[idx == k] = npoly.polyval(p[idx == k], cs)
    return out


_PIECE_COEFFS = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(cuts=st.lists(st.floats(-0.95, -0.05), max_size=2, unique=True),
       coeffs=st.lists(_PIECE_COEFFS, min_size=3, max_size=3),
       p=hnp.arrays(float, st.integers(0, 24),
                    elements=st.floats(-1.0 - 1e-14, 1e-14)))
# zero top coefficients of either sign, padded or not, and -0.0 among the
# points: polyval starts from c + p*0, so a constant -0.0 piece is 0.0 at
# p = 0.0 and -0.0 at p = -0.0
@example(cuts=[-0.5], coeffs=[[1.0, -0.0], [-0.0], [2.0]],
         p=np.array([-0.0, 0.0, -0.5, -1.0]))
@example(cuts=[-0.5], coeffs=[[2.0], [-0.0], [1.0]],
         p=np.array([-0.0, 0.0, -0.25]))
def test_piecewise_evaluation_is_polyvals_bits(cuts, coeffs, p):
    # one to three pieces; the points include every breakpoint and both
    # ends, and reach 1e-14 outside [-1, 0]
    edges = [-1.0, *sorted(cuts), 0.0]
    v = VorticityFunction(pieces=tuple(
        (lo, hi, tuple(cs)) for lo, hi, cs in zip(edges, edges[1:], coeffs)))
    p = np.concatenate([p, edges, [-1.0 - 1e-14, 1e-14]])
    for got, polys, side in ((v.eval(p, "left"), v._coeffs, "left"),
                             (v.eval(p), v._coeffs, "right"),
                             (v.integral(p), v._anti, "right")):
        want = _polyval_reference(v, polys, p, side)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert v.integral(p[0]) == _polyval_reference(v, v._anti, p[:1],
                                                   "right")[0]


def test_gamma_tilde_zero(v_zero, params):
    p = np.linspace(-1, 0, 11)
    assert np.all(gamma_tilde(v_zero, params, p) == 0.0)


def test_gamma_tilde_constant(params):
    v = VorticityFunction(pieces=((-1.0, 0.0, (2.5,)),))
    for p in (-1.0, -0.3, 0.0):
        assert gamma_tilde(v, params, p) == pytest.approx(params.p0 * 2.5 * p,
                                                          abs=1e-15)


def test_gamma_tilde_two_layer_hand_value(v_two_layer, params):
    # int_0^{-1} p0 gamma = -p0 * A/2; quadrature oracle cross-check
    expected = -params.p0 * 3.0 / 2.0
    assert gamma_tilde(v_two_layer, params, -1.0) == pytest.approx(expected,
                                                                   abs=1e-14)
    oracle, _ = quad(v_two_layer.eval, -1.0, -0.5)
    assert gamma_tilde(v_two_layer, params, -1.0) == pytest.approx(
        -params.p0 * oracle, abs=1e-12)


def test_gamma_cap_two_layer(v_two_layer, params):
    d, p0 = params.d, params.p0
    expected = -(2 * d * d / p0) * 3.0 / 2.0
    assert gamma_cap(v_two_layer, params, -1.0) == pytest.approx(expected,
                                                                 abs=1e-14)


def test_tilde_cap_identity(v_two_layer, rng):
    # gamma_tilde = p0^2/(2 d^2) gamma_cap, exact coefficient algebra
    params = FlowParameters(d=1.7, g=3.0, c=2.0, p0=-0.6)
    p = np.linspace(-1, 0, 201)
    lhs = gamma_tilde(v_two_layer, params, p)
    rhs = params.p0 ** 2 / (2 * params.d ** 2) * gamma_cap(v_two_layer,
                                                           params, p)
    assert np.max(np.abs(lhs - rhs)) < 1e-15


def test_antiderivative_continuity_at_jump(v_two_layer, params):
    eps = 1e-13
    a = gamma_tilde(v_two_layer, params, -0.5 - eps)
    b = gamma_tilde(v_two_layer, params, -0.5 + eps)
    assert a == pytest.approx(b, abs=1e-12)


def test_tilde_derivative_is_p0_gamma(params):
    # d/dp gamma_tilde = p0 gamma at non-jump points, via central differences
    v = VorticityFunction(pieces=((-1.0, -0.5, (1.0, 2.0, -1.0)),
                                  (-0.5, 0.0, (0.5,))))
    hstep = 1e-6
    for p in (-0.9, -0.7, -0.3, -0.1):
        fd = (gamma_tilde(v, params, p + hstep)
              - gamma_tilde(v, params, p - hstep)) / (2 * hstep)
        assert fd == pytest.approx(params.p0 * v.eval(p), abs=1e-8)


def test_piece_validation():
    with pytest.raises(ValueError):
        VorticityFunction(pieces=((-1.0, -0.5, (1.0,)),))  # gap to 0
    with pytest.raises(ValueError):
        VorticityFunction(pieces=((-0.9, 0.0, (1.0,)),))   # starts late
    with pytest.raises(ValueError):
        VorticityFunction(pieces=((-1.0, -0.4, (1.0,)),
                                  (-0.5, 0.0, (0.0,))))    # overlap


def test_flow_parameter_validation():
    with pytest.raises(ValueError):
        FlowParameters(d=-1.0, g=9.8, c=1.0, p0=-1.0)
    with pytest.raises(ValueError):
        FlowParameters(d=1.0, g=9.8, c=1.0, p0=0.5)


@pytest.mark.parametrize("name", ["d", "g", "c", "p0", "P_atm"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_flow_parameters_refuse_non_finite(name, value):
    # an infinite depth or gravity would make a NaN or infinite laminar
    # flow; no constant of the flow may be anything but finite
    good = dict(d=1.0, g=9.8, c=1.0, p0=-1.0, P_atm=0.0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FlowParameters(**dict(good, **{name: value}))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_vorticity_refuses_non_finite_pieces(value):
    with pytest.raises(ValueError, match="not finite"):
        two_layer(value)
    with pytest.raises(ValueError, match="not finite"):
        VorticityFunction(pieces=((-1.0, value, (1.0,)), (value, 0.0, (0.0,))))
    with pytest.raises(ValueError, match="not finite"):
        VorticityFunction(pieces=((-1.0, 0.0, (1.0, value)),))
