import numpy as np
import pytest

from steadywaves.vorticity import VorticityFunction, gamma_cap, two_layer
from steadywaves import laminar


def dense_normalization_oracle(v, params, lam, n=1_000_000):
    """Brute-force composite-Simpson value of the normalization integral."""
    total = 0.0
    cuts = [-1.0] + list(v.breakpoints) + [0.0]
    for a, b in zip(cuts[:-1], cuts[1:]):
        m = max(2, int(round(n * (b - a))))
        m += m % 2
        s = np.linspace(a, b, m + 1)
        f = (lam + gamma_cap(v, params, s)) ** -0.5
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total += (b - a) / (3 * m) * np.dot(w, f)
    return total


def test_lambda_irrotational(v_zero, params):
    lam = laminar.solve_lambda(v_zero, params)
    assert lam == pytest.approx(1.0, abs=1e-13)


def test_lambda_two_layer_vs_brute_force(v_two_layer, params):
    lam = laminar.solve_lambda(v_two_layer, params)
    assert abs(dense_normalization_oracle(v_two_layer, params, lam) - 1.0) < 1e-11


def test_lambda_small_vorticity_limit(params):
    # lambda -> 1 as the vorticity scale goes to zero
    lams = []
    for eps in (1e-1, 1e-2, 1e-3):
        v = VorticityFunction(pieces=((-1.0, -0.5, (eps,)), (-0.5, 0.0, (0.0,))))
        lams.append(laminar.solve_lambda(v, params))
    devs = [abs(l - 1.0) for l in lams]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 2e-3


def test_normalization_monotone_in_lambda(v_two_layer, params):
    lams = np.linspace(0.2, 5.0, 12)
    # I(lam) = 1 + h(0), the profile's height at the surface
    ends = np.array([-1.0, 0.0])
    vals = [1.0 + laminar.laminar_height(l, v_two_layer, params, ends)[-1]
            for l in lams]
    assert np.all(np.diff(vals) < 0)


def test_height_profile_irrotational(v_zero, params):
    p = np.linspace(-1, 0, 65)
    h = laminar.laminar_height(1.0, v_zero, params, p)
    assert np.max(np.abs(h)) < 1e-13


def test_height_profile_endpoints(v_two_layer, params):
    lam = laminar.solve_lambda(v_two_layer, params)
    p = np.linspace(-1, 0, 129)
    h = laminar.laminar_height(lam, v_two_layer, params, p)
    assert h[0] == 0.0
    assert abs(h[-1]) < 1e-12  # zero mean of the flat surface


def test_height_two_layer_closed_form(v_two_layer, params):
    # elementary antiderivative per layer vs the quadrature implementation
    lam = laminar.solve_lambda(v_two_layer, params)
    p = np.linspace(-1, 0, 257)
    h = laminar.laminar_height(lam, v_two_layer, params, p)

    def exact(pv):
        # lower layer: gamma_cap = -6p - 3 (for d=1, p0=-1, A=3)
        def f_low(s):
            return -np.sqrt(lam - 6.0 * s - 3.0) / 3.0
        if pv <= -0.5:
            return (f_low(pv) - f_low(-1.0)) - (pv + 1.0)
        h_half = (f_low(-0.5) - f_low(-1.0)) - 0.5
        return h_half + (pv + 0.5) / np.sqrt(lam) - (pv + 0.5)

    err = max(abs(h[j] - exact(p[j])) for j in range(len(p)))
    assert err < 1e-12


def test_Q_values(v_zero, v_two_layer, params):
    assert laminar.laminar_Q(1.0, params) == pytest.approx(20.6, abs=1e-13)
    lam = laminar.solve_lambda(v_two_layer, params)
    Q = laminar.laminar_Q(lam, params)
    # residual-substitution oracle: the surface condition (flat, h(0)=0)
    hp0 = (lam + gamma_cap(v_two_layer, params, 0.0)) ** -0.5 - 1.0
    res = (-1.0 / (2 * params.d ** 2 * (1 + hp0) ** 2)
           - params.g * params.d / params.p0 ** 2 + Q / (2 * params.p0 ** 2))
    assert abs(res) < 1e-14


def test_no_stagnation(v_two_layer, params):
    lf = laminar.solve(v_two_layer, params, np.linspace(-1, 0, 65))
    assert np.min(1.0 + lf.h_p) > 0.0


def test_no_bracket_error(params):
    # strongly negative gamma: gamma_cap reaches -4000 with a linear touch,
    # so the integral stays far below 1 for every admissible lam
    v = VorticityFunction(pieces=((-1.0, -0.5, (-4000.0,)), (-0.5, 0.0, (0.0,))))
    with pytest.raises(laminar.BracketError):
        laminar.solve_lambda(v, params)


def two_layer_lambda_closed_form(A, p_jump=-0.5):
    """lam of two_layer(A < 0) by 50-digit bisection of the exact integral.

    With d = 1 and p0 = -1, gamma_cap = 2|A| (p - p_j) below the jump, so
    I(lam) = (sqrt(lam) - sqrt(lam - 2|A|(1+p_j)))/|A| + |p_j|/sqrt(lam)
    on lam > 2|A|(1+p_j), where I < 1 once lam >= floor + 4.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a, pj = mp.mpf(-A), mp.mpf(p_jump)
        floor = 2 * a * (1 + pj)
        lo, hi = floor, floor + 4
        for _ in range(200):
            lam = (lo + hi) / 2
            excess = ((mp.sqrt(lam) - mp.sqrt(lam - floor)) / a
                      + abs(pj) / mp.sqrt(lam) - 1)
            lo, hi = (lam, hi) if excess > 0 else (lo, lam)
        return float(lo)


@pytest.mark.parametrize("A", [-1.0, -2.2, -2.24, -2.249])
def test_lambda_two_layer_negative_closed_form(A, params):
    # I* = 1.5/sqrt|A| > 1: A = -2.249 leaves lam within 2.5e-7 of the
    # floor |A|, where the integrand has an inverse-square-root peak at p = -1
    lam = laminar.solve_lambda(two_layer(A), params)
    ref = two_layer_lambda_closed_form(A)
    assert abs(lam - ref) <= 1e-14 * ref


def test_lambda_where_one_ulp_exceeds_the_absolute_tolerance(params):
    # A = -2.2499 leaves lam 2.5e-9 above its floor: |I'(lam)| is about
    # 4,400, so one ulp of lam moves I by 2e-12, past the tolerance 1e-12
    lam = laminar.solve_lambda(two_layer(-2.2499), params)
    ref = two_layer_lambda_closed_form(-2.2499)
    assert ref == pytest.approx(2.249900002499986, rel=1e-16)
    assert abs(lam - ref) <= 1e-15 * ref


@pytest.mark.parametrize("A", [-2.26, -2.3])
def test_lambda_below_floor_is_bracket_error(A, params):
    # I* = 1.5/sqrt|A| < 1: no admissible lam
    with pytest.raises(laminar.BracketError):
        laminar.solve_lambda(two_layer(A), params)


def test_stalled_lambda_solve_is_laminar_error(v_two_layer, params,
                                               monkeypatch):
    monkeypatch.setattr(laminar, "_newton_bisect", lambda fun, lo, hi: lo)
    with pytest.raises(laminar.LaminarError) as info:
        laminar.solve_lambda(v_two_layer, params)
    assert not isinstance(info.value, laminar.BracketError)


@pytest.mark.parametrize("A", [3.0, -2.0])
def test_height_jump_inside_cell_closed_form(A, params):
    # the jump at -0.37 lies strictly inside a cell of the 9-node grid;
    # below it lam + gamma_cap = lam - 2A(s - p_j), above it lam
    p_j = -0.37
    v = two_layer(A, p_jump=p_j)
    lam = laminar.solve_lambda(v, params)
    p = np.linspace(-1.0, 0.0, 9)
    h = laminar.laminar_height(lam, v, params, p)

    def F(s):       # antiderivative of (lam + gamma_cap)**(-1/2) below p_j
        return -np.sqrt(lam - 2.0 * A * (s - p_j)) / A

    exact = np.where(p <= p_j, F(np.minimum(p, p_j)) - F(-1.0),
                     F(p_j) - F(-1.0) + (p - p_j) / np.sqrt(lam)) - (p + 1.0)
    assert np.max(np.abs(h - exact)) <= 1e-14
