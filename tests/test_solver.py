import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import THREE_PIECE, THREE_PIECE_PARAMS
from steadywaves.vorticity import VorticityFunction, FlowParameters, two_layer
from steadywaves import laminar
from steadywaves import solver
from steadywaves.grid import Grid, AlignmentError
from steadywaves import field as fd
from steadywaves.field import EPS_STAG, HeightField, random_admissible_field
from steadywaves.modal import LaminarModes
from steadywaves.solver import (HeightSystem, newton_solve, continuation,
                                residual, ConvergenceError, StagnationError)

def flat_field(Nq, Np, Q):
    return HeightField(Grid(Nq, Np), np.zeros((Nq, Np + 1)), Q=Q)


# -- residual ------------------------------------------------------------------


def test_flat_state_is_exact(v_zero, params):
    Q = 2 * params.g * params.d + params.p0 ** 2 / params.d ** 2
    hf = flat_field(16, 16, Q)
    interior, surface = residual(hf, v_zero, params)
    assert np.max(np.abs(interior)) == 0.0
    assert np.max(np.abs(surface)) == 0.0


def test_flat_state_wrong_Q_surface_residual(v_zero, params):
    # h = 0 with Q = 0: surface residual is -1/(2 d^2) - g d / p0^2 uniformly
    hf = flat_field(16, 16, 0.0)
    interior, surface = residual(hf, v_zero, params)
    expected = -1.0 / (2 * params.d ** 2) - params.g * params.d / params.p0 ** 2
    assert np.max(np.abs(interior)) == 0.0
    assert np.max(np.abs(surface - expected)) < 1e-15


def test_laminar_profile_residual_refines(v_two_layer, params):
    lam = laminar.solve_lambda(v_two_layer, params)
    Q = laminar.laminar_Q(lam, params)
    errs = []
    for Np in (32, 64, 128):
        g = Grid(8, Np, aligned_jumps=(-0.5,))
        h1 = laminar.laminar_height(lam, v_two_layer, params, g.p)
        hf = HeightField(g, np.tile(h1, (8, 1)), Q=Q)
        interior, _ = residual(hf, v_two_layer, params)
        errs.append(np.max(np.abs(interior)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 2.0


def test_stagnation_error(v_zero, params, monkeypatch):
    g = Grid(8, 16)
    h = np.zeros((8, 17))
    h[:, 1:] -= 1.5 * (g.p[None, 1:] + 1.0)  # 1 + h_p = -0.5 < 0
    hf = HeightField(g, h, Q=20.6)

    def forbidden(*args):
        raise AssertionError("a flux was evaluated at a stagnant state")

    # the stagnation test comes before any flux is formed; the error is
    # field's, re-exported by solver
    monkeypatch.setattr(solver, "_speed_partials", forbidden)
    with pytest.raises(fd.StagnationError):
        residual(hf, v_zero, params)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), margin=st.floats(-3e-10, 3e-10))
@example(seed=0, margin=0.0)
@example(seed=1, margin=-1e-10)
@example(seed=1, margin=1e-10)
def test_residual_guards_at_the_threshold(seed, margin):
    # residual_parts raises StagnationError exactly when min(1 + h_p) over
    # the nodes and the half nodes is at or below EPS_STAG: a random state
    # tilted by s (1 + p), which adds s to h_p, brings that minimum to
    # EPS_STAG + margin, up to round-off
    params = FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0)
    g = Grid(8, 16, aligned_jumps=(-0.5,))
    sys_ = HeightSystem(g, two_layer(3.0), params)
    H = sys_.reduce(random_admissible_field(
        np.random.default_rng(seed)).sample(g))
    least = min(np.min(hp) for hp in sys_.dp(H))
    H = H + (EPS_STAG - 1.0 - least + margin) * (1.0 + g.p)
    lowest = min(np.min(1.0 + hp) for hp in sys_.dp(H))
    if lowest <= EPS_STAG:
        with pytest.raises(StagnationError):
            sys_.residual_parts(H, 10.0)
    else:
        sys_.residual_parts(H, 10.0)


def test_manufactured_field_scheme_consistency(params):
    # smooth gamma, smooth manufactured field: the discrete interior residual
    # converges to the continuum divergence-form residual at order >= 2
    sympy = pytest.importorskip("sympy")
    q, p = sympy.symbols("q p")
    d, p0 = params.d, params.p0
    gamma_expr = sympy.Rational(3, 2) + p          # single smooth piece
    h_expr = sympy.Rational(1, 50) * sympy.cos(q) * (1 + p) * p \
        + sympy.Rational(1, 100) * (1 + p) ** 2
    hq_e, hp_e = sympy.diff(h_expr, q), sympy.diff(h_expr, p)
    Gam_e = 2 * d ** 2 / p0 * sympy.integrate(gamma_expr, (p, 0, p))
    A_e = -(1 + d ** 2 * hq_e ** 2) / (2 * d ** 2 * (1 + hp_e) ** 2) \
        + Gam_e / (2 * d ** 2)
    B_e = hq_e / (1 + hp_e)
    R_e = sympy.diff(A_e, p) + sympy.diff(B_e, q)
    R_fn = sympy.lambdify((q, p), R_e, "numpy")
    h_fn = sympy.lambdify((q, p), h_expr, "numpy")

    v = VorticityFunction(pieces=((-1.0, 0.0, (1.5, 1.0)),))
    errs = []
    for N in (16, 32, 64):
        g = Grid(N, N)
        Qg, Pg = np.meshgrid(g.q, g.p, indexing="ij")
        hf = HeightField(g, h_fn(Qg, Pg), Q=0.0)
        interior, _ = residual(hf, v, params)
        exact = R_fn(Qg[:, 1:-1], Pg[:, 1:-1])
        errs.append(np.max(np.abs(interior - exact)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9


# -- jacobian ------------------------------------------------------------------


def _jacobian_case(mode, a, p_jump=-0.5):
    suffix = "" if p_jump == -0.5 else f"-jump{p_jump:g}"
    return pytest.param(mode, a, p_jump, id=f"{mode}-{a}{suffix}")


# jumps at p = -1 + 4/32 and -4/32 leave a layer of exactly 4 cells, whose
# node and half-node stencils are one-sided at both of its ends
@pytest.mark.parametrize("mode,a,p_jump", [
    _jacobian_case(mode, a, p_jump)
    for p_jump in (-0.5, -1.0 + 4 / 32, -4 / 32)
    for mode, a in (("fixed_Q", 0.0), ("meanzero", 0.0), ("amplitude", 1e-3))])
def test_jacobian_matches_central_differences(params, rng, mode, a, p_jump):
    g = Grid(32, 32, aligned_jumps=(p_jump,))
    f = random_admissible_field(rng)
    hf = f.sample(g, Q=12.0)
    sys_ = HeightSystem(g, two_layer(3.0, p_jump), params)
    H = sys_.reduce(hf)
    J = sys_.jacobian_matrix(H, hf.Q, mode)

    def resv(x):
        Hx = H.copy()
        Hx[:, 1:] = x[:sys_.n_h].reshape(H.shape[0], g.Np)
        Qx = x[sys_.n_h] if mode != "fixed_Q" else hf.Q
        return sys_.residual_vector(Hx, Qx, mode, a)[0]

    n = J.shape[1]
    x0 = H[:, 1:].ravel() if mode == "fixed_Q" else \
        np.concatenate((H[:, 1:].ravel(), [hf.Q]))
    delta = rng.standard_normal(n)
    eps = 1e-7
    fd = (resv(x0 + eps * delta) - resv(x0 - eps * delta)) / (2 * eps)
    Jd = J @ delta
    assert np.linalg.norm(fd - Jd) <= 1e-6 * np.linalg.norm(Jd)


def test_jacobian_constant_coefficient_limit(v_zero, params, rng):
    # at h = 0 the linearized interior operator is (1/d^2) D_pp + D_qq;
    # assemble that operator directly from the grid tables and compare
    g = Grid(16, 24)
    hf = flat_field(16, 24, Q=2 * params.g * params.d + params.p0 ** 2)
    sys_ = HeightSystem(g, v_zero, params)
    J = sys_.jacobian_matrix(sys_.reduce(hf), hf.Q, "fixed_Q")

    nh = g.Nq // 2
    delta_red = rng.standard_normal((nh + 1, g.Np + 1))
    delta_red[:, 0] = 0.0
    Jd = (J @ delta_red[:, 1:].ravel()).reshape(nh + 1, g.Np)[:, :-1]

    s = delta_red @ g.Dp_half.T
    dpp = (s[:, 1:] - s[:, :-1]) / g.dp
    r = np.arange(nh + 1)       # reduced neighbours, mirrored at 0 and nh
    rp, rm = nh - np.abs(nh - (r + 1)), np.abs(r - 1)
    dqq = (delta_red[rp] - 2 * delta_red + delta_red[rm]) / g.dq ** 2
    expected = dpp / params.d ** 2 + dqq[:, 1:g.Np]
    assert np.max(np.abs(Jd - expected)) < 1e-11 * max(1, np.max(np.abs(expected)))


@pytest.fixture(scope="module")
def small_wave_two_layer(v_two_layer, params_critical):
    """A 16 x 32 two-layer wave from continuation at near-critical data."""
    g = Grid(16, 32, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params_critical, g.p)
    hf0 = HeightField(g, np.tile(lf.h, (16, 1)), Q=lf.Q)
    cont = continuation(hf0, v_two_layer, params_critical, [0.0, 2.5e-4, 5e-4])
    assert cont.converged
    return cont.fields[-1], v_two_layer, params_critical


@pytest.mark.parametrize("mode", ["fixed_Q", "meanzero", "amplitude"])
def test_linearize_is_the_assembled_jacobians_action(v_two_layer, params,
                                                     small_wave_two_layer,
                                                     rng, mode):
    # jacobian_matrix reads the action off its colour-class probes, and
    # Newton borders the action with the closed-form Q column and closure
    # row; layers next to the bed and the surface make the p-reach widest
    g = Grid(32, 64, aligned_jumps=(-0.5,))
    sampled = random_admissible_field(rng).sample(g, Q=7.5)
    edges = (-1.0 + 4 / 32, -4 / 32)
    v_edges = VorticityFunction(pieces=((-1.0, edges[0], (2.0,)),
                                        (edges[0], edges[1], (0.5, 1.5)),
                                        (edges[1], 0.0, (-1.0,))))
    layered = random_admissible_field(rng).sample(
        Grid(32, 64, aligned_jumps=edges), Q=7.5)
    for hf, v, par in ((sampled, v_two_layer, params),
                       (layered, v_edges, params), small_wave_two_layer):
        sys_ = HeightSystem(hf.grid, v, par)
        H = sys_.reduce(hf)
        J = sys_.jacobian_matrix(H, hf.Q, mode)
        jac = sys_.linearize(sys_.residual_parts(H, hf.Q)[2])
        border = sys_.borders[mode]

        def action(u):      # the bordered action, as `_krylov_step` forms it
            if border is None:
                return jac(u)
            c, ell = border
            return np.append(jac(u[:-1]) + u[-1] * c, ell @ u[:-1])
        scale = abs(J).max()
        for u in [*rng.uniform(-1.0, 1.0, (3, J.shape[1])),
                  np.eye(1, J.shape[1], J.shape[1] - 1)[0]]:
            assert np.max(np.abs(action(u) - J @ u)) <= 1e-14 * scale


def test_operators_match_stencil_tables(v_zero, params, rng):
    # each reduced operator against the index arithmetic it replaces, with a
    # 4-cell layer at the bed and a jump node inside
    g = Grid(16, 32, aligned_jumps=(-1.0 + 4 / 32, -0.5))
    nh = g.Nq // 2
    H = rng.standard_normal((nh + 1, g.Np + 1))
    o = HeightSystem(g, v_zero, params)
    r = np.arange(nh + 1)       # reduced neighbours, mirrored at 0 and nh
    rp, rm = nh - np.abs(nh - (r + 1)), np.abs(r - 1)
    hq, hp = (H[rp] - H[rm]) / (2 * g.dq), g.node_dp(H)
    A = rng.standard_normal((nh + 1, g.Np))
    B = rng.standard_normal((nh, g.Np - 1))
    Bx = np.vstack((-B[:1], B, -B[-1:]))        # B is odd about q = 0, pi
    want = {"hp_half": H @ g.Dp_half.T,
            "hq_half": 0.5 * (hq[:, :-1] + hq[:, 1:]),
            "dq_edge": (H[1:, 1:-1] - H[:-1, 1:-1]) / g.dq,
            "hp_edge": 0.5 * (hp[1:, 1:-1] + hp[:-1, 1:-1]),
            "h_top": H[:, -1], "hq_top": hq[:, -1], "hp_top": hp[:, -1]}
    div = (A[:, 1:] - A[:, :-1]) / g.dp + (Bx[1:] - Bx[:-1]) / g.dq
    s = o.sample(H)
    assert set(s) == set(want) | {"h", "hq", "hp"}
    pairs = [(s["h"], H), (s["hp"], hp), (s["hq"], hq),
             *((s[k], w) for k, w in want.items()),
             (o.div(A, B), div)]
    for got, w in pairs:
        np.testing.assert_allclose(np.ravel(got), w.ravel(), rtol=0,
                                   atol=1e-12 * np.max(np.abs(w)))


def test_residual_even_in_q(v_two_layer, params, rng):
    g = Grid(32, 32, aligned_jumps=(-0.5,))
    hf = random_admissible_field(rng).sample(g, Q=11.0)
    interior, surface = residual(hf, v_two_layer, params)
    mirror = (-np.arange(g.Nq)) % g.Nq
    assert np.max(np.abs(interior - interior[mirror])) == 0.0
    assert np.max(np.abs(surface - surface[mirror])) == 0.0


# -- newton --------------------------------------------------------------------


def test_newton_flat_converges_immediately(v_zero, params):
    Q = 2 * params.g * params.d + params.p0 ** 2 / params.d ** 2
    hf = flat_field(64, 64, Q)
    t0 = time.time()
    res = newton_solve(hf, v_zero, params, mode="fixed_Q", Q=Q, tol=1e-12)
    assert time.time() - t0 < 1.0
    assert res.iterations <= 2
    assert res.residual_inf <= 1e-12
    assert np.max(np.abs(res.field.h)) <= 1e-12


def test_newton_laminar_two_layer(v_two_layer, params):
    g = Grid(16, 128, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    hf0 = HeightField(g, np.zeros((16, 129)), Q=lf.Q)
    res = newton_solve(hf0, v_two_layer, params, mode="fixed_amplitude",
                       amplitude=0.0, tol=1e-10)
    assert np.max(np.abs(res.field.h - lf.h[None, :])) < 5e-7
    assert abs(res.Q - lf.Q) < 1e-6
    assert abs(np.mean(res.field.h[:, -1])) < 1e-12
    assert np.max(np.abs(res.field.h[:, 0])) == 0.0
    assert res.mode == "fixed_amplitude"


def test_newton_fixed_Q_laminar(v_two_layer, params):
    # fixed_Q at the laminar Q finds the laminar profile from a cold start;
    # the error is well inside the generic second-order budget C/Np^2
    g = Grid(16, 128, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    hf0 = HeightField(g, np.zeros((16, 129)), Q=lf.Q)
    res = newton_solve(hf0, v_two_layer, params, mode="fixed_Q", tol=1e-10)
    assert np.max(np.abs(res.field.h - lf.h[None, :])) < 1.0 / 128 ** 2
    # a full step of the cold start stagnates; the line search's guard
    # halves it, and the solve still converges
    assert res.stagnation_hits >= 1
    assert res.residual_inf <= 1e-10 and res.history[-1] == res.residual_inf


def test_newton_nonconvergence_reports_history(v_zero, params):
    hf = flat_field(16, 16, Q=0.0)  # inconsistent Q, h pinned far from truth
    with pytest.raises(ConvergenceError) as exc:
        newton_solve(hf, v_zero, params, mode="fixed_Q", Q=-1e6, max_iter=3,
                     tol=1e-14)
    assert len(exc.value.history) >= 1


def test_newton_rejects_a_negative_max_iter(v_zero, params):
    with pytest.raises(ValueError, match="max_iter"):
        newton_solve(flat_field(16, 16, Q=0.0), v_zero, params,
                     mode="fixed_Q", max_iter=-1)


def test_newton_reuses_the_accepted_residual(v_two_layer, params,
                                             monkeypatch):
    # the line search's accepted residual starts the next iteration, so a
    # solve whose every full step is accepted evaluates one residual more
    # than it takes iterations
    calls, parts = [], HeightSystem.residual_parts
    monkeypatch.setattr(HeightSystem, "residual_parts",
                        lambda self, *a, **k: calls.append(1)
                        or parts(self, *a, **k))
    g = Grid(16, 32, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    hf0 = HeightField(g, np.tile(lf.h, (16, 1)), Q=lf.Q)
    res = newton_solve(hf0, v_two_layer, params, mode="fixed_Q", tol=1e-12)
    assert res.iterations >= 2 and res.stagnation_hits == 0
    assert len(calls) == res.iterations + 1


def test_newton_evaluates_each_state_once(v_two_layer, params, monkeypatch):
    # `linearize` takes the terms of the accepted residual, so a fixed-Q
    # solve forms the fluxes and their partials once per residual; the
    # modes are built beforehand, since `laminar_modes` probes its own strip
    g = Grid(16, 32, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    hf0 = HeightField(g, np.tile(lf.h, (16, 1)), Q=lf.Q)
    sys_ = HeightSystem(g, v_two_layer, params)
    modes = sys_.laminar_modes(sys_.reduce(hf0))
    calls = {"residual_parts": 0, "_pointwise": 0}
    for name in calls:
        method = getattr(HeightSystem, name)

        def counting(self, *a, _name=name, _method=method, **k):
            calls[_name] += 1
            return _method(self, *a, **k)
        monkeypatch.setattr(HeightSystem, name, counting)
    res = newton_solve(hf0, v_two_layer, params, mode="fixed_Q", tol=1e-12,
                       modes=modes)
    assert res.iterations >= 2 and res.fallbacks == 0
    assert calls["_pointwise"] == calls["residual_parts"] == res.iterations + 1


def test_residual_and_action_memory_is_a_few_states(v_two_layer, params):
    # building the system, a residual and one Jacobian action at 128 x 256
    # allocate a few state arrays H (nh+1, Np+1); a stored Kronecker
    # operator would not fit
    g = Grid(128, 256, aligned_jumps=(-0.5,))
    hf = random_admissible_field(np.random.default_rng(4)).sample(g, Q=7.5)
    H = g.reduced_from_full(hf.h)
    u = np.random.default_rng(5).standard_normal(H[:, 1:].size)
    tracemalloc.start()
    try:
        sys_ = HeightSystem(g, v_two_layer, params)
        _, terms = sys_.residual_vector(H, hf.Q, "fixed_Q")
        sys_.linearize(terms)(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * H.nbytes


def test_jacobian_assembly_memory_is_bounded_in_states(v_two_layer, params):
    # the probed Jacobian decodes one offset at a time into int32 columns:
    # its peak is the 27 probes, their values and the CSR, under 100 states
    # H (nh+1, Np+1); an all-offsets int64 decode takes about 185
    g = Grid(128, 256, aligned_jumps=(-0.5,))
    hf = random_admissible_field(np.random.default_rng(4)).sample(g, Q=7.5)
    H = g.reduced_from_full(hf.h)
    sys_ = HeightSystem(g, v_two_layer, params)
    for mode in ("fixed_Q", "amplitude"):
        tracemalloc.start()
        try:
            sys_.jacobian_matrix(H, hf.Q, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * H.nbytes, mode


def _flip_jacobian(monkeypatch):
    """Flip the sign of the fixed-Q Jacobian, applied and assembled alike:
    `linearize` and `jacobian_matrix` both read the terms of `_pointwise`."""
    pointwise = HeightSystem._pointwise

    def flipped(self, s):
        fluxes, terms = pointwise(self, s)
        return fluxes, [[(-f, R) for f, R in flux] for flux in terms]
    monkeypatch.setattr(HeightSystem, "_pointwise", flipped)


def test_line_search_rejects_ascent_step(v_two_layer, params, monkeypatch):
    # with the Jacobian's sign flipped every Newton step raises the residual;
    # halving must stall and report, not accept a tiny uphill step
    _flip_jacobian(monkeypatch)
    g = Grid(16, 32, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    hf0 = HeightField(g, np.zeros((16, 33)), Q=lf.Q)
    with pytest.raises(ConvergenceError, match="stalled at iteration 0") as exc:
        newton_solve(hf0, v_two_layer, params, mode="fixed_Q", tol=1e-10)
    assert len(exc.value.history) == 1


def _worst_residual(hf, v, params):
    """(block, q, p) of the largest residual entry over q in [0, pi]; of
    tied entries, the first with q increasing, interior before surface."""
    g = hf.grid
    interior, surface = map(g.reduced_from_full, residual(hf, v, params))
    if np.max(np.abs(surface)) > np.max(np.abs(interior)):
        return "surface", np.argmax(np.abs(surface)) * g.dq, 0.0
    i, j = np.unravel_index(np.argmax(np.abs(interior)), interior.shape)
    return "interior", i * g.dq, g.p[j + 1]


def _assert_names_worst(message, hf, v, params):
    block, q, p = _worst_residual(hf, v, params)
    found = re.search(r"worst in the (\w+) at \(q, p\) = \((\S+), (\S+)\)",
                      message)
    assert found, message
    assert found[1] == block
    assert float(found[2]) == pytest.approx(q, abs=1e-5)
    assert float(found[3]) == pytest.approx(p, abs=1e-5)


@pytest.mark.parametrize("dh,dQ", [(1e-3, 0.0), (0.0, 1e-2)])
def test_nonconvergence_names_the_worst_residual(v_two_layer, params, dh, dQ):
    # max_iter = 0 stops at the perturbed start state: a wavy interior, or
    # the laminar profile with a wrong Q, whose residual sits on the surface
    g = Grid(16, 32, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    wiggle = np.random.default_rng(3).standard_normal(g.Np + 1) * (1 + g.p)
    h = lf.h + dh * (np.cos(g.q) + 0.3 * np.cos(2 * g.q))[:, None] * wiggle
    hf = HeightField(g, h, Q=lf.Q + dQ)
    with pytest.raises(ConvergenceError, match="no convergence") as exc:
        newton_solve(hf, v_two_layer, params, mode="fixed_Q", max_iter=0)
    _assert_names_worst(str(exc.value), hf, v_two_layer, params)
    with pytest.raises(ConvergenceError, match="worst in the closure row"):
        newton_solve(hf, v_two_layer, params, mode="fixed_amplitude",
                     amplitude=100.0, max_iter=0)


@pytest.mark.parametrize("r,j,where", [
    (3, 4, "interior at (q, p) = (1.1781, -0.84375)"),
    (5, 31, "surface at (q, p) = (1.9635, 0)"),
    (None, None, "closure row")], ids=["interior", "surface", "closure"])
def test_locate_names_the_planted_maximum(v_two_layer, params, r, j, where):
    # residual rows (r, j) of the 16 x 32 grid sit at q = r pi/8 and
    # p = -1 + (j+1)/32, the surface row at j = 31; the closure row is last
    sys_ = HeightSystem(Grid(16, 32, aligned_jumps=(-0.5,)), v_two_layer,
                        params)
    res = np.random.default_rng(7).uniform(-1.0, 1.0, sys_.n_h + 1)
    res[sys_.n_h if r is None else r * 32 + j] = -2.0
    assert sys_.locate(res) == where


def test_stalled_line_search_names_the_worst_residual(v_two_layer, params,
                                                      monkeypatch):
    _flip_jacobian(monkeypatch)
    g = Grid(16, 32, aligned_jumps=(-0.5,))
    hf = HeightField(g, np.zeros((16, 33)), Q=20.0)
    with pytest.raises(ConvergenceError, match="stalled") as exc:
        newton_solve(hf, v_two_layer, params, mode="fixed_Q", tol=1e-10)
    _assert_names_worst(str(exc.value), hf, v_two_layer, params)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), Nq=st.sampled_from([8, 16, 64]),
       Np=st.sampled_from([16, 32, 128]))
def test_residual_of_an_even_field_is_even(v_two_layer, params, seed, Nq, Np):
    # an even field shifted by half a period is again even, and its residual
    # must be the shifted residual: the solver's half q in [0, pi] of the
    # shifted field is the mirror half q in [-pi, 0] of the field, read from
    # the other end, so the reflections at q = 0 and q = pi must agree.
    # Sampling leaves h even only to round-off, |h(q) - h(-q)| <= eps
    # max|h|, and the scheme's second differences amplify that by at most
    # about 1/dq^2 + 1/dp^2; the bound allows 16 times that
    g = Grid(Nq, Np, aligned_jumps=(-0.5,))
    hf = random_admissible_field(np.random.default_rng(seed)).sample(g, Q=7.5)
    shifted = HeightField(g, np.roll(hf.h, Nq // 2, axis=0), Q=hf.Q)
    bound = 16 * np.finfo(float).eps * max(1.0, np.max(np.abs(hf.h))) \
        * (1 / g.dq ** 2 + 1 / g.dp ** 2)
    for r, r_shifted in zip(residual(hf, v_two_layer, params),
                            residual(shifted, v_two_layer, params)):
        assert np.max(np.abs(np.roll(r, Nq // 2, axis=0) - r_shifted)) <= bound


@pytest.mark.parametrize("perturb,match", [
    # a bed row off zero: the reduced solve used to raise StagnationError
    (lambda g, h: h + 0.05 * (g.p == -1.0), "bed row"),
    # an odd part: the reduction to q in [0, pi] used to drop it silently
    (lambda g, h: h + 1e-3 * np.sin(g.q)[:, None] * (1 + g.p), "not even"),
    # h_p lowered by 1.5, so 1 + h_p < 0 above the bed
    (lambda g, h: h - 1.5 * (1 + g.p), "stagnates"),
])
def test_newton_solve_rejects_an_inadmissible_start(v_two_layer, params,
                                                    perturb, match):
    g = Grid(16, 32, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    hf0 = HeightField(g, perturb(g, np.tile(lf.h, (16, 1))), Q=lf.Q)
    with pytest.raises(ValueError, match=match):
        newton_solve(hf0, v_two_layer, params, mode="fixed_amplitude",
                     amplitude=0.0, tol=1e-10)
    with pytest.raises(ValueError, match=match):
        continuation(hf0, v_two_layer, params, [0.0])


def test_grid_rejects_misaligned_jump():
    with pytest.raises(AlignmentError):
        Grid(16, 31, aligned_jumps=(-0.5,))


def test_continuation_zero_schedule(v_two_layer, params):
    g = Grid(16, 64, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    hf0 = HeightField(g, np.tile(lf.h, (16, 1)), Q=lf.Q)
    cont = continuation(hf0, v_two_layer, params, [0.0])
    assert cont.converged and len(cont.fields) == 1
    # agreement is limited by the p-discretization (O(dp^4) at Np=64)
    assert np.max(np.abs(cont.fields[0].h - lf.h[None, :])) < 1e-6


@pytest.fixture(scope="module")
def small_wave_irrotational():
    """Continuation [0, 1e-4 d] for gamma = 0 at near-critical gravity.

    Small-amplitude 2pi-periodic waves exist only where the k=1 mode is
    neutral; gravity is tuned to the discrete dispersion relation so the
    branch passes through the zero-mean laminar state.
    """
    from steadywaves.vorticity import zero_vorticity
    Nq = 32
    dq = 2 * np.pi / Nq
    k_disc = np.sqrt(2.0 - 2.0 * np.cos(dq)) / dq
    g_crit = k_disc / np.tanh(k_disc)  # lam=1, d=1, p0=-1
    params = FlowParameters(d=1.0, g=g_crit, c=1.0, p0=-1.0)
    v0 = zero_vorticity()
    grid = Grid(Nq, 48)
    hf0 = HeightField(grid, np.zeros((Nq, 49)),
                      Q=laminar.laminar_Q(1.0, params))
    cont = continuation(hf0, v0, params, [0.0, 1e-4], tol=1e-11)
    return params, v0, cont


def test_continuation_small_amplitude_irrotational(small_wave_irrotational):
    params, v0, cont = small_wave_irrotational
    assert cont.converged
    wave = cont.fields[-1]
    assert wave.amplitude(params.d) == pytest.approx(1e-4, rel=1e-8)
    mirror = (-np.arange(wave.grid.Nq)) % wave.grid.Nq
    assert np.max(np.abs(wave.h - wave.h[mirror])) == 0.0
    # surface mean vanishes up to the p-discretization detuning of the branch
    assert abs(np.mean(wave.h[:, -1])) < 1e-5
    interior, surface = residual(wave, v0, params)
    assert max(np.max(np.abs(interior)), np.max(np.abs(surface))) < 1e-10


def test_continuation_reversal_returns_to_laminar(small_wave_irrotational):
    params, v0, cont = small_wave_irrotational
    wave = cont.fields[-1]
    back = continuation(wave, v0, params, [0.0], tol=1e-11)
    assert back.converged
    assert np.max(np.abs(back.fields[0].h - cont.fields[0].h)) < 1e-8
    assert abs(back.fields[0].Q - cont.fields[0].Q) < 1e-8


def test_continuation_failure_reports_partial(v_two_layer, params):
    # far from critical data, a large-amplitude jump cannot converge
    g = Grid(16, 64, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    hf0 = HeightField(g, np.tile(lf.h, (16, 1)), Q=lf.Q)
    cont = continuation(hf0, v_two_layer, params, [0.0, 0.3], max_iter=8)
    assert not cont.converged
    assert cont.failed_amplitude == 0.3
    assert len(cont.fields) == 1


# -- nested iteration ---------------------------------------------------------

CHAIN_SCHEDULE = [0.0, 2.5e-4, 5e-4, 1e-3]


def _laminar_start(v, params, Nq, Np):
    g = Grid(Nq, Np, aligned_jumps=v.breakpoints)
    lf = laminar.solve(v, params, g.p)
    return HeightField(g, np.tile(lf.h, (Nq, 1)), Q=lf.Q)


def _same_result(a, b):
    """Two ContinuationResults agree bit for bit."""
    assert (a.amplitudes, a.converged, a.failed_amplitude, a.message,
            a.grid_chain) == (b.amplitudes, b.converged, b.failed_amplitude,
                              b.message, b.grid_chain)
    assert len(a.fields) == len(b.fields)
    for fa, fb in zip(a.fields, b.fields):
        assert fa.grid == fb.grid and fa.Q == fb.Q
        assert np.array_equal(fa.h, fb.h)


@pytest.fixture()
def small_floor(monkeypatch):
    # a 32 x 64 run chains through 16 x 32, and no further
    monkeypatch.setattr(solver, "_CHAIN_MIN_CELLS", 16 * 32)


@pytest.mark.parametrize("Nq,Np,jumps,chain", [
    (1024, 2048, (-0.5,),
     [(128, 256), (256, 512), (512, 1024), (1024, 2048)]),
    (256, 512, (), [(128, 256), (256, 512)]),
    (128, 256, (-0.5,), [(128, 256)]),          # at the floor
    (512, 1025, (), [(512, 1025)]),             # odd Np: no half grid
    (256, 512, (-1 + 5 / 512,), [(256, 512)]),  # the jump is off the half grid
    (256, 512, (-1 + 6 / 512,), [(256, 512)]),  # a 3-cell layer on it
])
def test_grid_chain_halves_down_to_the_floor(Nq, Np, jumps, chain):
    grids = solver._grid_chain(Grid(Nq, Np, aligned_jumps=jumps))
    assert [(g.Nq, g.Np) for g in grids] == chain
    assert all(g.aligned_jumps == grids[-1].aligned_jumps for g in grids)


def test_laminar_modes_built_once_per_schedule_run(v_two_layer,
                                                   params_critical,
                                                   monkeypatch):
    # the wave seed and every solve of a run of the schedule take the
    # modes of its start state
    builds, init = [], LaminarModes.__init__
    monkeypatch.setattr(LaminarModes, "__init__",
                        lambda self, *a: builds.append(a) or init(self, *a))
    hf0 = _laminar_start(v_two_layer, params_critical, 16, 32)
    res = solver._follow(hf0, v_two_layer, params_critical, CHAIN_SCHEDULE,
                         1e-10, 50)
    assert res.converged and res.amplitudes == CHAIN_SCHEDULE
    assert len(builds) == 1


def test_q_column_solved_once_per_modes(v_two_layer, params_critical,
                                        monkeypatch):
    # every solve of a run of the schedule borders the modes with the same
    # Q column c, so its modal solve M^{-1} c is made once for the run
    hf0 = _laminar_start(v_two_layer, params_critical, 32, 64)
    c = HeightSystem(hf0.grid, v_two_layer,
                     params_critical).borders["meanzero"][0]
    solves, solve = [], LaminarModes.solve
    monkeypatch.setattr(LaminarModes, "solve", lambda self, b: solves.append(
        (id(self), np.array_equal(b, c))) or solve(self, b))
    res = solver._follow(hf0, v_two_layer, params_critical, CHAIN_SCHEDULE,
                         1e-10, 50)
    assert res.converged and len(CHAIN_SCHEDULE) == 4
    assert len({modes for modes, _ in solves}) == 1
    assert sum(column for _, column in solves) == 1


def test_continuation_chains_through_the_half_grid(v_two_layer,
                                                   params_critical,
                                                   small_floor):
    hf0 = _laminar_start(v_two_layer, params_critical, 32, 64)
    chained = continuation(hf0, v_two_layer, params_critical, CHAIN_SCHEDULE)
    assert chained.converged
    assert chained.grid_chain == [[16, 32], [32, 64]]
    assert chained.amplitudes == CHAIN_SCHEDULE
    assert [f.grid.Nq for f in chained.fields] == [16, 16, 16, 32]
    wave = chained.fields[-1]
    assert wave.grid is hf0.grid
    assert wave.amplitude(params_critical.d) == pytest.approx(1e-3, abs=1e-10)
    interior, surface = residual(wave, v_two_layer, params_critical)
    assert max(np.max(np.abs(interior)), np.max(np.abs(surface))) <= 1e-10
    # against the schedule on the full grid
    full = solver._follow(hf0, v_two_layer, params_critical, CHAIN_SCHEDULE,
                          1e-10, 50)
    assert abs(wave.Q - full.fields[-1].Q) <= 1e-11
    assert np.max(np.abs(wave.h - full.fields[-1].h)) <= 1e-11


def test_continuation_at_the_floor_runs_the_schedule_directly(
        v_two_layer, params_critical, small_floor, monkeypatch):
    # the half of 16 x 32 is below the floor: no coarser grid is built and
    # nothing is prolonged, so the result is the full-grid schedule's
    hf0 = _laminar_start(v_two_layer, params_critical, 16, 32)
    full = solver._follow(hf0, v_two_layer, params_critical, CHAIN_SCHEDULE,
                          1e-10, 50)
    monkeypatch.setattr(solver, "Grid", None)
    monkeypatch.setattr(solver, "prolong", None)
    cont = continuation(hf0, v_two_layer, params_critical, CHAIN_SCHEDULE)
    assert cont.grid_chain == [[16, 32]]
    _same_result(cont, full)


def _failing_newton(Nq):
    """newton_solve, except that its first call on a grid of Nq q-nodes
    raises ConvergenceError."""
    newton, failed = solver.newton_solve, []

    def solve(initial, *args, **kwargs):
        if initial.grid.Nq == Nq and not failed:
            failed.append(initial)
            raise ConvergenceError("injected")
        return newton(initial, *args, **kwargs)
    return solve


@pytest.mark.parametrize("defect", ["coarse step", "fine Newton",
                                    "inadmissible prolongation"])
def test_a_failed_chain_falls_back_to_the_full_grid(v_two_layer,
                                                    params_critical,
                                                    small_floor, monkeypatch,
                                                    defect):
    hf0 = _laminar_start(v_two_layer, params_critical, 32, 64)
    full = solver._follow(hf0, v_two_layer, params_critical, CHAIN_SCHEDULE,
                          1e-10, 50)
    assert full.converged and full.grid_chain == [[32, 64]]
    if defect == "coarse step":
        monkeypatch.setattr(solver, "newton_solve", _failing_newton(16))
    elif defect == "fine Newton":
        monkeypatch.setattr(solver, "newton_solve", _failing_newton(32))
    else:       # 1 + h_p < 0 above the bed
        prolong = solver.prolong
        monkeypatch.setattr(solver, "prolong", lambda hf, g: HeightField(
            g, prolong(hf, g).h - 1.5 * (1.0 + g.p), hf.Q))
    cont = continuation(hf0, v_two_layer, params_critical, CHAIN_SCHEDULE)
    _same_result(cont, full)


def test_a_failed_fallback_is_returned_unchanged(v_two_layer, params,
                                                 small_floor):
    # far from critical data the step to 0.3 fails on both grids: the
    # partial result and its message are the full grid's
    hf0 = _laminar_start(v_two_layer, params, 32, 64)
    full = solver._follow(hf0, v_two_layer, params, [0.0, 0.3], 1e-10, 8)
    assert not full.converged and full.failed_amplitude == 0.3
    cont = continuation(hf0, v_two_layer, params, [0.0, 0.3], max_iter=8)
    _same_result(cont, full)


def test_continuation_at_256x512_takes_one_fine_newton_solve(
        v_two_layer, params_critical, monkeypatch):
    newton, fine = solver.newton_solve, []

    def solve(initial, *args, **kwargs):
        res = newton(initial, *args, **kwargs)
        if initial.grid.Nq == 256:
            fine.append(res)
        return res
    monkeypatch.setattr(solver, "newton_solve", solve)
    hf0 = _laminar_start(v_two_layer, params_critical, 256, 512)
    cont = continuation(hf0, v_two_layer, params_critical, CHAIN_SCHEDULE)
    assert cont.converged
    assert cont.grid_chain == [[128, 256], [256, 512]]
    assert len(fine) == 1
    assert fine[0].iterations <= 2 and fine[0].fallbacks == 0
    assert fine[0].field is cont.fields[-1]


def test_solved_laminar_hp_jump_at_aligned_node(v_two_layer, params):
    # h_p jumps across the aligned interface and is smooth within each layer:
    # second p-differences of h are O(1)-discontinuous only at the jump node
    g = Grid(16, 128, aligned_jumps=(-0.5,))
    lf = laminar.solve(v_two_layer, params, g.p)
    hf0 = HeightField(g, np.tile(lf.h, (16, 1)), Q=lf.Q)
    res = newton_solve(hf0, v_two_layer, params, mode="fixed_amplitude",
                       amplitude=0.0, tol=1e-11)
    h = res.field.h[0]
    d2 = (h[2:] - 2 * h[1:-1] + h[:-2]) / g.dp ** 2   # d2[k] at node k+1
    jJ = g.jump_nodes[0]            # node index of p = -1/2
    # analytic curvature below the interface: h_pp = 3 (lam - 6p - 3)^(-3/2);
    # identically 0 above
    below_at = lambda p: 3.0 * (lf.lam - 6.0 * p - 3.0) ** -1.5
    jump = below_at(-0.5)
    assert d2[jJ - 2] == pytest.approx(below_at(g.p[jJ - 1]), rel=0.02)
    assert abs(d2[jJ]) < 0.02 * jump
    # the straddling difference at the aligned node sees the mean of the
    # one-sided curvatures: an O(1) discontinuity localized at the node
    assert d2[jJ - 1] == pytest.approx(0.5 * jump, rel=0.1)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(7, 16)        # odd Nq
    with pytest.raises(ValueError):
        Grid(6, 16)        # Nq < 8
    with pytest.raises(ValueError):
        Grid(8, 4)         # Np < 8
    g = Grid(8, 8)
    assert 0.0 in g.q      # evenness axis is a grid line


def _fornberg_first_derivative(z, x):
    """Scalar Fornberg recursion for d/dp at z: the batched build's reference."""
    n, m = len(x), 1
    c = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn, c2, c5, c4 = min(i, m), 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _stencil_tables_per_node(g, edges):
    """The six tables built one target at a time: the 5 nodes of the
    target's layer nearest to it, then Fornberg's weights on them.  The
    target sits at half-cell index t (node j at 2 j, cell jc's midpoint at
    2 jc + 1), so distances are exact integers and a stable sort breaks
    each tie to the lower node."""
    def pick(target, t, cell):
        k = np.searchsorted(edges, cell, side="right") - 1
        nodes = np.arange(edges[k], edges[k + 1] + 1)
        order = np.argsort(np.abs(2 * nodes - t), kind="stable")
        sel = np.sort(nodes[order[:5]])
        return sel, _fornberg_first_derivative(target, g.p[sel])

    Np, tables = g.Np, {}
    for name, suffix, picks in (
            ("half", "", [pick(g.p[jc] + 0.5 * g.dp, 2 * jc + 1, jc)
                          for jc in range(Np)]),
            ("node", "", [pick(g.p[j], 2 * j, min(max(j - 1, 0), Np - 1))
                          for j in range(Np + 1)]),
            ("node", "_hi", [pick(g.p[j], 2 * j, min(j, Np - 1))
                             for j in range(Np + 1)])):
        tables[f"{name}_idx{suffix}"] = np.array([sel for sel, _ in picks])
        tables[f"{name}_w{suffix}"] = np.array([w for _, w in picks])
    return tables


@st.composite
def _layered_grids(draw):
    """(Np, jump nodes) with every layer at least 4 cells deep."""
    Np = draw(st.integers(8, 300))
    edges = [0]
    while Np - edges[-1] >= 8 and draw(st.booleans()):
        edges.append(draw(st.integers(edges[-1] + 4, Np - 4)))
    return Np, edges[1:]


@settings(max_examples=30, deadline=None)
@given(layers=_layered_grids())
@example(layers=(8, [4]))
@example(layers=(300, [4, 150, 296]))
@example(layers=(512, [256]))
def test_batched_stencil_tables_match_per_node_build(layers):
    Np, jumps = layers
    g = Grid(8, Np, aligned_jumps=tuple(-1.0 + j / Np for j in jumps))
    want = _stencil_tables_per_node(g, np.array([0, *jumps, Np]))
    # each table as its CSR operator stores it, 5 entries a row in node
    # order; scipy keeps the indices as int32.  The sided operator holds
    # both node tables: each node's first sided column is its row on the
    # layer below, its last the row on the layer above (one column, and
    # the same row, away from a jump)
    node = np.arange(Np + 1)
    assert np.array_equal(g.sided, np.sort(np.r_[node, jumps]))
    first = np.searchsorted(g.sided, node)
    last = np.searchsorted(g.sided, node, side="right") - 1
    assert np.array_equal(np.union1d(first, last), np.arange(len(g.sided)))
    ops = {"half": [g.Dp_half],
           "node": [g.Dp_node, g.Dp_sided[first]],
           "node_hi": [g.Dp_sided[last]]}
    for name, table in want.items():
        for op in ops[name.replace("_idx", "").replace("_w", "")]:
            got = (op.indices.astype(np.int64) if "_idx" in name
                   else op.data).reshape(-1, 5)
            assert got.dtype == table.dtype and got.shape == table.shape, name
            assert np.array_equal(got.view(np.int64),
                                  table.view(np.int64)), name


def test_half_node_stencil_ties_go_to_the_lower_node():
    # p_half[4] is as far from node 2 as from node 7, a tie that distances
    # in floating point break toward node 7 at Np = 48
    assert list(Grid(8, 48).Dp_half[4].indices) == [2, 3, 4, 5, 6]


def test_three_layer_polynomial_vorticity_nonunit_params(rng):
    v3, par = THREE_PIECE, THREE_PIECE_PARAMS
    assert v3.jump_points == (-2.0 / 3.0,)   # the second breakpoint is continuous
    lam = laminar.solve_lambda(v3, par)
    Q = laminar.laminar_Q(lam, par)
    g = Grid(16, 96, aligned_jumps=v3.breakpoints)
    lf = laminar.solve(v3, par, g.p)
    hf0 = HeightField(g, np.zeros((16, 97)), Q=Q)
    res = newton_solve(hf0, v3, par, mode="fixed_amplitude", amplitude=0.0,
                       tol=1e-10)
    assert np.max(np.abs(res.field.h - lf.h[None, :])) < 5e-6
    assert abs(np.mean(res.field.h[:, -1])) < 1e-12

    sys_ = HeightSystem(g, v3, par)
    hf = random_admissible_field(rng).sample(g, Q=8.0)
    H = sys_.reduce(hf)
    J = sys_.jacobian_matrix(H, hf.Q, "amplitude")
    x0 = np.concatenate((H[:, 1:].ravel(), [hf.Q]))

    def resv(x):
        Hx = H.copy()
        Hx[:, 1:] = x[:sys_.n_h].reshape(H.shape[0], g.Np)
        return sys_.residual_vector(Hx, x[sys_.n_h], "amplitude",
                                    1e-3)[0]

    delta = rng.standard_normal(len(x0))
    eps = 1e-7
    fd = (resv(x0 + eps * delta) - resv(x0 - eps * delta)) / (2 * eps)
    Jd = J @ delta
    assert np.linalg.norm(fd - Jd) <= 1e-6 * np.linalg.norm(Jd)
