import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.fft import dct

from conftest import G_CRITICAL_TWO_LAYER, THREE_PIECE, THREE_PIECE_PARAMS
from steadywaves import laminar
from steadywaves import solver
from steadywaves.field import HeightField, random_admissible_field
from steadywaves.grid import Grid
from steadywaves.solver import HeightSystem
from steadywaves.vorticity import FlowParameters, two_layer


def laminar_state(v, params, Nq, Np):
    g = Grid(Nq, Np, aligned_jumps=(-0.5,))
    lf = laminar.solve(v, params, g.p)
    return HeightField(g, np.tile(lf.h, (Nq, 1)), Q=lf.Q)


def test_dct_block_diagonalizes_laminar_jacobian(v_two_layer, params):
    hf = laminar_state(v_two_layer, params, 16, 32)
    sys_ = HeightSystem(hf.grid, v_two_layer, params)
    H = sys_.reduce(hf)
    modes = sys_.laminar_modes(H)
    J = sys_.jacobian_matrix(H, hf.Q, "fixed_Q")
    nh, Np = sys_.nh, hf.grid.Np

    K = J.toarray()
    blocks = K.reshape(nh + 1, Np, nh + 1, Np)
    scale = np.max(np.abs(K))
    A1 = modes.A1.toarray()
    assert np.max(np.abs(blocks[1, :, 0] - A1)) <= 1e-14 * scale
    # the mirrored neighbour at q = 0 counts twice
    assert np.max(np.abs(blocks[0, :, 1] - 2 * A1)) <= 1e-14 * scale

    # DCT-I along r: T K T^{-1} has nothing outside the p-blocks M_k
    T = dct(np.eye(nh + 1), type=1, axis=0)
    TK = np.einsum("kr,rjsi->kjsi", T, blocks)
    D = np.einsum("kjsi,sl->kjli", TK, np.linalg.inv(T))
    for k in range(nh + 1):
        M_k = (modes.A0 + modes.eig_L[k] * modes.A1).toarray()
        assert np.max(np.abs(D[k, :, k] - M_k)) <= 1e-12 * scale
        D[k, :, k] = 0.0
    assert np.max(np.abs(D)) <= 1e-12 * scale


@pytest.mark.parametrize("v,par,Nq,Np", [
    (two_layer(3.0), FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0), 32, 48),
    (THREE_PIECE, THREE_PIECE_PARAMS, 16, 96),
])
def test_modal_blocks_match_jacobian_blocks(v, par, Nq, Np, rng):
    # oracle: the p-blocks read off the whole fixed-Q Jacobian at the q-mean
    # state, whose rows share the unknowns' (r, j) layout
    g = Grid(Nq, Np, aligned_jumps=v.breakpoints)
    sys_ = HeightSystem(g, v, par)
    H = sys_.reduce(random_admissible_field(rng).sample(g, Q=8.0))
    modes = sys_.laminar_modes(H)
    Hbar = np.broadcast_to(sys_.mw @ H, H.shape)
    K = sys_.jacobian_matrix(Hbar, 0.0, "fixed_Q")
    scale = abs(K).max()
    A0 = K[Np:2 * Np, Np:2 * Np]
    A1 = K[Np:2 * Np, 2 * Np:3 * Np]
    assert abs(modes.A0 - A0).max() <= 1e-14 * scale
    assert abs(modes.A1 - A1).max() <= 1e-14 * scale


def test_laminar_modes_assemble_no_jacobian(v_two_layer, params, monkeypatch):
    hf = laminar_state(v_two_layer, params, 16, 32)
    sys_ = HeightSystem(hf.grid, v_two_layer, params)

    def forbidden(*args, **kwargs):
        raise AssertionError("laminar_modes assembled the Jacobian")

    monkeypatch.setattr(HeightSystem, "jacobian_matrix", forbidden)
    sys_.laminar_modes(sys_.reduce(hf))


def test_modal_inverse_is_exact_at_laminar_state(v_two_layer, params):
    hf = laminar_state(v_two_layer, params, 16, 32)
    sys_ = HeightSystem(hf.grid, v_two_layer, params)
    H = sys_.reduce(hf)
    modes = sys_.laminar_modes(H)
    J = sys_.jacobian_matrix(H, hf.Q, "fixed_Q")
    b = np.random.default_rng(5).standard_normal(J.shape[0])
    assert np.linalg.norm(J @ modes.solve(b) - b) <= 1e-11 * np.linalg.norm(b)


@pytest.mark.parametrize("Nq,Np", [(16, 32), (128, 256)])
def test_modal_solve_is_the_axis0_transform(v_two_layer, params, Nq, Np):
    # the DCT-I along the contiguous axis of the transposed array gives the
    # same floats as the transform along axis 0
    hf = laminar_state(v_two_layer, params, Nq, Np)
    sys_ = HeightSystem(hf.grid, v_two_layer, params)
    modes = sys_.laminar_modes(sys_.reduce(hf))
    nh = sys_.nh
    b = np.random.default_rng(11).standard_normal(sys_.n_h)
    bhat = dct(b.reshape(nh + 1, Np), type=1, axis=0)
    want = dct(modes.solve_modal(bhat), type=1, axis=0) / (2 * nh)
    assert np.array_equal(modes.solve(b), want.ravel())


def test_wave_seed_matches_eigs_oracle(v_two_layer, params_critical):
    # the shift-invert eigenvector of smallest |eigenvalue| of the fixed-Q
    # Jacobian, whose rows share the unknowns' (r, j) layout so that row and
    # column i belong to the same node, normalized to unit amplitude
    params = params_critical
    lam = laminar_state(v_two_layer, params, 32, 64)
    hf = solver.newton_solve(lam, v_two_layer, params, mode="fixed_amplitude",
                             amplitude=0.0).field
    sys_ = HeightSystem(hf.grid, v_two_layer, params)
    nh, Np = sys_.nh, hf.grid.Np
    J = sys_.jacobian_matrix(sys_.reduce(hf), hf.Q, "fixed_Q").tocsc()
    _, vecs = spla.eigs(J, k=3, sigma=0.0, which="LM", v0=np.ones(J.shape[0]))
    best, best_amp = None, 0.0
    for i in range(vecs.shape[1]):
        vec = np.real(vecs[:, i]).reshape(nh + 1, Np)
        amp = params.d * (vec[0, -1] - vec[nh, -1]) / 2.0
        if abs(amp) > abs(best_amp):
            best, best_amp = vec, amp
    oracle = np.zeros((nh + 1, Np + 1))
    oracle[:, 1:] = best / best_amp
    oracle = hf.grid.full_from_reduced(oracle)

    seed = solver.wave_seed(hf, v_two_layer, params)
    assert np.max(np.abs(seed - oracle)) <= 1e-8 * np.max(np.abs(oracle))
    assert hf.grid.reduced_from_full(seed)[:, -1] == pytest.approx(
        np.cos(np.pi * np.arange(nh + 1) / nh), abs=1e-15)


def test_critical_gravity_converges_to_conftest_constant(v_two_layer, params):
    err = {Nq: solver.critical_gravity(
        v_two_layer, params, Grid(Nq, 256, aligned_jumps=(-0.5,)))
        - G_CRITICAL_TWO_LAYER for Nq in (32, 64)}
    # second order in q: the error shrinks about 4x per halving of dq
    assert 3.5 <= err[32] / err[64] <= 4.5
    assert abs((4 * err[64] - err[32]) / 3) <= 1e-6


def test_gmres_restarts_agree_with_the_arnoldi_estimate(monkeypatch):
    # a nonnormal system that needs more than one restart cycle under a
    # diagonal preconditioner that barely helps; the Arnoldi estimate is
    # the residual of the last least-squares problem
    rng = np.random.default_rng(11)
    n = 400
    A = (np.diag(np.linspace(1.0, 200.0, n))
         + 0.5 * np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n))
    b = rng.standard_normal(n)
    s = rng.uniform(0.5, 1.5, n)
    lstsq, estimate = np.linalg.lstsq, []

    def spy(a, e, rcond=None):
        out = lstsq(a, e, rcond=rcond)
        estimate[:] = [np.linalg.norm(a @ out[0] - e)]
        return out

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    cycles = solver._GMRES_CYCLES * solver._GMRES_RESTART
    for rtol, converged in ((1e-5, True), (1e-7, False)):
        x, its, ok = solver._gmres(lambda u: A @ u, lambda u: s * u, b, rtol)
        true = np.linalg.norm(b - A @ x)
        assert ok is converged
        assert solver._GMRES_RESTART < its <= cycles
        assert abs(true - estimate[0]) <= 1e-9 * estimate[0]
        if converged:
            assert true <= rtol * np.linalg.norm(b) * (1 + 1e-9)
        else:
            assert its == cycles


def _continuation_steps(monkeypatch, v, params, hf0, schedule):
    """Continuation plus the NewtonResult of every step."""
    steps = []
    newton = solver.newton_solve

    def recording(*args, **kwargs):
        steps.append(newton(*args, **kwargs))
        return steps[-1]

    monkeypatch.setattr(solver, "newton_solve", recording)
    cont = solver.continuation(hf0, v, params, schedule)
    monkeypatch.setattr(solver, "newton_solve", newton)
    assert cont.converged
    return cont, steps


def _krylov_fails(monkeypatch):
    gmres = solver._gmres
    monkeypatch.setattr(solver, "_gmres",
                        lambda *a, **k: gmres(*a, **k)[:2] + (False,))


def test_newton_krylov_continuation_matches_superlu(v_two_layer,
                                                    params_critical,
                                                    monkeypatch):
    hf0 = laminar_state(v_two_layer, params_critical, 64, 128)
    schedule = [0.0, 2.5e-4, 5e-4, 1e-3]
    nk, nk_steps = _continuation_steps(monkeypatch, v_two_layer,
                                       params_critical, hf0, schedule)
    _krylov_fails(monkeypatch)
    lu, lu_steps = _continuation_steps(monkeypatch, v_two_layer,
                                       params_critical, hf0, schedule)
    assert [s.fallbacks for s in nk_steps] == [0, 0, 0, 0]
    assert all(len(s.krylov_iters) == s.iterations for s in nk_steps)
    assert [s.fallbacks for s in lu_steps] == [s.iterations for s in lu_steps]
    assert min(s.iterations for s in lu_steps) >= 1
    for a, b in zip(nk.fields, lu.fields):
        assert np.max(np.abs(a.h - b.h)) <= 1e-9
        assert abs(a.Q - b.Q) <= 1e-10


def test_continuation_assembles_no_jacobian(v_two_layer, params_critical,
                                           monkeypatch):
    # the benchmark's schedule: every Newton step applies the Jacobian
    # through `linearize`; only a SuperLU fallback would assemble it
    def forbidden(*args, **kwargs):
        raise AssertionError("a Newton step assembled the Jacobian")

    monkeypatch.setattr(HeightSystem, "jacobian_matrix", forbidden)
    hf0 = laminar_state(v_two_layer, params_critical, 64, 128)
    _, steps = _continuation_steps(monkeypatch, v_two_layer, params_critical,
                                   hf0, [0.0, 2.5e-4, 5e-4, 1e-3])
    assert [s.fallbacks for s in steps] == [0, 0, 0, 0]


def test_krylov_failure_falls_back_to_superlu(v_two_layer, params,
                                              monkeypatch):
    hf0 = laminar_state(v_two_layer, params, 16, 64)
    hf0.h = hf0.h * 1.01
    nk = solver.newton_solve(hf0, v_two_layer, params,
                             mode="fixed_amplitude", amplitude=0.0)
    _krylov_fails(monkeypatch)
    lu = solver.newton_solve(hf0, v_two_layer, params,
                             mode="fixed_amplitude", amplitude=0.0)
    assert nk.fallbacks == 0
    assert lu.fallbacks == lu.iterations >= 1
    assert len(lu.krylov_iters) == lu.iterations
    assert np.max(np.abs(nk.field.h - lu.field.h)) <= 1e-12
    assert abs(nk.Q - lu.Q) <= 1e-12
