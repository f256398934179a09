import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dct

from conftest import G_CRITICAL_TWO_LAYER, THREE_PIECE, THREE_PIECE_PARAMS
from steadywaves import laminar
from steadywaves import modal
from steadywaves import solver
from steadywaves.modal import LaminarModes, SingularModeError
from steadywaves.field import HeightField, random_admissible_field
from steadywaves.grid import Grid
from steadywaves.solver import HeightSystem
from steadywaves.vorticity import (FlowParameters, VorticityFunction,
                                   two_layer, zero_vorticity)


def laminar_state(v, params, Nq, Np):
    g = Grid(Nq, Np, aligned_jumps=(-0.5,))
    lf = laminar.solve(v, params, g.p)
    return HeightField(g, np.tile(lf.h, (Nq, 1)), Q=lf.Q)


def _dense(table):
    """The Np x Np block whose row-offset table (Np, 2 s + 1) is `table`:
    entry [i, s + o] is the block's entry (i, i + o)."""
    Np, s = table.shape[0], table.shape[1] // 2
    A = np.zeros((Np, Np))
    for o in range(-s, s + 1):
        i = np.arange(max(-o, 0), Np - max(o, 0))
        A[i, i + o] = table[i, s + o]
    return A


def _M(modes, k):
    """The dense modal block M_k = A0 + eig_L[k] A1."""
    return _dense(modes.A0) + modes.eig_L[k] * _dense(modes.A1)


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
    A1 = _dense(modes.A1)
    assert np.max(np.abs(blocks[1, :, 0] - A1)) <= 1e-14 * scale
    # the mirrored neighbour at q = 0 counts twice
    assert np.max(np.abs(blocks[0, :, 1] - 2 * A1)) <= 1e-14 * scale

    # DCT-I along r: T K T^{-1} has nothing outside the p-blocks M_k
    T = dct(np.eye(nh + 1), type=1, axis=0)
    TK = np.einsum("kr,rjsi->kjsi", T, blocks)
    D = np.einsum("kjsi,sl->kjli", TK, np.linalg.inv(T))
    for k in range(nh + 1):
        M_k = _M(modes, k)
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
    A0 = K[Np:2 * Np, Np:2 * Np].toarray()
    A1 = K[Np:2 * Np, 2 * Np:3 * Np].toarray()
    assert np.max(np.abs(_dense(modes.A0) - A0)) <= 1e-14 * scale
    assert np.max(np.abs(_dense(modes.A1) - A1)) <= 1e-14 * scale


@pytest.mark.parametrize("v,jumps,band", [
    (two_layer(3.0), (-0.5,), (4, 4)),
    (THREE_PIECE, THREE_PIECE.breakpoints, (4, 4)),
    (zero_vorticity(), (), (4, 3)),
], ids=["two-layer", "three-piece", "zero"])
def test_offset_tables_are_the_strip_jacobians_diagonals(v, jumps, band, rng):
    # the tables `laminar_modes` hands to LaminarModes against the diagonals
    # of the CSR Jacobian assembled on the same three-column strip: A0 is
    # block (0, 0), A1 block (1, 0); every entry has the same bits (a zero
    # the CSR matrix leaves out is a +0.0 of the table), and the band's
    # widths are the tables' nonzero offsets
    g = Grid(16, 48, aligned_jumps=jumps)
    sys_ = HeightSystem(g, v, THREE_PIECE_PARAMS)
    H = sys_.reduce(random_admissible_field(rng).sample(g, Q=8.0))
    modes = sys_.laminar_modes(H)
    J = sys_.jacobian_matrix(np.tile(sys_.mw @ H, (3, 1)), 0.0, "fixed_Q")
    Np, s = g.Np, modes.A0.shape[1] // 2
    assert modes.A0.shape == modes.A1.shape == (Np, 2 * s + 1)
    for table, block in ((modes.A0, J[:Np, :Np]),
                         (modes.A1, J[Np:2 * Np, :Np])):
        assert block.nnz == np.count_nonzero(table)
        for o in range(-s, s + 1):
            rows = slice(max(-o, 0), Np - max(o, 0))
            assert table[rows, s + o].tobytes() == block.diagonal(o).tobytes()
            assert not np.any(table[:max(-o, 0), s + o])
            assert not np.any(table[Np - max(o, 0):, s + o])
    assert (modes.kl, modes.ku) == band


@pytest.mark.parametrize("v,par,Nq,Np", [
    (two_layer(3.0), FlowParameters(d=1.0, g=9.8, c=1.0, p0=-1.0), 16, 32),
    (THREE_PIECE, THREE_PIECE_PARAMS, 16, 96),
])
def test_solve_modal_matches_dense_block_solves(v, par, Nq, Np, rng):
    # the band LU's solution of every mode against a dense LU of the same
    # M_k, by backward error, on the 4 sub- and 4 superdiagonals of the
    # 4th-order p-stencils read off A0 and A1
    g = Grid(Nq, Np, aligned_jumps=v.breakpoints)
    sys_ = HeightSystem(g, v, par)
    H = sys_.reduce(random_admissible_field(rng).sample(g, Q=8.0))
    modes = sys_.laminar_modes(H)
    assert (modes.kl, modes.ku) == (4, 4)
    assert modes.lu.shape == (2 * 4 + 4 + 1, (sys_.nh + 1) * Np)
    bhat = rng.standard_normal((sys_.nh + 1, Np))
    x = modes.solve_modal(bhat)
    for k in range(sys_.nh + 1):
        M_k = _M(modes, k)
        want = np.linalg.solve(M_k, bhat[k])
        scale = np.linalg.norm(M_k, 2)
        for y in (x[k], want):
            backward = (np.linalg.norm(M_k @ y - bhat[k])
                        / (scale * np.linalg.norm(y)))
            assert backward <= 1e-12
        assert (np.linalg.norm(x[k] - want)
                <= 1e-12 * np.linalg.cond(M_k) * np.linalg.norm(want))


def test_singular_modal_block_is_named():
    # diagonal p-blocks, as row-offset tables of the one offset 0, with only
    # M_1 = A0 + eig_L[1] A1 exactly singular, in its p-row 3; every other
    # M_k has the nonzero eig_L[k] - eig_L[1] there
    nh, Np = 8, 5
    eig_1 = 2.0 * np.cos(np.pi * np.arange(nh + 1) / nh)[1]
    A0 = np.array([[3.0], [3.0], [-eig_1], [3.0], [3.0]])
    with pytest.raises(SingularModeError,
                       match=r"block k = 1 .* p-row j = 3 of 5") as exc:
        LaminarModes(A0, np.ones((Np, 1)), nh)
    assert isinstance(exc.value, np.linalg.LinAlgError)
    A0[2] += 0.5
    LaminarModes(A0, np.ones((Np, 1)), nh)


def test_laminar_modes_peak_memory_is_the_band_storage(v_two_layer,
                                                       params_critical):
    # the band is filled in place by diagonals and factorized in place:
    # no Kronecker product, no sparse LU workspace
    hf = laminar_state(v_two_layer, params_critical, 128, 256)
    sys_ = HeightSystem(hf.grid, v_two_layer, params_critical)
    H = sys_.reduce(hf)
    tracemalloc.start()
    try:
        modes = sys_.laminar_modes(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * modes.lu.nbytes


def test_laminar_modes_assemble_no_jacobian(v_two_layer, params, monkeypatch):
    # A0 and A1 are read off the Newton action on a strip of q-columns:
    # every state whose terms `linearize` takes, and every vector it is
    # applied to, has at most 3 of the grid's nh + 1 = 9 columns, and the
    # Jacobian is never assembled
    hf = laminar_state(v_two_layer, params, 16, 32)
    sys_ = HeightSystem(hf.grid, v_two_layer, params)
    Np, rows = hf.grid.Np, []
    pointwise, linearize = HeightSystem._pointwise, HeightSystem.linearize

    def recording_pointwise(self, s):
        rows.append(len(s["h"]))
        return pointwise(self, s)

    def recording_linearize(self, terms):
        jac = linearize(self, terms)
        return lambda u: rows.append(u.size // Np) or jac(u)

    def forbidden(*args, **kwargs):
        raise AssertionError("laminar_modes assembled the Jacobian")

    monkeypatch.setattr(HeightSystem, "_pointwise", recording_pointwise)
    monkeypatch.setattr(HeightSystem, "linearize", recording_linearize)
    monkeypatch.setattr(HeightSystem, "jacobian_matrix", forbidden)
    sys_.laminar_modes(sys_.reduce(hf))
    assert len(rows) > 1 and max(rows) <= 3 < sys_.nh + 1


@st.composite
def _layered_flows(draw, Np=32):
    """1-3 vorticity layers of >= 4 p-cells and random strengths, with
    random flow parameters."""
    layers = draw(st.integers(1, 3))
    cuts = draw(st.lists(st.integers(4, Np - 4), min_size=layers - 1,
                         max_size=layers - 1, unique=True).map(sorted).filter(
        lambda c: all(b - a >= 4 for a, b in zip([0, *c], [*c, Np]))))
    edges = [-1.0, *(c / Np - 1.0 for c in cuts), 0.0]
    strengths = draw(st.lists(st.floats(-5.0, 5.0), min_size=layers,
                              max_size=layers))
    v = VorticityFunction(pieces=tuple(
        (lo, hi, (s,)) for lo, hi, s in zip(edges[:-1], edges[1:], strengths)))
    par = FlowParameters(d=draw(st.floats(0.5, 2.0)),
                         g=draw(st.floats(0.5, 10.0)), c=1.0,
                         p0=draw(st.floats(-2.0, -0.5)))
    return v, par


@settings(max_examples=40, deadline=None)
@given(flow=_layered_flows(), seed=st.integers(0, 2 ** 32 - 1))
def test_modal_inverse_at_random_q_invariant_states(flow, seed):
    # at the q-mean of a random admissible state (itself admissible: h_p
    # averages over q), the modal inverse leaves the residual of a
    # backward-stable solve, ||J x - b|| <= 1e-12 ||J|| ||x||
    v, par = flow
    g = Grid(16, 32, aligned_jumps=v.breakpoints)
    sys_ = HeightSystem(g, v, par)
    rng = np.random.default_rng(seed)
    H = sys_.reduce(random_admissible_field(rng, max_hp=0.5).sample(g))
    Hbar = np.tile(sys_.mw @ H, (sys_.nh + 1, 1))
    jac = sys_.linearize(sys_.residual_parts(Hbar, 0.0)[2])
    scale = abs(sys_.jacobian_matrix(Hbar, 0.0, "fixed_Q")).sum(axis=1).max()
    b = rng.standard_normal(sys_.n_h)
    x = sys_.laminar_modes(H).solve(b)
    assert (np.max(np.abs(jac(x) - b))
            <= 1e-12 * scale * np.max(np.abs(x)))


@pytest.mark.parametrize("v,par,Nq,Np", [
    (two_layer(3.0), FlowParameters(d=1.0, g=G_CRITICAL_TWO_LAYER, c=1.0,
                                    p0=-1.0), 128, 256),
    (THREE_PIECE, THREE_PIECE_PARAMS, 16, 96),
])
def test_k1_solves_match_the_all_mode_solve(v, par, Nq, Np, rng, monkeypatch):
    # the k = 1 block's own slice of the band LU gives the floats of block 1
    # of the all-mode solve, in the neutral mode and the surface response
    g = Grid(Nq, Np, aligned_jumps=v.breakpoints)
    sys_ = HeightSystem(g, v, par)
    modes = sys_.laminar_modes(
        sys_.reduce(random_admissible_field(rng).sample(g, Q=8.0)))

    def all_modes(b):
        bhat = np.zeros((modes.nh + 1, Np))
        bhat[1] = b
        return modes.solve_modal(bhat)[1]
    b = rng.standard_normal(Np)
    assert np.array_equal(modes._solve_k1(b), all_modes(b))
    got = modes.neutral_mode(), modes.surface_response()
    monkeypatch.setattr(modes, "_solve_k1", all_modes)
    assert np.array_equal(modes.neutral_mode(), got[0])
    assert modes.surface_response() == got[1]


def test_modal_inverse_is_exact_at_laminar_state(v_two_layer, params):
    hf = laminar_state(v_two_layer, params, 16, 32)
    sys_ = HeightSystem(hf.grid, v_two_layer, params)
    H = sys_.reduce(hf)
    modes = sys_.laminar_modes(H)
    J = sys_.jacobian_matrix(H, hf.Q, "fixed_Q")
    b = np.random.default_rng(5).standard_normal(J.shape[0])
    assert np.linalg.norm(J @ modes.solve(b) - b) <= 1e-11 * np.linalg.norm(b)


def test_bordered_laminar_inverse_is_exact_at_laminar_state(v_two_layer,
                                                           params):
    # the closures' preconditioner: the modal inverse bordered with the Q
    # column c and the mean-zero row w inverts the mean-zero Jacobian
    hf = laminar_state(v_two_layer, params, 16, 64)
    sys_ = HeightSystem(hf.grid, v_two_layer, params)
    H = sys_.reduce(hf)
    modes = sys_.laminar_modes(H)
    c, w = sys_.borders["meanzero"]
    precond = solver._bordered(modes, c, w)
    J = sys_.jacobian_matrix(H, hf.Q, "meanzero")
    for u in np.random.default_rng(7).standard_normal((3, J.shape[0])):
        assert np.linalg.norm(precond(J @ u) - u) <= 1e-10 * np.linalg.norm(u)
    # why w borders every closure: the amplitude row l sees only odd cosine
    # modes and c only k = 0, so the modes bordered with l are singular
    xc = modes.solve(c)
    ell = sys_.borders["amplitude"][1]
    norms = np.linalg.norm(ell) * np.linalg.norm(xc)
    assert abs(ell @ xc) <= 1e-14 * norms
    assert abs(w @ xc) >= 1e-3 * np.linalg.norm(w) * np.linalg.norm(xc)


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


@pytest.mark.parametrize("nh", [1, 2, 3, 8, 64])
def test_dct1_is_scipy_dct_type1(nh):
    # numpy's real FFT of the even extension gives scipy's floats, down to
    # the two-point transform of nh = 1, along the last axis and, on the
    # transposed array as `LaminarModes.solve` runs it, along axis 0
    x = np.random.default_rng(nh).standard_normal((5, nh + 1))
    assert np.array_equal(modal._dct1(x), dct(x, type=1))
    xt = np.ascontiguousarray(x.T)
    assert np.array_equal(modal._dct1(xt.T).T, dct(xt, type=1, axis=0))


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
    # through `linearize` and the modal inverse factorizes by LAPACK's band
    # LU; only a SuperLU fallback would assemble the Jacobian or call splu,
    # and nothing builds a Kronecker product
    def forbidden(*args, **kwargs):
        raise AssertionError("a Newton step assembled the Jacobian, "
                             "called SuperLU or built a Kronecker product")

    monkeypatch.setattr(HeightSystem, "jacobian_matrix", forbidden)
    monkeypatch.setattr(spla, "splu", forbidden)
    monkeypatch.setattr(sp, "kron", forbidden)
    hf0 = laminar_state(v_two_layer, params_critical, 64, 128)
    _, steps = _continuation_steps(monkeypatch, v_two_layer, params_critical,
                                   hf0, [0.0, 2.5e-4, 5e-4, 1e-3])
    assert [s.fallbacks for s in steps] == [0, 0, 0, 0]


def test_continuation_krylov_iterations_are_bounded(v_two_layer,
                                                    params_critical,
                                                    monkeypatch):
    # the benchmark's schedule: one bordered GMRES per Newton step on the
    # mean-zero bordered laminar inverse takes 27 iterations in all
    hf0 = laminar_state(v_two_layer, params_critical, 64, 128)
    _, steps = _continuation_steps(monkeypatch, v_two_layer, params_critical,
                                   hf0, [0.0, 2.5e-4, 5e-4, 1e-3])
    assert [s.iterations for s in steps] == [2, 2, 2, 1]
    assert [s.fallbacks for s in steps] == [0, 0, 0, 0]
    assert sum(sum(s.krylov_iters) for s in steps) <= 35


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
