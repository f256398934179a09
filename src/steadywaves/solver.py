"""Newton solver for the weak modified-height system on the rectangle R.

The interior equation is discretized in conservative (divergence) form: the
vertical flux

    A = -(1 + d^2 h_q^2) / (2 d^2 (1 + h_p)^2) + gamma_cap(p) / (2 d^2)

is evaluated at cell midpoints p_{j+1/2} with per-layer 4th-order stencils
for h_p (so the scheme keeps its accuracy when gamma jumps, provided the
jump is node-aligned) and the horizontal flux B = h_q / (1 + h_p) at
half q-edges.  The solver works on the even-reduced subspace q in [0, pi],
bed row eliminated.  The dynamic surface condition supplies the top rows.

Closures:
  fixed_Q          h unknown, Q given.
  fixed_amplitude  (h, Q) unknown.  For target amplitude a = 0 the scalar
                   row is the zero-mean surface condition, which pins the
                   laminar branch; for a != 0 it is the crest-minus-trough
                   amplitude row.  Small-amplitude waves only exist when the
                   data is near-critical (the linearized wave mode close to
                   neutral), which the continuation driver assumes.

Linear solves: each Newton step solves J dx = -r by right-preconditioned
GMRES with Eisenstat-Walker forcing terms.  The preconditioner is the exact
inverse of the fixed-Q Jacobian at the q-mean of a reference state
(`modal.LaminarModes`: a DCT-I in q and one banded LU of the p-blocks); the
closures' Q column and scalar row are handled by a Schur complement.  A step
whose true linear residual misses its tolerance is solved again by SuperLU.
The continuation seed cos(q) phi_1(p) and the critical gravity come from the
k = 1 modal block.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .vorticity import VorticityFunction, FlowParameters, gamma_cap
from .grid import Grid
from .field import HeightField
from .modal import LaminarModes
from . import laminar


EPS_STAG_DEFAULT = 1e-10


class StagnationError(RuntimeError):
    """A cell violated 1 + h_p > eps_stag."""


class ConvergenceError(RuntimeError):
    """Newton failed; carries the residual history and solver statistics."""

    def __init__(self, message, history=None, last_field=None,
                 krylov_iters=None, fallbacks=0):
        super().__init__(message)
        self.history = list(history or [])
        self.last_field = last_field
        self.krylov_iters = list(krylov_iters or [])
        self.fallbacks = fallbacks


@dataclass
class NewtonResult:
    field: HeightField
    Q: float
    iterations: int
    residual_inf: float
    history: list
    stagnation_hits: int
    mode: str
    # GMRES iterations of each Newton step, and the number of steps that
    # missed their tolerance and were solved again by SuperLU
    krylov_iters: list = dataclasses.field(default_factory=list)
    fallbacks: int = 0


@dataclass
class ContinuationResult:
    fields: list
    amplitudes: list
    converged: bool
    failed_amplitude: float | None = None
    message: str = ""


class HeightSystem:
    """Assembles the discrete residual and analytic Jacobian."""

    def __init__(self, grid: Grid, v: VorticityFunction, params: FlowParameters):
        for b in v.breakpoints:
            if b not in grid.aligned_jumps:
                raise ValueError(
                    f"vorticity breakpoint {b} is not registered on the grid; "
                    f"construct Grid with aligned_jumps={v.breakpoints}")
        self.grid, self.v, self.params = grid, v, params
        self.Ghalf = gamma_cap(v, params, grid.p_half)
        nh = grid.Nq // 2
        self.nh = nh
        self.rp = np.array([grid.qmirror(r + 1) for r in range(nh + 1)])
        self.rm = np.array([grid.qmirror(r - 1) for r in range(nh + 1)])
        self.mw = grid.mean_weights_reduced()
        self.n_int = (nh + 1) * (grid.Np - 1)
        self.n_h = (nh + 1) * grid.Np

    # -- reduced state helpers ------------------------------------------------

    def reduce(self, hf: HeightField):
        """Full (Nq, Np+1) -> reduced (nh+1, Np+1) with bed column kept."""
        return self.grid.reduced_from_full(hf.h).copy()

    def expand(self, H, Q):
        full = self.grid.full_from_reduced(H)
        return HeightField(self.grid, full, Q)

    # -- pointwise quantities --------------------------------------------------

    def _derivs(self, H):
        g = self.grid
        hq = (H[self.rp] - H[self.rm]) / (2.0 * g.dq)
        hp = g.node_dp(H)
        s = g.half_dp(H)
        return hq, hp, s

    def laminar_modes(self, H):
        """Modal inverse of the fixed-Q Jacobian at the q-mean of H."""
        Hbar = np.broadcast_to(self.mw @ H, H.shape)
        return LaminarModes(self.jacobian_matrix(Hbar, 0.0, "fixed_Q"),
                            self.nh, self.grid.Np)

    def admissible(self, H, eps=EPS_STAG_DEFAULT):
        _, hp, s = self._derivs(H)
        return min(np.min(1.0 + s), np.min(1.0 + hp)) > eps

    def residual_parts(self, H, Q, eps_stag=EPS_STAG_DEFAULT):
        """(interior (nh+1, Np-1), surface (nh+1,)) residuals."""
        g = self.grid
        d, p0, grav = self.params.d, self.params.p0, self.params.g
        hq, hp, s = self._derivs(H)
        if min(np.min(1.0 + s), np.min(1.0 + hp)) <= eps_stag:
            raise StagnationError("1 + h_p fell below eps_stag")
        hq_half = 0.5 * (hq[:, :-1] + hq[:, 1:])
        A = -(1.0 + d * d * hq_half ** 2) / (2 * d * d * (1.0 + s) ** 2) \
            + self.Ghalf / (2 * d * d)
        dH = (H[1:] - H[:-1]) / g.dq
        mB = 1.0 + 0.5 * (hp[:-1] + hp[1:])
        Bh = dH / mB
        nh = self.nh
        Bdiv = np.empty_like(H)
        Bdiv[0] = 2.0 * Bh[0] / g.dq
        Bdiv[1:nh] = (Bh[1:] - Bh[:-1]) / g.dq
        Bdiv[nh] = -2.0 * Bh[nh - 1] / g.dq
        interior = (A[:, 1:] - A[:, :-1]) / g.dp + Bdiv[:, 1:g.Np]
        surface = (-(1.0 + d * d * hq[:, -1] ** 2)
                   / (2 * d * d * (1.0 + hp[:, -1]) ** 2)
                   - grav * d * (H[:, -1] + 1.0) / p0 ** 2 + Q / (2 * p0 ** 2))
        return interior, surface

    def residual_vector(self, H, Q, mode, a=0.0, eps_stag=EPS_STAG_DEFAULT):
        interior, surface = self.residual_parts(H, Q, eps_stag)
        rows = [interior.ravel(), surface]
        if mode == "meanzero":
            rows.append(np.array([self.mw @ H[:, -1]]))
        elif mode == "amplitude":
            rows.append(np.array(
                [self.params.d * (H[0, -1] - H[self.nh, -1]) / 2.0 - a]))
        elif mode != "fixed_Q":
            raise ValueError(f"unknown mode {mode!r}")
        return np.concatenate(rows)

    # -- analytic Jacobian -----------------------------------------------------

    def jacobian_matrix(self, H, Q, mode):
        """Sparse Jacobian in the reduced ordering (see `residual_vector`).

        Unknowns: h at (r, j), u = r*Np + (j-1), plus Q appended for the
        meanzero/amplitude closures.
        """
        g = self.grid
        d, p0, grav = self.params.d, self.params.p0, self.params.g
        nh, Np = self.nh, g.Np
        nq = nh + 1
        hq, hp, s = self._derivs(H)
        hq_half = 0.5 * (hq[:, :-1] + hq[:, 1:])
        with_Q = mode in ("meanzero", "amplitude")
        n_rows = self.n_h + (1 if with_Q else 0)
        n_cols = self.n_h + (1 if with_Q else 0)

        R, C, V = [], [], []

        def add(rows, cols_r, cols_j, vals, ok=True):
            """Append entries; bed columns (j == 0) and masked rows dropped."""
            rows, cols_r, cols_j, vals, okb = np.broadcast_arrays(
                rows, cols_r, cols_j, vals, ok)
            keep = (np.asarray(cols_j) >= 1) & np.asarray(okb, dtype=bool)
            R.append(np.asarray(rows)[keep])
            C.append(np.asarray(cols_r)[keep] * Np + np.asarray(cols_j)[keep] - 1)
            V.append(np.asarray(vals, dtype=float)[keep])

        # interior rows: row(r, j) = r*(Np-1) + (j-1), j = 1..Np-1
        r_idx = np.arange(nq)[:, None, None]              # (nq,1,1)
        jc_idx = np.arange(Np)[None, :, None]             # (1,Np,1)

        dA_ds = (1.0 + d * d * hq_half ** 2) / (d * d * (1.0 + s) ** 3)
        dA_dhqh = -hq_half / (1.0 + s) ** 2

        half_idx = g.half_idx[None, :, :]                 # (1,Np,5)
        half_w = g.half_w[None, :, :]

        # rows j = jc receive +A_jc/dp ; rows j = jc+1 receive -A_jc/dp
        for row_j, sign, mask in (
                (jc_idx, +1.0, (jc_idx >= 1) & (jc_idx <= Np - 1)),
                (jc_idx + 1, -1.0, jc_idx + 1 <= Np - 1)):
            base = sign / g.dp
            rowu = r_idx * (Np - 1) + (row_j - 1)
            # via s
            add(rowu, r_idx, half_idx, base * dA_ds[:, :, None] * half_w, mask)
            # via hq_half: depends on hq at (r, jc) and (r, jc+1)
            rowu2, jc2, mask2 = rowu[:, :, 0], jc_idx[:, :, 0], mask[:, :, 0]
            for jn_off in (0, 1):
                for rr, sgn_q in ((self.rp, +1.0), (self.rm, -1.0)):
                    add(rowu2, rr[:, None], jc2 + jn_off,
                        base * dA_dhqh * 0.5 * sgn_q / (2 * g.dq), mask2)

        # B-flux entries: edges e = 0..nh-1, nodes j = 1..Np-1
        e_idx = np.arange(nh)[:, None]                    # (nh,1)
        j_idx = np.arange(1, Np)[None, :]                 # (1,Np-1)
        dH = (H[1:] - H[:-1]) / g.dq
        mB = 1.0 + 0.5 * (hp[:-1] + hp[1:])
        Bh = dH / mB
        dB_dDH = 1.0 / (g.dq * mB[:, 1:Np])
        dB_dm = -Bh[:, 1:Np] / mB[:, 1:Np]
        w_row_e = np.where(e_idx == 0, 2.0, 1.0) / g.dq          # into row r=e
        w_row_e1 = -np.where(e_idx + 1 == nh, 2.0, 1.0) / g.dq   # into row r=e+1
        node_idx = g.node_idx[None, 1:Np, :]              # (1,Np-1,5)
        node_w = g.node_w[None, 1:Np, :]
        for row_r, wrow in ((e_idx, w_row_e), (e_idx + 1, w_row_e1)):
            rowu = row_r * (Np - 1) + (j_idx - 1)
            # via dH
            for col_r, sgn in ((e_idx + 1, +1.0), (e_idx, -1.0)):
                vals = wrow * sgn * dB_dDH
                add(rowu, np.broadcast_to(col_r, vals.shape),
                    np.broadcast_to(j_idx, vals.shape), vals)
            # via m (average of node hp at e and e+1)
            for col_r in (e_idx, e_idx + 1):
                vals = (wrow * dB_dm)[:, :, None] * 0.5 * node_w
                add(np.broadcast_to(rowu[:, :, None], vals.shape),
                    np.broadcast_to(col_r[:, :, None], vals.shape),
                    np.broadcast_to(node_idx, vals.shape), vals)

        # surface rows: row = n_int + r
        r1 = np.arange(nq)
        rowu = self.n_int + r1
        hq0, hp0 = hq[:, -1], hp[:, -1]
        add(rowu, r1, np.full(nq, Np), np.full(nq, -grav * d / p0 ** 2))
        dS_dhp = (1.0 + d * d * hq0 ** 2) / (d * d * (1.0 + hp0) ** 3)
        vals = dS_dhp[:, None] * g.node_w[None, -1, :]
        add(np.broadcast_to(rowu[:, None], vals.shape),
            np.broadcast_to(r1[:, None], vals.shape),
            np.broadcast_to(g.node_idx[None, -1, :], vals.shape), vals)
        dS_dhq = -hq0 / (1.0 + hp0) ** 2
        for rr, sgn in ((self.rp, +1.0), (self.rm, -1.0)):
            vals = dS_dhq * sgn / (2 * g.dq)
            add(rowu, rr, np.full(nq, Np), vals)

        rows = np.concatenate(R)
        cols = np.concatenate(C)
        vals = np.concatenate(V)

        extra_r, extra_c, extra_v = [], [], []
        if with_Q:
            # Q column in surface rows
            extra_r.extend(self.n_int + r1)
            extra_c.extend([self.n_h] * nq)
            extra_v.extend([1.0 / (2 * p0 ** 2)] * nq)
            # scalar row
            srow = self.n_h
            if mode == "meanzero":
                for r in range(nq):
                    extra_r.append(srow)
                    extra_c.append(r * Np + Np - 1)
                    extra_v.append(self.mw[r])
            else:
                extra_r.extend([srow, srow])
                extra_c.extend([0 * Np + Np - 1, nh * Np + Np - 1])
                extra_v.extend([self.params.d / 2.0, -self.params.d / 2.0])
        rows = np.concatenate((rows, np.array(extra_r, dtype=rows.dtype)))
        cols = np.concatenate((cols, np.array(extra_c, dtype=cols.dtype)))
        vals = np.concatenate((vals, np.array(extra_v)))
        return sp.coo_matrix((vals, (rows, cols)),
                             shape=(n_rows, n_cols)).tocsr()


# -- public operations --------------------------------------------------------


def residual(hf: HeightField, v: VorticityFunction, params: FlowParameters,
             eps_stag=EPS_STAG_DEFAULT):
    """Interior and surface residuals on the full grid: ((Nq, Np-1), (Nq,))."""
    sys_ = HeightSystem(hf.grid, v, params)
    interior, surface = sys_.residual_parts(sys_.reduce(hf), hf.Q, eps_stag)
    return (hf.grid.full_from_reduced(interior),
            hf.grid.full_from_reduced(surface))


def jacobian(hf: HeightField, v: VorticityFunction, params: FlowParameters,
             mode="fixed_Q"):
    """Analytic sparse Jacobian in the even-reduced unknown ordering."""
    sys_ = HeightSystem(hf.grid, v, params)
    mode = "meanzero" if mode == "fixed_amplitude" else mode
    return sys_.jacobian_matrix(sys_.reduce(hf), hf.Q, mode)


# Newton-Krylov: preconditioned GMRES with Eisenstat-Walker forcing terms
_ETA_MAX = 1e-4        # forcing term cap
_ETA_MIN = 1e-7        # preconditioned solves stagnate near eps * cond(M)
_SCHUR_ETA = 1.0 / 30  # inner solves of the bordered closures, relative
_GMRES_RESTART = 40
_GMRES_CYCLES = 3


def _forcing(r2, r2_prev, tol):
    """Eisenstat-Walker choice 2, capped so the step reaches 0.1 tol."""
    eta = _ETA_MAX if r2_prev is None else min(
        _ETA_MAX, 0.9 * (r2 / r2_prev) ** 2)
    return max(min(eta, 0.1 * tol / r2), _ETA_MIN)


def _gmres(matvec, precond, b, rtol):
    """Right-preconditioned restarted GMRES: (x, iterations, converged).

    Right preconditioning makes the Arnoldi least-squares residual the
    residual ||b - A x|| of the unpreconditioned system, so `rtol` is
    measured there.  `converged` reports that estimate; in round-off the
    true residual of a near-singular A can stall above it, which is why
    callers check the Newton step's true residual themselves.
    """
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, True
    its, res = 0, b
    m = _GMRES_RESTART
    for _ in range(_GMRES_CYCLES):
        beta = np.linalg.norm(res)
        V = np.empty((m + 1, b.size))
        Z = np.empty((m, b.size))
        Hs = np.zeros((m + 1, m))
        V[0] = res / beta
        for k in range(m):
            Z[k] = precond(V[k])
            w = matvec(Z[k])
            for _ in range(2):      # classical Gram-Schmidt, twice
                c = V[:k + 1] @ w
                w -= c @ V[:k + 1]
                Hs[:k + 1, k] += c
            Hs[k + 1, k] = np.linalg.norm(w)
            e1 = np.zeros(k + 2)
            e1[0] = beta
            y = np.linalg.lstsq(Hs[:k + 2, :k + 1], e1, rcond=None)[0]
            its += 1
            done = np.linalg.norm(Hs[:k + 2, :k + 1] @ y - e1) <= rtol * bnorm
            if done or Hs[k + 1, k] == 0.0:
                break
            V[k + 1] = w / Hs[k + 1, k]
        x = x + y @ Z[:k + 1]
        if done:
            return x, its, True
        res = b - matvec(x)
    return x, its, False


def _krylov_step(J, r, n_h, modes, eta):
    """Newton step solving J dx = -r by GMRES on the laminar modal inverse.

    The bordered closures (a Q column and one scalar row) are solved by
    their Schur complement: two inner solves on the fixed-Q block A,
    x_b = A^{-1} b and x_c = A^{-1} c, then dQ = (l.x_b - beta)/(l.x_c).
    The modal inverse is never bordered itself: the amplitude row sees only
    odd cosine modes and the Q column only k = 0, so l M^{-1} c = 0.
    Returns (dx or None when a solve misses its tolerance, iterations).
    """
    if J.shape[0] == n_h:
        dx, its, ok = _gmres(J.dot, modes.solve, -r, eta)
    else:
        def matvec(x):
            return J.dot(np.append(x, 0.0))[:n_h]
        c = J[:n_h, n_h].toarray().ravel()
        ell = J[n_h, :n_h].toarray().ravel()
        x_b, its_b, ok_b = _gmres(matvec, modes.solve, -r[:n_h],
                                  eta * _SCHUR_ETA)
        x_c, its_c, ok_c = _gmres(matvec, modes.solve, c, eta * _SCHUR_ETA)
        its, ok = its_b + its_c, ok_b and ok_c
        with np.errstate(divide="ignore", invalid="ignore"):
            dQ = (ell @ x_b + r[n_h]) / (ell @ x_c)
        dx = np.append(x_b - dQ * x_c, dQ)
    if ok and np.linalg.norm(J.dot(dx) + r) <= 10.0 * eta * np.linalg.norm(r):
        return dx, its
    return None, its


def _newton_core(sys_: HeightSystem, H0, Q0, mode, a, tol, max_iter, eps_stag,
                 modes=None):
    H, Q = H0.copy(), float(Q0)
    nh, Np = sys_.nh, sys_.grid.Np
    history, krylov = [], []
    guards = fallbacks = 0
    r2_prev = None
    for it in range(max_iter + 1):
        r = sys_.residual_vector(H, Q, mode, a, eps_stag=0.0)
        rn = float(np.max(np.abs(r)))
        history.append(rn)
        if rn <= tol and sys_.admissible(H, eps_stag):
            return NewtonResult(field=sys_.expand(H, Q), Q=Q, iterations=it,
                                residual_inf=rn, history=history,
                                stagnation_hits=guards, mode=mode,
                                krylov_iters=krylov, fallbacks=fallbacks)
        if it == max_iter:
            break
        J = sys_.jacobian_matrix(H, Q, mode)
        if modes is None:
            modes = sys_.laminar_modes(H)
        r2 = float(np.linalg.norm(r))
        dx, its = _krylov_step(J, r, sys_.n_h, modes,
                               _forcing(r2, r2_prev, tol))
        r2_prev = r2
        krylov.append(its)
        if dx is None:
            fallbacks += 1
            dx = spla.splu(J.tocsc()).solve(-r)
        dH = dx[:sys_.n_h].reshape(nh + 1, Np)
        dQ = dx[sys_.n_h] if mode != "fixed_Q" else 0.0
        step, accepted = 1.0, False
        for _ in range(30):
            Hc = H.copy()
            Hc[:, 1:] += step * dH
            Qc = Q + step * dQ
            if not sys_.admissible(Hc, eps_stag):
                guards += 1
                step *= 0.5
                continue
            rc = sys_.residual_vector(Hc, Qc, mode, a, eps_stag=0.0)
            if np.max(np.abs(rc)) < rn:
                H, Q = Hc, Qc
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise ConvergenceError(
                f"step halving stalled at iteration {it}, residual {rn:.3e}",
                history=history, krylov_iters=krylov, fallbacks=fallbacks)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations, residual {history[-1]:.3e}",
        history=history, krylov_iters=krylov, fallbacks=fallbacks)


def newton_solve(initial: HeightField, v: VorticityFunction,
                 params: FlowParameters, mode="fixed_Q", Q=None, amplitude=None,
                 tol=1e-10, max_iter=50, eps_stag=EPS_STAG_DEFAULT,
                 modes=None) -> NewtonResult:
    """Damped Newton-Krylov solve of the discrete height system.

    mode 'fixed_Q': Q is data (argument or initial.Q).  mode
    'fixed_amplitude': Q joins the unknowns; amplitude 0 selects the
    zero-mean laminar closure, otherwise the crest-trough amplitude row.
    `modes` (a LaminarModes) preconditions every linear solve; by default
    it is built from the q-mean of the initial state.
    """
    sys_ = HeightSystem(initial.grid, v, params)
    H0 = sys_.reduce(initial)
    if mode == "fixed_Q":
        Q0 = initial.Q if Q is None else float(Q)
        imode, a = "fixed_Q", 0.0
    elif mode == "fixed_amplitude":
        if amplitude is None:
            raise ValueError("fixed_amplitude mode needs an amplitude")
        Q0 = initial.Q if Q is None else float(Q)
        a = float(amplitude)
        imode = "meanzero" if a == 0.0 else "amplitude"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    res = _newton_core(sys_, H0, Q0, imode, a, tol, max_iter, eps_stag, modes)
    res.mode = mode
    return res


def wave_seed(hf: HeightField, v: VorticityFunction, params: FlowParameters,
              modes=None):
    """Linearized wave mode cos(q) phi_1(p) at unit amplitude.

    phi_1 is the near-null eigenvector of the k = 1 modal block of the
    fixed-Q Jacobian at the q-mean of hf (or of `modes`); at near-critical
    data it is the neutral wave mode that the continuation driver follows
    off the laminar branch.
    """
    sys_ = HeightSystem(hf.grid, v, params)
    if modes is None:
        modes = sys_.laminar_modes(sys_.reduce(hf))
    phi = modes.neutral_mode()
    nh = sys_.nh
    seed = np.zeros((nh + 1, hf.grid.Np + 1))
    seed[:, 1:] = np.cos(np.pi * np.arange(nh + 1) / nh)[:, None] * phi
    return hf.grid.full_from_reduced(seed / params.d)


def critical_gravity(v: VorticityFunction, params: FlowParameters, grid: Grid):
    """Gravity at which the k = 1 wave mode of the laminar flow is neutral.

    The laminar profile does not depend on g, and the fixed-Q Jacobian
    depends on g only through the surface diagonal alpha g, alpha = -d/p0^2.
    The k = 1 block M_1(g') = M_1(g) + (g' - g) alpha e_s e_s^T is singular
    where 1 + (g' - g) alpha (M_1^{-1} e_s)_s = 0: the discrete
    Sturm-Liouville dispersion relation, solved with one banded solve.
    """
    lf = laminar.solve(v, params, grid.p)
    sys_ = HeightSystem(grid, v, params)
    H = np.tile(lf.h, (sys_.nh + 1, 1))
    alpha = -params.d / params.p0 ** 2
    return params.g - 1.0 / (alpha * sys_.laminar_modes(H).surface_response())


def continuation(hf0: HeightField, v: VorticityFunction,
                 params: FlowParameters, amplitude_schedule, tol=1e-10,
                 max_iter=50, eps_stag=EPS_STAG_DEFAULT) -> ContinuationResult:
    """Sequence of fixed_amplitude solves warm-started along the schedule.

    The laminar modes are built once from the start state and once more at
    the state the wave seed leaves from, and precondition every solve.
    """
    schedule = [float(a) for a in amplitude_schedule]
    fields, amps = [], []
    prev = hf0
    prev_prev = None
    sys_ = HeightSystem(hf0.grid, v, params)
    modes = sys_.laminar_modes(sys_.reduce(hf0))
    for k, a in enumerate(schedule):
        warm = prev.copy()
        if a != 0.0:
            a_prev = amps[-1] if amps else 0.0
            if prev_prev is not None and len(amps) >= 2 and amps[-2] != a_prev:
                t = (a - a_prev) / (a_prev - amps[-2])
                warm.h = prev.h + t * (prev.h - prev_prev.h)
                warm.Q = prev.Q + t * (prev.Q - prev_prev.Q)
            else:
                if prev is not hf0:
                    modes = sys_.laminar_modes(sys_.reduce(prev))
                seed = wave_seed(prev, v, params, modes=modes)
                warm.h = prev.h + (a - a_prev) * seed
        try:
            res = newton_solve(warm, v, params, mode="fixed_amplitude",
                               amplitude=a, tol=tol, max_iter=max_iter,
                               eps_stag=eps_stag, modes=modes)
        except (ConvergenceError, StagnationError) as exc:
            return ContinuationResult(fields=fields, amplitudes=amps,
                                      converged=False, failed_amplitude=a,
                                      message=str(exc))
        prev_prev = prev
        prev = res.field
        fields.append(res.field)
        amps.append(a)
    return ContinuationResult(fields=fields, amplitudes=amps, converged=True)
