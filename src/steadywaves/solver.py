"""Newton solver for the weak modified-height system on the rectangle R.

The interior equation is discretized in conservative (divergence) form: the
vertical flux

    A = -(1 + d^2 h_q^2) / (2 d^2 (1 + h_p)^2) + gamma_cap(p) / (2 d^2)

is evaluated at cell midpoints p_{j+1/2} with per-layer 4th-order stencils
for h_p (so the scheme keeps its accuracy when gamma jumps, provided the
jump is node-aligned) and the horizontal flux B = h_q / (1 + h_p) at
half q-edges.  The solver works on the even-reduced subspace q in [0, pi],
bed row eliminated.  The dynamic surface condition supplies the top rows.
The residual evaluates the fluxes pointwise on the outputs of the grid's
sparse operators (`grid.ReducedOperators`, built once per grid); the
Jacobian is a sum of those operators scaled by the fluxes' partials.

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
(`modal.LaminarModes`: a DCT-I in q and one banded LU of the p-blocks, which
come from the grid's 1-D p-operators without assembling the Jacobian); the
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
from .field import AdmissibilityError, HeightField
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


def _speed_term(hq, hp, d):
    """K = -(1 + d^2 h_q^2) / (2 d^2 (1 + h_p)^2) and (dK/dh_q, dK/dh_p).

    K is the kinetic part of both the vertical flux A and the surface row.
    """
    u = 1.0 + hp
    K = -(1.0 + d * d * hq ** 2) / (2 * d * d * u ** 2)
    return K, -hq / u ** 2, -2.0 * K / u


class HeightSystem:
    """Discrete residual and analytic Jacobian over the grid's operators."""

    def __init__(self, grid: Grid, v: VorticityFunction, params: FlowParameters):
        for b in v.breakpoints:
            if b not in grid.aligned_jumps:
                raise ValueError(
                    f"vorticity breakpoint {b} is not registered on the grid; "
                    f"construct Grid with aligned_jumps={v.breakpoints}")
        self.grid, self.v, self.params = grid, v, params
        self.ops = grid.operators
        nh = grid.Nq // 2
        self.nh = nh
        # the vorticity part gamma_cap / (2 d^2) of A at every half node
        self.A_gamma = np.tile(gamma_cap(v, params, grid.p_half),
                               nh + 1) / (2 * params.d ** 2)
        self.mw = grid.mean_weights_reduced()
        # weights w of the closure row w . h(q, 0) - a: the surface mean, or
        # the crest-minus-trough half height d (h(0, 0) - h(pi, 0)) / 2
        amp = np.zeros(nh + 1)
        amp[[0, -1]] = params.d / 2.0, -params.d / 2.0
        self.closures = {"fixed_Q": None, "meanzero": self.mw,
                         "amplitude": amp}
        self.n_int = (nh + 1) * (grid.Np - 1)
        self.n_h = (nh + 1) * grid.Np
        cols = np.arange(self.n_h + nh + 1).reshape(nh + 1, grid.Np + 1)
        self.unknowns = cols[:, 1:].ravel()     # H[:, 1:] among H.ravel()

    # -- reduced state helpers ------------------------------------------------

    def reduce(self, hf: HeightField):
        """Full (Nq, Np+1) -> reduced (nh+1, Np+1) with bed column kept."""
        return self.grid.reduced_from_full(hf.h).copy()

    def expand(self, H, Q):
        full = self.grid.full_from_reduced(H)
        return HeightField(self.grid, full, Q)

    # -- pointwise quantities --------------------------------------------------

    def _pointwise(self, x, hp_half):
        """The fluxes at x = H.ravel(), with the partials the Jacobian needs.

        hp_half = dp_half @ x.  Returns the speed term (K, K_hq, K_hp) at
        half nodes, B = h_q/m and m = 1 + h_p at half edges, and the speed
        term on the surface row.
        """
        o, d = self.ops, self.params.d
        m = 1.0 + o.hp_edge @ x
        return (_speed_term(o.hq_half @ x, hp_half, d),
                (o.dq_edge @ x) / m, m,
                _speed_term(o.hq_top @ x, o.hp_top @ x, d))

    def laminar_modes(self, H):
        """Modal inverse of the fixed-Q Jacobian at the q-mean of H.

        At a q-invariant state h_q = 0, so B = 0 and K_hq = 0, and the
        p-blocks of the Jacobian are products of the grid's 1-D
        p-operators: A0 holds the vertical flux, the diagonal of the
        horizontal flux and the surface row; A1 is the horizontal flux's
        neighbour coupling 1/(m dq^2).
        """
        o, d, p0 = self.ops, self.params.d, self.params.p0
        h = self.mw @ H
        hp = o.p_node @ h
        _, _, K_hp = _speed_term(0.0, o.p_half @ h, d)
        _, _, Kt_hp = _speed_term(0.0, hp[-1], d)
        m = 1.0 + hp[1:-1]
        edge = sp.diags(1.0 / (m * self.grid.dq ** 2)) @ o.p_inner
        surface = (Kt_hp * o.p_top @ o.p_node
                   - (self.params.g * d / p0 ** 2) * o.p_top)
        A0 = sp.vstack((o.p_div @ sp.diags(K_hp) @ o.p_half - 2.0 * edge,
                        surface), format="csr")[:, 1:]
        A1 = sp.vstack((edge, sp.csr_matrix((1, self.grid.Np + 1))),
                       format="csr")[:, 1:]
        return LaminarModes(A0, A1, self.nh, self.grid.Np)

    def _admissible(self, x, hp_half, eps):
        return min(np.min(1.0 + hp_half),
                   np.min(1.0 + self.ops.dp_node @ x)) > eps

    def locate(self, r):
        """Where the largest |entry| of a `residual_vector` sits, as text.

        Names the block (interior, surface or closure) and, for the first
        two, the (q, p) of the node; reduced column i is q = i dq.
        """
        k = int(np.argmax(np.abs(r)))
        if k >= self.n_int + self.nh + 1:
            return "closure row"
        if k >= self.n_int:
            q, p, block = (k - self.n_int) * self.grid.dq, 0.0, "surface"
        else:
            i, j = divmod(k, self.grid.Np - 1)
            q, p, block = i * self.grid.dq, self.grid.p[j + 1], "interior"
        return f"{block} at (q, p) = ({q:.6g}, {p:.6g})"

    def admissible(self, H, eps=EPS_STAG_DEFAULT):
        x = H.ravel()
        return self._admissible(x, self.ops.dp_half @ x, eps)

    def residual_parts(self, H, Q, eps_stag=EPS_STAG_DEFAULT):
        """(interior (nh+1, Np-1), surface (nh+1,)) residuals."""
        d, p0, grav = self.params.d, self.params.p0, self.params.g
        x = H.ravel()
        hp_half = self.ops.dp_half @ x
        if not self._admissible(x, hp_half, eps_stag):
            raise StagnationError("1 + h_p fell below eps_stag")
        (K, _, _), B, _, (K_top, _, _) = self._pointwise(x, hp_half)
        interior = self.ops.div @ np.concatenate((K + self.A_gamma, B))
        surface = (K_top - grav * d * (self.ops.h_top @ x + 1.0) / p0 ** 2
                   + Q / (2 * p0 ** 2))
        return interior.reshape(self.nh + 1, -1), surface

    def residual_vector(self, H, Q, mode, a=0.0, eps_stag=EPS_STAG_DEFAULT):
        w = self.closures[mode]
        interior, surface = self.residual_parts(H, Q, eps_stag)
        closure = [] if w is None else [w @ H[:, -1] - a]
        return np.concatenate((interior.ravel(), surface, closure))

    # -- analytic Jacobian -----------------------------------------------------

    def jacobian_matrix(self, H, Q, mode):
        """Sparse Jacobian in the reduced ordering (see `residual_vector`).

        Unknowns: h at (r, j), u = r*Np + (j-1), plus Q appended for the
        meanzero/amplitude closures.  Each term is L diag(f') R over the
        grid's operators, by the chain rule through `_pointwise`.
        """
        o, diag = self.ops, sp.diags
        d, p0, grav = self.params.d, self.params.p0, self.params.g
        x = H.ravel()
        (_, K_hq, K_hp), B, m, (_, Kt_hq, Kt_hp) = self._pointwise(
            x, o.dp_half @ x)
        interior = o.div @ sp.vstack(
            (diag(K_hp) @ o.dp_half + diag(K_hq) @ o.hq_half,
             diag(1.0 / m) @ o.dq_edge - diag(B / m) @ o.hp_edge))
        surface = (diag(Kt_hp) @ o.hp_top + diag(Kt_hq) @ o.hq_top
                   - (grav * d / p0 ** 2) * o.h_top)
        J = sp.vstack((interior, surface), format="csr")[:, self.unknowns]
        w = self.closures[mode]
        if w is None:
            return J
        # dQ in the surface rows, and the closure row; all-CSR blocks keep
        # the stacking out of COO
        Q_col = np.r_[np.zeros(self.n_int), np.full(self.nh + 1, 0.5 / p0**2)]
        row = np.append(w @ o.h_top[:, self.unknowns], 0.0)
        return sp.vstack((sp.hstack((J, sp.csr_matrix(Q_col[:, None]))),
                          sp.csr_matrix(row)), format="csr")


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
                f"step halving stalled at iteration {it}, residual {rn:.3e}, "
                f"worst in the {sys_.locate(r)}",
                history=history, krylov_iters=krylov, fallbacks=fallbacks)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations, residual {rn:.3e}, "
        f"worst in the {sys_.locate(r)}",
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
    it is built from the q-mean of the initial state.  An initial state
    that is not admissible raises `field.AdmissibilityError`, a ValueError,
    before any solve.
    """
    initial.check_admissible(eps_stag)
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
    the state the wave seed leaves from, and precondition every solve.  An
    inadmissible start state raises AdmissibilityError; a warm start that a
    step pushes past stagnation fails that step.
    """
    hf0.check_admissible(eps_stag)
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
        except (ConvergenceError, StagnationError, AdmissibilityError) as exc:
            return ContinuationResult(fields=fields, amplitudes=amps,
                                      converged=False, failed_amplitude=a,
                                      message=str(exc))
        prev_prev = prev
        prev = res.field
        fields.append(res.field)
        amps.append(a)
    return ContinuationResult(fields=fields, amplitudes=amps, converged=True)
