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
operators (`grid.ReducedOperators`) on the (nh+1, Np+1) state array: the
per-layer p-stencils as one sparse product, the q-differences, averages,
mirrors and the surface selection as slices.  The Jacobian is a sum of
those operators scaled by the fluxes' partials, which the residual
evaluation returns with it.

Closures:
  fixed_Q          h unknown, Q given.
  fixed_amplitude  (h, Q) unknown.  For target amplitude a = 0 the scalar
                   row is the zero-mean surface condition, which pins the
                   laminar branch; for a != 0 it is the crest-minus-trough
                   amplitude row.  Small-amplitude waves only exist when the
                   data is near-critical (the linearized wave mode close to
                   neutral), which the continuation driver assumes.

Layout: the unknowns h(q_r, p_j), j = 1 .. Np, and the residual rows share
the index r*Np + (j-1), row (r, Np) being the surface row of column r; the
bordered closures append Q and their scalar row.

Linear solves: each Newton step solves J dx = -r by right-preconditioned
GMRES with Eisenstat-Walker forcing terms, matrix-free: the fixed-Q block
is applied as its action (`HeightSystem.linearize`, the Jacobian's terms
at the accepted residual's state applied through the grid's operators),
never assembled.  The preconditioner
is the exact inverse of the fixed-Q Jacobian at the q-mean of a reference
state (`modal.LaminarModes`: a DCT-I in q and one banded LU of the
p-blocks, which come from the grid's 1-D p-operators without assembling the
Jacobian); the closures' Q column and scalar row, held in closed form, are
handled by a Schur complement.  A step whose true linear residual misses
its tolerance is solved again by SuperLU, the only solve that assembles the
Jacobian (`HeightSystem.jacobian_matrix`, which reads it off 27 actions,
one per colour class of unknowns).  The continuation seed
cos(q) phi_1(p) and the critical gravity come from the k = 1 modal block.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .vorticity import VorticityFunction, FlowParameters, gamma_cap
from .grid import Grid, _STENCIL
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
    u2 = u ** 2
    K = -(1.0 + d * d * hq ** 2) / (2 * d * d * u2)
    return K, -hq / u2, -2.0 * K / u


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
        d, p0 = params.d, params.p0
        # the vorticity part gamma_cap / (2 d^2) of A at the half nodes of
        # every column
        self.A_gamma = gamma_cap(v, params, grid.p_half) / (2 * d ** 2)
        # the surface row's derivative in h(q, 0)
        self.g_top = np.full(nh + 1, -params.g * d / p0 ** 2)
        self.mw = grid.mean_weights_reduced()
        # weights w of the closure row w . h(q, 0) - a: the surface mean, or
        # the crest-minus-trough half height d (h(0, 0) - h(pi, 0)) / 2
        amp = np.zeros(nh + 1)
        amp[[0, -1]] = d / 2.0, -d / 2.0
        self.closures = {"fixed_Q": None, "meanzero": self.mw,
                         "amplitude": amp}
        self.n_h = (nh + 1) * grid.Np
        # the border (c, l) of the bordered closures' Jacobian on the surface
        # rows: the Q column (Q enters each surface row as Q / (2 p0^2)) and
        # the closure row w
        top = np.eye(1, grid.Np, grid.Np - 1)[0]
        c = np.outer(np.full(nh + 1, 0.5 / p0 ** 2), top).ravel()
        self.borders = {mode: None if w is None else
                        (c, np.outer(w, top).ravel())
                        for mode, w in self.closures.items()}

    # -- reduced state helpers ------------------------------------------------

    def reduce(self, hf: HeightField):
        """Full (Nq, Np+1) -> reduced (nh+1, Np+1) with bed column kept."""
        return self.grid.reduced_from_full(hf.h).copy()

    def expand(self, H, Q):
        full = self.grid.full_from_reduced(H)
        return HeightField(self.grid, full, Q)

    # -- pointwise quantities --------------------------------------------------

    def _pointwise(self, s):
        """The fluxes at a state, from its samples `ops.sample(H)`.

        Returns the vertical flux A at half nodes, B = h_q/(1 + h_p) at half
        edges and the speed term on the surface, and the fixed-Q Jacobian's
        terms (f', R) for A, B and the surface row: each one's derivative is
        the sum of f' * R(du) over its terms, R naming an operator of
        `grid.ReducedOperators`, and the interior rows are div of the two
        fluxes' derivatives.
        """
        d = self.params.d
        K, K_hq, K_hp = _speed_term(s["hq_half"], s["hp_half"], d)
        m = 1.0 + s["hp_edge"]
        B = s["dq_edge"] / m
        K_top, Kt_hq, Kt_hp = _speed_term(s["hq_top"], s["hp_top"], d)
        return (K + self.A_gamma, B, K_top), (
            [(K_hp, "hp_half"), (K_hq, "hq_half")],
            [(1.0 / m, "dq_edge"), (-B / m, "hp_edge")],
            [(Kt_hp, "hp_top"), (Kt_hq, "hq_top"), (self.g_top, "h_top")])

    def laminar_modes(self, H):
        """Modal inverse of the fixed-Q Jacobian at the q-mean of H.

        At a q-invariant state h_q = 0, so B = 0 and K_hq = 0, and the
        p-blocks of the Jacobian are products of the grid's 1-D
        p-operators: A0 holds the vertical flux, the diagonal of the
        horizontal flux and the surface row; A1 is the horizontal flux's
        neighbour coupling 1/(m dq^2).
        """
        g, d, p0 = self.grid, self.params.d, self.params.p0
        eye = sp.identity(g.Np + 1, format="csr")
        inner, top = eye[1:-1], eye[-1:]
        h = self.mw @ H
        hp = g.Dp_node @ h
        _, _, K_hp = _speed_term(0.0, g.Dp_half @ h, d)
        _, _, Kt_hp = _speed_term(0.0, hp[-1], d)
        m = 1.0 + hp[1:-1]
        edge = sp.diags(1.0 / (m * g.dq ** 2)) @ inner
        surface = (Kt_hp * top @ g.Dp_node
                   - (self.params.g * d / p0 ** 2) * top)
        div = sp.diags([-1.0 / g.dp, 1.0 / g.dp], [0, 1],
                       shape=(g.Np - 1, g.Np))
        A0 = sp.vstack((div @ sp.diags(K_hp) @ g.Dp_half - 2.0 * edge,
                        surface), format="csr")[:, 1:]
        A1 = sp.vstack((edge, sp.csr_matrix((1, g.Np + 1))),
                       format="csr")[:, 1:]
        return LaminarModes(A0, A1, self.nh, g.Np)

    def locate(self, r):
        """Where the largest |entry| of a `residual_vector` sits, as text.

        Names the block (interior, surface or closure) and, for the first
        two, the (q, p) of the node: row (i, j) sits at (i dq, p_{j+1}).
        """
        k, Np = int(np.argmax(np.abs(r))), self.grid.Np
        if k == self.n_h:
            return "closure row"
        i, j = divmod(k, Np)
        block = "surface" if j == Np - 1 else "interior"
        return (f"{block} at (q, p) = "
                f"({i * self.grid.dq:.6g}, {(j + 1 - Np) / Np:.6g})")

    @staticmethod
    def _admissible(hp, hp_half, eps):
        return min(np.min(1.0 + hp_half), np.min(1.0 + hp)) > eps

    def admissible(self, H, eps=EPS_STAG_DEFAULT):
        return self._admissible(*self.ops.dp(H), eps)

    def residual_parts(self, H, Q, eps_stag=EPS_STAG_DEFAULT):
        """(interior (nh+1, Np-1), surface (nh+1,)) residuals at (H, Q), and
        the fixed-Q Jacobian's terms at H, which `linearize` takes."""
        d, p0, grav = self.params.d, self.params.p0, self.params.g
        s = self.ops.sample(H)
        if not self._admissible(s["hp"], s["hp_half"], eps_stag):
            raise StagnationError("1 + h_p fell below eps_stag")
        (A, B, K_top), terms = self._pointwise(s)
        surface = (K_top - grav * d * (s["h_top"] + 1.0) / p0 ** 2
                   + Q / (2 * p0 ** 2))
        return self.ops.div(A, B), surface, terms

    @staticmethod
    def _rows(interior, surface):
        """Interior rows (r, j-1) and surface rows r in the unknowns' (r, j)
        layout (the surface row of column r in place of its unknown
        h(q_r, 0))."""
        return np.column_stack((interior, surface)).ravel()

    def residual_vector(self, H, Q, mode, a=0.0, eps_stag=EPS_STAG_DEFAULT):
        """Residual rows in the unknowns' (r, j) layout, then the closure,
        and the fixed-Q Jacobian's terms at H (see `residual_parts`)."""
        w = self.closures[mode]
        interior, surface, terms = self.residual_parts(H, Q, eps_stag)
        r = self._rows(interior, surface)
        return (r if w is None else np.append(r, w @ H[:, -1] - a)), terms

    # -- analytic Jacobian -----------------------------------------------------

    def jacobian_matrix(self, H, Q, mode):
        """Sparse Jacobian: rows as in `residual_vector`, columns the unknowns.

        Unknowns: h at (r, j), u = r*Np + (j-1), plus Q appended for the
        meanzero/amplitude closures (border `borders[mode]`).  The fixed-Q
        block is read off its action `linearize`, probed once per colour
        class of unknowns (Curtis, Powell & Reid 1974): row (r', j') reaches
        only the columns r' +- 1 and j' +- (_STENCIL - 1), so each class
        (r mod 3, j mod m), m = 2 (_STENCIL - 1) + 1, meets a row in at most
        one column, found by index arithmetic.  Newton assembles the
        Jacobian only for a SuperLU fallback.
        """
        n, Np, reach = self.n_h, self.grid.Np, _STENCIL - 1
        m = 2 * reach + 1
        jac = self.linearize(self._pointwise(self.ops.sample(H))[1])
        r, j = np.divmod(np.arange(n), Np)
        j += 1
        probes = np.array([jac(((r % 3 == a) & (j % m == b)).astype(float))
                           for a in range(3) for b in range(m)])
        # column (r + dr, j + dj) of row (r, j) is in class
        # ((r + dr) mod 3, (j + dj) mod m); the offsets ascend in column
        dr, dj = (x.ravel() for x in np.mgrid[-1:2, -reach:reach + 1])
        rc, jc = r[:, None] + dr, j[:, None] + dj
        vals = probes[(rc % 3) * m + jc % m, np.arange(n)[:, None]]
        keep = ((rc >= 0) & (rc <= self.nh) & (jc >= 1) & (jc <= Np)
                & (vals != 0.0))
        J = sp.csr_matrix((vals[keep], (rc * Np + jc - 1)[keep],
                           np.append(0, np.cumsum(keep.sum(axis=1)))),
                          shape=(n, n))
        if self.borders[mode] is None:
            return J
        c, ell = self.borders[mode]
        # all-CSR blocks keep the stacking out of COO
        return sp.vstack((sp.hstack((J, sp.csr_matrix(c[:, None]))),
                          sp.csr_matrix(np.append(ell, 0.0))), format="csr")

    def linearize(self, terms):
        """The fixed-Q Jacobian's action u -> J u at the state whose terms
        `residual_parts` returned.

        `jacobian_matrix(H, Q, "fixed_Q")` is this action, probed; here
        the terms are applied to u through the grid's operators, and
        nothing is assembled.
        """
        o, shape = self.ops, (self.nh + 1, self.grid.Np + 1)

        def jac(u):
            x = np.zeros(shape)
            x[:, 1:] = u.reshape(shape[0], -1)
            s = o.sample(x)
            A, B, top = (sum(f * s[R] for f, R in t) for t in terms)
            del s, x        # fewer temporaries live at once
            return self._rows(o.div(A, B), top)
        return jac


# -- public operations --------------------------------------------------------


def residual(hf: HeightField, v: VorticityFunction, params: FlowParameters):
    """Interior and surface residuals on the full grid: ((Nq, Np-1), (Nq,))."""
    sys_ = HeightSystem(hf.grid, v, params)
    interior, surface, _ = sys_.residual_parts(sys_.reduce(hf), hf.Q)
    return (hf.grid.full_from_reduced(interior),
            hf.grid.full_from_reduced(surface))


def jacobian(hf: HeightField, v: VorticityFunction, params: FlowParameters,
             mode="fixed_Q"):
    """Analytic sparse Jacobian in the even-reduced (r, j) layout.

    mode 'fixed_Q': h unknown.  'fixed_amplitude' means the mean-zero
    closure (the amplitude-0 row of `newton_solve`), as does 'meanzero';
    'amplitude' is the crest-minus-trough closure.  Any other mode raises
    ValueError.
    """
    if mode not in ("fixed_Q", "fixed_amplitude", "meanzero", "amplitude"):
        raise ValueError(f"unknown mode {mode!r}: expected 'fixed_Q', "
                         "'fixed_amplitude', 'meanzero' or 'amplitude'")
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
    measured there.  Only the basis V is kept; x += M^{-1} (V y) costs one
    more preconditioner solve per cycle.  `converged` reports the estimate;
    in round-off the true residual of a near-singular A can stall above it,
    which is why callers check the Newton step's true residual themselves.
    """
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, True
    its, res = 0, b
    m = _GMRES_RESTART
    V = np.empty((m + 1, b.size))
    for _ in range(_GMRES_CYCLES):
        beta = np.linalg.norm(res)
        Hs = np.zeros((m + 1, m))
        V[0] = res / beta
        for k in range(m):
            w = matvec(precond(V[k]))
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
        x = x + precond(y @ V[:k + 1])
        if done:
            return x, its, True
        res = b - matvec(x)
    return x, its, False


def _krylov_step(jac, r, modes, eta, border):
    """Newton step solving J dx = -r by GMRES on the laminar modal inverse.

    `jac` is the fixed-Q Jacobian's action A (`HeightSystem.linearize`),
    and `border` the closure's Q column and scalar row (c, l), None for
    fixed_Q.  The bordered closures are solved by their Schur complement:
    two inner solves on A, x_b = A^{-1} b and x_c = A^{-1} c, then
    dQ = (l.x_b - beta)/(l.x_c), and the border only in the true-residual
    check.  The modal inverse is never bordered itself: the amplitude row
    sees only odd cosine modes and the Q column only k = 0, so l M^{-1} c = 0.
    Returns (dx or None when a solve misses its tolerance, iterations).
    """
    if border is None:
        dx, its, ok = _gmres(jac, modes.solve, -r, eta)
        res = jac(dx) + r
    else:
        c, ell = border
        x_b, its_b, ok_b = _gmres(jac, modes.solve, -r[:-1], eta * _SCHUR_ETA)
        x_c, its_c, ok_c = _gmres(jac, modes.solve, c, eta * _SCHUR_ETA)
        its, ok = its_b + its_c, ok_b and ok_c
        with np.errstate(divide="ignore", invalid="ignore"):
            dQ = (ell @ x_b + r[-1]) / (ell @ x_c)
        x = x_b - dQ * x_c
        res = np.append(jac(x) + dQ * c, ell @ x) + r
        dx = np.append(x, dQ)
    if ok and np.linalg.norm(res) <= 10.0 * eta * np.linalg.norm(r):
        return dx, its
    return None, its


def _newton_core(sys_: HeightSystem, H0, Q0, mode, a, tol, max_iter,
                 modes=None):
    H, Q = H0.copy(), float(Q0)
    nh, Np = sys_.nh, sys_.grid.Np
    history, krylov = [], []
    guards = fallbacks = 0
    r2_prev = None
    # each iteration's residual is the line search's accepted one
    r, terms = sys_.residual_vector(H, Q, mode, a, eps_stag=0.0)
    for it in range(max_iter + 1):
        rn = float(np.max(np.abs(r)))
        history.append(rn)
        if rn <= tol and sys_.admissible(H):
            return NewtonResult(field=sys_.expand(H, Q), Q=Q, iterations=it,
                                residual_inf=rn, history=history,
                                stagnation_hits=guards, mode=mode,
                                krylov_iters=krylov, fallbacks=fallbacks)
        if it == max_iter:
            break
        if modes is None:
            modes = sys_.laminar_modes(H)
        r2 = float(np.linalg.norm(r))
        dx, its = _krylov_step(sys_.linearize(terms), r, modes,
                               _forcing(r2, r2_prev, tol), sys_.borders[mode])
        r2_prev = r2
        krylov.append(its)
        if dx is None:
            fallbacks += 1
            dx = spla.splu(sys_.jacobian_matrix(H, Q, mode).tocsc()).solve(-r)
        dH = dx[:sys_.n_h].reshape(nh + 1, Np)
        dQ = dx[sys_.n_h] if mode != "fixed_Q" else 0.0
        step, accepted = 1.0, False
        for _ in range(30):
            Hc = H.copy()
            Hc[:, 1:] += step * dH
            Qc = Q + step * dQ
            if not sys_.admissible(Hc):
                guards += 1
                step *= 0.5
                continue
            rc, terms_c = sys_.residual_vector(Hc, Qc, mode, a, eps_stag=0.0)
            if np.max(np.abs(rc)) < rn:
                H, Q, r, terms = Hc, Qc, rc, terms_c
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
                 tol=1e-10, max_iter=50, modes=None) -> NewtonResult:
    """Damped Newton-Krylov solve of the discrete height system.

    mode 'fixed_Q': Q is data (argument or initial.Q).  mode
    'fixed_amplitude': Q joins the unknowns; amplitude 0 selects the
    zero-mean laminar closure, otherwise the crest-trough amplitude row.
    `modes` (a LaminarModes) preconditions every linear solve; by default
    it is built from the q-mean of the initial state.  An initial state
    that is not admissible raises `field.AdmissibilityError`, a ValueError,
    before any solve; a negative `max_iter` raises ValueError.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    initial.check_admissible(EPS_STAG_DEFAULT)
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
    res = _newton_core(sys_, H0, Q0, imode, a, tol, max_iter, modes)
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
                 max_iter=50) -> ContinuationResult:
    """Sequence of fixed_amplitude solves warm-started along the schedule.

    The laminar modes are built once from the start state and once more at
    the state the wave seed leaves from, and precondition every solve.  An
    inadmissible start state raises AdmissibilityError; a warm start that a
    step pushes past stagnation fails that step.
    """
    hf0.check_admissible(EPS_STAG_DEFAULT)
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
                               modes=modes)
        except (ConvergenceError, StagnationError, AdmissibilityError) as exc:
            return ContinuationResult(fields=fields, amplitudes=amps,
                                      converged=False, failed_amplitude=a,
                                      message=str(exc))
        prev_prev = prev
        prev = res.field
        fields.append(res.field)
        amps.append(a)
    return ContinuationResult(fields=fields, amplitudes=amps, converged=True)
