"""Newton solver for the weak modified-height system on the rectangle R.

The interior equation is discretized in conservative (divergence) form: the
vertical flux

    A = -(1 + d^2 h_q^2) / (2 d^2 (1 + h_p)^2) + gamma_cap(p) / (2 d^2)

is evaluated at cell midpoints p_{j+1/2} with per-layer 4th-order stencils
for h_p (so the scheme keeps its accuracy when gamma jumps, provided the
jump is node-aligned) and the horizontal flux B = h_q / (1 + h_p) at
half q-edges.  The solver works on the even-reduced subspace q in [0, pi],
bed row eliminated.  The dynamic surface condition supplies the top rows.
The residual evaluates the fluxes pointwise on the outputs of the reduced
grid's operators (`HeightSystem.sample`) on the (nh+1, Np+1) state array:
the grid's per-layer p-stencils as one sparse product, the q-differences,
averages, mirrors and the surface selection as slices.  The Jacobian is a
sum of those operators scaled by the fluxes' partials, which the residual
evaluation returns with it.  The residual first checks no stagnation,
1 + h_p > `field.EPS_STAG` at every node and half node, and raises
`StagnationError` (defined in `field`) before any flux is formed; Newton's
line search halves a step whose trial state fails it.

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

Linear solves: each Newton step solves J dx = -r by one right-preconditioned
GMRES with Eisenstat-Walker forcing terms, matrix-free: the fixed-Q block
is applied as its action (`HeightSystem.linearize`), never assembled, and a
closure borders it with its Q column and scalar row.  The preconditioner is
the mean-zero bordered laminar inverse: the exact inverse of the fixed-Q
Jacobian at the q-mean of a reference state (`modal.LaminarModes`, a DCT-I
in q and one LAPACK band LU of the p-blocks), bordered with the Q column
and the mean-zero row.  A step whose true linear residual misses its
tolerance is solved again by SuperLU, the only sparse LU and the only solve
that assembles the Jacobian (`HeightSystem.jacobian_matrix`, which reads it
off 27 actions, one per colour class of unknowns).  `scipy.sparse.linalg`
is imported in that fallback branch only, when a step first takes it, so
that a run which never falls back never loads it; its `splu` is looked up
on the module at call time.  The modal p-blocks are rows of the same
probes' table (`_probed`) at the q-mean, on a strip of three q-columns, so
the Jacobian's partials are written once, in `_pointwise`.  The
continuation seed cos(q) phi_1(p) and the critical gravity come from the
k = 1 modal block.

Continuation (nested iteration, or mesh sequencing): the amplitude schedule
runs on the coarsest grid of a chain of halvings of the requested grid, down
to a floor of 128x256 cells, and each finer grid takes one Newton solve at
the final amplitude from the coarser solution prolonged to it
(`field.prolong`).  Grids up to 128x256 run the schedule directly, and any
failure in the chain runs it on the requested grid instead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .vorticity import VorticityFunction, FlowParameters, gamma_cap, speed_term
from .grid import Grid, GridError, _STENCIL
from .field import (EPS_STAG, AdmissibilityError, HeightField,
                    StagnationError, prolong)
from .modal import LaminarModes
from . import laminar


class ConvergenceError(RuntimeError):
    """Newton failed; carries the residual history and solver statistics."""

    def __init__(self, message, history=None, krylov_iters=None, fallbacks=0):
        super().__init__(message)
        self.history = list(history or [])
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
    # iterations of each Newton step's one bordered GMRES, and the number of
    # steps that missed their tolerance and were solved again by SuperLU
    krylov_iters: list = dataclasses.field(default_factory=list)
    fallbacks: int = 0


@dataclass
class ContinuationResult:
    fields: list
    amplitudes: list
    converged: bool
    failed_amplitude: float | None = None
    message: str = ""
    # [Nq, Np] of each grid the schedule and the finer Newton solves ran on,
    # coarsest first (see `continuation`)
    grid_chain: list = dataclasses.field(default_factory=list)


def _speed_partials(hq, hp, d):
    """K (`vorticity.speed_term`) and its partials (dK/dh_q, dK/dh_p)."""
    u = 1.0 + hp
    u2 = u ** 2
    K = speed_term(hq, u2, d)
    return K, -hq / u2, -2.0 * K / u


class HeightSystem:
    """Discrete residual and analytic Jacobian on the reduced grid.

    A state H (nh+1, Np+1) holds h on the reduced grid: row r is the
    reduced column q_r = r dq in [0, pi], column j the p-node p_j.
    `sample` applies every operator to an array: H itself (h); the central
    h_q, mirrored at q = 0 and pi, so h_q = 0 there (hq); the per-layer
    h_p at nodes and half nodes (hp, hp_half, the grid's Dp_node and
    Dp_half applied by `dp` as one product); h_q at half nodes (hq_half);
    dh/dq and h_p at the half q-edges of interior nodes (dq_edge,
    hp_edge); h, h_q and h_p on the surface (h_top, hq_top, hp_top).
    `div` takes a flux pair (A at half nodes, B at half edges) to its
    divergence at interior nodes; B is odd about q = 0 and pi, so the edge
    next to either counts twice.
    """

    def __init__(self, grid: Grid, v: VorticityFunction, params: FlowParameters):
        for b in v.breakpoints:
            if b not in grid.aligned_jumps:
                raise ValueError(
                    f"vorticity breakpoint {b} is not registered on the grid; "
                    f"construct Grid with aligned_jumps={v.breakpoints}")
        self.grid, self.v, self.params = grid, v, params
        self._dp = sp.vstack((grid.Dp_node, grid.Dp_half), format="csr")
        nh = grid.Nq // 2
        self.nh = nh
        d, p0 = params.d, params.p0
        # the vorticity part gamma_cap / (2 d^2) of A at the half nodes of
        # every column
        self.A_gamma = gamma_cap(v, params, grid.p_half) / (2 * d ** 2)
        # the surface row's derivative in h(q, 0)
        self.g_top = -params.g * d / p0 ** 2
        # trapezoid weights of the surface mean over one period
        mw = np.full(nh + 1, 2.0)
        mw[[0, -1]] = 1.0
        self.mw = mw / (2.0 * nh)
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

    # -- the reduced grid's operators ------------------------------------------

    def dp(self, H):
        """h_p of H at nodes and at half nodes, from one sparse product."""
        S = (self._dp @ H.T).T
        return S[:, :self.grid.Np + 1], S[:, self.grid.Np + 1:]

    def sample(self, H):
        """Every operator applied to H, by name."""
        dq = self.grid.dq
        hp, hp_half = self.dp(H)
        hq = np.empty_like(H)
        hq[[0, -1]] = 0.0
        np.subtract(H[2:], H[:-2], out=hq[1:-1])
        hq[1:-1] /= 2 * dq
        return {"h": H, "hq": hq, "hp": hp, "hp_half": hp_half,
                "hq_half": 0.5 * (hq[:, 1:] + hq[:, :-1]),
                "dq_edge": (H[1:, 1:-1] - H[:-1, 1:-1]) / dq,
                "hp_edge": 0.5 * (hp[1:, 1:-1] + hp[:-1, 1:-1]),
                "h_top": H[:, -1], "hq_top": hq[:, -1], "hp_top": hp[:, -1]}

    def div(self, A, B):
        """The divergence of the flux pair (A, B) at interior nodes."""
        d = np.empty((len(B) + 1,) + B.shape[1:])
        np.subtract(B[1:], B[:-1], out=d[1:-1])
        d[0], d[-1] = 2.0 * B[0], -2.0 * B[-1]
        d /= self.grid.dq
        return (A[:, 1:] - A[:, :-1]) / self.grid.dp + d

    # -- pointwise quantities --------------------------------------------------

    def _pointwise(self, s):
        """The fluxes at a state, from its samples `sample(H)`.

        Returns the vertical flux A at half nodes, B = h_q/(1 + h_p) at half
        edges and the speed term on the surface, and the fixed-Q Jacobian's
        terms (f', R) for A, B and the surface row: each one's derivative is
        the sum of f' * R(du) over its terms, R naming an output of
        `sample`, and the interior rows are `div` of the two fluxes'
        derivatives.
        """
        d = self.params.d
        K, K_hq, K_hp = _speed_partials(s["hq_half"], s["hp_half"], d)
        m = 1.0 + s["hp_edge"]
        B = s["dq_edge"] / m
        K_top, Kt_hq, Kt_hp = _speed_partials(s["hq_top"], s["hp_top"], d)
        return (K + self.A_gamma, B, K_top), (
            [(K_hp, "hp_half"), (K_hq, "hq_half")],
            [(1.0 / m, "dq_edge"), (-B / m, "hp_edge")],
            [(Kt_hp, "hp_top"), (Kt_hq, "hq_top"), (self.g_top, "h_top")])

    def laminar_modes(self, H):
        """Modal inverse of the fixed-Q Jacobian at the q-mean of H.

        The p-blocks are read off the action `linearize` at the q-mean,
        probed on a strip of three reduced q-columns (`_probed`): at a
        q-invariant state the Jacobian is I (x) A0 + L (x) A1 (`modal`),
        so the strip's column 0 reaches row 0 through A0 and row 1 through
        A1, both rows of `_probed`'s table, and nothing else is probed.
        """
        J = self._probed(np.tile(self.mw @ H, (3, 1)))
        # copies, so that the modes do not keep the whole strip's table
        return LaminarModes(J[0, :, 1].copy(), J[1, :, 0].copy(), self.nh)

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

    def residual_parts(self, H, Q):
        """(interior (nh+1, Np-1), surface (nh+1,)) residuals at (H, Q), and
        the fixed-Q Jacobian's terms at H, which `linearize` takes.

        Raises StagnationError, before any flux is formed, unless
        1 + h_p > EPS_STAG at every node and half node of H.
        """
        d, p0, grav = self.params.d, self.params.p0, self.params.g
        s = self.sample(H)
        if not min(np.min(1.0 + s["hp_half"]),
                   np.min(1.0 + s["hp"])) > EPS_STAG:
            raise StagnationError(f"1 + h_p fell to {EPS_STAG} or below")
        (A, B, K_top), terms = self._pointwise(s)
        surface = (K_top - grav * d * (s["h_top"] + 1.0) / p0 ** 2
                   + Q / (2 * p0 ** 2))
        return self.div(A, B), surface, terms

    @staticmethod
    def _rows(interior, surface):
        """Interior rows (r, j-1) and surface rows r in the unknowns' (r, j)
        layout (the surface row of column r in place of its unknown
        h(q_r, 0))."""
        return np.column_stack((interior, surface)).ravel()

    def residual_vector(self, H, Q, mode, a=0.0):
        """Residual rows in the unknowns' (r, j) layout, then the closure,
        and the fixed-Q Jacobian's terms at H (see `residual_parts`)."""
        w = self.closures[mode]
        interior, surface, terms = self.residual_parts(H, Q)
        r = self._rows(interior, surface)
        return (r if w is None else np.append(r, w @ H[:, -1] - a)), terms

    # -- analytic Jacobian -----------------------------------------------------

    def jacobian_matrix(self, H, Q, mode):
        """Sparse Jacobian: rows as in `residual_vector`, columns the unknowns.

        Unknowns: h at (r, j), u = r*Np + (j-1), plus Q appended for the
        meanzero/amplitude closures (border `borders[mode]`); the fixed-Q
        block is `_probed`'s table.  Newton assembles the Jacobian only for
        a SuperLU fallback.
        """
        J = _csr(self._probed(H))
        if self.borders[mode] is None:
            return J
        c, ell = self.borders[mode]
        # all-CSR blocks keep the stacking out of COO
        return sp.vstack((sp.hstack((J, sp.csr_matrix(c[:, None]))),
                          sp.csr_matrix(np.append(ell, 0.0))), format="csr")

    def _probed(self, H):
        """The fixed-Q Jacobian at H, any number of reduced q-columns, as
        its table by row and offset, (rows, Np, 3, m): entry
        [r, j - 1, 1 + dr, reach + dj] is row (r, j)'s coefficient of the
        unknown (r + dr, j + dj), 0 where that leaves the strip.

        Read off its action `linearize`, probed once per colour class of
        unknowns (Curtis, Powell & Reid 1974): row (r', j') reaches only
        the columns r' +- 1 and j' +- reach, reach = _STENCIL - 1, so each
        class (r mod 3, j mod m), m = 2 reach + 1, meets a row in at most
        one column, found by index arithmetic.
        """
        rows, Np, reach = H.shape[0], self.grid.Np, _STENCIL - 1
        m = 2 * reach + 1
        jac = self.linearize(self._pointwise(self.sample(H))[1])
        r, j = np.arange(rows)[:, None], np.arange(Np)  # unknown (r, j + 1)
        probes, vals = np.empty((3, m, rows, Np)), np.empty((rows, Np, 3 * m))
        for a, b in np.ndindex(3, m):
            probes[a, b].flat = jac(((r % 3 == a) & (j % m == b)) * 1.0)
        # column (r + dr, j + dj) of row (r, j) is in class ((r + dr) mod 3,
        # (j + dj) mod m); decoded one offset at a time, ascending in column
        dr, dj = (x.ravel() for x in np.mgrid[-1:2, -reach:reach + 1])
        for k in range(3 * m):
            rc, jc = r + dr[k], j + dj[k]
            vals[..., k] = np.where(
                (rc >= 0) & (rc < rows) & (jc >= 0) & (jc < Np),
                probes[rc % 3, jc % m, r, j], 0.0)
        return vals.reshape(rows, Np, 3, m)

    def linearize(self, terms):
        """The fixed-Q Jacobian's action u -> J u at the state whose terms
        `residual_parts` returned.

        `jacobian_matrix(H, Q, "fixed_Q")` is this action, probed; here
        the terms are applied to u through `sample` and `div`, and nothing
        is assembled.  The number of q-columns is u's.
        """
        Np = self.grid.Np

        def jac(u):
            x = np.zeros((u.size // Np, Np + 1))
            x[:, 1:] = u.reshape(len(x), Np)
            s = self.sample(x)
            A, B, top = (sum(f * s[R] for f, R in t) for t in terms)
            del s, x        # fewer temporaries live at once
            return self._rows(self.div(A, B), top)
        return jac


def _csr(vals):
    """The CSR matrix of a table by row and offset (`HeightSystem._probed`),
    its zeros left out."""
    rows, Np = vals.shape[:2]
    n, reach = rows * Np, _STENCIL - 1
    dr, dj = np.mgrid[-1:2, -reach:reach + 1]
    vals = vals.reshape(n, -1)
    keep = vals != 0.0
    cols = np.arange(n, dtype=np.int32)[:, None] + np.int32(
        (dr * Np + dj).ravel())
    return sp.csr_matrix((vals[keep], cols[keep],
                          np.append(0, np.cumsum(keep.sum(axis=1)))),
                         shape=(n, n))


# -- public operations --------------------------------------------------------


def residual(hf: HeightField, v: VorticityFunction, params: FlowParameters):
    """Interior and surface residuals on the full grid: ((Nq, Np-1), (Nq,))."""
    sys_ = HeightSystem(hf.grid, v, params)
    interior, surface, _ = sys_.residual_parts(sys_.reduce(hf), hf.Q)
    return (hf.grid.full_from_reduced(interior),
            hf.grid.full_from_reduced(surface))


# Newton-Krylov: preconditioned GMRES with Eisenstat-Walker forcing terms
_ETA_MAX = 1e-4        # forcing term cap
_ETA_MIN = 1e-7        # preconditioned solves stagnate near eps * cond(M)
_BORDER_ETA = 1.0 / 30  # a closure's one bordered GMRES, relative
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


def _krylov_step(jac, r, precond, eta, border):
    """Newton step solving J dx = -r by one right-preconditioned GMRES.

    `jac` is the fixed-Q Jacobian's action A (`HeightSystem.linearize`);
    a closure's `border` (c, l) makes it (x, dQ) -> (A x + dQ c, l.x), and
    `precond` is then the mean-zero bordered laminar inverse (`_bordered`).
    Returns (dx or None when the solve misses its tolerance, iterations).
    """
    if border is None:
        matvec, rtol = jac, eta
    else:
        c, ell = border
        rtol = eta * _BORDER_ETA

        def matvec(x):
            return np.append(jac(x[:-1]) + x[-1] * c, ell @ x[:-1])
    dx, its, ok = _gmres(matvec, precond, -r, rtol)
    if ok and np.linalg.norm(matvec(dx) + r) <= 10.0 * eta * np.linalg.norm(r):
        return dx, its
    return None, its


def _bordered(modes, c, w):
    """The laminar inverse M^{-1} bordered with the Q column c and the
    mean-zero row w: (y, eta) -> (z - dQ M^{-1} c, dQ), z = M^{-1} y and
    dQ = (w.z - eta) / (w.M^{-1} c).  The amplitude row l sees only odd
    cosine modes and c only k = 0, so l.M^{-1} c = 0: every closure takes w.
    """
    xc = modes.solve_column(c)

    def solve(y):
        z = modes.solve(y[:-1])
        dQ = (w @ z - y[-1]) / (w @ xc)
        return np.append(z - dQ * xc, dQ)
    return solve


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
    before any solve, and one within EPS_STAG of stagnation at a half node
    raises StagnationError; a negative `max_iter` raises ValueError.  A
    line-search trial whose residual raises StagnationError is a guard hit
    (`stagnation_hits`) and halves the step.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    initial.check_admissible()
    sys_ = HeightSystem(initial.grid, v, params)
    H, Q = sys_.reduce(initial), float(initial.Q if Q is None else Q)
    if mode == "fixed_Q":
        imode, a = "fixed_Q", 0.0
    elif mode == "fixed_amplitude":
        if amplitude is None:
            raise ValueError("fixed_amplitude mode needs an amplitude")
        a = float(amplitude)
        imode = "meanzero" if a == 0.0 else "amplitude"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    history, krylov = [], []
    guards = fallbacks = 0
    r2_prev = precond = None
    # each iteration's residual is the line search's accepted one
    r, terms = sys_.residual_vector(H, Q, imode, a)
    for it in range(max_iter + 1):
        rn = float(np.max(np.abs(r)))
        history.append(rn)
        if rn <= tol:
            return NewtonResult(field=sys_.expand(H, Q), Q=Q, iterations=it,
                                residual_inf=rn, history=history,
                                stagnation_hits=guards, mode=mode,
                                krylov_iters=krylov, fallbacks=fallbacks)
        if it == max_iter:
            break
        if precond is None:
            modes = sys_.laminar_modes(H) if modes is None else modes
            precond = (modes.solve if imode == "fixed_Q" else
                       _bordered(modes, *sys_.borders["meanzero"]))
        r2 = float(np.linalg.norm(r))
        dx, its = _krylov_step(sys_.linearize(terms), r, precond,
                               _forcing(r2, r2_prev, tol), sys_.borders[imode])
        r2_prev = r2
        krylov.append(its)
        if dx is None:
            fallbacks += 1
            import scipy.sparse.linalg as spla  # on a fallback only
            dx = spla.splu(sys_.jacobian_matrix(H, Q, imode).tocsc()).solve(-r)
        dH = dx[:sys_.n_h].reshape(H.shape[0], -1)
        dQ = dx[sys_.n_h] if imode != "fixed_Q" else 0.0
        step = 1.0
        for _ in range(30):
            Hc = H.copy()
            Hc[:, 1:] += step * dH
            Qc = Q + step * dQ
            try:
                rc, terms_c = sys_.residual_vector(Hc, Qc, imode, a)
            except StagnationError:
                guards += 1
            else:
                if np.max(np.abs(rc)) < rn:
                    H, Q, r, terms = Hc, Qc, rc, terms_c
                    break
            step *= 0.5
        else:
            raise ConvergenceError(
                f"step halving stalled at iteration {it}, residual {rn:.3e}, "
                f"worst in the {sys_.locate(r)}",
                history=history, krylov_iters=krylov, fallbacks=fallbacks)
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations, residual {rn:.3e}, "
        f"worst in the {sys_.locate(r)}",
        history=history, krylov_iters=krylov, fallbacks=fallbacks)


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


# The coarsest grid of the continuation's chain keeps at least this many
# cells.  Coarser grids misplace the branch at large amplitude: on a
# schedule to a = 0.25, Q peaks between 0.24 and 0.25 at 64x128 but still
# rises at 128x256, so a schedule run on them can fail or turn where the
# fine grid's does not, and such a chain pays for the fallback as well.  On
# the benchmark's small amplitudes the floor costs little: at 128x256,
# chained from 64x128, the continuation took 0.084-0.117 s against
# 0.124-0.148 s unchained (11 alternating runs, one BLAS thread).
_CHAIN_MIN_CELLS = 128 * 256

# what a failed solve of the continuation raises: it ends the schedule's run
# there, or sends the chain to the full-grid fallback
_SOLVE_FAILURES = (ConvergenceError, StagnationError, AdmissibilityError)


def _grid_chain(grid: Grid):
    """The grids of the nested iteration, coarsest first, ending at `grid`.

    (Nq, Np) is halved while the half grid keeps `_CHAIN_MIN_CELLS` cells
    and can be built: each jump on a node and each layer >= 4 cells.
    """
    chain = [grid]
    while (chain[0].Np % 2 == 0
           and (chain[0].Nq // 2) * (chain[0].Np // 2) >= _CHAIN_MIN_CELLS):
        try:
            chain.insert(0, Grid(chain[0].Nq // 2, chain[0].Np // 2,
                                 aligned_jumps=grid.aligned_jumps))
        except GridError:
            break
    return chain


def _follow(hf0: HeightField, v, params, schedule, tol, max_iter):
    """The amplitude schedule on hf0's grid: the continuation's one loop."""
    fields, amps = [], []
    prev = hf0
    prev_prev = None
    chain = [[hf0.grid.Nq, hf0.grid.Np]]
    sys_ = HeightSystem(hf0.grid, v, params)
    modes = sys_.laminar_modes(sys_.reduce(hf0))
    for a in schedule:
        warm = prev.copy()
        if a != 0.0:
            a_prev = amps[-1] if amps else 0.0
            if prev_prev is not None and len(amps) >= 2 and amps[-2] != a_prev:
                t = (a - a_prev) / (a_prev - amps[-2])
                warm.h = prev.h + t * (prev.h - prev_prev.h)
                warm.Q = prev.Q + t * (prev.Q - prev_prev.Q)
            else:
                seed = wave_seed(prev, v, params, modes=modes)
                warm.h = prev.h + (a - a_prev) * seed
        try:
            res = newton_solve(warm, v, params, mode="fixed_amplitude",
                               amplitude=a, tol=tol, max_iter=max_iter,
                               modes=modes)
        except _SOLVE_FAILURES as exc:
            return ContinuationResult(fields=fields, amplitudes=amps,
                                      converged=False, failed_amplitude=a,
                                      message=str(exc), grid_chain=chain)
        prev_prev = prev
        prev = res.field
        fields.append(res.field)
        amps.append(a)
    return ContinuationResult(fields=fields, amplitudes=amps, converged=True,
                              grid_chain=chain)


def continuation(hf0: HeightField, v: VorticityFunction,
                 params: FlowParameters, amplitude_schedule, tol=1e-10,
                 max_iter=50) -> ContinuationResult:
    """Sequence of fixed_amplitude solves warm-started along the schedule.

    Nested iteration (mesh sequencing, Knoll & Keyes 2004): the schedule
    runs on the coarsest grid of `_grid_chain(hf0.grid)`, started from hf0
    injected onto it (every other node per halving).  Each finer grid then
    takes one `newton_solve` at the final amplitude, started from the
    coarser solution by `field.prolong`.  The chain stops at the floor of
    `_CHAIN_MIN_CELLS` = 128x256 cells, because coarser grids misplace the
    branch at large amplitude, so a grid up to 128x256 is its own chain
    and runs the schedule directly.  Any failure in the chain (a coarse
    step, an inadmissible prolonged state, a finer Newton solve) runs the
    schedule on hf0's grid instead, and its result, converged or partial,
    is returned as it is.

    `fields[-1]` is on hf0's grid; `fields[:-1]` are on the coarsest grid of
    `grid_chain`, the [Nq, Np] of each grid run, coarsest first.  In each
    run of the schedule the laminar modes are built once, from the start
    state; they give the wave seed and precondition every solve.  An
    inadmissible start state raises AdmissibilityError; a warm start that a
    step pushes past stagnation fails that step.
    """
    hf0.check_admissible()
    schedule = [float(a) for a in amplitude_schedule]
    chain = _grid_chain(hf0.grid)
    if len(chain) > 1 and schedule:
        s = hf0.grid.Np // chain[0].Np
        coarse = HeightField(chain[0], hf0.h[::s, ::s], hf0.Q)
        res = _follow(coarse, v, params, schedule, tol, max_iter)
        if res.converged:
            hf = res.fields[-1]
            try:
                for g in chain[1:]:
                    hf = newton_solve(prolong(hf, g), v, params,
                                      mode="fixed_amplitude",
                                      amplitude=schedule[-1], tol=tol,
                                      max_iter=max_iter).field
            except _SOLVE_FAILURES:
                pass
            else:
                return ContinuationResult(
                    fields=res.fields[:-1] + [hf], amplitudes=res.amplitudes,
                    converged=True, grid_chain=[[g.Nq, g.Np] for g in chain])
    return _follow(hf0, v, params, schedule, tol, max_iter)
