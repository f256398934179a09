"""Distributional pairings of the three weak formulations.

There is one kind of test function: a compactly supported C^1 bump
phi~(q, p) on the rectangle R (`TestFunction`).  The height-side pairing
integrates against phi~ itself, the stream- and Euler-side pairings against
its pushforward phi = phi~(x, psi/p0) (`PushforwardTestFunction`).
Height-side pairings are tensor trapezoid quadratures on R (panels split at
vorticity jump nodes, which are quadrature nodes by construction); stream-
and Euler-side pairings are evaluated in (q, p) coordinates with the map's
Jacobian on a midpoint-in-p rule.  The two rules are deliberately different
second-order quadratures, so the change-of-variables identity

    p0^2 * I_h(phi~) = I_psi(phi),   phi = pushforward of phi~,

holds with a gap that vanishes under refinement for any admissible field,
solution or not.

A `QuadratureLevel` pairs any number of test functions at one (nq, npp)
rule.  It keeps one resampling of each sampled series at the rule's
q-nodes on every sided column of its grid (`Grid.sided`, where h_p is
one-sided at each jump node), so a field is resampled once per level, not
once per pairing.  Each test function is paired over its support window
(`_bump_window`), the nodes where the bump can be nonzero, in q-blocks of
at most `_BLOCK_CELLS` nodes (`_blocks`): what depends on the field's p
alone is found once per rule's window; each block blends its arrays in p
from its rows (`field._blender`), adds to the sums and drops them.  The
blocks keep every array at 64 KB, under glibc's 128 KB mmap threshold, so
it comes from the heap, and the dozen that one block frees are reused by
the next instead of being trimmed and faulted in again.  Window-sized
arrays (about 314 KB at (512, 768)) were mapped, zeroed and faulted in on
every call: a fresh pass of the benchmark's cross-identity workload took
74-78 k minor page faults and spent 0.07-0.09 s of its 0.17-0.18 s in the
kernel; in blocks it takes 24 faults and 0.10 s.  An analytic field
evaluates its p-polynomials once per rule's window (`at_p`) and its
q-factors once per bump's q-window, shared by both rules (`at_q`); any
other evaluator with no node columns is asked on each block's nodes.
Each midpoint-rule block forms the field's psi once (`stream_gradient`),
for the pushforward gradient and the cross identity's stream side.
The public `pair_*` functions and `cross_identity` are one-level calls
of `QuadratureLevel.sums`, the one pairing entry: `cross_identity` is
`sums(tf, "cross")["cross"]`.

What depends on the rule alone is built once per process, in
`functools.lru_cache` memos whose keys are ints and the frozen
dataclasses `VorticityFunction`, `FlowParameters` and `TestFunction`,
never a field or an array, and whose arrays are all read-only: each
axis's node set and weights, `_nodes(kind, n)` (at most 64 entries); the
vorticity tables gamma_cap / (2 d^2) on the trapezoid p-nodes and
gamma_tilde on the midpoint p-nodes, `_gamma_tables(v, params, npp)` (at
most 32), computed on all the nodes and sliced per window; and each
bump's window and factors on a rule's q-, trapezoid p- or midpoint
p-nodes, `_rule_window(tf, kind, n)` (at most 256).  Calls that repeat a
rule and a bump, field after field, build none of it again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .vorticity import (VorticityFunction, FlowParameters, gamma_cap,
                        gamma_tilde, speed_term)
from .field import (HeightField, SampledEvaluator, _blender, _trig_coeffs,
                    _trig_eval)
# callers also reach the sampled-field interpolant as weakform.interp_rows
from .field import interp_rows  # noqa: F401
from .grid import aligned_node, mollifier_scales_problem, q_nodes
from .transform import PhysicalFields, bernoulli_F, stream_gradient


class SupportError(ValueError):
    """Test-function support touches or leaves the domain interior."""


class MollifierError(ValueError):
    """Mollifier scales that cannot give a rate: one below two grid
    spacings, or fewer than two distinct scales."""


# -- C^1 bump -----------------------------------------------------------------


def bump1d(t):
    """B(t) = exp(-1/(1-t^2)) inside |t| < 1, else 0; C^infinity."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - t[m] ** 2))
    return out


def _bump_inside(t):
    """(B(t), B'(t)) for |t| < 1, from one exp; B is bump1d's value there,
    to the bit."""
    w = 1.0 - t ** 2
    b = np.exp(-1.0 / w)
    return b, b * (-2.0 * t / w ** 2)


def _wrap_q(dq):
    """Wrap offsets into [-pi, pi)."""
    return (dq + np.pi) % (2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class TestFunction:
    """Separable bump on the rectangle R, periodic in q.

    value(q, p) and grad(q, p) evaluate on tensor grids (q 1-D, p 1-D) and
    return (nq, np) arrays.
    """

    center: tuple
    radii: tuple

    def __post_init__(self):
        # tuples, so that a bump can key the rules' memos (`_rule_window`)
        object.__setattr__(self, "center", tuple(self.center))
        object.__setattr__(self, "radii", tuple(self.radii))
        q0, pc = self.center
        r1, r2 = self.radii
        if not np.all(np.isfinite([q0, pc, r1, r2])):
            raise SupportError(f"center {self.center} and radii {self.radii} "
                               "must be finite")
        if not (r1 > 0 and r2 > 0 and r1 < np.pi):
            raise SupportError("radii must be positive with r_q < pi")
        if not (pc - r2 > -1.0 and pc + r2 < 0.0):
            raise SupportError(
                f"p-support [{pc - r2:g}, {pc + r2:g}] must lie strictly "
                "inside (-1, 0)")

    def _arg(self, axis, x):
        """The 1-D bump argument t on `axis` (0: q, periodic; 1: p) at x:
        the bump's factor there is nonzero exactly where |t| < 1."""
        t = np.asarray(x) - self.center[axis]
        return (_wrap_q(t) if axis == 0 else t) / self.radii[axis]

    def factors(self, q, p):
        """(bq, bq', bp, bp'): the bump's 1-D factors at q and at p and
        their derivatives, each in its own variable: value is
        outer(bq, bp) and grad (outer(bq', bp), outer(bq, bp')).  Each
        axis's window (`_bump_window`) is filled into zeros."""
        out = []
        for axis, x in enumerate((q, p)):
            win, b, db = _bump_window(self, axis, x)
            full = np.zeros((2, np.size(x)))
            full[:, win] = b, db
            out += [*full]
        return tuple(out)

    def value(self, q, p):
        bq, _, bp, _ = self.factors(q, p)
        return np.outer(bq, bp)

    def grad(self, q, p):
        """(d/dq, d/dp) on the tensor grid."""
        bq, dbq, bp, dbp = self.factors(q, p)
        return np.outer(dbq, bp), np.outer(bq, dbp)


def bump(center, radii) -> TestFunction:
    """A rectangle-domain bump test function."""
    return TestFunction(center, radii)


def default_lattice(n_q_centers=4, radii=(np.pi / 4, 0.2),
                    p_centers=(-0.75, -0.5, -0.25)):
    """A lattice of bump centers covering R's interior (default 4 x 3)."""
    qcs = -np.pi + (np.arange(n_q_centers) + 0.5) * 2.0 * np.pi / n_q_centers
    return [bump((qc, pc), radii) for pc in p_centers for qc in qcs]


class PushforwardTestFunction:
    """phi(x, y) = phi~(x, psi(x,y)/p0) with chain-rule gradient.

    In (q, p) coordinates the value is phi~(q, p) itself and the Cartesian
    gradient uses the field's derivatives:
        phi_x = phi~_q - (h_q/(1+h_p)) phi~_p,
        phi_y = phi~_p / (d (1+h_p)).
    `grad_xy_at_qp(q, p)` gives (phi_x, phi_y) on the tensor grid (q, p),
    from two hooks: phi~'s (q, p) gradient and the field's psi_x, psi_y.
    """

    def __init__(self, tf: TestFunction, field_like, params: FlowParameters):
        self.tf = tf
        self.field = _as_evaluator(field_like)
        self.params = params

    def grad_xy_at_qp(self, q, p):
        return _pushforward_grad(*self._bump_grad(q, p), *self._psi(q, p),
                                 self.params.p0)

    def _bump_grad(self, q, p):
        return self.tf.grad(q, p)

    def _psi(self, q, p):
        return stream_gradient(self.field.hq_at(q, p),
                               self.field.hp_at(q, p), self.params)


def pushforward_testfn(tf: TestFunction, field_like,
                       params: FlowParameters) -> PushforwardTestFunction:
    """phi = phi~ composed with the inverse semi-hodograph map."""
    return PushforwardTestFunction(tf, field_like, params)


def _pushforward_grad(tq, tp, psi_x, psi_y, p0):
    """(phi_x, phi_y) of phi = phi~(x, psi/p0) from phi~'s (q, p) gradient."""
    return tq + tp * (psi_x / p0), tp * (psi_y / p0)


# -- quadrature helpers --------------------------------------------------------


def _as_evaluator(field_like):
    if isinstance(field_like, HeightField):
        return field_like.evaluator()
    if hasattr(field_like, "h_at"):
        return field_like
    raise TypeError(f"cannot evaluate {type(field_like).__name__} as a field")


def _bump_window(tf: TestFunction, axis, x):
    """(win, b, db): the window of tf's support on `axis` (0: q, 1: p) of
    the points x (1-D), and the bump's factor there and its derivative in
    x, from the argument evaluated once; the one evaluator of the factors.

    The window holds the points where bump1d's own test |t| < 1 holds, so
    every node at which tf, its pushforward or their gradients are nonzero
    is kept.  A contiguous window is a slice, so that cutting it takes
    views; any other, such as a q-window of a rule's nodes that wraps
    across q = -pi, is an index array.
    """
    t = tf._arg(axis, x)
    i = np.flatnonzero(np.abs(t) < 1.0)
    lo, hi = (i[0], i[-1] + 1) if i.size else (0, 0)
    win = slice(lo, hi) if hi - lo == i.size else i
    b, db = _bump_inside(t[win])
    return win, b, db / tf.radii[axis]


# -- the rules' set-up, built once per process (see the module docstring) -----

# the node sets of one axis of a rule: its q-nodes, the trapezoid rule's
# p-nodes and the midpoint rule's p-nodes
_Q, _P, _PM = 0, 1, 2


def _read_only(*arrays):
    """The arguments, each array among them made read-only: a memo hands
    the same arrays to every caller, so no caller may change them."""
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=64)
def _nodes(kind, n):
    """(x, w): one axis's nodes of a rule and their weight, a scalar or,
    for the trapezoid rule's p-nodes, an array; kind _Q gives the n
    q-nodes, _P the trapezoid rule's n + 1 p-nodes and _PM the midpoint
    rule's n p-nodes."""
    if kind == _Q:
        return _read_only(q_nodes(n), 2.0 * np.pi / n)
    if kind == _P:
        w = np.full(n + 1, 1.0 / n)
        w[0] *= 0.5
        w[-1] *= 0.5
        return _read_only(np.linspace(-1.0, 0.0, n + 1), w)
    return _read_only(-1.0 + (np.arange(n) + 0.5) / n, 1.0 / n)


def _height_nodes(nq, npp):
    """(q, p, wq, wp): the trapezoid rule's nodes and weights."""
    (q, wq), (p, wp) = _nodes(_Q, nq), _nodes(_P, npp)
    return q, p, wq, wp


@functools.lru_cache(maxsize=32)
def _gamma_tables(v: VorticityFunction, params: FlowParameters, npp):
    """(gc, gt): gamma_cap / (2 d^2) on the trapezoid rule's npp + 1
    p-nodes and gamma_tilde on the midpoint rule's npp.  Both evaluate
    each node on its own (Horner's rule per element), so a window's slice
    has the bits of the table computed on the window alone."""
    d = params.d
    return _read_only(
        gamma_cap(v, params, _nodes(_P, npp)[0]) / (2 * d * d),
        gamma_tilde(v, params, _nodes(_PM, npp)[0]))


@functools.lru_cache(maxsize=256)
def _rule_window(tf: TestFunction, kind, n):
    """`_bump_window` of tf on the node set `_nodes(kind, n)`."""
    return _read_only(*_bump_window(tf, 0 if kind == _Q else 1,
                                    _nodes(kind, n)[0]))


# cells per q-block of a window (`_blocks`): 64 KB arrays, under glibc's
# 128 KB mmap threshold, so a block's temporaries reuse heap memory instead
# of being mapped, zeroed and faulted in afresh on every call
_BLOCK_CELLS = 8192


def _blocks(iq, n):
    """(rel, b) for each q-block of a window's q-nodes iq (a slice, or an
    index array for a window that wraps across q = -pi) by n p-nodes:
    runs of at most _BLOCK_CELLS // n q-nodes (one at least), none across
    q = -pi, so that b, a slice of the rule's q-nodes, cuts views; rel is
    the same run's slice of the window's own q-nodes."""
    rows = max(1, _BLOCK_CELLS // max(n, 1))
    if isinstance(iq, slice):
        runs = [(0, iq.start, iq.stop)]
    else:
        cut = np.flatnonzero(np.diff(iq) != 1) + 1
        runs = [(k, iq[k], iq[e - 1] + 1)
                for k, e in zip([0, *cut], [*cut, iq.size])]
    for k, lo, hi in runs:
        for a in range(lo, hi, rows):
            z = min(a + rows, hi)
            yield slice(k + a - lo, k + z - lo), slice(a, z)


# -- pairings -------------------------------------------------------------------


def norm_grad_rect(tf: TestFunction, nq=256, npp=256):
    """L1 norm of |grad phi~| over R (the pairing normalizer)."""
    _, _, wq, wp = _height_nodes(nq, npp)
    _, bq, dbq = _rule_window(tf, _Q, nq)
    jp, bp, dbp = _rule_window(tf, _P, npp)
    return float(wq * np.sum(np.hypot(np.outer(dbq, bp), np.outer(bq, dbp))
                             @ wp[jp]))


def _default_quadrature(field_like, nq, npp):
    g = getattr(field_like, "grid", None)
    return nq or (g.Nq if g else 128), npp or (g.Np if g else 256)


def pair_height(field_like, v: VorticityFunction, params: FlowParameters,
                tf: TestFunction, nq=None, npp=None):
    """I_h: the weak height-form pairing over R, trapezoid quadrature."""
    nq, npp = _default_quadrature(field_like, nq, npp)
    return QuadratureLevel(params, nq, npp, v,
                           field_like=field_like).sums(tf, "height")["height"]


def pair_stream(fields: PhysicalFields, v: VorticityFunction,
                params: FlowParameters, phi: PushforwardTestFunction,
                nq=None, npp=None):
    """I_psi: the weak stream-form pairing over the fluid domain.

    Quadrature in (q, p) coordinates, midpoint rule in p, with the map's
    Jacobian d (1 + h_p) = p0 / psi_y taken from the reconstructed fields.
    """
    nq, npp = _default_quadrature(fields, nq, npp)
    level = QuadratureLevel(params, nq, npp, v, field_like=phi.field,
                            fields=fields)
    return level.sums(phi.tf, "stream")["stream"]


def pair_euler(fields: PhysicalFields, params: FlowParameters,
               phi: PushforwardTestFunction, nq=None, npp=None,
               v: VorticityFunction | None = None):
    """(R1, R2, R3): weak Euler pairings (momentum-x, momentum-y, mass)."""
    nq, npp = _default_quadrature(fields, nq, npp)
    level = QuadratureLevel(params, nq, npp, v, field_like=phi.field,
                            fields=fields)
    sums = level.sums(phi.tf, "euler")
    return tuple(sums[name] for name in EULER_NAMES)


def cross_identity(field_like, v: VorticityFunction, params: FlowParameters,
                   tf: TestFunction, nq=256, npp=256):
    """(lhs, rhs, gap) of p0^2 I_h(phi~) = I_psi(pushforward phi~).

    Valid for any admissible field; the two sides use different quadrature
    rules (trapezoid vs midpoint in p), so the gap is a genuine discretization
    residual that vanishes under refinement.  The stream side takes psi
    from the field's own h-derivatives at the midpoint nodes; the
    pushforward gradient reads the same psi, formed once per q-block.
    """
    return QuadratureLevel(params, nq, npp, v, field_like=field_like).sums(
        tf, "cross")["cross"]


class _BlockPushforward(PushforwardTestFunction):
    """The pushforward over one q-block at a time: its hooks return the
    block's bump gradient `grad` and psi `psi`, set before each call, so
    `grad_xy_at_qp`, each block's one entry, evaluates neither again."""

    def __init__(self, params: FlowParameters):
        self.params = params

    def _bump_grad(self, q, p):
        return self.grad

    def _psi(self, q, p):
        return self.psi


EULER_NAMES = ("euler_R1", "euler_R2", "euler_R3")


class QuadratureLevel:
    """The pairings of test functions at one (nq, npp) rule.

    `field_like` (a HeightField or an evaluator) feeds the height side, the
    pushforward gradient and the stream side of the cross identity;
    `fields` (the reconstructed PhysicalFields) feeds the stream and Euler
    pairings.  Each sampled series (the field's h_q and h_p, the
    reconstructed psi_x, psi_y and P) is resampled on first use at the
    rule's q-nodes on every sided column of its grid (Np+1, and one more
    per jump node) and kept: pairing many test functions costs one
    resampling of each.  A test function is paired over its support
    window in q-blocks (`_blocks`): its windows and factors and the
    vorticity tables come from the rule's memos (`_rule_window`,
    `_gamma_tables`), what depends on the field's p alone (the p-cells,
    an analytic field's p-polynomials) is found once per rule's window,
    and each block blends its arrays (A and B, the psi coefficients, the
    Euler fluxes, the Jacobian) from its rows and adds to the sums; the
    velocity u = c + psi_y, v = -psi_x is formed from the blended psi_x,
    psi_y, as `reconstruct_fields` defines it.  An evaluator with no node
    columns is evaluated on each block's nodes.
    """

    def __init__(self, params: FlowParameters, nq, npp,
                 v: VorticityFunction | None = None, field_like=None,
                 fields: PhysicalFields | None = None):
        if v is not None:
            for b in v.breakpoints:     # panels must not straddle a jump
                aligned_node(b, npp)
        self.params, self.v, self.nq, self.npp = params, v, nq, npp
        self.ev = None if field_like is None else _as_evaluator(field_like)
        self.fields = fields
        self.q, self.p, self.wq, self.wp = _height_nodes(nq, npp)
        self.pm, self.wpm = _nodes(_PM, npp)
        self._columns = {}

    # -- the field at a window's nodes -----------------------------------------

    def _node_columns(self, name):
        """(cols, grid): sampled series `name` at every q-node of the rule
        on every sided column of its grid, resampled on first use and kept;
        `name` is an evaluator method ("hq_at", "hp_at") or a reconstructed
        field ("psi_x", ...)."""
        if name not in self._columns:
            if name.endswith("_at"):
                grid = self.ev.grid
                series, deriv = self.ev.series(name)
            else:
                grid = self.fields.grid
                series = _trig_coeffs(getattr(self.fields, name),
                                      grid)[:, grid.sided]
                deriv = False
            self._columns[name] = _trig_eval(series, self.q, deriv), grid
        return self._columns[name]

    def _rows(self, p, *names, qf=None):
        """For each series name, a function of a q-block (rel, b) that
        gives the series on b's nodes x p.  Sampled series are blended from
        their node columns, on p-cells found here once per grid; an analytic
        field's p-polynomials are evaluated here once (`at_p`), its q-factors
        qf once per window (`at_q`), of which a block takes rows rel; any
        other evaluator is asked on each block."""
        blend, at_p, out = {}, None, []
        for name in names:
            if name.endswith("_at") and not isinstance(self.ev,
                                                       SampledEvaluator):
                if qf is not None:
                    at_p = at_p or self.ev.at_p(p)
                    out.append(lambda rel, b, f=at_p[name]:
                               f(qf[0][rel], qf[1][rel]))
                else:
                    out.append(lambda rel, b, f=getattr(self.ev, name):
                               f(self.q[b], p))
                continue
            cols, grid = self._node_columns(name)
            if id(grid) not in blend:
                blend[id(grid)] = _blender(*grid.p_cell(p))
            out.append(lambda rel, b, c=cols, f=blend[id(grid)]: f(c[b]))
        return out

    # -- pairings -------------------------------------------------------------

    def sums(self, tf: TestFunction, *names):
        """{name: pairing} of tf, for names among "height" (the height
        pairing, on the trapezoid rule) and the midpoint rule's "stream"
        (the reconstructed fields' stream pairing), "euler" (the three
        Euler pairings, under EULER_NAMES) and "cross" (the cross
        identity's (lhs, rhs, gap): lhs = p0^2 times the height pairing,
        rhs the stream pairing with psi from the field's h-derivatives).

        Both rules have the same q-nodes, so tf's q-window and q-factors
        and an analytic field's q-factors there are found once, here.
        """
        iq, bq, dbq = _rule_window(tf, _Q, self.nq)
        qside = iq, bq, dbq, (self.ev.at_q(self.q[iq])
                              if hasattr(self.ev, "at_q") else None)
        out = {}
        if "height" in names or "cross" in names:
            height = self._height_sum(tf, qside)
            if "height" in names:
                out["height"] = height
        midpoint = [name for name in names if name != "height"]
        if midpoint:
            out.update(self._midpoint_sums(tf, qside, *midpoint))
        if "cross" in names:
            lhs, rhs = self.params.p0 ** 2 * height, out["cross"]
            out["cross"] = lhs, rhs, abs(lhs - rhs)
        return out

    def _height_sum(self, tf, qside):
        """The trapezoid rule's part of `sums`, the height pairing."""
        iq, bq, dbq, qf = qside
        jp, bp, dbp = _rule_window(tf, _P, self.npp)
        p, d = self.p[jp], self.params.d
        hq_at, hp_at = self._rows(p, "hq_at", "hp_at", qf=qf)
        gc = _gamma_tables(self.v, self.params, self.npp)[0][jp]
        # the bump is separable: each block's sum contracts its arrays with
        # the p-factors, then with the q-factors
        w_dbp, w_bp, total = self.wp[jp] * dbp, self.wp[jp] * bp, 0.0
        for rel, b in _blocks(iq, p.size):
            hq, u = hq_at(rel, b), 1.0 + hp_at(rel, b)
            A = speed_term(hq, u ** 2, d) + gc
            total += bq[rel] @ (A @ w_dbp) + dbq[rel] @ (hq / u @ w_bp)
        return float(self.wq * total)

    def _midpoint_sums(self, tf, qside, *names):
        """The midpoint rule's part of `sums`.

        Each q-block forms the field's psi once, for the cross identity's
        stream side and for the pushforward gradient, which it asks of
        `PushforwardTestFunction.grad_xy_at_qp` (`_BlockPushforward`).
        """
        stream, euler, cross = (n in names for n in ("stream", "euler",
                                                     "cross"))
        iq, bq, dbq, qf = qside
        jm, bp, dbp = _rule_window(tf, _PM, self.npp)
        pm, p0, c = self.pm[jm], self.params.p0, self.params.c
        bq, dbq = bq[:, None], dbq[:, None]
        hq_at, hp_at = self._rows(pm, "hq_at", "hp_at", qf=qf)
        if stream or euler:
            psi_x_at, psi_y_at, P_at = self._rows(pm, "psi_x", "psi_y", "P")
        if stream or cross:
            gt = _gamma_tables(self.v, self.params, self.npp)[1][jm]
        phi = _BlockPushforward(self.params)
        sums = dict.fromkeys(("stream", *EULER_NAMES, "cross"), 0.0)
        for rel, b in _blocks(iq, pm.size):
            psi = stream_gradient(hq_at(rel, b), hp_at(rel, b), self.params)
            phi.grad, phi.psi = (dbq[rel] * bp, bq[rel] * dbp), psi
            px, py = phi.grad_xy_at_qp(self.q[b], pm)
            if cross:
                sums["cross"] += _stream_sum(gt, *psi, px, py, p0)
            if stream or euler:
                psi_x, psi_y = psi_x_at(rel, b), psi_y_at(rel, b)
            if stream:
                sums["stream"] += _stream_sum(gt, psi_x, psi_y, px, py, p0)
            if euler:
                P = P_at(rel, b)
                u, vv, jac = c + psi_y, -psi_x, p0 / psi_y
                uv, val = u * vv, bq[rel] * bp
                sums["euler_R1"] += np.sum(
                    ((u * u - c * u + P) * px + uv * py) * jac)
                sums["euler_R2"] += np.sum(
                    ((uv - c * vv) * px + (vv * vv + P) * py
                     - self.params.g * val) * jac)
                sums["euler_R3"] += np.sum((u * px + vv * py) * jac)
        w = self.wq * self.wpm
        return {key: float(w * sums[key]) for name in names
                for key in (EULER_NAMES if name == "euler" else (name,))}


def _stream_sum(gt, psi_x, psi_y, px, py, p0):
    """Sum of (gamma~ phi_y - psi_x psi_y phi_x + (psi_x^2 - psi_y^2)/2
    phi_y) times the map's Jacobian p0 / psi_y over one block's nodes."""
    return np.sum((gt * py - psi_x * psi_y * px
                   + 0.5 * (psi_x ** 2 - psi_y ** 2) * py) * (p0 / psi_y))


def surface_identity(field_like, params: FlowParameters, Q=None):
    """Pointwise algebraic surface identity and the dynamic-condition residual.

    Both sides are computed from the same h-derivatives on the surface row:
      lhs = -2 p0^2 K + 2 g d (1 + h),   K = -(1 + d^2 h_q^2)/(2 d^2 (1+h_p)^2)
      (the speed term of the solver's surface row, `vorticity.speed_term`),
      rhs = |grad psi|^2 + 2 g (y + d).
    Their gap is pure round-off for any admissible field; |lhs - Q| is the
    surface-condition residual.
    """
    ev = _as_evaluator(field_like)
    if Q is None:
        Q = getattr(field_like, "Q", None)
        if Q is None:
            raise ValueError("Q must be supplied")
    d, p0, g = params.d, params.p0, params.g
    grid = getattr(field_like, "grid", None)
    q = q_nodes(grid.Nq if grid else 256)
    p0v = np.array([0.0])
    h = ev.h_at(q, p0v)[:, 0]
    hq = ev.hq_at(q, p0v)[:, 0]
    hp = ev.hp_at(q, p0v)[:, 0]
    K = speed_term(hq, (1.0 + hp) ** 2, d)
    lhs = -2 * p0 ** 2 * K + 2 * g * d * (1.0 + h)
    psi_x, psi_y = stream_gradient(hq, hp, params)
    y = d * h
    rhs = psi_x ** 2 + psi_y ** 2 + 2 * g * (y + d)
    scale = max(abs(float(Q)), np.max(np.abs(lhs)))
    return {
        "identity_gap_rel": float(np.max(np.abs(lhs - rhs)) / scale),
        "surface_residual": float(np.max(np.abs(lhs - float(Q)))),
    }


# -- mollification diagnostic ---------------------------------------------------


def _fft_len(n):
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT runs fast at."""
    while True:
        m = n
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        if m == 1:
            return n
        n += 1


def _taps(m):
    """The 2m + 1 taps of the normalized bump kernel of half-width m."""
    k = bump1d(np.arange(-m, m + 1) / (m + 0.5))
    return k / k.sum()


def _spectrum(taps, n):
    """Real FFT of the centred `taps` wrapped onto n points: the symbol of
    their circular convolution (taps wider than n wrap and sum)."""
    m = len(taps) // 2
    return np.fft.rfft(np.bincount(np.arange(-m, m + 1) % n, taps, n))


# q-rows per block of the mollifier's p-pass: its FFT buffers stay in cache
_MOLLIFY_ROWS = 64


def _mollify(arr, mq, mp):
    """Separable bump-kernel smoothing: periodic in q, clamped in p.

    `arr` is (Nq, Np+1), q along axis 0; the kernels have 2 mq + 1 taps in
    q and 2 mp + 1 in p.  Both passes are real-FFT convolutions, so their
    cost grows with the array, not with the taps.  The p-pass runs in
    blocks of q-rows, each extended by its p = -1 and p = 0 values (the
    clamped continuation) to an FFT length of at least Np+1 + 2 mp, so
    that no kept output reads a wrapped value; it writes the result
    transposed, and the q-pass, periodic as it stands, runs along that
    contiguous axis.
    """
    nq, n = arr.shape
    L = _fft_len(n + 2 * mp)
    kp = _spectrum(_taps(mp), L)
    out = np.empty((n, nq))
    for i in range(0, nq, _MOLLIFY_ROWS):
        rows = arr[i:i + _MOLLIFY_ROWS]
        xh = np.fft.rfft(np.pad(rows, ((0, 0), (mp, L - n - mp)), mode="edge"))
        xh *= kp
        out[:, i:i + len(rows)] = np.fft.irfft(xh, L)[:, mp:mp + n].T
    xh = np.fft.rfft(out)
    xh *= _spectrum(_taps(mq), nq)
    return np.fft.irfft(xh, nq).T


def mollification_rate(fields: PhysicalFields, params: FlowParameters,
                       eps_list, tf: TestFunction | None = None):
    """Observed mollification rates of F = P + |grad psi|^2/2 + g y and psi.

    Convolves F and the stream derivatives with a bump mollifier at each
    scale eps (`_mollify`: 2 eps/dq + 1 taps in q and 2 eps/dp + 1 in p, at
    least 5 each, applied by FFT convolutions in numpy), measures the
    sup-norm differences on the test-function support (these are the
    quantities the epsilon-estimates of the equivalence proof control,
    decaying like eps^alpha for C^{0,alpha} data), and also splits the
    pairing
    integral F (psi_y phi_x - psi_x phi_y) into its difference and smooth
    parts.  Fits log-log slopes and reports alpha_hat together with the
    sign of 3 alpha_hat - 1.  Diagnostic only: no pass/fail.

    The default tf is centred off the crest, at q = pi/4: on an even wave
    the integrand is odd in q, so a bump centred on the crest q = 0 gives
    `total`, `mixed` and `smooth` that vanish by symmetry and hold
    round-off only.
    """
    g = fields.grid
    if tf is None:
        tf = bump((np.pi / 4, -0.5), (np.pi / 3, 0.25))
    eps_list = sorted(float(e) for e in eps_list)
    if problem := mollifier_scales_problem(eps_list, g.Nq, g.Np):
        raise MollifierError(problem)
    F = bernoulli_F(fields, params)
    q, p = g.q, g.p
    _, _, wq, wp = _height_nodes(g.Nq, g.Np)
    # chain-rule gradient of the pushforward of tf on the node grid, and
    # the map's Jacobian d (1 + h_p) = p0 / psi_y
    tq_, tp_ = tf.grad(q, p)
    supp = tf.value(q, p) > 0.0
    px, py = _pushforward_grad(tq_, tp_, fields.psi_x, fields.psi_y, params.p0)
    jac = params.p0 / fields.psi_y

    def pairing(Fa, sx, sy):
        return float(wq * np.sum(((Fa * sy) * px - (Fa * sx) * py) * jac @ wp))

    def supnorm(arr):
        return float(np.max(np.abs(arr[supp]))) if np.any(supp) else 0.0

    total = pairing(F, fields.psi_x, fields.psi_y)
    mixed, smooth, dF, dpsi = [], [], [], []
    for e in eps_list:
        mq = max(2, int(round(e / g.dq)))
        mp = max(2, int(round(e / g.dp)))
        Fe = _mollify(F, mq, mp)
        sxe = _mollify(fields.psi_x, mq, mp)
        sye = _mollify(fields.psi_y, mq, mp)
        sm = pairing(Fe, sxe, sye)
        smooth.append(sm)
        mixed.append(total - sm)
        dF.append(supnorm(F - Fe))
        dpsi.append(max(supnorm(fields.psi_x - sxe),
                        supnorm(fields.psi_y - sye)))

    def slope(vals):
        vals = np.abs(np.asarray(vals))
        if np.max(vals) < 1e-14:
            return float("inf")  # already smooth at machine level
        return float(np.polyfit(np.log(eps_list), np.log(vals + 1e-300), 1)[0])

    alpha_F, alpha_psi = slope(dF), slope(dpsi)
    alpha_hat = min(alpha_F, alpha_psi)
    return {
        "eps": list(eps_list),
        "F_diff_sup": [float(x) for x in dF],
        "psi_diff_sup": [float(x) for x in dpsi],
        "mixed": [float(x) for x in mixed],
        "smooth": [float(x) for x in smooth],
        "total": total,
        "alpha_F": alpha_F,
        "alpha_psi": alpha_psi,
        "alpha_hat": alpha_hat,
        "three_alpha_minus_one_positive": 3.0 * alpha_hat - 1.0 > 0.0,
    }


# -- reporting -------------------------------------------------------------------


def max_normalized(values, normalizers):
    """max |value| / normalizer over the pairs, 0 for none."""
    return max((abs(v) / max(n, 1e-300) for v, n in zip(values, normalizers)),
               default=0.0)
