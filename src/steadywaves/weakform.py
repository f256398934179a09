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

A `QuadratureLevel` holds every field-only array of the pairings at one
(nq, npp) rule and pairs any number of test functions against them, so a
field is resampled once per level, not once per pairing.  Every pairing
sums over its test function's support window only (`_window`), the nodes
where the bump can be nonzero.  The public `pair_*` functions and
`cross_identity` are one-level, one-test-function calls of the same
integrands on a level narrowed to those nodes, the only ones where they
evaluate a field.  On a refinement's uniform q-nodes, or a window of them,
a sampled field is resampled by an exact inverse FFT (`field._trig_eval`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.ndimage import convolve1d

from .vorticity import VorticityFunction, FlowParameters, gamma_cap, gamma_tilde
from .field import HeightField, _q_nodes, _trig_coeffs, _trig_eval
from .grid import Grid, aligned_node
from .transform import PhysicalFields, bernoulli_F, stream_gradient
from .solver import _speed_term


class SupportError(ValueError):
    """Test-function support touches or leaves the domain interior."""


class MollifierError(ValueError):
    """A mollifier scale below two grid spacings."""


# -- C^1 bump -----------------------------------------------------------------


def bump1d(t):
    """B(t) = exp(-1/(1-t^2)) inside |t| < 1, else 0; C^infinity."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - t[m] ** 2))
    return out


def bump1d_deriv(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    w = 1.0 - t[m] ** 2
    out[m] = np.exp(-1.0 / w) * (-2.0 * t[m] / w ** 2)
    return out


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
        q0, pc = self.center
        r1, r2 = self.radii
        if not (r1 > 0 and r2 > 0 and r1 < np.pi):
            raise SupportError("radii must be positive with r_q < pi")
        if not (pc - r2 > -1.0 and pc + r2 < 0.0):
            raise SupportError(
                f"p-support [{pc - r2:g}, {pc + r2:g}] must lie strictly "
                "inside (-1, 0)")

    def _args(self, q, p):
        """The 1-D bump arguments (t_q, t_p) at q and p: the bump is nonzero
        exactly where |t_q| < 1 and |t_p| < 1."""
        q0, pc = self.center
        r1, r2 = self.radii
        return _wrap_q(np.asarray(q) - q0) / r1, (np.asarray(p) - pc) / r2

    def value(self, q, p):
        tq, tp = self._args(q, p)
        return np.outer(bump1d(tq), bump1d(tp))

    def grad(self, q, p):
        """(d/dq, d/dp) on the tensor grid."""
        r1, r2 = self.radii
        tq, tp = self._args(q, p)
        return (np.outer(bump1d_deriv(tq) / r1, bump1d(tp)),
                np.outer(bump1d(tq), bump1d_deriv(tp) / r2))


def bump(center, radii) -> TestFunction:
    """A rectangle-domain bump test function."""
    return TestFunction(tuple(center), tuple(radii))


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
    `grad_xy_at_qp(q, p)` gives (phi_x, phi_y) on the tensor grid (q, p).
    """

    def __init__(self, tf: TestFunction, field_like, params: FlowParameters):
        self.tf = tf
        self.field = _as_evaluator(field_like)
        self.params = params

    def grad_xy_at_qp(self, q, p):
        tq, tp = self.tf.grad(q, p)
        psi_x, psi_y = stream_gradient(self.field.hq_at(q, p),
                                       self.field.hp_at(q, p), self.params)
        return _pushforward_grad(tq, tp, psi_x, psi_y, self.params.p0)


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


def _window(tf: TestFunction, q, p):
    """(iq, jp): the q-nodes and the p-nodes of tf's support.

    The nodes are those where bump1d's own test |t| < 1 holds for both of
    the bump's arguments, so every node at which tf, its pushforward or
    their gradients are nonzero is kept.  A contiguous window is a slice,
    so that cutting it takes views; a q-window that wraps across q = -pi
    is an index array.  p is monotone, so a p-window is contiguous.
    """
    win = []
    for t in tf._args(q, p):
        i = np.flatnonzero(np.abs(t) < 1.0)
        lo, hi = (i[0], i[-1] + 1) if i.size else (0, 0)
        win.append(slice(lo, hi) if hi - lo == i.size else i)
    return tuple(win)


def _cut(arrays, win):
    """The window's nodes of each full-level array."""
    iq, jp = win
    return [a[iq, jp] for a in arrays]


def _height_nodes(nq, npp):
    q = _q_nodes(nq)
    p = np.linspace(-1.0, 0.0, npp + 1)
    wq = 2.0 * np.pi / nq
    wp = np.full(npp + 1, 1.0 / npp)
    wp[0] *= 0.5
    wp[-1] *= 0.5
    return q, p, wq, wp


def _midpoint_nodes(nq, npp):
    q = _q_nodes(nq)
    pm = -1.0 + (np.arange(npp) + 0.5) / npp
    return q, pm, 2.0 * np.pi / nq, 1.0 / npp


def interp_rows(arr, grid: Grid, q_t, p_t):
    """Interpolate node samples (Nq, Np+1): cosine in q, linear in p."""
    coeffs = _trig_coeffs(arr, grid)
    rows = _trig_eval(coeffs, np.asarray(q_t, dtype=float))   # (nq_t, Np+1)
    jc, t = grid.p_cell(p_t)
    return rows[:, jc] * (1.0 - t) + rows[:, jc + 1] * t


# -- pairings -------------------------------------------------------------------


def norm_grad_rect(tf: TestFunction, nq=256, npp=256):
    """L1 norm of |grad phi~| over R (the pairing normalizer)."""
    q, p, wq, wp = _height_nodes(nq, npp)
    iq, jp = _window(tf, q, p)
    tq, tp = tf.grad(q[iq], p[jp])
    return float(wq * np.sum(np.hypot(tq, tp) @ wp[jp]))


def _default_quadrature(field_like, nq, npp):
    g = getattr(field_like, "grid", None)
    return nq or (g.Nq if g else 128), npp or (g.Np if g else 256)


def pair_height(field_like, v: VorticityFunction, params: FlowParameters,
                tf: TestFunction, nq=None, npp=None):
    """I_h: the weak height-form pairing over R, trapezoid quadrature."""
    nq, npp = _default_quadrature(field_like, nq, npp)
    level = QuadratureLevel(params, nq, npp, v, field_like=field_like)
    return level._narrow(tf).pair_height(tf)


def pair_stream(fields: PhysicalFields, v: VorticityFunction,
                params: FlowParameters, phi: PushforwardTestFunction,
                nq=None, npp=None):
    """I_psi: the weak stream-form pairing over the fluid domain.

    Quadrature in (q, p) coordinates, midpoint rule in p, with the map's
    Jacobian d (1 + h_p) = p0 / psi_y taken from the reconstructed fields.
    """
    nq, npp = _default_quadrature(fields, nq, npp)
    level = QuadratureLevel(params, nq, npp, v, fields=fields)._narrow(phi.tf)
    win, _, px, py = level.test_function(phi)
    return level.pair_stream(win, px, py)


def pair_euler(fields: PhysicalFields, params: FlowParameters,
               phi: PushforwardTestFunction, nq=None, npp=None,
               v: VorticityFunction | None = None):
    """(R1, R2, R3): weak Euler pairings (momentum-x, momentum-y, mass)."""
    nq, npp = _default_quadrature(fields, nq, npp)
    level = QuadratureLevel(params, nq, npp, v, fields=fields)._narrow(phi.tf)
    return level.pair_euler(*level.test_function(phi))


def cross_identity(field_like, v: VorticityFunction, params: FlowParameters,
                   tf: TestFunction, nq=256, npp=256):
    """(lhs, rhs, gap) of p0^2 I_h(phi~) = I_psi(pushforward phi~).

    Valid for any admissible field; the two sides use different quadrature
    rules (trapezoid vs midpoint in p), so the gap is a genuine discretization
    residual that vanishes under refinement.  The stream side takes psi
    from the field's own h-derivatives at the midpoint nodes; the
    pushforward gradient asks for the same h_q, h_p there, and gets them
    without a second evaluation.
    """
    ev = _Reusing(_as_evaluator(field_like))
    level = QuadratureLevel(params, nq, npp, v, field_like=ev)._narrow(tf)
    phi = PushforwardTestFunction(tf, ev, params)
    win, _, px, py = level.test_function(phi)
    return level.cross_identity(level.pair_height(tf), win, px, py)


class _Reusing:
    """An evaluator that answers a repeated request at the same nodes with
    its first result.  It keeps every result, so it serves one call."""

    def __init__(self, ev):
        self.ev, self._done = ev, []

    def h_at(self, q, p):
        return self._reuse("h_at", q, p)

    def hq_at(self, q, p):
        return self._reuse("hq_at", q, p)

    def hp_at(self, q, p):
        return self._reuse("hp_at", q, p)

    def _reuse(self, name, q, p):
        for key, q1, p1, out in self._done:
            if key == name and np.array_equal(q1, q) and np.array_equal(p1, p):
                return out
        out = getattr(self.ev, name)(q, p)
        self._done.append((name, q, p, out))
        return out


EULER_NAMES = ("euler_R1", "euler_R2", "euler_R3")


class QuadratureLevel:
    """Every field-only array of the pairings at one (nq, npp) rule.

    `field_like` (a HeightField or an evaluator) feeds the height side, the
    pushforward gradient and the stream side of the cross identity;
    `fields` (the reconstructed PhysicalFields) feeds the stream and Euler
    pairings.  Each group of arrays is resampled on first use and kept, so
    pairing many test functions at one level costs one resampling of each
    field; what remains per test function is its gradient and the weighted
    sums over its support window, sliced out of the level's arrays.
    """

    def __init__(self, params: FlowParameters, nq, npp,
                 v: VorticityFunction | None = None, field_like=None,
                 fields: PhysicalFields | None = None):
        if v is not None:
            for b in v.breakpoints:     # panels must not straddle a jump
                aligned_node(b, npp)
        self.params, self.v = params, v
        self.ev = None if field_like is None else _as_evaluator(field_like)
        self.fields = fields
        self.q, self.p, self.wq, self.wp = _height_nodes(nq, npp)
        _, self.pm, _, self.wpm = _midpoint_nodes(nq, npp)

    def _narrow(self, tf: TestFunction):
        """Keep only the nodes of tf's support window, before any field is
        resampled, so that a level pairing tf alone evaluates every field
        at the window's nodes only.  Returns self."""
        iq, jp = _window(tf, self.q, self.p)
        _, jm = _window(tf, self.q, self.pm)
        self.q = self.q[iq]
        self.p, self.wp, self.pm = self.p[jp], self.wp[jp], self.pm[jm]
        return self

    # -- field-only arrays ----------------------------------------------------

    @cached_property
    def _height(self):
        """(A, B) of the height integrand A phi~_p + B phi~_q, trapezoid nodes."""
        d = self.params.d
        hq = self._field("hq_at", self.p)
        hp = self._field("hp_at", self.p)
        K, _, _ = _speed_term(hq, hp, d)
        A = K + gamma_cap(self.v, self.params, self.p)[None, :] / (2 * d * d)
        return A, hq / (1.0 + hp)

    @cached_property
    def _gamma_tilde(self):
        return gamma_tilde(self.v, self.params, self.pm)[None, :]

    @cached_property
    def _h_stream(self):
        """(psi_x, psi_y) from the field's h-derivatives at the midpoints."""
        return stream_gradient(self._field("hq_at", self.pm),
                               self._field("hp_at", self.pm), self.params)

    @cached_property
    def _h_coeffs(self):
        """The stream integrand's field factors from `_h_stream`."""
        return _stream_coeffs(*self._h_stream, self.params)

    # a field is evaluated at the level's own nodes; on a narrowed level
    # these are a window of the rule's q-nodes, where resampling a sampled
    # field stays an exact FFT (`field._trig_eval`)

    def _field(self, name, p):
        return getattr(self.ev, name)(self.q, p)

    def _resample(self, arr):
        return interp_rows(arr, self.fields.grid, self.q, self.pm)

    @cached_property
    def _stream(self):
        """Reconstructed psi_x psi_y, (psi_x^2 - psi_y^2)/2 and the Jacobian."""
        psi_x = self._resample(self.fields.psi_x)
        psi_y = self._resample(self.fields.psi_y)
        return _stream_coeffs(psi_x, psi_y, self.params)

    @cached_property
    def _euler(self):
        """The flux coefficients of R1, R2 and R3 and the Jacobian."""
        u = self._resample(self.fields.u)
        vv = self._resample(self.fields.v)
        P = self._resample(self.fields.P)
        c = self.params.c
        return (u * u - c * u + P, u * vv, u * vv - c * vv, vv * vv + P,
                u, vv, self._stream[2])

    # -- pairings -------------------------------------------------------------

    def test_function(self, phi: PushforwardTestFunction):
        """(window, value, phi_x, phi_y) of phi at the midpoints of its
        support window, its gradient from phi's own field."""
        win = iq, jp = _window(phi.tf, self.q, self.pm)
        # on a narrowed level, the nodes `_h_stream` evaluates the field at
        q, pm = self.q[iq], self.pm[jp]
        return (win, phi.tf.value(q, pm), *phi.grad_xy_at_qp(q, pm))

    def pushforward(self, tf: TestFunction):
        """(window, value, phi_x, phi_y) of the pushforward of tf at the
        midpoints of its support window."""
        win = iq, jp = _window(tf, self.q, self.pm)
        q, pm = self.q[iq], self.pm[jp]
        tq, tp = tf.grad(q, pm)
        psi_x, psi_y = _cut(self._h_stream, win)
        return (win, tf.value(q, pm),
                *_pushforward_grad(tq, tp, psi_x, psi_y, self.params.p0))

    def pair_height(self, tf: TestFunction):
        win = iq, jp = _window(tf, self.q, self.p)
        A, B = _cut(self._height, win)
        tq, tp = tf.grad(self.q[iq], self.p[jp])
        return float(self.wq * np.sum((A * tp + B * tq) @ self.wp[jp]))

    def pair_stream(self, win, px, py):
        return _stream_sum(self._gamma_tilde[:, win[1]],
                           *_cut(self._stream, win), px, py,
                           self.wq * self.wpm)

    def pair_euler(self, win, val, px, py):
        e11, e12, e21, e22, u, vv, jac = _cut(self._euler, win)
        w = self.wq * self.wpm
        R1 = np.sum((e11 * px + e12 * py) * jac)
        R2 = np.sum((e21 * px + e22 * py - self.params.g * val) * jac)
        R3 = np.sum((u * px + vv * py) * jac)
        return float(w * R1), float(w * R2), float(w * R3)

    def cross_identity(self, height, win, px, py):
        """(lhs, rhs, gap) from the height pairing and the pushforward
        gradient on its window."""
        lhs = self.params.p0 ** 2 * height
        rhs = _stream_sum(self._gamma_tilde[:, win[1]],
                          *_cut(self._h_coeffs, win), px, py,
                          self.wq * self.wpm)
        return lhs, rhs, abs(lhs - rhs)

    def pairings(self, tf: TestFunction, with_cross=False):
        """{formulation: value} of the five pairings of tf, and with
        `with_cross` the cross identity's (lhs, rhs, gap) under "cross"."""
        win, val, px, py = self.pushforward(tf)
        height = self.pair_height(tf)
        out = {"height": height, "stream": self.pair_stream(win, px, py)}
        out.update(zip(EULER_NAMES, self.pair_euler(win, val, px, py)))
        if with_cross:
            out["cross"] = self.cross_identity(height, win, px, py)
        return out


def _stream_coeffs(psi_x, psi_y, params):
    """Field factors of the stream integrand: psi_x psi_y,
    (psi_x^2 - psi_y^2)/2 and the Jacobian p0 / psi_y."""
    return (psi_x * psi_y, 0.5 * (psi_x ** 2 - psi_y ** 2),
            params.p0 / psi_y)


def _stream_sum(gt, sxy, half, jac, px, py, w):
    """w * sum of (gamma~ phi_y - psi_x psi_y phi_x
    + (psi_x^2 - psi_y^2)/2 phi_y) times the Jacobian."""
    return float(w * np.sum((gt * py - sxy * px + half * py) * jac))


def surface_identity(field_like, params: FlowParameters, Q=None, nq=None):
    """Pointwise algebraic surface identity and the dynamic-condition residual.

    Both sides are computed from the same h-derivatives on the surface row:
      lhs = -2 p0^2 K + 2 g d (1 + h),   K = -(1 + d^2 h_q^2)/(2 d^2 (1+h_p)^2)
      (the speed term of the solver's surface row, `solver._speed_term`),
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
    if nq is None:
        nq = grid.Nq if grid else 256
    q = _q_nodes(nq)
    p0v = np.array([0.0])
    h = ev.h_at(q, p0v)[:, 0]
    hq = ev.hq_at(q, p0v)[:, 0]
    hp = ev.hp_at(q, p0v)[:, 0]
    K, _, _ = _speed_term(hq, hp, d)
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


def _mollify(arr, mq, mp):
    """Separable bump-kernel smoothing: periodic in q, clamped in p."""
    tq = np.arange(-mq, mq + 1) / (mq + 0.5)
    tp = np.arange(-mp, mp + 1) / (mp + 0.5)
    kq = bump1d(tq)
    kq /= kq.sum()
    kp = bump1d(tp)
    kp /= kp.sum()
    out = convolve1d(arr, kq, axis=0, mode="wrap")
    return convolve1d(out, kp, axis=1, mode="nearest")


def mollification_rate(fields: PhysicalFields, params: FlowParameters,
                       eps_list, tf: TestFunction | None = None):
    """Observed mollification rates of F = P + |grad psi|^2/2 + g y and psi.

    Convolves F and the stream derivatives with a bump mollifier at each
    scale eps, measures the sup-norm differences on the test-function
    support (these are the quantities the epsilon-estimates of the
    equivalence proof control, decaying like eps^alpha for C^{0,alpha}
    data), and also splits the pairing
    integral F (psi_y phi_x - psi_x phi_y) into its difference and smooth
    parts.  Fits log-log slopes and reports alpha_hat together with the
    sign of 3 alpha_hat - 1.  Diagnostic only: no pass/fail.
    """
    g = fields.grid
    if tf is None:
        tf = bump((0.0, -0.5), (np.pi / 3, 0.25))
    eps_list = sorted(float(e) for e in eps_list)
    dmin = max(g.dq, g.dp)
    for e in eps_list:
        if e < 2.0 * dmin:
            raise MollifierError(f"eps={e:g} is below 2 grid spacings "
                                 f"({2 * dmin:g})")
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


@dataclass
class PairingReport:
    """Values of one formulation's pairings across test functions and levels."""

    formulation: str
    per_testfn: list = field(default_factory=list)
    refinement: list = field(default_factory=list)
    fitted_rates: dict = field(default_factory=dict)

    def max_normalized(self):
        return max_normalized([e["value"] for e in self.per_testfn],
                              [e["normalizer"] for e in self.per_testfn])

    def to_dict(self):
        return {
            "formulation": self.formulation,
            "per_testfn": self.per_testfn,
            "refinement": self.refinement,
            "fitted_rates": self.fitted_rates,
            "max_normalized": self.max_normalized(),
        }
