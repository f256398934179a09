"""Height fields on the rectangle R and their interpolating evaluators.

A HeightField stores node samples h(q_i, p_j) on the full periodic q-grid,
even in q and zero on the bed row; h_p comes from the grid's per-layer
stencils.  Every sampled series is kept on the grid's sided columns
(`Grid.sided`), where h_p is one-sided at each jump node, and interpolated
by one rule, `_blend`: cosine in q (`_trig_eval`: one inverse FFT on a
full node set, a dense sum at any other q), linear in p between the two
sided columns of one p-cell, so never straddling a vorticity layer
boundary.  AnalyticHeightField provides the same evaluator interface from
closed-form coefficients and is used for synthetic admissible fields.

The semi-hodograph map needs no stagnation: 1 + h_p > EPS_STAG, the one
threshold, which `HeightField.check_admissible` checks at the nodes
(raising AdmissibilityError) and the solver's residual at the nodes and
half nodes (raising StagnationError, which the transform raises where
1 + h_p <= 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .grid import Grid, q_nodes


def _trig_coeffs(rows, grid):
    """Complex trigonometric-series coefficients of real periodic rows.

    rows: (Nq, M) sampled at q_i = -pi + i dq.  Returns c: (nh+1, M) complex
    with f(q) = Re( sum_k c_k exp(i k q) ), valid for any parity in q.
    """
    nh = grid.Nq // 2
    rolled = np.roll(rows, -nh, axis=0)  # sample 0 at q = 0
    c = np.fft.rfft(rolled, axis=0) / grid.Nq
    c[1:-1] *= 2.0
    return c


def _trig_eval(c, q, deriv=False):
    """Evaluate the series (nh+1, M) at q (nq,): real result (nq, M).

    When q is the full node set `q_nodes(nq)`, nq a multiple of the sample
    count 2 nh, the series is resampled exactly by a zero-padded inverse FFT
    (`_trig_resample`); any other q is summed densely (`_trig_dense`).
    """
    q = np.asarray(q, dtype=float)
    nh = c.shape[0] - 1
    if (q.ndim == 1 and q.size and nh > 0 and q.size % (2 * nh) == 0
            and np.array_equal(q, q_nodes(q.size))):
        return _trig_resample(c, q.size, deriv)
    return _trig_dense(c, q, deriv)


def _trig_dense(c, q, deriv=False):
    """The series (nh+1, M) at any q (nq,), by the dense exp(i k q) sum."""
    ks = np.arange(c.shape[0])
    phase = np.exp(1j * np.outer(q, ks))
    if deriv:
        phase = phase * (1j * ks)
    return np.real(phase @ c)


def _trig_resample(c, nq, deriv=False):
    """The series (nh+1, M) at `q_nodes(nq)`, nq a multiple of 2 nh.

    exp(i k q_j) = (-1)^k exp(2 pi i k j / nq), so the values are an inverse
    real FFT of length nq of the coefficients, zero-padded above nh.
    irfft counts its first bin once and every other bin twice, up to its own
    Nyquist bin (once, real part only); the sample Nyquist term k = nh is
    real (cosine-only) and lands on that bin only when nq = 2 nh.
    """
    nh = c.shape[0] - 1
    ks = np.arange(nh + 1)
    a = c * np.where(ks % 2, -0.5 * nq, 0.5 * nq)[:, None]
    if deriv:
        a = a * (1j * ks)[:, None]
    spec = np.zeros((nq // 2 + 1, c.shape[1]), dtype=complex)
    spec[:nh + 1] = a
    spec[0] *= 2.0
    if nq == 2 * nh:
        spec[nh] *= 2.0
    return np.fft.irfft(spec, n=nq, axis=0)


def _blend(series, grid, q, p, deriv=False):
    """The interpolant of a sampled series (nh+1, sided columns) at q x p,
    (nq, len(p)): the run of sided columns that p's cells touch is
    resampled once at q (`_trig_eval`), then blended in p (`_blender`)."""
    e, t = grid.p_cell(p)
    if e.size == 0:
        return np.zeros((np.size(q), 0))
    run = slice(e.min(), e.max() + 2)
    return _blender(e - run.start, t)(_trig_eval(series[:, run], q, deriv))


def _blender(e, t):
    """Sided columns blended linearly in p, as a function of the columns:
    at offset t in the cell whose lower end is column e, columns e and
    e + 1.  What depends on the cells alone is found once, here."""
    e1, s = e + 1, 1.0 - t
    return lambda cols: (np.take(cols, e, axis=1) * s
                         + np.take(cols, e1, axis=1) * t)


def interp_rows(arr, grid: Grid, q_t, p_t):
    """Node samples arr (Nq, Np+1) of a continuous field at q_t x p_t, by
    `_blend`."""
    return _blend(_trig_coeffs(arr, grid)[:, grid.sided], grid, q_t, p_t)


# the no-stagnation threshold: a state is admissible where 1 + h_p > EPS_STAG
EPS_STAG = 1e-10


class AdmissibilityError(ValueError):
    """A height field that is not an admissible state."""


class StagnationError(RuntimeError):
    """A state at which the flow stagnates, or comes within EPS_STAG of it."""


@dataclass
class HeightField:
    """Node samples of the modified height on a Grid, with Bernoulli head."""

    grid: Grid
    h: np.ndarray  # (Nq, Np+1)
    Q: float

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        if self.h.shape != (self.grid.Nq, self.grid.Np + 1):
            raise ValueError(f"h has shape {self.h.shape}, expected "
                             f"{(self.grid.Nq, self.grid.Np + 1)}")

    def columns(self, q, deriv=False):
        """h (h_q with `deriv`) at q (nq,) on every node column, (nq, Np+1)."""
        return _trig_eval(_trig_coeffs(self.h, self.grid), q, deriv)

    def h_q(self):
        """Spectral q-derivative at all nodes."""
        return self.columns(self.grid.q, deriv=True)

    def h_p(self):
        """Per-layer p-derivative at all nodes, the layer below's at a jump
        node."""
        return self.grid.node_dp(self.h)

    def amplitude(self, d=1.0):
        """d * (h(0, 0) - h(pi, 0)) / 2, crest-minus-trough half height."""
        return d * (self.h[self.grid.Nq // 2, -1] - self.h[0, -1]) / 2.0

    def min_one_plus_hp(self):
        return float(1.0 + np.min(self.h_p()))   # rounding is monotone

    def check_admissible(self):
        """Raise AdmissibilityError unless h is an admissible state: 0 on
        the bed row, even in q to 1e-12 relative and 1 + h_p > EPS_STAG at
        every node."""
        h = self.h
        if np.any(h[:, 0] != 0.0):
            raise AdmissibilityError("h is not 0 on the bed row p = -1")
        if np.max(np.abs(h - h[-np.arange(len(h)) % len(h)])) \
                > 1e-12 * np.max(np.abs(h)):
            raise AdmissibilityError("h is not even in q")
        if self.min_one_plus_hp() <= EPS_STAG:
            raise AdmissibilityError(f"1 + h_p <= {EPS_STAG} somewhere; "
                                     "the field stagnates")

    def evaluator(self):
        return SampledEvaluator(self)

    def copy(self):
        return HeightField(self.grid, self.h.copy(), self.Q)


def prolong(hf: HeightField, grid: Grid) -> HeightField:
    """hf on `grid`, which halves hf's grid spacings in q and in p.

    hf's nodes are copied.  In q the cosine series is resampled exactly
    (`HeightField.columns`); in p each cell midpoint takes the cubic
    Hermite value (h0 + h1)/2 + dp (h_p+(p0) - h_p-(p1))/8, from h_p on the
    cell's own side of each node (the grid's sided columns), so no cell
    straddles a vorticity jump.
    """
    g = hf.grid
    if (grid.Nq, grid.Np) != (2 * g.Nq, 2 * g.Np):
        raise ValueError(f"cannot prolong {g.Nq}x{g.Np} to "
                         f"{grid.Nq}x{grid.Np}")
    cols = hf.columns(grid.q)
    cols[::2] = hf.h
    hp, e = cols @ g.Dp_sided.T, g.p_cell(g.p_half)[0]
    h = np.empty((grid.Nq, grid.Np + 1))
    h[:, ::2] = cols
    h[:, 1::2] = (0.5 * (cols[:, :-1] + cols[:, 1:])
                  + g.dp / 8.0 * (hp[:, e] - hp[:, e + 1]))
    return HeightField(grid, h, hf.Q)


class SampledEvaluator:
    """Tensor-grid evaluation of a sampled field by `_blend` on the grid's
    sided columns: h_p there is one-sided at each jump node, so a p-cell
    blends h_p from its own vorticity layer at both ends."""

    def __init__(self, hf: HeightField):
        self.grid = g = hf.grid
        self._ah = _trig_coeffs(hf.h, g)[:, g.sided]      # h rows
        self._ahp = _trig_coeffs(hf.h @ g.Dp_sided.T, g)  # h_p rows

    @staticmethod
    def _checked(p):
        p = np.asarray(p, dtype=float)
        if np.any(p < -1.0 - 1e-12) or np.any(p > 1e-12):
            raise ValueError("p out of [-1, 0]")
        return p

    def series(self, name):
        """(series, deriv): the sided series that `name` ("h_at", "hq_at" or
        "hp_at") blends, and whether it takes its q-derivative."""
        if name == "hp_at":
            return self._ahp, False
        return self._ah, name == "hq_at"

    def _at(self, name, q, p):
        series, deriv = self.series(name)
        return _blend(series, self.grid, q, self._checked(p), deriv)

    def h_at(self, q, p):
        return self._at("h_at", q, p)

    def hq_at(self, q, p):
        return self._at("hq_at", q, p)

    def hp_at(self, q, p):
        return self._at("hp_at", q, p)


class AnalyticHeightField:
    """Closed-form even periodic field h = sum_n c_n cos(k_n q) * P_n(p).

    P_n are polynomials (ascending coefficients) with P_n(-1) = 0 so the bed
    condition holds exactly.  Provides the same tensor evaluator interface
    as SampledEvaluator, with exact derivatives.

    The terms are grouped by wavenumber into a coefficient matrix C
    (n_k x deg), row i holding sum of c_n P_n over the terms with k_n = k_i,
    so each evaluation is one product trig(outer(q, k)) @ (C @ vander(p).T).
    """

    def __init__(self, terms, Q=0.0):
        self.terms = []
        for k, coeffs, c in terms:
            coeffs = np.asarray(coeffs, dtype=float)
            if abs(npoly.polyval(-1.0, coeffs)) > 1e-13 * max(1, np.abs(coeffs).max()):
                raise ValueError("p-polynomial must vanish at the bed p=-1")
            self.terms.append((int(k), coeffs, float(c)))
        self.Q = Q
        ks, rows = np.unique([k for k, _, _ in self.terms], return_inverse=True)
        deg = max([2] + [len(cs) for _, cs, _ in self.terms])
        self._C = np.zeros((len(ks), deg))
        for row, (_, coeffs, c) in zip(rows, self.terms):
            self._C[row, :len(coeffs)] += c * coeffs
        self._Cp = self._C[:, 1:] * np.arange(1, deg)   # the p-derivative
        self._k = ks.astype(float)

    def _kq(self, q):
        return np.outer(np.asarray(q, dtype=float), self._k)

    def at_q(self, q):
        """The q-factors (cos(k q), -k sin(k q)) at q (nq,), (nq, n_k) each."""
        kq = self._kq(q)
        return np.cos(kq), np.sin(kq) * -self._k

    def at_p(self, p):
        """{name: f}: h_at, hq_at and hp_at on q x p as functions f(cq, sq)
        of q's factors (`at_q`), with p's polynomials evaluated once, here:
        C and C_p times the Vandermonde rows p^0, p^1, ..., built as
        `npoly.polyvander` builds them (which also turns -0.0 into 0.0)."""
        x = np.array(p, dtype=float, ndmin=1) + 0.0
        vander = np.empty((self._C.shape[1], x.size))
        vander[0] = 1.0
        for i in range(1, len(vander)):
            np.multiply(vander[i - 1], x, out=vander[i])
        P, Pp = self._C @ vander, self._Cp @ vander[:-1]
        return {"h_at": lambda cq, sq: cq @ P, "hq_at": lambda cq, sq: sq @ P,
                "hp_at": lambda cq, sq: cq @ Pp}

    # each forms only the q-factor its `at_p` function reads
    def h_at(self, q, p):
        return self.at_p(p)["h_at"](np.cos(self._kq(q)), None)

    def hq_at(self, q, p):
        return self.at_p(p)["hq_at"](None, np.sin(self._kq(q)) * -self._k)

    def hp_at(self, q, p):
        return self.at_p(p)["hp_at"](np.cos(self._kq(q)), None)

    def sample(self, grid: Grid, Q=None) -> HeightField:
        """Sample onto a grid as a HeightField, with an exactly zero bed row.

        Every P_n vanishes at p = -1, but the product's sum there is only
        round-off small, so the bed row is written as the exact 0 it is.
        """
        h = self.h_at(grid.q, grid.p)
        h[:, 0] = 0.0
        return HeightField(grid, h, self.Q if Q is None else Q)


def random_admissible_field(rng, max_hp=0.2, Q=0.0):
    """Random smooth even periodic field with 1 + h_p > 0 guaranteed.

    Coefficients are drawn with mode-decaying scales and the whole field is
    rescaled by max_hp over its max |h_p| on a 128 x 257 (q, p) sampling
    grid, so there max |h_p| <= max_hp (1 + 1e-14): the rescaled sum may
    exceed max_hp by a few ulp.  max_hp < 1.
    """
    terms = []
    for k in range(4):
        for m in range(3):
            c = rng.standard_normal() / (1.0 + k + m) ** 2
            base = npoly.polymul([1.0, 1.0], npoly.polypow([0.0, 1.0], m) if m
                                 else [1.0])
            terms.append((k, base, c))
    f = AnalyticHeightField(terms, Q=Q)
    qs = q_nodes(128)
    ps = np.linspace(-1.0, 0.0, 257)
    scale = np.max(np.abs(f.hp_at(qs, ps)))
    factor = max_hp / scale if scale > 0 else 1.0
    return AnalyticHeightField([(k, cs, c * factor) for k, cs, c in f.terms],
                               Q=Q)
