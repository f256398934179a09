"""Height fields on the rectangle R and their interpolating evaluators.

A HeightField stores node samples h(q_i, p_j) on the full periodic q-grid,
even in q and zero on the bed row.  Off-grid evaluation uses trigonometric
(cosine) interpolation in q and piecewise-linear interpolation in p, never
straddling a vorticity layer boundary; derivative samples come from the
grid's per-layer stencils.  AnalyticHeightField provides the same interface
from closed-form coefficients and is used for synthetic admissible fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .grid import Grid


def spectral_dq(h):
    """Spectral q-derivative along axis 0 of periodic samples (Nq, ...)."""
    Nq = h.shape[0]
    k = np.fft.rfftfreq(Nq, d=1.0 / Nq)
    mult = 1j * k
    mult[-1] = 0.0  # odd Nyquist derivative is not representable
    shape = (len(k),) + (1,) * (h.ndim - 1)
    return np.fft.irfft(np.fft.rfft(h, axis=0) * mult.reshape(shape),
                        n=Nq, axis=0)


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


def _q_nodes(nq):
    """The nq uniform periodic nodes q_j = -pi + 2 pi j / nq."""
    return -np.pi + 2.0 * np.pi / nq * np.arange(nq)


def _trig_eval(c, q, deriv=False):
    """Evaluate the series (nh+1, M) at q (nq,): real result (nq, M).

    When q are nodes of `_q_nodes(n)`, all or a subset such as a support
    window (even one that wraps across q = -pi), with n = 2 pi / (q[1] - q[0])
    a multiple of the sample count 2 nh and at most nq (nh+1), beyond which
    the dense sum is cheaper, the series is resampled exactly on all n nodes
    by a zero-padded inverse FFT and q's rows are returned; any other q is
    summed densely.
    """
    q = np.asarray(q, dtype=float)
    nh = c.shape[0] - 1
    if q.ndim == 1 and q.size > 1 and nh > 0:
        step = (q[1] - q[0]) % (2.0 * np.pi)                # 2 pi / n
        coarse = step * q.size * (nh + 1) >= 2.0 * np.pi    # n <= nq (nh+1)
        n = round(2.0 * np.pi / step) if coarse else 0
        j = np.rint((q + np.pi) / (2.0 * np.pi) * n)
        if (n % (2 * nh) == 0 and np.all((j >= 0) & (j < n))
                and np.array_equal(q, -np.pi + 2.0 * np.pi / n * j)):
            lo = int(j[0])      # q's rows: a view when they are one run
            run = np.array_equal(j, np.arange(lo, lo + q.size))
            return _trig_resample(c, n, deriv)[
                slice(lo, lo + q.size) if run else j.astype(int)]
    return _trig_dense(c, q, deriv)


def _trig_dense(c, q, deriv=False):
    """The series (nh+1, M) at any q (nq,), by the dense exp(i k q) sum."""
    ks = np.arange(c.shape[0])
    phase = np.exp(1j * np.outer(q, ks))
    if deriv:
        phase = phase * (1j * ks)
    return np.real(phase @ c)


def _trig_resample(c, nq, deriv=False):
    """The series (nh+1, M) at `_q_nodes(nq)`, nq a multiple of 2 nh.

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


class AdmissibilityError(ValueError):
    """A height field that is not an admissible state."""


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

    def h_q(self):
        """Spectral q-derivative at all nodes."""
        return spectral_dq(self.h)

    def h_p(self, upper=False):
        """Per-layer p-derivative at all nodes.

        At jump nodes the one-sided value comes from the layer below unless
        `upper` is set.
        """
        return self.grid.node_dp(self.h, upper=upper)

    def surface(self):
        return self.h[:, -1]

    def surface_mean(self):
        return float(np.mean(self.h[:, -1]))

    def amplitude(self, d=1.0):
        """d * (h(0, 0) - h(pi, 0)) / 2, crest-minus-trough half height."""
        return d * (self.h[self.grid.i_q0, -1] - self.h[0, -1]) / 2.0

    def min_one_plus_hp(self):
        return float(1.0 + np.min(self.h_p()))   # rounding is monotone

    def check_admissible(self, eps):
        """Raise AdmissibilityError unless h is an admissible state: 0 on
        the bed row, even in q to 1e-12 relative and 1 + h_p > eps at every
        node."""
        h = self.h
        if np.any(h[:, 0] != 0.0):
            raise AdmissibilityError("h is not 0 on the bed row p = -1")
        if np.max(np.abs(h - h[-np.arange(len(h)) % len(h)])) \
                > 1e-12 * np.max(np.abs(h)):
            raise AdmissibilityError("h is not even in q")
        if self.min_one_plus_hp() <= eps:
            raise AdmissibilityError(f"1 + h_p <= {eps} somewhere; the "
                                     "field stagnates")

    def evaluator(self):
        return SampledEvaluator(self)

    def copy(self):
        return HeightField(self.grid, self.h.copy(), self.Q)


class SampledEvaluator:
    """Tensor-grid evaluation of a sampled field: cosine in q, linear in p."""

    def __init__(self, hf: HeightField):
        self.grid = hf.grid
        g = self.grid
        self._ah = _trig_coeffs(hf.h, g)                  # h rows
        hp_lo = hf.h_p(upper=False)
        hp_hi = hf.h_p(upper=True)
        self._ahp_lo = _trig_coeffs(hp_lo, g)
        self._ahp_hi = _trig_coeffs(hp_hi, g)

    def _locate(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < -1.0 - 1e-12) or np.any(p > 1e-12):
            raise ValueError("p out of [-1, 0]")
        return self.grid.p_cell(p)

    def h_at(self, q, p):
        jc, t = self._locate(p)
        lo = _trig_eval(self._ah[:, jc], q)
        hi = _trig_eval(self._ah[:, jc + 1], q)
        return lo * (1.0 - t) + hi * t

    def hq_at(self, q, p):
        jc, t = self._locate(p)
        lo = _trig_eval(self._ah[:, jc], q, deriv=True)
        hi = _trig_eval(self._ah[:, jc + 1], q, deriv=True)
        return lo * (1.0 - t) + hi * t

    def hp_at(self, q, p):
        # cell-interior value: upper-sided at the cell's lower node, lower-sided
        # at its upper node, so the interpolation stays within one layer
        jc, t = self._locate(p)
        lo = _trig_eval(self._ahp_hi[:, jc], q)
        hi = _trig_eval(self._ahp_lo[:, jc + 1], q)
        return lo * (1.0 - t) + hi * t


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

    @staticmethod
    def _poly(C, p):
        """(n_k, len(p)): each row's p-polynomial at p."""
        return C @ npoly.polyvander(np.asarray(p, dtype=float),
                                    C.shape[1] - 1).T

    def _kq(self, q):
        return np.outer(np.asarray(q, dtype=float), self._k)

    def h_at(self, q, p):
        return np.cos(self._kq(q)) @ self._poly(self._C, p)

    def hq_at(self, q, p):
        return (np.sin(self._kq(q)) * -self._k) @ self._poly(self._C, p)

    def hp_at(self, q, p):
        return np.cos(self._kq(q)) @ self._poly(self._Cp, p)

    def sample(self, grid: Grid, Q=None) -> HeightField:
        """Sample onto a grid as a HeightField, with an exactly zero bed row.

        Every P_n vanishes at p = -1, but the product's sum there is only
        round-off small, so the bed row is written as the exact 0 it is.
        """
        h = self.h_at(grid.q, grid.p)
        h[:, 0] = 0.0
        return HeightField(grid, h, self.Q if Q is None else Q)


def random_admissible_field(rng, max_hp=0.2, kmax=3, mmax=2, Q=0.0):
    """Random smooth even periodic field with 1 + h_p > 0 guaranteed.

    Coefficients are drawn with mode-decaying scales and the whole field is
    rescaled by max_hp over its max |h_p| on a 128 x 257 (q, p) sampling
    grid, so there max |h_p| <= max_hp (1 + 1e-14): the rescaled sum may
    exceed max_hp by a few ulp.  max_hp < 1.
    """
    terms = []
    for k in range(kmax + 1):
        for m in range(mmax + 1):
            c = rng.standard_normal() / (1.0 + k + m) ** 2
            base = npoly.polymul([1.0, 1.0], npoly.polypow([0.0, 1.0], m) if m
                                 else [1.0])
            terms.append((k, base, c))
    f = AnalyticHeightField(terms, Q=Q)
    qs = np.linspace(-np.pi, np.pi, 128, endpoint=False)
    ps = np.linspace(-1.0, 0.0, 257)
    scale = np.max(np.abs(f.hp_at(qs, ps)))
    factor = max_hp / scale if scale > 0 else 1.0
    return AnalyticHeightField([(k, cs, c * factor) for k, cs, c in f.terms],
                               Q=Q)
