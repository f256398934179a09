"""Piecewise-polynomial vorticity functions and their exact antiderivatives.

The vorticity gamma lives on the normalized streamline coordinate
p in [-1, 0] and may jump at interior breakpoints.  Both antiderivatives
used by the formulations,

    gamma_tilde(p) = integral_0^p  p0 * gamma(s) ds
    gamma_cap(p)   = integral_0^p  2 d^2 * gamma(s) / p0 ds

are computed in closed form from the polynomial coefficients, so they are
continuous across jumps and exact to round-off.  The speed term K
(`speed_term`) and gamma_cap make the vertical flux A of the solver and
the height pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly


class DomainError(ValueError):
    """A point outside the function's domain: p outside [-1, 0], or a point
    outside the fluid domain (`transform.invert_height`)."""


def _as_scalar_or_array(p):
    """(arr, scalar): p as a float array, and whether p was a scalar; raise
    DomainError for a p outside [-1, 0] (to 1e-14) or NaN.  An empty p
    passes."""
    arr = np.asarray(p, dtype=float)
    if arr.size:
        lo, hi = arr.min(), arr.max()       # NaN if any p is NaN
        if not (lo >= -1.0 - 1e-14 and hi <= 1e-14):
            raise DomainError(f"p must lie in [-1, 0], got range "
                              f"[{lo:g}, {hi:g}]")
    return arr, np.isscalar(p) or arr.ndim == 0


def _horner_table(polys):
    """(deg + 1, n): column k the ascending coefficients of polys[k],
    zero-padded to the longest.  Horner's rule from x*0 + c[-1] over a
    padded column gives `npoly.polyval`'s bits on the unpadded one: each
    padding zero leaves +0, and the top coefficient c is then added to
    (+0)*x, which is polyval's c + x*0."""
    table = np.zeros((max(len(cs) for cs in polys), len(polys)))
    for k, cs in enumerate(polys):
        table[:len(cs), k] = cs
    return table


@dataclass(frozen=True)
class FlowParameters:
    """Physical constants of the flow.

    d      mean depth (> 0)
    g      gravitational acceleration (> 0)
    c      wave speed (> 0)
    p0     relative mass flux (< 0)
    P_atm  atmospheric pressure in dynamic-pressure units
    Q      Bernoulli head of the surface condition; None until determined
    """

    d: float
    g: float
    c: float
    p0: float
    P_atm: float = 0.0
    Q: float | None = None

    def __post_init__(self):
        if not self.d > 0:
            raise ValueError(f"depth d must be positive, got {self.d}")
        if not self.g > 0:
            raise ValueError(f"gravity g must be positive, got {self.g}")
        if not self.c > 0:
            raise ValueError(f"wave speed c must be positive, got {self.c}")
        if not self.p0 < 0:
            raise ValueError(f"mass flux p0 must be negative, got {self.p0}")


@dataclass(frozen=True)
class VorticityFunction:
    """gamma as ordered polynomial pieces partitioning [-1, 0].

    pieces: tuple of (p_lo, p_hi, coeffs) with ascending-power coeffs,
    intervals contiguous and increasing, first p_lo = -1, last p_hi = 0.
    """

    pieces: tuple
    _inner: np.ndarray = field(init=False, repr=False, compare=False)
    _coeffs: tuple = field(init=False, repr=False, compare=False)
    _anti: tuple = field(init=False, repr=False, compare=False)
    _tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pieces = tuple((float(lo), float(hi), tuple(float(c) for c in cs))
                       for lo, hi, cs in self.pieces)
        if not pieces:
            raise ValueError("vorticity needs at least one piece")
        if pieces[0][0] != -1.0 or pieces[-1][1] != 0.0:
            raise ValueError("pieces must cover [-1, 0] exactly")
        for (lo, hi, cs) in pieces:
            if not hi > lo:
                raise ValueError(f"empty or reversed piece [{lo}, {hi}]")
            if not cs:
                raise ValueError("piece needs at least one coefficient")
        for (_, hi, _), (lo, _, _) in zip(pieces[:-1], pieces[1:]):
            if hi != lo:
                raise ValueError(f"pieces must be contiguous, gap at {hi} vs {lo}")
        object.__setattr__(self, "pieces", pieces)
        edges = np.array([p[0] for p in pieces] + [0.0])
        coeffs = tuple(np.array(p[2]) for p in pieces)
        # antiderivative I(p) = int_0^p gamma, assembled top piece down so
        # that I(0) = 0 and I is continuous at every breakpoint
        anti = [None] * len(pieces)
        const = 0.0  # value of I at the upper edge of the current piece
        for k in range(len(pieces) - 1, -1, -1):
            a = npoly.polyint(coeffs[k])
            a[0] += const - npoly.polyval(edges[k + 1], a)
            anti[k] = a
            const = npoly.polyval(edges[k], a)
        object.__setattr__(self, "_inner", edges[1:-1])
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_anti", tuple(anti))
        object.__setattr__(self, "_tables", {"eval": _horner_table(coeffs),
                                             "integral": _horner_table(anti)})

    @property
    def breakpoints(self):
        """Interior piece boundaries in (-1, 0)."""
        return tuple(self._inner)

    @property
    def jump_points(self):
        """Interior breakpoints where gamma is actually discontinuous."""
        out = []
        for b in self.breakpoints:
            if self.eval(b, side="left") != self.eval(b, side="right"):
                out.append(b)
        return tuple(out)

    def _piecewise(self, name, p, side):
        """The polynomial of each p's piece, from `_tables[name]`, at p.

        One `searchsorted` over the interior breakpoints finds the pieces
        (at a breakpoint, the piece above it for side "right", below it for
        "left"; a p within 1e-14 outside [-1, 0] takes the end piece), and
        Horner's rule runs in place over each p's own coefficients, with
        `npoly.polyval`'s operations (`_horner_table`).
        """
        arr, scalar = _as_scalar_or_array(p)
        # searchsorted raises ValueError for any other side
        coeffs = self._tables[name][:, np.searchsorted(self._inner, arr, side)]
        out = arr * 0
        out += coeffs[-1]
        for c in coeffs[-2::-1]:
            out *= arr
            out += c
        return float(out) if scalar else out

    def eval(self, p, side="right"):
        """gamma(p); `side` picks the one-sided value at a jump."""
        return self._piecewise("eval", p, side)

    def integral(self, p):
        """I(p) = integral_0^p gamma(s) ds, exact and continuous."""
        return self._piecewise("integral", p, "right")


def gamma_tilde(v: VorticityFunction, params: FlowParameters, p):
    """gamma_tilde(p) = integral_0^p p0 * gamma; continuous, 0 at p=0."""
    return params.p0 * v.integral(p)


def gamma_cap(v: VorticityFunction, params: FlowParameters, p):
    """gamma_cap(p) = 2 d^2 / p0 * integral_0^p gamma; continuous, 0 at p=0."""
    return (2.0 * params.d ** 2 / params.p0) * v.integral(p)


def speed_term(hq, u2, d):
    """K = -(1 + d^2 h_q^2) / (2 d^2 u2), u2 = (1 + h_p)^2.

    K is the kinetic part of both the surface row and the vertical flux
    A = K + gamma_cap / (2 d^2).
    """
    return -(1.0 + d * d * hq ** 2) / (2 * d * d * u2)


def _roots_in(cs, a, b):
    """Real roots in [a, b] of the polynomial with ascending coefficients
    cs; none for the zero polynomial."""
    if len(cs) == 1 and cs[0] == 0:
        return []
    return [r.real for r in np.atleast_1d(npoly.polyroots(cs))
            if abs(r.imag) < 1e-12 and a <= r.real <= b]


def _extremum_candidates(v: VorticityFunction):
    """Per piece k, the points where gamma_cap may take an extremum.

    These are the piece's edges and the real roots of gamma inside it (the
    derivative of the antiderivative is gamma itself).
    """
    for k, (a, b, _) in enumerate(v.pieces):
        yield k, [a, b, *_roots_in(v._coeffs[k], a, b)]


def gamma_cap_min(v: VorticityFunction, params: FlowParameters):
    """Exact minimum of gamma_cap over [-1, 0] (per-piece polynomial extrema)."""
    scale = 2.0 * params.d ** 2 / params.p0
    return float(min((scale * npoly.polyval(np.asarray(cand), v._anti[k])).min()
                     for k, cand in _extremum_candidates(v)))


def gamma_cap_critical_points(v: VorticityFunction):
    """Sorted points of [-1, 0] where gamma_cap may take a local extremum."""
    return np.unique(np.concatenate(
        [cand for _, cand in _extremum_candidates(v)]))


def zero_vorticity():
    """gamma identically zero on [-1, 0]."""
    return VorticityFunction(pieces=((-1.0, 0.0, (0.0,)),))


def two_layer(A, p_jump=-0.5):
    """gamma = A on [-1, p_jump), 0 on [p_jump, 0]: a sheared bottom layer."""
    if not -1.0 < p_jump < 0.0:
        raise ValueError("jump point must be interior to (-1, 0)")
    return VorticityFunction(pieces=((-1.0, p_jump, (float(A),)),
                                     (p_jump, 0.0, (0.0,))))
