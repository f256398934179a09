"""Flat-surface (q-independent) flows of the height system, used as oracles.

With h_q = 0 the divergence-form interior equation says the vertical flux is
constant, which integrates to

    1 + h_p = (lam + gamma_cap(p))**(-1/2)

for a constant lam > -min gamma_cap.  The zero-mean surface condition pins
lam through  integral_{-1}^{0} (lam + gamma_cap)**(-1/2) dp = 1, and the
dynamic surface condition then gives  Q = 2 g d + p0^2 lam / d^2.

Both integrals are composite Gauss-Legendre sums.  The panels split at every
vorticity breakpoint, and they are graded geometrically toward every point
where gamma_cap may have a local minimum: near the admissibility floor the
integrand has an inverse-square-root peak there, which the grading resolves
however close lam is to the floor.  The panels do not depend on lam, so
the lam solve evaluates gamma_cap once and reuses it in every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vorticity import (VorticityFunction, FlowParameters, gamma_cap,
                        gamma_cap_min, gamma_cap_critical_points)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GRADING = 0.5 ** np.arange(1, 61)     # panel edges at 2^-k of the reach


class LaminarError(RuntimeError):
    """No laminar flow could be computed for this vorticity."""


class BracketError(LaminarError):
    """The normalization integral never reaches 1; no admissible lam exists."""


@dataclass(frozen=True)
class LaminarFlow:
    """A q-independent solution sampled on a p-grid."""

    lam: float
    p: np.ndarray
    h: np.ndarray
    h_p: np.ndarray
    Q: float


def _rule(v: VorticityFunction, params: FlowParameters, edges):
    """Composite Gauss-Legendre rule over [edges[0], edges[-1]].

    Panels split at the edges and the vorticity breakpoints, and are graded
    toward each critical point of gamma_cap by 60 halvings of the distance
    to the next cut.  Returns gamma_cap at the nodes, the weights and, per
    node, the index of the interval of `edges` that holds it.
    """
    lo, hi = edges[0], edges[-1]
    peaks = [c for c in gamma_cap_critical_points(v) if lo <= c <= hi]
    cuts = np.union1d(edges, [b for b in v.breakpoints if lo < b < hi] + peaks)
    parts = [cuts]
    for c in peaks:
        i = np.searchsorted(cuts, c)
        if i > 0:
            parts.append(c - (c - cuts[i - 1]) * _GRADING)
        if i + 1 < len(cuts):
            parts.append(c + (cuts[i + 1] - c) * _GRADING)
    e = np.unique(np.concatenate(parts))
    half = 0.5 * np.diff(e)
    nodes = (e[:-1] + half)[:, None] + half[:, None] * _GL_NODES
    weights = half[:, None] * _GL_WEIGHTS
    cell = np.searchsorted(edges, e[:-1], side="right") - 1
    return (gamma_cap(v, params, nodes.ravel()), weights.ravel(),
            np.repeat(cell, len(_GL_NODES)))


def _newton_bisect(fun, lo, hi):
    """Root of fun in [lo, hi], where fun(lo) > 0 > fun(hi).

    fun returns (value, derivative).  A Newton step that leaves the bracket
    or fails to halve the previous step is replaced by bisection; the
    iteration stops once the step is down to round-off.
    """
    x, step_old = 0.5 * (lo + hi), hi - lo
    for _ in range(200):
        f, df = fun(x)
        if f == 0.0:
            break
        if f > 0.0:
            lo = x
        else:
            hi = x
        step = -f / df
        if not lo < x + step < hi or abs(2.0 * step) > abs(step_old):
            step = 0.5 * (lo + hi) - x
        x, step_old = x + step, step
        if abs(step) <= 2e-16 * abs(x):
            break
    return x


def solve_lambda(v: VorticityFunction, params: FlowParameters,
                 tol=1e-12) -> float:
    """The unique lam with |I(lam) - 1| <= tol + |I'(lam)| ulp(lam).

    I(lam) = integral_{-1}^0 (lam + gamma_cap(p))**(-1/2) dp on the graded
    panels, summed as 1 + integral (integrand - 1), so that the width of
    [-1, 0] is exact.  The test is on the backward error: near
    the admissibility floor |I'| is in the thousands, and one ulp of a
    correct lam moves I by more than tol.
    """
    G, w, _ = _rule(v, params, np.array([-1.0, 0.0]))

    def excess(lam):
        f = (lam + G) ** -0.5
        return w @ (f - 1.0), -0.5 * (w @ f ** 3)

    lam_floor = -gamma_cap_min(v, params)
    lam_lo = lam_floor + 1e-9 * max(1.0, abs(lam_floor))
    g_lo = excess(lam_lo)[0] + 1.0
    if g_lo < 1.0:
        raise BracketError(
            f"normalization integral reaches at most {g_lo:.6g} < 1 "
            f"as lam -> {lam_floor:.6g}; no laminar flow for this vorticity")
    lam_hi = max(1.0, 2.0 * abs(lam_lo))
    while excess(lam_hi)[0] >= 0.0:
        lam_hi *= 2.0
        if lam_hi > 1e12:
            raise BracketError("failed to bracket lam from above")
    lam = _newton_bisect(excess, lam_lo, lam_hi)
    resid, slope = excess(lam)
    bound = tol + abs(slope) * np.spacing(lam)
    if abs(resid) > bound:
        raise LaminarError(f"lambda solve stalled, |integral-1| = "
                           f"{abs(resid):.2e} > {bound:.2e}")
    return float(lam)


def laminar_height(lam, v: VorticityFunction, params: FlowParameters, p_grid):
    """h(p) = integral_{-1}^p [(lam+gamma_cap)**(-1/2) - 1] ds on p_grid."""
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid[0] != -1.0 or np.any(np.diff(p_grid) <= 0):
        raise ValueError("p_grid must start at -1 and increase")
    G, w, cell = _rule(v, params, p_grid)
    per_cell = np.bincount(cell, weights=w * ((lam + G) ** -0.5 - 1.0),
                           minlength=len(p_grid) - 1)
    return np.concatenate(([0.0], np.cumsum(per_cell)))


def laminar_Q(lam, params: FlowParameters) -> float:
    """Bernoulli head of the laminar flow: Q = 2 g d + p0^2 lam / d^2."""
    return 2.0 * params.g * params.d + params.p0 ** 2 * lam / params.d ** 2


def solve(v: VorticityFunction, params: FlowParameters, p_grid) -> LaminarFlow:
    """Full laminar solve: lam, profile and Q on the given p-grid."""
    lam = solve_lambda(v, params)
    p_grid = np.asarray(p_grid, dtype=float)
    h = laminar_height(lam, v, params, p_grid)
    h_p = (lam + gamma_cap(v, params, p_grid)) ** -0.5 - 1.0
    return LaminarFlow(lam=lam, p=p_grid, h=h, h_p=h_p, Q=laminar_Q(lam, params))
