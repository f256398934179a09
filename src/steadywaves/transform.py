"""Semi-hodograph transform: physical fields from a height field.

The map (q, p) -> (x, y) = (q, d [h(q,p) + p]) carries the rectangle R onto
the fluid domain; its inverse recovers p = psi(x,y)/p0.  The stream function
is reconstructed as psi = p0 * p on p-levels (never by integrating
velocities, so the boundary values are exact), its derivatives from

    psi_x = -p0 h_q / (1 + h_p),      psi_y = p0 / (d (1 + h_p)),

velocities from psi_y = u - c, psi_x = -v, and the pressure from the
Bernoulli identity with the additive constant pinned by P = P_atm at the
surface.  q-derivatives are spectral on the periodic even grid; p-derivatives
use the grid's per-layer stencils.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vorticity import (DomainError, VorticityFunction, FlowParameters,
                        gamma_tilde)
from .field import EPS_STAG, HeightField, StagnationError


@dataclass
class PhysicalFields:
    """Field samples on the curvilinear image of the (q, p) grid."""

    x: np.ndarray        # (Nq,)
    y: np.ndarray        # (Nq, Np+1)
    eta: np.ndarray      # (Nq,)
    psi: np.ndarray      # (Nq, Np+1)
    psi_x: np.ndarray
    psi_y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    P: np.ndarray
    Q: float
    grid: object

    def copy(self):
        return PhysicalFields(self.x.copy(), self.y.copy(), self.eta.copy(),
                              self.psi.copy(), self.psi_x.copy(),
                              self.psi_y.copy(), self.u.copy(), self.v.copy(),
                              self.P.copy(), self.Q, self.grid)


def physical_map(hf: HeightField, params: FlowParameters):
    """(x, y, eta): node positions in the fluid domain and the surface."""
    d = params.d
    y = d * (hf.h + hf.grid.p[None, :])
    if np.any(np.diff(y, axis=1) <= 0):
        raise StagnationError("y is not strictly increasing along a q-column")
    eta = d * hf.h[:, -1]
    return hf.grid.q.copy(), y, eta


def invert_height(hf: HeightField, params: FlowParameters, x, y, rtol=1e-12):
    """p with y = d [h(x, p) + p]; exact inverse of the interpolated map.

    x, y may be scalars or equal-shape arrays.  Each point's bracket is
    found in its own column y_j = d [h(x, p_j) + p_j] from
    `HeightField.columns`, increasing in j, all columns at once; a point
    outside [-d, eta(x)] raises DomainError, the first such point in C order.
    """
    g = hf.grid
    d = params.d
    scalar = np.isscalar(x) and np.isscalar(y)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("x and y must have matching shapes")
    ycols = d * (hf.columns(x.ravel()) + g.p[None, :])   # (n, Np+1)
    yv = y.ravel()
    outside = (yv < ycols[:, 0] - rtol * d) | (yv > ycols[:, -1] + rtol * d)
    if np.any(outside):
        n = int(np.argmax(outside))
        raise DomainError(f"y={yv[n]:g} outside [-d, eta(x)] = "
                          f"[{ycols[n, 0]:g}, {ycols[n, -1]:g}]")
    # the number of column nodes below y, as searchsorted counts them
    below = np.count_nonzero(ycols < yv[:, None], axis=1)
    j = np.clip(below - 1, 0, g.Np - 1)
    lo, hi = ycols[np.arange(yv.size), j], ycols[np.arange(yv.size), j + 1]
    t = (yv - lo) / (hi - lo)
    out = g.p[j] + np.clip(t, 0.0, 1.0) * g.dp
    return float(out[0]) if scalar else out.reshape(x.shape)


def stream_gradient(h_q, h_p, params: FlowParameters):
    """(psi_x, psi_y) = (-p0 h_q / (1 + h_p), p0 / (d (1 + h_p)))."""
    one = 1.0 + h_p
    return -params.p0 * h_q / one, params.p0 / (params.d * one)


def reconstruct_stream(hf: HeightField, params: FlowParameters):
    """(psi, psi_x, psi_y) at the curvilinear nodes; raise
    StagnationError where 1 + h_p <= EPS_STAG, as `check_admissible` and
    the solver's residual refuse such a state."""
    hp = hf.h_p()
    if np.min(1.0 + hp) <= EPS_STAG:
        raise StagnationError(f"1 + h_p <= {EPS_STAG} during reconstruction")
    psi = np.broadcast_to(params.p0 * hf.grid.p[None, :], hf.h.shape).copy()
    psi_x, psi_y = stream_gradient(hf.h_q(), hp, params)
    return psi, psi_x, psi_y


def reconstruct_fields(hf: HeightField, v: VorticityFunction,
                       params: FlowParameters) -> PhysicalFields:
    """Full reconstruction: map, stream, velocities and pressure."""
    x, y, eta = physical_map(hf, params)
    psi, psi_x, psi_y = reconstruct_stream(hf, params)
    gt = gamma_tilde(v, params, hf.grid.p)[None, :]
    P = (params.P_atm + hf.Q / 2.0 - 0.5 * (psi_x ** 2 + psi_y ** 2)
         - params.g * (y + params.d) + gt)
    return PhysicalFields(x=x, y=y, eta=eta, psi=psi, psi_x=psi_x,
                          psi_y=psi_y, u=params.c + psi_y, v=-psi_x, P=P,
                          Q=hf.Q, grid=hf.grid)


def bernoulli_F(fields: PhysicalFields, params: FlowParameters):
    """F = P + |grad psi|^2/2 + g y at the nodes."""
    return fields.P + 0.5 * (fields.psi_x ** 2 + fields.psi_y ** 2) \
        + params.g * fields.y


def bernoulli_function(fields: PhysicalFields, v: VorticityFunction,
                       params: FlowParameters):
    """F and the streamline-collapse report.

    F - gamma_tilde(psi/p0) should be the constant F0 = P_atm + Q/2 - g d;
    the maximum deviation measures how far the pressure is from Bernoulli.
    """
    F = bernoulli_F(fields, params)
    gt = gamma_tilde(v, params, fields.psi / params.p0)
    F0 = params.P_atm + fields.Q / 2.0 - params.g * params.d
    collapse = float(np.max(np.abs(F - gt - F0)))
    return F, {"F0": F0, "collapse_err": collapse}


def summary(fields: PhysicalFields, v: VorticityFunction,
            params: FlowParameters):
    """Scalar diagnostics for reports."""
    _, rep = bernoulli_function(fields, v, params)
    return {
        "max_u_minus_c": float(np.max(fields.u - params.c)),
        "surface_pressure_dev": float(
            np.max(np.abs(fields.P[:, -1] - params.P_atm))),
        "bernoulli_collapse_err": rep["collapse_err"],
    }
