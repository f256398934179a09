"""Discretization of the fixed rectangle R = [-pi, pi) x [-1, 0].

The q-grid is uniform periodic with q_i = -pi + i * 2pi/Nq, so it contains
both the evenness axis q = 0 and the trough line q = pi.  The p-grid is
uniform with nodes p_j = -1 + j/Np.  Every vorticity breakpoint must land
exactly on a p-node; derivative stencils in p are built per smooth layer
(5-node, one-sided near layer edges) so they never straddle a jump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp


class GridError(ValueError):
    """A grid that cannot be built: its sizes, or a layer too thin."""


class AlignmentError(GridError):
    """A vorticity breakpoint does not coincide with a p-node."""


def aligned_node(b, n):
    """Index j = (b + 1) n, within 1e-9, of an interior p-node at n cells."""
    j = round((b + 1.0) * n)
    if abs((b + 1.0) * n - j) > 1e-9 or not 0 < j < n:
        raise AlignmentError(f"vorticity breakpoint {b} is not an interior "
                             f"p-node at {n} p-cells")
    return j


def fd_weights(z, x, m):
    """Finite-difference weights for the m-th derivative at z from nodes x.

    Fornberg's recursion; exact for polynomials of degree n-1 for n nodes.
    x may hold a batch of stencils along its leading axes, (..., n), with
    z of the batch's shape; each stencil's weights are the same floats a
    call on that stencil alone gives.
    """
    x = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    n = len(x)
    c = np.zeros((n, m + 1) + x.shape[1:])
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return np.moveaxis(c[:, m], 0, -1)


_STENCIL = 5  # nodes per p-derivative stencil; 4th-order accurate


@dataclass(frozen=True)
class Grid:
    """Tensor grid on R with jump-aligned sparse p-stencil operators."""

    Nq: int
    Np: int
    aligned_jumps: tuple = ()
    q: np.ndarray = field(init=False, repr=False, compare=False)
    p: np.ndarray = field(init=False, repr=False, compare=False)
    dq: float = field(init=False, repr=False, compare=False)
    dp: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.Nq < 8 or self.Nq % 2:
            raise GridError(f"Nq must be an even integer >= 8, got {self.Nq}")
        if self.Np < 8:
            raise GridError(f"Np must be >= 8, got {self.Np}")
        jumps = tuple(sorted(float(b) for b in self.aligned_jumps))
        object.__setattr__(self, "aligned_jumps", jumps)
        dq = 2.0 * np.pi / self.Nq
        dp = 1.0 / self.Np
        object.__setattr__(self, "dq", dq)
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "q", -np.pi + dq * np.arange(self.Nq))
        object.__setattr__(self, "p", -1.0 + dp * np.arange(self.Np + 1))

        jidx = [0, *(aligned_node(b, self.Np) for b in jumps), self.Np]
        if any(b - a < _STENCIL - 1 for a, b in zip(jidx[:-1], jidx[1:])):
            raise GridError("each vorticity layer needs at least "
                             f"{_STENCIL - 1} p-cells at Np={self.Np}")
        object.__setattr__(self, "_layer_edges", tuple(jidx))

        # one operator row (on a column of Np+1 nodes) per stencil: the cell
        # midpoints p_half on their own layer (Dp_half), then the nodes on
        # the layer below (Dp_node, the default one-sided value at a jump
        # node) and on the layer above (Dp_node_hi; identical away from
        # jumps).  The _STENCIL in-layer nodes nearest the target, ties to
        # the lower node, all lie within _STENCIL nodes of `center`.
        Np, jc, j = self.Np, np.arange(self.Np), np.arange(self.Np + 1)
        p_half = self.p[:-1] + 0.5 * dp
        target = np.concatenate((p_half, self.p, self.p))
        center = np.concatenate((jc, j, j))
        cell = np.concatenate((jc, np.clip(j - 1, 0, Np - 1),
                               np.minimum(j, Np - 1)))
        edges = np.array(jidx)
        layer = np.searchsorted(edges, cell, side="right") - 1
        lo, hi = edges[layer, None], edges[layer + 1, None]
        cand = center[:, None] + np.arange(-_STENCIL, _STENCIL + 1)
        dist = np.where((lo <= cand) & (cand <= hi),
                        np.abs(self.p[np.clip(cand, 0, Np)] - target[:, None]),
                        np.inf)
        order = np.argsort(dist, axis=1, kind="stable")[:, :_STENCIL]
        idx = np.sort(np.take_along_axis(cand, order, axis=1), axis=1)
        w = fd_weights(target, self.p[idx], 1)
        for name, i, wt in zip(("Dp_half", "Dp_node", "Dp_node_hi"),
                               np.split(idx, [Np, 2 * Np + 1]),
                               np.split(w, [Np, 2 * Np + 1])):
            object.__setattr__(self, name, sp.csr_matrix(
                (wt.ravel(), i.ravel(), np.arange(0, wt.size + 1, _STENCIL)),
                shape=(len(wt), Np + 1)))
        object.__setattr__(self, "p_half", p_half)

    @cached_property
    def operators(self):
        """The reduced grid's sparse operators, built on first use."""
        return ReducedOperators(self)

    @property
    def jump_nodes(self):
        """p-node indices of the aligned vorticity breakpoints."""
        return tuple(self._layer_edges[1:-1])

    def qmirror(self, i):
        """Reflect a reduced q-index into the valid range [0, Nq/2]."""
        nh = self.Nq // 2
        i = abs(i)
        return 2 * nh - i if i > nh else i

    @property
    def i_q0(self):
        """Full-grid index of q = 0."""
        return self.Nq // 2

    def reduced_from_full(self, arr):
        """Restrict a full even array (Nq, ...) to reduced columns q in [0, pi]."""
        nh = self.Nq // 2
        return np.concatenate((arr[nh:], arr[:1]), axis=0)

    def full_from_reduced(self, red):
        """Mirror reduced columns (q in [0, pi]) to the full even q-grid."""
        nh = self.Nq // 2
        return red[np.abs(np.arange(self.Nq) - nh)]

    def mean_weights_reduced(self):
        """Trapezoid weights over one period for reduced surface columns."""
        nh = self.Nq // 2
        w = np.full(nh + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        return w / (2.0 * nh)

    def node_dp(self, hcols, upper=False):
        """Per-layer 4th-order p-derivative at all nodes; hcols ([M,] Np+1).

        `upper` switches the one-sided value at jump nodes to the layer above.
        """
        return hcols @ (self.Dp_node_hi if upper else self.Dp_node).T


class ReducedOperators:
    """Sparse operators on a reduced array H (nh+1, Np+1) flattened row-major.

    Kronecker products (q x p) of the central D_q mirrored at q = 0 and pi,
    the per-layer D_p, two-point averages and differences, and the surface
    selection: h_p at nodes (dp_node); h_p and h_q at half nodes (dp_half,
    hq_half); dh/dq and h_p at the half q-edges of interior nodes (dq_edge,
    hp_edge); h, h_q and h_p on the surface (h_top, hq_top, hp_top).  div
    takes a flux pair (A at half nodes, B at half edges) to its divergence
    at interior nodes; B is odd about q = 0 and pi, so the edge next to
    either counts twice.  The 1-D p-factors act on one column (Np+1,):
    p_node (h_p at nodes), p_half (h_p at half nodes), p_div (difference
    of half-node values at interior nodes), p_inner (interior nodes) and
    p_top (the surface node).
    """

    def __init__(self, g: Grid):
        nh, Np, eye = g.Nq // 2, g.Np, sp.identity
        r = np.arange(nh + 1)

        def shift(k):       # reduced column r + k, mirrored into [0, nh]
            cols = [g.qmirror(i + k) for i in r]
            return sp.csr_matrix((np.ones(nh + 1), (r, cols)),
                                 shape=(nh + 1, nh + 1))

        def pair(a, b, n):  # a at column i and b at i + 1 of row i
            return sp.diags([a, b], [0, 1], shape=(n, n + 1))

        d_q = (shift(1) - shift(-1)) / (2 * g.dq)
        d_q.eliminate_zeros()               # h_q = 0 where q = 0 or pi
        q_diff = pair(-1.0 / g.dq, 1.0 / g.dq, nh)
        q_div = -sp.diags(np.r_[2.0, np.ones(nh - 1), 2.0]) @ q_diff.T
        self.p_div = pair(-1.0 / g.dp, 1.0 / g.dp, Np - 1)
        self.p_node, self.p_half = g.Dp_node, g.Dp_half
        self.p_inner = sp.eye(Np - 1, Np + 1, k=1, format="csr")
        self.p_top = sp.eye(1, Np + 1, k=Np, format="csr")
        node_dp, inner, top = self.p_node, self.p_inner, self.p_top
        kron = partial(sp.kron, format="csr")
        self.dp_node = kron(eye(nh + 1), node_dp)
        self.dp_half = kron(eye(nh + 1), self.p_half)
        self.hq_half = kron(d_q, pair(0.5, 0.5, Np))
        self.dq_edge = kron(q_diff, inner)
        self.hp_edge = kron(pair(0.5, 0.5, nh), inner @ node_dp)
        self.h_top = kron(eye(nh + 1), top)
        self.hq_top = kron(d_q, top)
        self.hp_top = kron(eye(nh + 1), top @ node_dp)
        self.div = sp.hstack((kron(eye(nh + 1), self.p_div),
                              kron(q_div, eye(Np - 1))), format="csr")
