"""Discretization of the fixed rectangle R = [-pi, pi) x [-1, 0].

The q-grid is uniform periodic with q_i = -pi + i * 2pi/Nq, so it contains
both the evenness axis q = 0 and the trough line q = pi.  The p-grid is
uniform with nodes p_j = -1 + j/Np.  Every vorticity breakpoint must land
exactly on a p-node; derivative stencils in p are built per smooth layer
(5-node, one-sided near layer edges) so they never straddle a jump.  A
sampled series is kept on the grid's sided columns (`Grid.sided`), the node
columns with each jump node twice, once per side, and a p-cell reads the
two of its own layer (`Grid.p_cell`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


def mollifier_scales_problem(eps_list, Nq, Np):
    """Why `eps_list` cannot be the mollifier's scales on an Nq x Np grid,
    or None: a scale below two grid spacings, or fewer than two distinct
    scales, too few to fit a rate through."""
    least = 2.0 * max(2.0 * np.pi / Nq, 1.0 / Np) if min(Nq, Np) > 0 else 0.0
    if eps_list and min(eps_list) < least:
        return f"eps={min(eps_list):g} is below 2 grid spacings ({least:g})"
    if len(set(eps_list)) < 2:
        return (f"a rate needs at least two distinct scales, got "
                f"{[float(e) for e in eps_list]}")
    return None


def q_nodes(nq):
    """The nq uniform periodic nodes q_j = -pi + 2 pi j / nq."""
    return -np.pi + 2.0 * np.pi / nq * np.arange(nq)


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
        object.__setattr__(self, "q", q_nodes(self.Nq))
        object.__setattr__(self, "p", -1.0 + dp * np.arange(self.Np + 1))

        jidx = [0, *(aligned_node(b, self.Np) for b in jumps), self.Np]
        if any(b - a < _STENCIL - 1 for a, b in zip(jidx[:-1], jidx[1:])):
            raise GridError("each vorticity layer needs at least "
                             f"{_STENCIL - 1} p-cells at Np={self.Np}")
        object.__setattr__(self, "_layer_edges", tuple(jidx))

        # the sided columns: the Np+1 node columns with each jump node twice,
        # first on the layer below, then on the layer above, so that every
        # p-cell reads its own layer at both ends (`p_cell`)
        Np, jc, j = self.Np, np.arange(self.Np), np.arange(self.Np + 1)
        sided = np.repeat(j, 1 + np.isin(j, jidx[1:-1]))
        upper = np.r_[False, sided[1:] == sided[:-1]]   # a jump's second copy
        object.__setattr__(self, "sided", sided)

        # one operator row (on a column of Np+1 nodes) per stencil: the cell
        # midpoints p_half on their own layer (Dp_half), then the sided
        # columns on their own layer (Dp_sided); Dp_node is Dp_sided's first
        # copy of each node, so the layer below at a jump node.  The _STENCIL
        # in-layer nodes nearest the target, ties to the lower node, all lie
        # within _STENCIL nodes of `center`.
        p_half = self.p[:-1] + 0.5 * dp
        target = np.concatenate((p_half, self.p[sided]))
        center = np.concatenate((jc, sided))
        cell = np.concatenate((jc, np.clip(sided - 1 + upper, 0, Np - 1)))
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
        for name, rows in (("Dp_half", slice(Np)),
                           ("Dp_sided", slice(Np, None)),
                           ("Dp_node", Np + np.flatnonzero(~upper))):
            i, wt = idx[rows], w[rows]
            object.__setattr__(self, name, sp.csr_matrix(
                (wt.ravel(), i.ravel(), np.arange(0, wt.size + 1, _STENCIL)),
                shape=(len(wt), Np + 1)))
        object.__setattr__(self, "p_half", p_half)

    @cached_property
    def operators(self):
        """The reduced grid's operators as 1-D factors, built on first use."""
        return ReducedOperators(self)

    @property
    def jump_nodes(self):
        """p-node indices of the aligned vorticity breakpoints."""
        return tuple(self._layer_edges[1:-1])

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

    def node_dp(self, hcols):
        """Per-layer 4th-order p-derivative at all nodes; hcols ([M,] Np+1).

        At a jump node the one-sided value is the layer below's.
        """
        return hcols @ self.Dp_node.T

    def p_cell(self, p):
        """The sided column e of the lower end of each p's cell, whose upper
        end is e + 1, and p's offset t in [0, 1] from the lower end, in
        cells: the weights of interpolation linear in p within the cell's
        layer.  Cell jc's lower end is the last copy of node jc."""
        p = np.asarray(p, dtype=float)
        jc = np.clip(np.floor((p + 1.0) * self.Np).astype(int), 0,
                     self.Np - 1)
        return (np.searchsorted(self.sided, jc, side="right") - 1,
                np.clip((p - self.p[jc]) / self.dp, 0.0, 1.0))


class ReducedOperators:
    """The reduced grid's operators on H (nh+1, Np+1).

    Row r of H is the reduced column q_r = r dq in [0, pi], column j the
    p-node p_j.  `sample` applies every operator to an array: H itself
    (h); the central h_q, mirrored at q = 0 and pi, so h_q = 0 there (hq);
    the per-layer h_p at nodes and half nodes (hp, hp_half, the grid's
    Dp_node and Dp_half applied by `dp` as one product); h_q at half nodes
    (hq_half); dh/dq and h_p at the half q-edges of interior nodes
    (dq_edge, hp_edge); h, h_q and h_p on the surface (h_top, hq_top,
    hp_top).  `div` takes a flux pair (A at half nodes, B at half edges) to
    its divergence at interior nodes; B is odd about q = 0 and pi, so the
    edge next to either counts twice.
    """

    def __init__(self, g: Grid):
        self.Np, self.dq, self.dp_step = g.Np, g.dq, g.dp
        self._dp = sp.vstack((g.Dp_node, g.Dp_half), format="csr")

    def dp(self, H):
        """h_p of H at nodes and at half nodes, from one sparse product."""
        S = (self._dp @ H.T).T
        return S[:, :self.Np + 1], S[:, self.Np + 1:]

    def sample(self, H):
        """Every operator applied to H, by name."""
        dq = self.dq
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
        d /= self.dq
        return (A[:, 1:] - A[:, :-1]) / self.dp_step + d
