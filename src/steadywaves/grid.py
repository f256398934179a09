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
        """The reduced grid's operators as 1-D factors, built on first use."""
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


# Each source of H as a (q-factor, p-factor) pair, and each operator as
# (source, q-factor, p-factor), the factors named in ReducedOperators
_SOURCES = {"h": ("id", "id"), "hq": ("central", "id"),
            "hp": ("id", "node"), "hp_half": ("id", "half")}
_OPERATORS = {"hp_half": ("hp_half", "id", "id"),
              "hq_half": ("hq", "id", "avg"),
              "dq_edge": ("h", "diff", "inner"),
              "hp_edge": ("hp", "avg", "inner"),
              "h_top": ("h", "id", "top"),
              "hq_top": ("hq", "id", "top"),
              "hp_top": ("hp", "id", "top")}


class ReducedOperators:
    """The reduced grid's operators on H (nh+1, Np+1), as 1-D factor pairs.

    Row r of H is the reduced column q_r = r dq in [0, pi], column j the
    p-node p_j.  An operator maps H to Q S P^T for a source S of H: a
    q-factor Q acts along the rows and a p-factor P along the columns.  The
    sources are H, h_q (the central difference mirrored at q = 0 and pi, so
    h_q = 0 there) and the per-layer h_p at nodes and half nodes (the
    grid's Dp_node and Dp_half, applied by `dp` as one product).  The other
    factors are slices: differences and averages of neighbours, the
    interior p-nodes and the surface node.

    `sample` applies every operator to an array: h_p and h_q at half nodes
    (hp_half, hq_half); dh/dq and h_p at the half q-edges of interior nodes
    (dq_edge, hp_edge); h, h_q and h_p on the surface (h_top, hq_top,
    hp_top).  `div` takes a flux pair (A at half nodes, B at half edges) to
    its divergence at interior nodes; B is odd about q = 0 and pi, so the
    edge next to either counts twice.  A factor's matrix is the factor
    applied to an identity (`q_matrix`, `p_matrix`); `kron` and `kron_div`
    build an operator's Kronecker-product matrix on H.ravel() from them, on
    demand, for an assembled Jacobian.
    """

    def __init__(self, g: Grid):
        self.nh, self.Np, dq, dp = g.Nq // 2, g.Np, g.dq, g.dp

        def central(a):
            hq = np.empty_like(a)
            hq[[0, -1]] = 0.0
            np.subtract(a[2:], a[:-2], out=hq[1:-1])
            hq[1:-1] /= 2 * dq
            return hq

        def q_div(b):       # b is odd about q = 0 and pi
            d = np.empty((len(b) + 1,) + b.shape[1:])
            np.subtract(b[1:], b[:-1], out=d[1:-1])
            d[0], d[-1] = 2.0 * b[0], -2.0 * b[-1]
            d /= dq
            return d

        # q-factors act along axis 0 of an array, p-factors along axis 1 of
        # an array or a sparse matrix; the div factors act on flux values,
        # one fewer than the nodes
        self.q_factors = {"id": lambda a: a, "central": central,
                          "diff": lambda a: (a[1:] - a[:-1]) / dq,
                          "avg": lambda a: 0.5 * (a[1:] + a[:-1]),
                          "div": q_div}
        self.p_factors = {"id": lambda a: a,
                          "node": lambda a: a @ g.Dp_node.T,
                          "half": lambda a: a @ g.Dp_half.T,
                          "avg": lambda a: 0.5 * (a[:, 1:] + a[:, :-1]),
                          "inner": lambda a: a[:, 1:-1],
                          "top": lambda a: a[:, -1],
                          "div": lambda a: (a[:, 1:] - a[:, :-1]) / dp}
        self._dp = sp.vstack((g.Dp_node, g.Dp_half), format="csr")

    def dp(self, H):
        """h_p of H at nodes and at half nodes, from one sparse product."""
        S = (self._dp @ H.T).T
        return S[:, :self.Np + 1], S[:, self.Np + 1:]

    def sample(self, H):
        """The sources and every operator applied to H, by name."""
        hp, hp_half = self.dp(H)
        out = {"h": H, "hq": self.q_factors["central"](H), "hp": hp,
               "hp_half": hp_half}
        for name, (s, qf, pf) in _OPERATORS.items():
            out[name] = self.q_factors[qf](self.p_factors[pf](out[s]))
        return out

    def div(self, A, B):
        """The divergence of the flux pair (A, B) at interior nodes."""
        return self.p_factors["div"](A) + self.q_factors["div"](B)

    def q_matrix(self, *names):
        """The named q-factors, applied in turn, as a sparse matrix."""
        a = np.eye(self.nh + 1 - (names[0] == "div"))
        for k in names:
            a = self.q_factors[k](a)
        return sp.csr_matrix(a)

    def p_matrix(self, *names):
        """The named p-factors, applied in turn, as a sparse matrix."""
        a = sp.identity(self.Np + 1 - (names[0] == "div"), format="csr")
        for k in names:
            a = self.p_factors[k](a)
        return sp.csr_matrix(a.T)

    def kron(self, name):
        """The operator `name` as a sparse matrix on H.ravel()."""
        s, qf, pf = _OPERATORS[name]
        sq, sp_ = _SOURCES[s]
        return sp.kron(self.q_matrix(sq, qf), self.p_matrix(sp_, pf),
                       format="csr")

    def kron_div(self):
        """`div` as a sparse matrix on the flux pair (A.ravel(), B.ravel())."""
        eye = partial(sp.identity, format="csr")
        return sp.hstack((sp.kron(eye(self.nh + 1), self.p_matrix("div")),
                          sp.kron(self.q_matrix("div"), eye(self.Np - 1))),
                         format="csr")
