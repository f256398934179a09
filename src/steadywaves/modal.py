"""Laminar modal operator: the fixed-Q Jacobian at a q-invariant state.

At a state that does not depend on q, the Jacobian couples each reduced
q-column r only to itself and to its neighbours r +- 1 (mirrored at q = 0
and q = pi), with the same p-operators in every column.  The solver keeps
its residual rows in the unknowns' (r, j) layout, the surface row of column
r in place of its unknown h(q_r, 0), so the Jacobian reads

    K = I (x) A0 + L (x) A1,   (L x)_r = x_{r-1} + x_{r+1},

and the DCT-I along r diagonalizes L with eigenvalues 2 cos(k pi / nh).  K
therefore splits into the nh + 1 independent banded p-blocks

    M_k = A0 + 2 cos(k pi / nh) A1,   k = 0 .. nh,

one per cosine mode cos(k q).  All of them are factorized in one banded LU
of their block-diagonal matrix; in the natural ordering it fills nothing
outside the band.  The k = 1 block is the discrete form of the
Sturm-Liouville dispersion operator of the linearized wave: it is nearly
singular at critical data, and its near-null vector is the wave mode.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dct


class LaminarModes:
    """Exact inverse of a q-invariant fixed-Q Jacobian, mode by mode.

    The Jacobian is given by its p-blocks A0 and A1 (Np x Np, sparse) in
    the solver's (r, j) layout, rows and unknowns alike: columns
    j = 1 .. Np, rows the interior residuals j < Np and then the surface
    row.  Vectors in that layout, flattened, have index r*Np + (j-1).
    """

    def __init__(self, A0, A1, nh, Np):
        self.nh, self.Np = nh, Np
        self.A0, self.A1 = sp.csr_matrix(A0), sp.csr_matrix(A1)
        self.eig_L = 2.0 * np.cos(np.pi * np.arange(nh + 1) / nh)
        blocks = (sp.kron(sp.identity(nh + 1), self.A0)
                  + sp.kron(sp.diags(self.eig_L), self.A1))
        self.lu = spla.splu(blocks.tocsc(), permc_spec="NATURAL")

    def solve_modal(self, bhat):
        """Solve M_k xhat_k = bhat_k for every mode; bhat (nh+1, Np)."""
        return self.lu.solve(np.ravel(bhat)).reshape(self.nh + 1, self.Np)

    def solve(self, b):
        """J^{-1} b, b and x in the (r, j) layout.

        The DCT-I along r runs on the transposed array, whose r axis is
        contiguous; its floats are those of the transform along axis 0.
        """
        bhat = dct(b.reshape(self.nh + 1, self.Np).T, type=1, axis=1).T
        x = dct(self.solve_modal(bhat).T, type=1, axis=1).T / (2 * self.nh)
        return x.ravel()

    def neutral_mode(self):
        """Eigenvector of M_1 of smallest |eigenvalue|, surface value 1.

        Inverse iteration from the surface unit vector; at near-critical
        data the contraction per step is the ratio of the two smallest
        eigenvalues, so a few steps reach round-off.
        """
        bhat = np.zeros((self.nh + 1, self.Np))
        phi = np.zeros(self.Np)
        phi[-1] = 1.0
        for _ in range(8):
            bhat[1] = phi / np.linalg.norm(phi)
            nxt = self.solve_modal(bhat)[1]
            nxt /= nxt[-1]
            if np.max(np.abs(nxt - phi)) <= 1e-15 * np.max(np.abs(nxt)):
                return nxt
            phi = nxt
        return phi

    def surface_response(self):
        """(M_1^{-1} e_s)_s: the k = 1 block's surface-to-surface inverse."""
        bhat = np.zeros((self.nh + 1, self.Np))
        bhat[1, -1] = 1.0
        return float(self.solve_modal(bhat)[1, -1])
