"""Laminar modal operator: the fixed-Q Jacobian at a q-invariant state.

At a state that does not depend on q, the Jacobian couples each reduced
q-column r only to itself and to its neighbours r +- 1 (mirrored at q = 0
and q = pi), with the same p-operators in every column.  The solver keeps
its residual rows in the unknowns' (r, j) layout, the surface row of column
r in place of its unknown h(q_r, 0), so the Jacobian reads

    K = I (x) A0 + L (x) A1,   (L x)_r = x_{r-1} + x_{r+1},

and the DCT-I along r diagonalizes L with eigenvalues 2 cos(k pi / nh).  The
DCT-I is numpy's real FFT of the even extension of r = 0 .. nh to the full
period (`_dct1`), which gives the floats of scipy's `dct(type=1)`.  K
therefore splits into the nh + 1 independent banded p-blocks

    M_k = A0 + 2 cos(k pi / nh) A1,   k = 0 .. nh,

one per cosine mode cos(k q).  All of them are factorized in one LAPACK
band LU (`dgbtrf`, partial pivoting) of their block-diagonal matrix, held
in band storage with kl sub- and ku superdiagonals read off A0 and A1 (4
each for the grid's 4th-order p-stencils; 4 and 3 when gamma = 0), and
solved by `dgbtrs`.  The
entries between two blocks are exact zeros, so a pivot search never
reaches past its block and every multiplier across a block boundary is an
exact zero: the factorization is the per-mode LU of each M_k.  The k = 1
block is the discrete form of the Sturm-Liouville dispersion operator of
the linearized wave: it is nearly singular at critical data, and its
near-null vector is the wave mode.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs


def _dct1(x, out=None):
    """Unnormalized DCT-I along the last axis, the real part of the real
    FFT of the even extension [x_0 .. x_n, x_{n-1} .. x_1]; `out` takes
    that complex FFT."""
    ext = np.concatenate([x, x[..., -2:0:-1]], axis=-1)
    return np.fft.rfft(ext, out=out).real


class SingularModeError(np.linalg.LinAlgError):
    """A modal block M_k has an exactly zero pivot."""


class LaminarModes:
    """Exact inverse of a q-invariant fixed-Q Jacobian, mode by mode.

    The Jacobian is given by its p-blocks A0 and A1 (Np x Np) in the
    solver's (r, j) layout, rows and unknowns alike: columns j = 1 .. Np,
    rows the interior residuals j < Np and then the surface row.  Vectors
    in that layout, flattened, have index r*Np + (j-1).  Each block is its
    row-offset table (Np, 2 s + 1): entry [i, s + o] is the block's entry
    (i, i + o), and 0 where i + o leaves 0 .. Np - 1.

    `lu` and `piv` are `dgbtrf`'s factors of the block diagonal
    diag(M_0 .. M_nh) in LAPACK band storage: 2 kl + ku + 1 rows, entry
    (i, j) of the matrix in row kl + ku + i - j of column j, the top kl
    rows room for the fill of the row interchanges.  Raises
    `SingularModeError` if a block is exactly singular.
    """

    def __init__(self, A0, A1, nh):
        Np, s = A0.shape[0], A0.shape[1] // 2
        self.nh, self.Np, self.A0, self.A1 = nh, Np, A0, A1
        self.eig_L = 2.0 * np.cos(np.pi * np.arange(nh + 1) / nh)
        # the complex FFT of both DCT-Is of `solve`, reused: a fresh one
        # per transform costs about as much as the FFT itself
        self._spec = np.empty((Np, nh + 1), dtype=complex)
        self._column = None     # (c, J^{-1} c) of `solve_column`
        # the offsets o = j - i of the entries either block holds
        o = np.flatnonzero(np.any((A0 != 0.0) | (A1 != 0.0), axis=0)) - s
        self.kl = kl = int(np.max(-o, initial=0))
        self.ku = ku = int(np.max(o, initial=0))
        # Fortran order, which dgbtrf takes without a copy; viewed as
        # [band row, column within a block, mode k], each diagonal of every
        # block is one strided slice, filled in place
        band = np.zeros((2 * kl + ku + 1, (nh + 1) * Np), order="F")
        blocks = band.reshape(band.shape[0], Np, nh + 1, order="F")
        for o in range(-kl, ku + 1):
            diag = blocks[kl + ku - o, max(o, 0):Np + min(o, 0)]
            rows = slice(max(-o, 0), Np - max(o, 0))
            np.multiply.outer(A1[rows, s + o], self.eig_L, out=diag)
            diag += A0[rows, s + o, None]
        self.lu, self.piv, info = dgbtrf(band, kl, ku, overwrite_ab=True)
        if info > 0:
            k, j = divmod(info - 1, Np)
            raise SingularModeError(
                f"laminar modal block k = {k} (the cos({k} q) mode) is "
                f"singular: zero pivot in p-row j = {j + 1} of {Np}")

    def solve_modal(self, bhat):
        """Solve M_k xhat_k = bhat_k for every mode; bhat (nh+1, Np)."""
        b = np.ravel(bhat)
        # dgbtrs solves in place, unless b is bhat's own memory
        x, _ = dgbtrs(self.lu, self.kl, self.ku, b, self.piv,
                      overwrite_b=not np.may_share_memory(b, bhat))
        return x.reshape(self.nh + 1, self.Np)

    def solve(self, b):
        """J^{-1} b, b and x in the (r, j) layout.

        The DCT-I along r is `_dct1` on the transposed array, so that its
        even extension makes r the contiguous axis; its floats are those of
        the transform along axis 0.
        """
        bhat = _dct1(b.reshape(self.nh + 1, self.Np).T, self._spec).T
        x = _dct1(self.solve_modal(bhat).T, self._spec)
        x /= 2 * self.nh
        return x.T.ravel()

    def solve_column(self, c):
        """J^{-1} c, kept: a bordered closure's Q column c is the same at
        every solve these modes precondition, so it is solved once."""
        if self._column is None or not np.array_equal(self._column[0], c):
            self._column = c, self.solve(c)
        return self._column[1]

    def _solve_k1(self, b):
        """M_1^{-1} b, b (Np,): the k = 1 block's own columns of the band LU
        are its LU, since no pivot leaves a block (shifted to its rows)."""
        Np = self.Np
        x, _ = dgbtrs(self.lu[:, Np:2 * Np], self.kl, self.ku, b,
                      self.piv[Np:2 * Np] - Np)
        return x

    def neutral_mode(self):
        """Eigenvector of M_1 of smallest |eigenvalue|, surface value 1.

        Inverse iteration from the surface unit vector; at near-critical
        data the contraction per step is the ratio of the two smallest
        eigenvalues, so a few steps reach round-off.
        """
        phi = np.zeros(self.Np)
        phi[-1] = 1.0
        for _ in range(8):
            nxt = self._solve_k1(phi / np.linalg.norm(phi))
            nxt /= nxt[-1]
            if np.max(np.abs(nxt - phi)) <= 1e-15 * np.max(np.abs(nxt)):
                return nxt
            phi = nxt
        return phi

    def surface_response(self):
        """(M_1^{-1} e_s)_s: the k = 1 block's surface-to-surface inverse."""
        return float(self._solve_k1(np.eye(1, self.Np, self.Np - 1)[0])[-1])
