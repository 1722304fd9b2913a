"""The mirror x -> L - x of a coupled operator, as even/odd block coordinates."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["MirrorBlocks"]


def _reflection(layout):
    """The mirror x -> L - x as a signed permutation, (R x)[k] = sign[k]
    x[perm[k]]: nodes (i, j) -> (nx - i, j), vx changes sign, the beam
    blocks reverse."""
    grid = layout.grid
    node = np.arange(grid.n_nodes).reshape(grid.shape)[::-1].ravel()
    inner = np.searchsorted(layout.interior_flat, node[layout.interior_flat])
    beam = np.arange(layout.n_beam)[::-1]
    parts = [(layout.sl_rho, node), (layout.sl_vx, inner), (layout.sl_vy, inner),
             (layout.sl_theta, node), (layout.sl_eta1, beam), (layout.sl_eta2, beam)]
    perm = np.concatenate([sl.start + idx for sl, idx in parts])
    sign = np.ones(layout.total)
    sign[layout.sl_vx] = -1.0
    return perm, sign


class MirrorBlocks:
    """The invariant subspaces of a coupled operator A under the mirror R.

    When A commutes exactly with R (`(R A R != A).nnz == 0`), `bases` holds
    R's even and odd subspaces as pairs (rows, P): each pair k < perm[k]
    gives the column e_k + parity sign[k] e_perm[k], each fixed unknown
    (the centre column) gives e_k to the block of its sign.  P is the
    identity on `rows`, so mat[rows] @ P is an exact similarity block of
    any csr mat that commutes with R.  Otherwise one block holds all of A,
    through the same code.  `basis` stacks the blocks' P side by side; its
    columns are orthogonal: states split by basis^T scaled with
    1/|column|^2 and lift back by basis.
    """

    def __init__(self, op):
        n = op.shape[0]
        k = np.arange(n)
        perm, sign = k, np.ones(n)
        if op.layout is not None:
            mirror_perm, mirror_sign = _reflection(op.layout)
            mirror = sp.csr_matrix((mirror_sign, (k, mirror_perm)), shape=(n, n))
            if (mirror @ op.matrix @ mirror != op.matrix).nnz == 0:
                perm, sign = mirror_perm, mirror_sign
        bases = []
        for parity in (1.0, -1.0):
            rows = np.flatnonzero((k < perm) | ((k == perm) & (sign == parity)))
            pair = np.flatnonzero(perm[rows] != rows)
            entries = np.concatenate([np.ones(rows.size), parity * sign[rows[pair]]])
            at = (np.concatenate([rows, perm[rows[pair]]]), np.concatenate([np.arange(rows.size), pair]))
            if rows.size:
                bases.append((rows, sp.csr_matrix((entries, at), shape=(n, rows.size))))
        self.bases = bases
        self.basis = sp.hstack([basis for _, basis in bases], format="csr")
        self._split = (sp.diags(1.0 / self.basis.power(2).sum(axis=0).A1) @ self.basis.T).tocsr()

    def block_diagonal(self, mat: sp.spmatrix) -> sp.csc_matrix:
        """mat on the block coordinates; mat must commute with the mirror."""
        return sp.block_diag([mat[rows] @ basis for rows, basis in self.bases], format="csc")

    def split(self, state: np.ndarray) -> np.ndarray:
        """Block coordinates of one state."""
        return self._split @ state

    def lift(self, coords: np.ndarray) -> np.ndarray:
        """The state of one vector of block coordinates."""
        return self.basis @ coords
