"""The multi-unknown linear-system engine, kept as a test reference.

``LinearSystem`` writes every equation sum_k L_k @ X_k @ R_k = RHS on the
raw entries of its unknown matrices, vectorized column-major, and reads
solutions off one elimination of the augmented system.  The package
solves module maps on Hom-basis coordinates instead
(``algebra.solve_maps``); tests compare that solver, ``hom_basis`` and
the Ext¹ cocycles with answers assembled here entry by entry.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from waldcat.linalg import FieldMatrix, _back_substitute, _rref_array


@dataclass(frozen=True)
class MatVar:
    name: str
    rows: int
    cols: int

    @property
    def size(self) -> int:
        return self.rows * self.cols


def _coefficients(L, v: MatVar, R, p: int) -> np.ndarray:
    """Coefficients of vec(L @ X @ R) in vec(X) for the unknown X = v.

    Vectors are column-major, so this is kron(R^T, L), returned unreduced
    as an (R.cols, L.rows, v.cols, v.rows) array with entry [i, a, j, b]
    = R[j, i] * L[a, b].  R may be None for the identity; L may be None
    for the identity or an int for that multiple of it.  An identity side
    is written as a diagonal, never multiplied out.
    """
    if isinstance(L, FieldMatrix):
        if R is not None:
            return R.a.T[:, None, :, None] * L.a[None, :, None, :]
        block = np.zeros((v.cols, L.rows, v.cols, v.rows), dtype=np.int64)
        diag = np.arange(v.cols)
        block[diag, :, diag, :] = L.a
        return block
    scale = 1 if L is None else L % p
    if R is not None:
        block = np.zeros((R.cols, v.rows, v.cols, v.rows), dtype=np.int64)
        diag = np.arange(v.rows)
        block[:, diag, :, diag] = R.a.T * scale
        return block
    block = np.zeros((v.cols, v.rows, v.cols, v.rows), dtype=np.int64)
    np.fill_diagonal(block.reshape(v.size, v.size), scale)
    return block


class LinearSystem:
    """Linear equations in several unknown matrices over GF(p).

    Each equation is  sum_k  L_k @ X_{v_k} @ R_k = RHS  with known L_k, R_k.
    Unknowns are vectorized column-major, turning L @ X @ R into
    (R^T kron L) vec(X); ``_coefficients`` writes those entries directly.
    """

    def __init__(self, p: int):
        self.p = p
        self.vars: list[MatVar] = []
        self._offsets: dict[str, int] = {}
        self._total = 0
        self._rows: list[np.ndarray] = []
        self._rhs: list[np.ndarray] = []

    def var(self, name: str, rows: int, cols: int) -> MatVar:
        if name in self._offsets:
            raise ValueError(f"duplicate variable {name}")
        v = MatVar(name, rows, cols)
        self._offsets[name] = self._total
        self._total += v.size
        self.vars.append(v)
        return v

    @property
    def total(self) -> int:
        return self._total

    def add_equation(self, terms, rhs: FieldMatrix) -> None:
        """terms: iterable of (L, var, R).  R may be None for the identity;
        L may be None for the identity or an int for that multiple of it."""
        lrows, rcols = rhs.shape
        row = np.zeros((rcols, lrows, self.total), dtype=np.int64)
        for L, v, R in terms:
            block = _coefficients(L, v, R, self.p)
            assert block.shape == (rcols, lrows, v.cols, v.rows), (
                "term shape does not match the unknown or the rhs"
            )
            off = self._offsets[v.name]
            row[:, :, off : off + v.size] += block.reshape(rcols, lrows, v.size)
        self._rows.append(row.reshape(rcols * lrows, self.total) % self.p)
        self._rhs.append(rhs.a.T.reshape(-1, 1))

    def add_rows(self, v: MatVar, coeffs: np.ndarray) -> None:
        """Homogeneous equations coeffs @ vec(X) = 0 on the unknown X = v,
        vectorized column-major; ``coeffs`` has v.size residue columns."""
        off = self._offsets[v.name]
        row = np.zeros((coeffs.shape[0], off + v.size), dtype=np.int64)
        row[:, off:] = coeffs
        self._rows.append(row)
        self._rhs.append(np.zeros((coeffs.shape[0], 1), dtype=np.int64))

    def _eliminate(self, kernel):
        """One elimination of [A | b]; ``_back_substitute`` reads it off."""
        width = self.total
        aug = np.zeros((sum(r.shape[0] for r in self._rows), width + 1), dtype=np.int64)
        top = 0
        for row, rhs in zip(self._rows, self._rhs):
            bottom = top + row.shape[0]
            aug[top:bottom, : row.shape[1]] = row
            aug[top:bottom, width:] = rhs
            top = bottom
        red, piv = _rref_array(aug, self.p)
        return _back_substitute(red, piv, width, self.p, kernel)

    def _unpack(self, x: np.ndarray) -> dict[str, FieldMatrix]:
        out = {}
        for v in self.vars:
            off = self._offsets[v.name]
            block = x[off : off + v.size].reshape((v.rows, v.cols), order="F")
            out[v.name] = FieldMatrix._reduced(self.p, block)
        return out

    def solve(self) -> Optional[dict[str, FieldMatrix]]:
        x, _ = self._eliminate(kernel=False)
        return None if x is None else self._unpack(x[:, 0])

    def solution_space(self):
        """(particular, homogeneous basis) or None if inconsistent.

        The homogeneous basis is a list of unpacked variable dicts.  Both
        come from one elimination of the augmented system.
        """
        x, null = self._eliminate(kernel=True)
        if x is None:
            return None
        basis = [self._unpack(null[:, j]) for j in range(null.shape[1])]
        return self._unpack(x[:, 0]), basis
