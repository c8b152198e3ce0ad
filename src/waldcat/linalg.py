"""Exact dense linear algebra over GF(p) and over the integers.

All field computations are done with numpy int64 arrays holding residues
in [0, p).  Every odd-prime kernel here, ``rank_stack`` and the batched
span scans built on it included, forms products of two residues and sums
them, so the prime must satisfy p < MODULUS_LIMIT = 2**16: then each
product is below 2**32 and a sum of up to 2**31 of them (any matrix
product or elimination step at desk scale) is exact in int64.  The F_2
bodies of ``_rref_array`` and ``rank_stack`` form no products of
residues: they XOR rows packed into bits.  ``FieldMatrix``, ``Algebra``
and workspace loading reject larger p.  Integer matrices use
arbitrary-precision Python ints so Smith normal form is exact.

There is one elimination entry point, ``_rref_array(a, p)``, with two
bodies chosen by the field.  Over F_2 each row is one Python int, bit j
holding column j, and clearing the pivot column is one XOR into each row
that has the bit.  The systems that module work solves are tiny (the
median captured system of a K_0 command is 4 x 4), so the cost of a numpy
elimination is the fixed cost of its ten or so array calls per pivot
column, not arithmetic.  Bit rows make a few array calls per elimination:
systems of 3 to 16 columns take 30 to 60 % less time, and those of one
or two columns slightly more (the fixed cost of packing).  For odd p,
for each pivot row r it clears the pivot column with one outer-product update of
the rows that have a nonzero entry there and no others: ``sub =
m[hit]``, ``sub -= sub[:, :1] * m[r]``, ``sub %= p``, written back to
``m[hit]``, with the pivot row saved before and restored after (its own
update zeroes it).  Rows with a zero in the pivot column would be left
unchanged by a full update, so skipping them gives the same matrix; on
the tall, half-empty cocycle systems of ``ext1`` that skips most rows.
Both factors are residues, so every product is below p**2 < 2**32 and
the difference lies in (-2**32, p): int64 stays exact.  A row space has
exactly one reduced echelon form, so both bodies return the same form,
and pivots, particular solutions (free coordinates zero) and kernel bases
are those of a row-at-a-time elimination.  Four readers take their
answers off that one form: ``solve`` and ``kernel_basis`` through one
back-substitution, ``_back_substitute``; ``pivot_blocks``, the greedy
left-to-right choice of column blocks; and ``quotient_coordinates``,
coordinates modulo a row space.  Unknown module maps are solved by
``algebra.solve_maps`` on Hom-basis coordinates with these readers.

``FieldMatrix(p, data)`` checks p and reduces its data.  The private
``FieldMatrix._reduced(p, array)`` does neither: it is for results of this
module only, whose p came from a checked matrix and whose int64 entries
are already in [0, p).  Callers outside this module use the checked
constructor.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

MODULUS_LIMIT = 2**16

# Over F_2 a row of at most _WORD columns packs into one int64 word, bit j
# weighted _BIT[j] = 2**j: a packed word is at most 2**63 - 1, so the
# packing product is exact.
_WORD = 63
_BIT = np.int64(1) << np.arange(_WORD, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(p**0.5) + 1):
        if p % q == 0:
            return False
    return True


class FieldMatrix:
    """A rows x cols matrix over GF(p), stored row-major with entries in [0, p)."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        if p >= MODULUS_LIMIT:
            raise ValueError(f"modulus {p} is not below {MODULUS_LIMIT}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        a = np.array(data, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("matrix data must be two-dimensional")
        self.p = p
        self.a = np.mod(a, p)
        self.a.setflags(write=False)

    @classmethod
    def _reduced(cls, p: int, a: np.ndarray) -> "FieldMatrix":
        """Wrap ``a`` without checks: p has passed the public constructor
        and ``a`` is a 2-D int64 array with entries in [0, p)."""
        m = object.__new__(cls)
        m.p = p
        m.a = a
        a.setflags(write=False)
        return m

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @staticmethod
    def zeros(p: int, rows: int, cols: int) -> "FieldMatrix":
        return FieldMatrix(p, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(p: int, n: int) -> "FieldMatrix":
        return FieldMatrix(p, np.eye(n, dtype=np.int64))

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        assert self.p == other.p and self.cols == other.rows
        return FieldMatrix._reduced(self.p, (self.a @ other.a) % self.p)

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        assert self.p == other.p and self.a.shape == other.a.shape
        return FieldMatrix._reduced(self.p, (self.a + other.a) % self.p)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        assert self.p == other.p and self.a.shape == other.a.shape
        return FieldMatrix._reduced(self.p, (self.a - other.a) % self.p)

    def __neg__(self) -> "FieldMatrix":
        return FieldMatrix._reduced(self.p, (-self.a) % self.p)

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix._reduced(self.p, self.a.T)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.p, self.a.shape, self.a.tobytes()))

    def is_zero(self) -> bool:
        return not self.a.any()

    def tolist(self):
        return self.a.tolist()

    def __repr__(self):
        return f"FieldMatrix(p={self.p}, {self.a.tolist()})"


def _rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a copy of ``a``, with its pivot columns.

    The pivot of each column is its first nonzero entry at or below the
    current row, which makes the result and the pivot list deterministic.

    Over F_2 each row is one Python int, bit j holding column j: a row of
    at most ``_WORD`` columns is packed by one int64 product with
    ``_BIT``, a wider one by ``np.packbits``.  A pivot clears its column
    with one XOR into each row that has the bit.  The pivot row is the
    only row with its bit afterwards and is put back.  Rows below the rank
    end up zero.

    For odd p each pivot clears its column with one outer-product update
    of the rows that are nonzero in it; the pivot row is among them and is
    put back afterwards.  Entries left of the pivot column are zero in the
    pivot row, so the update and the row swap touch only the columns from
    the pivot on.
    """
    if p == 2:
        m = np.asarray(a, dtype=np.int64) & 1
        count, cols = m.shape
        if not m.size:
            return m, []
        wide = cols > _WORD
        if wide:
            packed = np.packbits(m, axis=1, bitorder="little")
            rows = [int.from_bytes(row, "little") for row in packed]
        else:
            rows = (m @ _BIT[:cols]).tolist()
        pivots = []
        r = 0
        for c in range(cols):
            bit = 1 << c
            for i in range(r, count):
                if rows[i] & bit:
                    break
            else:
                continue
            x = rows[i]
            rows[i] = rows[r]
            rows = [y ^ x if y & bit else y for y in rows]
            rows[r] = x
            pivots.append(c)
            r += 1
            if r == count:
                break
        if wide:
            size = packed.shape[1]
            packed = np.frombuffer(b"".join(x.to_bytes(size, "little") for x in rows), np.uint8)
            bits = np.unpackbits(packed.reshape(count, size), axis=1, count=cols, bitorder="little")
            return bits.astype(np.int64), pivots
        # every entry of the mask is 0 or a power of two
        return np.sign(np.array(rows, dtype=np.int64)[:, None] & _BIT[:cols]), pivots
    m = np.asarray(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = m[r:, c].nonzero()[0]
        if not len(nz):
            continue
        tail = m[:, c:]
        i = r + int(nz[0])
        if i != r:
            tail[[r, i]] = tail[[i, r]]
        inv = pow(int(tail[r, 0]), p - 2, p)
        if inv != 1:
            tail[r] = tail[r] * inv % p
        hit = tail[:, 0].nonzero()[0]
        if len(hit) > 1:
            row = tail[r].copy()
            sub = tail[hit]
            sub -= sub[:, :1] * row
            sub %= p
            tail[hit] = sub
            tail[r] = row
        pivots.append(c)
        r += 1
    return m, pivots


def _back_substitute(red, piv, n, p, kernel=False):
    """Answers read off the reduced form ``red`` of [A | B], A having n columns.

    Returns ``(x, null)``.  ``x`` solves A x = B with every free coordinate
    zero, or is None when a pivot falls among the columns of B.  ``null``
    (None unless ``kernel``) holds a basis of the kernel of A as columns,
    one per free column c in increasing order: e_c minus the entries of
    the pivot rows in column c, placed at their pivots.
    """
    rank = len(piv)
    if rank and piv[-1] >= n:
        return None, None
    x = np.zeros((n, red.shape[1] - n), dtype=np.int64)
    x[piv] = red[:rank, n:]
    if not kernel:
        return x, None
    is_free = np.ones(n, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    null = np.zeros((n, free.size), dtype=np.int64)
    null[free, np.arange(free.size)] = 1
    null[piv] = (-red[:rank, free]) % p
    return x, null


def rref(m: FieldMatrix) -> tuple[FieldMatrix, tuple[int, ...]]:
    """Reduced row echelon form together with the pivot column indices."""
    red, piv = _rref_array(m.a, m.p)
    return FieldMatrix._reduced(m.p, red), tuple(piv)


def rank(m: FieldMatrix) -> int:
    return len(rref(m)[1])


def rank_stack(stack, p: int) -> np.ndarray:
    """Rank over GF(p) of each matrix in an (N, rows, cols) stack.

    One elimination runs over the whole stack at once.  Each column step
    picks the first nonzero row of every matrix as its pivot row and
    replaces every row by pivot * row - row[c] * pivot_row: scaling a row
    by the nonzero pivot keeps the rank, so no inverse is needed, and the
    pivot row itself becomes zero and drops out.  A matrix gains one rank
    for each column in which it still had a nonzero entry.

    Over F_2 the step is an XOR of the pivot row into the rows that have
    the bit, on rows packed into int64 words of ``_WORD`` bits.  Each
    stack is packed along its shorter side (rank A^T = rank A), so the
    steps are as few as they can be and one word holds a row unless both
    sides are wider than a word.
    """
    if p == 2:
        a = np.asarray(stack, dtype=np.int64) & 1
        count, rows, cols = a.shape
        ranks = np.zeros(count, dtype=np.int64)
        if cols > rows:
            a, cols = a.transpose(0, 2, 1), rows
        if not cols:
            return ranks
        words = np.stack(
            [a[:, :, s : s + _WORD] @ _BIT[: cols - s] for s in range(0, cols, _WORD)], axis=2
        )
        picks = np.arange(count)
        for c in range(cols):
            w, b = divmod(c, _WORD)
            hit = words[:, :, w] >> b & 1
            pivot_row = words[picks, hit.argmax(axis=1)]
            words ^= hit[:, :, None] * pivot_row[:, None, :]
            ranks += pivot_row[:, w] >> b & 1
        return ranks
    a = np.array(stack, dtype=np.int64) % p
    count, rows, cols = a.shape
    ranks = np.zeros(count, dtype=np.int64)
    if rows == 0:
        return ranks
    picks = np.arange(count)
    for c in range(cols):
        nonzero = a[:, :, c] != 0
        has = nonzero.any(axis=1)
        pivot_row = a[picks, nonzero.argmax(axis=1)]
        pivot = np.where(has, pivot_row[:, c], 1)
        a = (pivot[:, None, None] * a - a[:, :, c, None] * pivot_row[:, None, :]) % p
        ranks += has
    return ranks


def solve(a: FieldMatrix, b: FieldMatrix) -> Optional[FieldMatrix]:
    """Some x with a @ x = b, or None if the system is inconsistent.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    assert a.p == b.p and a.rows == b.rows
    red, piv = _rref_array(np.hstack([a.a, b.a]), a.p)
    x, _ = _back_substitute(red, piv, a.cols, a.p)
    return None if x is None else FieldMatrix._reduced(a.p, x)


def kernel_basis(m: FieldMatrix) -> FieldMatrix:
    """Matrix whose columns form a basis of the right null space of m."""
    red, piv = _rref_array(m.a, m.p)
    _, null = _back_substitute(red, piv, m.cols, m.p, kernel=True)
    return FieldMatrix._reduced(m.p, null)


def column_space_basis(m: FieldMatrix) -> FieldMatrix:
    """Columns of m restricted to a basis of the column space.

    The pivot columns of the row reduction are kept, so the choice is
    deterministic (leftmost independent columns).
    """
    _, piv = _rref_array(m.a, m.p)
    return FieldMatrix._reduced(m.p, m.a[:, piv])


def pivot_blocks(blocks, p: int) -> list[int]:
    """Indices of the column blocks holding a pivot of [B_0 | B_1 | ...].

    ``blocks`` are arrays with one shared row count; a block may have no
    columns.  Block b holds a pivot exactly when its columns are not all
    in the span of the blocks before it, so this is the greedy
    left-to-right choice of blocks, read off one elimination.
    """
    owner = np.repeat(np.arange(len(blocks)), [b.shape[1] for b in blocks])
    _, piv = _rref_array(np.hstack(blocks), p)
    return sorted({int(b) for b in owner[piv]})


def quotient_coordinates(m: FieldMatrix) -> tuple[FieldMatrix, list[int]]:
    """(q, free): coordinates modulo the row space of m.

    ``free`` lists m's non-pivot columns and q is the kernel basis of m,
    transposed: q[:, free] = I and q[:, pivots] = -R[:, free]^T for the
    reduced form R of m.  So q kills every row of m, and q applied to the
    identity columns at ``free`` is the identity.
    """
    red, piv = _rref_array(m.a, m.p)
    _, null = _back_substitute(red, piv, m.cols, m.p, kernel=True)
    free = sorted(set(range(m.cols)) - set(piv))
    return FieldMatrix._reduced(m.p, null.T), free


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form
# ---------------------------------------------------------------------------


class IntegerMatrix:
    """Dense matrix with arbitrary-precision integer entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[int]], cols: Optional[int] = None):
        rows = [list(map(int, r)) for r in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged integer matrix")
        else:
            width = 0 if cols is None else cols
        self.rows = len(rows)
        self.cols = width
        self.data = rows

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix([[0] * cols for _ in range(rows)], cols=cols)

    def __repr__(self):
        return f"IntegerMatrix({self.data})"

    def tolist(self):
        return [r[:] for r in self.data]


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n, k = len(a), len(a[0]) if a else 0
    m = len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def smith_normal_form(m: IntegerMatrix):
    """(D, U, V) with U @ m @ V = D diagonal, U and V unimodular.

    The diagonal of D is the divisibility chain d1 | d2 | ... with
    nonnegative entries.
    """
    a = [r[:] for r in m.data]
    rows, cols = m.rows, m.cols
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # find smallest-magnitude nonzero entry in the remaining block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        if a[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] % a[t][t] != 0:
                dirty = True
            add_row(i, t, -(a[i][t] // a[t][t]))
        for j in range(t + 1, cols):
            if a[t][j] % a[t][t] != 0:
                dirty = True
            add_col(j, t, -(a[t][j] // a[t][t]))
        if any(a[i][t] for i in range(t + 1, rows)) or any(
            a[t][j] for j in range(t + 1, cols)
        ):
            continue  # remainders left behind; repeat with a smaller pivot
        if dirty:
            continue
        # pivot must also divide every remaining entry for the chain property
        witness = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    witness = i
                    break
            if witness is not None:
                break
        if witness is not None:
            add_row(t, witness, 1)
            continue
        t += 1

    D = IntegerMatrix.zeros(rows, cols)
    for i in range(limit):
        D.data[i][i] = a[i][i]
    return D, IntegerMatrix(U), IntegerMatrix(V)


class RowLattice:
    """The lattice spanned by the rows of an integer matrix, reduced once.

    One Smith normal form U m V = D serves every question: ``v in lattice``
    holds when each coordinate of v V is divisible by the matching
    diagonal entry of D (and is zero where that entry is zero), and
    ``invariant_factors`` describe Z^cols / lattice.
    """

    def __init__(self, m: IntegerMatrix):
        D, _, V = smith_normal_form(m)
        self.generators = m.data
        self.cols = m.cols
        self._V = V.data
        limit = min(m.rows, m.cols)
        self._diag = [D.data[j][j] if j < limit else 0 for j in range(m.cols)]

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """One factor per column: Z^cols / lattice is the sum of Z/d, Z/0 = Z."""
        nonzero = [d for d in self._diag if d != 0]
        return tuple(nonzero + [0] * (self.cols - len(nonzero)))

    def __contains__(self, v: Sequence[int]) -> bool:
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        w = _mat_mul([list(map(int, v))], self._V)[0]
        return all(x == 0 if d == 0 else x % d == 0 for x, d in zip(w, self._diag))

    def spans(self, other: "RowLattice") -> bool:
        """Does this lattice contain every generating row of ``other``?"""
        return all(r in self for r in other.generators)


def stack(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    if a.cols != b.cols:
        raise ValueError("column mismatch")
    return IntegerMatrix(a.tolist() + b.tolist(), cols=a.cols)
