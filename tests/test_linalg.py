"""Tests for exact linear algebra over GF(p) and Smith normal form.

Expected values are either worked by hand (frozen below) or recomputed by
small brute-force oracles inside this file.
"""

import functools
import itertools
import random
from unittest import mock

import numpy as np
import pytest

import waldcat.algebra as alg
import waldcat.linalg as la
from waldcat.linalg import (
    MODULUS_LIMIT,
    FieldMatrix,
    IntegerMatrix,
    RowLattice,
    column_space_basis,
    kernel_basis,
    quotient_coordinates,
    rank,
    rank_stack,
    rref,
    smith_normal_form,
    solve,
    stack,
)
from waldcat.workspace import corpus_path, load_workspace

from linear_system_reference import LinearSystem, MatVar, _coefficients


def test_rref_identity_fixed_point():
    m = FieldMatrix.identity(2, 3)
    red, piv = rref(m)
    assert red == m
    assert piv == (0, 1, 2)


def test_rref_rank_one_f2():
    # hand reduction: subtract row 0 from row 1
    m = FieldMatrix(2, [[1, 1], [1, 1]])
    red, piv = rref(m)
    assert red.tolist() == [[1, 1], [0, 0]]
    assert piv == (0,)


def test_rref_zero():
    m = FieldMatrix.zeros(5, 2, 2)
    red, piv = rref(m)
    assert red.is_zero()
    assert piv == ()


def test_field_matrix_rejects_modulus_beyond_exact_range():
    # 2**31 - 1 is prime, and a 1x3 by 3x1 product of entries p - 1 would
    # overflow int64 (it came out as p - 1 instead of 3)
    p = 2**31 - 1
    with pytest.raises(ValueError, match="not below"):
        FieldMatrix(p, [[p - 1] * 3])
    with pytest.raises(ValueError, match="not below"):
        FieldMatrix(MODULUS_LIMIT + 1, [[1]])
    with pytest.raises(ValueError, match="not prime"):
        FieldMatrix(4, [[1]])
    largest = 65521  # the largest prime below MODULUS_LIMIT
    row = FieldMatrix(largest, [[largest - 1] * 3])
    assert (row @ row.transpose()).tolist() == [[3]]


def test_solve_identity():
    b = FieldMatrix(3, [[2], [1]])
    x = solve(FieldMatrix.identity(3, 2), b)
    assert x == b


def test_solve_by_enumeration_oracle_f2():
    # all 4 candidate vectors for [[1,1]] x = [1]; the valid set is {10, 01}
    a = FieldMatrix(2, [[1, 1]])
    b = FieldMatrix(2, [[1]])
    valid = []
    for bits in itertools.product([0, 1], repeat=2):
        cand = FieldMatrix(2, [[bits[0]], [bits[1]]])
        if a @ cand == b:
            valid.append(cand.tolist())
    assert sorted(valid) == [[[0], [1]], [[1], [0]]]
    x = solve(a, b)
    assert x is not None and x.tolist() in valid


def test_solve_inconsistent():
    a = FieldMatrix(2, [[1, 1], [1, 1]])
    b = FieldMatrix(2, [[1], [0]])
    assert solve(a, b) is None


def test_kernel_of_sum_functional_f2():
    m = FieldMatrix(2, [[1, 1]])
    k = kernel_basis(m)
    assert k.cols == 1
    assert k.a[:, 0].tolist() == [1, 1]


def test_kernel_of_injective_map_is_trivial():
    m = FieldMatrix(3, [[1, 0], [0, 1], [1, 2]])
    assert kernel_basis(m).cols == 0


def test_column_space_membership():
    a = FieldMatrix(5, [[1, 2], [2, 4]])
    assert solve(a, FieldMatrix(5, [[3], [6]])) is not None
    assert solve(a, FieldMatrix(5, [[1], [0]])) is None
    basis = column_space_basis(a)
    assert basis.cols == 1


def test_rank_nullity_random():
    rng = random.Random(20260823)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        m = FieldMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) + kernel_basis(m).cols == cols


def test_rank_stack_agrees_with_rank():
    rng = np.random.default_rng(20261018)
    for p in (2, 3, 5):
        for rows, cols in ((0, 0), (1, 1), (0, 3), (3, 0), (3, 3), (4, 6), (6, 4)):
            stack = [np.zeros((rows, cols), dtype=np.int64)]
            if rows == cols:
                stack.append(np.eye(rows, dtype=np.int64))
            stack.extend(rng.integers(0, p, size=(40, rows, cols)))
            # low-rank members: products through a thin middle dimension
            for inner in range(min(rows, cols) + 1):
                left = rng.integers(0, p, size=(rows, inner))
                right = rng.integers(0, p, size=(inner, cols))
                stack.append(left @ right)
            stack = np.stack(stack).astype(np.int64)
            expected = [rank(FieldMatrix(p, m)) for m in stack]
            assert rank_stack(stack, p).tolist() == expected


def test_rank_stack_of_empty_stack():
    assert rank_stack(np.zeros((0, 3, 3), dtype=np.int64), 2).tolist() == []


def test_solve_iff_in_column_space_random():
    rng = random.Random(911)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        a = FieldMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        b = FieldMatrix(p, [[rng.randrange(p)] for _ in range(rows)])
        x = solve(a, b)
        if x is not None:
            assert a @ x == b
        else:
            # brute-force confirm no solution for small spaces
            if p**cols <= 3**6:
                for cand in itertools.product(range(p), repeat=cols):
                    v = FieldMatrix(p, [[c] for c in cand])
                    assert a @ v != b


def _pivot_loop_projection(m):
    """Projection modulo the row space of m by the per-pivot update loop
    that cokernels used: subtract each reduced row from the identity at its
    pivot column, then keep the rows at the non-pivot coordinates."""
    p, n = m.p, m.cols
    reduced, pivots = rref(m)
    red = np.eye(n, dtype=np.int64)
    for row_idx, piv in enumerate(pivots):
        unit = np.zeros(n, dtype=np.int64)
        unit[piv] = 1
        red = (red - np.outer(reduced.a[row_idx], unit)) % p
    free = [c for c in range(n) if c not in pivots]
    return red[free], free


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_quotient_coordinates_match_pivot_loop_projection(p):
    rng = np.random.default_rng(p)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 7)]
    for rows, cols in shapes * 6:
        inner = int(rng.integers(0, min(rows, cols) + 1))
        # a product through a thin middle dimension leaves dependent rows
        data = rng.integers(0, p, size=(rows, inner)) @ rng.integers(
            0, p, size=(inner, cols)
        )
        m = FieldMatrix(p, data)
        q, free = quotient_coordinates(m)
        expected, expected_free = _pivot_loop_projection(m)
        assert free == expected_free
        assert q.shape == (cols - rank(m), cols)
        assert q.a.tolist() == expected.tolist()
        assert (q @ m.transpose()).is_zero()
        section = FieldMatrix(p, np.eye(cols, dtype=np.int64)[:, free])
        assert q @ section == FieldMatrix.identity(p, len(free))


def test_kernel_columns_annihilated_random():
    rng = random.Random(7)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        m = FieldMatrix(p, [[rng.randrange(p) for _ in range(6)] for _ in range(4)])
        k = kernel_basis(m)
        if k.cols:
            assert (m @ k).is_zero()


# --- Smith normal form -----------------------------------------------------


def test_smith_single_entry():
    assert RowLattice(IntegerMatrix([[2]])).invariant_factors == (2,)


def test_smith_two_by_two_hand_oracle():
    # [[4,2],[2,2]]: gcd of entries 2 gives d1 = 2; |det| = 4 = d1*d2 so d2 = 2.
    m = IntegerMatrix([[4, 2], [2, 2]])
    assert RowLattice(m).invariant_factors == (2, 2)


def test_smith_zero_relations_present_free_group():
    m = IntegerMatrix([[0, 0]])
    assert RowLattice(m).invariant_factors == (0, 0)


def test_smith_identity():
    m = IntegerMatrix([[1, 0], [0, 1]])
    assert RowLattice(m).invariant_factors == (1, 1)


def test_smith_transform_identity():
    rng = random.Random(13)
    for _ in range(80):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = IntegerMatrix(
            [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        )
        D, U, V = smith_normal_form(m)
        # U m V == D, and the diagonal is a nonnegative divisibility chain
        prod = np.array(U.tolist()) @ np.array(m.tolist(), dtype=object) @ np.array(
            V.tolist(), dtype=object
        )
        assert prod.tolist() == D.tolist()
        diag = [D.data[i][i] for i in range(min(rows, cols))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # unimodularity
        assert abs(round(np.linalg.det(np.array(U.tolist(), dtype=float)))) == 1
        assert abs(round(np.linalg.det(np.array(V.tolist(), dtype=float)))) == 1


def _random_unimodular(rng, n):
    m = np.eye(n, dtype=object)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        c = rng.randrange(-2, 3)
        if i != j:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def test_smith_invariant_under_unimodular_ops():
    rng = random.Random(512)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        facs = RowLattice(IntegerMatrix(m)).invariant_factors
        u = _random_unimodular(rng, rows)
        v = _random_unimodular(rng, cols)
        m2 = (u @ np.array(m, dtype=object) @ v).tolist()
        assert RowLattice(IntegerMatrix(m2)).invariant_factors == facs


def test_row_lattice_membership():
    m = IntegerMatrix([[2, 0], [0, 3]])
    assert [2, 3] in RowLattice(m)
    assert [4, 0] in RowLattice(m)
    assert [1, 0] not in RowLattice(m)
    assert [0, 1] not in RowLattice(m)


def test_row_lattice_membership_matches_invariant_factor_oracle():
    # L and L + Zv have the same invariant factors exactly when v lies in L,
    # since Z^n / L maps onto Z^n / (L + Zv)
    rng = random.Random(77)
    hits = 0
    for _ in range(60):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        m = IntegerMatrix([[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)])
        lattice = RowLattice(m)
        for _ in range(5):
            v = [rng.randrange(-6, 7) for _ in range(cols)]
            grown = RowLattice(stack(m, IntegerMatrix([v]))).invariant_factors
            inside = grown == lattice.invariant_factors
            assert (v in lattice) == inside
            hits += inside
        assert all(r in lattice for r in m.data)
    assert 0 < hits < 300


def test_row_lattices_equal():
    a = IntegerMatrix([[2, 0], [0, 2]])
    b = IntegerMatrix([[2, 2], [2, -2]])
    c = IntegerMatrix([[2, 2], [0, 2]])
    la, lb, lc = RowLattice(a), RowLattice(b), RowLattice(c)
    assert la.spans(lb) and not lb.spans(la)  # b has index 2 in a
    assert la.spans(lc) and lc.spans(la)


# --- LinearSystem ----------------------------------------------------------


def test_linear_system_single_unknown():
    # X @ A = B with A invertible has the unique solution B A^{-1}
    p = 5
    sys = LinearSystem(p)
    x = sys.var("x", 2, 2)
    A = FieldMatrix(p, [[1, 2], [0, 1]])
    B = FieldMatrix(p, [[3, 0], [1, 1]])
    sys.add_equation([(None, x, A)], B)
    sol = sys.solve()
    assert sol is not None
    assert sol["x"] @ A == B


def test_linear_system_two_unknowns_coupled():
    # over GF(2): X + Y = C and X = D forces Y = C - D
    p = 2
    sys = LinearSystem(p)
    x = sys.var("x", 2, 2)
    y = sys.var("y", 2, 2)
    C = FieldMatrix(p, [[1, 0], [1, 1]])
    D = FieldMatrix(p, [[0, 1], [1, 0]])
    sys.add_equation([(None, x, None), (None, y, None)], C)
    sys.add_equation([(None, x, None)], D)
    sol = sys.solve()
    assert sol is not None
    assert sol["x"] == D
    assert sol["x"] + sol["y"] == C


def test_linear_system_inconsistent():
    sys = LinearSystem(2)
    x = sys.var("x", 1, 1)
    zero = FieldMatrix(2, [[0]])
    one = FieldMatrix(2, [[1]])
    sys.add_equation([(zero, x, None)], one)
    assert sys.solve() is None


def test_linear_system_solution_space_dimension():
    # X: 2x2 with X @ e1 = 0 leaves the second column free: 2 dimensions
    p = 3
    sys = LinearSystem(p)
    x = sys.var("x", 2, 2)
    pick = FieldMatrix(p, [[1], [0]])
    sys.add_equation([(None, x, pick)], FieldMatrix.zeros(p, 2, 1))
    part, basis = sys.solution_space()
    assert part["x"].is_zero()
    assert len(basis) == 2


def test_linear_system_sandwich_terms():
    rng = random.Random(99)
    p = 3
    for _ in range(30):
        L = FieldMatrix(p, [[rng.randrange(p) for _ in range(2)] for _ in range(2)])
        R = FieldMatrix(p, [[rng.randrange(p) for _ in range(2)] for _ in range(2)])
        X0 = FieldMatrix(p, [[rng.randrange(p) for _ in range(2)] for _ in range(2)])
        B = L @ X0 @ R
        sys = LinearSystem(p)
        x = sys.var("x", 2, 2)
        sys.add_equation([(L, x, R)], B)
        sol = sys.solve()
        assert sol is not None
        assert L @ sol["x"] @ R == B


# ---------------------------------------------------------------------------
# the elimination core against the row-at-a-time kernels it replaced
# ---------------------------------------------------------------------------

AGREEMENT_PRIMES = [2, 3, 5, 65521]


def _rref_rowwise(a, p):
    """Reference: clear the pivot column one row at a time."""
    m = np.array(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        for j in np.flatnonzero(m[:, c]):
            if j != r:
                m[j] = (m[j] - m[j, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def _solve_reference(a, b, p):
    """Reference: particular solution with free coordinates zero, or None."""
    red, piv = _rref_rowwise(np.hstack([a, b]), p)
    n = a.shape[1]
    if any(c >= n for c in piv):
        return None
    x = np.zeros((n, b.shape[1]), dtype=np.int64)
    for r, c in enumerate(piv):
        x[c] = red[r, n:]
    return x


def _kernel_reference(a, p):
    """Reference: one kernel column per free column, e_c minus pivot entries."""
    red, piv = _rref_rowwise(a, p)
    n = a.shape[1]
    free = [c for c in range(n) if c not in piv]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, c in enumerate(free):
        basis[c, k] = 1
        for r, pc in enumerate(piv):
            basis[pc, k] = (-red[r, c]) % p
    return basis


def _kron_block(L, v, R, p):
    """Reference: kron(R^T, L) with identities spelled out by np.eye."""
    if isinstance(L, FieldMatrix):
        La = L.a
    else:
        La = (1 if L is None else L) * np.eye(v.rows, dtype=np.int64)
    Ra = R.a if R is not None else np.eye(v.cols, dtype=np.int64)
    return np.kron(Ra.T, La) % p


def _agreement_matrices(p, rng):
    """Random, low-rank, zero, empty and all-(p - 1) matrices over GF(p)."""
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (3, 3), (4, 7), (7, 4), (6, 6)]
    out = []
    for rows, cols in shapes:
        out.append(np.zeros((rows, cols), dtype=np.int64))
        out.append(np.full((rows, cols), p - 1, dtype=np.int64))
        for _ in range(6):
            out.append(rng.integers(0, p, size=(rows, cols)))
        for inner in range(min(rows, cols) + 1):
            left = rng.integers(0, p, size=(rows, inner))
            right = rng.integers(0, p, size=(inner, cols))
            out.append(left @ right % p)
    # an invertible all-(p - 1) pattern: p - 1 everywhere but the diagonal
    out.append(np.full((5, 5), p - 1, dtype=np.int64) - np.eye(5, dtype=np.int64))
    return out


@pytest.mark.parametrize("p", AGREEMENT_PRIMES)
def test_outer_product_rref_matches_rowwise(p):
    rng = np.random.default_rng(p)
    for a in _agreement_matrices(p, rng):
        red, piv = la._rref_array(a, p)
        ref_red, ref_piv = _rref_rowwise(a, p)
        assert red.dtype == np.int64
        assert piv == ref_piv
        assert np.array_equal(red, ref_red)
        assert rank(FieldMatrix(p, a)) == len(ref_piv)


def _tall_sparse_matrices(p, rng):
    """Tall, sparse, rank-deficient matrices shaped like ext1's cocycle
    systems: rows 4-5 times the columns, at most 15 % nonzero, with
    repeated and zero rows and a column that depends on two others."""
    out = []
    for cols in (6, 12, 24, 40):
        for ratio in (4, 5):
            rows = ratio * cols
            mask = rng.random((rows, cols)) < 0.05
            a = np.where(mask, rng.integers(1, p, size=(rows, cols)), 0)
            a[:, -1] = (a[:, 0] + (p - 1) * a[:, 1]) % p
            a[rows // 2 : rows // 2 + cols] = 0
            a[rng.integers(0, rows, size=cols)] = a[rng.integers(0, rows, size=cols)]
            assert np.count_nonzero(a) <= 0.15 * a.size
            out.append(a)
    return out


@functools.lru_cache(maxsize=None)
def _quiver_a1_cocycle_systems():
    """The coefficient arrays ``ext1`` hands to ``kernel_basis`` for every
    quiver_a1 module of dimension at most 3 against each simple, both ways
    round.  quiver_a1 is over F_2, so each is a 0/1 pattern."""
    algebra = load_workspace(corpus_path("quiver_a1")).only_algebra()
    simples = alg.simple_modules(algebra)
    mods = [m for m in alg.enumerate_modules(algebra, 3) if m.dim]
    systems = []

    def recording(m):
        systems.append(m.a)
        return kernel_basis(m)

    with mock.patch.object(alg, "kernel_basis", recording):
        for m, s in itertools.product(mods, simples):
            alg.ext1.__wrapped__(s, m)
            alg.ext1.__wrapped__(m, s)
    return tuple(systems)


@pytest.mark.parametrize("p", AGREEMENT_PRIMES)
def test_row_selective_rref_matches_rowwise_on_tall_sparse(p):
    rng = np.random.default_rng(3000 + p)
    systems = _quiver_a1_cocycle_systems()
    assert len(systems) >= 20 and all(s.shape[0] > 4 * s.shape[1] for s in systems)
    # the F_2 systems as they are, and their patterns with random nonzero
    # residues over the other primes
    patterns = [
        np.where(s != 0, rng.integers(1, p, size=s.shape), 0) for s in systems
    ]
    tall = _tall_sparse_matrices(p, rng)
    for a in tall + patterns:
        red, piv = la._rref_array(a, p)
        ref_red, ref_piv = _rref_rowwise(a, p)
        assert piv == ref_piv
        assert np.array_equal(red, ref_red)
    assert all(rank(FieldMatrix(p, a)) < a.shape[1] for a in tall)


def test_rref_does_not_touch_its_input():
    a = np.array([[0, 1, 1], [1, 1, 0]], dtype=np.int64)
    la._rref_array(a, 2)
    assert a.tolist() == [[0, 1, 1], [1, 1, 0]]


@pytest.mark.parametrize("p", AGREEMENT_PRIMES)
def test_solve_and_kernel_match_reference(p):
    rng = np.random.default_rng(1000 + p)
    for a in _agreement_matrices(p, rng):
        m = FieldMatrix(p, a)
        assert np.array_equal(kernel_basis(m).a, _kernel_reference(a, p))
        for width in (0, 1, 3):
            # consistent right-hand sides (a @ x) and arbitrary ones
            for b in (a @ rng.integers(0, p, size=(a.shape[1], width)) % p,
                      rng.integers(0, p, size=(a.shape[0], width))):
                x = solve(m, FieldMatrix(p, b))
                ref = _solve_reference(a, b, p)
                if ref is None:
                    assert x is None
                else:
                    assert x is not None and np.array_equal(x.a, ref)


def _sympy_cases(p, rng, count=50):
    """Seeded random matrices over GF(p) up to 8 x 8, some with zero rows
    and some of low rank, and the empty matrices with no rows."""
    yield from (np.zeros((0, cols), dtype=np.int64) for cols in (1, 5))
    for _ in range(count):
        rows, cols = rng.integers(1, 9, size=2)
        a = rng.integers(0, p, size=(rows, cols))
        if rng.random() < 0.4:
            a[rng.random(rows) < 0.4] = 0
        if rng.random() < 0.3:
            inner = rng.integers(0, min(rows, cols) + 1)
            a = rng.integers(0, p, size=(rows, inner)) @ rng.integers(0, p, size=(inner, cols)) % p
        yield a


def _to_sympy(a, p):
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(p)
    return DomainMatrix([[field(int(x)) for x in row] for row in a], a.shape, field)


def _from_sympy(dm, p):
    return np.array([[int(x) % p for x in row] for row in dm.to_list()],
                    dtype=np.int64).reshape(dm.shape)


@pytest.mark.parametrize("p", [2, 3, 5, 67])
def test_rref_solve_and_kernel_match_sympy_over_gf_p(p):
    # an implementation of GF(p) linear algebra independent of waldcat's:
    # the reduced row echelon form is unique, and so are the kernel basis
    # with an identity block on the free columns and the solution with
    # every free coordinate zero
    rng = np.random.default_rng(3000 + p)
    for a in _sympy_cases(p, rng):
        m, dm = FieldMatrix(p, a), _to_sympy(a, p)
        red, piv = rref(m)
        ref_red, ref_piv = dm.rref()
        assert np.array_equal(red.a, _from_sympy(ref_red, p)) and piv == tuple(ref_piv)
        free = np.setdiff1d(np.arange(a.shape[1]), ref_piv)
        null = kernel_basis(m).a
        if free.size:
            # sympy's rows span the kernel; rescale to the identity on the free columns
            rows = dm.nullspace()
            rows = rows.extract(range(free.size), free.tolist()).inv() * rows
            assert np.array_equal(null, _from_sympy(rows, p).T)
        else:
            assert null.shape == (a.shape[1], 0)
        for b in (a @ rng.integers(0, p, size=(a.shape[1], 2)) % p,
                  rng.integers(0, p, size=(a.shape[0], 2))):
            x = solve(m, FieldMatrix(p, b))
            if dm.rank() < _to_sympy(np.hstack([a, b]), p).rank():
                assert x is None
            else:
                assert x is not None and np.array_equal(a @ x.a % p, b)
                assert not x.a[free].any()


def _f2_matrices_past_one_word(rng):
    """Matrices over F_2 on both sides of one packed word (63, 64, 65 and
    130 columns, and 70 x 70), random, of low rank and with zero rows, one
    of each width with raw entries in [-3, 3], and a tall sparse 300 x 20
    matrix with a dependent column."""
    out = []
    for rows, cols in ((5, 63), (40, 64), (64, 65), (20, 130), (70, 70)):
        out.append(rng.integers(0, 2, size=(rows, cols)))
        inner = min(rows, cols) // 3
        out.append(rng.integers(0, 2, size=(rows, inner)) @ rng.integers(0, 2, size=(inner, cols)))
        holes = rng.integers(0, 2, size=(rows, cols))
        holes[::3] = 0
        out.append(holes)
        out.append(rng.integers(-3, 4, size=(rows, cols)))
    sparse = (rng.random((300, 20)) < 0.05).astype(np.int64)
    sparse[:, -1] = sparse[:, 0] ^ sparse[:, 1]
    out.append(sparse)
    return out


def test_f2_bit_rows_match_references_past_one_word():
    # the widths straddle the 63 bits that one int64 row word holds
    assert la._WORD == 63
    rng = np.random.default_rng(64)
    for a in _f2_matrices_past_one_word(rng):
        before = a.copy()
        red, piv = la._rref_array(a, 2)
        assert np.array_equal(a, before)
        ref_red, ref_piv = _rref_rowwise(a, 2)
        assert red.dtype == np.int64 and piv == ref_piv and np.array_equal(red, ref_red)
        assert not red[len(piv):].any()
        dm_red, dm_piv = _to_sympy(a, 2).rref()
        assert np.array_equal(red, _from_sympy(dm_red, 2)) and piv == list(dm_piv)
        m = FieldMatrix(2, a)
        assert np.array_equal(kernel_basis(m).a, _kernel_reference(a, 2))
        for b in (a @ rng.integers(0, 2, size=(a.shape[1], 2)) % 2,
                  rng.integers(0, 2, size=(a.shape[0], 1))):
            x = solve(m, FieldMatrix(2, b))
            ref = _solve_reference(a, b, 2)
            assert (x is None) == (ref is None)
            assert x is None or np.array_equal(x.a, ref)


def test_rank_stack_over_f2_matches_rowwise_pivots_past_one_word():
    # 64 x 64 and 70 x 70 rows take two words each; 3 x 70 is packed along
    # its three rows
    assert la._WORD < 64
    rng = np.random.default_rng(65)
    for rows, cols in ((1, 1), (64, 64), (3, 70), (70, 70)):
        members = [rng.integers(0, 2, size=(rows, cols)) for _ in range(10)]
        for k in range(290):
            inner = k % (min(rows, cols, 8) + 1)
            # unreduced products of low rank, entries up to 8
            members.append(rng.integers(0, 2, size=(rows, inner))
                           @ rng.integers(0, 2, size=(inner, cols)))
        full = np.stack(members)
        expected = [len(_rref_rowwise(m, 2)[1]) for m in full]
        assert len(set(expected)) > min(rows, cols, 8)
        for count in (0, 1, 300):
            assert rank_stack(full[:count], 2).tolist() == expected[:count]


_RREF_READERS = {
    "rref": rref,
    "rank": rank,
    "solve": lambda m: solve(m, FieldMatrix(m.p, m.a[:, :1])),
    "kernel_basis": kernel_basis,
    "column_space_basis": column_space_basis,
    "pivot_blocks": lambda m: la.pivot_blocks([m.a[:, :1], m.a[:, 1:]], m.p),
    "quotient_coordinates": quotient_coordinates,
}


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("reader", sorted(_RREF_READERS))
def test_every_reader_eliminates_once_through_the_traced_entry_point(reader, p):
    # perfbench's tracer counts eliminations and their cells by wrapping
    # _rref_array(a, p), so every reader must make exactly one such call
    m = FieldMatrix(p, [[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 1]])
    with mock.patch.object(la, "_rref_array", wraps=la._rref_array) as spy:
        _RREF_READERS[reader](m)
    assert spy.call_count == 1
    args, kwargs = spy.call_args
    assert len(args) == 2 and not kwargs and args[1] == p


def _term_cases(p, rng):
    """(L, var, R) terms covering every side: matrix, None and int for L;
    matrix and None for R; zero-sized unknowns and result shapes."""
    full = p - 1
    for vr, vc, lr, rc in ((2, 3, 4, 1), (3, 3, 3, 3), (0, 2, 3, 2),
                           (2, 0, 2, 3), (1, 4, 0, 2), (2, 2, 2, 0)):
        v = MatVar("x", vr, vc)
        Ls = [
            FieldMatrix(p, rng.integers(0, p, size=(lr, vr))),
            FieldMatrix(p, np.full((lr, vr), full, dtype=np.int64)),
        ]
        Rs = [
            FieldMatrix(p, rng.integers(0, p, size=(vc, rc))),
            FieldMatrix(p, np.full((vc, rc), full, dtype=np.int64)),
        ]
        for L in Ls + [None, 1, full, -3]:
            for R in Rs + [None]:
                lrows = lr if isinstance(L, FieldMatrix) else vr
                yield L, v, R, (lrows, vc if R is None else rc)


@pytest.mark.parametrize("p", AGREEMENT_PRIMES)
def test_kronecker_free_blocks_match_np_kron(p):
    rng = np.random.default_rng(2000 + p)
    for L, v, R, (lrows, rcols) in _term_cases(p, rng):
        block = _coefficients(L, v, R, p)
        assert block.shape == (rcols, lrows, v.cols, v.rows)
        got = block.reshape(rcols * lrows, v.size) % p
        assert np.array_equal(got, _kron_block(L, v, R, p))


def _random_equations(p, rng):
    """Variables and equations sum L X R = rhs with every kind of term."""
    shapes = [(int(rng.integers(0, 4)), int(rng.integers(0, 4))) for _ in range(3)]
    variables = [MatVar("v%d" % k, r, c) for k, (r, c) in enumerate(shapes)]
    equations = []
    for _ in range(int(rng.integers(0, 5))):
        lrows, rcols = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        terms = []
        for v in variables:
            kind = int(rng.integers(0, 4))
            if kind == 0:
                continue
            if lrows == v.rows and rng.integers(0, 2):
                L = [None, int(rng.integers(-p, p))][int(rng.integers(0, 2))]
            else:
                L = FieldMatrix(p, rng.integers(0, p, size=(lrows, v.rows)))
            if rcols == v.cols and rng.integers(0, 2):
                R = None
            else:
                R = FieldMatrix(p, rng.integers(0, p, size=(v.cols, rcols)))
            terms.append((L, v, R))
        rhs = FieldMatrix(p, rng.integers(0, p, size=(lrows, rcols)))
        if rng.integers(0, 2):
            rhs = FieldMatrix.zeros(p, lrows, rcols)
        equations.append((terms, rhs))
    return variables, equations


def _reference_solution_space(p, variables, equations):
    """Reference: Kronecker rows, then solve and kernel_basis separately."""
    offsets = np.cumsum([0] + [v.size for v in variables])
    total = int(offsets[-1])
    rows, rhs = [np.zeros((0, total), dtype=np.int64)], [np.zeros((0, 1), dtype=np.int64)]
    for terms, b in equations:
        row = np.zeros((b.rows * b.cols, total), dtype=np.int64)
        for L, v, R in terms:
            k = variables.index(v)
            row[:, offsets[k] : offsets[k + 1]] += _kron_block(L, v, R, p)
        rows.append(row % p)
        rhs.append(b.a.flatten(order="F")[:, None])
    A, b = np.vstack(rows), np.vstack(rhs)

    def unpack(x):
        return {
            v.name: x[offsets[k] : offsets[k + 1]].reshape((v.rows, v.cols), order="F").tolist()
            for k, v in enumerate(variables)
        }

    x = _solve_reference(A, b, p)
    if x is None:
        return None
    null = _kernel_reference(A, p)
    return unpack(x[:, 0]), [unpack(null[:, j]) for j in range(null.shape[1])]


@pytest.mark.parametrize("p", AGREEMENT_PRIMES)
def test_one_elimination_solution_space_matches_solve_plus_kernel(p):
    rng = np.random.default_rng(3000 + p)
    for _ in range(60):
        variables, equations = _random_equations(p, rng)
        system = LinearSystem(p)
        for v in variables:
            system.var(v.name, v.rows, v.cols)
        for terms, rhs in equations:
            system.add_equation(terms, rhs)
        ref = _reference_solution_space(p, variables, equations)
        got = system.solution_space()
        solved = system.solve()
        if ref is None:
            assert got is None and solved is None
            continue

        def plain(entry):
            return {name: m.tolist() for name, m in entry.items()}

        assert plain(got[0]) == ref[0]
        assert [plain(e) for e in got[1]] == ref[1]
        assert plain(solved) == ref[0]


def test_linear_system_declares_unknowns_after_equations():
    # rows written before a later unknown exists get zero coefficients for it
    p = 3
    system = LinearSystem(p)
    x = system.var("x", 1, 1)
    system.add_equation([(None, x, None)], FieldMatrix(p, [[2]]))
    system.var("y", 1, 2)
    part, basis = system.solution_space()
    assert part["x"].tolist() == [[2]] and part["y"].tolist() == [[0, 0]]
    assert [e["y"].tolist() for e in basis] == [[[1, 0]], [[0, 1]]]


def test_add_equation_rejects_mismatched_shapes():
    p = 2
    system = LinearSystem(p)
    x = system.var("x", 2, 3)
    with pytest.raises(AssertionError):
        system.add_equation([(None, x, None)], FieldMatrix.zeros(p, 3, 2))
    with pytest.raises(AssertionError):
        system.add_equation(
            [(FieldMatrix.zeros(p, 1, 2), x, None)], FieldMatrix.zeros(p, 2, 3)
        )


def test_is_prime_is_memoized_and_constructor_still_checks():
    la.is_prime.cache_clear()
    FieldMatrix(7, [[1]])
    FieldMatrix(7, [[2]])
    info = la.is_prime.cache_info()
    assert info.misses == 1 and info.hits >= 1
    with pytest.raises(ValueError, match="not prime"):
        FieldMatrix(9, [[1]])
    with pytest.raises(ValueError, match="not prime"):
        FieldMatrix(9, [[1]])


def test_trusted_results_are_read_only_and_reduced():
    p = 5
    a = FieldMatrix(p, [[1, 2], [3, 4]])
    for m in (a @ a, a + a, a - FieldMatrix(p, a.a * 2), -a, FieldMatrix(p, a.a * -7),
              a.transpose(), rref(a)[0], solve(a, a), kernel_basis(a),
              column_space_basis(a)):
        assert m.p == p and m.a.dtype == np.int64
        assert not m.a.flags.writeable
        assert ((0 <= m.a) & (m.a < p)).all()


def test_trusted_constructor_is_checked_during_the_suite():
    # tests/conftest.py swaps in a checking _reduced for the whole run
    with pytest.raises(AssertionError):
        FieldMatrix._reduced(2, np.array([[2]], dtype=np.int64))
    with pytest.raises(AssertionError):
        FieldMatrix._reduced(4, np.zeros((1, 1), dtype=np.int64))
    with pytest.raises(AssertionError):
        FieldMatrix._reduced(2, np.zeros(3, dtype=np.int64))
    with pytest.raises(AssertionError):
        FieldMatrix._reduced(3, np.zeros((1, 1), dtype=np.int32))
