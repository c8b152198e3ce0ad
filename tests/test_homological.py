"""Tests for Ext, projectivity/injectivity, and cotorsion-pair resolutions.

The key correctness check is the extension-count oracle: for small module
pairs the number of equivalence classes of short exact sequences, counted
as Aut(E)-orbits over the enumerated middles E, must equal p**dim Ext^1.
A pairwise ladder-map comparison of the sequences is kept here as a
reference for that count.
"""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

import waldcat.algebra as alg
from waldcat import homological
from waldcat.algebra import (
    Algebra,
    Module,
    Morphism,
    QuiverPresentation,
    ShortExactSequence,
    algebra_from_quiver,
    cokernel,
    combine,
    direct_sum,
    dual_regular_module,
    enumerate_modules,
    fingerprint,
    hom_basis,
    identity_morphism,
    indecomposable_summands,
    induced_on_cokernel,
    is_isomorphic,
    kernel,
    maps,
    pushout,
    regular_module,
    simple_modules,
    solve_map,
    validate_algebra,
    zero_module,
)
from waldcat.errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    ValidationError,
)
from waldcat.homological import (
    _automorphism_count,
    all_injectives_pair,
    cosyzygy,
    ext1,
    ext1_class_count_oracle,
    free_cover,
    injective_dimension_within,
    injective_embedding,
    is_injective,
    is_projective,
    projectives_all_pair,
    short_exact_sequences,
    spec_all,
    spec_projectives,
    strip_injective_summands,
)
from waldcat.ktheory import k0_exact_category
from waldcat.linalg import FieldMatrix, pivot_blocks, rank, rank_stack, solve
from waldcat.workspace import corpus_path, load_workspace

from reference_checks import is_split, iterated_cosyzygies, pair_validate


def fx2_algebra():
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    return Algebra(2, c, [1, 0])


def fx3_algebra():
    return algebra_from_quiver(QuiverPresentation(2, 1, [(0, 0, "x")], nil_bound=3))


def a1_algebra():
    q = QuiverPresentation(
        2,
        2,
        [(0, 0, "a0"), (0, 1, "a1")],
        relations=[[(1, ["a0", "a0"])], [(1, ["a0", "a1"])]],
        nil_bound=2,
    )
    return algebra_from_quiver(q)


def line_algebra():
    """Path algebra of the quiver 0 -> 1 (hereditary, dimension 3)."""
    return algebra_from_quiver(QuiverPresentation(2, 2, [(0, 1, "b")], nil_bound=2))


def simple_over_fx2():
    return Module(fx2_algebra(), [[[1]], [[0]]])


def a1_vertex_simples():
    """Simples of the two-vertex algebra: (source simple, sink simple)."""
    simples = simple_modules(a1_algebra())
    s0 = next(s for s in simples if s.rho[0, 0, 0] == 1)
    s1 = next(s for s in simples if s.rho[1, 0, 0] == 1)
    return s0, s1


# ---------------------------------------------------------------------------
# covers and embeddings
# ---------------------------------------------------------------------------


def test_free_cover_of_regular_module_is_minimal():
    reg = regular_module(fx2_algebra())
    cover = free_cover(reg)
    assert cover.is_epi()
    assert cover.dom.dim == reg.dim
    assert cover.is_iso()


def test_free_cover_of_simple_has_simple_kernel():
    s = simple_over_fx2()
    cover = free_cover(s)
    assert cover.is_epi()
    ker_mod, _ = kernel(cover)
    assert is_isomorphic(ker_mod, s) is not None


def test_free_cover_of_zero():
    z = zero_module(fx2_algebra())
    cover = free_cover(z)
    assert cover.dom.dim == 0 and cover.cod.dim == 0


def test_injective_embedding_of_zero():
    z = zero_module(fx2_algebra())
    emb = injective_embedding(z)
    assert emb.dom.dim == 0


def test_injective_embedding_of_simple_lands_in_dual_regular():
    # over F_2[x]/(x^2) the dual of the regular module is again regular
    a = fx2_algebra()
    s = simple_over_fx2()
    emb = injective_embedding(s)
    assert emb.is_mono()
    da = dual_regular_module(a)
    assert emb.cod.dim == da.dim * s.dim
    assert is_isomorphic(da, regular_module(a)) is not None


def test_injective_embedding_of_quiver_simple():
    s0, s1 = a1_vertex_simples()
    emb = injective_embedding(s1)
    assert emb.is_mono()
    assert emb.cod.dim == dual_regular_module(a1_algebra()).dim


# ---------------------------------------------------------------------------
# projectivity and injectivity
# ---------------------------------------------------------------------------


def test_regular_module_is_projective_and_injective_over_fx2():
    reg = regular_module(fx2_algebra())
    assert is_projective(reg)
    assert is_injective(reg)


def test_simple_is_neither_projective_nor_injective_over_fx2():
    s = simple_over_fx2()
    assert not is_projective(s)
    assert not is_injective(s)


def test_zero_module_is_projective_and_injective():
    z = zero_module(fx2_algebra())
    assert is_projective(z)
    assert is_injective(z)


def test_projectivity_matches_ext_vanishing():
    # m projective iff Ext^1(m, x) = 0 for all small x
    a = fx2_algebra()
    mods = enumerate_modules(a, 2)
    for m in mods:
        expected = all(ext1(m, x).dimension == 0 for x in mods)
        assert is_projective(m) == expected


def test_injectivity_matches_ext_vanishing():
    a = fx2_algebra()
    mods = enumerate_modules(a, 2)
    for m in mods:
        expected = all(ext1(x, m).dimension == 0 for x in mods)
        assert is_injective(m) == expected


def test_membership_matches_splitting_of_cover_and_embedding():
    # m is projective iff its free cover splits, injective iff its
    # embedding into a power of the dual regular module splits
    for algebra in (fx2_algebra(), a1_algebra(), line_algebra()):
        for m in enumerate_modules(algebra, 3):
            cover = free_cover(m)
            emb = injective_embedding(m)
            assert is_projective(m) == is_split(
                ShortExactSequence(kernel(cover)[1], cover, check=False))
            assert is_injective(m) == is_split(
                ShortExactSequence(emb, cokernel(emb)[1], check=False))


def test_projective_equals_injective_over_truncated_polynomials():
    # self-injective algebras: the two classes coincide
    for algebra, bound in ((fx2_algebra(), 4), (fx3_algebra(), 3)):
        for m in enumerate_modules(algebra, bound):
            assert is_projective(m) == is_injective(m)


def _unit_preserving_basis_change(algebra, rng):
    """A random invertible g over F_p, not the identity, with g @ unit ==
    unit: b k b^-1 for a random basis b whose first vector is the unit and
    a random invertible k that fixes the first basis vector."""
    p, d = algebra.p, algebra.dim
    eye = np.eye(d, dtype=np.int64)
    while True:
        b = rng.integers(0, p, size=(d, d))
        b[:, 0] = algebra.unit
        k = rng.integers(0, p, size=(d, d))
        k[:, 0] = eye[0]
        if rank(FieldMatrix(p, b)) == d == rank(FieldMatrix(p, k)) and (k != eye).any():
            b_inv = solve(FieldMatrix(p, b), FieldMatrix.identity(p, d)).a
            return b @ k @ b_inv % p


def _rebased(algebra, g):
    """The algebra in the basis f_i = sum_j g[j, i] e_j: f_i f_j is
    sum g[a, i] g[b, j] e_a e_b, rewritten in f-coordinates by g^-1."""
    p, d = algebra.p, algebra.dim
    g_inv = solve(FieldMatrix(p, g), FieldMatrix.identity(p, d)).a
    products = np.einsum("ai,bj,abk->ijk", g, g, algebra.structure) % p
    structure = np.einsum("lk,ijk->ijl", g_inv, products) % p
    return Algebra(p, structure, g_inv @ algebra.unit % p)


def _rebased_module(rebased, m, g):
    """m over the rebased algebra: f_i acts as sum_j g[j, i] ρ(e_j)."""
    return Module(rebased, np.einsum("ji,jab->iab", g, m.rho) % m.p)


@pytest.mark.parametrize(
    "name", ["f2c2", "fx2", "fx3", "quiver_a1", "quiver_a2", "F3[x]/(x^3)"]
)
def test_unit_preserving_change_of_algebra_basis_keeps_ext_and_verdicts(name):
    """A change of algebra basis that fixes the unit keeps Hom and Ext¹
    dimensions, projectivity and injectivity verdicts and K₀ invariant
    factors."""
    if name.startswith("F3"):
        c = np.zeros((3, 3, 3), dtype=int)
        for i in range(3):
            for j in range(3 - i):
                c[i, j, i + j] = 1
        algebra = Algebra(3, c, [1, 0, 0])
    else:
        algebra = load_workspace(corpus_path(name)).only_algebra()
    g = _unit_preserving_basis_change(algebra, np.random.default_rng(len(name)))
    rebased = _rebased(algebra, g)
    assert np.array_equal(rebased.unit, algebra.unit)
    assert rebased != algebra
    mods = enumerate_modules(algebra, 3)
    moved = {m: _rebased_module(rebased, m, g) for m in mods}
    for c, a in itertools.product(mods, repeat=2):
        assert len(hom_basis(moved[c], moved[a])) == len(hom_basis(c, a))
        if c.dim + a.dim <= 3:
            assert ext1(moved[c], moved[a]).dimension == ext1(c, a).dimension
    for m in mods:
        assert is_injective(moved[m]) == is_injective(m)
        assert is_projective(moved[m]) == is_projective(m)
    for spec in (spec_all(), spec_projectives()):
        assert (
            k0_exact_category(rebased, spec, 3).invariant_factors
            == k0_exact_category(algebra, spec, 3).invariant_factors
        )


def test_sink_simple_is_projective_not_injective():
    s0, s1 = a1_vertex_simples()
    assert is_projective(s1)
    assert not is_injective(s1)
    assert not is_projective(s0)
    assert not is_injective(s0)


def _polynomial_quotient(p, f):
    """F_p[x]/(f) for monic f, coefficients listed from x^0 up to x^n, on the
    basis 1, x, ..., x^(n-1): e_i e_j = x^(i+j) = C^(i+j) e_0 for the
    companion matrix C of f."""
    n = len(f) - 1
    companion = np.eye(n, k=-1, dtype=np.int64)
    companion[:, -1] = -np.asarray(f[:-1])
    powers = [np.eye(n, dtype=np.int64)[:, 0]]
    for _ in range(2 * n - 2):
        powers.append(companion @ powers[-1] % p)
    structure = [[powers[i + j] for j in range(n)] for i in range(n)]
    return Algebra(p, structure, powers[0])


def _matrix_algebra_f2():
    """M_2(F_2) on the matrix units E11, E12, E21, E22: E_ij E_kl = δ_jk E_il."""
    c = np.zeros((4, 4, 4), dtype=int)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        if j == k:
            c[2 * i + j, 2 * k + l, 2 * i + l] = 1
    return Algebra(2, c, [1, 0, 0, 1])


# name -> (algebra, enumeration bound).  F_2[x]/(x^2+x+1) = F_4 and
# F_2[x]/((x^2+x+1)^2) have dim End S = 2; M_2(F_2) has dim S = 2.
TABLE_CASES = {
    **{name: (lambda name=name: load_workspace(corpus_path(name)).only_algebra(), 4)
       for name in ("f2c2", "fx2", "fx3", "quiver_a1", "quiver_a2")},
    "F3[x]/(x^2)": (lambda: _polynomial_quotient(3, [0, 0, 1]), 4),
    "F5[x]/(x^3)": (lambda: _polynomial_quotient(5, [0, 0, 0, 1]), 3),
    "F2[x]/(x^2+x+1)": (lambda: _polynomial_quotient(2, [1, 1, 1]), 4),
    "F2[x]/((x^2+x+1)^2)": (lambda: _polynomial_quotient(2, [1, 0, 1, 0, 1]), 4),
    "M2(F2)": (_matrix_algebra_f2, 4),
}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_membership_verdicts_match_ext_against_the_simples(name):
    """is_projective and is_injective equal their Ext¹ definitions on the
    enumerated modules, on A, D(A) and A², and on injective embeddings
    and their cokernels."""
    build, bound = TABLE_CASES[name]
    algebra = build()
    assert validate_algebra(algebra)["ok"]
    simples = simple_modules(algebra)
    mods = list(enumerate_modules(algebra, bound))
    reg = regular_module(algebra)
    mods += [reg, dual_regular_module(algebra), direct_sum([reg, reg])[0]]
    for m in mods[1:4]:
        emb = injective_embedding(m)
        mods += [emb.cod, cokernel(emb)[0]]
    for m in mods:
        assert is_projective(m) == all(ext1(m, s).dimension == 0 for s in simples)
        assert is_injective(m) == all(ext1(s, m).dimension == 0 for s in simples)


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_simple_table_holds_covers_and_envelopes_of_each_simple(name):
    """Top P(S) = S = socle I(S), and A = ⊕ P(S)^(dim S / dim End S), and
    likewise D(A) = ⊕ I(S)^(dim S / dim End S)."""
    algebra = TABLE_CASES[name][0]()
    rows = homological.simple_table(algebra)
    assert [row.simple for row in rows] == list(simple_modules(algebra))
    for row in rows:
        assert row.end_dim == len(hom_basis(row.simple, row.simple))
        top = [len(hom_basis(row.projective, s.simple)) // s.end_dim for s in rows]
        socle = [len(hom_basis(s.simple, row.injective)) // s.end_dim for s in rows]
        assert top == socle == [int(s is row) for s in rows]
        assert is_projective(row.projective) and is_injective(row.injective)
    for attr in ("projective", "injective"):
        total = sum(Fraction(row.simple.dim, row.end_dim) * getattr(row, attr).dim
                    for row in rows)
        assert total == algebra.dim


def test_simple_table_matches_the_cartan_matrix_of_quiver_a1():
    # Cartan matrix [[2, 1], [0, 1]] with rows [P(S)]: dim P = row sums,
    # dim I = column sums
    rows = homological.simple_table(load_workspace(corpus_path("quiver_a1")).only_algebra())
    assert [row.projective.dim for row in rows] == [3, 1]
    assert [row.injective.dim for row in rows] == [2, 2]


def test_membership_calls_no_ext_and_builds_the_table_once(monkeypatch):
    a = load_workspace(corpus_path("quiver_a1")).only_algebra()
    mods = enumerate_modules(a, 4)
    extra = [regular_module(a), dual_regular_module(a)]
    ext_calls, split = [], []

    def ext_spy(c, m):
        ext_calls.append((c.digest, m.digest))
        return ext1(c, m)

    def split_spy(m):
        split.append(m.digest)
        return indecomposable_summands(m)

    monkeypatch.setattr(alg, "ext1", ext_spy)
    monkeypatch.setattr(homological, "ext1", ext_spy)
    monkeypatch.setattr(homological, "indecomposable_summands", split_spy)
    for fn in (homological.simple_table, is_projective, is_injective):
        fn.cache_clear()
    verdicts = [(is_projective(m), is_injective(m)) for m in (*mods, *extra)]
    assert [(is_projective(m), is_injective(m)) for m in (*mods, *extra)] == verdicts
    assert ext_calls == []
    assert split == [regular_module(a).digest, dual_regular_module(a).digest]
    assert verdicts[-2:] == [(True, False), (False, True)]


def test_simple_table_refuses_an_unsplit_dual_regular_module(monkeypatch):
    # the socle of D(A) over quiver_a1 is S_1 (+) S_2, two simples
    a = load_workspace(corpus_path("quiver_a1")).only_algebra()
    da = dual_regular_module(a)

    def unsplit(m):
        if m == da:
            return [(m, identity_morphism(m), identity_morphism(m))]
        return indecomposable_summands(m)

    monkeypatch.setattr(homological, "indecomposable_summands", unsplit)
    homological.simple_table.cache_clear()
    try:
        with pytest.raises(InternalInconsistencyError, match="socle of 2 simples"):
            homological.simple_table(a)
    finally:
        homological.simple_table.cache_clear()


# ---------------------------------------------------------------------------
# Ext^1
# ---------------------------------------------------------------------------


def test_ext_from_free_module_vanishes():
    a = fx2_algebra()
    reg = regular_module(a)
    for x in enumerate_modules(a, 2):
        assert ext1(reg, x).dimension == 0


def test_ext_of_simple_by_simple_over_fx2():
    s = simple_over_fx2()
    result = ext1(s, s)
    assert result.dimension == 1
    reg = regular_module(fx2_algebra())
    split_ses = result.realize((0,))
    assert is_split(split_ses)
    nonsplit = result.realize((1,))
    assert not is_split(nonsplit)
    assert is_isomorphic(nonsplit.mid, reg) is not None


def test_ext_directions_over_quiver_algebra():
    # frozen: one extension direction per arrow, none against it
    s0, s1 = a1_vertex_simples()
    assert ext1(s0, s1).dimension == 1  # middle is the a1-arrow representation
    assert ext1(s1, s0).dimension == 0
    assert ext1(s0, s0).dimension == 1  # the loop a0
    assert ext1(s1, s1).dimension == 0


def test_ext_over_semisimple_ground_field_vanishes():
    f2 = Algebra(2, [[[1]]], [1])
    mods = enumerate_modules(f2, 2)
    for c in mods:
        for a in mods:
            assert ext1(c, a).dimension == 0


def test_realized_class_splits_iff_zero():
    a = fx2_algebra()
    mods = [m for m in enumerate_modules(a, 2) if m.dim >= 1]
    for c in mods:
        for b in mods:
            if c.dim + b.dim > 3:
                continue
            result = ext1(c, b)
            for coeffs in itertools.product(range(a.p), repeat=result.dimension):
                ses = result.realize(coeffs)
                assert ses.sub.dim == b.dim
                assert ses.quot.dim == c.dim
                assert is_split(ses) == (not any(coeffs))


def _pushout_middles(c, b):
    """Reference Ext engine: for a free presentation 0 -> K -> F -> c -> 0,
    Ext1(c, b) is Hom(K, b) modulo maps that extend over F, and a class
    with cocycle φ has the pushout of the kernel inclusion along φ as its
    middle.  Returns the middle of every class."""
    cover = free_cover(c)
    ker, incl = kernel(cover)
    hom_k_b = hom_basis(ker, b)
    inner = [(g @ incl).matrix.a.reshape(-1) for g in hom_basis(cover.dom, b)]
    length = ker.dim * b.dim
    blocks = [np.array(inner, dtype=np.int64).reshape(len(inner), length).T]
    blocks += [h.matrix.a.reshape(-1, 1) for h in hom_k_b]
    reps = [hom_k_b[i - 1] for i in pivot_blocks(blocks, c.p) if i]
    return [
        pushout(incl, combine(ker, b, reps, coeffs))[0]
        for coeffs in itertools.product(range(c.p), repeat=len(reps))
    ]


def _class_index(mods, m):
    """Index of the enumerated class isomorphic to m, with its isomorphism
    checked."""
    for idx, rep in enumerate(mods):
        if rep.dim == m.dim:
            iso = is_isomorphic(m, rep)
            if iso is not None:
                assert iso.is_iso() and iso.is_equivariant()
                return idx
    raise AssertionError("middle missing from the enumeration")


@pytest.mark.parametrize("name", ["fx2", "f2c2", "quiver_a1"])
def test_block_realization_matches_pushout_reference(name):
    a = load_workspace(corpus_path(name)).only_algebra()
    mods = enumerate_modules(a, 3)
    nonsplit = 0
    for c, b in itertools.product(mods, repeat=2):
        if c.dim + b.dim > 3:
            continue
        result = ext1(c, b)
        reference = _pushout_middles(c, b)
        assert len(reference) == c.p**result.dimension
        got = []
        for coeffs in itertools.product(range(a.p), repeat=result.dimension):
            ses = result.realize(coeffs)
            assert ses.sub == b and ses.quot == c
            assert ses.mid.validate() == []
            assert ses.mono.is_equivariant() and ses.epi.is_equivariant()
            assert is_split(ses) == (not any(coeffs))
            got.append(_class_index(mods, ses.mid))
            nonsplit += any(coeffs)
        assert sorted(got) == sorted(_class_index(mods, m) for m in reference)
    assert nonsplit > 0


def test_ext_results_are_shared_and_read_only():
    a = load_workspace(corpus_path("quiver_a1")).only_algebra()
    s0, s1 = simple_modules(a)[:2]
    for c, b in ((s0, s0), (s1, s0), (s0, s1)):
        result = ext1(c, b)
        assert ext1(c, b) is result
        if result.dimension:
            result.realize((1,) * result.dimension)
            table = result.cocycles
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1
    assert regular_module(a) is regular_module(a)
    assert dual_regular_module(a) is dual_regular_module(a)


def test_ext_dimension_against_enumeration_oracle_fx2():
    a = fx2_algebra()
    mods = [m for m in enumerate_modules(a, 3) if m.dim >= 1]
    for c in mods:
        for b in mods:
            if c.dim + b.dim > 4:
                continue
            d = ext1(c, b).dimension
            assert ext1_class_count_oracle(c, b) == 2**d


def test_ext_dimension_against_enumeration_oracle_fx3():
    a = fx3_algebra()
    mods = [m for m in enumerate_modules(a, 2) if m.dim >= 1]
    for c in mods:
        for b in mods:
            if c.dim + b.dim > 3:
                continue
            d = ext1(c, b).dimension
            assert ext1_class_count_oracle(c, b) == 2**d


def test_ext_dimension_against_enumeration_oracle_quiver():
    s0, s1 = a1_vertex_simples()
    for c, b in ((s0, s1), (s1, s0), (s0, s0)):
        d = ext1(c, b).dimension
        assert ext1_class_count_oracle(c, b) == 2**d


def _ladder_class_count(c, a):
    """Reference count: enumerate every exact pair through every middle and
    merge pairs joined by a ladder map h with h i1 = i2 and p2 h = p1."""
    mid_dim = c.dim + a.dim
    classes = []
    for e in enumerate_modules(c.algebra, mid_dim):
        if e.dim != mid_dim:
            continue
        monos = [f for f in maps(a, e) if f.is_mono()]
        epis = [f for f in maps(e, c) if f.is_epi()]
        for i1, p1 in itertools.product(monos, epis):
            if not (p1 @ i1).is_zero():
                continue
            if any(
                solve_map(e, i2.cod, post=[(p2, p1)], pre=[(i1, i2)]) is not None
                for i2, p2 in classes
            ):
                continue
            classes.append((i1, p1))
    return len(classes)


def _iso_index(mods, m):
    return next(
        i for i, rep in enumerate(mods)
        if rep.dim == m.dim and is_isomorphic(m, rep) is not None
    )


def _map_loop_triples(mods):
    """Reference for the sweep: every injection sub -> mid between
    enumerated modules, with its cokernel, as an isomorphism-class triple
    (sub, mid, quot) of indices into ``mods``."""
    triples = set()
    for i_mid, mid in enumerate(mods):
        for i_sub, sub in enumerate(mods):
            if sub.dim > mid.dim:
                continue
            for f in maps(sub, mid):
                if f.is_mono():
                    quot, _ = cokernel(f)
                    triples.add((i_sub, i_mid, _iso_index(mods, quot)))
    return triples


@pytest.mark.parametrize(
    "name, bound",
    [(n, 2) for n in ["f2c2", "fx2", "fx3", "quiver_a1", "quiver_a2"]]
    + [("quiver_a1", 3)],
)
def test_short_exact_sequences_meet_every_map_loop_triple(name, bound):
    a = load_workspace(corpus_path(name)).only_algebra()
    mods = enumerate_modules(a, bound)
    swept = set()
    for i_quot, i_sub, mid in short_exact_sequences(mods, bound):
        sub, quot = mods[i_sub], mods[i_quot]
        assert mid.validate() == []
        # mid extends quot by sub through the mono [I; 0] and the epi [0 I]
        s, q = sub.dim, quot.dim
        assert mid.dim == s + q
        assert Morphism(sub, mid, np.eye(s + q, s, dtype=np.int64)).is_mono()
        assert Morphism(mid, quot, np.eye(q, s + q, s, dtype=np.int64)).is_epi()
        swept.add((i_sub, _iso_index(mods, mid), i_quot))
    assert swept == _map_loop_triples(mods)


def test_short_exact_sequences_refuse_an_ext_group_past_the_class_budget():
    a = algebra_from_quiver(QuiverPresentation(4099, 1, [(0, 0, "x")], nil_bound=2))
    s = simple_modules(a)[0]
    assert ext1(s, s).dimension == 1
    with pytest.raises(
        BudgetExceededError, match=r"Ext class enumeration \(4099\^1\) exceeds"
    ):
        next(short_exact_sequences([s], 2))


def test_short_exact_sequences_check_exactness_once_per_dimension_pair(monkeypatch):
    a = load_workspace(corpus_path("quiver_a1")).only_algebra()
    mods = enumerate_modules(a, 3)
    realized = []
    realize = alg.Ext1Result.realize

    def spy(self, coeffs):
        realized.append((self.c.dim, self.a.dim, tuple(coeffs)))
        return realize(self, coeffs)

    monkeypatch.setattr(alg.Ext1Result, "realize", spy)
    list(short_exact_sequences(mods, 3))
    dims = [(q.dim, s.dim) for q in mods for s in mods if q.dim + s.dim <= 3]
    # the split class of the first pair of each (quot.dim, sub.dim)
    assert [r[:2] for r in realized] == list(dict.fromkeys(dims))
    assert all(not any(coeffs) for _, _, coeffs in realized)

    def refuse(self, coeffs):
        raise ValidationError("not a short exact sequence")

    # the check still raises from the sweep and from the harvest, which
    # skips the pairs with a zero end term
    monkeypatch.setattr(alg.Ext1Result, "realize", refuse)
    with pytest.raises(ValidationError, match="not a short exact sequence"):
        list(short_exact_sequences(mods, 3))
    with pytest.raises(ValidationError, match="not a short exact sequence"):
        k0_exact_category(a, spec_all(), 3)


def _full_walk_middles(ext):
    """Reference: the middle of every class of ``ext``, realized one by one
    in ``itertools.product`` order of the coefficients."""
    return [
        ext.realize(coeffs).mid
        for coeffs in itertools.product(range(ext.p), repeat=ext.dimension)
    ]


def _full_walk_enumeration(algebra, bound):
    """Reference: ``enumerate_modules``'s layers with every class of every
    Ext group realized and tested against the layer."""
    by_dim = {0: [zero_module(algebra)]}
    for m in range(1, bound + 1):
        layer = []
        for s in simple_modules(algebra):
            for base in by_dim.get(m - s.dim, []):
                for cand in _full_walk_middles(ext1(base, s)):
                    if all(is_isomorphic(cand, seen) is None for seen in layer):
                        layer.append(cand)
        by_dim[m] = sorted(layer, key=lambda mod: (fingerprint(mod), mod.digest))
    return [mod for layer in by_dim.values() for mod in layer]


def _automorphism_actions_reference(ext):
    """Reference for ``Ext1Result._automorphism_actions``: the matrices, on
    class coefficients, of the invertible b and 1 + b other than the
    identity, for b in the Hom bases of End(c) (acting by τ ↦ τγ) and
    End(a) (acting by τ ↦ ατ).

    The class of each moved basis cocycle is found by a rank test against
    coboundaries built here from the elementary maps u: c -> a, one
    candidate class at a time.
    """
    p, k, a, c = ext.p, ext.dimension, ext.a, ext.c
    coeffs = list(itertools.product(range(p), repeat=k))
    cob = []
    for x, y in itertools.product(range(a.dim), range(c.dim)):
        u = np.zeros((a.dim, c.dim), dtype=np.int64)
        u[x, y] = 1
        cob.append(((a.rho @ u - u @ c.rho) % p).reshape(-1))
    cob = np.array(cob, dtype=np.int64)
    cob_rank = rank(FieldMatrix(p, cob))
    basis = ext.cocycles.reshape(k, -1)

    def class_of(tau):
        for x in coeffs:
            diff = (tau.reshape(-1) - np.array(x) @ basis) % p
            if rank(FieldMatrix(p, np.vstack([cob, diff]))) == cob_rank:
                return np.array(x)
        raise AssertionError("moved cocycle has no class")

    actions = []
    for module, on_c in ((c, True), (a, False)):
        one = np.eye(module.dim, dtype=np.int64)
        for f in hom_basis(module, module):
            for g in (f.matrix.a, (f.matrix.a + one) % p):
                if rank(FieldMatrix(p, g)) < module.dim or (g == one).all():
                    continue
                moved = [tau @ g if on_c else g @ tau for tau in ext.cocycles]
                actions.append(np.column_stack([class_of(tau) for tau in moved]))
    return actions


def _orbit_minima_reference(ext, actions):
    """The smallest class of each orbit under the scalars and ``actions``,
    for every class: merges relabel the larger set's minimum with the
    smaller's."""
    p, k = ext.p, ext.dimension
    coeffs = list(itertools.product(range(p), repeat=k))
    index = {x: i for i, x in enumerate(coeffs)}
    scalars = [np.eye(k, dtype=np.int64) * lam for lam in range(2, p)]
    root = list(range(len(coeffs)))
    for i, x in enumerate(coeffs):
        for m in scalars + actions:
            j = index[tuple((m @ np.array(x, dtype=np.int64)) % p)]
            ri, rj = root[i], root[j]
            if ri != rj:
                lo, hi = min(ri, rj), max(ri, rj)
                root = [lo if r == hi else r for r in root]
    return root


ORBIT_CASES = ["f2c2", "fx2", "fx3", "quiver_a1", "quiver_a2", "F3[x]/(x^3)", "F5[x]/(x^3)"]


def _orbit_case_algebra(name):
    if name.startswith("F"):
        p = int(name[1])
        nil_bound = int(name[-2])
        return algebra_from_quiver(QuiverPresentation(p, 1, [(0, 0, "x")], nil_bound=nil_bound))
    return load_workspace(corpus_path(name)).only_algebra()


@pytest.mark.parametrize("name", ORBIT_CASES)
def test_orbit_walk_matches_full_walk(name):
    a = _orbit_case_algebra(name)
    p, bound = a.p, 4
    mods = enumerate_modules(a, bound, budget=10**12)
    assert [m.digest for m in mods] == [m.digest for m in _full_walk_enumeration(a, bound)]
    swept = {
        (i_sub, _iso_index(mods, mid), i_quot)
        for i_quot, i_sub, mid in short_exact_sequences(mods, bound)
    }
    full = set()
    merged = 0
    for (i_quot, quot), (i_sub, sub) in itertools.product(enumerate(mods), repeat=2):
        if quot.dim + sub.dim > bound:
            continue
        ext = ext1(quot, sub)
        middles = _full_walk_middles(ext)
        classes = [_iso_index(mods, mid) for mid in middles]
        full.update((i_sub, c, i_quot) for c in classes)
        kept = (ext.representatives @ p ** np.arange(ext.dimension - 1, -1, -1)).tolist()
        actions = []
        if ext.dimension > 1:
            actions = _automorphism_actions_reference(ext)
            got = sorted(m.tobytes() for m in ext._automorphism_actions())
            assert got == sorted(m.tobytes() for m in actions)
        orbit_min = _orbit_minima_reference(ext, actions)
        assert kept == sorted(set(orbit_min))
        assert [m.digest for m in ext.middles] == [middles[i].digest for i in kept]
        # orbits have isomorphic middles, so each first class of an
        # isomorphism class of middles is kept
        assert all(classes[j] == classes[i] for j, i in enumerate(orbit_min))
        assert {classes.index(c) for c in classes} <= set(kept)
        merged += len(middles) - len(kept)
    assert swept == full
    assert merged


SEVERAL_SIMPLES_CASES = {
    # path algebra of 0 -> 1 -> 2: three simples
    "A3": QuiverPresentation(2, 3, [(0, 1, "a"), (1, 2, "b")], nil_bound=3),
    # Kronecker quiver, two arrows 0 -> 1: two simples, wild
    "kronecker": QuiverPresentation(2, 2, [(0, 1, "a"), (0, 1, "b")], nil_bound=2),
}


@pytest.mark.parametrize("name", sorted(SEVERAL_SIMPLES_CASES))
def test_walk_over_several_simples_matches_full_walk(name):
    # a class is kept under the first simple of its socle, so with several
    # simples most middles skip the isomorphism search; the classes and
    # their representatives must be those of the full walk
    quiver = SEVERAL_SIMPLES_CASES[name]
    a = algebra_from_quiver(quiver)
    assert len(simple_modules(a)) == quiver.vertices
    mods = enumerate_modules(a, 4)
    assert [m.digest for m in mods] == [m.digest for m in _full_walk_enumeration(a, 4)]


def test_a3_enumeration_matches_gabriel_count():
    # Gabriel: the indecomposables over the path algebra of A3 are its 6
    # interval modules (dimensions 1, 1, 1, 2, 2, 3), so the classes of
    # dimension n are the multisets of intervals of total dimension n
    mods = enumerate_modules(algebra_from_quiver(SEVERAL_SIMPLES_CASES["A3"]), 4)
    counts = [sum(1 for m in mods if m.dim == n) for n in range(5)]
    assert counts == [1, 3, 8, 17, 33]


@pytest.mark.parametrize("name", ["fx2", "quiver_a1"])
def test_orbit_oracle_matches_ladder_reference(name):
    a = load_workspace(corpus_path(name)).only_algebra()
    mods = [m for m in enumerate_modules(a, 2) if m.dim >= 1]
    checked = 0
    for c, b in itertools.product(mods, repeat=2):
        if c.dim + b.dim > 3:
            continue
        assert ext1_class_count_oracle(c, b) == _ladder_class_count(c, b)
        checked += 1
    assert checked >= 5


def test_automorphism_count_of_semisimple_powers_is_gl_order():
    s = simple_over_fx2()
    orders = []
    for n in range(1, 5):
        power, _, _ = direct_sum([s] * n)
        orders.append(_automorphism_count(power))
    # |GL_n(F_2)|; End(S^4) has 2**16 elements, beyond _ENUMERATION_CAP
    assert orders == [1, 6, 168, 20160]


def _scanned_automorphism_count(m):
    """Reference for ``_automorphism_count``: the full-rank elements of
    End(m), counted by a rank scan of all of End(m)."""
    return sum(
        int((rank_stack(stack, m.p) == m.dim).sum())
        for stack in homological._hom_stacks(m, m)
    )


AUTOMORPHISM_CASES = (
    [(name, 3) for name in ["f2c2", "fx2", "fx3", "quiver_a1", "quiver_a2"]]
    + [(name, 4) for name in ["f2c2", "fx2", "fx3"]]
    + [("F3[x]/(x^2)", 3)]
)


@pytest.mark.parametrize("name,bound", AUTOMORPHISM_CASES)
def test_automorphism_count_matches_endomorphism_scan(name, bound):
    a = _orbit_case_algebra(name)
    checked = 0
    for m in enumerate_modules(a, bound):
        if a.p ** len(hom_basis(m, m)) > 2**16:
            continue
        assert _automorphism_count(m) == _scanned_automorphism_count(m)
        checked += 1
    assert checked >= 6


def test_automorphism_count_refuses_a_summand_with_non_local_endomorphisms(monkeypatch):
    s2, _, _ = direct_sum([simple_over_fx2()] * 2)
    whole = [(s2, identity_morphism(s2), identity_morphism(s2))]
    monkeypatch.setattr(homological, "indecomposable_summands", lambda m: whole)
    _automorphism_count.cache_clear()
    # End(S^2) = M_2(F_2): 10 non-units, not a power of 2
    with pytest.raises(InternalInconsistencyError, match="non-local"):
        _automorphism_count(s2)


def _matrices(p, n):
    """Every n x n matrix over F_p, as a (p**(n*n), n, n) stack."""
    digits = np.arange(p ** (n * n))[:, None] // p ** np.arange(n * n) % p
    return digits.reshape(-1, n, n)


def _nilpotent_of_order(k):
    """Relation X**k = 0, on a stack."""
    def holds(x, p):
        power = x
        for _ in range(k - 1):
            power = power @ x % p
        return ~power.any(axis=(1, 2))
    return holds


def _involution(x, p):
    """Relation X**2 = I, on a stack."""
    return ((x @ x - np.eye(x.shape[1], dtype=np.int64)) % p == 0).all(axis=(1, 2))


def _gl_order(p, n):
    order = 1
    for k in range(n):
        order *= p**n - p**k
    return order


# Each algebra has basis 1, g, g^2, ... for one generator g, so a module
# structure on F_p^n is the image X of g, subject to g's relation.
ORBIT_IDENTITY_CASES = [
    ("fx2", _nilpotent_of_order(2), 4),
    ("fx3", _nilpotent_of_order(3), 4),
    ("f2c2", _involution, 4),
    ("F3[x]/(x^2)", _nilpotent_of_order(2), 3),
]


def test_nilpotent_matrix_scan_matches_fine_herstein():
    # Fine and Herstein: there are q**(n*n - n) nilpotent n x n matrices over F_q
    for p, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        assert int(_nilpotent_of_order(n)(_matrices(p, n), p).sum()) == p ** (n * n - n)


@pytest.mark.parametrize("name,relation,bound", ORBIT_IDENTITY_CASES)
def test_enumeration_satisfies_the_orbit_counting_identity(name, relation, bound):
    # GL_n(F_p) acts on the module structures Rep_n(A) on F_p^n with the
    # isomorphism classes as orbits and Aut(M) as stabilizers, so
    # Σ_[M] 1/|Aut M| = |Rep_n(A)| / |GL_n(F_p)|: a missed class lowers
    # the left side and a duplicate raises it
    a = _orbit_case_algebra(name)
    p = a.p
    generator = regular_module(a).rho[1]
    assert relation(generator[None], p).all()
    mods = enumerate_modules(a, bound)
    for n in range(1, bound + 1):
        reps = int(relation(_matrices(p, n), p).sum())
        orbit_sum = sum(Fraction(1, _automorphism_count(m)) for m in mods if m.dim == n)
        assert orbit_sum == Fraction(reps, _gl_order(p, n))


def _quiver_representation_count(p, arrows, d):
    """Number of representations of dimension vector d in which every
    composite of two arrows is zero: one matrix of shape (d[t], d[s]) per
    arrow (s, t), scanned as one batch of all entry choices."""
    shapes = [(d[t], d[s]) for s, t in arrows]
    sizes = [rows * cols for rows, cols in shapes]
    total = sum(sizes)
    digits = np.arange(p ** total)[:, None] // p ** np.arange(total) % p
    blocks = np.split(digits, np.cumsum(sizes)[:-1], axis=1)
    mats = [b.reshape(len(digits), *shape) for b, shape in zip(blocks, shapes)]
    holds = np.ones(len(digits), dtype=bool)
    for (_, t), first in zip(arrows, mats):
        for (s, _), then in zip(arrows, mats):
            if s == t:
                holds &= ~(then @ first % p).any(axis=(1, 2))
    return int(holds.sum())


@pytest.mark.parametrize("name", ["quiver_a1", "quiver_a2"])
def test_quiver_enumeration_satisfies_the_orbit_counting_identity(name):
    # per dimension vector d, ∏ GL_{d_v}(F_p) acts on Rep(Q, d) with the
    # isomorphism classes of dimension vector d as orbits, so
    # Σ_[M] 1/|Aut M| = |Rep(Q, d)| / ∏ |GL_{d_v}(F_p)|
    quiver = json.loads(corpus_path(name).read_text())["algebras"][name]["quiver"]
    # nilpotency bound 2: every path of length 2 is zero, which implies the
    # listed relations, so Rep(Q, d) is "every composite of two arrows is 0"
    assert quiver["nil_bound"] == 2
    arrows = [(s, t) for s, t, _ in quiver["arrows"]]
    vertices = quiver["vertices"]
    a = load_workspace(corpus_path(name)).only_algebra()
    p = a.p
    # the trivial paths e_v come first in the basis and sum to the unit
    assert a.unit.tolist() == [1] * vertices + [0] * (a.dim - vertices)
    orbit_sums = {}
    for m in enumerate_modules(a, 3):
        d = tuple(int(r) for r in rank_stack(m.rho[:vertices], p))
        assert sum(d) == m.dim
        orbit_sums[d] = orbit_sums.get(d, 0) + Fraction(1, _automorphism_count(m))
    vectors = [d for d in itertools.product(range(4), repeat=vertices) if 0 < sum(d) <= 3]
    for d in vectors:
        gl = 1
        for size in d:
            gl *= _gl_order(p, size)
        reps = _quiver_representation_count(p, arrows, d)
        assert orbit_sums.get(d, 0) == Fraction(reps, gl), d
    assert set(orbit_sums) - {(0,) * vertices} <= set(vectors)


def test_ext_oracle_counts_automorphisms_only_of_middles_with_pairs(monkeypatch):
    # over F_2[x]/(x^2), 0 -> S -> E -> A ⊕ S -> 0 never has E = S^4;
    # |Aut(S^4)| = |GL_4(F_2)| needs S^4 split into its four summands
    pairs = {}
    counted = []
    exact_pair_count = homological._exact_pair_count
    automorphism_count = homological._automorphism_count

    def pair_spy(a, e, c):
        pairs[e.digest] = exact_pair_count(a, e, c)
        return pairs[e.digest]

    def automorphism_spy(m):
        counted.append(m.digest)
        return automorphism_count(m)

    monkeypatch.setattr(homological, "_exact_pair_count", pair_spy)
    monkeypatch.setattr(homological, "_automorphism_count", automorphism_spy)
    s = simple_over_fx2()
    reg = regular_module(fx2_algebra())
    quot, _, _ = direct_sum([reg, s])
    assert ext1_class_count_oracle(quot, s) == 2 ** ext1(quot, s).dimension
    s4, _, _ = direct_sum([s] * 4)
    assert pairs[s4.digest] == 0
    assert counted == [d for d, n in pairs.items() if n > 0]
    assert len(counted) < len(pairs)


def test_ext_oracle_over_odd_prime_and_zero_modules():
    a = Algebra(3, fx2_algebra().structure, [1, 0])  # F_3[x]/(x^2)
    mods = [m for m in enumerate_modules(a, 2) if m.dim >= 1]
    counts = []
    for quot, sub in itertools.product(mods, repeat=2):
        if quot.dim + sub.dim > 3:
            continue
        count = ext1_class_count_oracle(quot, sub)
        assert count == 3 ** ext1(quot, sub).dimension
        counts.append(count)
    assert counts == [3, 9, 1, 9, 1]
    z = zero_module(a)
    for m in mods:
        assert ext1_class_count_oracle(m, z) == 1
        assert ext1_class_count_oracle(z, m) == 1


def test_ext_parent_mismatch_rejected():
    s = simple_over_fx2()
    other = Module(Algebra(3, [[[1]]], [1]), [[[1]]])
    with pytest.raises(ValidationError):
        ext1(s, other)


def test_induced_on_cokernel_requires_killing_the_image():
    a = fx2_algebra()
    reg = regular_module(a)
    xmul = Morphism(reg, reg, reg.rho[1])
    _, proj = cokernel(xmul)
    survivor = Morphism(reg, reg, reg.rho[0])  # identity does not kill im(x)
    with pytest.raises(InternalInconsistencyError):
        induced_on_cokernel(proj, survivor)


# ---------------------------------------------------------------------------
# cotorsion pairs and resolutions
# ---------------------------------------------------------------------------


def test_all_injectives_resolution_of_simple():
    a = fx2_algebra()
    pair = all_injectives_pair(a)
    s = simple_over_fx2()
    ses = pair.resolve_right(s)
    assert ses.sub == s
    assert is_injective(ses.mid)
    assert pair.in_left(ses.quot)
    assert ses.mid.dim == 2  # socle embedding into the regular module's dual


def test_all_injectives_short_circuit_on_injective_input():
    a = fx2_algebra()
    pair = all_injectives_pair(a)
    reg = regular_module(a)
    ses = pair.resolve_right(reg)
    assert ses.mid == reg
    assert ses.quot.dim == 0


def test_all_injectives_left_resolution_is_trivial():
    a = fx2_algebra()
    pair = all_injectives_pair(a)
    s = simple_over_fx2()
    ses = pair.resolve_left(s)
    assert ses.sub.dim == 0
    assert ses.mid == s


def test_projectives_all_left_resolution_of_simple():
    a = fx2_algebra()
    pair = projectives_all_pair(a)
    s = simple_over_fx2()
    ses = pair.resolve_left(s)
    assert ses.quot == s
    assert is_projective(ses.mid)
    assert ses.sub.dim == 1


def test_projectives_all_right_resolution_is_trivial():
    a = fx2_algebra()
    pair = projectives_all_pair(a)
    s = simple_over_fx2()
    ses = pair.resolve_right(s)
    assert ses.sub == s
    assert ses.quot.dim == 0


def test_resolutions_validate_on_all_small_modules():
    for algebra in (fx2_algebra(), a1_algebra()):
        mods = enumerate_modules(algebra, 2)
        for pair in (all_injectives_pair(algebra), projectives_all_pair(algebra)):
            for m in mods:
                right = pair.resolve_right(m)
                assert right.validate() == []
                assert right.sub == m
                assert pair.in_right(right.mid)
                assert pair.in_left(right.quot)
                left = pair.resolve_left(m)
                assert left.validate() == []
                assert left.quot == m
                assert pair.in_left(left.mid)
                assert pair.in_right(left.sub)


def test_pair_validate_all_injectives_fx2():
    a = fx2_algebra()
    report = pair_validate(all_injectives_pair(a), enumerate_modules(a, 2))
    assert report["ok"], report
    assert report["checked"]["cross_pairs"] > 0


def test_pair_validate_projectives_all_quiver():
    a = a1_algebra()
    report = pair_validate(projectives_all_pair(a), enumerate_modules(a, 2))
    assert report["ok"], report
    assert report["checked"]["epis"] > 0


def test_pair_validate_flags_corrupted_predicate():
    # mislabel everything as right-class: orthogonality must fail
    a = fx2_algebra()

    class Corrupted:
        def in_left(self, m):
            return True

        def in_right(self, m):
            return True

    report = pair_validate(Corrupted(), enumerate_modules(a, 2))
    assert not report["ok"]
    assert report["orthogonality_failures"] != []


# ---------------------------------------------------------------------------
# cosyzygies and injective dimension
# ---------------------------------------------------------------------------


def test_cosyzygy_of_simple_over_fx2_is_simple():
    s = simple_over_fx2()
    c = cosyzygy(s)
    assert is_isomorphic(strip_injective_summands(c), s) is not None


def test_strip_removes_injective_summands():
    a = fx2_algebra()
    s = simple_over_fx2()
    reg = regular_module(a)
    total, _, _ = direct_sum([reg, s])
    stripped = strip_injective_summands(total)
    assert is_isomorphic(stripped, s) is not None
    assert strip_injective_summands(reg).dim == 0


def test_injective_dimension_examples():
    a = fx2_algebra()
    assert injective_dimension_within(regular_module(a), 3) == 0
    assert injective_dimension_within(simple_over_fx2(), 6) is None
    assert injective_dimension_within(zero_module(a), 2) == 0


def _walked_injective_dimension(m, cutoff):
    """Reference: up to cutoff + 1 reduced cosyzygy steps, no repeat check."""
    current = strip_injective_summands(m)
    for n in range(cutoff + 1):
        if current.dim == 0:
            return n
        current = strip_injective_summands(cosyzygy(current))
    return None


@pytest.mark.parametrize("name", ["f2c2", "fx2", "fx3", "quiver_a1", "quiver_a2"])
def test_injective_dimension_within_matches_the_walk_to_the_cutoff(name):
    # stopping at a repeated reduced cosyzygy changes no answer; every
    # sequence here reaches 0 or repeats within six steps
    a = load_workspace(corpus_path(name)).only_algebra()
    for m in enumerate_modules(a, 3):
        for cutoff in range(8):
            assert injective_dimension_within(m, cutoff) == _walked_injective_dimension(m, cutoff)


def test_hereditary_algebra_has_injective_dimension_at_most_one():
    a = line_algebra()
    for m in enumerate_modules(a, 2):
        dim = injective_dimension_within(m, 3)
        assert dim is not None and dim <= 1


def test_sink_simple_survives_ten_cosyzygy_steps():
    _, s1 = a1_vertex_simples()
    seq = iterated_cosyzygies(s1, 10)
    assert len(seq) == 10
    assert all(m.dim > 0 for m in seq)


def test_iterated_cosyzygies_stop_at_zero():
    a = fx2_algebra()
    reg = regular_module(a)
    assert iterated_cosyzygies(reg, 5) == []
