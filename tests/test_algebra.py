"""Tests for algebras, modules, and the abelian-category constructions.

Expected values marked as frozen were computed by hand or by the
independent brute-force oracles defined at the bottom of this file
(quiver-representation orbit counting, Jordan-type partition counting).
"""

import gc
import inspect
import itertools
import random
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waldcat.algebra as alg
import waldcat.homological as homological
from waldcat.algebra import (
    Algebra,
    Module,
    Morphism,
    QuiverPresentation,
    ShortExactSequence,
    algebra_from_quiver,
    block,
    cokernel,
    combine,
    direct_sum,
    enumerate_modules,
    ext1,
    fingerprint,
    from_pushout,
    hom_basis,
    identity_morphism,
    indecomposable_isomorphism,
    indecomposable_summands,
    into_pullback,
    invariant_subspaces,
    is_isomorphic,
    kernel,
    maps,
    memoized,
    pullback,
    pushout,
    regular_module,
    simple_modules,
    solve_map,
    solve_maps,
    submodule_from_columns,
    validate_algebra,
    zero_module,
    zero_morphism,
)
from waldcat.chains import (
    ChainComplex,
    cone,
    graded_map_equations,
    is_contractible,
)
from waldcat.diagrams import diagram_identity, diagram_map_equations
from waldcat.errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    ValidationError,
)
from waldcat.linalg import (
    FieldMatrix,
    column_space_basis,
    kernel_basis,
    pivot_blocks,
    rank,
    rank_stack,
    solve,
)
from waldcat.spans import SpanMorphism, SpanObject
from waldcat.workspace import corpus_path, load_workspace

from linear_system_reference import LinearSystem
from reference_checks import (
    image_factorization,
    is_split,
    span_section,
)
from samplers import map_kernel

CORPUS_NAMES = ["f2c2", "fx2", "fx3", "quiver_a1", "quiver_a2"]


def fx2_algebra():
    """F_2[x]/(x^2), basis {1, x}."""
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    return Algebra(2, c, [1, 0])


def fx3_algebra():
    """F_2[x]/(x^3), built from a one-loop quiver with nilpotency bound 3."""
    q = QuiverPresentation(2, 1, [(0, 0, "x")], nil_bound=3)
    return algebra_from_quiver(q)


def a1_algebra():
    """Two-vertex quiver: loop a0 at 0, arrow a1: 0 -> 1, radical square zero."""
    q = QuiverPresentation(
        2,
        2,
        [(0, 0, "a0"), (0, 1, "a1")],
        relations=[[(1, ["a0", "a0"])], [(1, ["a0", "a1"])]],
        nil_bound=2,
    )
    return algebra_from_quiver(q)


def a2_algebra():
    """Three-vertex quiver: loop at 0, chain 0 -> 1 -> 2, radical square zero."""
    q = QuiverPresentation(
        2,
        3,
        [(0, 0, "a0"), (0, 1, "a1"), (1, 2, "a2")],
        relations=[[(1, ["a0", "a0"])], [(1, ["a0", "a1"])], [(1, ["a1", "a2"])]],
        nil_bound=2,
    )
    return algebra_from_quiver(q)


def simple_over_fx2():
    """The unique simple over F_2[x]/(x^2): x acts as zero on one dimension."""
    return Module(fx2_algebra(), [[[1]], [[0]]])


# ---------------------------------------------------------------------------
# algebra validation
# ---------------------------------------------------------------------------


def test_validate_fx2_ok():
    report = validate_algebra(fx2_algebra())
    assert report["ok"]
    assert report["associativity_failures"] == []
    assert report["unit_failures"] == []


def test_validate_one_dimensional_field():
    f3 = Algebra(3, [[[1]]], [1])
    assert validate_algebra(f3)["ok"]


@pytest.mark.parametrize("p", [4, 1, 65537, 2**31 - 1])
def test_algebra_rejects_p_not_prime_or_too_large(p):
    with pytest.raises(ValidationError, match="prime below"):
        Algebra(p, [[[1]]], [1])


def test_validate_broken_unit_reported():
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    broken = Algebra(2, c, [0, 0])
    report = validate_algebra(broken)
    assert not report["ok"]
    assert report["unit_failures"] != []


def test_validate_nonassociative_reported():
    # u*v = u, v*u = v, u*u = v*v = 0: then (u v) u = 0 but u (v u) = u
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 1, 0] = 1
    c[1, 0, 1] = 1
    broken = Algebra(2, c, [1, 1])
    report = validate_algebra(broken)
    assert not report["ok"]
    assert report["associativity_failures"] != []


# ---------------------------------------------------------------------------
# quiver compilation
# ---------------------------------------------------------------------------


def test_quiver_two_vertex_dimension_four():
    a = a1_algebra()
    assert a.dim == 4
    assert a.basis_labels == ("e0", "e1", "a0", "a1")
    assert validate_algebra(a)["ok"]


def test_quiver_single_vertex_no_arrows_is_field():
    a = algebra_from_quiver(QuiverPresentation(5, 1, []))
    assert a.dim == 1
    assert validate_algebra(a)["ok"]
    assert a.structure[0, 0, 0] == 1


def test_quiver_without_long_paths_ignores_a_huge_nil_bound():
    # no path has length 1, so the path search stops after one round
    start = time.perf_counter()
    huge = algebra_from_quiver(QuiverPresentation(2, 1, [], nil_bound=10**9))
    assert time.perf_counter() - start < 1.0
    assert huge.digest == algebra_from_quiver(QuiverPresentation(2, 1, [])).digest


def test_quiver_loop_with_square_relation_matches_truncated_polynomials():
    q = QuiverPresentation(2, 1, [(0, 0, "x")], relations=[[(1, ["x", "x"])]], nil_bound=3)
    a = algebra_from_quiver(q)
    b = fx2_algebra()
    assert a.dim == b.dim == 2
    assert np.array_equal(a.structure, b.structure)
    assert np.array_equal(a.unit, b.unit)


def test_quiver_relation_coefficients_are_reduced_mod_p():
    def loop(coeff):
        q = QuiverPresentation(2, 1, [(0, 0, "x")], relations=[[(coeff, ["x", "x"])]],
                               nil_bound=3)
        return algebra_from_quiver(q)

    # coefficients beyond int64 are exact: only their residue mod p counts
    assert loop(2**70 + 1).digest == loop(1).digest == fx2_algebra().digest
    assert loop(2**70).digest == loop(0).digest == fx3_algebra().digest


def test_quiver_three_vertex_dimension_six():
    a = a2_algebra()
    assert a.dim == 6
    assert validate_algebra(a)["ok"]


def test_quiver_noncomposable_relation_rejected():
    q = QuiverPresentation(
        2,
        2,
        [(0, 1, "a"), (0, 1, "b")],
        relations=[[(1, ["a", "b"])]],  # target of a is 1, source of b is 0
        nil_bound=3,
    )
    with pytest.raises(ValidationError):
        algebra_from_quiver(q)


def test_quiver_truncated_polynomial_degree_three():
    a = fx3_algebra()
    assert a.dim == 3
    assert a.basis_labels == ("e0", "x", "x*x")
    assert validate_algebra(a)["ok"]
    # x * x*x = 0 under the bound
    assert not a.multiply([0, 1, 0], [0, 0, 1]).any()


# ---------------------------------------------------------------------------
# module laws and equivariance, checked on the stacked action
# ---------------------------------------------------------------------------


def _validate_reference(module):
    """Reference: the module laws checked one basis pair at a time."""
    p, d, n = module.p, module.algebra.dim, module.dim
    c = module.algebra.structure
    zero = np.zeros((n, n), dtype=np.int64)
    problems = []
    unit = sum(
        (int(module.algebra.unit[i]) * module.rho[i] for i in range(d)), zero
    ) % p
    if not np.array_equal(unit, np.eye(n, dtype=np.int64)):
        problems.append("unit does not act as the identity")
    for i in range(d):
        for j in range(d):
            lhs = (module.rho[i] @ module.rho[j]) % p
            rhs = sum((int(c[i, j, k]) * module.rho[k] for k in range(d)), zero) % p
            if not np.array_equal(lhs, rhs):
                problems.append("action not multiplicative at basis pair (%d, %d)" % (i, j))
    return problems


def _corrupted(module, rng, entries):
    """``module`` with ``entries`` random action entries overwritten."""
    rho = module.rho.copy()
    d, n = module.algebra.dim, module.dim
    for _ in range(entries):
        rho[rng.integers(d), rng.integers(n), rng.integers(n)] = rng.integers(module.p)
    return Module(module.algebra, rho, check=False)


def test_stacked_validate_matches_pairwise_loop():
    fx2 = fx2_algebra()
    broken_unit = Module(fx2, [[[0]], [[0]]], check=False)
    one_pair = Module(fx2, [[[1]], [[1]]], check=False)
    zero_dim = Module(a1_algebra(), [np.zeros((0, 0), dtype=np.int64)] * 4, check=False)
    assert _validate_reference(broken_unit) == ["unit does not act as the identity"]
    assert _validate_reference(one_pair) == [
        "action not multiplicative at basis pair (1, 1)"
    ]
    assert broken_unit.validate() == _validate_reference(broken_unit)
    assert one_pair.validate() == _validate_reference(one_pair)
    assert zero_dim.validate() == _validate_reference(zero_dim) == []
    assert zero_module(a1_algebra()).validate() == []
    rng = np.random.default_rng(11)
    several = 0
    for algebra in (fx2, a1_algebra(), a2_algebra(), _truncated_polynomial_algebra(3, 3)):
        for m in enumerate_modules(algebra, 2) + (regular_module(algebra),):
            assert m.validate() == _validate_reference(m) == []
            if not m.dim:
                continue
            for entries in (1, 2, 5):
                bad = _corrupted(m, rng, entries)
                expected = _validate_reference(bad)
                several += len(expected) > 2
                assert bad.validate() == expected
    assert several


def _is_equivariant_reference(f):
    """Reference: F ρ_dom(e_i) == ρ_cod(e_i) F compared one i at a time."""
    p = f.p
    return all(
        (f.matrix @ FieldMatrix(p, f.dom.rho[i])) == (FieldMatrix(p, f.cod.rho[i]) @ f.matrix)
        for i in range(f.dom.algebra.dim)
    )


@pytest.mark.parametrize(
    "make",
    [fx2_algebra, a1_algebra, lambda: _truncated_polynomial_algebra(3, 3)],
    ids=["fx2", "a1", "F3[x]/(x^3)"],
)
def test_stacked_equivariance_matches_loop(make):
    algebra = make()
    rng = np.random.default_rng(algebra.dim)
    mods = list(enumerate_modules(algebra, 2)) + [regular_module(algebra)]
    assert any(m.dim == 0 for m in mods)
    seen = {True: 0, False: 0}
    for dom, cod in itertools.product(mods, repeat=2):
        basis = hom_basis(dom, cod)
        candidates = [
            combine(dom, cod, basis, rng.integers(0, algebra.p, len(basis))),
            Morphism(dom, cod, rng.integers(0, algebra.p, (cod.dim, dom.dim)), check=False),
        ]
        for f in candidates:
            expected = _is_equivariant_reference(f)
            assert f.is_equivariant() is expected
            seen[expected] += 1
    assert seen[True] and seen[False]


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------


def test_hom_dimensions_over_fx2():
    # frozen: solved the 2x2 commutation system by hand
    a = fx2_algebra()
    reg = regular_module(a)
    s = simple_over_fx2()
    assert len(hom_basis(s, s)) == 1
    assert len(hom_basis(s, reg)) == 1
    assert len(hom_basis(reg, s)) == 1
    assert len(hom_basis(reg, reg)) == 2


def test_memoized_keys_by_digest_with_defaults_applied():
    calls = []

    @memoized
    def size(m, extra=1):
        calls.append(m.digest)
        return m.dim + extra

    m = regular_module(fx2_algebra())
    twin = Module(fx2_algebra(), m.rho)
    assert twin is not m and twin.algebra is not m.algebra
    assert size(m) == size(m, 1) == size(twin) == size(m, extra=1) == 3
    assert len(calls) == 1
    assert size(m, 2) == 4
    assert len(calls) == 2
    size.cache_clear()
    assert size(m) == 3
    assert len(calls) == 3


def test_memoized_keys_morphisms_by_content():
    calls = []

    @memoized
    def injective(f):
        calls.append(f.digest)
        return f.is_mono()

    a = fx2_algebra()
    reg = regular_module(a)
    xmul = Morphism(reg, reg, reg.rho[1])
    twin_reg = Module(fx2_algebra(), reg.rho)
    twin = Morphism(twin_reg, twin_reg, reg.rho[1].copy())
    assert twin is not xmul and twin.digest == xmul.digest
    assert injective(xmul) is injective(twin) is False
    assert len(calls) == 1
    # another matrix, and the same zero matrix between other end modules
    s = simple_over_fx2()
    semisimple, _, _ = direct_sum([s, s])
    assert injective(identity_morphism(reg))
    for dom, cod in ((reg, reg), (reg, semisimple), (semisimple, reg)):
        injective(zero_morphism(dom, cod))
    assert len(calls) == len(set(calls)) == 5
    # the table keeps the digest, not the map
    shifted = identity_morphism(reg) + xmul
    alive = weakref.ref(shifted)
    assert injective(shifted)
    del shifted
    gc.collect()
    assert alive() is None
    assert injective(identity_morphism(reg) + xmul)
    assert len(calls) == 6


def _table(fn):
    """The dict behind a memoized ``fn``: ``cache_clear`` is its ``clear``."""
    return fn.cache_clear.__self__


def test_memoized_places_keywords_without_binding_a_signature(monkeypatch):
    calls = []

    @memoized
    def shift(m, by, extra=0):
        calls.append((m.digest, by, extra))
        return m.dim + by + extra

    def refuse(*args, **kwargs):
        raise AssertionError("inspect.Signature.bind was called")

    monkeypatch.setattr(inspect.Signature, "bind", refuse)
    m = regular_module(fx2_algebra())
    assert (shift(m, 1) == shift(m, by=1) == shift(m=m, by=1) == shift(by=1, m=m)
            == shift(m, 1, extra=0) == shift(m, 1, 0) == 3)
    assert len(calls) == 1
    assert shift(m, by=1, extra=2) == shift(m, 1, 2) == 5
    assert len(calls) == 2
    bad_calls = [
        ((m, 1), {"bye": 1}, "unexpected keyword argument 'bye'"),
        ((m, 1), {"by": 2}, "multiple values for argument 'by'"),
        ((m,), {"extra": 1}, "missing required argument 'by'"),
        ((), {}, "missing required argument 'm'"),
    ]
    for args, kwargs, message in bad_calls:
        with pytest.raises(TypeError, match=message):
            shift(*args, **kwargs)
    assert len(calls) == 2


def test_memoized_keys_field_matrices_by_content():
    calls = []

    @memoized
    def total(cols):
        calls.append(cols.shape)
        return int(cols.a.sum())

    data = [[1, 0, 1], [0, 1, 1]]
    assert total(FieldMatrix(2, data)) == total(FieldMatrix(2, np.array(data))) == 4
    assert len(calls) == 1
    # the same bytes in another shape, and the same entries over F_3
    assert total(FieldMatrix(2, np.reshape(data, (3, 2)))) == 4
    assert total(FieldMatrix(3, data)) == 4
    assert calls == [(2, 3), (3, 2), (2, 3)]
    keys = list(_table(total))
    assert len(keys) == 3
    assert all(not isinstance(part, FieldMatrix) for key in keys for part in key)


def test_morphism_digest_is_hashed_once(monkeypatch):
    hashed = []
    digest = alg._digest

    def spy(*parts):
        hashed.append(parts[0])
        return digest(*parts)

    reg = regular_module(fx2_algebra())
    xmul = Morphism(reg, reg, reg.rho[1])
    monkeypatch.setattr(alg, "_digest", spy)
    first = xmul.digest
    assert xmul.digest is first
    assert hashed == [b"morphism"]
    twin = Morphism(reg, reg, reg.rho[1].copy())
    assert twin.digest == first
    assert hashed == [b"morphism"] * 2


def _fresh_fx2_regular():
    """fx2's regular module over a new algebra object, with new arrays."""
    return Module(fx2_algebra(), regular_module(fx2_algebra()).rho.copy())


def _fresh_fx2_xmul():
    reg = _fresh_fx2_regular()
    return Morphism(reg, reg, reg.rho[1].copy())


def _frozen_arrays(value):
    """The arrays inside a memoized value; any sequence must be a tuple."""
    if isinstance(value, tuple):
        for part in value:
            yield from _frozen_arrays(part)
    elif isinstance(value, Module):
        yield value.rho
    elif isinstance(value, Morphism):
        yield from (value.matrix.a, value.dom.rho, value.cod.rho)
    else:
        raise AssertionError("unexpected part of a memoized value: %r" % (value,))


CONSTRUCTION_TABLES = [
    (kernel, lambda: (_fresh_fx2_xmul(),)),
    (cokernel, lambda: (_fresh_fx2_xmul(),)),
    (submodule_from_columns,
     lambda: (_fresh_fx2_regular(), kernel_basis(FieldMatrix(2, [[0, 0], [1, 0]])))),
    (indecomposable_summands,
     lambda: (direct_sum([_fresh_fx2_regular(), simple_over_fx2()])[0],)),
    (homological.injective_embedding, lambda: (_fresh_fx2_regular(),)),
    (zero_module, lambda: (fx2_algebra(),)),
    (identity_morphism, lambda: (_fresh_fx2_regular(),)),
]


@pytest.mark.parametrize("fn, build", CONSTRUCTION_TABLES,
                         ids=[fn.__name__ for fn, _ in CONSTRUCTION_TABLES])
def test_construction_tables_share_entries_and_hand_out_frozen_values(fn, build):
    table = _table(fn)
    fn.cache_clear()
    assert not table
    args, twin_args = build(), build()
    assert all(a is not b for a, b in zip(args, twin_args))
    first = fn(*args)
    entries = len(table)
    assert entries >= 1
    assert fn(*twin_args) is first
    assert len(table) == entries
    assert all(not a.flags.writeable for a in _frozen_arrays(first))
    fn.cache_clear()
    assert not table
    assert fn(*twin_args) == first
    assert len(table) == entries


def test_hom_basis_callers_get_their_own_list():
    reg = regular_module(fx2_algebra())
    first = hom_basis(reg, reg)
    first.append(first[0])
    assert len(hom_basis(reg, reg)) == 2


def test_hom_parent_mismatch_rejected():
    s = simple_over_fx2()
    f3 = Algebra(3, [[[1]]], [1])
    other = Module(f3, [[[1]]])
    with pytest.raises(ValidationError):
        hom_basis(s, other)


def test_hom_basis_members_are_equivariant():
    a = a1_algebra()
    mods = enumerate_modules(a, 2)
    for m in mods:
        for n in mods:
            for f in hom_basis(m, n):
                assert f.is_equivariant()


# ---------------------------------------------------------------------------
# kernels, cokernels, images
# ---------------------------------------------------------------------------


def test_kernel_cokernel_of_identity_vanish():
    s = simple_over_fx2()
    k, _ = kernel(identity_morphism(s))
    c, _ = cokernel(identity_morphism(s))
    assert k.dim == 0
    assert c.dim == 0


def test_kernel_cokernel_of_zero_map():
    s = simple_over_fx2()
    k, _ = kernel(zero_morphism(s, s))
    c, _ = cokernel(zero_morphism(s, s))
    assert k.dim == 1
    assert c.dim == 1


def test_multiplication_by_x_has_simple_kernel_and_cokernel():
    a = fx2_algebra()
    reg = regular_module(a)
    xmul = Morphism(reg, reg, reg.rho[1])
    k, incl = kernel(xmul)
    c, proj = cokernel(xmul)
    s = simple_over_fx2()
    assert k.dim == 1 and c.dim == 1
    assert is_isomorphic(k, s) is not None
    assert is_isomorphic(c, s) is not None
    assert (xmul @ incl).is_zero()
    assert (proj @ xmul).is_zero()


def test_rank_nullity_accounting_on_random_maps():
    a = fx2_algebra()
    mods = enumerate_modules(a, 2)
    rng = random.Random(7)
    for _ in range(60):
        m = rng.choice(mods)
        n = rng.choice(mods)
        basis = hom_basis(m, n)
        if not basis:
            continue
        coeffs = [rng.randrange(2) for _ in basis]
        f = zero_morphism(m, n)
        for c, b in zip(coeffs, basis):
            if c:
                f = f + b
        k, _ = kernel(f)
        q, _ = cokernel(f)
        r = rank(f.matrix)
        assert k.dim + r == m.dim
        assert r + q.dim == n.dim


def test_image_factorization_composes_back():
    a = a1_algebra()
    mods = enumerate_modules(a, 2)
    rng = random.Random(3)
    for _ in range(40):
        m = rng.choice(mods)
        n = rng.choice(mods)
        basis = hom_basis(m, n)
        if not basis:
            continue
        f = basis[rng.randrange(len(basis))]
        img, epi, mono = image_factorization(f)
        assert epi.is_epi()
        assert mono.is_mono()
        assert (mono @ epi) == f
        assert img.dim == rank(f.matrix)


# ---------------------------------------------------------------------------
# sums, pushouts, pullbacks
# ---------------------------------------------------------------------------


def test_direct_sum_injections_and_projections():
    s = simple_over_fx2()
    reg = regular_module(fx2_algebra())
    total, injs, projs = direct_sum([s, reg, s])
    assert total.dim == 4
    for i, (inj, proj) in enumerate(zip(injs, projs)):
        assert (proj @ inj) == identity_morphism(inj.dom)
        for j, other in enumerate(projs):
            if j != i:
                assert (other @ inj).is_zero()


def test_pushout_along_identity_is_isomorphic():
    reg = regular_module(fx2_algebra())
    p, f, g = pushout(identity_morphism(reg), identity_morphism(reg))
    assert p.dim == reg.dim
    assert is_isomorphic(p, reg) is not None


def test_pushout_of_socle_inclusion_along_collapse():
    a = fx2_algebra()
    reg = regular_module(a)
    xmul = Morphism(reg, reg, reg.rho[1])
    soc, incl = kernel(xmul)
    z = zero_module(a)
    p, _, _ = pushout(incl, zero_morphism(soc, z))
    assert p.dim == 1
    assert is_isomorphic(p, simple_over_fx2()) is not None


def test_pullback_of_two_covers_has_dimension_three():
    a = fx2_algebra()
    reg = regular_module(a)
    xmul = Morphism(reg, reg, reg.rho[1])
    _, proj = cokernel(xmul)
    p, to_b, to_c = pullback(proj, proj)
    assert p.dim == 3
    assert (proj @ to_b) == (proj @ to_c)


def test_pushout_square_commutes():
    a = a1_algebra()
    mods = enumerate_modules(a, 2)
    rng = random.Random(11)
    for _ in range(40):
        src = rng.choice(mods)
        b = rng.choice(mods)
        c = rng.choice(mods)
        fs = hom_basis(src, b)
        gs = hom_basis(src, c)
        if not fs or not gs:
            continue
        f = fs[rng.randrange(len(fs))]
        g = gs[rng.randrange(len(gs))]
        _, from_b, from_c = pushout(f, g)
        assert (from_b @ f) == (from_c @ g)


def test_pushout_and_pullback_legs_are_the_sum_maps_composed():
    # the legs read off the block map's sum equal the canonical injections
    # and projections of a separately built sum, composed, byte for byte
    a = a1_algebra()
    mods = enumerate_modules(a, 2)
    checked = 0
    for apex, b, c in itertools.product(mods, repeat=3):
        for f, g in itertools.product(hom_basis(apex, b)[:2], hom_basis(apex, c)[:2]):
            _, proj = cokernel(block([[f], [-g]]))
            _, (inj_b, inj_c), _ = direct_sum([b, c])
            _, from_b, from_c = pushout(f, g)
            assert from_b.digest == (proj @ inj_b).digest
            assert from_c.digest == (proj @ inj_c).digest
            checked += 1
        for f, g in itertools.product(hom_basis(b, apex)[:2], hom_basis(c, apex)[:2]):
            _, incl = kernel(block([[f, -g]]))
            _, _, (proj_b, proj_c) = direct_sum([b, c])
            _, to_b, to_c = pullback(f, g)
            assert to_b.digest == (proj_b @ incl).digest
            assert to_c.digest == (proj_c @ incl).digest
            checked += 1
    assert checked > 50


def test_pushout_of_mono_is_mono_with_matching_cokernel():
    # snake-lemma consequence, checked on every mono between small modules
    a = fx2_algebra()
    mods = enumerate_modules(a, 2)
    rng = random.Random(5)
    checked = 0
    for m in mods:
        for n in mods:
            basis = hom_basis(m, n)
            for coeffs in itertools.product(range(2), repeat=len(basis)):
                if not any(coeffs):
                    continue
                f = zero_morphism(m, n)
                for cc, b in zip(coeffs, basis):
                    if cc:
                        f = f + b
                if not f.is_mono():
                    continue
                targets = [t for t in mods if hom_basis(m, t)]
                g_cod = targets[rng.randrange(len(targets))]
                gb = hom_basis(m, g_cod)
                g = gb[rng.randrange(len(gb))]
                _, from_n, from_g = pushout(f, g)
                assert from_g.is_mono()
                cok_f, _ = cokernel(f)
                cok_pushed, _ = cokernel(from_g)
                assert is_isomorphic(cok_f, cok_pushed) is not None
                checked += 1
    assert checked > 10


# ---------------------------------------------------------------------------
# short exact sequences
# ---------------------------------------------------------------------------


def test_ses_dimensions_add_up():
    a = fx2_algebra()
    reg = regular_module(a)
    xmul = Morphism(reg, reg, reg.rho[1])
    _, incl = kernel(xmul)
    ses = ShortExactSequence(incl, cokernel(incl)[1], check=False)
    assert ses.sub.dim + ses.quot.dim == ses.mid.dim


def test_ses_rejects_non_exact_data():
    s = simple_over_fx2()
    reg = regular_module(fx2_algebra())
    # the socle inclusion composed with nothing: claim quotient S with zero map
    soc_incl = hom_basis(s, reg)[0]
    bad_epi = zero_morphism(reg, s)
    with pytest.raises(ValidationError):
        ShortExactSequence(soc_incl, bad_epi)


def test_nonsplit_extension_detected():
    # 0 -> S -> A -> S -> 0 over F_2[x]/(x^2) does not split
    a = fx2_algebra()
    reg = regular_module(a)
    xmul = Morphism(reg, reg, reg.rho[1])
    _, incl = kernel(xmul)
    ses = ShortExactSequence(incl, cokernel(incl)[1], check=False)
    assert not is_split(ses)


def test_split_extension_detected():
    s = simple_over_fx2()
    total, injs, _ = direct_sum([s, s])
    ses = ShortExactSequence(injs[0], cokernel(injs[0])[1], check=False)
    assert is_split(ses)


# ---------------------------------------------------------------------------
# submodules and simples
# ---------------------------------------------------------------------------


def test_invariant_subspaces_of_regular_fx2():
    # frozen: 0, the socle, and the whole module
    reg = regular_module(fx2_algebra())
    subs = invariant_subspaces(reg)
    assert len(subs) == 3
    assert sorted(s.shape[1] for s in subs) == [0, 1, 2]


def test_simples_fx2():
    simples = simple_modules(fx2_algebra())
    assert len(simples) == 1
    assert simples[0].dim == 1
    assert not simples[0].rho[1].any()


def test_simples_of_quiver_algebras():
    assert [s.dim for s in simple_modules(a1_algebra())] == [1, 1]
    assert [s.dim for s in simple_modules(a2_algebra())] == [1, 1, 1]


def test_submodule_from_columns_rejects_non_invariant():
    reg = regular_module(fx2_algebra())
    # the line spanned by the unit is not invariant: x moves it to the socle
    cols = FieldMatrix(2, [[1], [0]])
    with pytest.raises(ValidationError):
        submodule_from_columns(reg, cols)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_plain_field_vector_spaces():
    f2 = Algebra(2, [[[1]]], [1])
    mods = enumerate_modules(f2, 2)
    assert [m.dim for m in mods] == [0, 1, 2]


def test_enumerate_fx2_small_dimensions():
    # frozen: Jordan types with blocks of size <= 2; see partition oracle below
    mods = enumerate_modules(fx2_algebra(), 2)
    assert [m.dim for m in mods] == [0, 1, 2, 2]
    assert _partition_count_oracle(2, 2) == 2


def test_enumerate_matches_partition_oracle_for_truncated_polynomials():
    # modules over F_2[x]/(x^k) of dimension m = partitions of m with parts <= k
    for algebra, k in ((fx2_algebra(), 2), (fx3_algebra(), 3)):
        mods = enumerate_modules(algebra, 3)
        for m in range(1, 4):
            got = sum(1 for mod in mods if mod.dim == m)
            assert got == _partition_count_oracle(m, k)


def test_enumerate_a1_dimension_one():
    mods = enumerate_modules(a1_algebra(), 1)
    assert [m.dim for m in mods] == [0, 1, 1]


def test_enumerate_matches_quiver_orbit_oracle():
    # independent oracle: count orbits of quiver representations directly
    mods = enumerate_modules(a2_algebra(), 3)
    counts = {m: sum(1 for mod in mods if mod.dim == m) for m in range(1, 4)}
    oracle = _a2_representation_orbit_counts(3)
    assert counts == oracle


def test_enumerate_output_has_no_isomorphic_pair():
    mods = enumerate_modules(a1_algebra(), 2)
    for i, m in enumerate(mods):
        for n in mods[i + 1 :]:
            assert is_isomorphic(m, n) is None


def test_enumerate_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_modules(fx2_algebra(), 5, budget=10)


def test_enumerate_is_deterministic():
    enumerate_modules.cache_clear()
    first = [m.digest for m in enumerate_modules(a1_algebra(), 2)]
    enumerate_modules.cache_clear()
    second = [m.digest for m in enumerate_modules(a1_algebra(), 2)]
    assert first == second


def test_enumeration_compares_each_middle_only_under_its_first_socle_simple(monkeypatch):
    # a middle with an earlier simple in its socle is dropped unseen, and
    # the rest meet only the classes kept under their own simple: 306
    # isomorphism tests and 24 span searches when every middle meets the
    # whole layer
    a = load_workspace(corpus_path("quiver_a1")).only_algebra()
    simple_modules(a)
    counts = {"is_isomorphic": 0, "_find_invertible_combination": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(alg, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(alg, name, counted)
    enumerate_modules.cache_clear()
    mods = enumerate_modules(a, 4)
    assert len(mods) == 33
    assert counts == {"is_isomorphic": 146, "_find_invertible_combination": 6}
    # the layers, joined in order of dimension, are already in this order
    keys = [(m.dim, fingerprint(m), m.digest) for m in mods]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------


def test_isomorphic_to_itself():
    reg = regular_module(fx2_algebra())
    iso = is_isomorphic(reg, reg)
    assert iso is not None
    assert iso.is_iso()


def test_semisimple_not_isomorphic_to_regular():
    s = simple_over_fx2()
    ss, _, _ = direct_sum([s, s])
    reg = regular_module(fx2_algebra())
    assert is_isomorphic(ss, reg) is None


def test_conjugated_action_recognised():
    a = fx2_algebra()
    reg = regular_module(a)
    h = FieldMatrix(2, [[1, 1], [0, 1]])
    hinv = solve(h, FieldMatrix.identity(2, 2))
    twisted = Module(a, [h @ FieldMatrix(2, m) @ hinv for m in reg.rho])
    iso = is_isomorphic(reg, twisted)
    assert iso is not None
    assert iso.is_iso() and iso.is_equivariant()


def test_isomorphism_is_equivariant_and_invertible_on_random_conjugates():
    rng = random.Random(19)
    a = a1_algebra()
    mods = [m for m in enumerate_modules(a, 3) if m.dim >= 2]
    for _ in range(25):
        m = rng.choice(mods)
        # random invertible change of basis
        while True:
            h = FieldMatrix(2, [[rng.randrange(2) for _ in range(m.dim)] for _ in range(m.dim)])
            if rank(h) == m.dim:
                break
        hinv = solve(h, FieldMatrix.identity(2, m.dim))
        twisted = Module(a, [h @ FieldMatrix(2, mm) @ hinv for mm in m.rho])
        iso = is_isomorphic(m, twisted)
        assert iso is not None
        assert iso.is_iso() and iso.is_equivariant()


def test_indecomposable_summands_of_mixed_sum():
    a = fx2_algebra()
    s = simple_over_fx2()
    reg = regular_module(a)
    total, _, _ = direct_sum([reg, s, s])
    pieces = indecomposable_summands(total)
    assert sorted(p.dim for p, _, _ in pieces) == [1, 1, 2]
    # inclusions followed by projections sum to the identity
    acc = zero_morphism(total, total)
    for piece, incl, proj in pieces:
        assert (proj @ incl) == identity_morphism(piece)
        acc = acc + (incl @ proj)
    assert acc == identity_morphism(total)


def _decomposition_cases(name):
    """(pieces, pieces in another order, same-dimension sum of other
    pieces): A ⊕ S, S ⊕ A and S² over fx2; P_0 ⊕ P_1, P_1 ⊕ P_0 and P_1³
    from the regular module of quiver_a1."""
    a = _corpus_algebra(name)
    if name == "fx2":
        s, reg = simple_modules(a)[0], regular_module(a)
        return [reg, s], [s, reg], [s, s]
    small, large = sorted(
        (piece for piece, _, _ in indecomposable_summands(regular_module(a))),
        key=lambda piece: piece.dim,
    )
    return [large, small], [small, large], [small] * large.dim


@pytest.mark.parametrize("name", ["fx2", "quiver_a1"])
def test_isomorphism_by_decomposition_matches_summands(name):
    pieces, reordered, others = _decomposition_cases(name)
    m1 = direct_sum(pieces)[0]
    iso = alg._isomorphism_by_decomposition(m1, direct_sum(reordered)[0])
    assert iso is not None and iso.dom.digest == m1.digest
    assert iso.is_iso() and iso.is_equivariant()
    # same dimension, different summands
    assert alg._isomorphism_by_decomposition(pieces[0], direct_sum(others)[0]) is None


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_indecomposable_isomorphism_matches_is_isomorphic(name):
    a = _corpus_algebra(name)
    rng = np.random.default_rng(11 + sum(map(ord, name)))
    pieces = [
        m for m in enumerate_modules(a, 3)
        if m.dim > 0 and len(indecomposable_summands(m)) == 1
    ]
    verdicts = []
    for m1, m2 in itertools.product(pieces, repeat=2):
        twisted = _random_conjugate(m2, rng)
        iso = indecomposable_isomorphism(m1, twisted)
        assert (iso is None) == (is_isomorphic(m1, twisted) is None)
        assert iso is None or (iso.is_iso() and iso.is_equivariant())
        verdicts.append(iso is not None)
    assert verdicts.count(True) == len(pieces) < len(verdicts)


# ---------------------------------------------------------------------------
# batched span scans against the scalar loops they replaced
# ---------------------------------------------------------------------------


def _corpus_algebra(name):
    return load_workspace(corpus_path(name)).only_algebra()


def _random_conjugate(m, rng):
    """m with its action rewritten in a random basis."""
    while True:
        h = FieldMatrix(m.p, rng.integers(0, m.p, size=(m.dim, m.dim)))
        if rank(h) == m.dim:
            break
    hinv = solve(h, FieldMatrix.identity(m.p, m.dim))
    return Module(m.algebra, [h @ FieldMatrix(m.p, a) @ hinv for a in m.rho])


def _scalar_invertible_combination(basis, p, dim):
    """First invertible combination in itertools.product order, one rank each."""
    dom, cod = basis[0].dom, basis[0].cod
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        if not any(coeffs):
            continue
        cand = combine(dom, cod, basis, coeffs).matrix
        if rank(cand) == dim:
            return cand
    return None


def _scalar_splitting_endo(module, batched):
    """The exhaustive splitting scan as a scalar loop; larger spans go to
    ``batched``, whose fallbacks are shared."""
    p, dim = module.p, module.dim
    basis = hom_basis(module, module)
    if p ** len(basis) > alg._ENUMERATION_CAP:
        return batched(module)
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        if not any(coeffs):
            continue
        power = combine(module, module, basis, coeffs).matrix
        for _ in range(max(1, dim.bit_length())):
            power = power @ power
        if 0 < rank(power) < dim:
            return kernel_basis(power), column_space_basis(power)
    return None


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("scan_cells", [alg._SCAN_CELLS, 8])
def test_batched_invertible_search_matches_scalar_scan(name, scan_cells, monkeypatch):
    # 8 cells puts at most two candidates in a chunk, so the scan crosses chunks
    monkeypatch.setattr(alg, "_SCAN_CELLS", scan_cells)
    a = _corpus_algebra(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    mods = [m for m in enumerate_modules(a, 3) if m.dim > 0]
    found = []
    for m1 in mods:
        for m2 in mods:
            if m1.dim != m2.dim:
                continue
            twisted = _random_conjugate(m2, rng)
            basis = hom_basis(m1, twisted)
            if not basis or a.p ** len(basis) > alg._ENUMERATION_CAP:
                continue
            expected = _scalar_invertible_combination(basis, a.p, m1.dim)
            got = alg._find_invertible_combination(basis, a.p, m1.dim)
            assert (got is None) == (expected is None)
            assert got is None or got == expected
            found.append(got is not None)
    # both outcomes occur: isomorphic and non-isomorphic pairs were scanned
    assert set(found) == {True, False}


def _scalar_beyond_cap_search(mats, p, accept, seed):
    """The beyond-the-cap span search one candidate and one ``accept`` at a
    time: the basis, its pairwise sums, then seeded draws combined as
    ``combine`` did."""
    def candidates():
        yield from mats
        for m1, m2 in itertools.combinations(mats, 2):
            yield m1 + m2
        rng = np.random.default_rng(int(alg._digest(*seed)[:8], 16))
        for _ in range(alg._RANDOM_TRIES):
            coeffs = rng.integers(0, p, size=len(mats))
            total = np.zeros(mats[0].shape, dtype=np.int64)
            for c, m in zip(coeffs, mats):
                if c:
                    total = (total + int(c) * m.a) % p
            yield FieldMatrix(p, total)

    for cand in candidates():
        if accept(cand.a[None])[0]:
            return cand.a
    return None


def _invertible(p, dim):
    def invertible(stack):
        return rank_stack(stack, p) == dim
    return invertible


def _splits(p, dim):
    """The mask ``_find_splitting_endo`` searches with: 0 < rank < dim
    after ``max(1, dim.bit_length())`` squarings."""
    def splits(stack):
        for _ in range(max(1, dim.bit_length())):
            stack = np.matmul(stack, stack) % p
        r = rank_stack(stack, p)
        return (0 < r) & (r < dim)
    return splits


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_beyond_cap_span_search_matches_scalar_loop(name, monkeypatch):
    # 100 cells puts a few candidates in a chunk, so each batch crosses chunks
    monkeypatch.setattr(alg, "_SCAN_CELLS", 100)
    a = _corpus_algebra(name)
    p = a.p
    rng = np.random.default_rng(3 + sum(map(ord, name)))
    s = simple_modules(a)[0]
    small = [m for m in enumerate_modules(a, 2) if m.dim == 2]
    power = direct_sum([s] * 5)[0]
    targets = [_random_conjugate(power, rng)]
    targets += [_random_conjugate(direct_sum([s] * 3 + [m])[0], rng) for m in small]
    outcomes = set()
    for target in targets:
        searches = [
            (hom_basis(target, target), _splits(p, target.dim), ("splitter", target.digest)),
            (hom_basis(power, target), _invertible(p, target.dim), ("invcombo", b"x")),
        ]
        for basis, accept, seed in searches:
            mats = [f.matrix for f in basis]
            if p ** len(mats) <= alg._ENUMERATION_CAP:
                continue
            got = alg._search_span(mats, p, accept, seed)
            expected = _scalar_beyond_cap_search(mats, p, accept, seed)
            assert (got is None) == (expected is None)
            assert got is None or np.array_equal(got, expected)
            outcomes.add((accept.__name__, got is not None))
    # a split and an isomorphism were found beyond the cap, and a search
    # between non-isomorphic modules ran through every draw
    assert {("splits", True), ("invertible", True), ("invertible", False)} <= outcomes


@pytest.mark.parametrize("kind", ["invertible", "splits"])
def test_beyond_cap_span_search_tries_pairwise_sums_before_draws(kind):
    # thirteen 2x2 matrices over F_2 (2**13 > the cap): no rank-one matrix
    # is invertible and no invertible or nilpotent one splits, but the sum
    # of two can be
    grid = [FieldMatrix(2, np.reshape(bits, (2, 2)))
            for bits in itertools.product(range(2), repeat=4)]
    if kind == "invertible":
        accept = _invertible(2, 2)
        pool = [m for m in grid if rank(m) == 1]
    else:
        accept = _splits(2, 2)
        pool = [m for m in grid if not accept(m.a[None])[0]]
    mats = (pool * 2)[:13]
    got = alg._search_span(mats, 2, accept, ("pairs",))
    pair_sums = [(m1 + m2).a for m1, m2 in itertools.combinations(mats, 2)]
    first_pair = next(m for m in pair_sums if accept(m[None])[0])
    assert np.array_equal(got, first_pair)
    assert np.array_equal(got, _scalar_beyond_cap_search(mats, 2, accept, ("pairs",)))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_is_isomorphic_agrees_with_unconditional_span_scan(name):
    # the fingerprint and Hom-dimension rejects may only drop pairs that a
    # scan of the whole Hom span finds no invertible map for
    a = _corpus_algebra(name)
    rng = np.random.default_rng(11 + sum(map(ord, name)))
    mods = [m for m in enumerate_modules(a, 3) if m.dim > 0]
    pool = mods + [_random_conjugate(m, rng) for m in mods]
    outcomes = set()
    dimension_rejects = 0
    for m1, m2 in itertools.product(pool, repeat=2):
        if m1.dim != m2.dim:
            continue
        mats = [f.matrix for f in hom_basis(m1, m2)]
        assert a.p ** len(mats) <= alg._ENUMERATION_CAP
        hit = None
        if mats:
            hit = alg._first_in_span(
                mats, a.p, lambda stack: rank_stack(stack, a.p) == m1.dim
            )
        iso = is_isomorphic(m1, m2)
        assert (iso is None) == (hit is None)
        if iso is not None:
            assert iso.dom == m1 and iso.cod == m2
            assert iso.is_iso() and iso.is_equivariant()
        outcomes.add(iso is not None)
        same_fingerprint = fingerprint(m1) == fingerprint(m2)
        dimension_rejects += same_fingerprint and len(mats) != len(hom_basis(m2, m2))
    assert outcomes == {True, False}
    if name == "f2c2":
        # every action matrix of g is invertible, so fingerprints collide
        assert dimension_rejects > 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(CORPUS_NAMES), index=st.integers(0, 63), data=st.data())
def test_conjugate_gets_a_verified_isomorphism(name, index, data):
    a = _corpus_algebra(name)
    mods = [m for m in enumerate_modules(a, 3) if m.dim > 0]
    m = mods[index % len(mods)]
    n, p = m.dim, a.p
    entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
    lower = np.tril(np.reshape(data.draw(entries), (n, n)), -1) + np.eye(n, dtype=int)
    upper = np.triu(np.reshape(data.draw(entries), (n, n)), 1)
    upper += np.diag(data.draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n)))
    perm = np.eye(n, dtype=int)[data.draw(st.permutations(range(n)))]
    h = FieldMatrix(p, perm @ lower @ upper)  # invertible: P L U
    hinv = solve(h, FieldMatrix.identity(p, n))
    twisted = Module(a, [h @ FieldMatrix(p, mat) @ hinv for mat in m.rho])
    iso = is_isomorphic(m, twisted)
    assert iso is not None
    assert iso.dom == m and iso.cod == twisted
    assert iso.is_iso() and iso.is_equivariant()
    # Ext1 is basis-free: the twisted basis changes no dimension, and every
    # class realizes to a valid sequence
    for s in simple_modules(a):
        assert ext1(s, twisted).dimension == ext1(s, m).dimension
        assert ext1(twisted, s).dimension == ext1(m, s).dimension
        ext = ext1(twisted, s)
        for coeffs in itertools.product(range(p), repeat=ext.dimension):
            ses = ext.realize(coeffs)
            assert ses.mid.validate() == []
            assert ses.mono.is_equivariant() and ses.epi.is_equivariant()


@pytest.fixture
def clear_summand_table():
    """Empties the ``indecomposable_summands`` table before and after the
    test and hands the test the function that does it, so that a pass under
    a patched splitter cannot read pieces split before the patch."""
    indecomposable_summands.cache_clear()
    yield indecomposable_summands.cache_clear
    indecomposable_summands.cache_clear()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_indecomposable_summands_match_scalar_splitting(
    name, monkeypatch, clear_summand_table
):
    a = _corpus_algebra(name)
    rng = np.random.default_rng(7 + sum(map(ord, name)))
    mods = [m for m in enumerate_modules(a, 2) if m.dim > 0]
    fixtures = []
    for m1, m2 in itertools.combinations_with_replacement(mods, 2):
        total, _, _ = direct_sum([m1, m2])
        fixtures.append(_random_conjugate(total, rng))
    if name == "fx2":
        reg = regular_module(a)
        s = simple_modules(a)[0]
        fixtures.append(direct_sum([reg, s, s])[0])

    def summands(module):
        return [
            (piece.digest, incl.matrix, proj.matrix)
            for piece, incl, proj in indecomposable_summands(module)
        ]

    batched = [summands(m) for m in fixtures]
    clear_summand_table()
    original = alg._find_splitting_endo
    monkeypatch.setattr(
        alg, "_find_splitting_endo", lambda m: _scalar_splitting_endo(m, original)
    )
    assert [summands(m) for m in fixtures] == batched


# ---------------------------------------------------------------------------
# Hom and solve_map against the hand-built systems they replaced
# ---------------------------------------------------------------------------


def _reference_unknown(system, name, dom, cod):
    """Declare h: dom -> cod in ``system`` with the equivariance equations
    h ρ_dom(e_i) = ρ_cod(e_i) h, one ``add_equation`` each."""
    p = dom.p
    h = system.var(name, cod.dim, dom.dim)
    zero = FieldMatrix.zeros(p, cod.dim, dom.dim)
    for i in range(dom.algebra.dim):
        rho_dom, rho_cod = FieldMatrix(p, dom.rho[i]), FieldMatrix(p, cod.rho[i])
        system.add_equation([(None, h, rho_dom), (-rho_cod, h, None)], zero)
    return h


def _hand_built_system(dom, cod):
    """A LinearSystem in one unknown h: dom -> cod under equivariance."""
    system = LinearSystem(dom.p)
    return system, _reference_unknown(system, "h", dom, cod)


def _hand_built_solve(dom, cod, post=(), pre=()):
    """One map x: dom -> cod as the callers used to build it: equivariance,
    then the x @ f == t equations, then the g @ x == t ones."""
    system, h = _hand_built_system(dom, cod)
    for f, t in pre:
        system.add_equation([(None, h, f.matrix)], t.matrix)
    for g, t in post:
        system.add_equation([(g.matrix, h, None)], t.matrix)
    sol = system.solve()
    return None if sol is None else sol["h"]


@pytest.mark.parametrize(
    "algebra",
    [*CORPUS_NAMES, "F3[x]/(x^2)", "F5[x]/(x^3)"],
)
def test_hom_basis_matches_linear_system_reference(algebra):
    """``hom_basis`` reads ker δ⁰; the equivariance system solved by a
    LinearSystem gives the same basis, term by term, on every ordered pair
    of nonzero modules up to dimension 4."""
    if algebra in CORPUS_NAMES:
        algebra = _corpus_algebra(algebra)
    else:
        p, n = (3, 2) if algebra.startswith("F3") else (5, 3)
        algebra = _truncated_polynomial_algebra(p, n)
    mods = [m for m in enumerate_modules(algebra, 4, budget=algebra.p**16) if m.dim]
    for dom, cod in itertools.product(mods, repeat=2):
        system, _ = _hand_built_system(dom, cod)
        _, expected = system.solution_space()
        assert [f.matrix for f in hom_basis(dom, cod)] == [e["h"] for e in expected]


def _assert_matches_hand_built(dom, cod, post=(), pre=()):
    got = solve_map(dom, cod, post=post, pre=pre)
    expected = _hand_built_solve(dom, cod, post=post, pre=pre)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.matrix == expected
        assert got.is_equivariant()
    return got


def _some_maps(dom, cod):
    """Every map when there are at most 16; otherwise the Hom basis and
    three combinations drawn with a seed from the two digests."""
    basis = hom_basis(dom, cod)
    if dom.p ** len(basis) <= 16:
        return maps(dom, cod)
    rng = np.random.default_rng(int(dom.digest[:8], 16) ^ int(cod.digest[:8], 16))
    draws = [rng.integers(0, dom.p, size=len(basis)) for _ in range(3)]
    return list(basis) + [combine(dom, cod, basis, coeffs) for coeffs in draws]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_solve_map_matches_hand_built_lift_squares(name):
    a = _corpus_algebra(name)
    rng = random.Random(sum(map(ord, name)))
    mods = [m for m in enumerate_modules(a, 3) if m.dim > 0]
    outcomes = set()
    for _ in range(40):
        m_a, m_b, m_x, m_y = (rng.choice(mods) for _ in range(4))
        i = rng.choice(_some_maps(m_a, m_b))
        p = rng.choice(_some_maps(m_x, m_y))
        # a square with a known filler h, and one whose corners are arbitrary
        h = rng.choice(_some_maps(m_b, m_x))
        assert _assert_matches_hand_built(
            m_b, m_x, post=[(p, p @ h)], pre=[(i, h @ i)]
        ) is not None
        top = rng.choice(_some_maps(m_a, m_x))
        bottom = rng.choice(_some_maps(m_b, m_y))
        if (p @ top) == (bottom @ i):
            got = _assert_matches_hand_built(m_b, m_x, post=[(p, bottom)], pre=[(i, top)])
            outcomes.add(got is not None)
    assert True in outcomes


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_solve_map_matches_hand_built_ladders(name):
    a = _corpus_algebra(name)
    mods = [m for m in enumerate_modules(a, 3) if m.dim > 0]
    outcomes = set()
    for sub, quot in itertools.product(mods, repeat=2):
        mid_dim = sub.dim + quot.dim
        if mid_dim > 3:
            continue
        sequences = [
            (i, q)
            for mid in mods
            if mid.dim == mid_dim
            for i in _some_maps(sub, mid)
            if i.is_mono()
            for q in _some_maps(mid, quot)
            if q.is_epi() and (q @ i).is_zero()
        ]
        for (i1, p1), (i2, p2) in itertools.product(sequences[:6], repeat=2):
            got = _assert_matches_hand_built(
                i1.cod, i2.cod, post=[(p2, p1)], pre=[(i1, i2)]
            )
            outcomes.add(got is not None)
    assert outcomes == {True, False}


def test_solve_map_ignores_constraint_order():
    a = _corpus_algebra("quiver_a1")
    rng = random.Random(11)
    mods = [m for m in enumerate_modules(a, 3) if m.dim > 0]
    for _ in range(15):
        m_b, m_x = rng.choice(mods), rng.choice(mods)
        h = rng.choice(_some_maps(m_b, m_x))
        pre = [(f, h @ f) for f in (rng.choice(_some_maps(m, m_b)) for m in mods[:3])]
        post = [(g, g @ h) for g in (rng.choice(_some_maps(m_x, m)) for m in mods[:3])]
        expected = _assert_matches_hand_built(m_b, m_x, post=post, pre=pre)
        for post_order in itertools.permutations(post):
            for pre_order in itertools.permutations(pre):
                got = solve_map(m_b, m_x, post=post_order, pre=pre_order)
                assert got.matrix == expected.matrix


def test_solve_map_none_on_square_without_filler():
    # over F_2[x]/(x^2): the socle S -> A, the top A -> S, and the commuting
    # square with top corner 0 and bottom corner the top map; a filler
    # h: A -> A would kill the socle and still map onto the top
    a = fx2_algebra()
    reg = regular_module(a)
    s = simple_over_fx2()
    socle = [f for f in hom_basis(s, reg) if f.is_mono()][0]
    top = [f for f in hom_basis(reg, s) if f.is_epi()][0]
    zero = zero_morphism(s, reg)
    assert (top @ zero) == (top @ socle)
    assert _assert_matches_hand_built(reg, reg, post=[(top, top)], pre=[(socle, zero)]) is None
    assert solve_map(reg, reg, post=[(top, top)]) is not None
    assert solve_map(reg, reg, pre=[(socle, zero)]) is not None


def _reference_solution(p, unknowns, equations, homogeneous=False):
    """The ``solve_maps`` problem written on the entries of its unknowns in
    one LinearSystem, equivariance included: (particular, kernel basis) as
    matrices, or None when inconsistent.  ``homogeneous`` reads every
    target as zero."""
    system = LinearSystem(p)
    hs = [_reference_unknown(system, "x%d" % v, dom, cod)
          for v, (dom, cod) in enumerate(unknowns)]
    for terms, target in equations:
        left, v, right = terms[0]
        rows = unknowns[v][1].dim if left is None else left.cod.dim
        cols = unknowns[v][0].dim if right is None else right.dom.dim
        rhs = target.matrix if target is not None and not homogeneous else None
        system.add_equation(
            [(None if L is None else L.matrix, hs[v], None if R is None else R.matrix)
             for L, v, R in terms],
            FieldMatrix.zeros(p, rows, cols) if rhs is None else rhs,
        )
    space = system.solution_space()
    if space is None:
        return None
    particular, kernel = space
    return [particular[h.name] for h in hs], [[e[h.name] for h in hs] for e in kernel]


def _assert_solver_matches_reference(p, unknowns, equations):
    """``solve_maps`` and ``map_kernel`` against ``_reference_solution``,
    term by term; returns the solution of ``solve_maps``."""
    got = solve_maps(unknowns, equations)
    ref = _reference_solution(p, unknowns, equations)
    assert (got is None) == (ref is None)
    if got is not None:
        assert [m.matrix for m in got] == ref[0]
        assert all(m.is_equivariant() for m in got)
    _, kernel = _reference_solution(p, unknowns, equations, homogeneous=True)
    assert [[m.matrix for m in sol] for sol in map_kernel(unknowns, equations)] == kernel
    return got


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_solve_maps_matches_linear_system_reference(name):
    """``solve_maps`` and ``map_kernel`` give the answers of the system on raw
    entries, term by term, for: one map between every ordered pair of
    modules up to dimension 3, the zero module included, under lift
    constraints that hold and ones that fail; span maps and span sections
    between spans on those modules; and chain maps, connecting maps and
    contracting homotopies of two-term complexes, their cones and the zero
    complex."""
    a = _corpus_algebra(name)
    p = a.p
    rng = random.Random(sum(map(ord, name)) + 2)
    mods = list(enumerate_modules(a, 3))
    outcomes, zero_homs, squares = set(), 0, []
    for dom, cod in itertools.product(mods, repeat=2):
        zero_homs += not hom_basis(dom, cod)
        m = rng.choice(mods)
        h = rng.choice(_some_maps(dom, cod))
        g = rng.choice(_some_maps(cod, m))
        f = rng.choice(_some_maps(m, dom))
        squares.append(h)
        for kind, post, pre in (
            ("free", [], []),
            ("square", [(g, g @ h)], [(f, h @ f)]),
            ("post", [(g, rng.choice(_some_maps(dom, m)))], []),
            ("pre", [], [(f, rng.choice(_some_maps(m, cod)))]),
        ):
            equations = [([(g_, 0, None)], t) for g_, t in post]
            equations += [([(None, 0, f_)], t) for f_, t in pre]
            got = _assert_solver_matches_reference(p, [(dom, cod)], equations)
            outcomes.add((kind, got is not None))
    assert zero_homs
    assert outcomes >= {("square", True), ("post", True), ("post", False),
                        ("pre", True), ("pre", False)}

    z = zero_module(a)
    spans = [SpanObject(zero_morphism(z, z), zero_morphism(z, z))] + [
        SpanObject(rng.choice(_some_maps(apex, rng.choice(mods))),
                   rng.choice(_some_maps(apex, rng.choice(mods))))
        for apex in rng.sample(mods, 5)
    ]
    sections = set()
    for s1, s2 in itertools.product(spans, repeat=2):
        _assert_solver_matches_reference(p, *diagram_map_equations(s1, s2))
        # a span map e: s1 -> s2 from those solutions, then its sections
        parts = [zero_morphism(s1.left, s2.left), zero_morphism(s1.apex, s2.apex),
                 zero_morphism(s1.right, s2.right)]
        for sol in map_kernel(*diagram_map_equations(s1, s2)):
            if rng.randrange(2):
                parts = [x + y for x, y in zip(parts, sol)]
        e = SpanMorphism(s1, s2, *parts)
        unknowns, equations = diagram_map_equations(s2, s1)
        for v in range(3):
            equations.append(([(e.component(v), v, None)],
                              diagram_identity(s2).component(v)))
        got = _assert_solver_matches_reference(p, unknowns, equations)
        section = span_section(e)
        assert (section is None) == (got is None)
        if got is not None:
            assert [section.component(v) for v in range(3)] == got
        sections.add(got is not None)
    assert sections == {True, False}

    complexes = [ChainComplex(a, 0, [], [])] + [
        ChainComplex(a, 0, [h.cod, h.dom], [h]) for h in rng.sample(squares, 4)
    ]
    complexes += [cone(diagram_identity(x)) for x in complexes[1:]]
    contractible = set()
    for x in complexes:
        homotopy = _assert_solver_matches_reference(
            p, *graded_map_equations(x, x, 1, diagram_identity(x))
        )
        assert is_contractible(x) == (homotopy is not None)
        contractible.add(homotopy is not None)
        for y in complexes:
            for degree in (0, -1):
                _assert_solver_matches_reference(p, *graded_map_equations(x, y, degree))
    assert contractible == {True, False}


# ---------------------------------------------------------------------------
# maps out of pushouts and into pullbacks against a solve_map reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_from_pushout_matches_solve_map(name):
    a = _corpus_algebra(name)
    rng = random.Random(sum(map(ord, name)) + 1)
    mods = [m for m in enumerate_modules(a, 3) if m.dim > 0]
    rejected = 0
    for _ in range(25):
        m_a, m_b, m_c, m_x = (rng.choice(mods) for _ in range(4))
        f = rng.choice(_some_maps(m_a, m_b))
        g = rng.choice(_some_maps(m_a, m_c))
        glued, from_b, from_c = pushout(f, g)
        # legs that agree on A: both factor through some t out of the pushout
        t = rng.choice(_some_maps(glued, m_x))
        u, v = t @ from_b, t @ from_c
        got = from_pushout(from_b, from_c, u, v)
        expected = solve_map(glued, m_x, pre=[(from_b, u), (from_c, v)])
        assert got.matrix == expected.matrix == t.matrix
        assert got.is_equivariant()
        u = rng.choice(_some_maps(m_b, m_x))
        v = rng.choice(_some_maps(m_c, m_x))
        if (u @ f) != (v @ g):
            assert solve_map(glued, m_x, pre=[(from_b, u), (from_c, v)]) is None
            with pytest.raises(InternalInconsistencyError):
                from_pushout(from_b, from_c, u, v)
            rejected += 1
    assert rejected > 0


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_into_pullback_matches_solve_map(name):
    a = _corpus_algebra(name)
    rng = random.Random(sum(map(ord, name)) + 2)
    mods = [m for m in enumerate_modules(a, 3) if m.dim > 0]
    rejected = 0
    for _ in range(25):
        m_a, m_b, m_c, m_x = (rng.choice(mods) for _ in range(4))
        f = rng.choice(_some_maps(m_b, m_a))
        g = rng.choice(_some_maps(m_c, m_a))
        pulled, to_b, to_c = pullback(f, g)
        # legs that agree on A: both factor through some t into the pullback
        t = rng.choice(_some_maps(m_x, pulled))
        u, v = to_b @ t, to_c @ t
        got = into_pullback(to_b, to_c, u, v)
        expected = solve_map(m_x, pulled, post=[(to_b, u), (to_c, v)])
        assert got.matrix == expected.matrix == t.matrix
        assert got.is_equivariant()
        u = rng.choice(_some_maps(m_x, m_b))
        v = rng.choice(_some_maps(m_x, m_c))
        if (f @ u) != (g @ v):
            assert solve_map(m_x, pulled, post=[(to_b, u), (to_c, v)]) is None
            with pytest.raises(ValidationError):
                into_pullback(to_b, to_c, u, v)
            rejected += 1
    assert rejected > 0


def test_universal_maps_need_matching_legs():
    a = fx2_algebra()
    reg = regular_module(a)
    s = simple_over_fx2()
    ident = identity_morphism(reg)
    _, from_b, from_c = pushout(ident, ident)
    with pytest.raises(ValidationError):
        from_pushout(from_b, from_c, ident, zero_morphism(reg, s))
    _, to_b, to_c = pullback(ident, ident)
    with pytest.raises(ValidationError):
        into_pullback(to_b, to_c, ident, zero_morphism(s, reg))


# ---------------------------------------------------------------------------
# block maps between direct sums against the injection/projection sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fx2", "quiver_a1"])
def test_block_matches_injection_projection_sum(name):
    a = _corpus_algebra(name)
    rng = random.Random(sum(map(ord, name)) + 3)
    mods = enumerate_modules(a, 3)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        cods = [rng.choice(mods) for _ in range(rows)]
        doms = [rng.choice(mods) for _ in range(cols)]
        grid = [[rng.choice(_some_maps(d, c)) for d in doms] for c in cods]
        # one zero entry stays None when its row and column keep another map
        if rows > 1 and cols > 1:
            grid[0][0] = None
        got = block(grid)
        cod, injections, _ = direct_sum(cods)
        dom, _, projections = direct_sum(doms)
        expected = zero_morphism(dom, cod)
        for inj, row in zip(injections, grid):
            for proj, f in zip(projections, row):
                if f is not None:
                    expected = expected + (inj @ f @ proj)
        assert got.matrix == expected.matrix
        assert got.dom == (doms[0] if cols == 1 else dom)
        assert got.cod == (cods[0] if rows == 1 else cod)
        assert got.is_equivariant()


def test_block_keeps_a_single_row_or_column_module():
    s = simple_over_fx2()
    reg = regular_module(fx2_algebra())
    f = [g for g in hom_basis(s, reg) if not g.is_zero()][0]
    assert block([[f]]) == f
    assert block([[f, f]]).cod is reg
    assert block([[f], [f]]).dom is s


def test_block_needs_a_map_in_every_row_and_column():
    s = simple_over_fx2()
    reg = regular_module(fx2_algebra())
    f = identity_morphism(reg)
    # an all-None row, then an all-None column
    with pytest.raises(ValidationError):
        block([[f, f], [None, None]])
    with pytest.raises(ValidationError):
        block([[f, None], [f, None]])
    with pytest.raises(ValidationError):
        block([[None]])
    with pytest.raises(ValidationError):
        block([])
    with pytest.raises(ValidationError):
        block([[f], [identity_morphism(s), f]])


def test_block_rejects_mismatched_endpoints():
    s = simple_over_fx2()
    reg = regular_module(fx2_algebra())
    to_s = [g for g in hom_basis(reg, s) if not g.is_zero()][0]
    # one row whose maps land in different modules
    with pytest.raises(ValidationError):
        block([[identity_morphism(reg), identity_morphism(s)]])
    # one column whose maps start at different modules
    with pytest.raises(ValidationError):
        block([[identity_morphism(reg)], [identity_morphism(s)]])
    with pytest.raises(ValidationError):
        block([[identity_morphism(reg), None], [to_s, identity_morphism(reg)]])


def test_negated_morphism_sums_to_zero():
    reg = regular_module(fx2_algebra())
    mul_x = [f for f in hom_basis(reg, reg) if not f.is_iso() and not f.is_zero()][0]
    assert (mul_x + (-mul_x)).is_zero()
    assert -(-mul_x) == mul_x


# ---------------------------------------------------------------------------
# pivot blocks against the greedy rank loop they replaced
# ---------------------------------------------------------------------------


def _greedy_blocks(blocks, p):
    """Add the column blocks left to right, keeping each that raises the
    rank of the span of the blocks already kept."""
    rows = blocks[0].shape[0] if blocks else 0
    kept = np.zeros((rows, 0), dtype=np.int64)
    chosen = []
    for idx, b in enumerate(blocks):
        grown = np.hstack([kept, b])
        if rank(FieldMatrix(p, grown)) > rank(FieldMatrix(p, kept)):
            chosen.append(idx)
            kept = grown
    return chosen


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_complement_indices_match_greedy_rank_loop(p):
    rng = np.random.default_rng(p)
    for _ in range(300):
        length = int(rng.integers(0, 6))
        # combinations of a few generators, so dependencies are common
        gens = rng.integers(0, p, size=(length, int(rng.integers(1, 4))))

        def draw(width):
            return gens @ rng.integers(0, p, size=(gens.shape[1], width)) % p

        # ext1's shape: one inner block, then one column per outer vector
        inner = draw(int(rng.integers(0, 4)))
        outer = [draw(1) for _ in range(int(rng.integers(0, 5)))]
        # multi-column, empty and all-zero blocks mixed in
        mixed = [
            draw(int(rng.integers(0, 4))) if rng.integers(0, 3) else
            np.zeros((length, int(rng.integers(0, 3))), dtype=np.int64)
            for _ in range(int(rng.integers(1, 6)))
        ]
        for blocks in ([inner] + outer, mixed):
            assert pivot_blocks(blocks, p) == _greedy_blocks(blocks, p)


# ---------------------------------------------------------------------------
# batched fingerprints and extension candidates against the loops they replaced
# ---------------------------------------------------------------------------


def _truncated_polynomial_algebra(p, n):
    """F_p[x]/(x^n), basis 1, x, ..., x^(n-1)."""
    c = np.zeros((n, n, n), dtype=int)
    for i in range(n):
        for j in range(n - i):
            c[i, j, i + j] = 1
    return Algebra(p, c, [1] + [0] * (n - 1))


def _jordan_module(algebra, blocks):
    """x acting by nilpotent Jordan blocks of the given sizes."""
    dim = sum(blocks)
    x = np.zeros((dim, dim), dtype=np.int64)
    start = 0
    for size in blocks:
        for k in range(size - 1):
            x[start + k + 1, start + k] = 1
        start += size
    powers = [np.linalg.matrix_power(x, k) for k in range(algebra.dim)]
    return Module(algebra, powers)


def _fingerprint_reference(module):
    """Reference: one rank per action matrix and per product."""
    d = module.algebra.dim
    mats = [FieldMatrix(module.p, r) for r in module.rho]
    singles = tuple(rank(mats[i]) for i in range(d))
    pairs = tuple(rank(mats[i] @ mats[j]) for i in range(d) for j in range(d))
    return (module.dim, singles, pairs)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_batched_fingerprint_matches_per_matrix_rank(p):
    rng = np.random.default_rng(p)
    algebra = _truncated_polynomial_algebra(p, 3)
    modules = [zero_module(algebra), regular_module(algebra)]
    for blocks in ([1], [2], [3], [1, 1], [2, 1], [3, 2], [3, 3, 1], [2, 2, 2]):
        module = _jordan_module(algebra, blocks)
        modules += [module, _random_conjugate(module, rng)]
    for module in modules:
        got = fingerprint(module)
        assert got == _fingerprint_reference(module)
        assert all(type(r) is int for r in got[1] + got[2])


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_batched_fingerprint_matches_per_matrix_rank_on_corpus(name):
    algebra = _corpus_algebra(name)
    for module in enumerate_modules(algebra, 3):
        assert fingerprint(module) == _fingerprint_reference(module)


def _extension_candidates_reference(sub, quot):
    """Reference: the cocycle system with explicit scalar identity matrices,
    one coboundary per matrix unit, and every tau summed term by term."""
    algebra = sub.algebra
    p, d = algebra.p, algebra.dim
    if quot.dim == 0:
        return [sub]
    if sub.dim == 0:
        return [quot]
    system = LinearSystem(p)
    taus = [system.var("t%d" % i, sub.dim, quot.dim) for i in range(d)]
    c = algebra.structure
    eye = np.eye(sub.dim, dtype=np.int64)
    zero = FieldMatrix.zeros(p, sub.dim, quot.dim)
    for i in range(d):
        for j in range(d):
            terms = [
                (FieldMatrix(p, sub.rho[i]), taus[j], None),
                (None, taus[i], FieldMatrix(p, quot.rho[j])),
            ]
            for k in range(d):
                if c[i, j, k]:
                    terms.append((FieldMatrix(p, -int(c[i, j, k]) * eye), taus[k], None))
            system.add_equation(terms, zero)
    unit_terms = [
        (FieldMatrix(p, int(u) * eye), taus[i], None)
        for i, u in enumerate(algebra.unit)
        if u
    ]
    if unit_terms:
        system.add_equation(unit_terms, zero)
    _, cocycle_basis = system.solution_space()
    cob_vectors = []
    for a in range(sub.dim):
        for b in range(quot.dim):
            u = np.zeros((sub.dim, quot.dim), dtype=np.int64)
            u[a, b] = 1
            cob_vectors.append(np.concatenate([
                ((sub.rho[k] @ u - u @ quot.rho[k]) % p).reshape(-1)
                for k in range(d)
            ]))
    cocycle_flat = [
        np.concatenate([e["t%d" % k].a.reshape(-1) for k in range(d)])
        for e in cocycle_basis
    ]
    picked = pivot_blocks(
        [np.array(cob_vectors).T] + [v[:, None] for v in cocycle_flat], p
    )
    free = [b - 1 for b in picked if b]
    out = []
    for assignment in itertools.product(range(p), repeat=len(free)):
        coeffs = [0] * len(cocycle_basis)
        for pos, val in zip(free, assignment):
            coeffs[pos] = val
        action = []
        for k in range(d):
            tau = np.zeros((sub.dim, quot.dim), dtype=np.int64)
            for c_val, entry in zip(coeffs, cocycle_basis):
                if c_val:
                    tau = (tau + c_val * entry["t%d" % k].a) % p
            upper = np.zeros((sub.dim + quot.dim,) * 2, dtype=np.int64)
            upper[: sub.dim, : sub.dim] = sub.rho[k]
            upper[: sub.dim, sub.dim :] = tau
            upper[sub.dim :, sub.dim :] = quot.rho[k]
            action.append(upper)
        out.append(Module(algebra, action, check=False))
    return out


@pytest.mark.parametrize(
    "algebra",
    [*CORPUS_NAMES, "F3[x]/(x^2)", "F5[x]/(x^3)"],
)
def test_extension_candidates_match_term_by_term_reference(algebra):
    if algebra in CORPUS_NAMES:
        algebra, bound = _corpus_algebra(algebra), 2
    else:
        p, n = (3, 2) if algebra.startswith("F3") else (5, 3)
        algebra, bound = _truncated_polynomial_algebra(p, n), 2
    simples = simple_modules(algebra)
    bases = list(enumerate_modules(algebra, bound))
    for sub in [*simples, zero_module(algebra)]:
        for quot in bases:
            result = ext1(quot, sub)
            got = [m.digest for m in result.middles]
            ref = [m.digest for m in _extension_candidates_reference(sub, quot)]
            weights = algebra.p ** np.arange(result.dimension - 1, -1, -1)
            assert got == [ref[i] for i in result.representatives @ weights]
            for m in ext1(quot, sub).middles:
                assert m.validate() == []
            # built on first use and kept on the memoized result
            assert ext1(quot, sub).middles is result.middles


def _ext1_cocycles_reference(c, a):
    """Reference: the cocycle system assembled equation by equation in a
    LinearSystem, cut to a complement of the coboundaries by the greedy
    rank loop."""
    algebra = a.algebra
    p, d = algebra.p, algebra.dim
    s, q = a.dim, c.dim
    if not (s and q):
        return np.zeros((0, d, s, q), dtype=np.int64)
    zero = FieldMatrix.zeros(p, s, q)
    system = LinearSystem(p)
    taus = [system.var("t%d" % i, s, q) for i in range(d)]
    struct = algebra.structure
    for i in range(d):
        for j in range(d):
            terms = [
                (FieldMatrix(p, a.rho[i]), taus[j], None),
                (None, taus[i], FieldMatrix(p, c.rho[j])),
            ]
            terms += [
                (-int(struct[i, j, k]), taus[k], None) for k in range(d) if struct[i, j, k]
            ]
            system.add_equation(terms, zero)
    unit_terms = [(int(u), taus[i], None) for i, u in enumerate(algebra.unit) if u]
    if unit_terms:
        system.add_equation(unit_terms, zero)
    _, basis = system.solution_space()
    cocycles = np.array(
        [[e["t%d" % k].a for k in range(d)] for e in basis], dtype=np.int64
    ).reshape(len(basis), d, s, q)
    cob = []
    for x in range(s):
        for y in range(q):
            u = np.zeros((s, q), dtype=np.int64)
            u[x, y] = 1
            cob.append([(a.rho[k] @ u - u @ c.rho[k]) % p for k in range(d)])
    blocks = [np.array(cob).reshape(s * q, -1).T]
    blocks += [t.reshape(-1, 1) for t in cocycles]
    free = [b - 1 for b in _greedy_blocks(blocks, p) if b]
    return cocycles[free]


@pytest.mark.parametrize(
    "algebra",
    [*CORPUS_NAMES, "F3[x]/(x^2)", "F5[x]/(x^3)"],
)
def test_ext1_cocycles_match_linear_system_reference(algebra):
    if algebra in CORPUS_NAMES:
        algebra = _corpus_algebra(algebra)
    else:
        p, n = (3, 2) if algebra.startswith("F3") else (5, 3)
        algebra = _truncated_polynomial_algebra(p, n)
    mods = list(enumerate_modules(algebra, 3))
    for c, a in itertools.product(mods, repeat=2):
        if c.dim + a.dim > 3:
            continue
        got = ext1(c, a).cocycles
        expected = _ext1_cocycles_reference(c, a)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_enumerate_rejects_negative_dimension_bound():
    with pytest.raises(ValidationError):
        enumerate_modules(fx2_algebra(), -1)


@pytest.mark.parametrize("p", [2, 3])
def test_enumerate_budget_guard_matches_exact_power(p):
    field = Algebra(p, [[[1]]], [1])
    for max_dim in range(0, 5):
        power = p ** (max_dim * max_dim)
        for budget in (-(10**30), -1, 0, 1, power - 1, power, power + 1):
            if power > budget:
                with pytest.raises(BudgetExceededError, match="^module enumeration for"):
                    enumerate_modules(field, max_dim, budget=budget)
                continue
            try:
                assert len(enumerate_modules(field, max_dim, budget=budget)) == max_dim + 1
            except BudgetExceededError as err:  # the simple-module search has its own
                assert not str(err).startswith("module enumeration for")


@pytest.mark.parametrize("p", [3, 5, 67])
def test_square_zero_two_loop_enumeration_has_p_plus_four_classes(p):
    # F_p[x, y]/(x, y)^2 at bound 2: zero, S, S (+) S and one class for each
    # of the p + 1 lines of Ext1(S, S) = F_p^2.  Each line is one orbit of
    # the scalars, so enumeration realizes p + 2 middles, not p^2; at
    # p = 67 the walk over every class took about 40 s.
    a = algebra_from_quiver(
        QuiverPresentation(p, 1, [(0, 0, "x"), (0, 0, "y")], nil_bound=2)
    )
    s = simple_modules(a)[0]
    assert len(ext1(s, s).representatives) == p + 2
    assert [m.dim for m in enumerate_modules(a, 2)] == [0, 1] + [2] * (p + 2)


def test_enumerate_budget_guard_skips_huge_powers():
    # p ** (10**12) would not fit in memory; the guard must decide without it
    with pytest.raises(BudgetExceededError):
        enumerate_modules(fx2_algebra(), 10**6, budget=10**8)
    with pytest.raises(BudgetExceededError):
        enumerate_modules(fx2_algebra(), 10**6, budget=2 ** (10**4))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def _partition_count_oracle(m, max_part):
    """Number of partitions of m with all parts <= max_part."""

    def count(n, cap):
        if n == 0:
            return 1
        return sum(count(n - part, part) for part in range(1, min(cap, n) + 1))

    return count(m, max_part)


def _gl_matrices(p, n):
    if n == 0:
        return [np.zeros((0, 0), dtype=int)]
    out = []
    for entries in itertools.product(range(p), repeat=n * n):
        m = np.array(entries, dtype=int).reshape(n, n)
        if rank(FieldMatrix(p, m)) == n:
            out.append(m)
    return out


def _inverse_mod(p, g):
    if g.shape[0] == 0:
        return g
    inv = solve(FieldMatrix(p, g), FieldMatrix.identity(p, g.shape[0]))
    return inv.a


def _a2_representation_orbit_counts(max_dim):
    """Orbit counts of quiver representations for the three-vertex algebra.

    A representation is (V0, V1, V2) with a loop f0 on V0, f1: V0 -> V1,
    f2: V1 -> V2, subject to f0^2 = 0, f1 f0 = 0, f2 f1 = 0.  Orbits under
    base change at each vertex correspond to isomorphism classes.
    """
    p = 2
    counts = {}
    for total in range(1, max_dim + 1):
        n_classes = 0
        for d0 in range(total + 1):
            for d1 in range(total + 1 - d0):
                d2 = total - d0 - d1
                reps = []
                for f0_entries in itertools.product(range(p), repeat=d0 * d0):
                    f0 = np.array(f0_entries, dtype=int).reshape(d0, d0)
                    if d0 and ((f0 @ f0) % p).any():
                        continue
                    for f1_entries in itertools.product(range(p), repeat=d1 * d0):
                        f1 = np.array(f1_entries, dtype=int).reshape(d1, d0)
                        if d0 and d1 and ((f1 @ f0) % p).any():
                            continue
                        for f2_entries in itertools.product(range(p), repeat=d2 * d1):
                            f2 = np.array(f2_entries, dtype=int).reshape(d2, d1)
                            if d1 and d2 and ((f2 @ f1) % p).any():
                                continue
                            reps.append((f0, f1, f2))
                gl0 = _gl_matrices(p, d0)
                gl1 = _gl_matrices(p, d1)
                gl2 = _gl_matrices(p, d2)
                seen = set()
                for f0, f1, f2 in reps:
                    key = (f0.tobytes(), f1.tobytes(), f2.tobytes())
                    if key in seen:
                        continue
                    n_classes += 1
                    for g0 in gl0:
                        g0i = _inverse_mod(p, g0)
                        t0 = (g0 @ f0 @ g0i) % p if d0 else f0
                        for g1 in gl1:
                            h1 = (g1 @ f1 @ g0i) % p if d0 and d1 else f1
                            g1i = _inverse_mod(p, g1)
                            for g2 in gl2:
                                h2 = (g2 @ f2 @ g1i) % p if d1 and d2 else f2
                                seen.add((t0.tobytes(), h1.tobytes(), h2.tobytes()))
        counts[total] = n_classes
    return counts
