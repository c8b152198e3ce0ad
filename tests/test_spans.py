"""Tests for the span category and its induced cotorsion pair.

The heavy checks: both completeness resolutions validate on random spans
over two pair kinds and two algebras; sampled extensions of a left-class
span by a right-class span always split; factorizations of random span
morphisms land in the announced map classes and lifts exist for the
squares they form.
"""

import numpy as np
import pytest

from waldcat.algebra import (
    Algebra,
    Module,
    QuiverPresentation,
    algebra_from_quiver,
    direct_sum,
    enumerate_modules,
    hom_basis,
    identity_morphism,
    regular_module,
    zero_module,
    zero_morphism,
)
from waldcat.diagrams import (
    DiagramSES,
    diagram_cokernel,
    diagram_identity,
    diagram_kernel,
    diagram_sum,
    solve_diagram_map,
)
from waldcat.errors import ValidationError
from waldcat.homological import all_injectives_pair, projectives_all_pair
from waldcat.sampling import random_span
from waldcat.spans import (
    SpanMorphism,
    SpanObject,
    span_factor,
    span_in_I,
    span_in_P,
    span_lift,
    span_resolve_dual,
    span_resolve_right,
)
from waldcat.workspace import corpus_path, load_workspace

from reference_checks import (
    span_is_acyclic_fibration,
    span_is_cofibration,
    span_is_split,
)
from samplers import (
    random_span_extension,
    random_span_in_I,
    random_span_in_P,
    random_span_morphism,
)


def fx2_algebra():
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    return Algebra(2, c, [1, 0])


def span_of_module(m):
    """The span m <- m -> m with identity legs."""
    return SpanObject(identity_morphism(m), identity_morphism(m))


def loop_arrow_algebra():
    """Two vertices, a loop at the source and an arrow to the sink."""
    return algebra_from_quiver(
        QuiverPresentation(
            2,
            2,
            [(0, 0, "a0"), (0, 1, "a1")],
            relations=[[(1, ["a0", "a0"])], [(1, ["a0", "a1"])]],
        )
    )


_CACHE = {}


def fx2_parts():
    if "fx2" not in _CACHE:
        a = fx2_algebra()
        reg = regular_module(a)
        simple = [m for m in enumerate_modules(a, 1) if m.dim == 1][0]
        socle = [f for f in hom_basis(simple, reg) if f.is_mono()][0]
        _CACHE["fx2"] = (a, reg, simple, socle)
    return _CACHE["fx2"]


# ---------------------------------------------------------------------------
# span objects and morphisms
# ---------------------------------------------------------------------------


def test_span_legs_must_share_apex():
    a, reg, simple, socle = fx2_parts()
    with pytest.raises(ValidationError):
        SpanObject(identity_morphism(reg), identity_morphism(simple))


def test_span_morphism_rejects_noncommuting_square():
    a, reg, simple, socle = fx2_parts()
    sp1 = SpanObject(identity_morphism(simple), socle)
    sp2 = span_of_module(reg)
    with pytest.raises(ValidationError):
        SpanMorphism(sp1, sp2, socle, socle, zero_morphism(reg, reg))


def test_span_morphisms_compare_their_spans():
    # S <- S -> A with the socle as right leg, and with the zero map: same
    # modules, different spans, so their identities are different morphisms
    a, reg, simple, socle = fx2_parts()
    sp1 = SpanObject(identity_morphism(simple), socle)
    sp2 = SpanObject(identity_morphism(simple), zero_morphism(simple, reg))
    assert sp1 != sp2
    assert diagram_identity(sp1) == diagram_identity(sp1)
    assert diagram_identity(sp1) != diagram_identity(sp2)


def test_span_direct_sum_round_trip():
    a, reg, simple, socle = fx2_parts()
    s1 = span_of_module(simple)
    s2 = span_of_module(reg)
    total, (i1, i2), (p1, p2) = diagram_sum(s1, s2)
    assert (p1 @ i1) == diagram_identity(s1)
    assert (p2 @ i2) == diagram_identity(s2)
    assert total.apex.dim == simple.dim + reg.dim


def test_span_ses_rejects_inexact_strands():
    a, reg, simple, socle = fx2_parts()
    s1 = span_of_module(simple)
    s2 = span_of_module(reg)
    total, (i1, _), (p1, _) = diagram_sum(s1, s2)
    with pytest.raises(ValidationError):
        DiagramSES(i1, p1)


def test_span_kernel_and_cokernel_of_block_maps():
    a, reg, simple, socle = fx2_parts()
    s1 = span_of_module(simple)
    s2 = span_of_module(reg)
    total, (i1, _), (_, p2) = diagram_sum(s1, s2)
    cok, _ = diagram_cokernel(i1)
    ker, _ = diagram_kernel(p2)
    assert (cok.left.dim, cok.apex.dim, cok.right.dim) == (2, 2, 2)
    assert (ker.left.dim, ker.apex.dim, ker.right.dim) == (1, 1, 1)


# ---------------------------------------------------------------------------
# the induced classes
# ---------------------------------------------------------------------------


def test_zero_span_is_in_both_classes():
    a, _, _, _ = fx2_parts()
    zero = zero_module(a)
    z = SpanObject(zero_morphism(zero, zero), zero_morphism(zero, zero))
    for pair in (all_injectives_pair(a), projectives_all_pair(a)):
        assert span_in_P(z, pair)
        assert span_in_I(z, pair)


def test_socle_inclusion_span_is_left_class():
    a, reg, simple, socle = fx2_parts()
    sp = SpanObject(identity_morphism(simple), socle)
    assert span_in_P(sp, all_injectives_pair(a))


def test_identity_span_of_free_module_under_projective_pair():
    a, reg, _, _ = fx2_parts()
    sp = span_of_module(reg)
    assert span_in_P(sp, projectives_all_pair(a))


def test_simple_identity_span_fails_projective_class():
    a, _, simple, _ = fx2_parts()
    sp = span_of_module(simple)
    assert not span_in_P(sp, projectives_all_pair(a))


def test_right_class_needs_surjective_left_leg():
    a, reg, simple, socle = fx2_parts()
    pair = all_injectives_pair(a)
    sp = SpanObject(socle, identity_morphism(simple))
    assert not span_in_I(sp, pair)
    total, _, (proj1, _) = direct_sum([reg, reg])
    good = SpanObject(proj1, identity_morphism(total))
    assert span_in_I(good, pair)


# ---------------------------------------------------------------------------
# map classes
# ---------------------------------------------------------------------------


def test_block_inclusion_is_span_cofibration():
    a, reg, _, _ = fx2_parts()
    pair = projectives_all_pair(a)
    s1 = span_of_module(reg)
    s2 = span_of_module(reg)
    total, (i1, _), _ = diagram_sum(s1, s2)
    assert span_is_cofibration(i1, pair)


def test_cofibration_fails_when_cokernel_right_leg_collapses():
    a, reg, _, _ = fx2_parts()
    pair = projectives_all_pair(a)
    z = zero_module(a)
    dom = SpanObject(zero_morphism(z, z), zero_morphism(z, reg))
    cod = span_of_module(reg)
    to_reg = zero_morphism(z, reg)
    m = SpanMorphism(dom, cod, to_reg, to_reg, identity_morphism(reg))
    assert span_in_P(dom, pair) and span_in_P(cod, pair)
    assert not span_is_cofibration(m, pair)


def test_acyclic_fibration_detects_bad_kernel():
    a, reg, simple, _ = fx2_parts()
    pair = all_injectives_pair(a)
    quot = [f for f in hom_basis(reg, simple) if f.is_epi()][0]
    sp_top = span_of_module(reg)
    sp_bot = span_of_module(simple)
    m = SpanMorphism(sp_top, sp_bot, quot, quot, quot)
    assert not span_is_acyclic_fibration(m, pair)


def test_acyclic_fibration_accepts_free_kernel():
    a, reg, _, _ = fx2_parts()
    pair = all_injectives_pair(a)
    s1 = span_of_module(reg)
    s2 = span_of_module(reg)
    total, _, (p1, _) = diagram_sum(s1, s2)
    assert span_is_acyclic_fibration(p1, pair)


# ---------------------------------------------------------------------------
# the completeness resolutions
# ---------------------------------------------------------------------------


def test_resolution_of_zero_span_is_trivial():
    a, _, _, _ = fx2_parts()
    zero = zero_module(a)
    z = SpanObject(zero_morphism(zero, zero), zero_morphism(zero, zero))
    ses = span_resolve_right(z, all_injectives_pair(a))
    assert ses.sub.apex.dim == 0
    assert ses.mid.apex.dim == 0


def test_resolution_of_simple_identity_span():
    a, reg, simple, _ = fx2_parts()
    pair = all_injectives_pair(a)
    ses = span_resolve_right(span_of_module(simple), pair)
    assert span_in_I(ses.sub, pair)
    assert span_in_P(ses.mid, pair)
    assert ses.quot == span_of_module(simple)
    for v in range(3):
        assert ses.mid.obj(v).dim == ses.sub.obj(v).dim + ses.quot.obj(v).dim


def test_resolution_handles_non_mono_right_leg():
    a, reg, simple, _ = fx2_parts()
    pair = all_injectives_pair(a)
    quot = [f for f in hom_basis(reg, simple) if f.is_epi()][0]
    sp = SpanObject(quot, quot)
    ses = span_resolve_right(sp, pair)
    assert ses.mid.f.is_mono()
    assert span_in_P(ses.mid, pair)


def test_resolution_random_spans_all_injectives():
    a, _, _, _ = fx2_parts()
    pair = all_injectives_pair(a)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = random_span(rng, a, 2)
        ses = span_resolve_right(x, pair)
        assert ses.quot == x
        assert span_in_I(ses.sub, pair)
        assert span_in_P(ses.mid, pair)
        assert ses.sub.g.is_epi()
        assert ses.mid.f.is_mono()


def test_resolution_random_spans_projective_pair_on_quiver():
    a = loop_arrow_algebra()
    pair = projectives_all_pair(a)
    rng = np.random.default_rng(12)
    for _ in range(12):
        x = random_span(rng, a, 2)
        ses = span_resolve_right(x, pair)
        assert span_in_I(ses.sub, pair)
        assert span_in_P(ses.mid, pair)


def test_dual_resolution_random_spans():
    a, _, _, _ = fx2_parts()
    rng = np.random.default_rng(13)
    for pair in (all_injectives_pair(a), projectives_all_pair(a)):
        for _ in range(10):
            x = random_span(rng, a, 2)
            ses = span_resolve_dual(x, pair)
            assert ses.sub == x
            assert span_in_I(ses.mid, pair)
            assert span_in_P(ses.quot, pair)


def test_dual_resolution_on_quiver_algebra():
    a = loop_arrow_algebra()
    pair = projectives_all_pair(a)
    rng = np.random.default_rng(14)
    for _ in range(8):
        x = random_span(rng, a, 2)
        ses = span_resolve_dual(x, pair)
        assert span_in_I(ses.mid, pair)
        assert span_in_P(ses.quot, pair)


def test_dual_resolution_injectives_pair_on_quiver_corpus_span():
    """The (all, injectives) dual resolution of the quiver_a1 span with
    zero legs from a 2-dim vertex-0 apex to a 1-dim and a 2-dim module
    concentrated at vertex 1 (the 17th ``random_span`` draw of seed 12)."""
    a = load_workspace(corpus_path("quiver_a1")).algebras["quiver_a1"]
    eye = np.eye(2, dtype=int)
    zero = np.zeros((2, 2), dtype=int)
    apex = Module(a, [eye, zero, zero, zero])
    left = Module(a, [[[0]], [[1]], [[0]], [[0]]])
    right = Module(a, [zero, eye, zero, zero])
    x = SpanObject(zero_morphism(apex, left), zero_morphism(apex, right))
    pair = all_injectives_pair(a)
    ses = span_resolve_dual(x, pair)
    assert isinstance(ses, DiagramSES)
    assert ses.validate() == []
    assert ses.sub == x
    assert (ses.mid.apex.dim, ses.mid.left.dim, ses.mid.right.dim) == (12, 4, 48)
    assert span_in_I(ses.mid, pair)
    assert span_in_P(ses.quot, pair)


# ---------------------------------------------------------------------------
# orthogonality: extensions of left-class by right-class spans split
# ---------------------------------------------------------------------------


def test_sampled_extensions_split():
    a, _, _, _ = fx2_parts()
    for seed, pair in ((21, all_injectives_pair(a)), (22, projectives_all_pair(a))):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            quot = random_span_in_P(pair, rng, 2)
            sub = random_span_in_I(pair, rng, 2)
            ses = random_span_extension(rng, sub, quot)
            assert span_is_split(ses)


def test_extension_with_swapped_roles_can_fail_to_split():
    """The orthogonality is one-sided: extensions of a right-class span by
    a left-class span need not split."""
    a, reg, simple, socle = fx2_parts()
    pair = all_injectives_pair(a)
    quot_mod = simple
    # the nonsplit module extension 0 -> S -> A -> S -> 0 as a span SES
    epi = [f for f in hom_basis(reg, simple) if f.is_epi()][0]
    sub = span_of_module(simple)
    mid = span_of_module(reg)
    quot = span_of_module(quot_mod)
    mono = SpanMorphism(sub, mid, socle, socle, socle)
    epi_m = SpanMorphism(mid, quot, epi, epi, epi)
    ses = DiagramSES(mono, epi_m)
    assert not span_is_split(ses)


def test_solve_span_map_finds_sections_and_retractions_only_when_split():
    a, reg, simple, socle = fx2_parts()
    epi = [f for f in hom_basis(reg, simple) if f.is_epi()][0]
    sub = span_of_module(simple)
    mid = span_of_module(reg)
    quot = span_of_module(simple)
    one = diagram_identity(quot)
    # the nonsplit 0 -> S -> A -> S -> 0: no section, no retraction
    nonsplit_epi = SpanMorphism(mid, quot, epi, epi, epi)
    nonsplit_mono = SpanMorphism(sub, mid, socle, socle, socle)
    assert solve_diagram_map(quot, mid, post=[(nonsplit_epi, one)]) is None
    assert solve_diagram_map(mid, sub, pre=[(nonsplit_mono, one)]) is None
    # the split sequence through the direct sum has both
    total, (i1, _), (p1, _) = diagram_sum(quot, mid)
    section = solve_diagram_map(quot, total, post=[(p1, one)])
    assert section is not None and (p1 @ section) == one
    retraction = solve_diagram_map(total, quot, pre=[(i1, one)])
    assert retraction is not None and (retraction @ i1) == one


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def test_factor_identity_span_morphism():
    a, reg, _, _ = fx2_parts()
    pair = all_injectives_pair(a)
    m = diagram_identity(span_of_module(reg))
    i, p = span_factor(m, pair)
    assert (p @ i) == m
    assert i.is_mono() and p.is_epi()


def test_factor_zero_morphism_between_nonzero_spans():
    a, reg, simple, _ = fx2_parts()
    pair = all_injectives_pair(a)
    dom = span_of_module(simple)
    cod = span_of_module(reg)
    m = SpanMorphism(
        dom,
        cod,
        zero_morphism(simple, reg),
        zero_morphism(simple, reg),
        zero_morphism(simple, reg),
    )
    i, p = span_factor(m, pair)
    assert (p @ i) == m
    ker_span, _ = diagram_kernel(p)
    assert span_in_I(ker_span, pair)


def test_factor_resolution_verticals():
    """The surjective strand maps of a resolution form the span morphism
    that the factorization machinery must handle; its factor legs land in
    the announced classes."""
    a, _, simple, _ = fx2_parts()
    pair = all_injectives_pair(a)
    ses = span_resolve_right(span_of_module(simple), pair)
    i, p = span_factor(ses.epi, pair)
    assert (p @ i) == ses.epi
    cok_span, _ = diagram_cokernel(i)
    assert span_in_P(cok_span, pair)
    ker_span, _ = diagram_kernel(p)
    assert span_in_I(ker_span, pair)


def test_factor_random_morphisms_lands_in_classes():
    a, _, _, _ = fx2_parts()
    pair = all_injectives_pair(a)
    rng = np.random.default_rng(31)
    for _ in range(15):
        dom = random_span_in_P(pair, rng, 2)
        cod = random_span_in_P(pair, rng, 2)
        m = random_span_morphism(rng, dom, cod)
        i, p = span_factor(m, pair)
        assert (p @ i) == m
        assert span_is_cofibration(i, pair)
        assert span_is_acyclic_fibration(p, pair)


def test_random_span_morphism_is_seed_deterministic():
    a, _, _, _ = fx2_parts()
    pair = all_injectives_pair(a)
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    d1 = random_span_in_P(pair, rng1, 2)
    c1 = random_span_in_P(pair, rng1, 2)
    d2 = random_span_in_P(pair, rng2, 2)
    c2 = random_span_in_P(pair, rng2, 2)
    m1 = random_span_morphism(rng1, d1, c1)
    m2 = random_span_morphism(rng2, d2, c2)
    assert d1 == d2 and c1 == c2
    assert m1 == m2


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


def test_lift_with_identity_cofibration_is_top():
    a, reg, _, _ = fx2_parts()
    pair = all_injectives_pair(a)
    sp = span_of_module(reg)
    i = diagram_identity(sp)
    m = diagram_identity(sp)
    i2, p2 = span_factor(m, pair)
    h = span_lift(i, p2, i2, p2 @ i2)
    assert h == i2


def test_lift_with_identity_fibration_is_bottom():
    a, reg, _, _ = fx2_parts()
    pair = all_injectives_pair(a)
    sp = span_of_module(reg)
    m = diagram_identity(sp)
    i, p = span_factor(m, pair)
    h = span_lift(i, diagram_identity(sp), p @ i, p)
    assert h == p


def test_lift_on_factor_squares():
    a, _, _, _ = fx2_parts()
    pair = all_injectives_pair(a)
    rng = np.random.default_rng(41)
    for _ in range(10):
        dom = random_span_in_P(pair, rng, 2)
        cod = random_span_in_P(pair, rng, 2)
        m = random_span_morphism(rng, dom, cod)
        i, p = span_factor(m, pair)
        i2, p2 = span_factor(diagram_identity(cod), pair)
        h = span_lift(i, p2, i2 @ m, p)
        assert (h @ i) == (i2 @ m)
        assert (p2 @ h) == p


def test_lift_rejects_noncommuting_square():
    a, reg, simple, socle = fx2_parts()
    pair = all_injectives_pair(a)
    sp_s = span_of_module(simple)
    sp_a = span_of_module(reg)
    m = SpanMorphism(sp_s, sp_a, socle, socle, socle)
    i, p = span_factor(m, pair)
    bad_bottom = SpanMorphism(
        sp_a,
        sp_a,
        zero_morphism(reg, reg),
        zero_morphism(reg, reg),
        zero_morphism(reg, reg),
    )
    with pytest.raises(ValidationError):
        span_lift(i, diagram_identity(sp_a), m, bad_bottom)
