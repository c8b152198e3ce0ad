"""Tests for the componentwise exact structure on diagrams.

Spans and bounded complexes are diagrams of modules, and their kernels,
cokernels and sums are taken vertex by vertex.  On seeded span morphisms
and chain maps over fx2 and quiver_a1 the components of each construction
are the module ``kernel``, ``cokernel`` and ``direct_sum`` of the
components, and its structure maps the ``corestrict`` and
``induced_on_cokernel`` of the composites and the block-diagonal maps.
Chain maps run between complexes on different windows: a kernel lives on
the domain's window, a cokernel on the codomain's and a sum on the window
spanning both.  Morphisms whose squares do not commute are refused with
the messages of their shape.
"""

import numpy as np
import pytest

from waldcat.algebra import (
    block,
    cokernel,
    corestrict,
    direct_sum,
    enumerate_modules,
    hom_basis,
    identity_morphism,
    induced_on_cokernel,
    kernel,
    regular_module,
    zero_morphism,
)
from waldcat.chains import ChainComplex, ChainMap
from waldcat.diagrams import (
    DiagramSES,
    diagram_cokernel,
    diagram_identity,
    diagram_kernel,
    diagram_map_equations,
    diagram_sum,
    joint_window,
)
from waldcat.errors import ValidationError
from waldcat.sampling import random_span
from waldcat.spans import SpanMorphism, SpanObject
from waldcat.workspace import corpus_path, load_workspace

from samplers import (
    random_chain_complex,
    random_chain_map,
    random_span_morphism,
)

ALGEBRAS = ["fx2", "quiver_a1"]


def corpus_algebra(name):
    return load_workspace(corpus_path(name)).only_algebra()


def shifted(x, lo):
    """The complex x moved to start in degree ``lo``."""
    return ChainComplex(x.algebra, lo, x.objects, x.differentials)


def assert_kernel_is_componentwise(m):
    x = m.dom
    ker, inc = diagram_kernel(m)
    assert (ker.lo, ker.hi) == (x.lo, x.hi)
    for v in x.vertices():
        k, i = kernel(m.component(v))
        assert ker.obj(v) == k and inc.component(v) == i
    for s, t in x.arrows():
        restricted = corestrict(x.arrow(s, t) @ inc.component(s), inc.component(t))
        assert ker.arrow(s, t) == restricted
        assert inc.component(t) @ ker.arrow(s, t) == x.arrow(s, t) @ inc.component(s)
    assert all((m @ inc).component(v).is_zero() for v in joint_window(x, m.cod))
    return ker, inc


def assert_cokernel_is_componentwise(m):
    y = m.cod
    cok, proj = diagram_cokernel(m)
    assert (cok.lo, cok.hi) == (y.lo, y.hi)
    for v in y.vertices():
        c, q = cokernel(m.component(v))
        assert cok.obj(v) == c and proj.component(v) == q
    for s, t in y.arrows():
        induced = induced_on_cokernel(proj.component(s), proj.component(t) @ y.arrow(s, t))
        assert cok.arrow(s, t) == induced
        assert cok.arrow(s, t) @ proj.component(s) == proj.component(t) @ y.arrow(s, t)
    assert proj.is_epi()
    assert all((proj @ m).component(v).is_zero() for v in joint_window(m.dom, y))
    return cok, proj


def assert_sum_is_componentwise(x, y):
    total, (i1, i2), (p1, p2) = diagram_sum(x, y)
    assert total.vertices() == joint_window(x, y)
    for v in total.vertices():
        t, (a1, a2), (b1, b2) = direct_sum([x.obj(v), y.obj(v)])
        assert total.obj(v) == t
        assert [i1.component(v), i2.component(v)] == [a1, a2]
        assert [p1.component(v), p2.component(v)] == [b1, b2]
    for s, t in total.arrows():
        assert total.arrow(s, t) == block([[x.arrow(s, t), None], [None, y.arrow(s, t)]])
    assert p1 @ i1 == diagram_identity(x) and p2 @ i2 == diagram_identity(y)
    assert all((p2 @ i1).component(v).is_zero() for v in total.vertices())
    assert DiagramSES(i1, p2).validate() == []
    return total


@pytest.mark.parametrize("name", ALGEBRAS)
def test_span_constructions_are_componentwise(name):
    a = corpus_algebra(name)
    rng = np.random.default_rng(101)
    nonzero = 0
    for _ in range(12):
        dom, cod = random_span(rng, a, 2), random_span(rng, a, 2)
        m = random_span_morphism(rng, dom, cod)
        nonzero += any(not c.is_zero() for c in (m.left, m.apex, m.right))
        ker, inc = assert_kernel_is_componentwise(m)
        cok, _ = assert_cokernel_is_componentwise(m)
        total = assert_sum_is_componentwise(dom, cod)
        # the span accessors read the same layer
        for span in (ker, cok, total):
            assert isinstance(span, SpanObject)
            assert (span.left, span.apex, span.right) == tuple(span.objects)
            assert (span.g, span.f) == (span.arrow(1, 0), span.arrow(1, 2))
        assert (inc.left, inc.apex, inc.right) == tuple(inc.component(v) for v in range(3))
    assert nonzero > 0


@pytest.mark.parametrize("name", ALGEBRAS)
def test_chain_constructions_are_componentwise_across_windows(name):
    a = corpus_algebra(name)
    rng = np.random.default_rng(103)
    windows = set()
    nonzero = 0
    for t in range(12):
        x = shifted(random_chain_complex(rng, a, 3, 2), t % 3 - 1)
        y = shifted(random_chain_complex(rng, a, 3, 2), (t // 3) % 3 - 1)
        windows.add(x.lo != y.lo)
        f = random_chain_map(rng, x, y)
        nonzero += any(not c.is_zero() for c in f.components.values())
        for cx in (assert_kernel_is_componentwise(f)[0],
                   assert_cokernel_is_componentwise(f)[0],
                   assert_sum_is_componentwise(x, y)):
            assert isinstance(cx, ChainComplex)
            assert cx.differentials == [cx.diff(n) for n in range(cx.lo + 1, cx.hi + 1)]
            assert cx.obj(cx.lo - 1).dim == 0 and cx.obj(cx.hi + 1).dim == 0
    assert windows == {True, False}
    assert nonzero > 0


def test_map_equations_of_a_span_solve_to_its_morphisms():
    """One equation per leg, and the three unknowns in the order left,
    apex, right."""
    a = corpus_algebra("fx2")
    rng = np.random.default_rng(107)
    dom, cod = random_span(rng, a, 2), random_span(rng, a, 2)
    unknowns, equations = diagram_map_equations(dom, cod)
    assert unknowns == [(dom.obj(v), cod.obj(v)) for v in range(3)]
    assert len(equations) == 2
    m = random_span_morphism(rng, dom, cod)
    for terms, target in equations:
        assert target is None
        total = None
        for left, v, right in terms:
            x = m.component(v)
            x = x if left is None else left @ x
            x = x if right is None else x @ right
            total = x if total is None else total + x
        assert total.is_zero()


def _fx2_parts():
    a = corpus_algebra("fx2")
    reg = regular_module(a)
    simple = [m for m in enumerate_modules(a, 1) if m.dim == 1][0]
    socle = [f for f in hom_basis(simple, reg) if f.is_mono()][0]
    x_mul = [f for f in hom_basis(reg, reg) if not f.is_iso() and not f.is_zero()][0]
    return a, reg, simple, socle, x_mul


def test_span_morphisms_that_do_not_commute_are_refused_with_their_messages():
    _, reg, simple, socle, _ = _fx2_parts()
    one_a = identity_morphism(reg)
    sp1 = SpanObject(identity_morphism(simple), socle)
    sp2 = SpanObject(one_a, one_a)
    cases = [
        ((socle, socle, zero_morphism(reg, reg)), "right naturality square does not commute"),
        ((zero_morphism(simple, reg), socle, one_a), "left naturality square does not commute"),
        ((one_a, socle, one_a), "left component endpoints do not match"),
    ]
    for comps, message in cases:
        with pytest.raises(ValidationError) as err:
            SpanMorphism(sp1, sp2, *comps)
        assert str(err.value) == message
    good = SpanMorphism(sp1, sp2, socle, socle, one_a)
    with pytest.raises(ValidationError) as err:
        good @ good
    assert str(err.value) == "span morphisms are not composable"


def test_chain_maps_that_do_not_commute_are_refused_with_their_messages():
    a, reg, _, _, x_mul = _fx2_parts()
    x = ChainComplex(a, 0, [reg, reg], [x_mul])
    y = shifted(x, 1)                      # reg -(x)-> reg in degrees 2 -> 1
    # y -> x through degree 1 alone: x_mul commutes with both differentials
    f = ChainMap(y, x, {1: x_mul})
    assert f.component(2).dom == reg and f.component(0).cod == reg
    assert_kernel_is_componentwise(f)
    assert_cokernel_is_componentwise(f)
    cases = [
        ((y, x, {1: identity_morphism(reg)}), "chain map does not commute with d at degree 1"),
        ((x, x, {0: identity_morphism(reg), 1: x_mul}),
         "chain map does not commute with d at degree 1"),
        ((x, y, {7: identity_morphism(reg)}), "component at degree 7 has wrong endpoints"),
    ]
    for args, message in cases:
        with pytest.raises(ValidationError) as err:
            ChainMap(*args)
        assert str(err.value) == message
    with pytest.raises(ValidationError) as err:
        f @ f
    assert str(err.value) == "chain maps are not composable"


def test_inexact_strands_are_named_by_their_vertex():
    _, reg, simple, socle, _ = _fx2_parts()
    s1 = SpanObject(identity_morphism(simple), identity_morphism(simple))
    s2 = SpanObject(identity_morphism(reg), identity_morphism(reg))
    _, (i1, _), (p1, _) = diagram_sum(s1, s2)
    with pytest.raises(ValidationError) as err:
        DiagramSES(i1, p1)
    assert str(err.value) == "span sequence is not exact"
    assert err.value.failures[0] == "left strand: composite is nonzero"
    assert {issue.split(" strand")[0] for issue in err.value.failures} == {
        "left", "apex", "right"
    }
