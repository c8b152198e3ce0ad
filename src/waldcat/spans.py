"""The category of spans over a module category, with its induced pair.

A span is a diagram left <-(g)- apex -(f)-> right.  A complete cotorsion
pair (P, I) on modules induces a pair on spans: the left class consists
of spans with all three components in P whose right leg is a cofibration;
the right class of spans with components in I whose left leg is an
acyclic fibration.  This module provides the span types, a shape of
``diagrams`` whose layer gives their morphisms, sums, kernels, cokernels
and short exact sequences; membership tests, both completeness
resolutions (built step by step with every intermediate membership
validated), the canonical factorization, and lifting.
"""

import hashlib

from .algebra import (
    block,
    cokernel,
    corestrict,
    identity_morphism,
    induced_on_cokernel,
    into_pullback,
    kernel,
    pullback,
    solve_map,
    zero_morphism,
)
from .diagrams import (
    Diagram,
    DiagramMorphism,
    DiagramSES,
    diagram_cokernel,
    diagram_kernel,
    diagram_sum,
    into_sum,
    solve_diagram_map,
)
from .errors import (
    InternalInconsistencyError,
    ValidationError,
)


class SpanMorphism(DiagramMorphism):
    """Three component maps making both leg squares commute."""

    WRONG_ENDS = "{v} component endpoints do not match"
    NOT_NATURAL = "{t} naturality square does not commute"
    NOT_COMPOSABLE = "span morphisms are not composable"
    NOT_EXACT = "span sequence is not exact"
    NOT_CHAINED = "mono and epi do not share the middle span"

    def __init__(self, dom, cod, left, apex, right, check=True):
        self.left, self.apex, self.right = left, apex, right
        super().__init__(dom, cod, {0: left, 1: apex, 2: right}, check)

    @classmethod
    def _of(cls, dom, cod, components, check=True):
        return cls(dom, cod, *(components[v] for v in range(3)), check=check)


class SpanObject(Diagram):
    """A diagram left <- apex -> right of modules over one algebra: the
    vertices 0, 1, 2 and the legs g: 1 -> 0 and f: 1 -> 2."""

    Map = SpanMorphism

    def __init__(self, g, f):
        if g.dom != f.dom:
            raise ValidationError("span legs must share their apex")
        super().__init__(g.dom.algebra, 0, [g.cod, g.dom, f.cod], [g, f])
        self.g = g
        self.f = f
        self.left, self.apex, self.right = self.objects
        h = hashlib.sha256()
        for part in (self.left.digest, self.apex.digest, self.right.digest):
            h.update(part.encode())
        h.update(g.matrix.a.tobytes())
        h.update(f.matrix.a.tobytes())
        self.digest = h.hexdigest()

    @classmethod
    def _of(cls, algebra, lo, objects, maps):
        return cls(*maps)

    @staticmethod
    def targets(v):
        return (0, 2) if v == 1 else ()

    @staticmethod
    def name(v):
        return ("left", "apex", "right")[v]

    def __eq__(self, other):
        return isinstance(other, SpanObject) and self.digest == other.digest

    def __hash__(self):
        return hash(self.digest)

    def __repr__(self):
        return "SpanObject(%d <- %d -> %d)" % (
            self.left.dim,
            self.apex.dim,
            self.right.dim,
        )


# ---------------------------------------------------------------------------
# induced classes
# ---------------------------------------------------------------------------


def span_in_P(s, pair):
    """All three components in the left class and the right leg a cofibration."""
    for m in (s.left, s.apex, s.right):
        if not pair.in_left(m):
            return False
    if not s.f.is_mono():
        return False
    cok, _ = cokernel(s.f)
    return pair.in_left(cok)


def span_in_I(s, pair):
    """All three components in the right class and the left leg an acyclic
    fibration."""
    for m in (s.left, s.apex, s.right):
        if not pair.in_right(m):
            return False
    if not s.g.is_epi():
        return False
    ker_mod, _ = kernel(s.g)
    return pair.in_right(ker_mod)


# ---------------------------------------------------------------------------
# the two completeness resolutions
# ---------------------------------------------------------------------------


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def span_resolve_right(x, pair):
    """Resolution 0 -> I -> P -> x -> 0 with I right-class, P left-class.

    Follows the constructive completeness proof: resolve the apex and left
    components, lift the left leg through the acyclic fibration of the
    left resolution, repair the induced kernel map by adding an auxiliary
    summand that surjects onto the left kernel object, then factor the
    right-leg lift so its cofibration part becomes the right leg of the
    left-class span.  Every membership is validated and failures name the
    strand.
    """
    a, b, c = x.apex, x.right, x.left
    res_a = pair.resolve_left(a)
    res_c = pair.resolve_left(c)
    p_a = res_a.mid
    alpha2, alpha1 = res_a.mono, res_a.epi
    i_c, p_c = res_c.sub, res_c.mid
    gamma2, gamma1 = res_c.mono, res_c.epi
    g1 = solve_map(p_a, p_c, post=[(gamma1, x.g @ alpha1)])
    if g1 is None:
        raise InternalInconsistencyError("left-leg lift through the resolution failed")
    g2 = corestrict(g1 @ alpha2, gamma2)
    # auxiliary resolution making the kernel-strand left map an acyclic fibration
    res_ic = pair.resolve_left(i_c)
    p_ic = res_ic.mid
    h = res_ic.epi
    if not pair.in_right(p_ic):
        raise InternalInconsistencyError(
            "auxiliary cover is not right-class; the right class is not "
            "closed under extensions here"
        )
    mono2 = block([[alpha2, None], [None, identity_morphism(p_ic)]])
    epi2 = block([[alpha1, zero_morphism(p_ic, a)]])
    g_i = block([[g2, h]])
    g_p = block([[g1, gamma2 @ h]])
    _require(g_i.is_epi(), "left strand: repaired kernel map is not surjective")
    ker_gi, _ = kernel(g_i)
    _require(
        pair.in_right(ker_gi),
        "left strand: kernel of the repaired map is not right-class",
    )
    # right strand
    res_b = pair.resolve_left(b)
    i_b, p_b = res_b.sub, res_b.mid
    beta2, beta1 = res_b.mono, res_b.epi
    f1 = solve_map(epi2.dom, p_b, post=[(beta1, x.f @ epi2)])
    if f1 is None:
        raise InternalInconsistencyError("right-leg lift through the resolution failed")
    # factor f1 as a cofibration followed by an acyclic fibration
    i_map, p_map = pair.factor(f1)
    _require(i_map.is_mono(), "right strand: factored injection is not injective")
    cok_i, _ = cokernel(i_map)
    _require(
        pair.in_left(cok_i),
        "right strand: cokernel of the factored injection is not left-class",
    )
    epi_b = beta1 @ p_map
    ker_b_mod, incl_b = kernel(epi_b)
    _require(
        pair.in_right(ker_b_mod),
        "right strand: kernel of the composite surjection is not right-class",
    )
    f2 = corestrict(i_map @ mono2, incl_b)
    # assemble
    i_span = SpanObject(g_i, f2)
    p_span = SpanObject(g_p, i_map)
    mono = SpanMorphism(i_span, p_span, gamma2, mono2, incl_b)
    epi = SpanMorphism(p_span, x, gamma1, epi2, epi_b)
    out = DiagramSES(mono, epi)
    _require(span_in_I(i_span, pair), "kernel span failed the right-class test")
    _require(span_in_P(p_span, pair), "middle span failed the left-class test")
    return out


def span_resolve_dual(x, pair):
    """Resolution 0 -> x -> I -> P -> 0 with I right-class, P left-class.

    The mirror of span_resolve_right: co-resolve the apex and left
    components, extend the left leg over the apex embedding, repair it
    into an acyclic fibration with the same auxiliary-summand trick, then
    pull the right strand back along the factored cokernel map so the
    quotient span's right leg is a cofibration.
    """
    a, b, c = x.apex, x.right, x.left
    res_a = pair.resolve_right(a)
    alpha = res_a.mono      # a into I_A
    res_c = pair.resolve_right(c)
    gamma = res_c.mono      # c into I_C
    pi_c = res_c.epi
    i_c = gamma.cod
    g1 = solve_map(alpha.cod, i_c, pre=[(alpha, gamma @ x.g)])
    if g1 is None:
        raise InternalInconsistencyError("left-leg extension over the embedding failed")
    res_ic = pair.resolve_left(i_c)
    p_ic = res_ic.mid
    h = res_ic.epi
    if not pair.in_right(p_ic):
        raise InternalInconsistencyError(
            "auxiliary cover is not right-class; the right class is not "
            "closed under extensions here"
        )
    mono_a = block([[alpha], [zero_morphism(a, p_ic)]])  # a into I_A (+) P_{I_C}
    g_i = block([[g1, h]])                               # repaired left leg
    _require(g_i.is_epi(), "left strand: repaired left leg is not surjective")
    ker_gi, _ = kernel(g_i)
    _require(
        pair.in_right(ker_gi),
        "left strand: kernel of the repaired left leg is not right-class",
    )
    pa2_mod, pi_a = cokernel(mono_a)
    c_left = induced_on_cokernel(pi_a, pi_c @ g_i)
    _require(pair.in_left(pa2_mod), "apex strand: cokernel is not left-class")
    # right strand
    res_b = pair.resolve_right(b)
    beta = res_b.mono
    pi_b = res_b.epi
    f1 = solve_map(mono_a.cod, beta.cod, pre=[(mono_a, beta @ x.f)])
    if f1 is None:
        raise InternalInconsistencyError("right-leg extension over the embedding failed")
    c_right = induced_on_cokernel(pi_a, pi_b @ f1)
    # factor the induced cokernel map as cofibration then acyclic fibration
    i_c_map, p_c_map = pair.factor(c_right)
    _require(i_c_map.is_mono(), "right strand: factored injection is not injective")
    cok_ic, _ = cokernel(i_c_map)
    _require(
        pair.in_left(cok_ic),
        "right strand: cokernel of the factored injection is not left-class",
    )
    ker_pc, _ = kernel(p_c_map)
    _require(
        pair.in_right(ker_pc),
        "right strand: kernel of the factored surjection is not right-class",
    )
    # pull the co-resolution of b back along the acyclic fibration
    _, to_ib, to_q = pullback(pi_b, p_c_map)
    _require(to_q.is_epi(), "right strand: pullback projection is not surjective")
    mono_b = into_pullback(to_ib, to_q, beta, zero_morphism(b, p_c_map.dom))
    f_hat = into_pullback(to_ib, to_q, f1, i_c_map @ pi_a)
    i_span = SpanObject(g_i, f_hat)
    p_span = SpanObject(c_left, i_c_map)
    mono = SpanMorphism(x, i_span, gamma, mono_a, mono_b)
    epi = SpanMorphism(i_span, p_span, pi_c, pi_a, to_q)
    out = DiagramSES(mono, epi)
    _require(span_in_I(i_span, pair), "middle span failed the right-class test")
    _require(span_in_P(p_span, pair), "quotient span failed the left-class test")
    return out


# ---------------------------------------------------------------------------
# factorization and lifting in spans
# ---------------------------------------------------------------------------


def span_factor(m, pair):
    """Factor a span morphism as a cofibration followed by an acyclic
    fibration, through the dual resolution of the domain summed with the
    codomain.  Returns (i, p); raises with the list of failed conditions
    when the factor legs miss their classes.
    """
    dr = span_resolve_dual(m.dom, pair)
    j = dr.mono                       # dom into the right-class span
    middle, _, (_, p) = diagram_sum(j.cod, m.cod)
    i = into_sum(j, m, middle)
    if (p @ i) != m:
        raise InternalInconsistencyError("span factorization does not compose")
    failures = []
    if not i.is_mono():
        failures.append("injection leg is not componentwise injective")
    else:
        cok_span, _ = diagram_cokernel(i)
        if not span_in_P(cok_span, pair):
            failures.append("cokernel span of the injection is not left-class")
    if not p.is_epi():
        failures.append("projection leg is not componentwise surjective")
    else:
        ker_span, _ = diagram_kernel(p)
        if not span_in_I(ker_span, pair):
            failures.append("kernel span of the projection is not right-class")
    if failures:
        raise ValidationError("span factorization validation failed", failures)
    return i, p


def span_lift(i, p, top, bottom):
    """Diagonal span morphism h with h o i = top and p o h = bottom.

    ``i`` should be a span cofibration and ``p`` a span acyclic fibration;
    the square must commute.  All component, naturality, and triangle
    constraints are solved as one linear system.
    """
    if (p @ top) != (bottom @ i):
        raise ValidationError("span lifting square does not commute")
    h = solve_diagram_map(i.cod, p.dom, post=[(p, bottom)], pre=[(i, top)])
    if h is None:
        raise InternalInconsistencyError(
            "no span lift exists; preconditions were not satisfied"
        )
    return h
