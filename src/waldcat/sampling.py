"""Seeded random instance generators for the axiom checkers.

All generators take a numpy Generator so runs are reproducible.
Instances are valid by construction: commuting squares are assembled
from block maps (sums with objects of the relevant class, twisted by
random automorphisms), so a correct implementation of the axioms should
report PASS on every generated instance over a structure that satisfies
the construction hypotheses.
"""

from .algebra import (
    ShortExactSequence,
    block,
    cokernel,
    combine,
    direct_sum,
    enumerate_modules,
    hom_basis,
    identity_morphism,
    zero_morphism,
)
from .errors import ValidationError
from .spans import SpanObject
from .waldhausen import (
    ExtensionInstance,
    GluingInstance,
    PropernessInstance,
)

AUTOMORPHISM_TRIES = 50
COFIBRATION_TRIES = 200
SES_TRIES = 200


def random_combination(rng, dom, cod):
    """A random morphism as a coefficient combination of the hom basis."""
    basis = hom_basis(dom, cod)
    if not basis:
        return zero_morphism(dom, cod)
    return combine(dom, cod, basis, rng.integers(0, dom.p, size=len(basis)))


def random_automorphism(rng, m):
    """A random invertible endomorphism (falls back to the identity)."""
    for _ in range(AUTOMORPHISM_TRIES):
        f = random_combination(rng, m, m)
        if f.is_iso():
            return f
    return identity_morphism(m)


def random_module(rng, algebra, max_dim, nonzero=False):
    mods = enumerate_modules(algebra, max_dim)
    if nonzero:
        mods = [m for m in mods if m.dim > 0]
    return mods[int(rng.integers(0, len(mods)))]


def class_samples(w, max_dim, predicate):
    return [m for m in w.modules(max_dim) if predicate(m)]


def c_samples(w, max_dim):
    return class_samples(w, max_dim, w.in_c)


def zc_samples(w, max_dim):
    return class_samples(w, max_dim, w.in_zc)


def cperp_samples(w, max_dim):
    """Padding objects: the members of C that are right-orthogonal."""
    return class_samples(w, max_dim, lambda m: w.in_c(m) and w.pair.in_right(m))


def _pick(rng, items):
    if not items:
        raise ValidationError("no module of the required class to sample from")
    return items[int(rng.integers(0, len(items)))]


def random_cofibration(w, rng, dom, max_dim=3):
    """A random injection out of ``dom`` whose cokernel lies in C."""
    mods = [
        m
        for m in w.modules(max_dim)
        if m.dim >= dom.dim and w.in_c(m)
    ]
    for _ in range(COFIBRATION_TRIES):
        cod = _pick(rng, mods)
        f = random_combination(rng, dom, cod)
        if not f.is_mono():
            continue
        cok, _ = cokernel(f)
        if w.in_c(cok):
            return f
    raise ValidationError("no cofibration found within the try budget")


def random_acyclic_fibration(w, rng, cod, max_dim=2):
    """cod (+) K onto cod with K right-orthogonal, twisted by an automorphism."""
    kobj = _pick(rng, cperp_samples(w, max_dim))
    total, _, (proj_cod, _) = direct_sum([cod, kobj])
    u = random_automorphism(rng, total)
    return proj_cod @ u


def random_weq_from(w, rng, dom, max_dim=2):
    """A weak equivalence out of ``dom``.

    Built as an acyclic cofibration dom -> dom (+) W (+) K followed by an
    acyclic fibration dropping K; the padding K is taken in the
    intersection of the right-orthogonal class with Z-intersect-C so both
    legs have the required cokernel and kernel classes.  Independent
    automorphism twists keep the composite from collapsing to a block
    inclusion.
    """
    wobj = _pick(rng, zc_samples(w, max_dim))
    kobj = _pick(rng, [m for m in cperp_samples(w, max_dim) if w.in_zc(m)])
    stage, (inj_dom, _), _ = direct_sum([dom, wobj])
    total, (inj_stage, _), (proj_stage, _) = direct_sum([stage, kobj])
    u1 = random_automorphism(rng, total)
    u2 = random_automorphism(rng, total)
    i = u1 @ inj_stage @ inj_dom      # cokernel is W (+) K, in Z-intersect-C
    q = proj_stage @ u2               # kernel is (a twist of) K, right-orthogonal
    return q @ i


def gluing_instance(w, rng, max_dim=2):
    """A commuting pair of spans whose verticals are weak equivalences.

    Mode 0 inflates the bottom row by Z-intersect-C objects (verticals are
    acyclic cofibrations); mode 1 deflates the top row by a
    right-orthogonal object (verticals are acyclic fibrations).
    """
    apex = _pick(rng, c_samples(w, max_dim))
    i = random_cofibration(w, rng, apex, max_dim + 1)
    cobj = _pick(rng, c_samples(w, max_dim))
    j = random_combination(rng, apex, cobj)
    mode = int(rng.integers(0, 2))
    if mode == 0:
        wb = _pick(rng, zc_samples(w, max_dim))
        wc = _pick(rng, zc_samples(w, max_dim))
        _, (inj_b, _), _ = direct_sum([i.cod, wb])
        _, (inj_c, _), _ = direct_sum([cobj, wc])
        return GluingInstance(
            i, j, inj_b @ i, inj_c @ j, identity_morphism(apex), inj_b, inj_c
        )
    ka = _pick(rng, cperp_samples(w, max_dim))
    keep = identity_morphism(ka)
    _, _, (proj_a, _) = direct_sum([apex, ka])
    _, _, (proj_b, _) = direct_sum([i.cod, ka])
    _, _, (proj_c, _) = direct_sum([cobj, ka])
    i_top = block([[i, None], [None, keep]])
    j_top = block([[j, None], [None, keep]])
    return GluingInstance(i_top, j_top, i, j, proj_a, proj_b, proj_c)


def random_ses(w, rng, max_dim=2):
    """A short exact sequence of C-objects whose injection is a cofibration."""
    mods = c_samples(w, max_dim)
    mids = [m for m in mods if m.dim > 0]
    for _ in range(SES_TRIES):
        mid = _pick(rng, mids)
        sub = _pick(rng, [m for m in mods if m.dim <= mid.dim])
        f = random_combination(rng, sub, mid)
        if not f.is_mono():
            continue
        quot, q = cokernel(f)
        if w.in_c(quot):
            return ShortExactSequence(f, q)
    raise ValidationError("no short exact sequence found within the try budget")


def extension_instance(w, rng, max_dim=2):
    """Two cofibration sequences with weak-equivalence outer verticals."""
    base = random_ses(w, rng, max_dim)
    mode = int(rng.integers(0, 3))
    if mode == 0:
        # bottom: 0 -> sub (+) W -> mid (+) W -> quot -> 0, inflate verticals
        wobj = _pick(rng, zc_samples(w, max_dim))
        _, (inj_s, _), _ = direct_sum([base.sub, wobj])
        _, (inj_m, _), (proj_m, _) = direct_sum([base.mid, wobj])
        bot_mono = block([[base.mono, None], [None, identity_morphism(wobj)]])
        bot_epi = base.epi @ proj_m
        bottom = ShortExactSequence(bot_mono, bot_epi)
        return ExtensionInstance(
            base, bottom, inj_s, inj_m, identity_morphism(base.quot)
        )
    if mode == 1:
        # bottom: 0 -> sub -> mid (+) W -> quot (+) W -> 0
        wobj = _pick(rng, zc_samples(w, max_dim))
        _, (inj_m, _), _ = direct_sum([base.mid, wobj])
        _, (inj_q, _), _ = direct_sum([base.quot, wobj])
        bot_mono = inj_m @ base.mono
        bot_epi = block([[base.epi, None], [None, identity_morphism(wobj)]])
        bottom = ShortExactSequence(bot_mono, bot_epi)
        return ExtensionInstance(
            base, bottom, identity_morphism(base.sub), inj_m, inj_q
        )
    # top: 0 -> sub (+) K -> mid (+) K -> quot -> 0, deflate verticals
    kobj = _pick(rng, cperp_samples(w, max_dim))
    _, _, (p1s, _) = direct_sum([base.sub, kobj])
    _, _, (proj_m, _) = direct_sum([base.mid, kobj])
    top_mono = block([[base.mono, None], [None, identity_morphism(kobj)]])
    top_epi = base.epi @ proj_m
    top = ShortExactSequence(top_mono, top_epi)
    return ExtensionInstance(
        top, base, p1s, proj_m, identity_morphism(base.quot)
    )


def saturation_instance(w, rng, max_dim=2):
    """A random composable pair of maps between C-objects."""
    mods = c_samples(w, max_dim)
    a = _pick(rng, mods)
    b = _pick(rng, mods)
    c = _pick(rng, mods)
    f = random_combination(rng, a, b)
    g = random_combination(rng, b, c)
    return f, g


def properness_instance(w, rng, max_dim=2):
    """A weak equivalence to push along a cofibration or pull along an epi."""
    if int(rng.integers(0, 2)) == 0:
        apex = _pick(rng, c_samples(w, max_dim))
        f = random_cofibration(w, rng, apex, max_dim + 1)
        a = random_weq_from(w, rng, apex, max_dim)
        return PropernessInstance("pushout", f, a)
    base = _pick(rng, c_samples(w, max_dim))
    extra = _pick(rng, c_samples(w, max_dim))
    total, _, (proj_base, _) = direct_sum([base, extra])
    u = random_automorphism(rng, total)
    f = proj_base @ u
    a = random_acyclic_fibration(w, rng, base, max_dim)
    return PropernessInstance("pullback", f, a)


# ---------------------------------------------------------------------------
# span instances
# ---------------------------------------------------------------------------


def random_span(rng, algebra, max_dim=2):
    """A span with random components and random legs."""
    apex = random_module(rng, algebra, max_dim)
    left = random_module(rng, algebra, max_dim)
    right = random_module(rng, algebra, max_dim)
    return SpanObject(
        random_combination(rng, apex, left), random_combination(rng, apex, right)
    )
