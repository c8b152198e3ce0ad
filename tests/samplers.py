"""Seeded random samplers that only tests draw from.

The acyclic-cofibration, span and chain samplers and ``map_kernel``, the
homogeneous map solver they sample solution spaces through.  They build
on the package's samplers in ``waldcat.sampling`` and take the same numpy
Generator, so a seed fixes every object they return.
"""

from waldcat.algebra import (
    _map_coordinates,
    _maps_at,
    block,
    combine,
    direct_sum,
    enumerate_modules,
)
from waldcat.chains import (
    ChainComplex,
    ChainMap,
    cone,
    graded_map_equations,
)
from waldcat.diagrams import (
    DiagramSES,
    diagram_identity,
    diagram_map_equations,
    diagram_sum,
)
from waldcat.linalg import kernel_basis
from waldcat.sampling import (
    _pick,
    random_automorphism,
    random_combination,
    random_module,
    zc_samples,
)
from waldcat.spans import SpanMorphism, SpanObject


def map_kernel(unknowns, equations):
    """A basis of the solutions of ``equations`` with every t read as zero,
    each solution a list of maps in the order of ``unknowns``: the
    ``kernel_basis`` of the coordinate system of ``solve_maps``, which by
    the argument there is the kernel basis of the system on the entries."""
    if not unknowns:
        return []
    a, _ = _map_coordinates(unknowns, equations)
    return [_maps_at(unknowns, col) for col in kernel_basis(a).a.T]


def random_acyclic_cofibration(w, rng, dom, max_dim=2):
    """dom into dom (+) W with W in Z-intersect-C, twisted by an automorphism."""
    wobj = _pick(rng, zc_samples(w, max_dim))
    total, (inj_dom, _), _ = direct_sum([dom, wobj])
    u = random_automorphism(rng, total)
    return u @ inj_dom


# ---------------------------------------------------------------------------
# span instances
# ---------------------------------------------------------------------------


def _class_modules(rng, algebra, max_dim, predicate, count):
    pool = [m for m in enumerate_modules(algebra, max_dim) if predicate(m)]
    return [_pick(rng, pool) for _ in range(count)]


def random_span_in_P(pair, rng, max_dim=2):
    """A left-class span: left-class components, right leg a block cofibration."""
    apex, extra, left = _class_modules(
        rng, pair.algebra, max_dim, pair.in_left, 3
    )
    right, (inj_a, _), _ = direct_sum([apex, extra])
    u = random_automorphism(rng, right)
    f = u @ inj_a
    g = random_combination(rng, apex, left)
    return SpanObject(g, f)


def random_span_in_I(pair, rng, max_dim=2):
    """A right-class span: right-class components, left leg a block surjection."""
    left, ker_part, right = _class_modules(
        rng, pair.algebra, max_dim, pair.in_right, 3
    )
    apex, _, (proj_l, _) = direct_sum([left, ker_part])
    u = random_automorphism(rng, apex)
    g = proj_l @ u
    f = random_combination(rng, apex, right)
    return SpanObject(g, f)


def random_span_extension(rng, sub, quot):
    """A span extension of ``quot`` by ``sub`` with random corner twists.

    When the strandwise extensions split (which holds whenever one side
    is componentwise orthogonal to the other), every extension of spans
    is isomorphic to this block shape, so sampling the corners covers the
    extension space.
    """
    _, (il_s, _), (_, pl_q) = direct_sum([sub.left, quot.left])
    _, (ia_s, _), (_, pa_q) = direct_sum([sub.apex, quot.apex])
    _, (ir_s, _), (_, pr_q) = direct_sum([sub.right, quot.right])
    twist_g = random_combination(rng, quot.apex, sub.left)
    twist_f = random_combination(rng, quot.apex, sub.right)
    g = block([[sub.g, twist_g], [None, quot.g]])
    f = block([[sub.f, twist_f], [None, quot.f]])
    mid = SpanObject(g, f)
    mono = SpanMorphism(sub, mid, il_s, ia_s, ir_s)
    epi = SpanMorphism(mid, quot, pl_q, pa_q, pr_q)
    return DiagramSES(mono, epi)


def random_span_morphism(rng, dom, cod):
    """A uniformly random span morphism between two given spans.

    Samples the solutions of the naturality equations, so the result can
    be any morphism, not just a block construction.
    """
    return SpanMorphism(dom, cod, *_random_solution(rng, *diagram_map_equations(dom, cod)))


def _random_solution(rng, unknowns, equations):
    """A uniformly random solution of homogeneous map equations: one
    coefficient drawn per element of their ``map_kernel`` basis."""
    kernel = map_kernel(unknowns, equations)
    coeffs = [int(rng.integers(0, sol[0].p)) for sol in kernel]
    return [
        combine(dom, cod, [sol[v] for sol in kernel], coeffs)
        for v, (dom, cod) in enumerate(unknowns)
    ]


# ---------------------------------------------------------------------------
# chain instances
# ---------------------------------------------------------------------------


def random_chain_complex(rng, algebra, max_len=3, max_dim=3):
    """A random bounded complex, differentials sampled degree by degree
    from the d o d = 0 solutions."""
    length = int(rng.integers(1, max_len + 1))
    objects = [random_module(rng, algebra, max_dim) for _ in range(length)]
    diffs = []
    for k in range(1, length):
        equations = [([(diffs[-1], 0, None)], None)] if diffs else []
        diffs += _random_solution(rng, [(objects[k], objects[k - 1])], equations)
    return ChainComplex(algebra, 0, objects, diffs)


def random_chain_map(rng, x, y):
    """A random chain map, sampled from all solutions of the commutation equations."""
    comps = _random_solution(rng, *graded_map_equations(x, y, 0))
    return ChainMap(x, y, dict(zip(x.degrees(), comps)))


def random_quasi_iso(rng, x, max_len=2, max_dim=2):
    """A nontrivial quasi-isomorphism out of x.

    Sum x with the cone on the identity of a random complex (which does
    not change homology), then twist the inclusion by a random chain
    homotopy; the result stays a chain map and stays injective on
    homology, but is no longer a block inclusion.
    """
    z = random_chain_complex(rng, x.algebra, max_len, max_dim)
    c = cone(diagram_identity(z))
    y, (inj_x, _), _ = diagram_sum(x, c)
    comps = {}
    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    h = {
        n: random_combination(rng, x.obj(n), y.obj(n + 1))
        for n in range(lo - 1, hi + 1)
    }
    for n in range(lo, hi + 1):
        comps[n] = (
            inj_x.component(n)
            + (y.diff(n + 1) @ h[n])
            + (h[n - 1] @ x.diff(n))
        )
    return ChainMap(x, y, comps)


def random_chain_extension(rng, sub, quot):
    """A degreewise-split extension 0 -> sub -> E -> quot -> 0.

    The middle differential is block triangular with a connecting block
    sampled from the d o d = 0 solution space.
    """
    maps = _random_solution(rng, *graded_map_equations(quot, sub, -1))
    connect = dict(zip(quot.degrees(), maps))
    lo = min(sub.lo, quot.lo)
    hi = max(sub.hi, quot.hi)
    objects, inj_s, proj_q = [], {}, {}
    for n in range(lo, hi + 1):
        total, (inj_s[n], _), (_, proj_q[n]) = direct_sum([sub.obj(n), quot.obj(n)])
        objects.append(total)
    diffs = [
        block([[sub.diff(n), connect.get(n)], [None, quot.diff(n)]])
        for n in range(lo + 1, hi + 1)
    ]
    mid = ChainComplex(sub.algebra, lo, objects, diffs)
    return ChainMap(sub, mid, inj_s), ChainMap(mid, quot, proj_q), mid
