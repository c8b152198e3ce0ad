"""Diagrams of modules and their componentwise exact structure.

A diagram is a representation of a quiver Q in mod A, that is a module
over A ⊗ kQ (Auslander, Reiten and Smalø, ch. III; Assem, Simson and
Skowroński, vol. 1, ch. III): a module at each vertex of a window lo..hi
of the integers, zero outside it, and a map along each arrow.  Spans
(``spans``) and bounded complexes (``chains``) are its two shapes.

Morphisms, kernels, cokernels, direct sums and short exact sequences of
diagrams are those of modules at each vertex, with the structure maps
induced along the arrows: a kernel lives on the domain's window, a
cokernel on the codomain's and a sum on the window spanning both.
"""

from .algebra import (
    ShortExactSequence,
    block,
    cokernel,
    corestrict,
    direct_sum,
    identity_morphism,
    induced_on_cokernel,
    kernel,
    solve_maps,
    zero_module,
    zero_morphism,
)
from .errors import ValidationError


def joint_window(*diagrams):
    """The vertices from the lowest lo to the highest hi."""
    return range(min(x.lo for x in diagrams), max(x.hi for x in diagrams) + 1)


class Diagram:
    """Modules on the vertices lo..hi and a structure map on each arrow
    between two of them, in ``arrows`` order.  A shape gives ``targets``,
    the ends of the arrows leaving a vertex, its morphism class ``Map``,
    and ``_of``, which builds one of its diagrams from these parts."""

    def __init__(self, algebra, lo, objects, maps):
        self.algebra = algebra
        self.lo = lo
        self.objects = list(objects)
        self.hi = lo + len(self.objects) - 1
        self.maps = dict(zip(self.arrows(), maps))

    @classmethod
    def _of(cls, algebra, lo, objects, maps):
        return cls(algebra, lo, objects, maps)

    @staticmethod
    def name(v):
        """How messages name vertex v."""
        return v

    def vertices(self):
        return range(self.lo, self.hi + 1)

    def arrows(self, vertices=None):
        """The arrows s -> t with both ends in ``vertices`` (by default the
        window), by source and then in ``targets`` order."""
        vertices = self.vertices() if vertices is None else vertices
        return [(s, t) for s in vertices for t in self.targets(s) if t in vertices]

    def obj(self, v):
        if self.lo <= v <= self.hi:
            return self.objects[v - self.lo]
        return zero_module(self.algebra)

    def arrow(self, s, t):
        """The structure map X_s -> X_t; zero off the window."""
        if (s, t) in self.maps:
            return self.maps[s, t]
        return zero_morphism(self.obj(s), self.obj(t))

    def __eq__(self, other):
        return type(other) is type(self) and (
            (self.lo, self.objects, self.maps) == (other.lo, other.objects, other.maps))


class DiagramMorphism:
    """A module map at each vertex, zero where ``components`` has none,
    commuting with the structure maps.  A shape gives the messages of
    failed checks, formatted with the names of the vertex ``v`` or of the
    ends ``s``, ``t`` of the arrow."""

    def __init__(self, dom, cod, components, check=True):
        self.dom = dom
        self.cod = cod
        self.components = dict(components)
        if check:
            for v, f in self.components.items():
                if f.dom != dom.obj(v) or f.cod != cod.obj(v):
                    raise ValidationError(self.WRONG_ENDS.format(v=dom.name(v)))
            for s, t in dom.arrows(joint_window(dom, cod)):
                lhs = cod.arrow(s, t) @ self.component(s)
                if lhs != self.component(t) @ dom.arrow(s, t):
                    raise ValidationError(
                        self.NOT_NATURAL.format(s=dom.name(s), t=dom.name(t)))

    @classmethod
    def _of(cls, dom, cod, components, check=True):
        return cls(dom, cod, components, check=check)

    def component(self, v):
        if v in self.components:
            return self.components[v]
        return zero_morphism(self.dom.obj(v), self.cod.obj(v))

    def __matmul__(self, other):
        if other.cod is not self.dom and other.cod != self.dom:
            raise ValidationError(self.NOT_COMPOSABLE)
        comps = {v: self.component(v) @ other.component(v)
                 for v in joint_window(other.dom, self.cod)}
        return self._of(other.dom, self.cod, comps, check=False)

    def __eq__(self, other):
        return (isinstance(other, DiagramMorphism)
                and self.dom == other.dom and self.cod == other.cod
                and all(self.component(v) == other.component(v)
                        for v in joint_window(self.dom, self.cod)))

    def is_mono(self):
        return all(self.component(v).is_mono() for v in self.dom.vertices())

    def is_epi(self):
        return all(self.component(v).is_epi() for v in self.cod.vertices())


def diagram_identity(x):
    comps = {v: identity_morphism(x.obj(v)) for v in x.vertices()}
    return x.Map._of(x, x, comps, check=False)


def diagram_sum(x, y):
    """x (+) y on their joint window with its injections and projections:
    ``direct_sum`` at each vertex and block-diagonal structure maps."""
    vertices = joint_window(x, y)
    sums = [direct_sum([x.obj(v), y.obj(v)]) for v in vertices]
    maps = [block([[x.arrow(s, t), None], [None, y.arrow(s, t)]])
            for s, t in x.arrows(vertices)]
    total = x._of(x.algebra, vertices.start, [s[0] for s in sums], maps)

    def legs(part, ends):
        return tuple(
            x.Map._of(*ends[k], {v: s[part][k] for v, s in zip(vertices, sums)},
                      check=False)
            for k in (0, 1))

    return (total, legs(1, [(x, total), (y, total)]),
            legs(2, [(total, x), (total, y)]))


def into_sum(u, w, total):
    """The morphism with components [u_v; w_v] into ``total``, the sum of
    the codomains of u and w by ``diagram_sum``."""
    comps = {v: block([[u.component(v)], [w.component(v)]])
             for v in joint_window(u.dom, total)}
    return u.dom.Map._of(u.dom, total, comps)


def diagram_kernel(m):
    """The kernel on the domain's window with its inclusion: ``kernel`` at
    each vertex and the domain's structure maps ``corestrict``-ed."""
    x = m.dom
    kers = {v: kernel(m.component(v)) for v in x.vertices()}
    maps = [corestrict(x.arrow(s, t) @ kers[s][1], kers[t][1]) for s, t in x.arrows()]
    ker = x._of(x.algebra, x.lo, [k for k, _ in kers.values()], maps)
    return ker, x.Map._of(ker, x, {v: i for v, (_, i) in kers.items()}, check=False)


def diagram_cokernel(m):
    """The cokernel on the codomain's window with its projection:
    ``cokernel`` at each vertex and the induced structure maps."""
    y = m.cod
    coks = {v: cokernel(m.component(v)) for v in y.vertices()}
    maps = [induced_on_cokernel(coks[s][1], coks[t][1] @ y.arrow(s, t))
            for s, t in y.arrows()]
    cok = y._of(y.algebra, y.lo, [c for c, _ in coks.values()], maps)
    return cok, y.Map._of(y, cok, {v: q for v, (_, q) in coks.items()}, check=False)


class DiagramSES:
    """A short exact sequence of diagrams, validated strand by strand:
    at each vertex the components are a short exact sequence of modules."""

    def __init__(self, mono, epi, check=True):
        self.mono = mono
        self.epi = epi
        self.sub = mono.dom
        self.mid = mono.cod
        self.quot = epi.cod
        if check:
            problems = self.validate()
            if problems:
                raise ValidationError(mono.NOT_EXACT, problems)

    def validate(self):
        if self.mono.cod != self.epi.dom:
            return [self.mono.NOT_CHAINED]
        problems = []
        for v in joint_window(self.sub, self.mid, self.quot):
            strand = ShortExactSequence(
                self.mono.component(v), self.epi.component(v), check=False)
            problems += ["%s strand: %s" % (self.mid.name(v), issue)
                         for issue in strand.validate()]
        return problems


def diagram_map_equations(dom, cod, shift=0, sign=-1):
    """(unknowns, equations) for ``solve_maps``: maps X_v: dom_v ->
    cod_{v+shift}, one per vertex v of dom in order, and for each arrow
    a: s -> t leaving a vertex of dom, by source, the equation

        cod_{s+shift -> t+shift} X_s + sign X_t dom_a = 0,

    the second term only when t is a vertex of dom.  The defaults make X a
    morphism dom -> cod; ``chains.graded_map_equations`` takes other
    shifts and signs for connecting maps and homotopies.
    """
    vertices = dom.vertices()
    unknowns = [(dom.obj(v), cod.obj(v + shift)) for v in vertices]
    equations = []
    for k, s in enumerate(vertices):
        for t in dom.targets(s):
            terms = [(cod.arrow(s + shift, t + shift), k, None)]
            if t in vertices:
                d = dom.arrow(s, t)
                terms.append((None, t - dom.lo, -d if sign < 0 else d))
            equations.append((terms, None))
    return unknowns, equations


def solve_diagram_map(dom, cod, post=(), pre=()):
    """A morphism x: dom -> cod with g @ x == t for each (g, t) in ``post``
    and x @ f == t for each (f, t) in ``pre``, or None when there is none:
    the diagram twin of ``solve_map``, one ``solve_maps`` call in the
    components of x, which gives sections and lifts."""
    unknowns, equations = diagram_map_equations(dom, cod)
    vertices = dom.vertices()
    for g, t in post:
        equations += [([(g.component(v), k, None)], t.component(v))
                      for k, v in enumerate(vertices)]
    for f, t in pre:
        equations += [([(None, k, f.component(v))], t.component(v))
                      for k, v in enumerate(vertices)]
    sol = solve_maps(unknowns, equations)
    return None if sol is None else dom.Map._of(dom, cod, dict(zip(vertices, sol)))
