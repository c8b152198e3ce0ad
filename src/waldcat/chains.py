"""Bounded chain complexes with the degreewise-split exact structure.

Complexes are finite: objects in degrees lo..hi, differentials
d_n: X_n -> X_{n-1}, zero outside the window.  They are a shape of
``diagrams``, which gives their chain maps, sums, kernels and cokernels
degreewise.  The pair (everything, contractibles) is complete on this
category because every complex embeds degreewise split into the cone on
its identity, which is contractible;
that embedding drives the canonical factorization, and the induced
three-valued weak-equivalence decision agrees with quasi-isomorphism
when the acyclic class is taken to be the exact complexes.
"""

from .algebra import (
    block,
    cokernel,
    corestrict,
    direct_sum,
    induced_on_cokernel,
    kernel,
    solve_maps,
    zero_module,
)
from .diagrams import (
    Diagram,
    DiagramMorphism,
    diagram_cokernel,
    diagram_identity,
    diagram_kernel,
    diagram_map_equations,
    diagram_sum,
    into_sum,
    joint_window,
)
from .errors import InternalInconsistencyError, ValidationError


class ChainMap(DiagramMorphism):
    """Degreewise components commuting with both differentials."""

    WRONG_ENDS = "component at degree {v} has wrong endpoints"
    NOT_NATURAL = "chain map does not commute with d at degree {s}"
    NOT_COMPOSABLE = "chain maps are not composable"
    NOT_EXACT = "chain sequence is not exact"
    NOT_CHAINED = "mono and epi do not share the middle complex"


class ChainComplex(Diagram):
    """Objects indexed lo..hi with differentials lowering degree by one:
    the diagram with arrows d_n: n -> n - 1."""

    Map = ChainMap

    def __init__(self, algebra, lo, objects, differentials, check=True):
        self.differentials = list(differentials)
        super().__init__(algebra, int(lo), objects, self.differentials)
        if check:
            if len(self.differentials) != max(len(self.objects) - 1, 0):
                raise ValidationError(
                    "a complex on %d objects needs %d differentials"
                    % (len(self.objects), max(len(self.objects) - 1, 0))
                )
            for m in self.objects:
                if m.algebra.digest != algebra.digest:
                    raise ValidationError("complex object over the wrong algebra")
            for k, d in enumerate(self.differentials):
                n = self.lo + k + 1
                if d.dom != self.obj(n) or d.cod != self.obj(n - 1):
                    raise ValidationError(
                        "differential at degree %d has wrong endpoints" % n
                    )
            for k in range(len(self.differentials) - 1):
                if not (self.differentials[k] @ self.differentials[k + 1]).is_zero():
                    raise ValidationError(
                        "d o d is nonzero at degree %d" % (self.lo + k + 2)
                    )

    @staticmethod
    def targets(n):
        return (n - 1,)

    def diff(self, n):
        """d_n: X_n -> X_{n-1}; zero morphism outside the window."""
        return self.arrow(n, n - 1)

    def degrees(self):
        return self.vertices()

    def __repr__(self):
        dims = ",".join(str(m.dim) for m in self.objects)
        return "ChainComplex([%d..%d] dims %s)" % (self.lo, self.hi, dims)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def _cycle_inclusion(x, n):
    return kernel(x.diff(n))


def _homology_projection(x, n):
    """(H_n, projection from the cycle module) via cokernel of boundaries."""
    _, incl = _cycle_inclusion(x, n)
    j = corestrict(x.diff(n + 1), incl)
    return cokernel(j)


def homology(x, n):
    """ker d_n / im d_{n+1}; the zero module outside the window."""
    if n < x.lo or n > x.hi:
        return zero_module(x.algebra)
    h, _ = _homology_projection(x, n)
    return h


def induced_on_homology(f, n):
    """The map H_n(dom f) -> H_n(cod f)."""
    x, y = f.dom, f.cod
    _, incl_x = _cycle_inclusion(x, n)
    _, incl_y = _cycle_inclusion(y, n)
    restricted = corestrict(f.component(n) @ incl_x, incl_y)
    _, proj_x = _homology_projection(x, n)
    _, proj_y = _homology_projection(y, n)
    return induced_on_cokernel(proj_x, proj_y @ restricted)


def is_exact(x):
    return all(homology(x, n).dim == 0 for n in x.degrees())


def is_quasi_iso(f):
    """True iff every induced homology map is an isomorphism."""
    for n in joint_window(f.dom, f.cod):
        if not induced_on_homology(f, n).is_iso():
            return False
    return True


def graded_map_equations(x, y, degree, rhs=None):
    """(unknowns, equations) for ``solve_maps``: module maps
    h_n: x_n -> y_{n+degree}, one per degree n of x in ascending order, and
    d h - (-1)^degree h d = rhs in every degree, the
    ``diagram_map_equations`` of x and y shifted by ``degree``.

    ``rhs.component(n)`` is the right side in degree n, a map
    x_n -> y_{n+degree-1}: at degree 1 the identity of x asks for a
    contracting homotopy.  None means zero: degree 0 then makes h a chain
    map x -> y, and degree -1 a connecting map with d h + h d = 0.
    """
    unknowns, equations = diagram_map_equations(x, y, degree, 1 if degree % 2 else -1)
    if rhs is not None:
        equations = [(terms, rhs.component(n))
                     for (terms, _), n in zip(equations, x.degrees())]
    return unknowns, equations


def is_contractible(x):
    """Solve d h + h d = 1 degreewise as one ``solve_maps`` call."""
    return solve_maps(*graded_map_equations(x, x, 1, diagram_identity(x))) is not None


# ---------------------------------------------------------------------------
# cones and the canonical factorization
# ---------------------------------------------------------------------------


def cone(f):
    """Mapping cone: degree n holds cod_n (+) dom_{n-1}."""
    x, y = f.dom, f.cod
    lo = min(y.lo, x.lo + 1)
    hi = max(y.hi, x.hi + 1)
    objects = [direct_sum([y.obj(n), x.obj(n - 1)])[0] for n in range(lo, hi + 1)]
    diffs = [
        block([[y.diff(n), f.component(n - 1)], [None, -x.diff(n - 1)]])
        for n in range(lo + 1, hi + 1)
    ]
    return ChainComplex(x.algebra, lo, objects, diffs)


def cone_embedding(x):
    """The degreewise-split inclusion of x into the cone on its identity."""
    c = cone(diagram_identity(x))
    comps = {}
    for n in x.degrees():
        total, (inj_first, _), _ = direct_sum([x.obj(n), x.obj(n - 1)])
        if total != c.obj(n):
            raise InternalInconsistencyError("cone degree does not match")
        comps[n] = inj_first
    return ChainMap(x, c, comps)


def chain_factor(f):
    """f = p o i through cone(id_dom) (+) cod.

    i is a degreewise-split injection (a first-coordinate retraction
    exists in every degree) and the kernel of p is the cone, which is
    contractible, so p is an acyclic fibration for the
    (everything, contractibles) pair.
    """
    emb = cone_embedding(f.dom)
    middle, _, (_, p) = diagram_sum(emb.cod, f.cod)
    i = into_sum(emb, f, middle)
    if (p @ i) != f:
        raise InternalInconsistencyError("chain factorization does not compose")
    ker_cx, _ = diagram_kernel(p)
    if not is_contractible(ker_cx):
        raise InternalInconsistencyError("kernel of the projection is not contractible")
    return i, p, middle


def dwsplit_weq(f, z_two_of_three=True):
    """Three-valued weak-equivalence decision for the degreewise-split
    structure with acyclics the exact complexes.

    Factor f through the cone; f is an acyclic cofibration followed by an
    acyclic fibration exactly when the cokernel complex of the injection
    is exact, so "yes" is unconditional.  "no" additionally needs
    2-out-of-3 for exactness, which holds by the long exact homology
    sequence of a degreewise-split extension; pass z_two_of_three=False
    to withhold that hypothesis and observe "indeterminate".
    """
    i, _, _ = chain_factor(f)
    cok_cx, _ = diagram_cokernel(i)
    if is_exact(cok_cx):
        return "yes"
    if z_two_of_three:
        return "no"
    return "indeterminate"
