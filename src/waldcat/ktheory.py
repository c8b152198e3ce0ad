"""K0 presentations by bounded enumeration and Smith normal form.

A presentation lists one generator per isomorphism class of modules up to
a dimension bound and one relation [mid] - [sub] - [quot] per short exact
sequence whose three terms all lie among the generators; the sequences
are harvested by realizing one Ext class per orbit between generator
pairs, and each middle is classified once by ``algebra.class_index``.  No
finite bound sees every sequence, so the honest contract is stability:
the derived invariant factors must not change when the bound grows.

On top of the exact-category presentation, the acyclic-kill presentation
for a Waldhausen structure adds the relation [Z] = 0 for every acyclic
generator.  Justification: for a weak equivalence f with canonical
factorization f = p o i, [dom f] - [cod f] = [ker p] - [coker i] and both
the kernel and the cokernel are acyclic, so killing acyclic classes
forces [dom f] = [cod f]; conversely every acyclic Z admits the weak
equivalence 0 -> Z, so the relation [Z] = 0 is itself an instance.  The
tests confirm on sampled weak equivalences that adding the explicit
relation [dom f] = [cod f] never changes the lattice.

The localization report assembles K0 of the acyclic subcategory, of the
whole module category, and of the Waldhausen structure, then checks
right-exactness of the induced two-map sequence.
"""

from .algebra import DEFAULT_BUDGET, class_index, enumerate_modules
from .errors import HypothesisError, ValidationError
from .homological import (
    all_injectives_pair,
    is_injective,
    short_exact_sequences,
    spec_all,
)
from .linalg import IntegerMatrix, RowLattice, stack
from .waldhausen import WaldhausenData


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------


def describe_group(invariant_factors):
    """Human-readable name of the group with the given invariant factors."""
    torsion = [d for d in invariant_factors if d not in (0, 1)]
    free = sum(1 for d in invariant_factors if d == 0)
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append("Z^%d" % free)
    parts.extend("Z/%d" % d for d in torsion)
    return " + ".join(parts) if parts else "trivial"


class K0Presentation:
    """Generators (iso-class digests), integer relations, and the group.

    ``invariant_factors`` has one entry per generator (0 meaning a free
    Z summand); ``reduced_factors`` drops the trivial entries and is the
    part that must be stable under growing the enumeration bound.
    ``classes`` is the ``ClassIndex`` of the enumeration the generators
    were taken from; ``generator_index(m)`` reads m's class off it.
    """

    def __init__(self, generators, modules, relations, classes, description=None):
        self.generators = list(generators)
        self.modules = list(modules)
        self.classes = classes
        self._position = {classes.find(m): i for i, m in enumerate(self.modules)}
        if relations.cols != len(self.generators):
            raise ValidationError(
                "relation width %d does not match %d generators"
                % (relations.cols, len(self.generators))
            )
        self.relations = relations
        self.lattice = RowLattice(relations)
        self.invariant_factors = self.lattice.invariant_factors
        self.reduced_factors = tuple(
            d for d in self.invariant_factors if d != 1
        )
        self.description = (
            description
            if description is not None
            else describe_group(self.invariant_factors)
        )

    def generator_index(self, m):
        """Index of the generator isomorphic to m, or None: m's class in
        the enumeration, then that class's place among the generators."""
        return self._position.get(self.classes.find(m))

    def class_vector(self, m):
        """The basis vector of [m], as a list over the generators."""
        idx = self.generator_index(m)
        if idx is None:
            raise ValidationError(
                "module of dimension %d matches no generator" % m.dim
            )
        row = [0] * len(self.generators)
        row[idx] = 1
        return row

    def is_relation(self, row):
        """Does the integer vector lie in the relation lattice?"""
        return row in self.lattice

    def as_dict(self):
        return {
            "generators": list(self.generators),
            "relations": self.relations.tolist(),
            "invariant_factors": list(self.invariant_factors),
            "description": self.description,
        }

    def __repr__(self):
        return "K0Presentation(%d generators, %d relations, %s)" % (
            len(self.generators),
            self.relations.rows,
            self.description,
        )


def _harvest_relations(generators, classes):
    """Relation rows from all realizable short exact sequences.

    Walks ``short_exact_sequences`` over the nonzero generators, with
    bound the largest generator dimension: one class per orbit of every
    Ext group of every ordered pair (quot, sub) with total dimension
    inside the bound.  Each middle's class is looked up once in
    ``classes``, the ``ClassIndex`` of the complete enumeration the
    generators come from, then its place among the generators; matches
    contribute [mid]-[sub]-[quot].  Duplicate rows are dropped; order is
    deterministic.

    Every pair with the zero module as an end term has the other end term
    as its middle and gives the row -[0], so that row is written once and
    first, with no walk.  Generators come in enumeration order, so the
    zero module, when it is one, is ``generators[0]``, and the (0, 0)
    pair is the first of a sweep over all generators.  A pair of nonzero
    modules gives neither -[0] nor the zero row, since its middle is
    larger than either end term, so the rows and their order are those of
    that sweep.

    Only the middle's isomorphism class is used, and classes of one orbit
    have isomorphic middles, so the rows and their order are those of a
    walk over every class.  The Ext group of a pair and its middles come
    from the memo of ``ext1``, so a pair seen earlier in the process is
    not presented or built again.
    """
    count = len(generators)
    if count == 0:
        return IntegerMatrix([], cols=0)
    max_dim = max(m.dim for m in generators)
    position = {classes.find(m): i for i, m in enumerate(generators)}
    first = 0 if generators[0].dim else 1

    rows = [[-1] + [0] * (count - 1)] if first else []
    seen = set()
    for j_quot, j_sub, mid in short_exact_sequences(generators[first:], max_dim):
        i_mid = position.get(classes.find(mid))
        if i_mid is None:
            continue
        row = [0] * count
        row[i_mid] += 1
        row[first + j_sub] -= 1
        row[first + j_quot] -= 1
        key = tuple(row)
        if key not in seen:
            seen.add(key)
            rows.append(row)
    return IntegerMatrix(rows, cols=count)


def k0_exact_category(algebra, c_spec, dim_bound, enum_budget=DEFAULT_BUDGET):
    """K0 of the full subcategory on C, restricted to the dimension bound.

    Generators are the enumerated iso classes lying in C (the zero module
    included; its class dies by the degenerate sequence on it).  Relations
    come from every short exact sequence with all three terms among the
    generators.
    """
    classes = class_index(algebra, dim_bound, budget=enum_budget)
    generators = [m for m in classes.modules if c_spec.contains(m)]
    relations = _harvest_relations(generators, classes)
    return K0Presentation(
        [m.digest for m in generators], generators, relations, classes
    )


def k0_waldhausen(w, dim_bound, enum_budget=DEFAULT_BUDGET):
    """K0 of the Waldhausen structure: exact-category K0 with acyclics killed.

    Requires the saturation gate (the verified 2-out-of-3 flag for the
    acyclic class): without it [dom f] = [cod f] is not forced for every
    weak equivalence and the acyclic-kill presentation is unjustified.
    """
    if not w.flags.get("z_two_of_three"):
        raise HypothesisError(
            "acyclic class lacks the 2-out-of-3 gate; "
            "the acyclic-kill presentation needs saturated weak equivalences"
        )
    base = k0_exact_category(w.algebra, w.pair.left, dim_bound, enum_budget)
    return _kill_acyclics(w, base)


def _kill_acyclics(w, base):
    """``base``, the exact-category K0 on w's C, with [Z] = 0 for every
    acyclic generator Z, on base's generator list.  Callers have checked
    w's 2-out-of-3 gate."""
    count = len(base.generators)
    kill = []
    for idx, m in enumerate(base.modules):
        if w.in_z(m):
            row = [0] * count
            row[idx] = 1
            kill.append(row)
    relations = stack(base.relations, IntegerMatrix(kill, cols=count))
    return K0Presentation(base.generators, base.modules, relations, base.classes)


# ---------------------------------------------------------------------------
# the localization sequence at the level of K0
# ---------------------------------------------------------------------------


def _transfer_matrix(source, target):
    """Rows = images of source generators in the target's generator basis."""
    rows = []
    for m in source.modules:
        rows.append(target.class_vector(m))
    return IntegerMatrix(rows, cols=len(target.generators))


def localization_k0_report(algebra, a_spec, dim_bound, enum_budget=DEFAULT_BUDGET):
    """Right-exactness check of K0(A) -> K0(B) -> K0(B, w_A) -> 0.

    A is the full subcategory on ``a_spec`` (the acyclics), B the whole
    module category, and the third group carries the acyclic-kill
    presentation.  Hypotheses validated first: the acyclics must contain
    every injective up to the bound and pass the 2-out-of-3 check of
    ``WaldhausenData``; when the acyclics swallow every module up to the
    bound the degenerate collapse is surfaced as a failure.  On hypothesis
    failure the groups and verdicts are withheld.
    """
    failures = []
    mods = enumerate_modules(algebra, dim_bound, budget=enum_budget)

    missing = [
        m for m in mods if is_injective(m) and not a_spec.contains(m)
    ]
    if missing:
        failures.append(
            "acyclic subcategory misses an injective module of dimension %d"
            % missing[0].dim
        )

    two_of_three = None
    w = None
    if not failures:
        try:
            w = WaldhausenData(all_injectives_pair(algebra), a_spec, budget=enum_budget)
        except HypothesisError as err:
            failures.append(str(err))
        if w is not None:
            two_of_three = bool(w.flags.get("z_two_of_three"))
            if not two_of_three:
                failures.append(
                    "acyclic subcategory failed the sampled 2-out-of-3 check"
                )

    degenerate = all(a_spec.contains(m) for m in mods)
    if degenerate:
        failures.append(
            "every module up to the bound is acyclic; "
            "the acyclic subcategory coincides with the whole category "
            "and the localization collapses"
        )

    report = {
        "dim_bound": int(dim_bound),
        "acyclics": a_spec.name,
        "hypotheses": {
            "injectives_contained": not missing,
            "two_of_three": two_of_three,
            "degenerate_overlap": degenerate,
            "failures": failures,
        },
        "ok": not failures,
        "groups": None,
        "maps": None,
        "verdicts": None,
    }
    if failures:
        return report

    ka = k0_exact_category(algebra, a_spec, dim_bound, enum_budget)
    kb = k0_exact_category(algebra, spec_all(), dim_bound, enum_budget)
    # w's C is every module, so kb is the base presentation of K0(B, w_A)
    kbw = _kill_acyclics(w, kb)

    # kbw keeps kb's generator list, so K0(B) -> K0(B, w_A) is the identity
    first = _transfer_matrix(ka, kb)
    n = len(kb.generators)
    second = IntegerMatrix([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    # composite K0(A) -> K0(B, w_A) must be zero: the image of every
    # A-generator must lie in the acyclic-kill relation lattice
    composite_zero = all(kbw.is_relation(r) for r in first.data)

    # the second map is the identity on the generator lattice, so it is
    # onto by construction
    surjective = True

    # image of the first map = kernel of the second, as sublattices of
    # the generator lattice of K0(B): the second map is the identity, so
    # its kernel is the lattice of kbw's relations (kb's plus the kills)
    image = RowLattice(stack(kb.relations, first))
    im_eq_ker = kbw.lattice.spans(image) and image.spans(kbw.lattice)

    report["groups"] = {
        "KA": ka.as_dict(),
        "KB": kb.as_dict(),
        "KBwA": kbw.as_dict(),
    }
    report["maps"] = {
        "KA_to_KB": first.tolist(),
        "KB_to_KBwA": second.tolist(),
    }
    report["verdicts"] = {
        "composite_zero": bool(composite_zero),
        "surjective": bool(surjective),
        "im_eq_ker": bool(im_eq_ker),
    }
    coker_factors = image.invariant_factors
    report["cokernel"] = {
        "invariant_factors": [d for d in coker_factors if d != 1],
        "description": describe_group(coker_factors),
    }
    report["ok"] = bool(composite_zero and surjective and im_eq_ker)
    report["presentations"] = {"KA": ka, "KB": kb, "KBwA": kbw}
    return report
