"""Projectivity and injectivity, the short-exact-sequence sweep, and
cotorsion-pair resolutions.

Ext1 comes from ``algebra.ext1``, the one engine, which computes it as
cocycles modulo coboundaries and realizes each class on a (+) c with a
block action; module enumeration and the sweep below share its memo.
Projectivity and injectivity are decided by counting against the
``simple_table`` of each simple S with its indecomposable projective P(S)
and injective I(S): m is projective iff dim m is the dimension of the
projective cover of its top, and injective iff dim m is the dimension of
the injective envelope of its socle, both read off Hom between m and the
simples.

Every short exact sequence 0 -> a -> b -> c -> 0 is equivalent to exactly
one class of Ext1(c, a) (Auslander, Reiten and Smalø, Representation
Theory of Artin Algebras, ch. I), so ``short_exact_sequences`` yields
the middle of every sequence between enumerated end terms, once per
orbit of classes under automorphisms of the end terms, read off
``Ext1Result.middles``.  The K0 harvest and every closure-hypothesis
check (hereditary pairs, extension and cokernel closure, 2-out-of-3)
walk that one sweep; they read only the isomorphism class of each
middle, which is constant on an orbit.  The brute-force
``ext1_class_count_oracle`` counts the classes without the engine.

Classes of modules are ``SubcategorySpec``s: a name and a membership
test, built by the ``spec_*`` functions.  A ``CotorsionPair`` holds its
two classes as specs and reads membership off them; the two module-level
pairs used throughout, (all, injectives) and (projectives, all), differ
only in their specs and in the left cover the builder supplies (none,
and the free cover).  The module also hosts cosyzygies with
injective-summand stripping and the injective-dimension walk over them.
"""

from typing import NamedTuple

import numpy as np

from .algebra import (
    DEFAULT_BUDGET,
    Module,
    Morphism,
    ShortExactSequence,
    block,
    cokernel,
    direct_sum,
    dual_regular_module,
    enumerate_modules,
    ext1,
    hom_basis,
    identity_morphism,
    indecomposable_isomorphism,
    indecomposable_summands,
    is_isomorphic,
    kernel,
    memoized,
    regular_module,
    scan_slices,
    simple_modules,
    span_stacks,
    zero_module,
    zero_morphism,
)
from .errors import BudgetExceededError, InternalInconsistencyError, ValidationError
from .linalg import pivot_blocks, rank_stack

# ---------------------------------------------------------------------------
# covers and embeddings
# ---------------------------------------------------------------------------


def free_cover(m):
    """Surjection onto m from a free module, one copy of A per generator.

    The block [ρ(e_0) v_i … ρ(e_{d-1}) v_i] spans the submodule that basis
    vector v_i generates, and v_i is kept when ``pivot_blocks`` finds a
    pivot in its block: the greedy left-to-right generating set.  Basis
    element e_j of the copy for v_i goes to ρ(e_j) v_i.
    """
    algebra = m.algebra
    if m.dim == 0:
        z = zero_module(algebra)
        return zero_morphism(z, m)
    # blocks[:, i, j] = ρ(e_j) v_i
    blocks = m.rho.transpose(1, 2, 0)
    chosen = pivot_blocks([blocks[:, i] for i in range(m.dim)], m.p)
    free, _, _ = direct_sum([regular_module(algebra)] * len(chosen))
    cover = Morphism(free, m, blocks[:, chosen].reshape(m.dim, -1))
    if not cover.is_epi():
        raise InternalInconsistencyError("free cover failed to be surjective")
    return cover


@memoized
def injective_embedding(m):
    """Injection of m into a power of the dual regular module.

    A basis of Hom(m, D(A)) jointly separates points.  A map f of it is
    kept when the rows of f's matrix hold a pivot after those of the maps
    before it (``pivot_blocks`` on the transposed matrices), which is
    exactly when f shrinks their joint kernel; the kept maps, stacked,
    are injective.
    """
    algebra = m.algebra
    da = dual_regular_module(algebra)
    if m.dim == 0:
        z = zero_module(algebra)
        return zero_morphism(m, z)
    maps = hom_basis(m, da)
    if len(maps) != m.dim:
        raise InternalInconsistencyError(
            "hom space into the dual regular module has unexpected dimension"
        )
    kept = pivot_blocks([f.matrix.a.T for f in maps], m.p)
    total = block([[maps[i]] for i in kept])
    if not total.is_mono():
        raise InternalInconsistencyError("stacked functionals failed to embed")
    return total


# ---------------------------------------------------------------------------
# projectivity and injectivity
# ---------------------------------------------------------------------------


class SimpleRow(NamedTuple):
    """One simple S with dim End S and its indecomposable projective P(S)
    (top S) and indecomposable injective I(S) (socle S)."""

    simple: Module
    end_dim: int
    projective: Module
    injective: Module


def _multiplicity(hom_dim, end_dim):
    """Copies of S in a top or socle, from dim Hom(m, S) or dim Hom(S, m):
    Hom with a semisimple S^n is End(S)^n, so the division is exact."""
    n, rest = divmod(hom_dim, end_dim)
    if rest:
        raise InternalInconsistencyError(
            "Hom dimension %d is not a multiple of dim End S = %d" % (hom_dim, end_dim)
        )
    return n


@memoized
def simple_table(algebra):
    """One ``SimpleRow`` per simple module, in ``simple_modules`` order.

    P(S) is the first summand of ``indecomposable_summands(A)`` whose top
    is S, and I(S) the first summand of ``indecomposable_summands(D(A))``
    whose socle is S.  The table certifies itself: every summand of A must
    have a simple top and every summand of D(A) a simple socle (one copy of
    one S), and every simple must get both modules; otherwise it raises
    InternalInconsistencyError.  A module with a simple top or socle is
    indecomposable, so this also catches a summand left unsplit.
    """
    simples = simple_modules(algebra)
    end_dims = [len(hom_basis(s, s)) for s in simples]

    def by_simple(module, name, layer, hom_dim):
        found = [None] * len(simples)
        for piece, _, _ in indecomposable_summands(module):
            counts = [_multiplicity(hom_dim(piece, s), e)
                      for s, e in zip(simples, end_dims)]
            if sum(counts) != 1:
                raise InternalInconsistencyError(
                    "summand of dimension %d has a %s of %d simples"
                    % (piece.dim, layer, sum(counts))
                )
            i = counts.index(1)
            if found[i] is None:
                found[i] = piece
        if None in found:
            raise InternalInconsistencyError(
                "some simple is the %s of no summand of %s" % (layer, name)
            )
        return found

    projectives = by_simple(regular_module(algebra), "A", "top",
                            lambda m, s: len(hom_basis(m, s)))
    injectives = by_simple(dual_regular_module(algebra), "D(A)", "socle",
                           lambda m, s: len(hom_basis(s, m)))
    return tuple(map(SimpleRow, simples, end_dims, projectives, injectives))


@memoized
def is_projective(m):
    """dim m = dim P(top m) = Σ_S n_S · dim P(S), where n_S =
    dim Hom(m, S) / dim End S copies of S make up the top of m.

    The projective cover P(top m) -> m is onto, so m is projective iff it
    is an isomorphism iff the dimensions agree (Auslander, Reiten and
    Smalø, ch. I); equivalently Ext1(m, S) = 0 for every simple S.
    """
    cover = sum(_multiplicity(len(hom_basis(m, row.simple)), row.end_dim)
                * row.projective.dim for row in simple_table(m.algebra))
    return m.dim == cover


@memoized
def is_injective(m):
    """dim m = dim I(soc m) = Σ_S n_S · dim I(S), where n_S =
    dim Hom(S, m) / dim End S copies of S make up the socle of m.

    m embeds in the injective envelope I(soc m), so m is injective iff
    that embedding is an isomorphism iff the dimensions agree (Auslander,
    Reiten and Smalø, ch. I); equivalently Ext1(S, m) = 0 for every
    simple S.
    """
    envelope = sum(_multiplicity(len(hom_basis(row.simple, m)), row.end_dim)
                   * row.injective.dim for row in simple_table(m.algebra))
    return m.dim == envelope


# ---------------------------------------------------------------------------
# every short exact sequence, once per orbit of Ext classes
# ---------------------------------------------------------------------------


DEFAULT_CLASS_BUDGET = 4096


def short_exact_sequences(modules, bound):
    """The middle of every short exact sequence with both end terms in
    ``modules``, once per orbit of Ext classes.

    For each ordered pair (quot, sub) from ``modules`` with
    quot.dim + sub.dim <= bound, yields (i_quot, i_sub, mid) for the
    middle of the first class of each orbit of Ext1(quot, sub) under the
    automorphisms of ``Ext1Result.representatives``, in (quot, sub, class)
    order, where i_quot and i_sub index ``modules``; the sequence is
    0 -> sub -> mid -> quot -> 0 with mono [I; 0] and epi [0 I].  Classes
    of one orbit have isomorphic middles, so a walker that reads only the
    middle's isomorphism class sees each (sub, mid, quot) triple first
    where a walk over every class would.  The mono [I; 0] and epi [0 I]
    depend only on the two dimensions, and so does everything
    ``ShortExactSequence.validate`` reads, so exactness is checked once
    per (quot.dim, sub.dim) pair in a sweep, on the split class of the
    first pair with those dimensions.  When ``modules`` holds every
    isomorphism class up to ``bound``, the sweep meets every short exact
    sequence with middle of dimension at most ``bound`` up to isomorphism
    of its three terms.  Raises BudgetExceededError when one Ext group
    has more than DEFAULT_CLASS_BUDGET classes.
    """
    checked = set()
    for i_quot, quot in enumerate(modules):
        for i_sub, sub in enumerate(modules):
            if quot.dim + sub.dim > bound:
                continue
            ext = ext1(quot, sub)
            if quot.p ** ext.dimension > DEFAULT_CLASS_BUDGET:
                raise BudgetExceededError(
                    "Ext class enumeration (%d^%d) exceeds the budget"
                    % (quot.p, ext.dimension)
                )
            if (quot.dim, sub.dim) not in checked:
                ext.realize((0,) * ext.dimension)  # raises unless exact
                checked.add((quot.dim, sub.dim))
            for mid in ext.middles:
                yield i_quot, i_sub, mid


# ---------------------------------------------------------------------------
# brute-force oracle: count extension classes by enumeration
# ---------------------------------------------------------------------------


def ext1_class_count_oracle(c, a, budget=DEFAULT_BUDGET):
    """Count equivalence classes of extensions 0 -> a -> E -> c -> 0 directly.

    Two exact pairs (i, p) through one middle E are equivalent exactly
    when some h in Aut(E) sends (i, p) to (h i, p h^-1), so the classes
    through E are the Aut(E)-orbits of exact pairs.  Every pair has the
    same stabilizer {1 + i phi p : phi in Hom(c, a)}: h fixes (i, p) iff
    h - 1 kills im i and lands in ker p = im i, i.e. h - 1 = i phi p for a
    unique phi, and each such h is invertible since (i phi p)**2 = 0.
    Middles from ``enumerate_modules`` are pairwise non-isomorphic, so
    pairs through different middles are never equivalent, and

        count = sum over E of #pairs(E) * p**dim Hom(c, a) / |Aut(E)|.

    Each division must be exact; a middle with no exact pair adds nothing,
    and its automorphisms are not counted.  Pairs are counted by batched
    rank scans over the spans of the Hom bases, and |Aut(E)| by
    Krull–Schmidt from the endomorphism rings of E's indecomposable
    summands (``_automorphism_count``); neither uses ``ext1`` or a free
    presentation, so the count must equal p**ext1(c, a).dimension
    independently.
    """
    algebra = c.algebra
    p = algebra.p
    mid_dim = c.dim + a.dim
    stabilizer = p ** len(hom_basis(c, a))
    count = 0
    for e in enumerate_modules(algebra, mid_dim, budget=budget):
        if e.dim != mid_dim:
            continue
        pairs = _exact_pair_count(a, e, c)
        if not pairs:
            continue  # no orbits, and |Aut(E)| needs E decomposed
        orbits, rest = divmod(pairs * stabilizer, _automorphism_count(e))
        if rest:
            raise InternalInconsistencyError(
                "exact pairs do not split into whole Aut(E)-orbits"
            )
        count += orbits
    return count


def _hom_stacks(dom, cod):
    """Every module map dom -> cod, as chunked (N, cod.dim, dom.dim) stacks."""
    mats = [f.matrix for f in hom_basis(dom, cod)]
    if not mats:
        return iter([np.zeros((1, cod.dim, dom.dim), dtype=np.int64)])
    return span_stacks(mats, dom.p)


@memoized
def _automorphism_count(m):
    """|Aut(m)| by Krull–Schmidt (Auslander, Reiten and Smalø, ch. I–II).

    m = ⊕ M_i^(n_i) with M_i indecomposable and pairwise non-isomorphic,
    End(M_i)/rad = F_(q_i) with q_i = p^(r_i), and End(m)/rad is
    ∏ M_(n_i)(F_(q_i)), of dimension Σ n_i² r_i over F_p.  An endomorphism
    is invertible iff its image there is, so

        |Aut m| = p^(dim End m − Σ n_i² r_i) · ∏ |GL_(n_i)(F_(q_i))|.

    The summands come from ``indecomposable_summands`` and are grouped by
    ``indecomposable_isomorphism``; only the endomorphism ring of one
    summand per class is scanned, by ``_residue_degree``, which also
    proves it local (and so the summand indecomposable) or raises.
    """
    p = m.p
    classes = []  # [representative, r, n]
    for piece, _, _ in indecomposable_summands(m):
        for entry in classes:
            if indecomposable_isomorphism(entry[0], piece) is not None:
                entry[2] += 1
                break
        else:
            classes.append([piece, _residue_degree(piece), 1])
    count = p ** (len(hom_basis(m, m)) - sum(n * n * r for _, r, n in classes))
    for _, r, n in classes:
        q = p**r
        for k in range(n):
            count *= q**n - q**k
    return count


def _residue_degree(m):
    """The degree r of the residue field End(m)/rad = F_(p^r) of an
    indecomposable module m, from one rank scan of End(m).

    In a finite ring R with radical J the non-units number
    |J| · (|R/J| − |(R/J)^×|).  The second factor is 1 when R/J is a field.
    Otherwise R/J is a product of at least two matrix rings over fields,
    or one of size at least 2, and the factor is a power of p times a
    number above 1 and prime to p, so not a power of p.  Hence the
    non-units number p^(d−r), d = dim End(m), exactly when End(m) is
    local; any other count means m is decomposable, and raises
    InternalInconsistencyError.
    """
    p, d = m.p, len(hom_basis(m, m))
    units = sum(
        int((rank_stack(stack, p) == m.dim).sum()) for stack in _hom_stacks(m, m)
    )
    r = next((r for r in range(1, d + 1) if p ** (d - r) == p**d - units), None)
    if r is None:
        raise InternalInconsistencyError(
            "summand of dimension %d has a non-local endomorphism ring" % m.dim
        )
    return r


def _exact_pair_count(a, e, c):
    """Number of pairs (i: a -> e mono, p: e -> c epi) with p i = 0.

    When dim e = dim a + dim c these are exactly the short exact sequences.
    """
    p = e.p
    monos = np.concatenate(
        [s[rank_stack(s, p) == a.dim] for s in _hom_stacks(a, e)]
    )
    epis = np.concatenate(
        [s[rank_stack(s, p) == c.dim] for s in _hom_stacks(e, c)]
    )
    # all products p_j i_k of a slice of epis at once: (s, c, e) @ (e, monos * a)
    right = monos.transpose(1, 0, 2).reshape(e.dim, len(monos) * a.dim)
    total = 0
    for rows in scan_slices(len(epis), len(monos) * c.dim * a.dim):
        prod = (epis[rows] @ right) % p
        prod = prod.reshape(len(prod), c.dim, len(monos), a.dim)
        total += int((~prod.any(axis=(1, 3))).sum())
    return total


# ---------------------------------------------------------------------------
# classes of modules and cotorsion pairs
# ---------------------------------------------------------------------------


class SubcategorySpec:
    """A full subcategory of modules, closed under isomorphism: a name for
    reports and the membership test ``contains``.

    Membership is memoized per instance, since an explicit spec's answer
    depends on its members.
    """

    def __init__(self, name, decide):
        self.name = name
        self.contains = memoized(decide)


def spec_all():
    return SubcategorySpec("all", lambda m: True)


def spec_projectives():
    return SubcategorySpec("projectives", is_projective)


def spec_injectives():
    return SubcategorySpec("injectives", is_injective)


def spec_finite_inj_dim(bound):
    """Modules whose injective dimension is at most ``bound``."""
    if bound < 0:
        raise ValidationError("finite_inj_dim needs a nonnegative bound")
    return SubcategorySpec(
        "finite_inj_dim<=%d" % bound,
        lambda m: injective_dimension_within(m, bound) is not None,
    )


def spec_explicit(members):
    """Modules isomorphic to one of the listed representatives."""
    members = list(members)
    return SubcategorySpec(
        "explicit[%d reps]" % len(members),
        lambda m: any(is_isomorphic(m, rep) is not None for rep in members),
    )


class CotorsionPair:
    """A complete cotorsion pair (left, right) of classes of modules over
    ``algebra``, with its completeness resolutions.

    ``left_cover(m)``, when given, is a surjection onto m from a
    left-class module whose kernel is right-class; without it every
    module is left-class and m covers itself.  The right resolution
    embeds m into an injective, which every right class contains.  The
    chain-complex analogue lives with the chain module.
    """

    def __init__(self, algebra, left, right, left_cover=None):
        self.algebra = algebra
        self.left = left
        self.right = right
        self.left_cover = left_cover

    def in_left(self, m):
        self._check_parent(m)
        return self.left.contains(m)

    def in_right(self, m):
        self._check_parent(m)
        return self.right.contains(m)

    def resolve_right(self, m):
        """Sequence 0 -> m -> I -> P -> 0 with I right-class and P left-class:
        m itself when it is right-class, else an injective embedding."""
        if self.in_right(m):
            z = zero_module(self.algebra)
            return ShortExactSequence(identity_morphism(m), zero_morphism(m, z))
        emb = injective_embedding(m)
        _, q = cokernel(emb)
        return ShortExactSequence(emb, q)

    def resolve_left(self, m):
        """Sequence 0 -> I' -> P' -> m -> 0 with P' left-class and I' right-class."""
        self._check_parent(m)
        if self.left_cover is None:
            z = zero_module(self.algebra)
            return ShortExactSequence(zero_morphism(z, m), identity_morphism(m))
        cover = self.left_cover(m)
        _, incl = kernel(cover)
        return ShortExactSequence(incl, cover)

    def factor(self, f):
        """f = p o i through resolve_right(f.dom) (+) f.cod; returns (i, p).

        With 0 -> dom -(j)-> I -> P -> 0, the injection is x |-> (j x, f x)
        and p = [0 | I] keeps the second coordinate, so p o i is exactly f.
        """
        j = self.resolve_right(f.dom).mono
        i = block([[j], [f]])
        keep = np.eye(f.cod.dim, i.cod.dim, j.cod.dim, dtype=np.int64)
        return i, Morphism(i.cod, f.cod, keep, check=False)

    def _check_parent(self, m):
        if m.algebra.digest != self.algebra.digest:
            raise ValidationError("module belongs to a different algebra")


def all_injectives_pair(algebra):
    return CotorsionPair(algebra, spec_all(), spec_injectives())


def projectives_all_pair(algebra):
    return CotorsionPair(algebra, spec_projectives(), spec_all(), free_cover)


# ---------------------------------------------------------------------------
# cosyzygies and injective dimension witnesses
# ---------------------------------------------------------------------------


def cosyzygy(m):
    """Cokernel of an injective embedding of m."""
    emb = injective_embedding(m)
    cok, _ = cokernel(emb)
    return cok


def strip_injective_summands(m):
    """Drop every injective indecomposable summand."""
    if m.dim == 0:
        return m
    pieces = indecomposable_summands(m)
    keep = [piece for piece, _, _ in pieces if not is_injective(piece)]
    if not keep:
        return zero_module(m.algebra)
    if len(keep) == len(pieces):
        return m
    total, _, _ = direct_sum(keep)
    return total


def injective_dimension_within(m, cutoff):
    """Injective dimension if it is at most cutoff, else None ("not within bound").

    Reduced cosyzygies are well defined up to isomorphism (Krull–Schmidt),
    so once one is isomorphic to an earlier term the sequence is periodic
    and never reaches 0: the injective dimension is infinite, and the walk
    stops there whatever the cutoff.
    """
    if cutoff < 0:
        raise ValidationError("cutoff must be nonnegative")
    current = strip_injective_summands(m)
    seen = []
    for n in range(cutoff + 1):
        if current.dim == 0:
            return n
        # is_isomorphic compares dimensions and digests before any Hom space
        if any(is_isomorphic(current, earlier) is not None for earlier in seen):
            return None
        seen.append(current)
        current = strip_injective_summands(cosyzygy(current))
    return None
