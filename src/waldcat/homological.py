"""Projectivity and injectivity, the short-exact-sequence sweep, and
cotorsion-pair resolutions.

Ext1 comes from ``algebra.ext1``, the one engine, which computes it as
cocycles modulo coboundaries and realizes each class on a (+) c with a
block action; module enumeration, the sweep below and the projectivity
and injectivity tests share its memo.  Projectivity and injectivity are
decided by Ext1 against the simple modules: over a finite-dimensional
algebra a module m is projective iff Ext1(m, S) = 0 for every simple S,
and injective iff Ext1(S, m) = 0 for every simple S.

Every short exact sequence 0 -> a -> b -> c -> 0 is equivalent to exactly
one class of Ext1(c, a) (Auslander, Reiten and Smalø, Representation
Theory of Artin Algebras, ch. I), so ``short_exact_sequences`` realizes
every sequence between enumerated end terms, once per class.  The K0
harvest and every closure-hypothesis check (hereditary pairs, extension
and cokernel closure, 2-out-of-3) walk that one sweep.  The brute-force
``ext1_class_count_oracle`` counts the same classes without the engine.

The module also hosts the two module-level cotorsion pairs used
throughout: (all, injectives) and (projectives, all), each with its
completeness resolutions, plus cosyzygy iteration with injective-summand
stripping for finite-injective-dimension detection.
"""

import numpy as np

from .algebra import (
    DEFAULT_BUDGET,
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
    indecomposable_summands,
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
from .linalg import (
    FieldMatrix,
    column_space_basis,
    in_column_space,
    kernel_basis,
    rank_stack,
)

# ---------------------------------------------------------------------------
# covers and embeddings
# ---------------------------------------------------------------------------


def _generating_columns(m):
    """Indices of basis vectors that generate m, greedily minimized.

    The submodule generated by a vector v is the column span of all
    action matrices applied to v, so one pass of span updates suffices.
    """
    d = m.algebra.dim
    chosen = []
    span = FieldMatrix.zeros(m.p, m.dim, 0)
    for i in range(m.dim):
        arr = np.zeros((m.dim, 1), dtype=np.int64)
        arr[i, 0] = 1
        e = FieldMatrix(m.p, arr)
        if span.cols and in_column_space(span, e):
            continue
        chosen.append(i)
        new_cols = np.concatenate(
            [span.a] + [m.action[j].a[:, i : i + 1] for j in range(d)], axis=1
        )
        span = column_space_basis(FieldMatrix(m.p, new_cols))
    return chosen


def free_cover(m):
    """Surjection onto m from a free module, one generator per chosen
    basis vector of a greedily minimized generating set."""
    algebra = m.algebra
    if m.dim == 0:
        z = zero_module(algebra)
        return zero_morphism(z, m)
    chosen = _generating_columns(m)
    k = len(chosen)
    reg = regular_module(algebra)
    free, _, _ = direct_sum([reg] * k)
    d = algebra.dim
    cols = np.zeros((m.dim, k * d), dtype=np.int64)
    for copy, gen in enumerate(chosen):
        for j in range(d):
            # algebra basis element e_j in copy `copy` lands on e_j . v_gen
            cols[:, copy * d + j] = m.action[j].a[:, gen]
    cover = Morphism(free, m, cols)
    if not cover.is_epi():
        raise InternalInconsistencyError("free cover failed to be surjective")
    return cover


def injective_embedding(m):
    """Injection of m into a power of the dual regular module.

    Stacks a basis of Hom(m, D(A)); those maps jointly separate points, so
    the stacked map is injective.  The power equals dim m.
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
    # keep only maps that strictly shrink the joint kernel
    kept = []
    stacked = np.zeros((0, m.dim), dtype=np.int64)
    ker_dim = m.dim
    for f in maps:
        cand = np.concatenate([stacked, f.matrix.a], axis=0)
        cand_ker = kernel_basis(FieldMatrix(m.p, cand)).cols
        if cand_ker < ker_dim:
            kept.append(f)
            stacked = cand
            ker_dim = cand_ker
        if ker_dim == 0:
            break
    total = block([[f] for f in kept])
    if not total.is_mono():
        raise InternalInconsistencyError("stacked functionals failed to embed")
    return total


# ---------------------------------------------------------------------------
# projectivity and injectivity
# ---------------------------------------------------------------------------


@memoized
def is_projective(m):
    """Ext1(m, S) = 0 for every simple module S."""
    return all(ext1(m, s).dimension == 0 for s in simple_modules(m.algebra))


@memoized
def is_injective(m):
    """Ext1(S, m) = 0 for every simple module S."""
    return all(ext1(s, m).dimension == 0 for s in simple_modules(m.algebra))


# ---------------------------------------------------------------------------
# every short exact sequence, once per Ext class
# ---------------------------------------------------------------------------


DEFAULT_CLASS_BUDGET = 4096


def short_exact_sequences(modules, bound):
    """Every short exact sequence with both end terms in ``modules``, once
    per Ext class.

    For each ordered pair (quot, sub) from ``modules`` with
    quot.dim + sub.dim <= bound, every class of Ext1(quot, sub) is
    realized; yields (i_quot, i_sub, ses) in (quot, sub, class) order,
    where i_quot and i_sub index ``modules``.  When ``modules`` holds every
    isomorphism class up to ``bound``, the sweep meets every short exact
    sequence with middle of dimension at most ``bound`` up to isomorphism
    of its three terms.  Raises BudgetExceededError when one Ext group has
    more than DEFAULT_CLASS_BUDGET classes.
    """
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
            for cls in ext.all_classes():
                yield i_quot, i_sub, cls.realize()


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

    Each division must be exact.  Pairs and automorphisms are counted by
    batched rank scans over the spans of the Hom bases; no free presentation
    is used, so the count must equal p**ext1(c, a).dimension independently.
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
    """|Aut(m)|: the number of full-rank elements of End(m)."""
    return sum(
        int((rank_stack(stack, m.p) == m.dim).sum()) for stack in _hom_stacks(m, m)
    )


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
# cotorsion pairs
# ---------------------------------------------------------------------------


class CotorsionPair:
    """A (left class, right class) pair with completeness resolutions.

    ``kind`` is one of "all_injectives" (left = everything, right =
    injectives) and "projectives_all" (left = projectives, right =
    everything).  The chain-complex analogue lives with the chain module.
    """

    def __init__(self, algebra, kind):
        if kind not in ("all_injectives", "projectives_all"):
            raise ValidationError("unknown cotorsion pair kind %r" % kind)
        self.algebra = algebra
        self.kind = kind

    def in_left(self, m):
        self._check_parent(m)
        if self.kind == "all_injectives":
            return True
        return is_projective(m)

    def in_right(self, m):
        self._check_parent(m)
        if self.kind == "all_injectives":
            return is_injective(m)
        return True

    def resolve_right(self, m):
        """Sequence 0 -> m -> I -> P -> 0 with I right-class and P left-class."""
        self._check_parent(m)
        if self.kind == "all_injectives":
            if is_injective(m):
                z = zero_module(self.algebra)
                return ShortExactSequence(identity_morphism(m), zero_morphism(m, z))
            emb = injective_embedding(m)
            _, q = cokernel(emb)
            return ShortExactSequence(emb, q)
        # (projectives, all): the right class is everything, so m itself works
        z = zero_module(self.algebra)
        return ShortExactSequence(identity_morphism(m), zero_morphism(m, z))

    def resolve_left(self, m):
        """Sequence 0 -> I' -> P' -> m -> 0 with P' left-class and I' right-class."""
        self._check_parent(m)
        if self.kind == "projectives_all":
            cover = free_cover(m)
            _, incl = kernel(cover)
            return ShortExactSequence(incl, cover)
        # (all, injectives): the left class is everything
        z = zero_module(self.algebra)
        return ShortExactSequence(zero_morphism(z, m), identity_morphism(m))

    def factor(self, f):
        """f = p o i through resolve_right(f.dom) (+) f.cod; returns (i, p).

        With 0 -> dom -(j)-> I -> P -> 0, the injection is x |-> (j x, f x)
        and p keeps the second coordinate, so p o i is exactly f.
        """
        j = self.resolve_right(f.dom).mono
        _, _, (_, proj_b) = direct_sum([j.cod, f.cod])
        return block([[j], [f]]), proj_b

    def _check_parent(self, m):
        if m.algebra.digest != self.algebra.digest:
            raise ValidationError("module belongs to a different algebra")


def all_injectives_pair(algebra):
    return CotorsionPair(algebra, "all_injectives")


def projectives_all_pair(algebra):
    return CotorsionPair(algebra, "projectives_all")


def pair_validate(pair, samples):
    """Check orthogonality and the hereditary closure properties on a sample.

    Reports Ext^1(left, right) != 0 violations, kernels of surjections
    between left-class objects leaving the left class, and cokernels of
    injections between right-class objects leaving the right class.  The
    closure checks walk ``short_exact_sequences(samples, d)`` for the
    largest sample dimension d, so ``samples`` must be a full enumeration
    (every isomorphism class up to d) for them to be exhaustive.
    ``checked`` counts the sequences whose two right-hand terms are
    left-class ("epis") and those whose two left-hand terms are
    right-class ("monos").
    """
    left = [m for m in samples if pair.in_left(m)]
    right = [m for m in samples if pair.in_right(m)]
    orth_failures = []
    for c_obj in left:
        for r_obj in right:
            if ext1(c_obj, r_obj).dimension != 0:
                orth_failures.append((c_obj.digest, r_obj.digest))
    left_kernel_failures = []
    right_cokernel_failures = []
    checked_epis = checked_monos = 0
    bound = max((m.dim for m in samples), default=0)
    for _, _, ses in short_exact_sequences(samples, bound):
        if pair.in_left(ses.mid) and pair.in_left(ses.quot):
            checked_epis += 1
            if not pair.in_left(ses.sub):
                left_kernel_failures.append((ses.mid.digest, ses.quot.digest))
        if pair.in_right(ses.sub) and pair.in_right(ses.mid):
            checked_monos += 1
            if not pair.in_right(ses.quot):
                right_cokernel_failures.append((ses.sub.digest, ses.mid.digest))
    return {
        "ok": not (orth_failures or left_kernel_failures or right_cokernel_failures),
        "orthogonality_failures": orth_failures,
        "left_kernel_failures": left_kernel_failures,
        "right_cokernel_failures": right_cokernel_failures,
        "checked": {
            "cross_pairs": len(left) * len(right),
            "epis": checked_epis,
            "monos": checked_monos,
        },
    }


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


def iterated_cosyzygies(m, steps):
    """Reduced cosyzygy sequence: strip injective summands after each step.

    Returns the list of successive reduced cosyzygies, stopping early once
    the zero module appears.
    """
    out = []
    current = strip_injective_summands(m)
    for _ in range(steps):
        if current.dim == 0:
            break
        current = strip_injective_summands(cosyzygy(current))
        out.append(current)
        if current.dim == 0:
            break
    return out


def injective_dimension_within(m, cutoff):
    """Injective dimension if it is at most cutoff, else None ("not within bound")."""
    if cutoff < 0:
        raise ValidationError("cutoff must be nonnegative")
    current = strip_injective_summands(m)
    for n in range(cutoff + 1):
        if current.dim == 0:
            return n
        current = strip_injective_summands(cosyzygy(current))
    return None
