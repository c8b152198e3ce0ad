"""Waldhausen structures from complete hereditary cotorsion pairs.

Given a cotorsion pair (C, C-perp) of module classes over an algebra and
an acyclicity class Z containing C-perp, the structure is built from the
pair and Z alone, C being the pair's left class.  Its cofibrations are the
injections with cokernel in C, its acyclic fibrations the surjections with
kernel in C-perp, its acyclic cofibrations the injections with cokernel in
the intersection of Z and C, and its weak equivalences the composites of
an acyclic cofibration followed by an acyclic fibration.

Everything here is decision procedures and executable checkers: map
classification, the canonical cofibration/acyclic-fibration
factorization, lifting, a three-valued weak-equivalence decision, axiom
checkers (gluing, extension, saturation, properness), and the
resolution-ladder construction that converts a finite resolution by a
subcategory P into one by Z-intersect-P.
"""

import hashlib

from .algebra import (
    DEFAULT_BUDGET,
    ShortExactSequence,
    cokernel,
    enumerate_modules,
    from_pushout,
    hom_basis,
    kernel,
    maps,
    memoized,
    pullback,
    pushout,
    solve_map,
    zero_module,
    zero_morphism,
)
from .errors import (
    BudgetExceededError,
    HypothesisError,
    InternalInconsistencyError,
    ValidationError,
)
from .homological import short_exact_sequences


# ---------------------------------------------------------------------------
# the Waldhausen data bundle
# ---------------------------------------------------------------------------


SAMPLE_BOUND = 2


class WaldhausenData:
    """The structure of a cotorsion pair (C, C-perp) and acyclics Z.

    C is the pair's left class and the algebra is the pair's.  On
    construction the hypotheses are verified on every module up to
    dimension ``SAMPLE_BOUND``, in this order: C and Z contain the zero
    module, C-perp lies inside Z, and both completeness resolutions exist
    (their ``ShortExactSequence`` constructors check exactness).  Then
    the closure hypotheses are checked exhaustively over one
    ``short_exact_sequences`` sweep of the samples: the pair is
    hereditary (kernels of surjections between left-class objects stay
    left-class) and the intersection of Z and C is closed under
    cokernels of injections in C, over every sequence with middle of
    dimension at most ``SAMPLE_BOUND``; it is closed under extensions
    over every sequence with middle of dimension at most
    ``SAMPLE_BOUND + 1`` whose end terms have dimension at most
    ``SAMPLE_BOUND``.  Violations raise HypothesisError.  The sweeps skip
    sequences with a zero end term once the zero module is known to lie
    in C ∩ Z, since the middle is then the other end term and the
    sequence decides nothing.

    The 2-out-of-3 flag for Z-intersect-C may be supplied (trusted) or
    left None, in which case ``_two_of_three_witness`` fills it in from
    the same sweep.

    ``budget`` caps every module enumeration made for this structure: the
    hypothesis samples here, the samplers of ``sampling`` and the P-perp
    sample of ``build_zp_resolution``; see ``modules``.

    For a fixed structure the weak-equivalence verdict and the
    classification of a map depend on the map alone, so each structure
    keeps one table of each, keyed by the map's digest (see
    ``is_weak_equivalence`` and ``classify_map``).
    """

    def __init__(
        self, pair, z_spec, z_two_of_three=None, validate=True, budget=DEFAULT_BUDGET
    ):
        self.pair = pair
        self.algebra = pair.algebra
        self.z_spec = z_spec
        self.budget = budget
        self.flags = {
            "hereditary_checked": None,
            "complete_checked": None,
            "right_in_z_checked": None,
            "z_two_of_three": z_two_of_three,
            "z_two_of_three_source": "supplied" if z_two_of_three is not None else None,
        }
        self.z23_witness = None
        self._verdict = memoized(lambda f: _weak_equivalence_verdict(self, f))
        self._classification = memoized(lambda f: _classify(self, f))
        if not validate and z_two_of_three is not None:
            return
        samples = self.modules(SAMPLE_BOUND)
        if validate:
            self._check_samples(samples)
        # zero end terms decide nothing once 0 lies in C ∩ Z, where
        # _check_samples puts it; without validation it is tested here
        if validate or self.in_zc(zero_module(self.algebra)):
            samples = [m for m in samples if m.dim]
        sequences = list(short_exact_sequences(samples, SAMPLE_BOUND))
        if validate:
            self._check_closure(samples, sequences)
        if z_two_of_three is None:
            self.z23_witness = self._two_of_three_witness(samples, sequences)
            self.flags["z_two_of_three"] = self.z23_witness is None
            self.flags["z_two_of_three_source"] = "exhaustive<=%d" % SAMPLE_BOUND

    def modules(self, max_dim):
        """Every module class up to ``max_dim``, enumerated within the budget."""
        return enumerate_modules(self.algebra, max_dim, budget=self.budget)

    def in_c(self, m):
        return self.pair.in_left(m)

    def in_z(self, m):
        return self.z_spec.contains(m)

    def in_zc(self, m):
        return self.in_z(m) and self.in_c(m)

    def _check_samples(self, samples):
        """The zero module, C-perp inside Z, and completeness."""
        z = zero_module(self.algebra)
        if not self.in_c(z) or not self.in_z(z):
            raise HypothesisError("both C and Z must contain the zero module")
        for m in samples:
            if self.pair.in_right(m) and not self.in_z(m):
                raise HypothesisError(
                    "right orthogonal class is not contained in Z (sampled)"
                )
        self.flags["right_in_z_checked"] = SAMPLE_BOUND
        for m in samples:
            self.pair.resolve_right(m)
            self.pair.resolve_left(m)
        self.flags["complete_checked"] = SAMPLE_BOUND

    def _check_closure(self, samples, sequences):
        """Hereditary pair, and Z-intersect-C closed under extensions and
        under cokernels of injections in C."""
        left = self.in_c
        for i_quot, i_sub, mid in sequences:
            if left(mid) and left(samples[i_quot]) and not left(samples[i_sub]):
                raise HypothesisError(
                    "left class not closed under kernels of surjections"
                )
        self.flags["hereditary_checked"] = SAMPLE_BOUND
        # extensions: every class of the small pairs of Z-intersect-C objects
        zc = [m for m in samples if self.in_zc(m)]
        for _, _, mid in short_exact_sequences(zc, SAMPLE_BOUND + 1):
            if not self.in_zc(mid):
                raise HypothesisError(
                    "Z-intersect-C not closed under extensions (sampled)"
                )
        for i_quot, i_sub, mid in sequences:
            quot = samples[i_quot]
            if (
                self.in_zc(samples[i_sub])
                and self.in_zc(mid)
                and self.in_c(quot)
                and not self.in_zc(quot)
            ):
                raise HypothesisError(
                    "Z-intersect-C not closed under cokernels of injections"
                )

    def _two_of_three_witness(self, samples, sequences):
        """The first sequence of the sweep with all three terms in C and
        exactly two in Z, or None when 2-out-of-3 holds for Z-intersect-C.

        The sweep meets every sequence in C with middle of dimension at
        most ``SAMPLE_BOUND`` up to isomorphism.  The witness is the
        violating (sub, mid, quot) dimension triple with Z-memberships and
        digests, the middle being the one the sweep built.
        """
        for i_quot, i_sub, mid in sequences:
            terms = (samples[i_sub], mid, samples[i_quot])
            if not all(self.in_c(m) for m in terms):
                continue
            # every term lies in C, so membership in Z is membership in Z-intersect-C
            flags = [self.in_z(m) for m in terms]
            if sum(flags) == 2:
                return {
                    "dims": tuple(m.dim for m in terms),
                    "in_zc": flags,
                    "digests": tuple(m.digest for m in terms),
                }
        return None


# ---------------------------------------------------------------------------
# map classification
# ---------------------------------------------------------------------------


class MapClassification:
    def __init__(self, is_admissible_mono, is_admissible_epi, is_cofibration,
                 is_acyclic_cofibration, is_acyclic_fibration):
        self.is_admissible_mono = is_admissible_mono
        self.is_admissible_epi = is_admissible_epi
        self.is_cofibration = is_cofibration
        self.is_acyclic_cofibration = is_acyclic_cofibration
        self.is_acyclic_fibration = is_acyclic_fibration
        if is_acyclic_cofibration and not is_cofibration:
            raise InternalInconsistencyError("acyclic cofibration must be a cofibration")
        if is_acyclic_fibration and not is_admissible_epi:
            raise InternalInconsistencyError("acyclic fibration must be surjective")

    def as_dict(self):
        return {
            "is_admissible_mono": self.is_admissible_mono,
            "is_admissible_epi": self.is_admissible_epi,
            "is_cofibration": self.is_cofibration,
            "is_acyclic_cofibration": self.is_acyclic_cofibration,
            "is_acyclic_fibration": self.is_acyclic_fibration,
        }


def _require_in_c(w, f):
    if not w.in_c(f.dom) or not w.in_c(f.cod):
        raise ValidationError("map endpoints must belong to the class C")


def classify_map(w, f):
    """All structural flags of a map between C-objects.

    Decided once per structure and map: ``w`` memoizes the classification
    by the map's digest.  Endpoints outside C raise ValidationError on
    every call.
    """
    return w._classification(f)


def _classify(w, f):
    _require_in_c(w, f)
    mono = f.is_mono()
    epi = f.is_epi()
    cofib = False
    acyclic_cofib = False
    if mono:
        cok_mod, _ = cokernel(f)
        cofib = w.in_c(cok_mod)
        acyclic_cofib = cofib and w.in_z(cok_mod)
    acyclic_fib = False
    if epi:
        ker_mod, _ = kernel(f)
        acyclic_fib = w.pair.in_right(ker_mod)
    return MapClassification(mono, epi, cofib, acyclic_cofib, acyclic_fib)


# ---------------------------------------------------------------------------
# factorization and lifting
# ---------------------------------------------------------------------------


class Factorization:
    """f = p o i with i a cofibration and p an acyclic fibration."""

    def __init__(self, i, p, middle, coker_i, ker_p):
        self.i = i
        self.p = p
        self.middle = middle
        self.coker_i = coker_i
        self.ker_p = ker_p


def factor(w, f):
    """The canonical factorization ``w.pair.factor(f)``, with each leg's
    class checked."""
    _require_in_c(w, f)
    i, p = w.pair.factor(f)
    if (p @ i) != f:
        raise InternalInconsistencyError("factorization does not compose to f")
    if not i.is_mono() or not p.is_epi():
        raise InternalInconsistencyError("factorization legs have wrong ranks")
    coker_mod, _ = cokernel(i)
    ker_mod, _ = kernel(p)
    if not w.in_c(coker_mod):
        raise InternalInconsistencyError("cokernel of the injection left C")
    if not w.pair.in_right(ker_mod):
        raise InternalInconsistencyError("kernel of the projection left C-perp")
    return Factorization(i, p, i.cod, coker_mod, ker_mod)


def lift(i, p, top, bottom):
    """Diagonal filler h with h o i = top and p o h = bottom.

    The square p o top = bottom o i must commute; under the cotorsion
    lifting property (i a cofibration, p an acyclic fibration) a filler
    exists, so failure to solve is reported as an internal inconsistency.
    """
    if (p @ top) != (bottom @ i):
        raise ValidationError("lifting square does not commute")
    h = solve_map(i.cod, p.dom, post=[(p, bottom)], pre=[(i, top)])
    if h is None:
        raise InternalInconsistencyError(
            "no lift exists; preconditions were not satisfied"
        )
    return h


# ---------------------------------------------------------------------------
# weak equivalences
# ---------------------------------------------------------------------------


def is_weak_equivalence(w, f):
    """Three-valued decision: "yes", "no", or "indeterminate".

    The canonical factorization f = p o i always has p an acyclic
    fibration; f is a weak equivalence whenever coker(i) lies in
    Z-intersect-C.  When it does not, "no" is only sound if the weak
    equivalences are saturated, equivalently Z-intersect-C has 2-out-of-3;
    otherwise the verdict is "indeterminate".

    Decided once per structure and map: ``w`` memoizes the verdict by the
    map's digest, so equal maps are factored once.  Endpoints outside C
    raise ValidationError on every call.
    """
    return w._verdict(f)


def _weak_equivalence_verdict(w, f):
    fac = factor(w, f)
    if w.in_zc(fac.coker_i):
        return "yes"
    if w.flags.get("z_two_of_three"):
        return "no"
    return "indeterminate"


DEFAULT_MAP_BUDGET = 10**5


def weak_equivalence_oracle(w, f, enum_budget=DEFAULT_BUDGET):
    """Exhaustive search for an acyclic-cofibration/acyclic-fibration split.

    Tries every middle object of dimension up to that of the canonical
    factorization's middle, every injection with cokernel in
    Z-intersect-C, and every surjection with kernel in C-perp, asking for
    a pair composing to f.  Returns "yes"/"no"; "no" means no such
    factorization exists within the dimension bound.  The bound covers the
    canonical factorization, and is at least dim(dom) + dim(cod), since
    the canonical middle is I (+) cod with dom embedded in I.  A middle
    whose Hom space from dom or to cod holds more than
    ``DEFAULT_MAP_BUDGET`` maps raises BudgetExceededError, as does an
    enumeration beyond ``enum_budget``.
    """
    bound = factor(w, f).middle.dim
    p = f.dom.p
    middles = enumerate_modules(f.dom.algebra, bound, budget=enum_budget)
    for middle in middles:
        if middle.dim < max(f.dom.dim, f.cod.dim):
            continue
        for pair_dims in ((f.dom, middle), (middle, f.cod)):
            if p ** len(hom_basis(*pair_dims)) > DEFAULT_MAP_BUDGET:
                raise BudgetExceededError(
                    "oracle map enumeration exceeds the budget"
                )
        def _is_good_mono(g):
            if not g.is_mono():
                return False
            cok_mod, _ = cokernel(g)
            return w.in_zc(cok_mod)

        good_monos = [g for g in maps(f.dom, middle) if _is_good_mono(g)]
        if not good_monos:
            continue

        def _is_good_epi(g):
            if not g.is_epi():
                return False
            ker_mod, _ = kernel(g)
            return w.pair.in_right(ker_mod)

        good_epis = [g for g in maps(middle, f.cod) if _is_good_epi(g)]
        for g in good_monos:
            for q in good_epis:
                if (q @ g) == f:
                    return "yes"
    return "no"


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def instance_digest(*morphisms):
    h = hashlib.sha256()
    for f in morphisms:
        h.update(f.dom.digest.encode())
        h.update(f.cod.digest.encode())
        h.update(f.matrix.a.tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]


def _report(check, digest, verdict, details):
    return {
        "check": check,
        "instance_digest": digest,
        "verdict": verdict,
        "details": details,
    }


def _decided_report(check, digest, verdict, details):
    """The report of a check that one weak-equivalence verdict decides:
    yes passes, no fails and indeterminate leaves it inapplicable."""
    outcome = {"yes": "PASS", "no": "FAIL"}.get(verdict, "INAPPLICABLE")
    return _report(check, digest, outcome, details)


# ---------------------------------------------------------------------------
# gluing (axiom W2)
# ---------------------------------------------------------------------------


class GluingInstance:
    """Two cofibration spans joined by three vertical maps.

    Top row: C <-(j)- A -(i)-> B; bottom row primed; verticals va, vb, vc
    with vb o i = i' o va and vc o j = j' o va.
    """

    def __init__(self, i, j, i_primed, j_primed, va, vb, vc):
        if i.dom != j.dom or i_primed.dom != j_primed.dom:
            raise ValidationError("span legs must share their domain")
        if va.dom != i.dom or va.cod != i_primed.dom:
            raise ValidationError("vertical map va must join the span apexes")
        if vb.dom != i.cod or vb.cod != i_primed.cod:
            raise ValidationError("vertical map vb must join the right legs")
        if vc.dom != j.cod or vc.cod != j_primed.cod:
            raise ValidationError("vertical map vc must join the left legs")
        if (vb @ i) != (i_primed @ va) or (vc @ j) != (j_primed @ va):
            raise ValidationError("gluing instance squares do not commute")
        self.i = i
        self.j = j
        self.i_primed = i_primed
        self.j_primed = j_primed
        self.va = va
        self.vb = vb
        self.vc = vc

    def digest(self):
        return instance_digest(
            self.i, self.j, self.i_primed, self.j_primed, self.va, self.vb, self.vc
        )


def check_gluing(w, inst):
    """Verify that the induced map on pushouts is a weak equivalence."""
    digest = inst.digest()
    if not classify_map(w, inst.i).is_cofibration:
        return _report("gluing", digest, "INAPPLICABLE", {"reason": "top right leg is not a cofibration"})
    if not classify_map(w, inst.i_primed).is_cofibration:
        return _report("gluing", digest, "INAPPLICABLE", {"reason": "bottom right leg is not a cofibration"})
    verdicts = {}
    for name, v in (("va", inst.va), ("vb", inst.vb), ("vc", inst.vc)):
        verdicts[name] = is_weak_equivalence(w, v)
        if verdicts[name] == "indeterminate":
            return _report("gluing", digest, "INAPPLICABLE", {"reason": "vertical map %s is indeterminate" % name})
        if verdicts[name] == "no":
            return _report("gluing", digest, "INAPPLICABLE", {"reason": "vertical map %s is not a weak equivalence" % name})
    glued, from_b, from_c = pushout(inst.i, inst.j)
    glued_pr, from_b_pr, from_c_pr = pushout(inst.i_primed, inst.j_primed)
    # the induced map on pushouts, by the universal property
    phi = from_pushout(from_b, from_c, from_b_pr @ inst.vb, from_c_pr @ inst.vc)
    verdict = is_weak_equivalence(w, phi)
    details = {
        "vertical_verdicts": verdicts,
        "pushout_dims": (glued.dim, glued_pr.dim),
        "induced_verdict": verdict,
    }
    return _decided_report("gluing", digest, verdict, details)


# ---------------------------------------------------------------------------
# extension axiom
# ---------------------------------------------------------------------------


class ExtensionInstance:
    """Two short exact sequences with commuting verticals (va, vb, vc)."""

    def __init__(self, top, bottom, va, vb, vc):
        if va.dom != top.sub or va.cod != bottom.sub:
            raise ValidationError("va must join the subobjects")
        if vb.dom != top.mid or vb.cod != bottom.mid:
            raise ValidationError("vb must join the middle terms")
        if vc.dom != top.quot or vc.cod != bottom.quot:
            raise ValidationError("vc must join the quotients")
        if (vb @ top.mono) != (bottom.mono @ va):
            raise ValidationError("left square does not commute")
        if (vc @ top.epi) != (bottom.epi @ vb):
            raise ValidationError("right square does not commute")
        self.top = top
        self.bottom = bottom
        self.va = va
        self.vb = vb
        self.vc = vc

    def digest(self):
        return instance_digest(self.top.mono, self.top.epi, self.bottom.mono,
                               self.bottom.epi, self.va, self.vb, self.vc)


def check_extension_axiom(w, inst):
    """If the outer verticals are weak equivalences, so must be the middle."""
    digest = inst.digest()
    for name, ses in (("top", inst.top), ("bottom", inst.bottom)):
        if not classify_map(w, ses.mono).is_cofibration:
            return _report(
                "extension",
                digest,
                "INAPPLICABLE",
                {"reason": "%s sequence is not a cofibration sequence" % name},
            )
    va_v = is_weak_equivalence(w, inst.va)
    vc_v = is_weak_equivalence(w, inst.vc)
    if "indeterminate" in (va_v, vc_v):
        return _report("extension", digest, "INAPPLICABLE", {"reason": "outer vertical indeterminate"})
    if va_v == "no" or vc_v == "no":
        return _report("extension", digest, "INAPPLICABLE", {"reason": "outer vertical is not a weak equivalence"})
    vb_v = is_weak_equivalence(w, inst.vb)
    details = {"va": va_v, "vb": vb_v, "vc": vc_v}
    return _decided_report("extension", digest, vb_v, details)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def check_saturation(w, f, g):
    """Among f, g, g o f: any two weak equivalences force the third.

    Only applicable when the 2-out-of-3 flag for Z-intersect-C is set;
    without it the weak equivalences are not known to be saturated.
    """
    if g.dom != f.cod:
        raise ValidationError("maps are not composable")
    digest = instance_digest(f, g)
    if not w.flags.get("z_two_of_three"):
        return _report(
            "saturation",
            digest,
            "INAPPLICABLE",
            {"reason": "2-out-of-3 for Z-intersect-C not established"},
        )
    composite = g @ f
    verdicts = {
        "f": is_weak_equivalence(w, f),
        "g": is_weak_equivalence(w, g),
        "gf": is_weak_equivalence(w, composite),
    }
    yes_count = sum(1 for v in verdicts.values() if v == "yes")
    details = {"verdicts": verdicts}
    if yes_count == 2:
        return _report("saturation", digest, "FAIL", details)
    return _report("saturation", digest, "PASS", details)


# ---------------------------------------------------------------------------
# properness
# ---------------------------------------------------------------------------


class PropernessInstance:
    """Either a pushout instance (cofibration f, map a sharing its domain)
    or a pullback instance (surjection f, map a sharing its codomain)."""

    def __init__(self, mode, f, a):
        if mode not in ("pushout", "pullback"):
            raise ValidationError("mode must be pushout or pullback")
        if mode == "pushout" and f.dom != a.dom:
            raise ValidationError("pushout instance needs a shared domain")
        if mode == "pullback" and f.cod != a.cod:
            raise ValidationError("pullback instance needs a shared codomain")
        self.mode = mode
        self.f = f
        self.a = a

    def digest(self):
        return instance_digest(self.f, self.a)


def check_properness(w, inst):
    """Weak equivalences are stable under pushout along cofibrations and
    pullback along surjections."""
    digest = inst.digest()
    a_verdict = is_weak_equivalence(w, inst.a)
    if a_verdict != "yes":
        return _report(
            "properness",
            digest,
            "INAPPLICABLE",
            {"reason": "the map being pushed is not a decided weak equivalence",
             "verdict": a_verdict},
        )
    if inst.mode == "pushout":
        if not classify_map(w, inst.f).is_cofibration:
            return _report("properness", digest, "INAPPLICABLE",
                           {"reason": "f is not a cofibration"})
        _, from_b, from_c = pushout(inst.f, inst.a)
        moved = from_b  # the pushout of a along f
    else:
        if not inst.f.is_epi():
            return _report("properness", digest, "INAPPLICABLE",
                           {"reason": "f is not surjective"})
        _, to_b, to_c = pullback(inst.f, inst.a)
        moved = to_b  # the base change of a, living over the domain of f
    verdict = is_weak_equivalence(w, moved)
    details = {"mode": inst.mode, "moved_verdict": verdict}
    return _decided_report("properness", digest, verdict, details)


# ---------------------------------------------------------------------------
# the resolution ladder
# ---------------------------------------------------------------------------


def build_zp_resolution(w, a, pres, pair_p):
    """Convert a finite P-resolution of ``a`` into a Z-intersect-P one.

    ``pres`` lists the short exact sequences of the resolution from the
    bottom up: pres[0] is 0 -> K_1 -> P_0 -> a -> 0, pres[i] is
    0 -> K_{i+1} -> P_i -> K_i -> 0, and the last subobject K_n must lie
    in P itself.  The output is the chained list of sequences
    0 -> Z_n -> Z_{n-1} -> D_{n-1} -> 0, ..., 0 -> D_1 -> Z_0 -> a -> 0
    produced by alternating right resolutions for (P, P-perp) with
    pushouts; all middle objects land in Z-intersect-P.
    """
    if not w.flags.get("z_two_of_three"):
        raise HypothesisError("resolution ladder needs 2-out-of-3 for Z-intersect-C")
    if not w.in_zc(a):
        raise HypothesisError("the resolved object must lie in Z-intersect-C")
    # the right orthogonal is taken inside P, hence the intersection;
    # it is sampled up to dimension SAMPLE_BOUND
    for m in w.modules(SAMPLE_BOUND):
        if pair_p.in_right(m) and pair_p.in_left(m) and not w.in_z(m):
            raise HypothesisError("P-perp is not contained in Z (sampled)")
    n = len(pres)
    if n == 0:
        if not pair_p.in_left(a):
            raise HypothesisError("empty resolution requires the object to lie in P")
        return []
    if pres[0].quot != a:
        raise HypothesisError("first sequence must end at the resolved object")
    for idx in range(n):
        if not pair_p.in_left(pres[idx].mid):
            raise HypothesisError("resolution middle at index %d is not in P" % idx)
        if idx + 1 < n and pres[idx].sub != pres[idx + 1].quot:
            raise HypothesisError("resolution sequences do not chain at index %d" % idx)
    if not pair_p.in_left(pres[n - 1].sub):
        raise HypothesisError("top kernel of the resolution is not in P")

    def resolve_mono(m):
        ses = pair_p.resolve_right(m)
        if not pair_p.in_left(ses.mid):
            raise HypothesisError(
                "right resolution middle of dimension %d fell outside P" % ses.mid.dim
            )
        if not w.in_z(ses.mid):
            raise HypothesisError(
                "right resolution middle of dimension %d fell outside Z" % ses.mid.dim
            )
        return ses.mono

    def push_out(along, ses):
        """Push ``ses`` = 0 -> K -> P -> C -> 0 out along ``along``: K -> M;
        returns (Q, M -> Q, Q -> C) for the pushout Q = M +_K P."""
        big, from_m, from_p = pushout(along, ses.mono)
        epi = from_pushout(from_m, from_p, zero_morphism(along.cod, ses.quot), ses.epi)
        if not epi.is_epi():
            raise InternalInconsistencyError("pushout quotient map is not surjective")
        return big, from_m, epi

    out = []
    top = pres[n - 1]
    mu = resolve_mono(top.sub)  # K_n into Z_n
    # first pushout: Q = Z_n +_{K_n} P_{n-1}, keeping the quotient C_{n-1};
    # its leg Z_n -> Q plays the part of D_n -> Q below
    big, mono_into_d, epi_to_c = push_out(mu, top)
    for k in range(n - 1, 0, -1):
        # have: 0 -> Z_n or D_{k+1} -> big -> C_k -> 0 with big in P
        if not pair_p.in_left(big):
            raise InternalInconsistencyError("ladder middle fell out of P")
        j = resolve_mono(big)  # big into Z_k
        z_k = j.cod
        _check_ladder_object(w, pair_p, z_k, "Z_%d" % k)
        d_k, from_zk, from_ck = pushout(j, epi_to_c)
        if not w.in_z(d_k):
            raise InternalInconsistencyError("ladder quotient left Z")
        out.append(ShortExactSequence(j @ mono_into_d, from_zk))
        # push 0 -> C_k -> P_{k-1} -> C_{k-1} -> 0 out along C_k -> D_k
        big, mono_into_d, epi_to_c = push_out(from_ck, pres[k - 1])  # D_k -> Q_{k-1}
    # final step: Z_0 := D_1 +_{C_1} P_0, or Z_n +_{K_1} P_0 when n == 1
    # (no further resolution)
    _check_ladder_object(w, pair_p, big, "Z_0")
    out.append(ShortExactSequence(mono_into_d, epi_to_c))
    _validate_chain(out, a)
    return out


def _check_ladder_object(w, pair_p, m, label):
    if not pair_p.in_left(m):
        raise InternalInconsistencyError("%s is not in P" % label)
    if not w.in_z(m):
        raise InternalInconsistencyError("%s is not in Z" % label)


def _validate_chain(sequences, a):
    for ses in sequences:
        problems = ses.validate()
        if problems:
            raise InternalInconsistencyError("ladder sequence invalid: %s" % problems)
    for first, second in zip(sequences, sequences[1:]):
        if first.quot != second.sub:
            raise InternalInconsistencyError("ladder sequences do not chain")
    if sequences and sequences[-1].quot != a:
        raise InternalInconsistencyError("ladder does not end at the resolved object")
