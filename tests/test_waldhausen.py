"""Tests for the cotorsion-pair Waldhausen structure machinery.

The main correctness checks: the three-valued weak-equivalence decision
agrees with an exhaustive factorization search on every small map over
F_2[x]/(x^2); the axiom checkers pass on seeded families of
valid-by-construction instances; saturation detection flags the
hereditary two-vertex algebra with injective acyclics, whose
intersection class genuinely lacks 2-out-of-3.
"""

import contextlib
import io
import itertools

import numpy as np
import pytest

import waldcat.waldhausen as waldhausen
from waldcat.algebra import (
    Algebra,
    Module,
    Morphism,
    QuiverPresentation,
    ShortExactSequence,
    algebra_from_quiver,
    cokernel,
    direct_sum,
    enumerate_modules,
    hom_basis,
    identity_morphism,
    is_isomorphic,
    maps,
    regular_module,
    zero_module,
    zero_morphism,
)
from waldcat.cli import main
from waldcat.errors import (
    HypothesisError,
    ValidationError,
)
from waldcat.homological import (
    CotorsionPair,
    all_injectives_pair,
    ext1,
    injective_embedding,
    is_injective,
    is_projective,
    projectives_all_pair,
    short_exact_sequences,
    spec_all,
    spec_explicit,
    spec_finite_inj_dim,
    spec_injectives,
    spec_projectives,
)
from waldcat.sampling import (
    extension_instance,
    gluing_instance,
    properness_instance,
    random_acyclic_fibration,
    random_cofibration,
    random_combination,
    random_weq_from,
    saturation_instance,
)
from waldcat.waldhausen import (
    WaldhausenData,
    build_zp_resolution,
    check_extension_axiom,
    check_gluing,
    check_properness,
    check_saturation,
    classify_map,
    factor,
    is_weak_equivalence,
    lift,
    weak_equivalence_oracle,
)
from waldcat.workspace import corpus_path, load_workspace

from reference_checks import spec_intersection
from samplers import random_acyclic_cofibration
from test_homological import _rebased, _unit_preserving_basis_change


def fx2_algebra():
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    return Algebra(2, c, [1, 0])


def line_algebra():
    return algebra_from_quiver(QuiverPresentation(2, 2, [(0, 1, "b")], nil_bound=2))


_CACHE = {}


def fx2_waldhausen():
    """All modules with projective acyclics over F_2[x]/(x^2)."""
    if "fx2" not in _CACHE:
        a = fx2_algebra()
        _CACHE["fx2"] = WaldhausenData(all_injectives_pair(a), spec_projectives())
    return _CACHE["fx2"]


def line_waldhausen(force_two_of_three=False):
    """All modules with injective acyclics over the two-vertex line quiver."""
    key = "line_forced" if force_two_of_three else "line"
    if key not in _CACHE:
        a = line_algebra()
        _CACHE[key] = WaldhausenData(
            all_injectives_pair(a),
            spec_injectives(),
            z_two_of_three=True if force_two_of_three else None,
        )
    return _CACHE[key]


def fx2_simple():
    w = fx2_waldhausen()
    return [m for m in enumerate_modules(w.algebra, 1) if m.dim == 1][0]


# ---------------------------------------------------------------------------
# subcategory specifications
# ---------------------------------------------------------------------------


def test_spec_membership_matches_predicates():
    a = line_algebra()
    mods = enumerate_modules(a, 2)
    sp_all = spec_all()
    sp_proj = spec_projectives()
    sp_inj = spec_injectives()
    for m in mods:
        assert sp_all.contains(m)
        assert sp_proj.contains(m) == is_projective(m)
        assert sp_inj.contains(m) == is_injective(m)


def test_spec_finite_inj_dim_over_hereditary_algebra():
    # over a hereditary algebra every module has injective dimension <= 1
    a = line_algebra()
    sp0 = spec_finite_inj_dim(0)
    sp1 = spec_finite_inj_dim(1)
    for m in enumerate_modules(a, 2):
        assert sp1.contains(m)
        assert sp0.contains(m) == is_injective(m)


def test_spec_explicit_is_closed_under_isomorphism():
    a = fx2_algebra()
    reg = regular_module(a)
    sp = spec_explicit([reg])
    # the dual regular module is isomorphic to the regular one here
    from waldcat.algebra import dual_regular_module

    assert sp.contains(dual_regular_module(a))
    assert not sp.contains(zero_module(a))


def test_explicit_specs_keep_their_own_answers():
    # membership is memoized per spec: the same module gets each spec's answer
    a = fx2_algebra()
    reg = regular_module(a)
    s = [m for m in enumerate_modules(a, 1) if m.dim == 1][0]
    with_reg = spec_explicit([reg])
    with_s = spec_explicit([s])
    assert with_reg.contains(reg) and not with_s.contains(reg)
    assert with_s.contains(s) and not with_reg.contains(s)


def test_spec_intersection():
    a = line_algebra()
    both = spec_intersection([spec_projectives(), spec_injectives()])
    for m in enumerate_modules(a, 2):
        assert both.contains(m) == (is_projective(m) and is_injective(m))


def test_spec_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        spec_finite_inj_dim(-1)
    with pytest.raises(ValidationError):
        spec_intersection([])


# ---------------------------------------------------------------------------
# the data bundle and its sampled hypotheses
# ---------------------------------------------------------------------------


def test_waldhausen_flags_over_fx2():
    w = fx2_waldhausen()
    assert w.flags["right_in_z_checked"] == 2
    assert w.flags["complete_checked"] == 2
    assert w.flags["hereditary_checked"] == 2
    assert w.flags["z_two_of_three"] is True
    assert w.flags["z_two_of_three_source"] == "exhaustive<=2"


_HOLDS = (True, None)
_NOT_IN_Z = "right orthogonal class is not contained in Z (sampled)"
_CLASSES = {"all": all_injectives_pair, "projectives": projectives_all_pair}
_ACYCLICS = {"all": spec_all, "projectives": spec_projectives, "injectives": spec_injectives}
# outcome per (C, Z) in _CONFIGS order: the HypothesisError message, or the
# 2-out-of-3 flag with the witness dimensions
_CONFIGS = list(itertools.product(_CLASSES, _ACYCLICS))
_OUTCOMES = {
    "f2c2": [_HOLDS, _HOLDS, _HOLDS, _HOLDS, _NOT_IN_Z, _NOT_IN_Z],
    "fx2": [_HOLDS, _HOLDS, _HOLDS, _HOLDS, _NOT_IN_Z, _NOT_IN_Z],
    "fx3": [_HOLDS, _HOLDS, _HOLDS, _HOLDS, _NOT_IN_Z, _NOT_IN_Z],
    "quiver_a1": [_HOLDS, _NOT_IN_Z, _HOLDS, _HOLDS, _NOT_IN_Z, _NOT_IN_Z],
    "quiver_a2": [_HOLDS, _NOT_IN_Z, (False, (1, 2, 1)), _HOLDS, _NOT_IN_Z, _NOT_IN_Z],
}


@pytest.mark.parametrize(
    "name, c_name, z_name",
    [(name, c, z) for name in _OUTCOMES for c, z in _CONFIGS],
)
def test_waldhausen_outcome_over_the_corpus(name, c_name, z_name):
    a = load_workspace(corpus_path(name)).only_algebra()
    pair = _CLASSES[c_name]
    expected = _OUTCOMES[name][_CONFIGS.index((c_name, z_name))]
    if isinstance(expected, str):
        with pytest.raises(HypothesisError) as err:
            WaldhausenData(pair(a), _ACYCLICS[z_name]())
        assert str(err.value) == expected
        return
    w = WaldhausenData(pair(a), _ACYCLICS[z_name]())
    assert w.flags == {
        "hereditary_checked": 2,
        "complete_checked": 2,
        "right_in_z_checked": 2,
        "z_two_of_three": expected[0],
        "z_two_of_three_source": "exhaustive<=2",
    }
    witness = w.z23_witness
    assert (witness["dims"] if witness else None) == expected[1]


def _sweep_with_zero_end_terms(w):
    """(samples, sequences): ``w``'s samples, the zero module included,
    and the ``short_exact_sequences`` sweep over all of them."""
    samples = w.modules(waldhausen.SAMPLE_BOUND)
    return samples, list(short_exact_sequences(samples, waldhausen.SAMPLE_BOUND))


def _spy_on_sweeps(monkeypatch):
    """The (modules, middles) of every ``short_exact_sequences`` sweep the
    structure makes."""
    sweeps = []

    def spy(modules, bound):
        middles = list(short_exact_sequences(modules, bound))
        sweeps.append((modules, middles))
        return iter(middles)

    monkeypatch.setattr(waldhausen, "short_exact_sequences", spy)
    return sweeps


_BUILT = [(name, c, z) for name in _OUTCOMES for c, z in _CONFIGS
          if not isinstance(_OUTCOMES[name][_CONFIGS.index((c, z))], str)]


@pytest.mark.parametrize("name, c_name, z_name", _BUILT)
def test_closure_sweeps_skip_zero_end_terms(name, c_name, z_name, monkeypatch):
    """0 lies in C ∩ Z, so a sequence with a zero end term decides no
    closure check and no 2-out-of-3 witness: the sweeps leave it out, and
    the flags and the witness (dimensions, memberships and digests) are
    those of a sweep that keeps it."""
    a = load_workspace(corpus_path(name)).only_algebra()
    sweeps = _spy_on_sweeps(monkeypatch)
    w = WaldhausenData(_CLASSES[c_name](a), _ACYCLICS[z_name]())
    monkeypatch.undo()
    assert [m.dim for modules, _ in sweeps for m in modules if not m.dim] == []
    assert w.flags["hereditary_checked"] == 2
    samples, sequences = _sweep_with_zero_end_terms(w)
    w._check_closure(samples, sequences)
    assert w.z23_witness == w._two_of_three_witness(samples, sequences)


def test_closure_sweeps_on_quiver_a1_skip_twenty_of_twenty_six_middles(monkeypatch):
    # the structure of quiver_a1's configuration, which ``axioms`` builds
    a = load_workspace(corpus_path("quiver_a1")).only_algebra()
    sweeps = _spy_on_sweeps(monkeypatch)
    w = WaldhausenData(all_injectives_pair(a), spec_injectives())
    monkeypatch.undo()
    assert [len(middles) for _, middles in sweeps] == [6, 0]
    samples, sequences = _sweep_with_zero_end_terms(w)
    zc = [m for m in samples if w.in_zc(m)]
    extensions = list(short_exact_sequences(zc, waldhausen.SAMPLE_BOUND + 1))
    assert (len(sequences), len(extensions)) == (21, 5)


def test_unvalidated_structures_sweep_zero_end_terms_unless_zero_is_in_zc():
    # Z = every nonzero module: 0 -> S -> S -> 0 -> 0 has exactly two
    # terms in Z, and without validation nothing has refused this Z
    a = line_algebra()
    nonzero = spec_explicit([m for m in enumerate_modules(a, 2) if m.dim])
    w = WaldhausenData(all_injectives_pair(a), nonzero, validate=False)
    assert w.flags["z_two_of_three"] is False
    assert w.z23_witness["dims"] == (1, 1, 0)
    assert w.z23_witness == w._two_of_three_witness(*_sweep_with_zero_end_terms(w))
    # with 0 in Z the sweep skips zero end terms and finds the same witness
    for z_spec in (spec_injectives(), spec_projectives()):
        unvalidated = WaldhausenData(all_injectives_pair(a), z_spec, validate=False)
        swept = _sweep_with_zero_end_terms(unvalidated)
        assert unvalidated.z23_witness == unvalidated._two_of_three_witness(*swept)
        assert unvalidated.flags["z_two_of_three"] == (unvalidated.z23_witness is None)
    fx2 = fx2_waldhausen()
    unvalidated = WaldhausenData(fx2.pair, fx2.z_spec, validate=False)
    assert unvalidated.z23_witness is None and fx2.z23_witness is None
    assert unvalidated.flags["z_two_of_three"] is True


def _line_nonsplit():
    """(sub, mid, quot) of the non-split sequence of simples over the line."""
    a = line_algebra()
    simples = [m for m in enumerate_modules(a, 1) if m.dim == 1]
    for quot, sub in itertools.product(simples, repeat=2):
        ext = ext1(quot, sub)
        if ext.dimension:
            return sub, ext.realize((1,)).mid, quot
    raise AssertionError("the line algebra has a non-split extension")


def test_waldhausen_rejects_left_class_open_under_kernels():
    # {m : Hom(m, sub) = 0} holds mid and quot of 0 -> sub -> mid -> quot -> 0
    sub, _, _ = _line_nonsplit()
    a = sub.algebra
    left = spec_explicit([m for m in enumerate_modules(a, 2) if not hom_basis(m, sub)])
    # a pair with classes that break the closure checks
    pair = CotorsionPair(a, left, spec_explicit([zero_module(a)]))
    with pytest.raises(HypothesisError) as err:
        WaldhausenData(pair, spec_all())
    assert str(err.value) == "left class not closed under kernels of surjections"


def test_waldhausen_rejects_zc_open_under_cokernels():
    # {m : Hom(quot, m) = 0} is closed under extensions and holds sub and
    # mid of 0 -> sub -> mid -> quot -> 0, but not quot
    _, _, quot = _line_nonsplit()
    a = quot.algebra
    z = spec_explicit([m for m in enumerate_modules(a, 3) if not hom_basis(quot, m)])
    pair = CotorsionPair(a, spec_all(), spec_explicit([zero_module(a)]))
    with pytest.raises(HypothesisError) as err:
        WaldhausenData(pair, z)
    assert str(err.value) == "Z-intersect-C not closed under cokernels of injections"


def test_waldhausen_rejects_right_class_outside_z():
    # acyclics = projectives, but the right class of (all, injectives)
    # over the line algebra contains non-projective injectives
    a = line_algebra()
    with pytest.raises(HypothesisError):
        WaldhausenData(all_injectives_pair(a), spec_projectives())


def test_two_of_three_fails_for_injective_acyclics_on_line():
    w = line_waldhausen()
    assert w.flags["z_two_of_three"] is False
    assert w.z23_witness is not None
    assert w.z23_witness["dims"] == (1, 2, 1)
    assert w.z23_witness["in_zc"] == [False, True, True]


def test_two_of_three_holds_for_projective_acyclics_on_fx2():
    w = fx2_waldhausen()
    assert w.flags["z_two_of_three"] is True
    assert w.z23_witness is None


def test_construction_sweeps_the_samples_once(monkeypatch):
    # one sweep of the samples serves the closure checks and 2-out-of-3;
    # the only other sweep is the extension check's, over Z-intersect-C
    bounds = []

    def spy(modules, bound):
        bounds.append(bound)
        return short_exact_sequences(modules, bound)

    monkeypatch.setattr(waldhausen, "short_exact_sequences", spy)
    a = load_workspace(corpus_path("quiver_a2")).only_algebra()
    w = WaldhausenData(all_injectives_pair(a), spec_injectives())
    assert bounds == [2, 3]
    assert w.flags["z_two_of_three"] is False
    assert w.z23_witness["dims"] == (1, 2, 1)


def test_supplied_two_of_three_flag_is_trusted():
    w = line_waldhausen(force_two_of_three=True)
    assert w.flags["z_two_of_three"] is True
    assert w.flags["z_two_of_three_source"] == "supplied"


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_identity_and_zero():
    w = fx2_waldhausen()
    reg = regular_module(w.algebra)
    flags = classify_map(w, identity_morphism(reg)).as_dict()
    assert flags["is_cofibration"] and flags["is_acyclic_cofibration"]
    assert flags["is_acyclic_fibration"]
    s = fx2_simple()
    zflags = classify_map(w, zero_morphism(s, s)).as_dict()
    assert not zflags["is_admissible_mono"] and not zflags["is_admissible_epi"]


def test_classify_socle_embedding():
    w = fx2_waldhausen()
    s = fx2_simple()
    emb = injective_embedding(s)
    flags = classify_map(w, emb).as_dict()
    assert flags["is_admissible_mono"] and flags["is_cofibration"]
    # the cokernel is the simple module again, which is not projective
    assert not flags["is_acyclic_cofibration"]
    assert not flags["is_admissible_epi"]


def test_classify_projection_is_acyclic_fibration():
    w = fx2_waldhausen()
    reg = regular_module(w.algebra)
    s = fx2_simple()
    total, _, (proj_s, _) = direct_sum([s, reg])
    flags = classify_map(w, proj_s).as_dict()
    # kernel is the regular module, which is injective here
    assert flags["is_acyclic_fibration"]


def test_cofibrations_and_acyclic_fibrations_compose():
    w = fx2_waldhausen()
    rng = np.random.default_rng(7)
    mods = enumerate_modules(w.algebra, 2)
    done_cofib = 0
    done_fib = 0
    for _ in range(40):
        a = mods[int(rng.integers(0, len(mods)))]
        f = random_cofibration(w, rng, a, 3)
        g = random_cofibration(w, rng, f.cod, 4)
        assert classify_map(w, g @ f).is_cofibration
        done_cofib += 1
        if done_cofib >= 6:
            break
    for _ in range(40):
        c = mods[int(rng.integers(0, len(mods)))]
        q1 = random_acyclic_fibration(w, rng, c)
        q2 = random_acyclic_fibration(w, rng, q1.dom)
        assert classify_map(w, q1 @ q2).is_acyclic_fibration
        done_fib += 1
        if done_fib >= 6:
            break
    assert done_cofib >= 6 and done_fib >= 6


# ---------------------------------------------------------------------------
# factorization and lifting
# ---------------------------------------------------------------------------


def test_factor_random_maps():
    w = fx2_waldhausen()
    rng = np.random.default_rng(11)
    mods = enumerate_modules(w.algebra, 2)
    for _ in range(25):
        dom = mods[int(rng.integers(0, len(mods)))]
        cod = mods[int(rng.integers(0, len(mods)))]
        f = random_combination(rng, dom, cod)
        fac = factor(w, f)
        assert (fac.p @ fac.i) == f
        assert classify_map(w, fac.i).is_cofibration
        assert classify_map(w, fac.p).is_acyclic_fibration
        assert w.in_c(fac.coker_i)
        assert w.pair.in_right(fac.ker_p)
        assert fac.middle.dim == fac.i.cod.dim == fac.p.dom.dim


def test_factor_projection_is_the_sum_projection():
    # p = [0 | I] read off the injection's sum is the canonical projection
    w = fx2_waldhausen()
    mods = enumerate_modules(w.algebra, 2)
    for dom, cod in itertools.product(mods, repeat=2):
        for f in maps(dom, cod):
            i, p = w.pair.factor(f)
            j = w.pair.resolve_right(f.dom).mono
            _, _, (_, proj) = direct_sum([j.cod, f.cod])
            assert p.digest == proj.digest


def test_factor_identity_has_acyclic_injection_cokernel():
    w = fx2_waldhausen()
    reg = regular_module(w.algebra)
    fac = factor(w, identity_morphism(reg))
    # the cokernel of the injection is the (injective = projective) envelope
    assert w.in_zc(fac.coker_i)


def test_lift_solves_seeded_squares():
    w = fx2_waldhausen()
    rng = np.random.default_rng(13)
    mods = enumerate_modules(w.algebra, 2)
    count = 0
    c_mods = [m for m in mods if w.in_c(m)]
    for _ in range(60):
        a = mods[int(rng.integers(0, len(mods)))]
        c = c_mods[int(rng.integers(0, len(c_mods)))]
        # cofibration A -> A (+) C by inclusion
        total, (inj_a, _), _ = direct_sum([a, c])
        i = inj_a
        q = random_acyclic_fibration(w, rng, mods[int(rng.integers(0, len(mods)))])
        top = random_combination(rng, a, q.dom)
        # bottom agrees with q o top on the first block, arbitrary on the rest
        _, _, (proj_a, proj_c) = direct_sum([a, c])
        bottom = (q @ top @ proj_a) + (
            random_combination(rng, c, q.cod) @ proj_c
        )
        h = lift(i, q, top, bottom)
        assert (h @ i) == top
        assert (q @ h) == bottom
        count += 1
        if count >= 12:
            break
    assert count >= 12


def test_lift_rejects_noncommuting_square():
    w = fx2_waldhausen()
    s = fx2_simple()
    reg = regular_module(w.algebra)
    total, (inj_s, _), _ = direct_sum([s, reg])
    pairsum, _, (proj_first, _) = direct_sum([reg, reg])
    top = zero_morphism(s, pairsum)
    # bottom o i is nonzero while p o top is zero
    nonzero = [b for b in hom_basis(total, reg) if not (b @ inj_s).is_zero()][0]
    with pytest.raises(ValidationError):
        lift(inj_s, proj_first, top, nonzero)


# ---------------------------------------------------------------------------
# weak equivalence decisions
# ---------------------------------------------------------------------------


def test_decision_is_decisive_under_two_of_three():
    w = fx2_waldhausen()
    mods = enumerate_modules(w.algebra, 2)
    for dom in mods:
        for cod in mods:
            for f in maps(dom, cod):
                assert is_weak_equivalence(w, f) in ("yes", "no")


def test_decision_matches_exhaustive_search_small():
    w = fx2_waldhausen()
    mods = enumerate_modules(w.algebra, 2)
    checked = 0
    for dom in mods:
        for cod in mods:
            if dom.dim + cod.dim > 3:
                continue
            for f in maps(dom, cod):
                dec = is_weak_equivalence(w, f)
                orc = weak_equivalence_oracle(w, f, enum_budget=10**12)
                assert dec == orc
                checked += 1
    assert checked >= 20


def test_decision_matches_exhaustive_search_dim_four_sample():
    w = fx2_waldhausen()
    rng = np.random.default_rng(17)
    mods = [m for m in enumerate_modules(w.algebra, 2) if m.dim == 2]
    pairs = [(d, c) for d in mods for c in mods]
    for _ in range(5):
        dom, cod = pairs[int(rng.integers(0, len(pairs)))]
        f = random_combination(rng, dom, cod)
        dec = is_weak_equivalence(w, f)
        orc = weak_equivalence_oracle(w, f, enum_budget=10**12)
        assert dec == orc


def test_constructed_weak_equivalences_decide_yes():
    w = fx2_waldhausen()
    rng = np.random.default_rng(19)
    mods = enumerate_modules(w.algebra, 2)
    for _ in range(15):
        dom = mods[int(rng.integers(0, len(mods)))]
        a = random_weq_from(w, rng, dom)
        assert is_weak_equivalence(w, a) == "yes"


def test_weak_equivalences_compose():
    w = fx2_waldhausen()
    rng = np.random.default_rng(23)
    mods = enumerate_modules(w.algebra, 2)
    for _ in range(10):
        dom = mods[int(rng.integers(0, len(mods)))]
        a1 = random_weq_from(w, rng, dom)
        a2 = random_weq_from(w, rng, a1.cod)
        assert is_weak_equivalence(w, a2 @ a1) == "yes"


def test_indeterminate_without_two_of_three():
    w = line_waldhausen()
    a = w.algebra
    mods = enumerate_modules(a, 2)
    # the simple projective at the source vertex is not injective, and no
    # injective surjects onto it, so the zero map into it cannot be a weak
    # equivalence; without 2-out-of-3 the decision must stay indeterminate
    s1 = [m for m in mods if m.dim == 1 and is_projective(m) and not is_injective(m)]
    assert len(s1) == 1
    f = zero_morphism(zero_module(a), s1[0])
    assert is_weak_equivalence(w, f) == "indeterminate"


def _spy_factor(monkeypatch):
    """Record (structure, map digest) of every ``factor`` call."""
    factored = []
    real = waldhausen.factor

    def spy(w, f):
        factored.append((id(w), f.digest))
        return real(w, f)

    monkeypatch.setattr(waldhausen, "factor", spy)
    return factored


def _rebuilt(f):
    """An equal map built from scratch: new end modules, new matrix."""
    a = f.dom.algebra
    return Morphism(Module(a, f.dom.rho), Module(a, f.cod.rho), f.matrix.a.copy())


def test_weak_equivalence_factors_each_map_once(monkeypatch):
    a = fx2_algebra()
    w = WaldhausenData(all_injectives_pair(a), spec_projectives())
    factored = _spy_factor(monkeypatch)
    mods = enumerate_modules(a, 2)
    every = [f for dom, cod in itertools.product(mods, repeat=2) for f in maps(dom, cod)]
    first = [is_weak_equivalence(w, f) for f in every]
    assert [is_weak_equivalence(w, _rebuilt(f)) for f in every] == first
    assert [is_weak_equivalence(w, f) for f in every] == first
    assert len(factored) == len(set(factored)) == len(every)
    assert {"yes", "no"} <= set(first)
    for f in every:
        assert classify_map(w, f) is classify_map(w, _rebuilt(f))


def test_structures_keep_separate_verdicts(monkeypatch):
    # projectives = injectives over the self-injective F_2[x]/(x^2), so the
    # first two structures agree; with Z = all every map is a weak equivalence
    a = fx2_algebra()
    structures = {
        name: WaldhausenData(all_injectives_pair(a), spec())
        for name, spec in (("projectives", spec_projectives),
                           ("injectives", spec_injectives), ("all", spec_all))
    }
    factored = _spy_factor(monkeypatch)
    s = [m for m in enumerate_modules(a, 1) if m.dim == 1][0]
    f = zero_morphism(s, s)
    for _ in range(2):
        verdicts = {name: is_weak_equivalence(w, f) for name, w in structures.items()}
        assert verdicts == {"projectives": "no", "injectives": "no", "all": "yes"}
    assert len(factored) == len(set(factored)) == 3


def test_memoized_decisions_match_unmemoized_over_axiom_runs(monkeypatch):
    asked = []
    for name in ("is_weak_equivalence", "classify_map"):
        real = getattr(waldhausen, name)

        def spy(w, f, real=real, name=name):
            answer = real(w, f)
            asked.append((name, w, f, answer))
            return answer

        monkeypatch.setattr(waldhausen, name, spy)
    for corpus, samples in (("fx2", 25), ("quiver_a1", 10)):
        for seed in (3, 7):
            argv = ["axioms", "--input", str(corpus_path(corpus)),
                    "--samples", str(samples), "--seed", str(seed)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
    for name, w, f, answer in asked:
        if name == "is_weak_equivalence":
            assert answer == waldhausen._weak_equivalence_verdict(w, f)
        else:
            assert answer.as_dict() == waldhausen._classify(w, f).as_dict()
    distinct = {(name, id(w), f.digest) for name, w, f, _ in asked}
    assert {name for name, _, _ in distinct} == {"is_weak_equivalence", "classify_map"}
    assert len(distinct) < len(asked)


def test_maps_outside_c_raise_on_every_call(monkeypatch):
    a = fx2_algebra()
    w = WaldhausenData(projectives_all_pair(a), spec_all())
    required = []
    real = waldhausen._require_in_c

    def spy(w, f):
        required.append(f.digest)
        return real(w, f)

    monkeypatch.setattr(waldhausen, "_require_in_c", spy)
    s = [m for m in enumerate_modules(a, 1) if m.dim == 1][0]
    f = identity_morphism(s)
    for _ in range(2):
        with pytest.raises(ValidationError):
            is_weak_equivalence(w, f)
        with pytest.raises(ValidationError):
            classify_map(w, f)
    assert len(required) == 4
    reg = regular_module(a)
    assert is_weak_equivalence(w, identity_morphism(reg)) == "yes"


def test_acyclic_cofibration_then_fibration_decides_yes_on_line():
    # "yes" answers are sound even without 2-out-of-3
    w = line_waldhausen()
    rng = np.random.default_rng(29)
    mods = enumerate_modules(w.algebra, 2)
    for _ in range(10):
        dom = mods[int(rng.integers(0, len(mods)))]
        j = random_acyclic_cofibration(w, rng, dom)
        assert is_weak_equivalence(w, j) == "yes"


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------


def test_gluing_checker_passes_seeded_instances():
    w = fx2_waldhausen()
    rng = np.random.default_rng(31)
    for _ in range(10):
        rep = check_gluing(w, gluing_instance(w, rng))
        assert rep["verdict"] == "PASS", rep
        assert rep["check"] == "gluing"
        assert rep["details"]["induced_verdict"] == "yes"


def test_gluing_never_fails_on_line():
    # the structure on the line algebra satisfies the construction
    # hypotheses, so gluing holds; without 2-out-of-3 some instances may
    # be indeterminate but none may FAIL
    w = line_waldhausen()
    rng = np.random.default_rng(37)
    seen = set()
    for _ in range(10):
        rep = check_gluing(w, gluing_instance(w, rng))
        assert rep["verdict"] in ("PASS", "INAPPLICABLE")
        seen.add(rep["verdict"])
    assert "PASS" in seen


def test_extension_checker_passes_seeded_instances():
    w = fx2_waldhausen()
    rng = np.random.default_rng(41)
    for _ in range(10):
        rep = check_extension_axiom(w, extension_instance(w, rng))
        assert rep["verdict"] == "PASS", rep


def test_properness_checker_passes_seeded_instances():
    w = fx2_waldhausen()
    rng = np.random.default_rng(43)
    modes = set()
    for _ in range(10):
        inst = properness_instance(w, rng)
        rep = check_properness(w, inst)
        assert rep["verdict"] == "PASS", rep
        modes.add(inst.mode)
    assert modes == {"pushout", "pullback"}


def test_saturation_checker_passes_on_fx2():
    w = fx2_waldhausen()
    rng = np.random.default_rng(47)
    for _ in range(20):
        f, g = saturation_instance(w, rng)
        rep = check_saturation(w, f, g)
        assert rep["verdict"] == "PASS", rep


def test_saturation_inapplicable_without_flag():
    w = line_waldhausen()
    mods = enumerate_modules(w.algebra, 1)
    m = mods[-1]
    rep = check_saturation(w, identity_morphism(m), identity_morphism(m))
    assert rep["verdict"] == "INAPPLICABLE"


def test_saturation_fails_on_line_with_forced_flag():
    # the genuine 2-out-of-3 violation: 0 -> S1 is not a weak equivalence
    # but S1 -> I1 and 0 -> I1 are
    w = line_waldhausen(force_two_of_three=True)
    a = w.algebra
    mods = enumerate_modules(a, 2)
    s1 = [m for m in mods if m.dim == 1 and is_projective(m) and not is_injective(m)][0]
    i1 = [m for m in mods if m.dim == 2 and is_projective(m) and is_injective(m)][0]
    f = zero_morphism(zero_module(a), s1)
    g = [b for b in hom_basis(s1, i1) if b.is_mono()][0]
    assert classify_map(w, g).is_acyclic_cofibration
    rep = check_saturation(w, f, g)
    assert rep["verdict"] == "FAIL"
    assert rep["details"]["verdicts"] == {"f": "no", "g": "yes", "gf": "yes"}


def _saturation_verdicts(algebra, z_spec):
    """Verdict counts of ``check_saturation`` over every composable pair
    of maps f: a -> b, g: b -> c between C-classes of dimension <= 2 in
    the structure on (all, injectives) with acyclics ``z_spec``, or
    "HypothesisError" when the structure is refused."""
    try:
        w = WaldhausenData(all_injectives_pair(algebra), z_spec)
    except HypothesisError:
        return "HypothesisError"
    mods = [m for m in enumerate_modules(algebra, 2) if w.in_c(m)]
    hom = {(x, y): maps(x, y) for x, y in itertools.product(mods, repeat=2)}
    counts = {}
    for a, b, c in itertools.product(mods, repeat=3):
        for f, g in itertools.product(hom[a, b], hom[b, c]):
            verdict = check_saturation(w, f, g)["verdict"]
            counts[verdict] = counts.get(verdict, 0) + 1
    return counts


# frozen: verdict counts per corpus algebra for Z = (projectives, injectives)
SATURATION_VERDICTS = {
    "fx2": ({"PASS": 843}, {"PASS": 843}),
    "fx3": ({"PASS": 843}, {"PASS": 843}),
    "f2c2": ({"PASS": 843}, {"PASS": 843}),
    "quiver_a1": ("HypothesisError", {"PASS": 3427}),
    "quiver_a2": ("HypothesisError", {"INAPPLICABLE": 2627}),
}


@pytest.mark.parametrize("name", sorted(SATURATION_VERDICTS))
def test_saturation_decided_over_every_pair_up_to_dimension_two(name):
    """Saturation holds on every composable pair of maps between modules
    of dimension <= 2, not only on sampled ones, and the verdicts do not
    depend on the algebra's basis: a unit-preserving change of basis
    gives the same counts.  On quiver_a2 2-out-of-3 fails, so every
    instance is INAPPLICABLE."""
    algebra = load_workspace(corpus_path(name)).only_algebra()
    g = _unit_preserving_basis_change(algebra, np.random.default_rng(len(name)))
    twin = _rebased(algebra, g)
    assert twin != algebra
    for z_spec, expected in zip((spec_projectives(), spec_injectives()),
                                SATURATION_VERDICTS[name]):
        assert _saturation_verdicts(algebra, z_spec) == expected
        assert _saturation_verdicts(twin, z_spec) == expected


def test_report_shape():
    w = fx2_waldhausen()
    rng = np.random.default_rng(53)
    f, g = saturation_instance(w, rng)
    rep = check_saturation(w, f, g)
    assert set(rep) == {"check", "instance_digest", "verdict", "details"}
    assert rep["verdict"] in ("PASS", "FAIL", "INAPPLICABLE")
    assert isinstance(rep["instance_digest"], str) and rep["instance_digest"]


# ---------------------------------------------------------------------------
# partial 2-out-of-3 and pullback stability properties
# ---------------------------------------------------------------------------


def test_two_acyclic_fibrations_force_weak_equivalence():
    # if g and g o f are acyclic fibrations then f is a weak equivalence
    w = fx2_waldhausen()
    rng = np.random.default_rng(59)
    mods = enumerate_modules(w.algebra, 2)
    found = 0
    for _ in range(300):
        a = mods[int(rng.integers(0, len(mods)))]
        b = mods[int(rng.integers(0, len(mods)))]
        c = mods[int(rng.integers(0, len(mods)))]
        f = random_combination(rng, a, b)
        g = random_combination(rng, b, c)
        if not classify_map(w, g).is_acyclic_fibration:
            continue
        if not classify_map(w, g @ f).is_acyclic_fibration:
            continue
        assert is_weak_equivalence(w, f) == "yes"
        found += 1
        if found >= 8:
            break
    assert found >= 8


def test_pullback_of_acyclic_fibration_stays_right_class():
    # inside the right-orthogonal class, pulling an acyclic fibration back
    # along any map keeps the corner in the class
    w = fx2_waldhausen()
    rng = np.random.default_rng(61)
    from waldcat.algebra import pullback

    right = [m for m in enumerate_modules(w.algebra, 2) if w.pair.in_right(m)]
    found = 0
    for _ in range(60):
        base = right[int(rng.integers(0, len(right)))]
        q = random_acyclic_fibration(w, rng, base)
        if not w.pair.in_right(q.dom):
            continue
        x = right[int(rng.integers(0, len(right)))]
        g = random_combination(rng, x, base)
        corner, _, _ = pullback(q, g)
        assert w.pair.in_right(corner)
        found += 1
        if found >= 10:
            break
    assert found >= 10


# ---------------------------------------------------------------------------
# the resolution ladder
# ---------------------------------------------------------------------------


def _fx2_split_ses(sub, total_first):
    """Split sequence 0 -> sub -> total_first (+) sub -> total_first -> 0."""
    total, (inj_a, inj_s), (proj_a, _) = direct_sum([total_first, sub])
    return ShortExactSequence(inj_s, proj_a)


def _fx2_socle_ses(algebra):
    """The non-split 0 -> S -> E -> S -> 0 with E the injective envelope."""
    s = [m for m in enumerate_modules(algebra, 1) if m.dim == 1][0]
    emb = injective_embedding(s)
    _, q = cokernel(emb)
    iso = is_isomorphic(q.cod, s)
    q = (iso @ q) if (iso is not None and q.cod != s) else q
    return ShortExactSequence(emb, q)


def test_zp_ladder_two_step_resolution():
    w = fx2_waldhausen()
    a = w.algebra
    reg = regular_module(a)
    s = [m for m in enumerate_modules(a, 1) if m.dim == 1][0]
    pres0 = _fx2_split_ses(s, reg)
    pres1 = _fx2_socle_ses(a)
    assert pres0.sub == pres1.quot  # the sequences chain through S
    rows = build_zp_resolution(w, reg, [pres0, pres1], all_injectives_pair(a))
    assert len(rows) == 2
    for ses in rows:
        assert ses.validate() == []
        assert w.in_zc(ses.mid)
    assert rows[0].quot == rows[1].sub
    assert rows[1].quot == reg
    assert w.in_zc(rows[0].sub)


def test_zp_ladder_single_step_and_empty():
    w = fx2_waldhausen()
    a = w.algebra
    reg = regular_module(a)
    s = [m for m in enumerate_modules(a, 1) if m.dim == 1][0]
    rows = build_zp_resolution(w, reg, [_fx2_split_ses(s, reg)], all_injectives_pair(a))
    assert len(rows) == 1
    assert rows[0].quot == reg and w.in_zc(rows[0].mid)
    assert build_zp_resolution(w, reg, [], all_injectives_pair(a)) == []


def test_zp_ladder_validates_every_chain_it_returns(monkeypatch):
    # the single-step ladder takes the loop's path with no iteration, so it
    # too goes through _validate_chain
    w = fx2_waldhausen()
    a = w.algebra
    reg = regular_module(a)
    s = [m for m in enumerate_modules(a, 1) if m.dim == 1][0]
    validated = []
    validate = waldhausen._validate_chain

    def spy(sequences, target):
        validated.append(len(sequences))
        return validate(sequences, target)

    monkeypatch.setattr(waldhausen, "_validate_chain", spy)
    pair = all_injectives_pair(a)
    build_zp_resolution(w, reg, [_fx2_split_ses(s, reg)], pair)
    build_zp_resolution(w, reg, [_fx2_split_ses(s, reg), _fx2_socle_ses(a)], pair)
    assert validated == [1, 2]


def test_zp_ladder_with_projective_resolving_pair():
    # P = projectives; right resolutions inside P are trivial, so the
    # ladder degenerates to pushouts of the original resolution
    w = fx2_waldhausen()
    a = w.algebra
    reg = regular_module(a)
    pres = [_fx2_split_ses(reg, reg)]
    rows = build_zp_resolution(w, reg, pres, projectives_all_pair(a))
    assert len(rows) == 1
    assert rows[0].quot == reg
    assert is_projective(rows[0].mid)


def test_zp_ladder_precondition_errors():
    w = fx2_waldhausen()
    a = w.algebra
    reg = regular_module(a)
    s = [m for m in enumerate_modules(a, 1) if m.dim == 1][0]
    pair = all_injectives_pair(a)
    # resolved object outside the acyclic class
    with pytest.raises(HypothesisError):
        build_zp_resolution(w, s, [_fx2_socle_ses(a)], pair)
    # sequences that do not chain
    bad = [_fx2_split_ses(s, reg), _fx2_split_ses(s, reg)]
    assert bad[0].sub != bad[1].quot
    with pytest.raises(HypothesisError):
        build_zp_resolution(w, reg, bad, pair)
    # first sequence must end at the resolved object
    with pytest.raises(HypothesisError):
        build_zp_resolution(w, reg, [_fx2_socle_ses(a)], pair)
    # the 2-out-of-3 gate
    wl = line_waldhausen()
    regl = regular_module(wl.algebra)
    with pytest.raises(HypothesisError):
        build_zp_resolution(wl, regl, [], all_injectives_pair(wl.algebra))
