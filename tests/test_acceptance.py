"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Each test prints a single PASS line when its criterion holds; every
assertion is exact (no numeric tolerances — all arithmetic is over F_p
and Z).  Runtime ceilings from the contract are asserted so regressions
in asymptotics fail loudly rather than silently slowing the suite.

  1  Ext dimension vs. brute-force class-count oracle
  2  Factorization contract on random morphisms over every corpus algebra
  3  Lifting contract on generated cofibration / acyclic-fibration squares
  4  Axiom suite at scale plus corrupted-predicate negative controls
  5  Degreewise-split weak equivalence == quasi-isomorphism
  6  K0 localization exactness and invariant-factor stability
  7  Frobenius projective == injective characterization
  8  Quiver witness of infinite injective dimension
  9  Span cotorsion pair: resolutions validate, orthogonal extensions split
 10  Acyclic-resolution ladder outputs and precondition errors
 11  Determinism of seeded reports
"""

import json
import time

import numpy as np
import pytest

from waldcat.algebra import (
    ShortExactSequence,
    direct_sum,
    enumerate_modules,
    hom_basis,
    indecomposable_summands,
    regular_module,
    simple_modules,
    zero_module,
    zero_morphism,
)
from waldcat.chains import dwsplit_weq, is_quasi_iso
from waldcat.errors import HypothesisError
from waldcat.homological import (
    all_injectives_pair,
    ext1,
    ext1_class_count_oracle,
    is_injective,
    is_projective,
    projectives_all_pair,
    spec_all,
    spec_explicit,
    spec_injectives,
    spec_projectives,
)
from waldcat.ktheory import k0_exact_category, localization_k0_report
from waldcat.sampling import (
    extension_instance,
    gluing_instance,
    properness_instance,
    random_acyclic_fibration,
    random_cofibration,
    random_combination,
    random_span,
    saturation_instance,
)
from waldcat.spans import span_in_I, span_in_P, span_resolve_right
from waldcat.waldhausen import (
    ExtensionInstance,
    GluingInstance,
    PropernessInstance,
    WaldhausenData,
    build_zp_resolution,
    check_extension_axiom,
    check_gluing,
    check_properness,
    check_saturation,
    factor,
    lift,
)
from waldcat.workspace import corpus_path, load_workspace

from reference_checks import iterated_cosyzygies, span_is_split
from samplers import (
    random_chain_complex,
    random_chain_map,
    random_quasi_iso,
    random_span_extension,
    random_span_in_I,
    random_span_in_P,
)

CORPUS_NAMES = ["f2c2", "fx2", "fx3", "quiver_a1", "quiver_a2"]

_CACHE = {}


def corpus_algebra(name):
    key = "alg_" + name
    if key not in _CACHE:
        _CACHE[key] = load_workspace(corpus_path(name)).only_algebra()
    return _CACHE[key]


def waldhausen_all(name):
    """C = everything, Z = everything; valid over any corpus algebra."""
    key = "wall_" + name
    if key not in _CACHE:
        a = corpus_algebra(name)
        _CACHE[key] = WaldhausenData(all_injectives_pair(a), spec_all())
    return _CACHE[key]


def fx2_standard():
    """C = everything, projective acyclics over F_2[x]/(x^2)."""
    if "fx2_std" not in _CACHE:
        a = corpus_algebra("fx2")
        _CACHE["fx2_std"] = WaldhausenData(all_injectives_pair(a),
                                           spec_projectives())
    return _CACHE["fx2_std"]


def fx2_pieces():
    a = corpus_algebra("fx2")
    mods = enumerate_modules(a, 2)
    s = [m for m in mods if m.dim == 1][0]
    reg = regular_module(a)
    socle = [b for b in hom_basis(s, reg) if b.is_mono()][0]
    socle_quot = [b for b in hom_basis(reg, s)
                  if b.is_epi() and (b @ socle).is_zero()][0]
    return a, s, reg, socle, socle_quot


def projective_pool(a, rng):
    """Zero, the indecomposable projectives, and their pairwise sums."""
    pieces = [piece for piece, _, _ in indecomposable_summands(regular_module(a))]
    pool = [zero_module(a)] + pieces
    for _ in range(3):
        i = int(rng.integers(0, len(pieces)))
        j = int(rng.integers(0, len(pieces)))
        total, _, _ = direct_sum([pieces[i], pieces[j]])
        pool.append(total)
    return pool


def _elapsed_ok(t0, ceiling, label):
    dt = time.time() - t0
    assert dt < ceiling, "%s took %.1fs (ceiling %ds)" % (label, dt, ceiling)
    return dt


def test_01_ext_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for name in ("fx2", "quiver_a1"):
        a = corpus_algebra(name)
        mods = [m for m in enumerate_modules(a, 3) if m.dim >= 1]
        for quot in mods:
            for sub in mods:
                if quot.dim + sub.dim > 4:
                    continue
                d = ext1(quot, sub).dimension
                count = ext1_class_count_oracle(quot, sub)
                assert a.p ** d == count, (name, quot.dim, sub.dim, d, count)
                checked += 1
    assert checked >= 90
    dt = _elapsed_ok(t0, 60, "ext oracle sweep")
    print("PASS 1: ext oracle agrees on %d ordered pairs (%.1fs)" % (checked, dt))


def test_02_factorization_contract():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    total = 0
    for name in CORPUS_NAMES:
        a = corpus_algebra(name)
        w_all = waldhausen_all(name)
        w_proj = WaldhausenData(projectives_all_pair(a), spec_all())
        mods = enumerate_modules(a, 2)
        proj_pool = projective_pool(a, rng)
        for k in range(500):
            if k % 5 == 4:
                w, pool = w_proj, proj_pool
            else:
                w, pool = w_all, mods
            dom = pool[int(rng.integers(0, len(pool)))]
            cod = pool[int(rng.integers(0, len(pool)))]
            f = random_combination(rng, dom, cod)
            fac = factor(w, f)
            assert (fac.p @ fac.i) == f
            assert w.in_c(fac.coker_i)
            assert w.pair.in_right(fac.ker_p)
            total += 1
    assert total == 500 * len(CORPUS_NAMES)
    dt = _elapsed_ok(t0, 60, "factorization sweep")
    print("PASS 2: factorization contract on %d random morphisms (%.1fs)"
          % (total, dt))


def test_03_lifting_contract():
    t0 = time.time()
    solved = 0
    for name, seed in (("fx2", 31), ("quiver_a1", 32)):
        w = waldhausen_all(name)
        rng = np.random.default_rng(seed)
        mods = enumerate_modules(w.algebra, 2)
        for k in range(100):
            pick = lambda: mods[int(rng.integers(0, len(mods)))]
            q = random_acyclic_fibration(w, rng, pick())
            if k % 2 == 0:
                # square through a random diagonal g: b -> x
                i = random_cofibration(w, rng, pick())
                g = random_combination(rng, i.cod, q.dom)
                top, bottom = g @ i, q @ g
            else:
                # split cofibration with independently chosen legs
                a_mod, c_mod = pick(), pick()
                _, (inj_a, _), (proj_a, proj_c) = direct_sum([a_mod, c_mod])
                i = inj_a
                top = random_combination(rng, a_mod, q.dom)
                bottom = (q @ top @ proj_a) + (
                    random_combination(rng, c_mod, q.cod) @ proj_c)
            h = lift(i, q, top, bottom)
            assert (h @ i) == top
            assert (q @ h) == bottom
            solved += 1
    assert solved == 200
    dt = _elapsed_ok(t0, 60, "lifting sweep")
    print("PASS 3: lifts found on %d generated squares (%.1fs)" % (solved, dt))


def test_04_axiom_suite_with_negative_controls():
    t0 = time.time()
    w = fx2_standard()
    rng = np.random.default_rng(404)
    counts = {}
    for label, run in (
        ("gluing", lambda: check_gluing(w, gluing_instance(w, rng))),
        ("extension", lambda: check_extension_axiom(w, extension_instance(w, rng))),
        ("properness", lambda: check_properness(w, properness_instance(w, rng))),
        ("saturation", lambda: check_saturation(w, *saturation_instance(w, rng))),
    ):
        for _ in range(300):
            rep = run()
            assert rep["verdict"] == "PASS", (label, rep)
        counts[label] = 300

    # negative controls: corrupt the acyclic class (explicit lists that are
    # not closed under the constructions) or force the 2-out-of-3 flag on a
    # structure whose intersection class genuinely lacks it
    a, s, reg, socle, socle_quot = fx2_pieces()
    z = zero_module(a)
    bad_sr = WaldhausenData(all_injectives_pair(a), spec_explicit([z, s, reg]),
                            z_two_of_three=True, validate=False)
    bad_s = WaldhausenData(all_injectives_pair(a), spec_explicit([z, s]),
                           z_two_of_three=True, validate=False)
    gi = GluingInstance(zero_morphism(z, z), zero_morphism(z, z), socle, socle,
                        zero_morphism(z, s), zero_morphism(z, reg),
                        zero_morphism(z, reg))
    assert check_gluing(bad_sr, gi)["verdict"] == "FAIL"
    top = ShortExactSequence(zero_morphism(z, z), zero_morphism(z, z))
    bottom = ShortExactSequence(socle, socle_quot)
    ei = ExtensionInstance(top, bottom, zero_morphism(z, s),
                           zero_morphism(z, reg), zero_morphism(z, s))
    assert check_extension_axiom(bad_s, ei)["verdict"] == "FAIL"
    pi = PropernessInstance("pushout", zero_morphism(z, reg),
                            zero_morphism(z, s))
    assert check_properness(bad_s, pi)["verdict"] == "FAIL"

    # forced 2-out-of-3 on the hereditary line algebra with injective
    # acyclics: 0 -> S1 is not a weak equivalence although S1 -> I1 and
    # 0 -> I1 both are
    line = corpus_algebra("quiver_a2")
    wl = WaldhausenData(all_injectives_pair(line), spec_injectives(),
                        z_two_of_three=True)
    mods = enumerate_modules(line, 2)
    s1 = [m for m in mods
          if m.dim == 1 and is_projective(m) and not is_injective(m)][0]
    i1 = [m for m in mods
          if m.dim == 2 and is_projective(m) and is_injective(m)][0]
    f = zero_morphism(zero_module(line), s1)
    g = [b for b in hom_basis(s1, i1) if b.is_mono()][0]
    assert check_saturation(wl, f, g)["verdict"] == "FAIL"

    dt = _elapsed_ok(t0, 300, "axiom suite")
    print("PASS 4: %s instances PASS, 4 corrupted controls FAIL (%.1fs)"
          % (counts, dt))


def test_05_quasi_iso_equivalence():
    t0 = time.time()
    agreements = 0
    yes_cases = 0
    for name, seed in (("fx2", 51), ("quiver_a1", 52)):
        a = corpus_algebra(name)
        rng = np.random.default_rng(seed)
        for k in range(250):
            x = random_chain_complex(rng, a, max_len=3, max_dim=3)
            if k % 3 == 0:
                f = random_quasi_iso(rng, x, max_len=2, max_dim=2)
            else:
                y = random_chain_complex(rng, a, max_len=3, max_dim=3)
                f = random_chain_map(rng, x, y)
            verdict = dwsplit_weq(f)
            assert verdict in ("yes", "no"), verdict
            assert (verdict == "yes") == is_quasi_iso(f)
            agreements += 1
            yes_cases += verdict == "yes"
    assert agreements == 500
    assert yes_cases >= 100  # the comparison is not vacuous
    dt = _elapsed_ok(t0, 300, "chain map sweep")
    print("PASS 5: weak-equivalence verdict matches quasi-isomorphism on "
          "%d maps, %d positive (%.1fs)" % (agreements, yes_cases, dt))


def test_06_k0_localization_exactness():
    t0 = time.time()
    stable = {}
    for name, expected in (("fx2", "Z/2"), ("fx3", "Z/3")):
        a = corpus_algebra(name)
        reduced = []
        for bound in (3, 4, 5):
            report = localization_k0_report(a, spec_projectives(), bound)
            assert report["ok"], (name, bound, report["hypotheses"])
            assert report["verdicts"] == {
                "composite_zero": True, "surjective": True, "im_eq_ker": True,
            }
            assert report["cokernel"]["description"] == expected
            assert report["groups"]["KA"]["description"] == "Z"
            assert report["groups"]["KB"]["description"] == "Z"
            reduced.append(report["presentations"]["KBwA"].reduced_factors)
        assert reduced[0] == reduced[1] == reduced[2], (name, reduced)
        stable[name] = reduced[0]
    # the connecting map is multiplication by 2 on the reduced groups:
    # [A] = 2[S] holds in K0(all) while [A] = [S] does not
    a, s, reg, _, _ = fx2_pieces()
    kb = k0_exact_category(a, spec_all(), 4)
    vec_a = np.array(kb.class_vector(reg))
    vec_s = np.array(kb.class_vector(s))
    assert kb.is_relation((vec_a - 2 * vec_s).tolist())
    assert not kb.is_relation((vec_a - vec_s).tolist())
    assert not kb.is_relation(vec_s.tolist())
    dt = _elapsed_ok(t0, 300, "localization sweep")
    print("PASS 6: localization sequences exact, reduced factors %s stable "
          "over bounds 3/4/5 (%.1fs)" % (stable, dt))


def test_07_frobenius_characterization():
    t0 = time.time()
    checked = 0
    for name in ("fx2", "fx3", "f2c2"):
        a = corpus_algebra(name)
        for m in enumerate_modules(a, 4):
            assert is_projective(m) == is_injective(m), (name, m.dim)
            checked += 1
    dt = _elapsed_ok(t0, 60, "frobenius sweep")
    print("PASS 7: projective == injective for %d modules over three "
          "self-injective algebras (%.1fs)" % (checked, dt))


def test_08_quiver_witness():
    t0 = time.time()
    a = corpus_algebra("quiver_a1")
    _, s1 = simple_modules(a)
    assert is_projective(s1)
    assert not is_injective(s1)
    seq = iterated_cosyzygies(s1, 10)
    assert len(seq) == 10
    assert all(m.dim > 0 for m in seq)
    dt = _elapsed_ok(t0, 60, "quiver witness")
    print("PASS 8: P1 projective, not injective; 10 reduced cosyzygies "
          "nonzero, dims %s (%.1fs)" % ([m.dim for m in seq], dt))


def test_09_span_cotorsion_pair():
    t0 = time.time()
    a = corpus_algebra("fx2")
    resolved = 0
    split = 0
    for seed, pair in ((91, all_injectives_pair(a)),
                       (92, projectives_all_pair(a))):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            x = random_span(rng, a, 2)
            ses = span_resolve_right(x, pair)
            assert ses.quot == x
            assert span_in_I(ses.sub, pair)
            assert span_in_P(ses.mid, pair)
            resolved += 1
        for _ in range(50):
            quot = random_span_in_P(pair, rng, 2)
            sub = random_span_in_I(pair, rng, 2)
            ext = random_span_extension(rng, sub, quot)
            assert span_is_split(ext)
            split += 1
    assert resolved == 100 and split == 100
    dt = _elapsed_ok(t0, 300, "span sweep")
    print("PASS 9: %d span resolutions validate, %d orthogonal extensions "
          "split (%.1fs)" % (resolved, split, dt))


def test_10_resolution_ladder():
    t0 = time.time()
    # valid input over the Frobenius algebra: resolve the regular module
    a, s, reg, socle, socle_quot = fx2_pieces()
    w = fx2_standard()
    total, (inj_s, _), (_, proj_reg) = direct_sum([s, reg])
    split_ses = ShortExactSequence(inj_s, proj_reg)
    socle_ses = ShortExactSequence(socle, socle_quot)
    rows = build_zp_resolution(w, reg, [split_ses, socle_ses],
                               all_injectives_pair(a))
    assert rows and rows[-1].quot == reg
    for idx, ses in enumerate(rows):
        assert w.in_z(ses.mid) and w.in_c(ses.mid), idx
        if idx + 1 < len(rows):
            assert ses.quot == rows[idx + 1].sub, idx

    # valid input over the hereditary line algebra: length-one projective
    # resolution of the source-vertex simple stays length <= 1 in Z-and-P
    line = corpus_algebra("quiver_a2")
    wl = WaldhausenData(all_injectives_pair(line), spec_all())
    pair_p = projectives_all_pair(line)
    pieces = [piece for piece, _, _ in
              indecomposable_summands(regular_module(line))]
    p0 = [m for m in pieces if m.dim == 2][0]
    p1 = [m for m in pieces if m.dim == 1][0]
    s0 = [m for m in simple_modules(line) if not is_projective(m)][0]
    mono = [b for b in hom_basis(p1, p0) if b.is_mono()][0]
    epi = [b for b in hom_basis(p0, s0)
           if b.is_epi() and (b @ mono).is_zero()][0]
    rows = build_zp_resolution(wl, s0, [ShortExactSequence(mono, epi)], pair_p)
    assert len(rows) <= 1 + 1
    for ses in rows:
        assert wl.in_z(ses.mid) and pair_p.in_left(ses.mid)
    assert rows[-1].quot == s0

    # corrupted inputs report the precise failed precondition
    ungated = WaldhausenData(all_injectives_pair(a), spec_explicit([zero_module(a)]),
                             z_two_of_three=False, validate=False)
    with pytest.raises(HypothesisError, match="2-out-of-3"):
        build_zp_resolution(ungated, reg, [], all_injectives_pair(a))
    w_proj_acyclics = WaldhausenData(all_injectives_pair(a), spec_projectives())
    with pytest.raises(HypothesisError, match="Z-intersect-C"):
        build_zp_resolution(w_proj_acyclics, s, [socle_ses],
                            all_injectives_pair(a))
    with pytest.raises(HypothesisError, match="must end at"):
        build_zp_resolution(w, reg, [socle_ses], all_injectives_pair(a))
    with pytest.raises(HypothesisError, match="do not chain"):
        build_zp_resolution(w, reg, [split_ses, split_ses],
                            all_injectives_pair(a))
    with pytest.raises(HypothesisError, match="not in P"):
        build_zp_resolution(w, reg, [split_ses], projectives_all_pair(a))

    dt = _elapsed_ok(t0, 60, "resolution ladder")
    print("PASS 10: ladders valid on two instances, five corrupted inputs "
          "named precisely (%.1fs)" % dt)


def test_11_determinism():
    t0 = time.time()
    # seeded axiom-instance digests repeat exactly
    w = fx2_standard()

    def digest_batch():
        rng = np.random.default_rng(111)
        out = []
        for _ in range(10):
            out.append(check_gluing(w, gluing_instance(w, rng))["instance_digest"])
            out.append(check_saturation(w, *saturation_instance(w, rng))["instance_digest"])
        return out

    assert digest_batch() == digest_batch()

    # presentation and localization reports serialize byte-identically
    a = corpus_algebra("fx2")
    pres_bytes = [
        json.dumps(k0_exact_category(a, spec_all(), 4).as_dict(), sort_keys=True)
        for _ in range(2)
    ]
    assert pres_bytes[0] == pres_bytes[1]

    def report_bytes():
        report = localization_k0_report(a, spec_projectives(), 4)
        report.pop("presentations")
        return json.dumps(report, sort_keys=True)

    assert report_bytes() == report_bytes()
    dt = _elapsed_ok(t0, 60, "determinism checks")
    print("PASS 11: repeated seeded runs byte-identical (%.1fs)" % dt)
