"""Tests for K0 presentations and the localization right-exactness report.

The heavy checks: the acyclic-kill presentation absorbs explicit
weak-equivalence relations (sampled), and the localization report over
F_2[x]/(x^2) and F_2[x]/(x^3) with projective acyclics yields the
expected Z -> Z -> Z/n -> 0 shape with stable invariant factors.
"""

import io
import sys
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest

from waldcat import algebra as alg
from waldcat import cli
from waldcat.algebra import (
    Algebra,
    QuiverPresentation,
    algebra_from_quiver,
    class_index,
    direct_sum,
    enumerate_modules,
    fingerprint,
    is_isomorphic,
    regular_module,
)
from waldcat.errors import HypothesisError, ValidationError
from waldcat.homological import (
    all_injectives_pair,
    is_projective,
    short_exact_sequences,
    simple_table,
    spec_all,
    spec_explicit,
    spec_injectives,
    spec_projectives,
)
from waldcat.ktheory import (
    K0Presentation,
    _harvest_relations,
    describe_group,
    k0_exact_category,
    k0_waldhausen,
    localization_k0_report,
)
from waldcat.linalg import IntegerMatrix, RowLattice, stack
from waldcat.sampling import random_weq_from
from waldcat.waldhausen import WaldhausenData
from waldcat.workspace import corpus_path, load_workspace

from reference_checks import clear_memo_tables, composition_vector, harvest_reference


def field_algebra():
    return Algebra(2, np.ones((1, 1, 1), dtype=int), [1])


def two_simples_algebra():
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 0] = 1
    c[1, 1, 1] = 1
    return Algebra(2, c, [1, 1])


def fx2_algebra():
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    return Algebra(2, c, [1, 0])


def fx3_algebra():
    c = np.zeros((3, 3, 3), dtype=int)
    for i in range(3):
        for j in range(3):
            if i + j < 3:
                c[i, j, i + j] = 1
    return Algebra(2, c, [1, 0, 0])


_CACHE = {}


def fx2_waldhausen():
    if "w2" not in _CACHE:
        a = fx2_algebra()
        _CACHE["w2"] = WaldhausenData(all_injectives_pair(a), spec_projectives())
    return _CACHE["w2"]


# ---------------------------------------------------------------------------
# presentation plumbing
# ---------------------------------------------------------------------------


def test_describe_group_cases():
    assert describe_group(()) == "trivial"
    assert describe_group((1, 1)) == "trivial"
    assert describe_group((0,)) == "Z"
    assert describe_group((2,)) == "Z/2"
    assert describe_group((1, 3, 0, 0)) == "Z^2 + Z/3"


def test_presentation_rejects_width_mismatch():
    a = field_algebra()
    mods = enumerate_modules(a, 1)
    with pytest.raises(ValidationError):
        K0Presentation(
            [m.digest for m in mods],
            mods,
            IntegerMatrix([[1, 0, 0]], cols=3),
            class_index(a, 1),
        )


def test_generator_index_matches_up_to_isomorphism():
    a = fx2_algebra()
    pres = k0_exact_category(a, spec_all(), 4)
    mods = enumerate_modules(a, 2)
    simple = [m for m in mods if m.dim == 1][0]
    reg = regular_module(a)
    left, _, _ = direct_sum([simple, reg])
    right, _, _ = direct_sum([reg, simple])
    assert pres.generator_index(left) == pres.generator_index(right)
    vec = pres.class_vector(left)
    assert sum(vec) == 1


# ---------------------------------------------------------------------------
# exact-category K0
# ---------------------------------------------------------------------------


def test_field_k0_is_free_of_rank_one():
    pres = k0_exact_category(field_algebra(), spec_all(), 3)
    assert pres.reduced_factors == (0,)
    assert pres.description == "Z"


def test_semisimple_rank_counts_simples():
    a = two_simples_algebra()
    pres = k0_exact_category(a, spec_all(), 2)
    simples = [m for m in enumerate_modules(a, 1) if m.dim == 1]
    assert len(simples) == 2
    assert pres.reduced_factors == (0, 0)


def test_fx2_projectives_presentation_is_free_on_the_regular_module():
    a = fx2_algebra()
    pres = k0_exact_category(a, spec_projectives(), 4)
    assert pres.description == "Z"
    assert all(is_projective(m) for m in pres.modules)
    # generators: 0, A, A+A
    assert sorted(m.dim for m in pres.modules) == [0, 2, 4]


def test_fx2_full_presentation_collapses_to_the_simple():
    a = fx2_algebra()
    pres = k0_exact_category(a, spec_all(), 4)
    assert pres.description == "Z"
    mods = enumerate_modules(a, 2)
    simple = [m for m in mods if m.dim == 1][0]
    reg = regular_module(a)
    # the non-split extension forces [A] = 2[S]
    row = [0] * len(pres.generators)
    row[pres.generator_index(reg)] = 1
    row[pres.generator_index(simple)] = -2
    assert pres.is_relation(row)
    # but [S] itself does not die
    assert not pres.is_relation(pres.class_vector(simple))


def test_bound_growth_keeps_invariant_factors():
    a = fx2_algebra()
    small = k0_exact_category(a, spec_all(), 3)
    large = k0_exact_category(a, spec_all(), 4)
    assert small.reduced_factors == large.reduced_factors


# ---------------------------------------------------------------------------
# the acyclic-kill presentation
# ---------------------------------------------------------------------------


def test_waldhausen_k0_needs_the_saturation_gate():
    a = fx2_algebra()
    w = WaldhausenData(
        all_injectives_pair(a), spec_projectives(), z_two_of_three=False
    )
    with pytest.raises(HypothesisError):
        k0_waldhausen(w, 3)


def test_acyclics_everything_kills_the_group():
    a = fx2_algebra()
    w = WaldhausenData(all_injectives_pair(a), spec_all())
    pres = k0_waldhausen(w, 3)
    assert pres.description == "trivial"


def test_acyclics_zero_only_change_nothing():
    a = fx2_algebra()
    zero_only = spec_explicit([m for m in enumerate_modules(a, 0)])
    w = WaldhausenData(
        all_injectives_pair(a), zero_only, z_two_of_three=True, validate=False
    )
    pres = k0_waldhausen(w, 3)
    base = k0_exact_category(a, spec_all(), 3)
    assert pres.reduced_factors == base.reduced_factors


def test_fx2_waldhausen_k0_is_z_mod_two():
    pres = k0_waldhausen(fx2_waldhausen(), 4)
    assert pres.description == "Z/2"
    assert pres.reduced_factors == (2,)


def test_sampled_weak_equivalence_relations_are_absorbed():
    """[dom f] = [cod f] for a weak equivalence f is already in the lattice."""
    w = fx2_waldhausen()
    pres = k0_waldhausen(w, 4)
    mods = [m for m in enumerate_modules(w.algebra, 2) if m.dim > 0]
    rng = np.random.default_rng(61)
    for _ in range(40):
        dom = mods[int(rng.integers(0, len(mods)))]
        f = random_weq_from(w, rng, dom)
        row = [
            a - b
            for a, b in zip(pres.class_vector(f.dom), pres.class_vector(f.cod))
        ]
        assert pres.is_relation(row)
    # the membership test is not vacuous: [S] alone is not a relation
    simple = [m for m in mods if m.dim == 1][0]
    assert not pres.is_relation(pres.class_vector(simple))


# ---------------------------------------------------------------------------
# the localization report
# ---------------------------------------------------------------------------


def test_fx2_localization_sequence():
    rep = localization_k0_report(fx2_algebra(), spec_projectives(), 4)
    assert rep["ok"]
    assert rep["verdicts"] == {
        "composite_zero": True,
        "surjective": True,
        "im_eq_ker": True,
    }
    assert rep["groups"]["KA"]["description"] == "Z"
    assert rep["groups"]["KB"]["description"] == "Z"
    assert rep["groups"]["KBwA"]["description"] == "Z/2"
    assert rep["cokernel"]["description"] == "Z/2"
    # every row of the first map is a single generator hit
    for row in rep["maps"]["KA_to_KB"]:
        assert sorted(row)[-1] == 1 and sum(row) == 1


def test_twin_algebras_f2c2_and_fx2_localize_alike():
    # F_2[C_2] = F_2[x]/(x^2) with x = g + 1: same groups in different bases
    reports = [
        localization_k0_report(
            load_workspace(corpus_path(name)).only_algebra(), spec_projectives(), 4
        )
        for name in ("f2c2", "fx2")
    ]
    assert all(rep["ok"] for rep in reports)
    for key in ("KA", "KB", "KBwA"):
        f2c2, fx2 = (rep["groups"][key]["invariant_factors"] for rep in reports)
        assert f2c2 == fx2
    assert reports[0]["cokernel"] == reports[1]["cokernel"]


def test_fx3_localization_cokernel_is_z_mod_three():
    rep = localization_k0_report(fx3_algebra(), spec_projectives(), 3)
    assert rep["ok"]
    assert rep["groups"]["KBwA"]["description"] == "Z/3"
    assert rep["cokernel"]["description"] == "Z/3"


def test_localization_invariants_stable_in_the_bound():
    reps = [
        localization_k0_report(fx2_algebra(), spec_projectives(), bound)
        for bound in (3, 4)
    ]
    for key in ("KA", "KB", "KBwA"):
        factors = [
            tuple(d for d in rep["groups"][key]["invariant_factors"] if d != 1)
            for rep in reps
        ]
        assert factors[0] == factors[1]


def test_localization_with_injective_acyclics():
    # injectives = projectives over F_2[x]/(x^2); same report either way
    rep = localization_k0_report(fx2_algebra(), spec_injectives(), 4)
    assert rep["ok"]
    assert rep["groups"]["KBwA"]["description"] == "Z/2"


CORPUS_NAMES = ["f2c2", "fx2", "fx3", "quiver_a1", "quiver_a2"]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_surjective_verdict_matches_smith_reference(name):
    # K0(B) -> K0(B, w_A) is the identity on K0(B)'s generators, so its rows
    # under the acyclic-kill relations span the lattice: every invariant
    # factor of that stack is 1.  Where the report withholds its verdicts
    # (projectives miss an injective on the quivers), the acyclic-kill
    # relations are built here.
    a = load_workspace(corpus_path(name)).only_algebra()
    rep = localization_k0_report(a, spec_projectives(), 3)
    kb = k0_exact_category(a, spec_all(), 3)
    n = len(kb.generators)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    if rep["verdicts"] is None:
        assert rep["hypotheses"]["failures"]
        kill = [identity[i] for i, m in enumerate(kb.modules) if is_projective(m)]
        relations = stack(kb.relations, IntegerMatrix(kill, cols=n))
    else:
        assert rep["verdicts"]["surjective"] is True
        assert rep["maps"]["KB_to_KBwA"] == identity
        relations = rep["presentations"]["KBwA"].relations
    onto = stack(relations, IntegerMatrix(identity, cols=n))
    assert all(d == 1 for d in RowLattice(onto).invariant_factors)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_class_index_matches_linear_search(name):
    a = load_workspace(corpus_path(name)).only_algebra()
    mods = enumerate_modules(a, 4)
    classes = class_index(a, 4)
    assert classes.modules == mods
    if name == "f2c2":  # buckets with several classes take the witness search
        assert len({fingerprint(m) for m in mods}) < len(mods)
    pres = k0_exact_category(a, spec_projectives(), 4)
    outside = 0
    for _, _, mid in short_exact_sequences(mods, 4):
        linear = next(i for i, rep in enumerate(mods) if is_isomorphic(mid, rep) is not None)
        assert classes.find(mid) == linear
        among = [g for g, m in enumerate(pres.modules) if m.digest == mods[linear].digest]
        assert pres.generator_index(mid) == (among[0] if among else None)
        outside += not among
    assert outside
    big, _, _ = direct_sum([regular_module(a)] * (4 // a.dim + 1))
    assert classes.find(big) is None
    assert classes.find(enumerate_modules(field_algebra(), 1)[1]) is None


def test_missing_injective_is_a_reported_hypothesis_failure():
    a = fx2_algebra()
    small = spec_explicit([m for m in enumerate_modules(a, 1)])
    rep = localization_k0_report(a, small, 3)
    assert not rep["ok"]
    assert not rep["hypotheses"]["injectives_contained"]
    assert any("injective" in msg for msg in rep["hypotheses"]["failures"])
    assert rep["groups"] is None
    assert rep["verdicts"] is None


def test_acyclics_equal_everything_is_surfaced_as_degenerate():
    rep = localization_k0_report(fx2_algebra(), spec_all(), 3)
    assert not rep["ok"]
    assert rep["hypotheses"]["degenerate_overlap"]
    assert rep["hypotheses"]["failures"]


def _non_unit_factors(rows):
    return [d for d in RowLattice(IntegerMatrix(rows)).invariant_factors if d != 1]


# frozen: the non-unit invariant factors of K0(B, w_A) wherever localize is
# ok, and the Cartan matrices (rows [P(S)] in simple_table order)
CLOSED_FORM_COKERNELS = {
    ("fx2", "projectives"): [2], ("fx2", "injectives"): [2],
    ("fx3", "projectives"): [3], ("fx3", "injectives"): [3],
    ("f2c2", "projectives"): [2], ("f2c2", "injectives"): [2],
    ("quiver_a1", "injectives"): [2],
}
CARTAN = {"quiver_a1": [[2, 1], [0, 1]], "quiver_a2": [[1, 0], [1, 1]]}


@pytest.mark.parametrize("bound", [3, 4])
def test_k0_matches_the_closed_form_from_composition_factors(bound):
    """K0 of all modules is Z^n (n simples) through composition factors:
    the presentation has n free factors and no torsion, and every
    harvested relation [mid] - [sub] - [quot] has zero composition
    vector.  Killing the projectives or the injectives leaves Z^n modulo
    the vectors of the P(S) or the I(S), so wherever the localization
    report is ok its K0(B, w_A) has those invariant factors."""
    specs = {"projectives": spec_projectives, "injectives": spec_injectives}
    ok = {}
    for name in CORPUS_NAMES:
        a = load_workspace(corpus_path(name)).only_algebra()
        table = simple_table(a)
        kb = k0_exact_category(a, spec_all(), bound)
        assert kb.reduced_factors == (0,) * len(table)
        vectors = [composition_vector(m) for m in kb.modules]
        for row in kb.relations.data:
            assert [sum(r * v[s] for r, v in zip(row, vectors))
                    for s in range(len(table))] == [0] * len(table)
        cartan = [composition_vector(r.projective) for r in table]
        if name in CARTAN:
            assert cartan == CARTAN[name]
        closed = {
            "projectives": _non_unit_factors(cartan),
            "injectives": _non_unit_factors([composition_vector(r.injective)
                                             for r in table]),
        }
        for cls, spec in specs.items():
            rep = localization_k0_report(a, spec(), bound)
            if rep["ok"]:
                kbw = rep["presentations"]["KBwA"]
                ok[name, cls] = list(kbw.reduced_factors)
                assert ok[name, cls] == closed[cls]
        if name == "quiver_a2":
            # |det| of a square matrix is the product of its invariant
            # factors, so these say det(Cartan) = ±1
            assert RowLattice(IntegerMatrix(cartan)).invariant_factors == (1, 1)
    assert ok == CLOSED_FORM_COKERNELS


# ---------------------------------------------------------------------------
# the relation harvest against a walk over every generator pair
# ---------------------------------------------------------------------------


HARVEST_CASES = [*CORPUS_NAMES, "F3[x]/(x^3)", "F5[x]/(x^3)"]


def _harvest_case_algebra(name):
    """A corpus algebra, or F_p[x]/(x^n) for the name "Fp[x]/(x^n)"."""
    if name.startswith("F"):
        return algebra_from_quiver(
            QuiverPresentation(int(name[1]), 1, [(0, 0, "x")], nil_bound=int(name[-2]))
        )
    return load_workspace(corpus_path(name)).only_algebra()


@pytest.mark.parametrize("bound", [3, 4])
@pytest.mark.parametrize("name", HARVEST_CASES)
def test_harvest_matches_the_walk_over_every_generator_pair(name, bound):
    # the harvest skips the pairs with a zero end term and writes their one
    # row, -[0], first; the reference walks them all and checks exactness
    # on every pair's split class
    a = _harvest_case_algebra(name)
    classes = class_index(a, bound, budget=10**12)
    nonzero = [m for m in classes.modules if m.dim]
    specs = {
        "all": spec_all(),
        "projectives": spec_projectives(),
        "explicit": spec_explicit(nonzero[::2]),
    }
    for cls, spec in specs.items():
        generators = [m for m in classes.modules if spec.contains(m)]
        assert (generators[0].dim == 0) == (cls != "explicit")
        got = _harvest_relations(generators, classes).tolist()
        assert got == harvest_reference(generators, classes), cls
        if cls != "explicit":
            assert got[0] == [-1] + [0] * (len(generators) - 1)


# ---------------------------------------------------------------------------
# work a fresh CLI process does
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, counts, original, name, sized=None):
    """Count calls of ``original`` under ``name`` wherever a waldcat module
    binds it, and the lengths of its results under ``sized``."""
    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        counts[name] += 1
        if sized:
            counts[sized] += len(result)
        return result

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "waldcat"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)


# from a cold state, the Ext groups the enumeration walked are walked once
# more by the harvest, and the pairs with a zero end term not at all, nor
# by the closure sweeps of the Waldhausen structure that localize builds:
# block_extensions calls, middle modules built, realize calls (one split
# class per dimension pair of a sweep) and is_isomorphic calls, which
# the parent's walk made just as often
COLD_COUNTS = {
    "k0": (["k0", "--dim-bound", "3"], "quiver_a1",
           {"block_extensions": 29, "modules_built": 42, "realize": 3,
            "is_isomorphic": 36}),
    "localize": (["localize", "--acyclics", "projectives", "--dim-bound", "4"], "fx2",
                 {"block_extensions": 22, "modules_built": 31, "realize": 8,
                  "is_isomorphic": 10}),
}


@pytest.mark.parametrize("command", sorted(COLD_COUNTS))
def test_cold_commands_build_each_orbit_middle_once(command, monkeypatch):
    argv, name, expected = COLD_COUNTS[command]
    counts = Counter()
    _count_calls(monkeypatch, counts, alg.block_extensions, "block_extensions",
                 sized="modules_built")
    _count_calls(monkeypatch, counts, alg.is_isomorphic, "is_isomorphic")
    realize = alg.Ext1Result.realize

    def counted_realize(self, coeffs):
        counts["realize"] += 1
        return realize(self, coeffs)

    monkeypatch.setattr(alg.Ext1Result, "realize", counted_realize)
    clear_memo_tables()
    with redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--input", str(corpus_path(name))]) == 0
    assert dict(counts) == expected
