"""Tests for bounded complexes and the degreewise-split structure.

The load-bearing check is the agreement property: the three-valued
weak-equivalence decision derived from the (everything, contractibles)
pair answers "yes" exactly on quasi-isomorphisms, with no indeterminate
verdicts, across random chain maps and constructed quasi-isomorphisms
over two corpus algebras.
"""

import itertools

import numpy as np
import pytest

from waldcat.algebra import (
    Algebra,
    Morphism,
    QuiverPresentation,
    algebra_from_quiver,
    block,
    direct_sum,
    enumerate_modules,
    hom_basis,
    identity_morphism,
    is_isomorphic,
    regular_module,
    solve_maps,
    zero_morphism,
)
from waldcat.chains import (
    ChainComplex,
    ChainMap,
    chain_factor,
    cone,
    cone_embedding,
    dwsplit_weq,
    graded_map_equations,
    homology,
    is_contractible,
    is_exact,
    is_quasi_iso,
)
from waldcat.diagrams import (
    DiagramSES,
    diagram_cokernel,
    diagram_identity,
    diagram_kernel,
    diagram_sum,
)
from waldcat.errors import ValidationError
from waldcat.linalg import FieldMatrix

from samplers import (
    map_kernel,
    random_chain_complex,
    random_chain_extension,
    random_chain_map,
    random_quasi_iso,
)


def fx2_algebra():
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    return Algebra(2, c, [1, 0])


def fx2_over_f3():
    """F_3[x]/(x^2): over an odd prime the signs of d h -+ h d matter."""
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    return Algebra(3, c, [1, 0])


def loop_arrow_algebra():
    return algebra_from_quiver(
        QuiverPresentation(
            2,
            2,
            [(0, 0, "a0"), (0, 1, "a1")],
            relations=[[(1, ["a0", "a0"])], [(1, ["a0", "a1"])]],
        )
    )


_CACHE = {}


def fx2_parts():
    if "fx2" not in _CACHE:
        a = fx2_algebra()
        reg = regular_module(a)
        simple = [m for m in enumerate_modules(a, 1) if m.dim == 1][0]
        x_mul = [f for f in hom_basis(reg, reg) if not f.is_iso() and not f.is_zero()][0]
        socle = [f for f in hom_basis(simple, reg) if f.is_mono()][0]
        _CACHE["fx2"] = (a, reg, simple, x_mul, socle)
    return _CACHE["fx2"]


def identity_complex():
    a, reg, _, _, _ = fx2_parts()
    return ChainComplex(a, 0, [reg, reg], [identity_morphism(reg)])


def x_multiplication_complex():
    a, reg, _, x_mul, _ = fx2_parts()
    return ChainComplex(a, 0, [reg, reg], [x_mul])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_complex_requires_matching_differential_count():
    a, reg, _, _, _ = fx2_parts()
    with pytest.raises(ValidationError):
        ChainComplex(a, 0, [reg, reg], [])


def test_complex_rejects_wrong_endpoints():
    a, reg, simple, _, _ = fx2_parts()
    with pytest.raises(ValidationError):
        ChainComplex(a, 0, [reg, reg], [zero_morphism(simple, reg)])


def test_complex_rejects_nonzero_composite():
    a, reg, _, _, _ = fx2_parts()
    ident = identity_morphism(reg)
    with pytest.raises(ValidationError):
        ChainComplex(a, 0, [reg, reg, reg], [ident, ident])


def test_chain_map_must_commute_with_differentials():
    a, reg, _, x_mul, _ = fx2_parts()
    cx = x_multiplication_complex()
    good = ChainMap(cx, cx, {0: x_mul, 1: x_mul})
    assert good.component(0) == x_mul
    bad = {0: identity_morphism(reg), 1: x_mul}
    with pytest.raises(ValidationError):
        ChainMap(cx, cx, bad)


def test_out_of_window_accessors_are_zero():
    cx = x_multiplication_complex()
    assert cx.obj(7).dim == 0
    assert cx.diff(9).is_zero()


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def test_identity_complex_has_zero_homology():
    cx = identity_complex()
    assert homology(cx, 0).dim == 0
    assert homology(cx, 1).dim == 0


def test_x_multiplication_complex_has_simple_homology():
    a, _, simple, _, _ = fx2_parts()
    cx = x_multiplication_complex()
    assert is_isomorphic(homology(cx, 0), simple) is not None
    assert is_isomorphic(homology(cx, 1), simple) is not None


def test_single_module_homology_is_itself():
    a, _, simple, _, _ = fx2_parts()
    cx = ChainComplex(a, 0, [simple], [])
    assert is_isomorphic(homology(cx, 0), simple) is not None
    assert homology(cx, 3).dim == 0
    assert homology(cx, -2).dim == 0


# ---------------------------------------------------------------------------
# quasi-isomorphisms
# ---------------------------------------------------------------------------


def test_identity_chain_map_is_quasi_iso():
    cx = x_multiplication_complex()
    assert is_quasi_iso(diagram_identity(cx))


def test_inclusion_of_zero_into_contractible_is_quasi_iso():
    a, _, _, _, _ = fx2_parts()
    f = ChainMap(ChainComplex(a, 0, [], []), identity_complex(), {})
    assert is_quasi_iso(f)


def test_socle_inclusion_in_degree_zero_is_not_quasi_iso():
    a, reg, simple, _, socle = fx2_parts()
    f = ChainMap(ChainComplex(a, 0, [simple], []), ChainComplex(a, 0, [reg], []),
                 {0: socle})
    assert not is_quasi_iso(f)


# ---------------------------------------------------------------------------
# contractibility and cones
# ---------------------------------------------------------------------------


def test_zero_complex_is_contractible():
    a, _, _, _, _ = fx2_parts()
    assert is_contractible(ChainComplex(a, 0, [], []))


def test_identity_complex_is_contractible():
    assert is_contractible(identity_complex())


def test_x_multiplication_complex_is_not_contractible():
    assert not is_contractible(x_multiplication_complex())


def test_exact_but_nonsplit_complex_is_not_contractible():
    """Exactness does not imply contractibility: the complex carrying the
    nonsplit socle extension is exact yet admits no contraction."""
    a, reg, simple, _, socle = fx2_parts()
    quot = [f for f in hom_basis(reg, simple) if f.is_epi() and (f @ socle).is_zero()][0]
    cx = ChainComplex(a, 0, [simple, reg, simple], [quot, socle])
    assert is_exact(cx)
    assert not is_contractible(cx)


def test_cone_of_identity_is_contractible_on_samples():
    a, _, _, _, _ = fx2_parts()
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = random_chain_complex(rng, a, 3, 3)
        assert is_contractible(cone(diagram_identity(x)))


def test_cone_embedding_is_degreewise_split_mono():
    x = x_multiplication_complex()
    emb = cone_embedding(x)
    assert emb.is_mono()
    for n in x.degrees():
        comp = emb.component(n)
        assert comp.cod.dim == comp.dom.dim + x.obj(n - 1).dim


def test_cone_detects_quasi_iso():
    a, reg, simple, _, socle = fx2_parts()
    f = ChainMap(ChainComplex(a, 0, [simple], []), ChainComplex(a, 0, [reg], []),
                 {0: socle})
    assert not is_exact(cone(f))
    g = diagram_identity(x_multiplication_complex())
    assert is_exact(cone(g))


# ---------------------------------------------------------------------------
# kernels, cokernels, factorization
# ---------------------------------------------------------------------------


def test_chain_kernel_and_cokernel_shapes():
    a, _, _, _, _ = fx2_parts()
    rng = np.random.default_rng(29)
    x = random_chain_complex(rng, a, 3, 2)
    y = random_chain_complex(rng, a, 3, 2)
    total, (inj_x, _), (_, proj_y) = diagram_sum(x, y)
    cok_cx, _ = diagram_cokernel(inj_x)
    ker_cx, _ = diagram_kernel(proj_y)
    for n in total.degrees():
        assert cok_cx.obj(n).dim == y.obj(n).dim
        assert ker_cx.obj(n).dim == x.obj(n).dim


def test_chain_factor_contract():
    a, reg, simple, _, socle = fx2_parts()
    f = ChainMap(ChainComplex(a, 0, [simple], []), ChainComplex(a, 0, [reg], []),
                 {0: socle})
    i, p, middle = chain_factor(f)
    assert (p @ i) == f
    assert i.is_mono()
    assert p.is_epi()
    ker_cx, _ = diagram_kernel(p)
    assert is_contractible(ker_cx)


def test_chain_factor_on_random_maps():
    a = loop_arrow_algebra()
    rng = np.random.default_rng(31)
    for _ in range(8):
        x = random_chain_complex(rng, a, 2, 2)
        y = random_chain_complex(rng, a, 2, 2)
        f = random_chain_map(rng, x, y)
        i, p, _ = chain_factor(f)
        assert (p @ i) == f


# ---------------------------------------------------------------------------
# the weak-equivalence decision
# ---------------------------------------------------------------------------


def test_weq_identity_is_yes():
    assert dwsplit_weq(diagram_identity(x_multiplication_complex())) == "yes"


def test_weq_socle_inclusion_is_no():
    a, reg, simple, _, socle = fx2_parts()
    f = ChainMap(ChainComplex(a, 0, [simple], []), ChainComplex(a, 0, [reg], []),
                 {0: socle})
    assert dwsplit_weq(f) == "no"
    assert dwsplit_weq(f, z_two_of_three=False) == "indeterminate"


def test_weq_constructed_quasi_isos_are_yes():
    a, _, _, _, _ = fx2_parts()
    rng = np.random.default_rng(37)
    for _ in range(15):
        x = random_chain_complex(rng, a, 3, 2)
        f = random_quasi_iso(rng, x)
        assert is_quasi_iso(f)
        assert dwsplit_weq(f) == "yes"


def test_weq_agrees_with_quasi_iso_on_random_maps():
    for algebra, seed in ((fx2_algebra(), 41), (loop_arrow_algebra(), 43)):
        rng = np.random.default_rng(seed)
        for t in range(60):
            x = random_chain_complex(rng, algebra, 3, 3)
            if t % 3 == 0:
                f = random_quasi_iso(rng, x)
            else:
                y = random_chain_complex(rng, algebra, 3, 3)
                f = random_chain_map(rng, x, y)
            verdict = dwsplit_weq(f)
            assert verdict in ("yes", "no")
            assert (verdict == "yes") == is_quasi_iso(f)


def test_random_chain_maps_commute_over_odd_prime():
    # over F_3 a chain map needs d f - f d = 0, which differs from d f + f d = 0
    c = np.zeros((2, 2, 2), dtype=int)
    c[0, 0, 0] = 1
    c[0, 1, 1] = 1
    c[1, 0, 1] = 1
    a = Algebra(3, c, [1, 0])
    rng = np.random.default_rng(5)
    both_nonzero = 0
    for _ in range(40):
        x = random_chain_complex(rng, a, 3, 2)
        y = random_chain_complex(rng, a, 3, 2)
        if any(not d.is_zero() for d in x.differentials) and any(
            not d.is_zero() for d in y.differentials
        ):
            both_nonzero += 1
        f = random_chain_map(rng, x, y)
        for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
            assert (y.diff(n) @ f.component(n)) == (f.component(n - 1) @ x.diff(n))
    assert both_nonzero >= 5


def test_weq_verdict_matches_cone_exactness():
    a, _, _, _, _ = fx2_parts()
    rng = np.random.default_rng(47)
    for _ in range(20):
        x = random_chain_complex(rng, a, 3, 2)
        y = random_chain_complex(rng, a, 3, 2)
        f = random_chain_map(rng, x, y)
        assert (dwsplit_weq(f) == "yes") == is_exact(cone(f))


# ---------------------------------------------------------------------------
# exactness has 2-out-of-3 in degreewise-split extensions
# ---------------------------------------------------------------------------


def test_exactness_two_of_three_with_forced_exact_ends():
    a, _, _, _, _ = fx2_parts()
    rng = np.random.default_rng(53)
    for _ in range(15):
        exact_sub = cone(diagram_identity(random_chain_complex(rng, a, 2, 2)))
        exact_quot = cone(diagram_identity(random_chain_complex(rng, a, 2, 2)))
        other = random_chain_complex(rng, a, 2, 2)
        _, _, mid = random_chain_extension(rng, exact_sub, exact_quot)
        assert is_exact(mid)
        _, _, mid2 = random_chain_extension(rng, exact_sub, other)
        assert is_exact(mid2) == is_exact(other)
        _, _, mid3 = random_chain_extension(rng, other, exact_quot)
        assert is_exact(mid3) == is_exact(other)


def test_random_extension_strands_validate():
    a = loop_arrow_algebra()
    rng = np.random.default_rng(59)
    for _ in range(10):
        sub = random_chain_complex(rng, a, 2, 2)
        quot = random_chain_complex(rng, a, 2, 2)
        mono, epi, mid = random_chain_extension(rng, sub, quot)
        assert mono.is_mono()
        assert epi.is_epi()
        assert DiagramSES(mono, epi).validate() == []
        for n in mid.degrees():
            assert mid.obj(n).dim == sub.obj(n).dim + quot.obj(n).dim


# ---------------------------------------------------------------------------
# graded map unknowns: chain maps, connecting maps, contracting homotopies
# ---------------------------------------------------------------------------


def _graded_solutions(x, y, degree, cap=729):
    """Every solution of the homogeneous ``graded_map_equations``, as
    {n: h_n} with h_n checked to be a module map; an empty list when the
    solutions number more than ``cap``."""
    unknowns, equations = graded_map_equations(x, y, degree)
    basis = map_kernel(unknowns, equations)
    p = x.algebra.p
    if p ** len(basis) > cap:
        return []
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        sol = {}
        for v, n in enumerate(x.degrees()):
            mat = FieldMatrix.zeros(p, y.obj(n + degree).dim, x.obj(n).dim)
            for c, entry in zip(coeffs, basis):
                mat = mat + FieldMatrix(p, entry[v].matrix.a * c)
            sol[n] = Morphism(x.obj(n), y.obj(n + degree), mat)
        out.append(sol)
    return out


@pytest.mark.parametrize("algebra_fn, seed", [(fx2_over_f3, 61), (loop_arrow_algebra, 67)])
def test_graded_map_var_degree_zero_solutions_are_chain_maps(algebra_fn, seed):
    algebra = algebra_fn()
    rng = np.random.default_rng(seed)
    checked = nonzero = 0
    for _ in range(12):
        x = random_chain_complex(rng, algebra, 3, 2)
        y = random_chain_complex(rng, algebra, 3, 2)
        for sol in _graded_solutions(x, y, 0):
            ChainMap(x, y, sol)  # check=True: d f == f d in every degree
            checked += 1
            nonzero += any(not c.is_zero() for c in sol.values())
    assert checked > 50 and nonzero > 0


@pytest.mark.parametrize("algebra_fn, seed", [(fx2_over_f3, 71), (loop_arrow_algebra, 73)])
def test_graded_map_var_degree_minus_one_gives_extensions(algebra_fn, seed):
    algebra = algebra_fn()
    rng = np.random.default_rng(seed)
    twisted = 0
    for _ in range(12):
        sub = random_chain_complex(rng, algebra, 3, 2)
        quot = random_chain_complex(rng, algebra, 3, 2)
        lo, hi = min(sub.lo, quot.lo), max(sub.hi, quot.hi)
        objects = [direct_sum([sub.obj(n), quot.obj(n)])[0] for n in range(lo, hi + 1)]
        for sol in _graded_solutions(quot, sub, -1):
            diffs = [
                block([[sub.diff(n), sol.get(n)], [None, quot.diff(n)]])
                for n in range(lo + 1, hi + 1)
            ]
            for k in range(len(diffs) - 1):
                assert (diffs[k] @ diffs[k + 1]).is_zero()
            ChainComplex(algebra, lo, objects, diffs)
            twisted += any(not c.is_zero() for c in sol.values())
    assert twisted > 0


@pytest.mark.parametrize("algebra_fn, seed", [(fx2_over_f3, 79), (loop_arrow_algebra, 83)])
def test_graded_map_var_degree_one_finds_contractions(algebra_fn, seed):
    algebra = algebra_fn()
    rng = np.random.default_rng(seed)
    not_exact = 0
    for _ in range(10):
        x = random_chain_complex(rng, algebra, 3, 2)
        c = cone(diagram_identity(x))
        sol = solve_maps(*graded_map_equations(c, c, 1, rhs=diagram_identity(c)))
        assert sol is not None
        h = {n: Morphism(hn.dom, hn.cod, hn.matrix) for n, hn in zip(c.degrees(), sol)}
        for n in c.degrees():
            total = c.diff(n + 1) @ h[n]
            if n - 1 in h:
                total = total + (h[n - 1] @ c.diff(n))
            assert total == identity_morphism(c.obj(n))
        if not is_exact(x):
            not_exact += 1
            assert solve_maps(*graded_map_equations(x, x, 1, diagram_identity(x))) is None
    assert not_exact > 0
    cx = x_multiplication_complex()
    assert solve_maps(*graded_map_equations(cx, cx, 1, diagram_identity(cx))) is None
