"""Finite-dimensional algebras over prime fields and their module categories.

An algebra is stored by structure constants: ``c[i][j][k]`` is the
coefficient of basis element ``e_k`` in the product ``e_i * e_j``.  A left
module of dimension ``n`` is stored as one ``n x n`` action matrix per
algebra basis element.  Morphisms are matrices intertwining the actions.

On top of the raw data the module provides the constructions a small
abelian category needs: kernels and cokernels with their induced actions,
direct sums, pushouts, pullbacks, hom spaces, short exact sequences,
Ext^1 (the one engine, ``ext1``), submodule enumeration, simple modules,
a bounded enumeration of all isomorphism classes up to a dimension limit,
and an isomorphism test that produces an explicit invertible intertwiner.
"""

import functools
import hashlib
import inspect
import itertools

import numpy as np

from .errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    ValidationError,
)
from .linalg import (
    MODULUS_LIMIT,
    FieldMatrix,
    column_space_basis,
    is_prime,
    kernel_basis,
    pivot_blocks,
    quotient_coordinates,
    rank,
    rank_stack,
    solve,
)

DEFAULT_BUDGET = 10**8

_MAX_QUIVER_PATHS = 20000


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        else:
            h.update(str(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def memoized(fn):
    """``fn`` with a table of its results, keyed by the arguments with defaults
    applied, each Algebra, Module or Morphism replaced by its digest and
    each FieldMatrix by (p, shape, bytes), so equal arguments built apart
    share one entry and the table holds no reference to them.  ``fn``
    takes positional-or-keyword parameters only and returns immutable
    data, since every caller gets the stored value; a call that raises
    stores nothing.  Keywords are placed by a table of parameter positions
    built here, so a keyword call shares the entry of the positional one.
    ``cache_clear()`` empties the table."""
    sig = inspect.signature(fn)
    position = {name: i for i, name in enumerate(sig.parameters)}
    defaults = tuple(p.default for p in sig.parameters.values())
    required = sum(d is inspect.Parameter.empty for d in defaults)
    table = {}

    def bind(args, kwargs):
        """``args`` with ``kwargs`` put at their positions and the
        remaining defaults filled in, raising TypeError as a call would."""
        full = list(args) + list(defaults[len(args):])
        for name, value in kwargs.items():
            i = position.get(name)
            if i is None:
                raise TypeError("%s() got an unexpected keyword argument %r"
                                % (fn.__name__, name))
            if i < len(args):
                raise TypeError("%s() got multiple values for argument %r"
                                % (fn.__name__, name))
            full[i] = value
        missing = [name for name, a in zip(position, full) if a is inspect.Parameter.empty]
        if missing:
            raise TypeError("%s() missing required argument %r" % (fn.__name__, missing[0]))
        return tuple(full)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs or len(args) < required:
            args = bind(args, kwargs)
        else:
            args += defaults[len(args):]
        key = tuple([_memo_key(a) for a in args])
        if key not in table:
            table[key] = fn(*args)
        return table[key]

    wrapper.cache_clear = table.clear
    return wrapper


def _memo_key(arg):
    """What ``memoized`` stores for one argument in place of the argument."""
    if isinstance(arg, (Algebra, Module, Morphism)):
        return arg.digest
    if isinstance(arg, FieldMatrix):
        return (arg.p, arg.shape, arg.a.tobytes())
    return arg


class Algebra:
    """Associative unital algebra over F_p given by structure constants."""

    def __init__(self, p, structure, unit, basis_labels=None):
        self.p = int(p)
        if not (self.p < MODULUS_LIMIT and is_prime(self.p)):
            raise ValidationError(
                "p = %d must be a prime below %d" % (self.p, MODULUS_LIMIT)
            )
        tensor = np.asarray(structure, dtype=np.int64) % self.p
        if tensor.ndim != 3 or len(set(tensor.shape)) != 1:
            raise ValidationError("structure constants must form a cubic tensor")
        self.dim = int(tensor.shape[0])
        self.structure = tensor
        self.structure.setflags(write=False)
        unit_vec = np.asarray(unit, dtype=np.int64) % self.p
        if unit_vec.shape != (self.dim,):
            raise ValidationError("unit vector length must equal the algebra dimension")
        self.unit = unit_vec
        self.unit.setflags(write=False)
        if basis_labels is not None and len(basis_labels) != self.dim:
            raise ValidationError("one basis label per basis element expected")
        self.basis_labels = tuple(basis_labels) if basis_labels is not None else None
        self.digest = _digest(b"algebra", self.p, self.structure.tobytes(), self.unit.tobytes())

    def left_multiplication(self, i):
        """Matrix of left multiplication by basis element e_i on the algebra."""
        # column j of the result holds the coordinates of e_i * e_j
        return FieldMatrix(self.p, self.structure[i].T)

    def right_multiplication(self, i):
        """Matrix of right multiplication by e_i, acting on column vectors."""
        # column j holds the coordinates of e_j * e_i
        return FieldMatrix(self.p, self.structure[:, i, :].T)

    def multiply(self, x, y):
        """Product of two coordinate vectors."""
        x = np.asarray(x, dtype=np.int64) % self.p
        y = np.asarray(y, dtype=np.int64) % self.p
        out = np.einsum("i,j,ijk->k", x, y, self.structure) % self.p
        return out

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.digest == other.digest

    def __hash__(self):
        return hash(self.digest)

    def __repr__(self):
        return "Algebra(p=%d, dim=%d)" % (self.p, self.dim)


def validate_algebra(algebra):
    """Check associativity and the unit law; report every failing index.

    Returns a dict with an overall flag plus the lists of offending
    triples ``(i, j, k)`` where ``(e_i e_j) e_k != e_i (e_j e_k)`` and of
    basis indices where the unit fails to act as identity.
    """
    p = algebra.p
    d = algebra.dim
    c = algebra.structure
    assoc_failures = []
    for i in range(d):
        for j in range(d):
            left = c[i, j]  # coordinates of e_i e_j
            for k in range(d):
                # (e_i e_j) e_k
                lhs = np.einsum("m,mn->n", left, c[:, k, :]) % p
                # e_i (e_j e_k)
                rhs = np.einsum("m,mn->n", c[j, k], c[i, :, :]) % p
                if not np.array_equal(lhs, rhs):
                    assoc_failures.append((i, j, k))
    unit_failures = []
    for i in range(d):
        basis_vec = np.zeros(d, dtype=np.int64)
        basis_vec[i] = 1
        if not np.array_equal(algebra.multiply(algebra.unit, basis_vec), basis_vec):
            unit_failures.append(i)
        elif not np.array_equal(algebra.multiply(basis_vec, algebra.unit), basis_vec):
            unit_failures.append(i)
    return {
        "ok": not assoc_failures and not unit_failures,
        "associativity_failures": assoc_failures,
        "unit_failures": unit_failures,
    }


class QuiverPresentation:
    """Quiver with relations and a nilpotency bound, over a prime field.

    Arrows are (source, target, label) triples.  A relation is a list of
    (coefficient, path) terms where a path lists arrow labels in traversal
    order: the first label is the first arrow walked.  All paths of length
    at least ``nil_bound`` are declared zero.
    """

    def __init__(self, p, vertices, arrows, relations=(), nil_bound=2):
        self.p = int(p)
        self.vertices = int(vertices)
        self.arrows = tuple((int(s), int(t), str(lbl)) for s, t, lbl in arrows)
        self.relations = tuple(
            tuple((int(c) % self.p, tuple(str(x) for x in path)) for c, path in rel)
            for rel in relations
        )
        self.nil_bound = int(nil_bound)
        if self.vertices < 1:
            raise ValidationError("quiver needs at least one vertex")
        if self.nil_bound < 2:
            raise ValidationError("nilpotency bound must be at least 2")
        labels = [lbl for _, _, lbl in self.arrows]
        if len(labels) != len(set(labels)):
            raise ValidationError("arrow labels must be distinct")
        for s, t, lbl in self.arrows:
            if not (0 <= s < self.vertices and 0 <= t < self.vertices):
                raise ValidationError("arrow %r has an out-of-range endpoint" % lbl)


def algebra_from_quiver(q):
    """Compile a quiver presentation into a structure-constant algebra.

    The basis consists of the paths of length below the nilpotency bound,
    reduced modulo the two-sided ideal generated by the relations; basis
    labels record the surviving paths (arrows joined in traversal order).
    """
    p = q.p
    by_label = {lbl: idx for idx, (_, _, lbl) in enumerate(q.arrows)}

    # paths are (source_vertex, tuple of arrow indices in traversal order)
    def target(path):
        src, steps = path
        return src if not steps else q.arrows[steps[-1]][1]

    paths = [(v, ()) for v in range(q.vertices)]
    frontier = list(paths)
    for _ in range(q.nil_bound - 1):
        nxt = []
        for path in frontier:
            tail = target(path)
            for idx, (s, t, _) in enumerate(q.arrows):
                if s == tail:
                    nxt.append((path[0], path[1] + (idx,)))
        if not nxt:
            break  # no path extends, so no longer path exists
        paths.extend(nxt)
        frontier = nxt
        if len(paths) > _MAX_QUIVER_PATHS:
            raise BudgetExceededError("quiver has too many paths below the bound")
    paths.sort(key=lambda pr: (len(pr[1]), pr[1], pr[0]))
    path_index = {path: i for i, path in enumerate(paths)}
    n_paths = len(paths)

    def relation_vector(rel):
        """Relation as a vector in the path space; None when it dies entirely."""
        vec = np.zeros(n_paths, dtype=np.int64)
        endpoints = None
        for coeff, labels in rel:
            if not labels:
                raise ValidationError("relations may not contain trivial paths")
            steps = []
            for lbl in labels:
                if lbl not in by_label:
                    raise ValidationError("unknown arrow label %r in relation" % lbl)
                steps.append(by_label[lbl])
            for a, b in zip(steps, steps[1:]):
                if q.arrows[a][1] != q.arrows[b][0]:
                    raise ValidationError(
                        "relation path %r is not composable" % (labels,)
                    )
            src = q.arrows[steps[0]][0]
            tgt = q.arrows[steps[-1]][1]
            if endpoints is None:
                endpoints = (src, tgt)
            elif endpoints != (src, tgt):
                raise ValidationError("relation mixes paths with different endpoints")
            if len(steps) >= q.nil_bound:
                continue
            vec[path_index[(src, tuple(steps))]] = (
                vec[path_index[(src, tuple(steps))]] + coeff
            ) % p
        return vec, endpoints

    # span of x * r * y over all relations r and path pairs (x, y)
    ideal_rows = []
    for rel in q.relations:
        vec, endpoints = relation_vector(rel)
        if endpoints is None:
            continue
        src, tgt = endpoints
        support = [i for i in range(n_paths) if vec[i]]
        for y in paths:
            if target(y) != src:
                continue
            for x in paths:
                if x[0] != tgt:
                    continue
                row = np.zeros(n_paths, dtype=np.int64)
                alive = False
                for i in support:
                    mid_src, mid_steps = paths[i]
                    steps = y[1] + mid_steps + x[1]
                    if len(steps) >= q.nil_bound:
                        continue
                    j = path_index[(y[0], steps)]
                    row[j] = (row[j] + int(vec[i])) % p
                    alive = True
                if alive and row.any():
                    ideal_rows.append(row)
    # column t of q holds the coordinates of path t modulo the ideal
    ideal = np.array(ideal_rows, dtype=np.int64).reshape(len(ideal_rows), n_paths)
    q_mat, basis_paths = quotient_coordinates(FieldMatrix(p, ideal))
    pos = {i: j for j, i in enumerate(basis_paths)}
    n_basis = len(basis_paths)

    structure = np.zeros((n_basis, n_basis, n_basis), dtype=np.int64)
    for bi, i_path in enumerate(basis_paths):
        for bj, j_path in enumerate(basis_paths):
            left = paths[i_path]
            right = paths[j_path]
            # product left * right applies right first, then left
            if target(right) != left[0]:
                continue
            steps = right[1] + left[1]
            if len(steps) >= q.nil_bound:
                continue
            structure[bi, bj, :] = q_mat.a[:, path_index[(right[0], steps)]]
    unit = np.zeros(n_basis, dtype=np.int64)
    for v in range(q.vertices):
        trivial_idx = path_index[(v, ())]
        if trivial_idx not in pos:
            raise InternalInconsistencyError("trivial path eliminated by relations")
        unit[pos[trivial_idx]] = 1

    def label_for(path_idx):
        src, steps = paths[path_idx]
        if not steps:
            return "e%d" % src
        return "*".join(q.arrows[s][2] for s in steps)

    labels = [label_for(i) for i in basis_paths]
    return Algebra(p, structure, unit, basis_labels=labels)


class Module:
    """Left module over a fixed algebra, given by one matrix per basis element.

    ``rho`` is the read-only (algebra.dim, dim, dim) stack of action
    matrices, ρ(e_i) = rho[i].  ``action`` may be a sequence of square
    matrices or one such stack; it is copied, never aliased.
    """

    def __init__(self, algebra, action, check=True):
        self.algebra = algebra
        self.p = p = algebra.p
        if isinstance(action, np.ndarray) and action.ndim == 3:
            mats = action
        else:
            mats = [m.a if isinstance(m, FieldMatrix) else FieldMatrix(p, m).a for m in action]
        if len(mats) != algebra.dim:
            raise ValidationError("need one action matrix per algebra basis element")
        dims = {m.shape for m in mats} or {(0, 0)}
        if len(dims) != 1 or any(r != c for r, c in dims):
            raise ValidationError("action matrices must be square and of equal size")
        n = dims.pop()[0]
        rho = np.asarray(mats, dtype=np.int64).reshape(algebra.dim, n, n) % p
        rho.setflags(write=False)
        self.rho = rho
        self.dim = rho.shape[1]
        self.digest = _digest(
            b"module", algebra.digest, self.dim, *[m.tobytes() for m in rho]
        )
        if check:
            problems = self.validate()
            if problems:
                raise ValidationError("module axioms fail", problems)

    def validate(self):
        """Return a list of broken module laws (empty when the data is valid).

        The unit's image is one contraction of ``rho``; the d² products
        ρ(e_i) ρ(e_j) are one stacked ``matmul``, compared with the
        structure constants contracted against ``rho``.  Broken pairs are
        reported in (i, j) order.
        """
        p, n, rho = self.p, self.dim, self.rho
        problems = []
        unit_mat = np.tensordot(self.algebra.unit, rho, axes=1) % p
        if not np.array_equal(unit_mat, np.eye(n, dtype=np.int64)):
            problems.append("unit does not act as the identity")
        products = np.matmul(rho[:, None], rho[None, :]) % p
        combined = np.tensordot(self.algebra.structure, rho, axes=1) % p
        broken = (products != combined).any(axis=(2, 3))
        for i, j in zip(*np.nonzero(broken)):
            problems.append("action not multiplicative at basis pair (%d, %d)" % (i, j))
        return problems

    def __eq__(self, other):
        return isinstance(other, Module) and self.digest == other.digest

    def __hash__(self):
        return hash(self.digest)

    def __repr__(self):
        return "Module(dim=%d over %r)" % (self.dim, self.algebra)


@memoized
def zero_module(algebra):
    empty = [FieldMatrix.zeros(algebra.p, 0, 0) for _ in range(algebra.dim)]
    return Module(algebra, empty, check=False)


@memoized
def regular_module(algebra):
    """The algebra acting on itself by left multiplication."""
    return Module(algebra, [algebra.left_multiplication(i) for i in range(algebra.dim)])


@memoized
def dual_regular_module(algebra):
    """Linear dual of the regular module, a left module via right multiplication.

    A functional f is acted on by (a . f)(x) = f(x a); on coordinates this
    is the transpose of right multiplication.
    """
    mats = [algebra.right_multiplication(i).transpose() for i in range(algebra.dim)]
    return Module(algebra, mats)


class Morphism:
    """Module map, stored as a matrix sending domain coordinates to codomain ones."""

    def __init__(self, dom, cod, matrix, check=True):
        if dom.algebra.digest != cod.algebra.digest:
            raise ValidationError("domain and codomain live over different algebras")
        self.dom = dom
        self.cod = cod
        self.p = dom.p
        m = matrix if isinstance(matrix, FieldMatrix) else FieldMatrix(dom.p, matrix)
        if m.shape != (cod.dim, dom.dim):
            raise ValidationError(
                "matrix shape %r does not match map %d -> %d" % (m.shape, dom.dim, cod.dim)
            )
        self.matrix = m
        self._digest = None
        if check and not self.is_equivariant():
            raise ValidationError("matrix does not commute with the algebra action")

    @property
    def digest(self):
        """SHA-256 of the end modules' digests and the matrix.  Computed on
        first access, since most maps are never a memo key, and then kept:
        a morphism never changes."""
        if self._digest is None:
            self._digest = _digest(b"morphism", self.dom.digest, self.cod.digest,
                                   self.matrix.a.tobytes())
        return self._digest

    def is_equivariant(self):
        """F ρ_dom(e_i) = ρ_cod(e_i) F for every i, as one stacked comparison."""
        f = self.matrix.a
        return bool(
            np.array_equal(f @ self.dom.rho % self.p, self.cod.rho @ f % self.p)
        )

    def is_mono(self):
        return rank(self.matrix) == self.dom.dim

    def is_epi(self):
        return rank(self.matrix) == self.cod.dim

    def is_iso(self):
        return self.dom.dim == self.cod.dim and rank(self.matrix) == self.dom.dim

    def is_zero(self):
        return self.matrix.is_zero()

    def __matmul__(self, other):
        """Composition: (g @ f)(x) = g(f(x))."""
        if other.cod.digest != self.dom.digest:
            raise ValidationError("maps are not composable")
        return Morphism(other.dom, self.cod, self.matrix @ other.matrix, check=False)

    def __add__(self, other):
        if self.dom != other.dom or self.cod != other.cod:
            raise ValidationError("can only add parallel maps")
        return Morphism(self.dom, self.cod, self.matrix + other.matrix, check=False)

    def __neg__(self):
        return Morphism(self.dom, self.cod, -self.matrix, check=False)

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.dom.digest, self.cod.digest, self.matrix))

    def __repr__(self):
        return "Morphism(%d -> %d)" % (self.dom.dim, self.cod.dim)


@memoized
def identity_morphism(module):
    return Morphism(module, module, FieldMatrix.identity(module.p, module.dim), check=False)


def zero_morphism(dom, cod):
    return Morphism(dom, cod, FieldMatrix.zeros(dom.p, cod.dim, dom.dim), check=False)


# ---------------------------------------------------------------------------
# Hom spaces
# ---------------------------------------------------------------------------


def hom_basis(dom, cod):
    """Basis of Hom(dom, cod) as morphisms: the kernel of
    ``coboundary(dom, cod)``, memoized by the digest pair."""
    if dom.algebra.digest != cod.algebra.digest:
        raise ValidationError("hom spaces need a common parent algebra")
    return [Morphism(dom, cod, m, check=False) for m in _hom_matrices(dom, cod)]


@memoized
def _hom_matrices(dom, cod):
    null = kernel_basis(FieldMatrix(dom.p, coboundary(dom, cod))).a
    shape = (cod.dim, dom.dim)
    return tuple(FieldMatrix(dom.p, col.reshape(shape, order="F")) for col in null.T)


def coboundary(dom, cod):
    """δ⁰: u ↦ (ρ_cod(e_k) u - u ρ_dom(e_k))_k on linear u: dom -> cod, whose
    kernel is Hom(dom, cod) and image the coboundaries of Ext¹(dom, cod).

    One (d·cod.dim·dom.dim, cod.dim·dom.dim) array: row (k, i, j) is entry
    (i, j) of the k-th map, as in ``Ext1Result.cocycles``; column (y, x) is
    entry (x, y) of u, so u is vectorized column-major.
    """
    d, s, q = cod.algebra.dim, cod.dim, dom.dim
    ys, xs = np.arange(q), np.arange(s)
    out = np.zeros((d, s, q, q, s), dtype=np.int64)
    out[:, :, ys, ys, :] = cod.rho[:, :, None, :]
    out[:, xs, :, :, xs] -= dom.rho.transpose(0, 2, 1)[None]
    return (out % dom.p).reshape(d * s * q, q * s)


def solve_maps(unknowns, equations):
    """Module maps X_v: dom_v -> cod_v, one for each (dom_v, cod_v) in
    ``unknowns``, that solve ``equations``; or None when there are none.

    An equation (terms, t) asks that L @ X_v @ R summed over its terms
    (L, v, R) equal t.  L, R and t are morphisms; None stands for the
    identity as L or R and for zero as t.  This is for maps that involve a
    choice: lifts, sections, extensions over an embedding and contracting
    homotopies.  A map that is unique comes from its structure maps
    instead: ``corestrict`` into a submodule, ``induced_on_cokernel`` out
    of a quotient, ``from_pushout`` and ``into_pullback``.

    The equations are solved on Hom-basis coordinates
    (``_map_coordinates``) with every free coordinate zero.  ``hom_basis``
    is the standard kernel basis of δ⁰, so its coordinates are the entries
    of X_v at δ⁰'s free columns, and an equation added to δ⁰ can only turn
    a free column into a pivot.  So the answer is the one with every free
    entry zero in the system of δ⁰ and the equations on the entries of the
    unknowns, and it does not depend on the order of the equations.
    """
    if not unknowns:
        return []
    x = solve(*_map_coordinates(unknowns, equations))
    return None if x is None else _maps_at(unknowns, x.a[:, 0])


def _map_coordinates(unknowns, equations):
    """(a, t): ``equations`` as a @ c = t on the Hom-basis coordinates c.

    X_v = Σ c_k B_k over the maps B_k of ``hom_basis(dom_v, cod_v)``.  A
    term L @ X_v @ R gives c_k the column of entries of L @ B_k @ R;
    columns run over the unknowns in order and over each basis in order,
    and ``t`` holds the entries of the targets.
    """
    p = unknowns[0][0].p
    bases = []
    for dom, cod in unknowns:
        basis = hom_basis(dom, cod)
        stack = np.array([b.matrix.a for b in basis], dtype=np.int64)
        bases.append(stack.reshape(len(basis), cod.dim, dom.dim))
    ends = np.cumsum([len(b) for b in bases])
    a_rows = [np.zeros((0, ends[-1]), dtype=np.int64)]
    t_rows = [np.zeros(0, dtype=np.int64)]
    for terms, target in equations:
        left, v, right = terms[0]
        rows = unknowns[v][1].dim if left is None else left.cod.dim
        cols = unknowns[v][0].dim if right is None else right.dom.dim
        block = np.zeros((rows * cols, ends[-1]), dtype=np.int64)
        for left, v, right in terms:
            m = bases[v]
            if left is not None:
                m = left.matrix.a @ m % p
            if right is not None:
                m = m @ right.matrix.a % p
            block[:, ends[v] - len(m) : ends[v]] += m.reshape(len(m), rows * cols).T
        a_rows.append(block)
        zero = np.zeros(rows * cols, dtype=np.int64)
        t_rows.append(zero if target is None else target.matrix.a.reshape(-1))
    t = np.concatenate(t_rows)[:, None]
    return FieldMatrix(p, np.vstack(a_rows)), FieldMatrix(p, t)


def _maps_at(unknowns, coords):
    """The maps Σ c_k B_k, one per unknown, at the coordinates ``coords``."""
    out, start = [], 0
    for dom, cod in unknowns:
        basis = hom_basis(dom, cod)
        out.append(combine(dom, cod, basis, coords[start : start + len(basis)]))
        start += len(basis)
    return out


def solve_map(dom, cod, post=(), pre=()):
    """A module map x: dom -> cod with g @ x == t for each (g, t) in ``post``
    and x @ f == t for each (f, t) in ``pre``, or None when there is none:
    ``solve_maps`` in one unknown."""
    equations = [([(g, 0, None)], t) for g, t in post]
    equations += [([(None, 0, f)], t) for f, t in pre]
    sol = solve_maps([(dom, cod)], equations)
    return None if sol is None else sol[0]


def combine(dom, cod, basis, coeffs):
    """The module map sum_k coeffs[k] * basis[k] from dom to cod."""
    total = np.zeros((cod.dim, dom.dim), dtype=np.int64)
    for c, b in zip(coeffs, basis):
        if c:
            total = (total + int(c) * b.matrix.a) % dom.p
    return Morphism(dom, cod, total, check=False)


def maps(dom, cod):
    """Every module map dom -> cod: all p**k combinations of the k Hom
    basis maps, in ``itertools.product`` order."""
    basis = hom_basis(dom, cod)
    if not basis:
        return [zero_morphism(dom, cod)]
    return [
        combine(dom, cod, basis, coeffs)
        for coeffs in itertools.product(range(dom.p), repeat=len(basis))
    ]


# ---------------------------------------------------------------------------
# Kernels, cokernels, sums, pushouts, pullbacks
# ---------------------------------------------------------------------------


@memoized
def kernel(f):
    """Kernel submodule with its inclusion map; returns (module, mono)."""
    return submodule_from_columns(f.dom, kernel_basis(f.matrix))


@memoized
def cokernel(f):
    """Cokernel quotient with its projection map; returns (module, epi).

    The projection is ``quotient_coordinates`` of the image: coordinates
    on the quotient are the codomain coordinates that carry no pivot of
    the image's reduced rows, and the identity columns at those
    coordinates are a section of it.
    """
    q_mat, free = quotient_coordinates(f.matrix.transpose())
    cok = Module(f.cod.algebra, q_mat.a @ f.cod.rho[:, :, free], check=False)
    return cok, Morphism(f.cod, cok, q_mat, check=False)


def corestrict(f, mono):
    """Factor f through a mono with the same codomain: mono o result == f."""
    lifted = solve(mono.matrix, f.matrix)
    if lifted is None:
        raise ValidationError("map does not land inside the given submodule")
    return Morphism(f.dom, mono.dom, lifted, check=False)


def induced_on_cokernel(proj, killer):
    """Map out of a cokernel induced by one that kills the collapsed image.

    ``proj`` is the quotient epi B -> Q; ``killer`` is defined on B and
    vanishes on the kernel of ``proj``.  Returns the unique map Q -> cod
    through which ``killer`` factors.
    """
    section = solve(proj.matrix, FieldMatrix.identity(proj.p, proj.cod.dim))
    if section is None:
        raise InternalInconsistencyError("quotient map admits no linear section")
    mat = killer.matrix @ section
    induced = Morphism(proj.cod, killer.cod, mat, check=False)
    if (induced @ proj).matrix != killer.matrix:
        raise InternalInconsistencyError("map does not kill the collapsed image")
    return induced


def from_pushout(from_b, from_c, u, v):
    """The unique map x out of a pushout with x o from_b == u and
    x o from_c == v, for the structure maps ``from_b``, ``from_c`` returned
    by ``pushout``.

    [from_b | from_c] is the pushout's quotient map B (+) C -> P, so x is
    induced on that cokernel by [u | v]; legs that disagree on A do not
    kill the collapsed image and raise.
    """
    return induced_on_cokernel(block([[from_b, from_c]]), block([[u, v]]))


def into_pullback(to_b, to_c, u, v):
    """The unique map x into a pullback with to_b o x == u and to_c o x == v,
    for the structure maps ``to_b``, ``to_c`` returned by ``pullback``.

    [to_b ; to_c] is the pullback's kernel inclusion P -> B (+) C, so x is
    [u ; v] corestricted to it; legs that disagree on A do not land in the
    kernel and raise.
    """
    return corestrict(block([[u], [v]]), block([[to_b], [to_c]]))


def direct_sum(modules):
    """Direct sum with canonical injections and projections."""
    summed = _summed_module(modules)
    total = summed.dim
    injections = []
    projections = []
    offset = 0
    for m in modules:
        inj = np.zeros((total, m.dim), dtype=np.int64)
        inj[offset : offset + m.dim, :] = np.eye(m.dim, dtype=np.int64)
        injections.append(Morphism(m, summed, inj, check=False))
        projections.append(Morphism(summed, m, inj.T, check=False))
        offset += m.dim
    return summed, injections, projections


def _summed_module(modules):
    """The module (+) modules, with the block-diagonal action."""
    if not modules:
        raise ValidationError("direct sum needs at least one summand")
    algebra = modules[0].algebra
    total = sum(m.dim for m in modules)
    action = np.zeros((algebra.dim, total, total), dtype=np.int64)
    offset = 0
    for m in modules:
        action[:, offset : offset + m.dim, offset : offset + m.dim] = m.rho
        offset += m.dim
    return Module(algebra, action, check=False)


def block(rows):
    """The map (+)_c D_c -> (+)_r C_r whose (r, c) component is rows[r][c].

    ``None`` is a zero component.  Every row needs one map, which fixes its
    codomain C_r, and every column one, which fixes its domain D_c; a
    single row or column keeps its own module rather than a one-summand
    sum.  Components whose endpoints disagree with their row or column
    raise.
    """
    rows = [list(row) for row in rows]
    width = len(rows[0]) if rows else 0
    if not width or any(len(row) != width for row in rows):
        raise ValidationError("a block map needs a nonempty rectangular grid")
    cods = [_block_end([f.cod for f in row if f is not None]) for row in rows]
    doms = [
        _block_end([row[c].dom for row in rows if row[c] is not None])
        for c in range(width)
    ]
    dom = doms[0] if width == 1 else _summed_module(doms)
    cod = cods[0] if len(rows) == 1 else _summed_module(cods)
    row_at = np.cumsum([0] + [m.dim for m in cods])
    col_at = np.cumsum([0] + [m.dim for m in doms])
    mat = np.zeros((cod.dim, dom.dim), dtype=np.int64)
    for r, row in enumerate(rows):
        for c, f in enumerate(row):
            if f is not None:
                mat[row_at[r] : row_at[r + 1], col_at[c] : col_at[c + 1]] = f.matrix.a
    return Morphism(dom, cod, mat, check=False)


def _block_end(modules):
    """The module shared by one row's codomains or one column's domains."""
    if not modules:
        raise ValidationError("every row and column of a block map needs a map")
    if any(m != modules[0] for m in modules[1:]):
        raise ValidationError("maps in one row or column of a block map disagree")
    return modules[0]


def block_extensions(sub, quot, taus):
    """The modules on sub (+) quot with action [[ρ_sub(e_i), τ_i], [0, ρ_quot(e_i)]],
    one for each (algebra.dim, sub.dim, quot.dim) stack τ in ``taus``.

    Such a module extends quot by sub, with mono [I; 0] and epi [0 I],
    exactly when τ is a cocycle: ρ_sub(e_i) τ_j + τ_i ρ_quot(e_j) equals
    the τ of e_i e_j and the unit has τ = 0.  Callers supply cocycles;
    nothing is checked.
    """
    s, q = sub.dim, quot.dim
    actions = np.zeros((len(taus), sub.algebra.dim, s + q, s + q), dtype=np.int64)
    actions[:, :, :s, :s] = sub.rho
    actions[:, :, :s, s:] = taus
    actions[:, :, s:, s:] = quot.rho
    return [Module(sub.algebra, action, check=False) for action in actions]


def pushout(f, g):
    """Pushout of f: A -> B and g: A -> C; returns (module, from_B, from_C).

    Computed as the cokernel of (f, -g): A -> B (+) C; the legs are the
    cokernel map's columns on B and on C.
    """
    if f.dom != g.dom:
        raise ValidationError("pushout legs must share a domain")
    _, proj = cokernel(block([[f], [-g]]))
    q, b = proj.cod, f.cod.dim
    return (q, Morphism(f.cod, q, proj.matrix.a[:, :b], check=False),
            Morphism(g.cod, q, proj.matrix.a[:, b:], check=False))


def pullback(f, g):
    """Pullback of f: B -> A and g: C -> A; returns (module, to_B, to_C).

    Computed as the kernel of (f, -g): B (+) C -> A; the legs are the
    kernel inclusion's rows on B and on C.
    """
    if f.cod != g.cod:
        raise ValidationError("pullback legs must share a codomain")
    ker, incl = kernel(block([[f, -g]]))
    b = f.dom.dim
    return (ker, Morphism(ker, f.dom, incl.matrix.a[:b], check=False),
            Morphism(ker, g.dom, incl.matrix.a[b:], check=False))


class ShortExactSequence:
    """Short exact sequence 0 -> sub -> mid -> quot -> 0."""

    def __init__(self, mono, epi, check=True):
        if mono.cod != epi.dom:
            raise ValidationError("the mono's codomain must be the epi's domain")
        self.mono = mono
        self.epi = epi
        self.sub = mono.dom
        self.mid = mono.cod
        self.quot = epi.cod
        if check:
            problems = self.validate()
            if problems:
                raise ValidationError("not a short exact sequence", problems)

    def validate(self):
        problems = []
        if not self.mono.is_mono():
            problems.append("left map is not injective")
        if not self.epi.is_epi():
            problems.append("right map is not surjective")
        if not (self.epi @ self.mono).is_zero():
            problems.append("composite is nonzero")
        if self.sub.dim + self.quot.dim != self.mid.dim:
            problems.append("dimensions are not additive")
        return problems

    def __repr__(self):
        return "SES(%d -> %d -> %d)" % (self.sub.dim, self.mid.dim, self.quot.dim)


# ---------------------------------------------------------------------------
# Ext^1
# ---------------------------------------------------------------------------


class Ext1Result:
    """Ext^1(c, a) as cocycles modulo coboundaries; see ``ext1``.

    ``cocycles`` is a (dimension, algebra.dim, a.dim, c.dim) array whose
    classes form a basis of the group: coefficients x stand for the class
    of τ = Σ_k x_k cocycles[k].  ``coboundaries`` is a (rows,
    algebra.dim·a.dim·c.dim) array spanning the coboundaries, flattened
    like ``cocycles``.  Results are shared through the memo of ``ext1``,
    so nothing in one changes after construction: both arrays are
    read-only, and ``middles`` is computed on first use and kept, so each
    Ext group's middles are built once per process.
    """

    def __init__(self, c, a, cocycles, coboundaries):
        self.c = c
        self.a = a
        self.p = c.p
        cocycles.setflags(write=False)
        coboundaries.setflags(write=False)
        self.cocycles = cocycles
        self.coboundaries = coboundaries
        self.dimension = len(cocycles)

    def _middles(self, coeffs):
        """The ``block_extensions`` modules of the classes with the given
        (count, dimension) coefficient rows."""
        taus = np.tensordot(coeffs, self.cocycles, axes=1) % self.p
        return block_extensions(self.a, self.c, taus)

    @functools.cached_property
    def middles(self):
        """The middle of the first class of each orbit in
        ``representatives``, in ``itertools.product`` order of the
        coefficients, as a tuple from one ``block_extensions`` call;
        nothing is checked.  Computed on first use and kept.  Every class
        shares the mono [I; 0] and the epi [0 I] of ``realize``.  Classes
        of one orbit have isomorphic middles, so the first class of every
        isomorphism class of middles is among them."""
        return tuple(self._middles(self.representatives))

    @property
    def representatives(self):
        """Coefficient rows of the smallest class, in ``itertools.product``
        order, of each orbit under automorphisms that are cheap to get, as
        a (count, dimension) array in that order.

        Pushing out along an automorphism of a, or pulling back along one
        of c, moves a class to one with an isomorphic middle.  For p > 2
        the scalars λ·1 of a give the lines: only vectors whose first
        nonzero coordinate is 1 are kept, and they are the smallest of
        their lines.  Then the invertible elements b and 1 + b, for b in
        the Hom bases of End(c) and End(a), merge the kept classes by
        union-find, whose root is the smallest index of its set.  With at
        most one nonzero class left there is nothing to merge: the
        automorphisms act linearly, so the zero class is its own orbit.
        Any set of true automorphisms gives sound orbits.
        """
        p, k = self.p, self.dimension
        coeffs = _product_coefficients(p, k, slice(0, p**k))
        if p > 2 and k:
            coeffs = coeffs[_normalize_lines(coeffs, p) == np.arange(len(coeffs))]
        if k <= 1:
            return coeffs
        actions = self._automorphism_actions()
        if not len(actions):
            return coeffs
        weights = p ** np.arange(k - 1, -1, -1)
        position = np.full(p**k, -1, dtype=np.int64)
        position[coeffs @ weights] = np.arange(len(coeffs))
        images = np.einsum("aij,mj->ami", actions, coeffs) % p
        targets = position[_normalize_lines(images.reshape(-1, k), p)]
        sources = np.tile(np.arange(len(coeffs)), len(actions))
        parent = list(range(len(coeffs)))

        def root(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in zip(sources.tolist(), targets.tolist()):
            ri, rj = root(i), root(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
        return coeffs[[i for i in range(len(coeffs)) if root(i) == i]]

    def _automorphism_actions(self):
        """The matrices, on class coefficients, of the automorphisms of
        ``representatives``: γ of c acts by τ ↦ τγ and α of a by τ ↦ ατ.

        The moved basis cocycles are read in the kept coordinates by one
        ``solve`` against [coboundaries^T | cocycles^T]; the kept cocycles
        are independent modulo the coboundaries, so their coefficients are
        unique.  Returns an (automorphisms, dimension, dimension) array
        whose [n, i, j] entry is coordinate i of basis class j moved by
        automorphism n.
        """
        p, k = self.p, self.dimension
        moved = []
        for module, on_c in ((self.c, True), (self.a, False)):
            one = np.eye(module.dim, dtype=np.int64)
            basis = np.array([f.matrix.a for f in hom_basis(module, module)], dtype=np.int64)
            candidates = np.concatenate([basis, (basis + one) % p])
            for g in candidates[rank_stack(candidates, p) == module.dim]:
                if not np.array_equal(g, one):
                    moved.append(self.cocycles @ g if on_c else g @ self.cocycles)
        if not moved:
            return np.zeros((0, k, k), dtype=np.int64)
        flat = self.cocycles.reshape(k, -1)
        targets = np.concatenate(moved).reshape(len(moved) * k, -1) % p
        coords = solve(
            FieldMatrix(p, np.hstack([self.coboundaries.T, flat.T])),
            FieldMatrix(p, targets.T),
        )
        if coords is None:
            raise InternalInconsistencyError("a moved cocycle left the cocycle space")
        kept = coords.a[len(self.coboundaries):]
        return kept.reshape(k, len(moved), k).transpose(1, 0, 2)

    def realize(self, coeffs):
        """Short exact sequence 0 -> a -> E -> c -> 0 for the given class.

        E is the ``block_extensions`` module of the class's cocycle, on
        a (+) c; the mono is [I; 0] and the epi [0 I].
        """
        s, q = self.a.dim, self.c.dim
        mid = self._middles(np.array([coeffs], dtype=np.int64))[0]
        mono = Morphism(self.a, mid, np.eye(s + q, s, dtype=np.int64), check=False)
        epi = Morphism(mid, self.c, np.eye(q, s + q, s, dtype=np.int64), check=False)
        return ShortExactSequence(mono, epi)


@memoized
def ext1(c, a):
    """Ext^1(c, a) as H^1(A, Hom_k(c, a)): derivations modulo inner ones
    (Cartan and Eilenberg, Homological Algebra, ch. IX).

    A cocycle is one map τ_i: c -> a per algebra basis element with
    ρ_a(e_i) τ_j + τ_i ρ_c(e_j) = Σ_k c_ijk τ_k and τ zero on the unit,
    which is exactly when ``block_extensions`` gives an extension of c by
    a.  Those equations are one coefficient array, and the cocycles are
    its ``kernel_basis``: ker δ¹.  The coboundaries, which split the
    extension, are the image of δ⁰ = ``coboundary(c, a)``.  The cocycles
    kept are those that ``pivot_blocks`` picks after the coboundaries: a
    complement of them.  The coboundary rows stay on the result, where
    ``Ext1Result.representatives`` reads class coordinates against them.

    Memoized by the digest pair, so every caller of one pair shares one
    result.
    """
    if c.algebra.digest != a.algebra.digest:
        raise ValidationError("Ext needs both modules over the same algebra")
    algebra = a.algebra
    p, d = algebra.p, algebra.dim
    s, q = a.dim, c.dim
    if not (s and q):
        empty = np.zeros((0, d, s, q), dtype=np.int64)
        return Ext1Result(c, a, empty, empty.reshape(0, d * s * q))
    rho_a, rho_c = a.rho, c.rho
    # row (i, j, v, u) is entry (v, u) of equation (i, j); column (k, x, y)
    # is entry (y, x) of tau_k: each tau_k column-major, as u in coboundary
    vs, us, ks = np.arange(s), np.arange(q), np.arange(d)
    eqs = np.zeros((d, d, s, q, d, q, s), dtype=np.int64)
    eqs[:, ks[:, None], :, us, ks[:, None], us, :] = rho_a
    eqs[ks[:, None], :, vs, :, ks[:, None], :, vs] += rho_c.transpose(0, 2, 1)
    eqs[:, :, vs[:, None], us, :, us, vs[:, None]] -= algebra.structure
    unit_eq = np.zeros((s, q, d, q, s), dtype=np.int64)
    unit_eq[vs[:, None], us, :, us, vs[:, None]] = algebra.unit
    system = np.vstack([eqs.reshape(-1, d * q * s), unit_eq.reshape(-1, d * q * s)])
    null = kernel_basis(FieldMatrix(p, system)).a
    cocycles = null.T.reshape(-1, d, q, s).transpose(0, 1, 3, 2).reshape(-1, d * s * q)

    delta = coboundary(c, a)
    picked = pivot_blocks([delta] + [col[:, None] for col in cocycles], p)
    free = [b - 1 for b in picked if b]
    return Ext1Result(c, a, cocycles[free].reshape(len(free), d, s, q), delta.T)


# ---------------------------------------------------------------------------
# Submodules and simple modules
# ---------------------------------------------------------------------------


def invariant_subspaces(module, budget=DEFAULT_BUDGET):
    """All submodules, as column matrices in reduced echelon form.

    Enumerates every subspace of the underlying space by echelon shape and
    keeps the action-invariant ones.  Guarded by ``budget`` on the number
    of subspaces inspected.
    """
    p = module.p
    n = module.dim
    found = []
    inspected = 0
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free_slots = []
            for r, piv in enumerate(pivots):
                for c in range(piv + 1, n):
                    if c not in pivots:
                        free_slots.append((r, c))
            for fill in itertools.product(range(p), repeat=len(free_slots)):
                inspected += 1
                if inspected > budget:
                    raise BudgetExceededError(
                        "submodule enumeration exceeded budget %d" % budget
                    )
                rows = np.zeros((k, n), dtype=np.int64)
                for r, piv in enumerate(pivots):
                    rows[r, piv] = 1
                for (r, c), val in zip(free_slots, fill):
                    rows[r, c] = val
                cols = FieldMatrix(p, rows.T)
                if _is_invariant(module, cols):
                    found.append(cols)
    return found


def _restricted_action(module, cols):
    """Each ρ(e_i) restricted to the column space of ``cols`` as one
    (k, d·k) array of blocks, from one ``solve`` of cols x = [ρ(e_0) cols |
    … | ρ(e_{d-1}) cols]; None when that space is not invariant."""
    images = (module.rho @ cols.a % module.p).transpose(1, 0, 2).reshape(module.dim, -1)
    inside = solve(cols, FieldMatrix(module.p, images))
    return None if inside is None else inside.a


def _is_invariant(module, cols):
    return cols.shape[1] == 0 or _restricted_action(module, cols) is not None


@memoized
def submodule_from_columns(module, cols):
    """Package an invariant column space as a module with its inclusion."""
    k = cols.shape[1]
    if k == 0:
        sub = zero_module(module.algebra)
        return sub, Morphism(sub, module, cols, check=False)
    inside = _restricted_action(module, cols)
    if inside is None:
        raise ValidationError("columns do not span an invariant subspace")
    action = inside.reshape(k, module.algebra.dim, k).transpose(1, 0, 2)
    sub = Module(module.algebra, action, check=False)
    return sub, Morphism(sub, module, cols, check=False)


@memoized
def simple_modules(algebra, budget=DEFAULT_BUDGET):
    """One representative per isomorphism class of simple modules, as a tuple.

    Every simple is a quotient of the regular module by a maximal proper
    submodule, so enumerate those and deduplicate up to isomorphism.
    """
    reg = regular_module(algebra)
    subs = invariant_subspaces(reg, budget=budget)
    proper = [c for c in subs if c.shape[1] < reg.dim]
    maximal = []
    for cand in proper:
        is_max = True
        for other in proper:
            if other.shape[1] <= cand.shape[1]:
                continue
            if solve(other, cand) is not None:
                is_max = False
                break
        if is_max:
            maximal.append(cand)
    simples = []
    for cols in maximal:
        _, incl = submodule_from_columns(reg, cols)
        quot, _ = cokernel(incl)
        if all(is_isomorphic(quot, seen) is None for seen in simples):
            simples.append(quot)
    simples.sort(key=lambda m: (m.dim, m.digest))
    return tuple(simples)


# ---------------------------------------------------------------------------
# Isomorphism testing
# ---------------------------------------------------------------------------


@memoized
def fingerprint(module):
    """Dimension plus the ranks of the action matrices and their products.

    These ranks are read off the action in the algebra's chosen basis, so
    the fingerprint depends on that basis: two isomorphic algebras can give
    one module class different fingerprints, and over f2c2 (where every
    action matrix of g is invertible) it separates few classes.  Over one
    algebra it is an isomorphism invariant.  It is the ordering key of
    ``enumerate_modules``, a cheap reject for ``is_isomorphic`` and the
    bucket key of ``ClassIndex``, where it decides alone only against a
    complete enumeration whose bucket has one member.
    """
    d, n, p = module.algebra.dim, module.dim, module.p
    acts = module.rho
    products = np.matmul(acts[:, None], acts[None, :]).reshape(d * d, n, n)
    ranks = tuple(int(r) for r in rank_stack(np.concatenate([acts, products]), p))
    return (module.dim, ranks[:d], ranks[d:])


_ENUMERATION_CAP = 4096
_RANDOM_TRIES = 500
_SCAN_CELLS = 2**12


def scan_slices(count, cells, start=0):
    """Slices of range(start, count) holding about ``_SCAN_CELLS`` entries
    each, for items of ``cells`` entries (at least one item per slice)."""
    step = max(1, _SCAN_CELLS // max(1, cells))
    for lo in range(start, count, step):
        yield slice(lo, min(lo + step, count))


def span_stacks(mats, p, start=0):
    """Every combination sum_k c_k mats[k], as (N, rows, cols) stacks.

    Combinations are visited in ``itertools.product`` order of the
    coefficients (the last one varies fastest), from the ``start``-th on,
    in chunks of about ``_SCAN_CELLS`` entries, each formed as one
    coefficient-by-basis product.  ``mats`` must not be empty.
    """
    k = len(mats)
    shape = mats[0].shape
    flat = np.stack([m.a.reshape(-1) for m in mats])
    for rows in scan_slices(p**k, flat.shape[1], start):
        yield ((_product_coefficients(p, k, rows) @ flat) % p).reshape(-1, *shape)


def _product_coefficients(p, k, rows):
    """Rows ``rows`` (a slice) of the p**k coefficient vectors of length k,
    in ``itertools.product(range(p), repeat=k)`` order, as an array."""
    weights = p ** np.arange(k - 1, -1, -1)
    return (np.arange(rows.start, rows.stop)[:, None] // weights) % p


def _normalize_lines(rows, p):
    """Product-order index of each coefficient row scaled so that its first
    nonzero coordinate is 1, the smallest vector of its line; zero rows
    stay zero.  ``rows`` is a (count, k) array with k >= 1."""
    if p > 2:
        lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
        values, where = np.unique(lead, return_inverse=True)
        inverse = np.array([pow(int(v), p - 2, p) for v in values], dtype=np.int64)
        rows = rows * inverse[where][:, None] % p
    return rows @ p ** np.arange(rows.shape[1] - 1, -1, -1)


def _first_in_span(mats, p, accept):
    """First nonzero combination in ``span_stacks`` order that ``accept``
    takes; ``accept`` maps a stack to a boolean mask.  Returns the first
    accepted matrix as an array, or None.
    """
    for stack in span_stacks(mats, p, start=1):
        hits = np.flatnonzero(accept(stack))
        if hits.size:
            return stack[hits[0]]
    return None


def _search_span(mats, p, accept, seed):
    """First combination of ``mats`` that ``accept`` takes, as an array, or
    None; ``accept`` maps a stack to a boolean mask.

    Up to ``_ENUMERATION_CAP`` combinations this is ``_first_in_span``, so
    a None is exact.  Beyond it three batches are scanned in order: the
    basis, its pairwise sums, and ``_RANDOM_TRIES`` combinations drawn
    from a generator seeded by the digest of the ``seed`` parts.
    """
    if p ** len(mats) <= _ENUMERATION_CAP:
        return _first_in_span(mats, p, accept)
    basis = np.stack([m.a for m in mats])

    def batches():
        yield basis
        first, second = np.triu_indices(len(basis), 1)  # itertools.combinations order
        yield (basis[first] + basis[second]) % p
        rng = np.random.default_rng(int(_digest(*seed)[:8], 16))
        draws = rng.integers(0, p, size=(_RANDOM_TRIES, len(basis)))
        yield np.tensordot(draws, basis, axes=1) % p

    for batch in batches():
        for rows in scan_slices(len(batch), basis[0].size):
            hits = np.flatnonzero(accept(batch[rows]))
            if hits.size:
                return batch[rows][hits[0]]
    return None


def _find_invertible_combination(basis, p, dim):
    """An invertible matrix in the span of hom-basis maps, by ``_search_span``."""
    if dim == 0:
        return FieldMatrix.zeros(p, 0, 0)
    if not basis:
        return None
    mats = [b.matrix for b in basis]
    seed = ("invcombo", *(m.a.tobytes() for m in mats))
    hit = _search_span(mats, p, lambda stack: rank_stack(stack, p) == dim, seed)
    return None if hit is None else FieldMatrix(p, hit)


def is_isomorphic(m1, m2):
    """Explicit isomorphism m1 -> m2, or None when none exists.

    Different dimensions or fingerprints reject at once, and so does
    dim Hom(m1, m2) != dim End(m2): an isomorphism m1 -> m2 carries
    Hom(m1, m2) onto Hom(m2, m2).  Otherwise the decision is a search for
    an invertible element of Hom(m1, m2): when the hom space has at most
    ``_ENUMERATION_CAP`` elements, one batched rank scan over all of it
    decides exactly; larger hom spaces try the basis, its pairwise sums
    and seeded random combinations (``_search_span``), then fall back to
    matching indecomposable summands (``_isomorphism_by_decomposition``).
    """
    if m1.algebra.digest != m2.algebra.digest or m1.dim != m2.dim:
        return None
    if m1.digest == m2.digest:
        return Morphism(m1, m2, FieldMatrix.identity(m1.p, m1.dim), check=False)
    if fingerprint(m1) != fingerprint(m2):
        return None
    basis = hom_basis(m1, m2)
    if len(basis) != len(hom_basis(m2, m2)):
        return None
    mat = _find_invertible_combination(basis, m1.p, m1.dim)
    if mat is not None:
        return Morphism(m1, m2, mat, check=False)
    if m1.p ** len(basis) <= _ENUMERATION_CAP:
        return None
    return _isomorphism_by_decomposition(m1, m2)


def indecomposable_isomorphism(m1, m2):
    """Isomorphism m1 -> m2 between indecomposable modules, or None.

    End(m1) is local, so the non-isomorphisms m1 -> m2 form a subspace,
    rad(m1, m2) (Auslander, Reiten and Smalø, ch. I–II), which is proper
    when m1 ≅ m2: then some element of ``hom_basis(m1, m2)`` lies outside
    it and has full rank.  One rank scan of the basis decides exactly, and
    the first full-rank basis element is the answer.
    """
    if m1.algebra.digest != m2.algebra.digest or m1.dim != m2.dim:
        return None
    basis = hom_basis(m1, m2)
    if not basis:
        return None
    ranks = rank_stack(np.stack([f.matrix.a for f in basis]), m1.p)
    hits = np.flatnonzero(ranks == m1.dim)
    return basis[hits[0]] if hits.size else None


def _isomorphism_by_decomposition(m1, m2):
    """Match the indecomposable summands of m1 and m2 one to one by
    ``indecomposable_isomorphism`` (Krull–Schmidt), and assemble the
    piecewise isomorphisms; the result is checked before it is returned."""
    pieces1 = indecomposable_summands(m1)
    pieces2 = indecomposable_summands(m2)
    if len(pieces1) != len(pieces2):
        return None
    used = [False] * len(pieces2)
    piece_isos = []
    for mod1, incl1, proj1 in pieces1:
        matched = None
        for idx, (mod2, incl2, proj2) in enumerate(pieces2):
            if used[idx]:
                continue
            iso = indecomposable_isomorphism(mod1, mod2)
            if iso is not None:
                used[idx] = True
                matched = (idx, iso)
                break
        if matched is None:
            return None
        piece_isos.append(matched)
    diagonal = block(
        [[iso if k == j else None for k, (_, iso) in enumerate(piece_isos)]
         for j in range(len(piece_isos))]
    )
    candidate = (
        block([[pieces2[idx][1] for idx, _ in piece_isos]])
        @ diagonal
        @ block([[proj1] for _, _, proj1 in pieces1])
    )
    if not candidate.is_iso() or not candidate.is_equivariant():
        return None
    return candidate


@memoized
def indecomposable_summands(module):
    """Decompose into indecomposables; tuple of (piece, inclusion, projection).

    Inclusions and projections compose to the identity of the original
    module when summed, so the pieces witness an internal direct sum.
    Uses powers of endomorphisms to split off kernel/image pairs.
    """
    if module.dim == 0:
        return ()
    splitting = _find_splitting_endo(module)
    if splitting is None:
        return ((module, identity_morphism(module), identity_morphism(module)),)
    ker_cols, im_cols = splitting
    return _split_and_recurse(module, ker_cols, im_cols)


def _split_and_recurse(module, ker_cols, im_cols):
    p = module.p
    sub_k, incl_k = submodule_from_columns(module, ker_cols)
    sub_i, incl_i = submodule_from_columns(module, im_cols)
    stacked = np.concatenate([ker_cols.a, im_cols.a], axis=1)
    full = FieldMatrix(p, stacked)
    inv = solve(full, FieldMatrix.identity(p, module.dim))
    if inv is None:
        raise InternalInconsistencyError("splitting pieces do not span")
    proj_k = Morphism(module, sub_k, inv.a[: sub_k.dim, :], check=False)
    proj_i = Morphism(module, sub_i, inv.a[sub_k.dim :, :], check=False)
    pieces = []
    for sub, incl, proj in ((sub_k, incl_k, proj_k), (sub_i, incl_i, proj_i)):
        for piece, p_incl, p_proj in indecomposable_summands(sub):
            pieces.append((piece, incl @ p_incl, p_proj @ proj))
    return tuple(pieces)


def _find_splitting_endo(module):
    """Look for an endomorphism whose stable kernel/image split the module.

    The stable kernel and image are those of the power mat**(2**b) with
    b = max(1, dim.bit_length()), which is at least dim.  ``_search_span``
    looks for a combination whose power has 0 < rank < dim.
    """
    p = module.p
    dim = module.dim
    mats = [b.matrix for b in hom_basis(module, module)]
    squarings = max(1, dim.bit_length())

    def splits(stack):
        for _ in range(squarings):
            stack = np.matmul(stack, stack) % p
        r = rank_stack(stack, p)
        return (0 < r) & (r < dim)

    hit = _search_span(mats, p, splits, ("splitter", module.digest))
    if hit is None:
        return None
    power = FieldMatrix(p, hit)
    for _ in range(squarings):
        power = power @ power
    return kernel_basis(power), column_space_basis(power)


# ---------------------------------------------------------------------------
# Enumeration of all modules up to a dimension bound
# ---------------------------------------------------------------------------


@memoized
def enumerate_modules(algebra, max_dim, budget=DEFAULT_BUDGET):
    """All isomorphism classes of modules of dimension <= max_dim, as a tuple.

    Builds the list in layers: simples first, then for each dimension m
    and each simple S, in ``simple_modules`` order, the middles of
    Ext1(base, S) over every class ``base`` of dimension m - dim S.  Every
    module has a simple submodule, so each class of dimension m extends a
    class of smaller dimension by a simple and the sweep is exhaustive.
    ``middles`` realizes one class per orbit, the first in
    ``itertools.product`` order, and the first class of every isomorphism
    class of middles is among them.  Each class is kept under the first
    simple of its socle, by two exact rules (McKay's isomorph rejection
    by a canonical construction path, J. Algorithms 26, 1998):

    - a middle E into which an earlier simple T embeds is dropped unseen.
      It is the middle of a class of Ext1(E/T, T) with E/T in the
      complete lower layer, so the walk met its class under T.  Hom(T, S)
      = 0 (Schur), so Hom(T, E) embeds in Hom(T, base): only the T with
      Hom(T, base) != 0 are tried, once per base;
    - any other middle is compared by ``is_isomorphic`` only with the
      classes kept under S: every class kept under an earlier T contains
      T, and this middle does not.

    Every middle met under S contains S, so each class is met first under
    the first simple of its socle, and the representatives kept are those
    of a walk that compares every middle with the whole layer.  The Ext
    groups land in the memo of ``ext1``, where later sweeps over the same
    pairs find them.

    Each layer is sorted by (``fingerprint``, digest), and a fingerprint
    starts with the dimension, so the tuple joined from the layers in
    order of dimension is sorted by (dim, ``fingerprint``, digest).

    The budget guards p**(max_dim**2), the nominal size of the raw search
    space the layering replaces.
    """
    if max_dim < 0:
        raise ValidationError("dimension bound must be nonnegative, got %d" % max_dim)
    cells = max_dim * max_dim
    # p >= 2, so p**cells > budget as soon as cells >= budget.bit_length()
    if cells >= budget.bit_length() or algebra.p**cells > budget:
        raise BudgetExceededError(
            "module enumeration for dimension %d exceeds budget %d" % (max_dim, budget)
        )
    simples = simple_modules(algebra, budget=budget)
    by_dim = {0: [zero_module(algebra)]}
    for m in range(1, max_dim + 1):
        layer = []
        for j, s in enumerate(simples):
            if s.dim > m:
                continue
            kept = []
            for base in by_dim.get(m - s.dim, []):
                earlier = [t for t in simples[:j] if hom_basis(t, base)]
                for cand in ext1(base, s).middles:
                    if any(hom_basis(t, cand) for t in earlier):
                        continue
                    if all(is_isomorphic(cand, seen) is None for seen in kept):
                        kept.append(cand)
            layer.extend(kept)
        layer.sort(key=lambda mod: (fingerprint(mod), mod.digest))
        by_dim[m] = layer
    return tuple(mod for m in range(max_dim + 1) for mod in by_dim[m])


class ClassIndex:
    """Position of any module's isomorphism class in a complete enumeration.

    ``modules`` holds one module of every isomorphism class of dimension
    <= ``bound``, as ``enumerate_modules`` returns them.  ``find`` tries the
    digest, then the ``fingerprint`` bucket: the fingerprint is an
    isomorphism invariant and the list is complete, so the class of a
    module within the bound is in its bucket, and a one-member bucket is
    the answer without a witness.  Larger buckets are searched with
    ``is_isomorphic``.  Answers are kept by digest.
    """

    def __init__(self, modules):
        self.modules = tuple(modules)
        self.algebra = self.modules[0].algebra
        self.bound = max(m.dim for m in self.modules)
        self._found = {m.digest: i for i, m in enumerate(self.modules)}
        self._buckets = {}
        for i, m in enumerate(self.modules):
            self._buckets.setdefault(fingerprint(m), []).append(i)

    def find(self, m):
        """Index of the class of ``m`` in ``modules``, or None when m lies
        over another algebra or above the bound."""
        if m.digest not in self._found:
            self._found[m.digest] = self._search(m)
        return self._found[m.digest]

    def _search(self, m):
        if m.algebra.digest != self.algebra.digest or m.dim > self.bound:
            return None
        bucket = self._buckets.get(fingerprint(m), [])
        if len(bucket) == 1:
            return bucket[0]
        for i in bucket:
            if is_isomorphic(m, self.modules[i]) is not None:
                return i
        return None


@memoized
def class_index(algebra, max_dim, budget=DEFAULT_BUDGET):
    """The ``ClassIndex`` of ``enumerate_modules(algebra, max_dim, budget)``,
    built once per enumeration."""
    return ClassIndex(enumerate_modules(algebra, max_dim, budget=budget))
