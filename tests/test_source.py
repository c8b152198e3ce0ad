"""Source-level checks on the waldcat package and its tests.

Seeded random search must stay off decision paths: every report is a
deterministic decision, and seeded draws belong to CLI sampling.  The one
search site in ``algebra``, the beyond-the-cap Hom-span search shared by
isomorphism and decomposition, still stands in for exact decisions; it
leaves this list when those become exact.

Memo tables exist only through ``algebra.memoized``, whose ``cache_clear``
empties them: the functools caches stay at the sites listed below, and no
module binds a table of its own at the top level.

The module-map equations are δ⁰ = ``algebra.coboundary``, and only Hom
(``_hom_matrices``, its kernel) and ``ext1`` (its coboundaries) call it.
Every other map problem is solved on Hom-basis coordinates by
``algebra.solve_maps``, so the package defines no linear-system class.

Classes of modules and cotorsion pairs are told apart by the specs and
covers they hold, never by a kind string: no package code compares a
``kind`` attribute.

The package's arithmetic is int64 mod p: no module uses ``np.linalg``,
names a float dtype (``float``, ``np.float64``, ``np.float32``, ``"f8"``
and the like) or casts with ``astype(float)``.  Nothing calls BLAS, and
that is what lets ``waldcat/__init__`` load numpy with OpenBLAS pinned to
one thread at no cost.

Every imported name is referenced in its file, so an import left behind
by deleted code does not survive.  The package holds only what it runs:
each top-level function and class, and each method of its classes, is
read by package code outside its own body and outside other definitions
that nothing reads, or it is named API in the README with a reader
outside the package (``NAMED_API``) that package or test code still
references.  Helpers only tests use live under ``tests/``.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import waldcat

PACKAGE = Path(waldcat.__file__).parent
TESTS = Path(__file__).parent

ALLOWED_RNG_SITES = [
    ("algebra", "_search_span"),
    ("cli", "_rng"),
]


def _called_name(func):
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _rng_sites():
    """(module, top-level definition) of every ``default_rng(`` call."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and _called_name(call.func) == "default_rng":
                    sites.append((path.stem, getattr(node, "name", None)))
    return sites


def test_default_rng_only_at_the_allowed_sites():
    assert sorted(_rng_sites()) == ALLOWED_RNG_SITES


ALLOWED_CACHE_SITES = [
    ("algebra", "Ext1Result.middles"),
    ("cli", "_parser"),
    ("linalg", "is_prime"),
]

_FUNCTOOLS_CACHES = {"cache", "lru_cache", "cached_property"}


def _is_cache(node):
    return (
        (isinstance(node, ast.Attribute) and node.attr in _FUNCTOOLS_CACHES
         and isinstance(node.value, ast.Name) and node.value.id == "functools")
        or (isinstance(node, ast.Name) and node.id in _FUNCTOOLS_CACHES - {"cache"})
        or (isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(a.name in _FUNCTOOLS_CACHES for a in node.names))
    )


def _cache_sites(body, scope=()):
    """Qualified names of the definitions in the statements ``body`` that
    use a functools cache (``functools.cache``, ``lru_cache`` or
    ``cached_property``, by attribute, by name or by import), once per use;
    "" for module level."""
    sites = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = scope + (node.name,)
            sites += [".".join(name) for d in node.decorator_list
                      for n in ast.walk(d) if _is_cache(n)]
            sites += _cache_sites(node.body, name)
        else:
            sites += [".".join(scope) for n in ast.walk(node) if _is_cache(n)]
    return sites


def _module_tables(tree):
    """Line numbers of module-level names bound to ``{}`` or ``dict()``."""
    lines = []
    for node in tree.body:
        value = getattr(node, "value", None)
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or value is None:
            continue
        empty_literal = isinstance(value, ast.Dict) and not value.keys
        empty_call = (isinstance(value, ast.Call) and _called_name(value.func) == "dict"
                      and not value.args and not value.keywords)
        if empty_literal or empty_call:
            lines.append(node.lineno)
    return lines


def test_memo_tables_only_through_memoized():
    sites = []
    tables = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        sites += [(path.stem, site) for site in _cache_sites(tree.body)]
        if _module_tables(tree):
            tables[path.name] = _module_tables(tree)
    assert sorted(sites) == ALLOWED_CACHE_SITES
    assert tables == {}


def test_memo_scans_flag_caches_and_module_tables():
    tree = ast.parse(
        "import functools\n"
        "from functools import lru_cache\n"
        "_TABLE = {}\n"
        "_OTHER: dict = dict()\n"
        "_NAMES = {'a': 1}\n"
        "@functools.cache\n"
        "def cached(x):\n"
        "    local = {}\n"
        "    return x\n"
        "class Holder:\n"
        "    @functools.cached_property\n"
        "    def prop(self):\n"
        "        return lru_cache(maxsize=None)(len)\n"
        "def plain(cache):\n"
        "    return cache.get(1)\n"
    )
    assert _cache_sites(tree.body) == ["", "cached", "Holder.prop", "Holder.prop"]
    assert _module_tables(tree) == [3, 4]


COBOUNDARY_CALLERS = [("algebra", "_hom_matrices"), ("algebra", "ext1")]

_SYSTEM_METHODS = {"add_equation", "add_rows", "solution_space"}


def _coboundary_callers(tree):
    """Top-level definitions of ``tree`` that call ``coboundary``, once each
    in order; "" for a call at module level."""
    callers = []
    for node in tree.body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and _called_name(call.func) == "coboundary":
                name = getattr(node, "name", "")
                if name not in callers:
                    callers.append(name)
    return callers


def _linear_system_classes(tree):
    """Classes of ``tree`` that collect linear equations on unknown matrices:
    one named ``MatVar`` or ending in ``System``, or one defining a method
    ``add_equation``, ``add_rows`` or ``solution_space``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {item.name for item in node.body
                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if (node.name == "MatVar" or node.name.endswith("System")
                or methods & _SYSTEM_METHODS):
            found.append(node.name)
    return found


def test_coboundary_only_in_hom_and_ext1_and_no_linear_system_class():
    callers, classes = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        callers += [(path.stem, name) for name in _coboundary_callers(tree)]
        if _linear_system_classes(tree):
            classes[path.name] = _linear_system_classes(tree)
    assert sorted(callers) == COBOUNDARY_CALLERS
    assert classes == {}


def test_coboundary_and_system_scans_flag_callers_and_classes():
    tree = ast.parse(
        "def hom(dom, cod):\n"
        "    return kernel_basis(coboundary(dom, cod))\n"
        "def twice(m):\n"
        "    return alg.coboundary(m, m), coboundary(m, m)\n"
        "def names_only(m):\n"
        "    return coboundary\n"
        "class Holder:\n"
        "    def method(self, m):\n"
        "        return coboundary(m, m)\n"
        "class LinearSystem:\n"
        "    pass\n"
        "class Rows:\n"
        "    def add_rows(self, coeffs):\n"
        "        pass\n"
        "class MatVar:\n"
        "    pass\n"
        "class Plain:\n"
        "    def solve(self):\n"
        "        pass\n"
    )
    assert _coboundary_callers(tree) == ["hom", "twice", "Holder"]
    assert _linear_system_classes(tree) == ["LinearSystem", "Rows", "MatVar"]


def _kind_comparisons(tree):
    """Line numbers of comparisons in ``tree`` with a ``.kind`` attribute
    on either side."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(side, ast.Attribute) and side.attr == "kind"
                for side in [node.left, *node.comparators])
    ]


def test_no_dispatch_on_kind_attributes():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _kind_comparisons(ast.parse(path.read_text()))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_kind_scan_flags_only_comparisons_of_kind_attributes():
    tree = ast.parse(
        "if self.kind == 'all':\n"
        "    pass\n"
        "ok = pair.kind in ('a', 'b')\n"
        "same = 'x' != spec.kind\n"
        "kind = 'free'\n"
        "label = spec.kind\n"
        "plain = kind == 'free'\n"
        "other = spec.name == 'all'\n"
    )
    assert _kind_comparisons(tree) == [1, 3, 4]


_FLOAT_DTYPE_STRINGS = {"f2", "f4", "f8", "float", "float16", "float32", "float64", "double"}


def _imports_numpy_linalg(node):
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.linalg") for a in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and (
        (node.module or "").startswith("numpy.linalg")
        or (node.module == "numpy" and any(a.name == "linalg" for a in node.names))
    )


def _float_uses(tree):
    """Line numbers of uses of floating point or of numpy's ``linalg`` in
    ``tree``: the name ``float``, an attribute ``float16``/``float32``/
    ``float64``, ``np.linalg`` or ``numpy.linalg``, a float dtype string,
    and an import of ``numpy.linalg``.  The package's own GF(p) ``linalg``
    module is not flagged."""
    lines = set()
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Name) and node.id == "float")
            or (isinstance(node, ast.Attribute) and node.attr.startswith("float"))
            or (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
            or (isinstance(node, ast.Constant) and node.value in _FLOAT_DTYPE_STRINGS)
            or _imports_numpy_linalg(node)
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_floating_point_or_blas_in_the_package():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _float_uses(ast.parse(path.read_text()))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_float_scan_flags_float_dtypes_and_linalg():
    tree = ast.parse(
        "import numpy as np\n"
        "x = np.zeros(3, dtype=np.int64).astype(float)\n"
        "y = np.linalg.matrix_rank(x)\n"
        "z = np.zeros(2, dtype='f8')\n"
        "w = np.float32(1) + np.float64(2)\n"
        "from numpy import linalg\n"
        "import numpy.linalg\n"
        "from .linalg import rank\n"
        "msg = 'a float is not a field element'\n"
        "v = np.zeros(2, dtype=np.int64) // 2\n"
    )
    assert _float_uses(tree) == [2, 3, 4, 5, 6, 7]


def _unused_imports(tree):
    """Names bound by an import in ``tree`` and never read, apart from
    ``from __future__`` imports."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_import_is_used():
    unused = {}
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]):
        names = _unused_imports(ast.parse(path.read_text()))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_unused_import_scan_flags_only_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import gcd, pi\n"
        "np.zeros(pi)\n"
    )
    assert _unused_imports(tree) == ["gcd", "os"]


def _definitions(tree):
    """(name, owner, node) of each top-level function and class in ``tree``
    and of each method of its top-level classes; owner is the method's
    class name, None for a top-level definition."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, None, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield item.name, node.name, item


def _references(tree):
    """Every name ``tree`` reads, as a variable or as an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def _dead_definitions(tree, references, inherited):
    """Definitions of ``tree`` that no name in ``references`` reads.

    Dunder methods are called by the language, and a method for which
    ``inherited(owner, name)`` holds overrides a base-class method that
    the base class calls, so neither counts.
    """
    return sorted(
        name
        for name, owner, _ in _definitions(tree)
        if name not in references
        and not (name.startswith("__") and name.endswith("__"))
        and not (owner and inherited(owner, name))
    )


def _inherited_in(module):
    def inherited(owner, name):
        return any(name in vars(base) for base in getattr(module, owner).__mro__[1:])

    return inherited


def test_dead_definition_scan_flags_only_unreferenced_names():
    tree = ast.parse(
        "def used(): pass\n"
        "def unused(): pass\n"
        "class Kept:\n"
        "    def __eq__(self, other): pass\n"
        "    def method(self): pass\n"
        "    def hook(self): pass\n"
        "    def stale(self): pass\n"
        "class Dropped: pass\n"
        "used()\nKept().method()\n"
    )

    def inherited(owner, name):
        return (owner, name) == ("Kept", "hook")

    assert _dead_definitions(tree, _references(tree), inherited) == [
        "Dropped", "stale", "unused",
    ]


# Definitions the package keeps although no package code reads them, each
# with its reader outside the package; README.md names every one.
NAMED_API = {
    "random_span": "perfbench/make_inputs.py draws the benchmark's spans",
    "corpus_path": "perfbench/make_inputs.py locates the corpus files",
    "write_corpus": "regenerates src/waldcat/corpus/",
}


def _reads(node):
    """How often ``node`` reads each name, as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _unread_definitions(trees, inherited, keep=()):
    """(module, name) of each definition in ``trees`` (module name to
    tree) that no code of ``trees`` reads, sorted.

    A definition's own body does not count, so recursion cannot keep it.
    Reads from unread definitions do not count either, repeated until
    nothing changes, so a helper used only by unread helpers is unread
    too.  Names in ``keep``, dunder methods and methods for which
    ``inherited(module, owner, name)`` holds are never reported.
    """
    candidates = [
        (module, name, owner, node)
        for module, tree in trees.items()
        for name, owner, node in _definitions(tree)
        if name not in keep
        and not (name.startswith("__") and name.endswith("__"))
        and not (owner and inherited(module, owner, name))
    ]
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = []
    while True:
        # a method of an unread class went with its class
        classes = {(module, name) for module, name, owner, _ in unread if owner is None}
        outer = [node for module, _, owner, node in unread if (module, owner) not in classes]
        reads = total - sum(map(_reads, outer), Counter())
        found = []
        for d in candidates:
            module, name, owner, node = d
            own = 0 if (module, owner) in classes else _reads(node)[name]
            if d not in unread and reads[name] - own <= 0:
                found.append(d)
        if not found:
            return sorted((module, name) for module, name, _, _ in unread)
        unread += found


def test_every_definition_is_read_by_the_package_or_named_api():
    trees, modules = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        trees[path.stem] = ast.parse(path.read_text())
        modules[path.stem] = importlib.import_module(
            "waldcat" if path.stem == "__init__" else "waldcat." + path.stem
        )

    def inherited(module, owner, name):
        return _inherited_in(modules[module])(owner, name)

    assert _unread_definitions(trees, inherited, keep=NAMED_API) == []
    # named API has no package reader, so some package or test code must
    # still reference it
    tests = [ast.parse(p.read_text()) for p in sorted(TESTS.glob("*.py"))]
    references = set().union(*map(_references, [*trees.values(), *tests]))
    unreferenced = [
        name
        for module, tree in trees.items()
        for name in _dead_definitions(tree, references, _inherited_in(modules[module]))
        if name in NAMED_API
    ]
    assert unreferenced == []
    readme = (TESTS.parent / "README.md").read_text()
    assert [name for name in NAMED_API if "`%s`" % name not in readme] == []


def test_unread_definition_scan_follows_only_package_reads():
    trees = {
        "a": ast.parse(
            "def main():\n"
            "    return helper() + Kept().method()\n"
            "def helper(): pass\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def only_for_tests(): return inner()\n"
            "def inner(): pass\n"
            "def api(): pass\n"
            "class Kept:\n"
            "    def __eq__(self, other): pass\n"
            "    def method(self): pass\n"
            "    def hook(self): pass\n"
            "    def stale(self): return self.stale()\n"
            "class Dropped:\n"
            "    def run(self): return Dropped()\n"
        ),
        "b": ast.parse("main()\n"),
    }

    def inherited(module, owner, name):
        return (module, owner, name) == ("a", "Kept", "hook")

    assert _unread_definitions(trees, inherited, keep={"api"}) == [
        ("a", "Dropped"), ("a", "inner"), ("a", "only_for_tests"),
        ("a", "recursive"), ("a", "run"), ("a", "stale"),
    ]
