"""Source-level checks on the waldcat package and its tests.

Seeded random search must stay off decision paths: every report is a
deterministic decision, and seeded draws belong to CLI sampling.  The two
search sites in ``algebra`` still stand in for exact isomorphism and
decomposition decisions; they leave this list when those become exact.

Every imported name is referenced in its file, so an import left behind
by deleted code does not survive.
"""

import ast
from pathlib import Path

import waldcat

PACKAGE = Path(waldcat.__file__).parent
TESTS = Path(__file__).parent

ALLOWED_RNG_SITES = [
    ("algebra", "_find_invertible_combination"),
    ("algebra", "_find_splitting_endo"),
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
