"""Source-level checks on the waldcat package.

Seeded random search must stay off decision paths: every report is a
deterministic decision, and seeded draws belong to CLI sampling.  The two
search sites in ``algebra`` still stand in for exact isomorphism and
decomposition decisions; they leave this list when those become exact.
"""

import ast
from pathlib import Path

import waldcat

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
    for path in sorted(Path(waldcat.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and _called_name(call.func) == "default_rng":
                    sites.append((path.stem, getattr(node, "name", None)))
    return sites


def test_default_rng_only_at_the_allowed_sites():
    assert sorted(_rng_sites()) == ALLOWED_RNG_SITES
