"""Named-object workspaces serialized as single JSON files.

A workspace file carries algebras (by structure constants or by quiver
presentation), modules, morphisms, spans, and bounded complexes, all
referenced by name, plus a configuration block with default bounds,
seeds, and class choices.  Loading validates every object; the
``collect_failures`` mode gathers per-object problems instead of raising
so the `validate` subcommand can report them all at once.  A loaded
workspace is read-only, and a file is parsed and validated once per
process for each distinct (stem, text): later loads of the same bytes
return the same workspace, and an edited file is read afresh.

The bundled corpus lives next to this module and is regenerated by
``standard_corpus`` / ``write_corpus``; files on disk must match the
builders byte for byte.
"""

import json
import pathlib
import types

import numpy as np

from .algebra import (
    Algebra,
    Module,
    Morphism,
    QuiverPresentation,
    algebra_from_quiver,
    direct_sum,
    hom_basis,
    memoized,
    regular_module,
    simple_modules,
)
from .chains import ChainComplex
from .errors import MalformedInputError, ValidationError
from .linalg import MODULUS_LIMIT, is_prime
from .spans import SpanObject


_SECTIONS = ("algebras", "modules", "morphisms", "spans", "complexes")


class Workspace:
    """Registry of named objects sharing one file, plus configuration."""

    def __init__(self, name=""):
        self.name = name
        self.config = {}
        self.algebras = {}
        self.modules = {}
        self.morphisms = {}
        self.spans = {}
        self.complexes = {}

    def _lookup(self, table, kind, name):
        try:
            return table[name]
        except KeyError:
            raise MalformedInputError(
                "unknown %s %r in workspace %r" % (kind, name, self.name)
            ) from None

    def algebra(self, name):
        return self._lookup(self.algebras, "algebra", name)

    def module(self, name):
        return self._lookup(self.modules, "module", name)

    def morphism(self, name):
        return self._lookup(self.morphisms, "morphism", name)

    def span(self, name):
        return self._lookup(self.spans, "span", name)

    def complex(self, name):
        return self._lookup(self.complexes, "complex", name)

    def only_algebra(self):
        if len(self.algebras) != 1:
            raise MalformedInputError(
                "workspace %r has %d algebras; pass --algebra"
                % (self.name, len(self.algebras))
            )
        return next(iter(self.algebras.values()))

    def label_of(self, module):
        """Registered name of a module (by digest), or a dimension tag."""
        for name, m in self.modules.items():
            if m.digest == module.digest:
                return name
        return "[dim %d]" % module.dim

    def counts(self):
        return {
            "algebras": len(self.algebras),
            "modules": len(self.modules),
            "morphisms": len(self.morphisms),
            "spans": len(self.spans),
            "complexes": len(self.complexes),
        }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _require(cond, message):
    if not cond:
        raise MalformedInputError(message)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _int_array(value, ndim):
    """Is ``value`` a rectangular ``ndim``-dimensional array of JSON integers
    that fit in int64?  For a matrix, ``[]`` (no rows) counts."""
    try:
        arr = np.array(value, dtype=object)
    except ValueError:
        return False
    if ndim == 2 and arr.shape == (0,):
        return True
    return arr.ndim == ndim and all(_is_int(v) and abs(v) < 2**63 for v in arr.flat)


def _matrix(value, cols):
    """A JSON matrix, reading ``[]`` as the matrix with no rows and ``cols``
    columns: JSON cannot give the width of a matrix with no rows."""
    if isinstance(value, list) and not value:
        return np.zeros((0, cols), dtype=np.int64)
    return value


def _require_matrices(values, what):
    _require(
        isinstance(values, list) and all(_int_array(m, 2) for m in values),
        "%s must be a list of integer matrices" % what,
    )


def _as_dict(doc, key, optional=False):
    value = doc.get(key, {} if optional else None)
    _require(isinstance(value, dict), "%r must be a JSON object" % key)
    return value


def algebra_from_entry(entry):
    _require(isinstance(entry, dict), "algebra entry must be an object")
    _require("p" in entry, "algebra entry needs the prime p")
    p = entry["p"]
    _require(_is_int(p), "the prime p must be an integer, got %r" % (p,))
    _require(
        p < MODULUS_LIMIT,
        "the prime p = %d is too large: GF(p) arithmetic is exact in int64 "
        "only for p below %d" % (p, MODULUS_LIMIT),
    )
    _require(is_prime(p), "p = %d is not prime" % p)
    if "quiver" in entry:
        q = entry["quiver"]
        _require(isinstance(q, dict), "quiver description must be an object")
        _require(
            _is_int(q.get("vertices", 0)) and _is_int(q.get("nil_bound", 2)),
            "quiver vertices and nil_bound must be integers",
        )
        _require(
            isinstance(q.get("arrows", []), list)
            and all(
                isinstance(a, list) and len(a) == 3 and _is_int(a[0]) and _is_int(a[1])
                for a in q.get("arrows", [])
            ),
            "quiver arrows must be [source, target, label] triples",
        )
        relations = q.get("relations", [])
        _require(
            isinstance(relations, list)
            and all(
                isinstance(rel, list)
                and all(
                    isinstance(term, list) and len(term) == 2 and _is_int(term[0])
                    and isinstance(term[1], list)
                    for term in rel
                )
                for rel in relations
            ),
            "quiver relations must be lists of [coefficient, [label, ...]] terms",
        )
        pres = QuiverPresentation(
            p,
            q.get("vertices", 0),
            [tuple(a) for a in q.get("arrows", [])],
            relations=[[(c, list(path)) for c, path in rel] for rel in relations],
            nil_bound=q.get("nil_bound", 2),
        )
        return algebra_from_quiver(pres)
    _require(
        "structure" in entry and "unit" in entry,
        "algebra entry needs structure constants and a unit (or a quiver)",
    )
    _require(
        _int_array(entry["structure"], 3) and _int_array(entry["unit"], 1),
        "structure constants must be an integer cube and the unit an integer vector",
    )
    labels = entry.get("basis_labels")
    _require(
        labels is None
        or (isinstance(labels, list) and all(isinstance(x, str) for x in labels)),
        "basis_labels must be a list of strings",
    )
    return Algebra(
        p, entry["structure"], entry["unit"],
        basis_labels=labels,
    )


def algebra_to_entry(algebra, quiver=None):
    if quiver is not None:
        out = {"p": quiver.p, "quiver": {
            "vertices": quiver.vertices,
            "arrows": [list(a) for a in quiver.arrows],
            "nil_bound": quiver.nil_bound,
        }}
        if quiver.relations:
            out["quiver"]["relations"] = [
                [[c, list(path)] for c, path in rel] for rel in quiver.relations
            ]
        return out
    out = {
        "p": algebra.p,
        "structure": algebra.structure.tolist(),
        "unit": algebra.unit.tolist(),
    }
    if algebra.basis_labels is not None:
        out["basis_labels"] = list(algebra.basis_labels)
    return out


def module_to_entry(ws_name_of_algebra, module):
    return {
        "algebra": ws_name_of_algebra,
        "action": module.rho.tolist(),
    }


def morphism_to_entry(dom_name, cod_name, morphism):
    return {
        "dom": dom_name,
        "cod": cod_name,
        "matrix": morphism.matrix.a.tolist(),
    }


def load_workspace(source, collect_failures=False):
    """Build a read-only Workspace from a path or an already-parsed dict.

    With ``collect_failures`` the return value is ``(workspace, failures)``
    where ``failures`` is a tuple naming each offending object; objects
    that fail validation (or reference one that did) are skipped instead
    of raising.  Structural problems with the file itself always raise
    MalformedInputError.

    A path is read on every call, and its text goes to the memoized
    ``_workspace_from_text``, so repeated loads of the same bytes share
    one parse and validation; a dict is built afresh each time.
    """
    if isinstance(source, dict):
        return _build_workspace(source, "", collect_failures)
    path = pathlib.Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise MalformedInputError(
            "input file %r does not exist" % str(source)
        ) from None
    except (OSError, UnicodeDecodeError) as err:
        raise MalformedInputError(
            "cannot read input file %r: %s" % (str(source), err)
        ) from None
    return _workspace_from_text(path.stem, text, collect_failures)


@memoized
def _workspace_from_text(stem, text, collect_failures):
    """``load_workspace`` of a file with this stem and text.  The key is
    the whole text, so equal bytes give the same parse and validation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise MalformedInputError(
            "input is not valid JSON: %s" % err
        ) from None
    return _build_workspace(doc, stem, collect_failures)


def _build_workspace(doc, name, collect_failures):
    _require(isinstance(doc, dict), "workspace document must be a JSON object")
    name = doc.get("name", name)
    _require(isinstance(name, str), "workspace 'name' must be a string")
    for key in doc:
        if key not in _SECTIONS + ("name", "config"):
            raise MalformedInputError("unknown workspace section %r" % key)

    ws = Workspace(name)
    ws.config = _as_dict(doc, "config", optional=True)
    failures = []
    broken = set()

    def fail(kind, obj_name, message):
        if not collect_failures:
            raise ValidationError("%s %r: %s" % (kind, obj_name, message))
        failures.append({"kind": kind, "name": obj_name, "problem": message})
        broken.add((kind, obj_name))

    def resolve(table, kind, obj_name, ref_kind, ref):
        _require(isinstance(ref, str), "%s %r: a %s reference must be a name"
                 % (kind, obj_name, ref_kind))
        if ref in table:
            return table[ref]
        if (ref_kind, ref) in broken:
            fail(kind, obj_name, "references failed %s %r" % (ref_kind, ref))
            return None
        raise MalformedInputError(
            "%s %r references unknown %s %r" % (kind, obj_name, ref_kind, ref)
        )

    for alg_name, entry in sorted(_as_dict(doc, "algebras", optional=True).items()):
        try:
            ws.algebras[alg_name] = algebra_from_entry(entry)
        except ValidationError as err:
            fail("algebra", alg_name, str(err))

    for mod_name, entry in sorted(_as_dict(doc, "modules", optional=True).items()):
        _require(isinstance(entry, dict), "module entry must be an object")
        _require("algebra" in entry and "action" in entry,
                 "module entry needs an algebra reference and action matrices")
        _require_matrices(entry["action"], "module %r action" % mod_name)
        algebra = resolve(ws.algebras, "module", mod_name, "algebra", entry["algebra"])
        if algebra is None:
            continue
        try:
            ws.modules[mod_name] = Module(
                algebra, [_matrix(m, 0) for m in entry["action"]]
            )
        except ValidationError as err:
            fail("module", mod_name, str(err))

    for mor_name, entry in sorted(_as_dict(doc, "morphisms", optional=True).items()):
        _require(isinstance(entry, dict), "morphism entry must be an object")
        _require(all(k in entry for k in ("dom", "cod", "matrix")),
                 "morphism entry needs dom, cod, and a matrix")
        _require(_int_array(entry["matrix"], 2),
                 "morphism %r matrix must be an integer matrix" % mor_name)
        dom = resolve(ws.modules, "morphism", mor_name, "module", entry["dom"])
        cod = resolve(ws.modules, "morphism", mor_name, "module", entry["cod"])
        if dom is None or cod is None:
            continue
        try:
            ws.morphisms[mor_name] = Morphism(
                dom, cod, _matrix(entry["matrix"], dom.dim)
            )
        except ValidationError as err:
            fail("morphism", mor_name, str(err))

    for sp_name, entry in sorted(_as_dict(doc, "spans", optional=True).items()):
        _require(isinstance(entry, dict), "span entry must be an object")
        _require(all(k in entry for k in ("left", "apex", "right", "g", "f")),
                 "span entry needs left, apex, right, g, f")
        _require(_int_array(entry["g"], 2) and _int_array(entry["f"], 2),
                 "span %r legs must be integer matrices" % sp_name)
        parts = {}
        for key in ("left", "apex", "right"):
            parts[key] = resolve(ws.modules, "span", sp_name, "module", entry[key])
        if any(v is None for v in parts.values()):
            continue
        try:
            apex = parts["apex"]
            g = Morphism(apex, parts["left"], _matrix(entry["g"], apex.dim))
            f = Morphism(apex, parts["right"], _matrix(entry["f"], apex.dim))
            ws.spans[sp_name] = SpanObject(g, f)
        except ValidationError as err:
            fail("span", sp_name, str(err))

    for cx_name, entry in sorted(_as_dict(doc, "complexes", optional=True).items()):
        _require(isinstance(entry, dict), "complex entry must be an object")
        _require(all(k in entry for k in ("algebra", "lo", "objects", "differentials")),
                 "complex entry needs algebra, lo, objects, differentials")
        _require(_is_int(entry["lo"]) and isinstance(entry["objects"], list),
                 "complex %r needs an integer lo and a list of objects" % cx_name)
        _require_matrices(entry["differentials"], "complex %r differentials" % cx_name)
        algebra = resolve(ws.algebras, "complex", cx_name, "algebra", entry["algebra"])
        if algebra is None:
            continue
        objects = []
        ok = True
        for ref in entry["objects"]:
            mod = resolve(ws.modules, "complex", cx_name, "module", ref)
            if mod is None:
                ok = False
                break
            objects.append(mod)
        if not ok:
            continue
        try:
            diffs = [
                Morphism(objects[i + 1], objects[i], _matrix(mat, objects[i + 1].dim))
                for i, mat in enumerate(entry["differentials"])
            ]
            ws.complexes[cx_name] = ChainComplex(algebra, entry["lo"], objects, diffs)
        except (ValidationError, IndexError) as err:
            fail("complex", cx_name, str(err))

    # read-only tables: a memoized workspace is shared by every later load
    for table in ("config",) + _SECTIONS:
        setattr(ws, table, types.MappingProxyType(getattr(ws, table)))
    if collect_failures:
        return ws, tuple(failures)
    return ws


def dump_workspace(doc):
    """Canonical byte representation of a workspace document."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# the bundled corpus
# ---------------------------------------------------------------------------


def corpus_dir():
    return pathlib.Path(__file__).resolve().parent / "corpus"


def corpus_path(name):
    return corpus_dir() / (name + ".json")


def _truncated_polynomial_entry(degree):
    """F_2[x]/(x^degree) by structure constants, basis 1, x, ..."""
    dim = degree
    structure = [
        [[1 if (i + j == k and i + j < dim) else 0 for k in range(dim)]
         for j in range(dim)]
        for i in range(dim)
    ]
    labels = ["1"] + ["x" * i if i == 1 else "x^%d" % i for i in range(1, dim)]
    return {
        "p": 2,
        "structure": structure,
        "unit": [1] + [0] * (dim - 1),
        "basis_labels": labels,
    }


def _fx2_document():
    entry = _truncated_polynomial_entry(2)
    algebra = algebra_from_entry(entry)
    reg = regular_module(algebra)
    simple = Module(algebra, [[[1]], [[0]]])
    padded, (_, inj_s), (proj_a, _) = direct_sum([reg, simple])
    socle = [f for f in hom_basis(simple, reg) if f.is_mono()][0]
    socle_quot = [
        f for f in hom_basis(reg, simple) if f.is_epi() and (f @ socle).is_zero()
    ][0]
    mul_x = [f for f in hom_basis(reg, reg) if not f.is_iso() and not f.is_zero()][0]
    doc = {
        "name": "fx2",
        "config": {
            "dim_bound": 4,
            "seed": 0,
            "class": "all",
            "acyclics": "projectives",
        },
        "algebras": {"fx2": entry},
        "modules": {
            "S": module_to_entry("fx2", simple),
            "A": module_to_entry("fx2", reg),
            "AS": module_to_entry("fx2", padded),
        },
        "morphisms": {
            "mul_x": morphism_to_entry("A", "A", mul_x),
            "socle": morphism_to_entry("S", "A", socle),
            "socle_quot": morphism_to_entry("A", "S", socle_quot),
            "pad_incl": morphism_to_entry("S", "AS", inj_s),
            "pad_proj": morphism_to_entry("AS", "A", proj_a),
            "id_S": morphism_to_entry(
                "S", "S", Morphism(simple, simple, [[1]], check=False)
            ),
            "id_A": morphism_to_entry(
                "A", "A", Morphism(reg, reg, [[1, 0], [0, 1]], check=False)
            ),
        },
        "spans": {
            "socle_span": {
                "left": "S",
                "apex": "S",
                "right": "A",
                "g": [[1]],
                "f": socle.matrix.a.tolist(),
            }
        },
        "complexes": {
            "xcx": {
                "algebra": "fx2",
                "lo": 0,
                "objects": ["A", "A"],
                "differentials": [mul_x.matrix.a.tolist()],
            }
        },
    }
    return doc


def _fx3_document():
    entry = _truncated_polynomial_entry(3)
    algebra = algebra_from_entry(entry)
    reg = regular_module(algebra)
    simple = Module(algebra, [[[1]], [[0]], [[0]]])
    jordan2 = Module(algebra, [
        [[1, 0], [0, 1]],
        [[0, 0], [1, 0]],
        [[0, 0], [0, 0]],
    ])
    mul_x = None
    for f in hom_basis(reg, reg):
        if not f.is_iso() and not f.is_zero() and not (f @ f).is_zero():
            mul_x = f
            break
    step = [f for f in hom_basis(jordan2, reg) if f.is_mono()][0]
    return {
        "name": "fx3",
        "config": {
            "dim_bound": 3,
            "seed": 0,
            "class": "all",
            "acyclics": "projectives",
        },
        "algebras": {"fx3": entry},
        "modules": {
            "S": module_to_entry("fx3", simple),
            "J2": module_to_entry("fx3", jordan2),
            "A": module_to_entry("fx3", reg),
        },
        "morphisms": {
            "mul_x": morphism_to_entry("A", "A", mul_x),
            "step": morphism_to_entry("J2", "A", step),
        },
    }


def _f2c2_document():
    entry = {
        "p": 2,
        "structure": [
            [[1, 0], [0, 1]],
            [[0, 1], [1, 0]],
        ],
        "unit": [1, 0],
        "basis_labels": ["e", "g"],
    }
    algebra = algebra_from_entry(entry)
    reg = regular_module(algebra)
    trivial = Module(algebra, [[[1]], [[1]]])
    aug = Morphism(reg, trivial, [[1, 1]])
    norm = Morphism(trivial, reg, [[1], [1]])
    return {
        "name": "f2c2",
        "config": {
            "dim_bound": 4,
            "seed": 0,
            "class": "all",
            "acyclics": "projectives",
        },
        "algebras": {"f2c2": entry},
        "modules": {
            "triv": module_to_entry("f2c2", trivial),
            "A": module_to_entry("f2c2", reg),
        },
        "morphisms": {
            "aug": morphism_to_entry("A", "triv", aug),
            "norm": morphism_to_entry("triv", "A", norm),
        },
    }


def _quiver_document(name, pres, config=None):
    algebra = algebra_from_quiver(pres)
    doc = {
        "name": name,
        "config": config or {"dim_bound": 3, "seed": 0,
                             "class": "all", "acyclics": "injectives"},
        "algebras": {name: algebra_to_entry(algebra, quiver=pres)},
        "modules": {},
        "morphisms": {},
    }
    reg = regular_module(algebra)
    doc["modules"]["A"] = module_to_entry(name, reg)
    for idx, s in enumerate(simple_modules(algebra)):
        doc["modules"]["s%d" % idx] = module_to_entry(name, s)
        maps_in = [f for f in hom_basis(s, reg) if f.is_mono()]
        if maps_in:
            doc["morphisms"]["incl_s%d" % idx] = morphism_to_entry(
                "s%d" % idx, "A", maps_in[0]
            )
        maps_out = [f for f in hom_basis(reg, s) if f.is_epi()]
        if maps_out:
            doc["morphisms"]["proj_s%d" % idx] = morphism_to_entry(
                "A", "s%d" % idx, maps_out[0]
            )
    return doc


def standard_corpus():
    """All bundled workspace documents, keyed by file stem."""
    a1 = QuiverPresentation(
        2, 2,
        [(0, 0, "a0"), (0, 1, "a1")],
        relations=[[(1, ["a0", "a0"])], [(1, ["a0", "a1"])]],
    )
    a2 = QuiverPresentation(2, 2, [(0, 1, "b")], nil_bound=2)
    return {
        "fx2": _fx2_document(),
        "fx3": _fx3_document(),
        "f2c2": _f2c2_document(),
        "quiver_a1": _quiver_document("quiver_a1", a1),
        "quiver_a2": _quiver_document("quiver_a2", a2),
    }


def write_corpus(directory=None):
    """Write the bundled corpus files; returns the paths written."""
    target = pathlib.Path(directory) if directory is not None else corpus_dir()
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, doc in sorted(standard_corpus().items()):
        path = target / (stem + ".json")
        path.write_text(dump_workspace(doc))
        written.append(path)
    return written
