"""Write the frozen workspace inputs of the benchmark's warm workloads.

The benchmark never draws inputs with waldcat's samplers at run time: this
script writes them once as workspace JSON under ``perfbench/inputs/`` and the
committed files are what every run reads.  A change to waldcat's samplers
therefore cannot change what the benchmark measures.  Random choices here use
the script's own generator; waldcat is only asked for deterministic facts
(module lists up to isomorphism and Hom bases).  The one exception is the
known-defect span, which is defined as a particular draw of
``waldcat.sampling.random_span`` and is frozen here so that it stays fixed.

Run from the repository root:

    python3 perfbench/make_inputs.py      # rewrite perfbench/inputs/

Rewriting the inputs changes the workload; recapture the reference outputs
afterwards with ``python3 perfbench/run.py --capture``.
"""

import json
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from waldcat.algebra import Morphism, enumerate_modules, hom_basis  # noqa: E402
from waldcat.chains import ChainComplex, ChainMap  # noqa: E402
from waldcat.errors import ValidationError  # noqa: E402
from waldcat.sampling import random_span  # noqa: E402
from waldcat.workspace import (  # noqa: E402
    corpus_path,
    dump_workspace,
    load_workspace,
    module_to_entry,
    morphism_to_entry,
)

SEED = 2026
SPANS_PER_ALGEBRA = 6
COMPLEX_PAIRS = 4
# The known-defect span: the 17th random_span(rng, quiver_a1, 2) draw from
# default_rng(12).  Its dual resolution exhausts memory at the parent commit.
DEFECT_RNG_SEED = 12
DEFECT_DRAW = 17


def _combo(rng, dom, cod):
    """A random F_p-combination of the Hom basis, as a plain matrix."""
    mat = np.zeros((cod.dim, dom.dim), dtype=np.int64)
    for b in hom_basis(dom, cod):
        mat = (mat + int(rng.integers(0, dom.p)) * b.matrix.a) % dom.p
    return mat


class _Doc:
    """A workspace document under construction, named objects by content."""

    def __init__(self, name, corpus_name):
        corpus = json.loads(pathlib.Path(corpus_path(corpus_name)).read_text())
        self.alg_name = corpus_name
        self.doc = {
            "name": name,
            "algebras": {corpus_name: corpus["algebras"][corpus_name]},
            "config": {"class": "all"},
            "modules": {},
            "morphisms": {},
            "spans": {},
            "complexes": {},
        }
        self._mod_names = {}

    def module(self, m):
        if m.digest not in self._mod_names:
            name = "m%d_%d" % (m.dim, sum(1 for k in self._mod_names.values()
                                          if k.startswith("m%d_" % m.dim)))
            self._mod_names[m.digest] = name
            self.doc["modules"][name] = module_to_entry(self.alg_name, m)
        return self._mod_names[m.digest]

    def morphism(self, name, dom, cod, mat):
        self.doc["morphisms"][name] = morphism_to_entry(
            self.module(dom), self.module(cod), Morphism(dom, cod, mat.tolist())
        )
        return name

    def span(self, name, left, apex, right, g, f):
        self.doc["spans"][name] = {
            "left": self.module(left), "apex": self.module(apex),
            "right": self.module(right),
            "g": np.asarray(g).tolist(), "f": np.asarray(f).tolist(),
        }

    def write(self, path):
        path.write_text(dump_workspace(self.doc))


def _pick(rng, items):
    return items[int(rng.integers(0, len(items)))]


def _random_spans(rng, doc, mods):
    for k in range(SPANS_PER_ALGEBRA):
        apex, left, right = (_pick(rng, mods) for _ in range(3))
        doc.span("sp%d" % k, left, apex, right,
                 _combo(rng, apex, left), _combo(rng, apex, right))


def _random_complex(rng, algebra, mods):
    """A two- or three-term complex; d o d = 0 by rejection."""
    length = int(rng.integers(2, 4))
    for _ in range(200):
        objs = [_pick(rng, mods) for _ in range(length)]
        diffs = [Morphism(objs[i + 1], objs[i],
                          _combo(rng, objs[i + 1], objs[i]).tolist())
                 for i in range(length - 1)]
        try:
            return ChainComplex(algebra, 0, objs, diffs)
        except ValidationError:
            continue
    raise RuntimeError("no complex found")


def _random_chain_map(rng, x, y, tries=400):
    """Degreewise random components; keep the first set that commutes."""
    degrees = [n for n in x.degrees() if y.lo <= n <= y.hi]
    for _ in range(tries):
        comps = {n: Morphism(x.obj(n), y.obj(n),
                             _combo(rng, x.obj(n), y.obj(n)).tolist())
                 for n in degrees}
        try:
            return ChainMap(x, y, comps)
        except ValidationError:
            continue
    return None


def _complexes(rng, doc, algebra, mods):
    """Complexes cx<2k> -> cx<2k+1> with the chain map f<k>_<degree>.

    Every other pair maps a complex to itself, which often gives a
    quasi-isomorphism; the others are usually not.
    """
    maps = 0
    k = 0
    while maps < COMPLEX_PAIRS:
        x = _random_complex(rng, algebra, mods)
        y = x if maps % 2 == 0 else _random_complex(rng, algebra, mods)
        f = _random_chain_map(rng, x, y)
        if f is None:
            continue
        for cx in (x, y):
            doc.doc["complexes"]["cx%d" % k] = {
                "algebra": doc.alg_name, "lo": cx.lo,
                "objects": [doc.module(m) for m in cx.objects],
                "differentials": [d.matrix.a.tolist() for d in cx.differentials],
            }
            k += 1
        for n, c in sorted(f.components.items()):
            doc.morphism("f%d_%d" % (maps, n), c.dom, c.cod, c.matrix.a)
        maps += 1


def main():
    out = HERE / "inputs"
    out.mkdir(exist_ok=True)
    rng = np.random.default_rng(SEED)

    for name in ("fx2", "quiver_a1"):
        algebra = load_workspace(str(corpus_path(name))).only_algebra()
        doc = _Doc("session_" + name, name)
        mods = [m for m in enumerate_modules(algebra, 3) if m.dim > 0]
        for m in mods:
            doc.module(m)
        small = [m for m in mods if m.dim <= 2]
        _random_spans(rng, doc, small)
        _complexes(rng, doc, algebra, small)
        doc.write(out / ("session_%s.json" % name))

    algebra = load_workspace(str(corpus_path("quiver_a1"))).only_algebra()
    draw = np.random.default_rng(DEFECT_RNG_SEED)
    for _ in range(DEFECT_DRAW):
        sp = random_span(draw, algebra, 2)
    doc = _Doc("defect_quiver_a1", "quiver_a1")
    doc.span("draw17", sp.left, sp.apex, sp.right, sp.g.matrix.a, sp.f.matrix.a)
    doc.write(out / "defect_quiver_a1.json")


if __name__ == "__main__":
    main()
