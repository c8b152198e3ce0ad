"""Per-layer tracing of waldcat from the outside.

``install()`` wraps the public functions listed in ``TARGETS`` without
touching waldcat's source.  Many modules bind functions with
``from .linalg import rank``, so a wrapper replaces every module-level
binding of the original object in every loaded ``waldcat`` module (also
inside module-level dicts of tuples, such as the CLI's axiom runner table).

Each wrapped call records a span (name, start, end, parent span, command
id).  Spans stay in memory in flat arrays and are written out with
``Recorder.dump`` when the process ends; ``aggregate`` turns span files into
the per-layer metrics.  Besides spans the recorder keeps a few counters:
row reductions by shape (through the private ``linalg._rref_array``), the
largest ``LinearSystem`` solved, the share of ``is_isomorphic`` calls that
found an isomorphism, and for some functions the share of calls whose
arguments were already seen in the same process (``repeat_frac``), which
bounds what a memo could save.
"""

import functools
import importlib
import marshal
import sys
import time
from array import array

LAYERS = ("linalg", "algebra", "homological", "waldhausen", "sampling",
          "spans", "chains", "ktheory", "workspace", "cli")

TARGETS = {
    "linalg": ("rank", "rref", "solve", "kernel_basis", "column_space_basis",
               "smith_normal_form", "LinearSystem.add_equation",
               "LinearSystem.solve", "LinearSystem.solution_space"),
    "algebra": ("hom_basis", "is_isomorphic", "enumerate_modules",
                "indecomposable_summands", "direct_sum"),
    "homological": ("ext1", "ext1_class_count_oracle", "is_injective",
                    "is_projective"),
    "waldhausen": ("check_gluing", "check_extension_axiom", "check_saturation",
                   "check_properness", "is_weak_equivalence", "factor",
                   "SubcategorySpec.contains"),
    "sampling": ("gluing_instance", "extension_instance",
                 "saturation_instance", "properness_instance"),
    "spans": ("span_resolve_right", "span_resolve_dual", "span_in_P",
              "span_in_I"),
    "chains": ("homology", "is_quasi_iso", "dwsplit_weq"),
    "ktheory": ("k0_exact_category", "k0_waldhausen",
                "localization_k0_report"),
    "workspace": ("load_workspace",),
    "cli": ("main",),
}


def _spec_key(spec):
    members = tuple(m.digest for m in spec.members or ())
    return (spec.describe(), members)


# Argument digests for the functions that report ``repeat_frac``.
REPEAT_KEYS = {
    "algebra.hom_basis": lambda dom, cod: (dom.digest, cod.digest),
    "homological.is_injective": lambda m: m.digest,
    "homological.is_projective": lambda m: m.digest,
    "waldhausen.SubcategorySpec.contains":
        lambda spec, m: (_spec_key(spec), m.digest),
}

SPAN_NAMES = tuple("%s.%s" % (layer, fn)
                   for layer in LAYERS for fn in TARGETS[layer])


class Recorder:
    """Spans in flat arrays plus the counters named in the module doc."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.command = array("i")
        self.nested = array("b")
        self.stack = []
        self.depth = [0] * len(SPAN_NAMES)
        self.current_command = 0
        self.repeat_seen = {n: set() for n in REPEAT_KEYS}
        self.repeat_hits = {n: 0 for n in REPEAT_KEYS}
        self.iso_found = 0
        self.reductions = 0
        self.empty_reductions = 0
        self.cells = 0
        self.unknowns_max = 0
        self.missing = []

    def wrap(self, name, orig):
        idx = SPAN_NAMES.index(name)
        key_fn = REPEAT_KEYS.get(name)
        is_iso = name == "algebra.is_isomorphic"
        is_system = name in ("linalg.LinearSystem.solve",
                             "linalg.LinearSystem.solution_space")
        rec = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key_fn is not None:
                try:
                    key = key_fn(*args, **kwargs)
                except Exception:
                    key = None
                if key is not None:
                    seen = rec.repeat_seen[name]
                    if key in seen:
                        rec.repeat_hits[name] += 1
                    else:
                        seen.add(key)
            if is_system:
                rec.unknowns_max = max(rec.unknowns_max, args[0].total)
            i = len(rec.name)
            rec.name.append(idx)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.command.append(rec.current_command)
            rec.nested.append(rec.depth[idx] > 0)
            rec.end.append(0.0)
            rec.stack.append(i)
            rec.depth[idx] += 1
            rec.start.append(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                rec.end[i] = clock()
                rec.depth[idx] -= 1
                rec.stack.pop()
            if is_iso and result is not None:
                rec.iso_found += 1
            return result

        return functools.wraps(orig)(wrapper)

    def wrap_reduction(self, orig):
        rec = self

        def reduction(a, p):
            rows, cols = a.shape
            rec.reductions += 1
            rec.cells += rows * cols
            if rows == 0 or cols == 0:
                rec.empty_reductions += 1
            return orig(a, p)

        return functools.wraps(orig)(reduction)

    def dump(self, path):
        data = {
            "spans": [self.name.tobytes(), self.start.tobytes(),
                      self.end.tobytes(), self.parent.tobytes(),
                      self.command.tobytes(), self.nested.tobytes()],
            "calls_with_repeat": {n: len(self.repeat_seen[n]) + self.repeat_hits[n]
                                  for n in REPEAT_KEYS},
            "repeat_hits": dict(self.repeat_hits),
            "iso_found": self.iso_found,
            "reductions": self.reductions,
            "empty_reductions": self.empty_reductions,
            "cells": self.cells,
            "unknowns_max": self.unknowns_max,
            "missing": list(self.missing),
        }
        with open(path, "wb") as fh:
            marshal.dump(data, fh)


def _rebind(orig, new):
    """Replace every module-level binding of ``orig`` in waldcat modules."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "waldcat" or mod_name.startswith("waldcat.")):
            continue
        space = vars(mod)
        for attr, value in list(space.items()):
            if value is orig:
                space[attr] = new
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = new
                    elif isinstance(v, tuple) and any(x is orig for x in v):
                        value[k] = tuple(new if x is orig else x for x in v)


def install():
    """Wrap every target; returns the Recorder that collects the spans."""
    importlib.import_module("waldcat.cli")
    rec = Recorder()
    for layer in LAYERS:
        mod = importlib.import_module("waldcat." + layer)
        for fn in TARGETS[layer]:
            name = "%s.%s" % (layer, fn)
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(mod, cls_name, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if orig is None:
                    rec.missing.append(name)
                    continue
                setattr(cls, meth, rec.wrap(name, orig))
                continue
            orig = getattr(mod, fn, None)
            if orig is None:
                rec.missing.append(name)
                continue
            _rebind(orig, rec.wrap(name, orig))
    linalg = importlib.import_module("waldcat.linalg")
    orig = getattr(linalg, "_rref_array", None)
    if orig is None:
        rec.missing.append("linalg._rref_array")
    else:
        _rebind(orig, rec.wrap_reduction(orig))
    return rec


def _frac(num, den):
    return num / den if den else 0.0


def aggregate(sources):
    """Per-layer metrics and per-command inclusive times from span files.

    ``sources`` is a list of ``(span file, command ids)``; a span's command
    number indexes that file's ids.  Returns ``(metrics, by_command,
    missing)``: ``metrics`` maps every per-layer name except
    ``trace.overhead_frac`` to a number, and ``by_command`` maps a command
    id to ``{span name: seconds inside its outermost calls}``.
    """
    n = len(SPAN_NAMES)
    calls = [0] * n
    self_s = [0.0] * n
    by_command = {}
    repeat_calls = {k: 0 for k in REPEAT_KEYS}
    repeat_hits = {k: 0 for k in REPEAT_KEYS}
    iso_found = reductions = empty = cells = unknowns_max = 0
    missing = set()
    for path, ids in sources:
        with open(path, "rb") as fh:
            data = marshal.load(fh)
        name, start, end, parent, command, nested = (
            array(code) for code in "iddiib")
        for arr, raw in zip((name, start, end, parent, command, nested),
                            data["spans"]):
            arr.frombytes(raw)
        child_time = [0.0] * len(name)
        for i in range(len(name)):
            p = parent[i]
            if p >= 0:
                child_time[p] += end[i] - start[i]
        for i in range(len(name)):
            k = name[i]
            dur = end[i] - start[i]
            calls[k] += 1
            self_s[k] += dur - child_time[i]
            if not nested[i]:
                per = by_command.setdefault(ids[command[i]], {})
                per[SPAN_NAMES[k]] = per.get(SPAN_NAMES[k], 0.0) + dur
        for k in REPEAT_KEYS:
            repeat_calls[k] += data["calls_with_repeat"][k]
            repeat_hits[k] += data["repeat_hits"][k]
        iso_found += data["iso_found"]
        reductions += data["reductions"]
        empty += data["empty_reductions"]
        cells += data["cells"]
        unknowns_max = max(unknowns_max, data["unknowns_max"])
        missing.update(data["missing"])

    metrics = {}
    for k, span in enumerate(SPAN_NAMES):
        if span == "cli.main":
            metrics["cli.main.calls"] = calls[k]
            metrics["cli.main.total_s"] = sum(
                per.get(span, 0.0) for per in by_command.values())
        else:
            metrics[span + ".calls"] = calls[k]
            metrics[span + ".self_s"] = self_s[k]
    iso_calls = calls[SPAN_NAMES.index("algebra.is_isomorphic")]
    metrics["algebra.is_isomorphic.true_frac"] = _frac(iso_found, iso_calls)
    for k in REPEAT_KEYS:
        metrics[k + ".repeat_frac"] = _frac(repeat_hits[k], repeat_calls[k])
    metrics["linalg.reduce.empty_frac"] = _frac(empty, reductions)
    metrics["linalg.reduce.cells"] = cells
    metrics["linalg.LinearSystem.unknowns_max"] = unknowns_max
    return metrics, by_command, sorted(missing)
