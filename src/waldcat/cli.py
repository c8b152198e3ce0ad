"""Batch front end: load a workspace, run one operation, emit a report.

Subcommands: validate, ext, class, factor, lift, weq, axioms, span,
chain, k0, localize, resolve-zp, enumerate.  Reports go to standard
output as canonical JSON (sorted keys, fixed indentation) or, with
``--format text``, as key/value lines with short exact sequences drawn
as aligned ASCII rows.  Exit codes: 0 success, 1 validation or
hypothesis failure, 2 budget exceeded, 3 malformed input.  Identical
input and seed produce byte-identical output.
"""

import argparse
import functools
import json
import sys

import numpy as np

from .algebra import (
    DEFAULT_BUDGET,
    ShortExactSequence,
    enumerate_modules,
    validate_algebra,
)
from .chains import ChainMap, dwsplit_weq, homology, is_quasi_iso
from .errors import (
    BudgetExceededError,
    HypothesisError,
    InternalInconsistencyError,
    MalformedInputError,
    ValidationError,
)
from .homological import (
    all_injectives_pair,
    ext1,
    ext1_class_count_oracle,
    is_injective,
    is_projective,
    projectives_all_pair,
    spec_all,
    spec_explicit,
    spec_finite_inj_dim,
    spec_injectives,
    spec_projectives,
)
from .ktheory import k0_exact_category, k0_waldhausen, localization_k0_report
from .sampling import (
    extension_instance,
    gluing_instance,
    properness_instance,
    saturation_instance,
)
from .spans import (
    SpanMorphism,
    span_factor,
    span_in_I,
    span_in_P,
    span_lift,
    span_resolve_dual,
    span_resolve_right,
)
from .waldhausen import (
    WaldhausenData,
    build_zp_resolution,
    check_extension_axiom,
    check_gluing,
    check_properness,
    check_saturation,
    classify_map,
    factor,
    is_weak_equivalence,
    lift,
    weak_equivalence_oracle,
)
from .workspace import load_workspace


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as malformed input."""

    def error(self, message):
        raise MalformedInputError(message)


def build_parser(command=None):
    """The top-level parser with every subcommand, or with only ``command``
    when it names one: parsing that subcommand's arguments gives the same
    namespace, errors and help either way."""
    common = _Parser(add_help=False)
    common.add_argument("--input", required=True, help="workspace JSON file")
    common.add_argument("--seed", type=int, default=None, help="sampling seed")
    common.add_argument("--dim-bound", type=int, default=None,
                        help="module dimension bound for enumerations")
    common.add_argument("--budget", type=int, default=None,
                        help="enumeration budget override")
    common.add_argument("--oracle", action="store_true",
                        help="cross-check with the brute-force oracle")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--algebra", default=None,
                        help="algebra name (defaults to the only one)")
    common.add_argument("--class", dest="c_class", default=None,
                        help="cofibrant class: all | projectives")
    common.add_argument("--acyclics", default=None,
                        help="acyclic class: all | projectives | injectives |"
                             " finite-inj-dim:N | explicit:name+name")

    parser = _Parser(prog="waldcat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (arguments, _) in _SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, parents=[common])
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _config_int(ws, value, key, fallback):
    """The flag ``value`` when given, else config ``key``, else ``fallback``."""
    if value is not None:
        return value
    raw = ws.config.get(key, fallback)
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise MalformedInputError("config %r must be an integer" % key)
    return raw


def _config_str(ws, value, key, fallback):
    """The flag ``value`` when given, else config ``key``, else ``fallback``;
    a string."""
    if value is None:
        value = ws.config.get(key, fallback)
    if not isinstance(value, str):
        raise MalformedInputError("config %r must be a string" % key)
    return value


def _nonnegative(value, key):
    """``value``, refusing a negative one as malformed input."""
    if value < 0:
        raise MalformedInputError(
            "%s must be a nonnegative integer, got %d" % (key, value)
        )
    return value


def _config_nonnegative(ws, value, key, fallback):
    """``_config_int``, refusing a negative value."""
    return _nonnegative(_config_int(ws, value, key, fallback), key)


def _dim_bound(ws, args):
    """Module dimension bound: --dim-bound, else config, else 3."""
    return _config_nonnegative(ws, args.dim_bound, "dim_bound", 3)


def _enum_budget(ws, args):
    """Module enumeration budget: --budget, else config, else the default."""
    return _config_nonnegative(ws, args.budget, "budget", DEFAULT_BUDGET)


def _pick_algebra(ws, args):
    """--algebra, else config ``algebra``, else the workspace's only one."""
    if args.algebra is None and ws.config.get("algebra") is None:
        return ws.only_algebra()
    return ws.algebra(_config_str(ws, args.algebra, "algebra", None))


def _parse_class(ws, text):
    if text == "all":
        return spec_all()
    if text == "projectives":
        return spec_projectives()
    if text == "injectives":
        return spec_injectives()
    if text.startswith("finite-inj-dim:"):
        try:
            bound = int(text.split(":", 1)[1])
        except ValueError:
            raise MalformedInputError(
                "finite-inj-dim bound must be an integer"
            ) from None
        if bound < 0:
            raise MalformedInputError(
                "finite-inj-dim bound must be nonnegative, got %d" % bound
            )
        return spec_finite_inj_dim(bound)
    if text.startswith("explicit:"):
        names = [n for n in text.split(":", 1)[1].split("+") if n]
        if not names:
            raise MalformedInputError("explicit class needs module names")
        return spec_explicit([ws.module(n) for n in names])
    raise MalformedInputError("unknown class specification %r" % text)


_PAIRS = {"all": all_injectives_pair, "projectives": projectives_all_pair}


def _cotorsion_pair(algebra, name, what):
    """The module cotorsion pair whose left class is ``name``; ``what`` names
    the flag in the error message."""
    if name not in _PAIRS:
        raise MalformedInputError(
            "%s must be 'all' or 'projectives'; got %r" % (what, name)
        )
    return _PAIRS[name](algebra)


def _build_waldhausen(ws, args, algebra, budget):
    """The Waldhausen structure named by the class flags, enumerating its
    samples within ``budget``."""
    c_name = _config_str(ws, args.c_class, "class", "all")
    z_name = _config_str(ws, args.acyclics, "acyclics", "injectives")
    pair = _cotorsion_pair(algebra, c_name, "the cofibrant class")
    return WaldhausenData(pair, _parse_class(ws, z_name), budget=budget)


def _rng(ws, args):
    return np.random.default_rng(_config_nonnegative(ws, args.seed, "seed", 0))


def _matrix(m):
    return m.matrix.a.tolist()


def _ses_row(ws, ses):
    return [ws.label_of(ses.sub), ws.label_of(ses.mid), ws.label_of(ses.quot)]


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_validate(args):
    ws, failures = load_workspace(args.input, collect_failures=True)
    failures = list(failures)  # the loaded tuple is shared by later loads
    algebra_reports = {}
    for name, algebra in sorted(ws.algebras.items()):
        result = validate_algebra(algebra)
        algebra_reports[name] = result["ok"]
        if not result["ok"]:
            failures.append({
                "kind": "algebra",
                "name": name,
                "problem": "associativity or unit failures: %r" % (result,),
            })
    ok = not failures
    return {
        "command": "validate",
        "workspace": ws.name,
        "ok": ok,
        "counts": ws.counts(),
        "algebra_checks": algebra_reports,
        "failures": failures,
        "exit": 0 if ok else 1,
    }


def _cmd_enumerate(args):
    ws = load_workspace(args.input)
    algebra = _pick_algebra(ws, args)
    bound = _dim_bound(ws, args)
    mods = enumerate_modules(algebra, bound, budget=_enum_budget(ws, args))
    return {
        "command": "enumerate",
        "dim_bound": bound,
        "count": len(mods),
        "modules": [
            {"dim": m.dim, "digest": m.digest, "name": ws.label_of(m)}
            for m in mods
        ],
    }


def _cmd_ext(args):
    ws = load_workspace(args.input)
    quot = ws.module(args.quot)
    sub = ws.module(args.sub)
    ext = ext1(quot, sub)
    out = {
        "command": "ext",
        "quot": args.quot,
        "sub": args.sub,
        "dimension": ext.dimension,
        "class_count": quot.p ** ext.dimension,
    }
    if args.oracle:
        count = ext1_class_count_oracle(quot, sub, budget=_enum_budget(ws, args))
        out["oracle_class_count"] = count
        out["oracle_agrees"] = count == out["class_count"]
        if not out["oracle_agrees"]:
            out["exit"] = 1
    return out


def _cmd_class(args):
    ws = load_workspace(args.input)
    if (args.module is None) == (args.map is None):
        raise MalformedInputError("pass exactly one of --module or --map")
    if args.module is not None:
        m = ws.module(args.module)
        return {
            "command": "class",
            "module": args.module,
            "dim": m.dim,
            "projective": is_projective(m),
            "injective": is_injective(m),
        }
    f = ws.morphism(args.map)
    w = _build_waldhausen(ws, args, f.dom.algebra, _enum_budget(ws, args))
    flags = classify_map(w, f).as_dict()
    return {"command": "class", "map": args.map, **flags}


def _cmd_factor(args):
    ws = load_workspace(args.input)
    f = ws.morphism(args.map)
    w = _build_waldhausen(ws, args, f.dom.algebra, _enum_budget(ws, args))
    fac = factor(w, f)
    return {
        "command": "factor",
        "map": args.map,
        "middle_dim": fac.middle.dim,
        "cofibration": _matrix(fac.i),
        "acyclic_fibration": _matrix(fac.p),
        "cokernel_dim": fac.coker_i.dim,
        "kernel_dim": fac.ker_p.dim,
        "sequences": [
            [ws.label_of(f.dom), ws.label_of(fac.middle),
             ws.label_of(fac.coker_i)],
            [ws.label_of(fac.ker_p), ws.label_of(fac.middle),
             ws.label_of(f.cod)],
        ],
    }


def _cmd_lift(args):
    ws = load_workspace(args.input)
    i = ws.morphism(args.i)
    p = ws.morphism(args.p)
    top = ws.morphism(args.top)
    bottom = ws.morphism(args.bottom)
    h = lift(i, p, top, bottom)
    return {
        "command": "lift",
        "lift": _matrix(h),
        "verified": (h @ i) == top and (p @ h) == bottom,
    }


def _cmd_weq(args):
    ws = load_workspace(args.input)
    f = ws.morphism(args.map)
    enum_budget = _enum_budget(ws, args)
    w = _build_waldhausen(ws, args, f.dom.algebra, enum_budget)
    verdict = is_weak_equivalence(w, f)
    out = {"command": "weq", "map": args.map, "verdict": verdict}
    if args.oracle:
        oracle = weak_equivalence_oracle(w, f, enum_budget=enum_budget)
        out["oracle_verdict"] = oracle
        out["oracle_agrees"] = verdict == "indeterminate" or oracle == verdict
        if not out["oracle_agrees"]:
            out["exit"] = 1
    return out


_AXIOM_RUNNERS = {
    "gluing": (gluing_instance, check_gluing),
    "extension": (extension_instance, check_extension_axiom),
    "properness": (properness_instance, check_properness),
}


def _cmd_axioms(args):
    samples = _nonnegative(args.samples, "samples")
    ws = load_workspace(args.input)
    algebra = _pick_algebra(ws, args)
    w = _build_waldhausen(ws, args, algebra, _enum_budget(ws, args))
    rng = _rng(ws, args)
    checks = [c for c in args.checks.split(",") if c]
    unknown = [c for c in checks if c not in _AXIOM_RUNNERS and c != "saturation"]
    if unknown:
        raise MalformedInputError("unknown axiom checks: %s" % ", ".join(unknown))
    reports = []
    for check in checks:
        for _ in range(samples):
            if check == "saturation":
                f, g = saturation_instance(w, rng)
                reports.append(check_saturation(w, f, g))
            else:
                sample, runner = _AXIOM_RUNNERS[check]
                reports.append(runner(w, sample(w, rng)))
    summary = {"PASS": 0, "FAIL": 0, "INAPPLICABLE": 0}
    for rep in reports:
        summary[rep["verdict"]] += 1
    return {
        "command": "axioms",
        "samples": samples,
        "summary": summary,
        "reports": reports,
        "exit": 0 if summary["FAIL"] == 0 else 1,
    }


def _parse_span_morphism(ws, spec, what):
    parts = [s for s in (spec or "").split(",") if s]
    if len(parts) != 5:
        raise MalformedInputError(
            "%s must be dom-span,cod-span,left,apex,right; got %r" % (what, spec)
        )
    dom = ws.span(parts[0])
    cod = ws.span(parts[1])
    comps = [ws.morphism(n) for n in parts[2:]]
    return SpanMorphism(dom, cod, comps[0], comps[1], comps[2])


def _span_dims(sp):
    return {"left": sp.left.dim, "apex": sp.apex.dim, "right": sp.right.dim}


def _cmd_span(args):
    ws = load_workspace(args.input)
    if args.op in ("membership", "resolve"):
        if args.span is None:
            raise MalformedInputError("--span is required for this operation")
        sp = ws.span(args.span)
        name = _config_str(ws, args.c_class, "class", "all")
        pair = _cotorsion_pair(sp.apex.algebra, name, "the class")
        if args.op == "membership":
            return {
                "command": "span",
                "op": "membership",
                "span": args.span,
                "in_P": span_in_P(sp, pair),
                "in_I": span_in_I(sp, pair),
            }
        ses = span_resolve_dual(sp, pair) if args.dual else span_resolve_right(sp, pair)
        return {
            "command": "span",
            "op": "resolve",
            "span": args.span,
            "dual": bool(args.dual),
            "sub_dims": _span_dims(ses.mono.dom),
            "mid_dims": _span_dims(ses.mono.cod),
            "quot_dims": _span_dims(ses.epi.cod),
            "validated": ses.validate() == [],
        }
    if args.op == "factor":
        if args.dom is None or args.cod is None:
            raise MalformedInputError("span factor needs --dom and --cod spans")
        if None in (args.left, args.apex, args.right):
            raise MalformedInputError(
                "span factor needs --left, --apex, --right morphisms"
            )
        dom = ws.span(args.dom)
        cod = ws.span(args.cod)
        m = SpanMorphism(
            dom, cod,
            ws.morphism(args.left), ws.morphism(args.apex), ws.morphism(args.right),
        )
        name = _config_str(ws, args.c_class, "class", "all")
        pair = _cotorsion_pair(dom.apex.algebra, name, "the class")
        i, p = span_factor(m, pair)
        return {
            "command": "span",
            "op": "factor",
            "middle_dims": _span_dims(i.cod),
            "verified": (p @ i) == m,
        }
    i = _parse_span_morphism(ws, args.i, "--i")
    p = _parse_span_morphism(ws, args.p, "--p")
    top = _parse_span_morphism(ws, args.top, "--top")
    bottom = _parse_span_morphism(ws, args.bottom, "--bottom")
    h = span_lift(i, p, top, bottom)
    return {
        "command": "span",
        "op": "lift",
        "components": {
            "left": _matrix(h.left),
            "apex": _matrix(h.apex),
            "right": _matrix(h.right),
        },
    }


def _parse_components(ws, text, dom, cod):
    comps = {}
    for chunk in [c for c in text.split(",") if c]:
        if ":" not in chunk:
            raise MalformedInputError(
                "chain components must be degree:morphism pairs; got %r" % chunk
            )
        deg_text, name = chunk.split(":", 1)
        try:
            deg = int(deg_text)
        except ValueError:
            raise MalformedInputError(
                "component degree %r is not an integer" % deg_text
            ) from None
        comps[deg] = ws.morphism(name)
    return ChainMap(dom, cod, comps)


def _cmd_chain(args):
    ws = load_workspace(args.input)
    if args.op == "homology":
        if args.complex_name is None:
            raise MalformedInputError("--complex is required for homology")
        cx = ws.complex(args.complex_name)
        degrees = (
            [args.degree] if args.degree is not None else list(cx.degrees())
        )
        dims = {str(n): homology(cx, n).dim for n in degrees}
        return {
            "command": "chain",
            "op": "homology",
            "complex": args.complex_name,
            "homology_dims": dims,
        }
    if args.dom is None or args.cod is None:
        raise MalformedInputError("chain %s needs --dom and --cod" % args.op)
    f = _parse_components(
        ws, args.components, ws.complex(args.dom), ws.complex(args.cod)
    )
    if args.op == "qiso":
        return {"command": "chain", "op": "qiso", "is_quasi_iso": is_quasi_iso(f)}
    verdict = dwsplit_weq(f, z_two_of_three=not args.ungated)
    return {"command": "chain", "op": "weq", "verdict": verdict}


def _cmd_k0(args):
    ws = load_workspace(args.input)
    algebra = _pick_algebra(ws, args)
    bound = _dim_bound(ws, args)
    budget = _enum_budget(ws, args)
    if args.acyclics is not None:
        w = _build_waldhausen(ws, args, algebra, budget)
        pres = k0_waldhausen(w, bound, enum_budget=budget)
        kind = "waldhausen"
    else:
        c_spec = _parse_class(ws, _config_str(ws, args.c_class, "class", "all"))
        pres = k0_exact_category(algebra, c_spec, bound, enum_budget=budget)
        kind = "exact_category"
    return {
        "command": "k0",
        "kind": kind,
        "dim_bound": bound,
        **pres.as_dict(),
    }


def _cmd_localize(args):
    ws = load_workspace(args.input)
    algebra = _pick_algebra(ws, args)
    bound = _dim_bound(ws, args)
    z_name = _config_str(ws, args.acyclics, "acyclics", "injectives")
    a_spec = _parse_class(ws, z_name)
    report = localization_k0_report(
        algebra, a_spec, bound, enum_budget=_enum_budget(ws, args)
    )
    report.pop("presentations", None)
    report["command"] = "localize"
    if not report["ok"]:
        report["exit"] = 1
    return report


def _cmd_resolve_zp(args):
    ws = load_workspace(args.input)
    target = ws.module(args.module)
    algebra = target.algebra
    w = _build_waldhausen(ws, args, algebra, _enum_budget(ws, args))
    pair_p = _cotorsion_pair(algebra, args.p_class, "--p-class")
    pres = []
    for chunk in [c for c in args.resolution.split(",") if c]:
        if ":" not in chunk:
            raise MalformedInputError(
                "resolution entries must be mono:epi pairs; got %r" % chunk
            )
        mono_name, epi_name = chunk.split(":", 1)
        pres.append(
            ShortExactSequence(ws.morphism(mono_name), ws.morphism(epi_name))
        )
    rows = build_zp_resolution(w, target, pres, pair_p)
    return {
        "command": "resolve-zp",
        "module": args.module,
        "steps": len(rows),
        "sequences": [_ses_row(ws, ses) for ses in rows],
        "dims": [[ses.sub.dim, ses.mid.dim, ses.quot.dim] for ses in rows],
    }


# Each subcommand in the order of the top-level help: its arguments beyond
# the common ones, and its handler.
_SUBCOMMANDS = {
    "validate": ((), _cmd_validate),
    "ext": ((
        (("--quot",), dict(required=True, help="module being extended")),
        (("--sub",), dict(required=True, help="module doing the extending")),
    ), _cmd_ext),
    "class": ((
        (("--module",), dict(default=None)),
        (("--map",), dict(default=None)),
    ), _cmd_class),
    "factor": ((
        (("--map",), dict(required=True)),
    ), _cmd_factor),
    "lift": ((
        (("--i",), dict(required=True, help="cofibration morphism name")),
        (("--p",), dict(required=True, help="acyclic fibration morphism name")),
        (("--top",), dict(required=True)),
        (("--bottom",), dict(required=True)),
    ), _cmd_lift),
    "weq": ((
        (("--map",), dict(required=True)),
    ), _cmd_weq),
    "axioms": ((
        (("--checks",), dict(default="gluing,extension,saturation,properness")),
        (("--samples",), dict(type=int, default=10)),
    ), _cmd_axioms),
    "span": ((
        (("--op",), dict(required=True, choices=("membership", "resolve", "factor", "lift"))),
        (("--span",), dict(default=None)),
        (("--dual",), dict(action="store_true",
                           help="resolve with the object on the left of the sequence")),
        (("--dom",), dict(default=None)),
        (("--cod",), dict(default=None)),
        (("--left",), dict(default=None)),
        (("--apex",), dict(default=None)),
        (("--right",), dict(default=None)),
        (("--i",), dict(default=None, help="span morphism spec for the cofibration")),
        (("--p",), dict(default=None, help="span morphism spec for the fibration")),
        (("--top",), dict(default=None, help="span morphism spec")),
        (("--bottom",), dict(default=None, help="span morphism spec")),
    ), _cmd_span),
    "chain": ((
        (("--op",), dict(required=True, choices=("homology", "qiso", "weq"))),
        (("--complex",), dict(dest="complex_name", default=None)),
        (("--degree",), dict(type=int, default=None)),
        (("--dom",), dict(default=None)),
        (("--cod",), dict(default=None)),
        (("--components",), dict(default="", help="comma-separated degree:morphism pairs")),
        (("--ungated",), dict(action="store_true",
                              help="withhold the exactness 2-out-of-3 gate")),
    ), _cmd_chain),
    "k0": ((), _cmd_k0),
    "localize": ((), _cmd_localize),
    "resolve-zp": ((
        (("--module",), dict(required=True, help="the resolved object")),
        (("--resolution",), dict(default="",
                                 help="comma-separated mono:epi morphism name pairs, "
                                      "listed from the sequence ending at the object")),
        (("--p-class",), dict(default="all", help="resolving class: all | projectives")),
    ), _cmd_resolve_zp),
    "enumerate": ((), _cmd_enumerate),
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_sequences(rows):
    """Aligned ASCII exact sequences, one per row of three labels."""
    if not rows:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    out = []
    for sub, mid, quot in rows:
        out.append(
            "0 -> %s -> %s -> %s -> 0"
            % (sub.ljust(widths[0]), mid.ljust(widths[1]), quot.ljust(widths[2]))
        )
    return out


def render_text(payload):
    lines = []
    command = payload.get("command", "")
    seq_rows = payload.get("sequences")
    for key in sorted(payload):
        if key in ("command", "exit", "sequences", "reports",
                   "modules", "relations", "generators"):
            continue
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append("%s: %s" % (key, value))
    if command == "enumerate":
        for entry in payload.get("modules", []):
            lines.append("  dim %d  %s  %s" % (entry["dim"], entry["digest"], entry["name"]))
    if command == "axioms":
        for rep in payload.get("reports", []):
            lines.append("  %s %s %s" % (rep["check"], rep["instance_digest"], rep["verdict"]))
    if command == "k0":
        lines.append("generators: %d" % len(payload.get("generators", [])))
        lines.append("relations: %d" % len(payload.get("relations", [])))
    if seq_rows:
        lines.extend(_render_sequences(seq_rows))
    return "\n".join([command] + ["  " + ln for ln in lines]) + "\n"


def _emit(payload, fmt, stream):
    if fmt == "text":
        stream.write(render_text(payload))
    else:
        body = {k: v for k, v in payload.items() if k != "exit"}
        stream.write(json.dumps(body, sort_keys=True, indent=2) + "\n")


@functools.cache
def _parser(command=None):
    """The parser of this process for ``command`` (one subcommand), or the
    full parser for None; each is built on first use."""
    return build_parser(command)


def main(argv=None):
    stream = sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
        args = _parser(command).parse_args(argv)
        _, handler = _SUBCOMMANDS[args.command]
        payload = handler(args)
    except MalformedInputError as err:
        _emit({"error": {"type": "malformed", "message": str(err)}}, "json", stream)
        return 3
    except BudgetExceededError as err:
        _emit({"error": {"type": "budget", "message": str(err)}}, "json", stream)
        return 2
    except (ValidationError, HypothesisError, InternalInconsistencyError) as err:
        _emit(
            {"error": {"type": type(err).__name__, "message": str(err)}},
            "json",
            stream,
        )
        return 1
    _emit(payload, args.format, stream)
    return int(payload.get("exit", 0))


if __name__ == "__main__":
    sys.exit(main())
