"""The benchmark's workloads: which commands run, how, and what must hold.

A workload is a list of CLI commands run in a closed loop by one client.
``cold`` workloads start a fresh interpreter for every command, as a shell
user does; ``warm`` workloads run all of a round's commands in one
interpreter through ``waldcat.cli.main``, so waldcat's module-level caches
stay warm across queries, as in library use.  Every round of a warm
workload starts a new session, so rounds are independent of each other.

The Tier-1 test suite is deliberately not a workload: every change that adds
tests changes its wall time, so the number would not compare across commits.

Besides the byte comparison with the reference outputs captured at the
parent commit (``golden/``), each command has a check that does not rely on
those outputs; ``cross_checks`` compares commands of one round with each
other.
"""

import json
import pathlib
import random

CORPUS = "src/waldcat/corpus/"
INPUTS = "perfbench/inputs/"
SESSION_FX2 = INPUTS + "session_fx2.json"
SESSION_QUIVER = INPUTS + "session_quiver_a1.json"
DEFECT_QUIVER = INPUTS + "defect_quiver_a1.json"

# f2c2 localize takes ~17 s, so one k0-cold round fills a run.  A fresh
# process running a sub-second command varies by about 20% from one start
# to the next, so those commands run this many times per round and the
# latency median rests on several samples of each.
SHORT_COLD_REPEATS = 7
SESSION_ORDER_SEED = 0
AXIOM_SEED = 7          # the seed the timed axioms-cold workload uses
HOLDOUT_AXIOM_SEED = 3  # held out: a claim must also hold with --holdout


class Workload:
    def __init__(self, name, mode, commands, setup_input, expected_failures=()):
        self.name = name
        self.mode = mode
        self.commands = commands            # [(id, argv), ...]
        self.setup_input = setup_input      # workspace the set-up probe loads
        self.expected_failures = set(expected_failures)


def _localize(name):
    return ("localize/%s/dim4" % name,
            ["localize", "--input", CORPUS + name + ".json",
             "--acyclics", "projectives", "--dim-bound", "4"])


def _axioms(name, samples, seed):
    return ("axioms/%s/samples%d/seed%d" % (name, samples, seed),
            ["axioms", "--input", CORPUS + name + ".json",
             "--samples", str(samples), "--seed", str(seed)])


def _dim(module_name):
    """Dimension of a module named ``m<dim>_<k>`` by make_inputs.py."""
    return int(module_name[1:].split("_")[0])


def _ext_queries():
    """``ext --oracle`` on ordered pairs of nonzero fx2 modules, dims sum <= 4."""
    mods = sorted(json.loads(_read(SESSION_FX2))["modules"])
    return [("ext/%s/%s" % (q, s),
             ["ext", "--input", SESSION_FX2, "--quot", q, "--sub", s, "--oracle"])
            for q in mods for s in mods if _dim(q) + _dim(s) <= 4]


def _span_queries(path, tag, spans, dual):
    flag = ["--dual"] if dual else []
    return [("span/%s/%s/%s" % (tag, sp, "dual" if dual else "right"),
             ["span", "--op", "resolve", "--input", path, "--span", sp] + flag)
            for sp in spans]


def _chain_queries(path, tag):
    """qiso and weq for each chain map f<k> : cx<2k> -> cx<2k+1>."""
    morphisms = sorted(json.loads(_read(path))["morphisms"])
    maps = sorted({m.split("_")[0] for m in morphisms if m.startswith("f")})
    out = []
    for f in maps:
        k = int(f[1:])
        comps = ",".join("%s:%s" % (m.split("_")[1], m)
                         for m in morphisms if m.split("_")[0] == f)
        for op in ("qiso", "weq"):
            out.append(("chain/%s/%s/%s" % (tag, f, op),
                        ["chain", "--op", op, "--input", path,
                         "--dom", "cx%d" % (2 * k), "--cod", "cx%d" % (2 * k + 1),
                         "--components", comps]))
    return out


def _read(rel):
    return (pathlib.Path.cwd() / rel).read_text()


FX2_SPANS = ["sp%d" % k for k in range(6)]
QUIVER_SPANS = ["sp%d" % k for k in range(6)]
# Dual resolutions of these quiver_a1 spans build dense Kronecker systems
# that exhaust a 3 GB address space at the parent commit (MemoryError);
# draw17 is the named case.  They run in session-warm-defects, not in the
# session-warm of BENCHMARK.json, whose operations must all succeed.
QUIVER_DUAL_DEFECTS = ["sp1", "sp2", "sp3", "sp4", "sp5"]


def _session_commands():
    """The session's queries in one fixed order.

    The order decides which query fills each cache, so it never changes;
    it is shuffled once so that the short queries spread over the whole
    session instead of sampling the machine during one second of it.
    """
    commands = (_ext_queries()
                + _span_queries(SESSION_FX2, "fx2", FX2_SPANS, False)
                + _span_queries(SESSION_FX2, "fx2", FX2_SPANS, True)
                + _span_queries(SESSION_QUIVER, "quiver_a1", QUIVER_SPANS, False)
                + _span_queries(SESSION_QUIVER, "quiver_a1",
                                [s for s in QUIVER_SPANS if s not in QUIVER_DUAL_DEFECTS],
                                True)
                + _chain_queries(SESSION_FX2, "fx2")
                + _chain_queries(SESSION_QUIVER, "quiver_a1"))
    random.Random(SESSION_ORDER_SEED).shuffle(commands)
    return commands


def _defect_commands():
    return (_span_queries(DEFECT_QUIVER, "defect", ["draw17"], False)
            + _span_queries(DEFECT_QUIVER, "defect", ["draw17"], True)
            + _span_queries(SESSION_QUIVER, "quiver_a1", QUIVER_DUAL_DEFECTS, True))


def workloads(holdout=False):
    seed = HOLDOUT_AXIOM_SEED if holdout else AXIOM_SEED
    defects = _defect_commands()
    return {
        "k0-cold": Workload(
            "k0-cold", "cold",
            [_localize("f2c2")] + SHORT_COLD_REPEATS * [
                _localize("fx2"),
                ("k0/quiver_a1/dim3",
                 ["k0", "--input", CORPUS + "quiver_a1.json", "--dim-bound", "3"]),
                ("enumerate/quiver_a1/dim4",
                 ["enumerate", "--input", CORPUS + "quiver_a1.json", "--dim-bound", "4"])],
            CORPUS + "f2c2.json"),
        "axioms-cold": Workload(
            "axioms-cold", "cold",
            [_axioms("quiver_a1", 10, seed), _axioms("fx2", 25, seed)],
            CORPUS + "quiver_a1.json"),
        "session-warm": Workload(
            "session-warm", "warm", _session_commands(), SESSION_FX2),
        "session-warm-defects": Workload(
            "session-warm-defects", "warm", _session_commands() + defects,
            SESSION_FX2,
            expected_failures=[cid for cid, argv in defects if "--dual" in argv]),
    }


# ---------------------------------------------------------------------------
# checks that do not rely on the captured outputs
# ---------------------------------------------------------------------------


def check_payload(command_id, payload):
    """A problem string, or None when the report is as it must be."""
    kind = command_id.split("/")[0]
    if kind == "ext" and payload.get("oracle_agrees") is not True:
        return "ext oracle disagrees"
    if kind == "localize":
        if payload.get("ok") is not True:
            return "localization report not ok"
        if payload.get("cokernel", {}).get("invariant_factors") != [2]:
            return "localization cokernel is not Z/2"
    if kind == "axioms" and payload.get("summary", {}).get("FAIL") != 0:
        return "axiom check FAIL"
    if kind == "span" and payload.get("validated") is not True:
        return "span resolution not validated"
    if kind == "enumerate" and payload.get("count") != len(payload.get("modules", [])):
        return "enumeration count disagrees with its list"
    return None


def cross_checks(payloads):
    """Problems between commands of one round: {command id: problem}."""
    problems = {}
    twin = [payloads.get("localize/%s/dim4" % n) for n in ("f2c2", "fx2")]
    if all(twin):
        factors = [{g: rep["groups"][g]["invariant_factors"] for g in rep["groups"]}
                   for rep in twin]
        factors = [dict(f, cokernel=rep["cokernel"]["invariant_factors"])
                   for f, rep in zip(factors, twin)]
        if factors[0] != factors[1]:
            for n in ("f2c2", "fx2"):
                problems["localize/%s/dim4" % n] = "f2c2 and fx2 invariant factors differ"
    for cid, payload in payloads.items():
        if cid.endswith("/qiso"):
            weq = payloads.get(cid[:-len("qiso")] + "weq")
            if weq is not None and (weq.get("verdict") == "yes") != payload.get("is_quasi_iso"):
                problems[cid] = "degreewise-split verdict disagrees with quasi-isomorphism"
    return problems
