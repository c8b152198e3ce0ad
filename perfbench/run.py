"""Run one benchmark workload of waldcat and print its metrics.

Run from the root of a checkout (waldcat is imported from its ``src/``):

    python3 perfbench/run.py --workload k0-cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload k0-cold --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload axioms-cold --holdout ...   # held-out seed
    python3 perfbench/run.py --workload session-warm-defects ...    # the known defect
    python3 perfbench/run.py --check      # self-check: metrics print, outputs match
    python3 perfbench/run.py --capture    # rewrite golden/ from the current code

This process does no waldcat work: every command runs in a child
process, one at a time (a closed loop with one client).  A run runs rounds
-- every command of the workload once; cold workloads in an order drawn
from ``--seed`` -- until ``--seconds`` would be exceeded (at least one
round), and times ``SETUP_PROBES`` set-up probes before the first round and
after every round, so that they sample the whole run.  Every child caps its
address space (``child.AS_CAP_BYTES``).  Every output is byte-compared with the
reference captured at the parent commit and checked on its own terms (see
``workloads.py``).  A timeout, a traceback, an exit code outside {0,1,2,3},
a ``MemoryError`` or a mismatch makes a command failed; failed commands are
left out of every time metric.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced round (after one untraced
round, which ``trace.overhead_frac`` compares it with).  The lines before it
print the same numbers for people, with ``failed_frac`` and, when traced,
where each command spends its time.
"""

import argparse
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

GOLDEN = HERE / "golden" / "outputs.json"
CHILD = str(HERE / "child.py")
COMMAND_TIMEOUT_S = 150
RUN_DEADLINE_S = 170        # every run ends well inside 180 s
SETUP_PROBES = 4
TAIL_PERCENTILE = 95
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "cmd_p50_s": "s",
             "cmd_tail_s": "s", "peak_rss_mb": "MB"}


class SetupFailed(Exception):
    pass


class Result:
    """One command's execution: what it printed and what it cost."""

    def __init__(self, command_id, exit_code, stdout, problem, wall, cpu):
        self.id = command_id
        self.exit = exit_code
        self.stdout = stdout
        self.problem = problem      # execution problem, or a failed check
        self.wall = wall
        self.cpu = cpu
        self.expected = False       # a known defect failing as it does at the parent


class Runner:
    def __init__(self, root, workload, tmp):
        self.root = root
        self.workload = workload
        self.tmp = tmp
        self.peak_rss_kb = 0
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # Cache bytecode as an installed package does, so set-up does not
        # recompile waldcat in every process.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.serial = 0

    def _remaining(self):
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def _spawn(self, argv, stdout=subprocess.DEVNULL, ready_line=False):
        """Run argv to completion; returns (exit code, wall, timed out, first line).

        With ``ready_line`` the wall time ends when the first line arrives.
        """
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, self._remaining()))
        self.serial += 1
        self.last_err = self.tmp / ("err%d.txt" % self.serial)
        t0 = time.perf_counter()
        with open(self.last_err, "wb") as err:
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE if ready_line else stdout,
                stderr=err)
        timed_out = []
        timer = threading.Timer(timeout, lambda: (timed_out.append(1), proc.kill()))
        timer.start()
        line = None
        if ready_line:
            line = proc.stdout.readline().decode()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            proc.stdout.close()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        if not ready_line:
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, ru.ru_maxrss)
        return proc.returncode, wall, bool(timed_out), line

    def _stderr(self):
        return self.last_err.read_text(errors="replace")

    def setup_probe(self):
        code, wall, _, line = self._spawn(
            [sys.executable, CHILD, "ready", self.workload.setup_input], ready_line=True)
        if line != "ready\n":
            raise SetupFailed("set-up probe failed (exit %s):\n%s" % (code, self._stderr()))
        return wall

    def cold_round(self, commands, traced):
        results, spans = [], []
        for cid, argv in commands:
            n = self.serial + 1
            out_path = self.tmp / ("out%d.txt" % n)
            timing_path = self.tmp / ("timing%d.json" % n)
            span_path = self.tmp / ("spans%d.bin" % n)
            cmd = [sys.executable, CHILD, "cold", str(timing_path),
                   str(span_path) if traced else "-", "--"] + argv
            with open(out_path, "wb") as out:
                code, _, timed_out, _ = self._spawn(cmd, stdout=out)
            stderr = self._stderr()
            wall = cpu = 0.0
            if timing_path.exists():
                timing = json.loads(timing_path.read_text())
                wall, cpu = timing["wall_s"], timing["cpu_s"]
            problem = None
            if timed_out:
                problem = "timeout"
            elif "MemoryError" in stderr:
                problem = "MemoryError"
            elif "Traceback (most recent call last)" in stderr:
                problem = "traceback: " + stderr.strip().splitlines()[-1]
            elif code not in (0, 1, 2, 3):
                problem = "exit code %s" % code
            results.append(Result(cid, code, out_path.read_text(errors="replace"),
                                  problem, wall, cpu))
            if traced and span_path.exists():
                spans.append((span_path, [cid]))
        return results, spans

    def warm_round(self, commands, traced):
        self.serial += 1
        queries = self.tmp / ("queries%d.json" % self.serial)
        results_path = self.tmp / ("results%d.json" % self.serial)
        span_path = self.tmp / ("spans%d.bin" % self.serial)
        queries.write_text(json.dumps([[cid, argv] for cid, argv in commands]))
        argv = [sys.executable, CHILD, "session", str(queries), str(results_path)]
        if traced:
            argv.append(str(span_path))
        code, _, timed_out, _ = self._spawn(argv)
        records = {}
        if results_path.exists():
            records = {r["id"]: r for r in json.loads(results_path.read_text())}
        results = []
        for cid, _ in commands:
            r = records.get(cid)
            if r is None:
                results.append(Result(cid, None, "", "session ended early (exit %s%s)"
                                      % (code, ", timeout" if timed_out else ""), 0.0, 0.0))
                continue
            problem = r["problem"]
            if problem is None and r["exit"] not in (0, 1, 2, 3):
                problem = "exit code %s" % r["exit"]
            results.append(Result(cid, r["exit"], r["stdout"], problem, r["wall_s"], r["cpu_s"]))
        spans = [(span_path, [cid for cid, _ in commands])] if traced and span_path.exists() else []
        return results, spans

    def round(self, commands, traced=False):
        run = self.cold_round if self.workload.mode == "cold" else self.warm_round
        return run(commands, traced)


def judge(results, golden, workload):
    """Compare with the reference outputs and run the independent checks.

    A known defect that runs cleanly has no reference output to match (it
    failed at the parent), so only the independent checks judge it.  It is
    an expected failure only while it fails exactly as it did at the parent.
    """
    payloads = {}
    for r in results:
        if r.problem is not None:
            continue
        if r.id not in workload.expected_failures:
            ref = golden.get(r.id)
            if ref is None:
                r.problem = "no reference output"
                continue
            if ref["exit"] != r.exit or ref["stdout"] != r.stdout:
                r.problem = "output differs from the reference"
                continue
        try:
            payloads[r.id] = json.loads(r.stdout)
        except ValueError:
            r.problem = "stdout is not JSON"
        else:
            r.problem = wl.check_payload(r.id, payloads[r.id])
    for cid, problem in wl.cross_checks(payloads).items():
        for r in results:
            if r.id == cid and r.problem is None:
                r.problem = problem
    for r in results:
        r.expected = (r.id in workload.expected_failures
                      and r.problem == golden[r.id]["failure"])


def end_to_end(rounds, setup_times, peak_rss_kb):
    ok = [[r for r in rnd if r.problem is None] for rnd in rounds]
    by_command = {}
    for rnd in ok:
        for r in rnd:
            by_command.setdefault(r.id, []).append(r.wall)
    if not by_command:
        return None, {}
    # One latency per distinct command, the median of its runs: repeats damp
    # the machine's noise and do not weight a command.  The tail is the mean
    # of the commands at and beyond the 95th percentile, not one of them, so
    # it does not rest on a single timing.
    latencies = sorted(statistics.median(w) for w in by_command.values())
    n_tail = -(-len(latencies) * (100 - TAIL_PERCENTILE) // 100)
    runs = sorted(len(w) for w in by_command.values())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(r.wall for r in rnd) for rnd in ok),
        "cpu_s": statistics.median(sum(r.cpu for r in rnd) for rnd in ok),
        "cmd_p50_s": statistics.median(latencies),
        "cmd_tail_s": statistics.mean(latencies[-n_tail:]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    each = "each the median of its %s runs" % (
        runs[0] if runs[0] == runs[-1] else "%d to %d" % (runs[0], runs[-1]))
    notes = {"setup_s": "median of %d probes" % len(setup_times),
             "cmd_p50_s": "median over %d commands, %s" % (len(latencies), each),
             "cmd_tail_s": "mean of the slowest %d of %d commands (p%d and beyond), %s"
             % (n_tail, len(latencies), TAIL_PERCENTILE, each)}
    return metrics, notes


def _load_golden():
    if not GOLDEN.exists():
        raise SetupFailed("missing reference outputs %s" % GOLDEN)
    return json.loads(GOLDEN.read_text())["outputs"]


class Run:
    """The judged rounds of a run, the metrics its last line reports, notes
    printed next to some metrics, extra lines for people, and the
    end-to-end metrics."""

    def __init__(self, rounds, metrics, notes, lines, e2e):
        self.rounds = rounds
        self.metrics = metrics
        self.notes = notes
        self.lines = lines
        self.e2e = e2e


def run_workload(root, workload, seed, seconds, trace, tmp):
    """Everything one run measures.

    With ``trace`` the reported metrics are the per-layer ones of the traced
    round, and ``Run.e2e`` holds the end-to-end ones of the untraced round
    before it.
    """
    golden = _load_golden()
    runner = Runner(root, workload, tmp)
    rng = random.Random(seed)
    runner.setup_probe()    # warm-up: compiles bytecode, checks the checkout

    def probes(n=SETUP_PROBES):
        return [runner.setup_probe() for _ in range(n)]

    def order():
        # In a warm session the order decides which query fills each cache,
        # so it stays fixed; cold commands share nothing and are shuffled.
        commands = list(workload.commands)
        if workload.mode == "cold":
            rng.shuffle(commands)
        return commands

    if not trace:
        rounds = []
        round_s = 0.0
        t0 = time.perf_counter()
        setup_times = probes()
        while True:
            r0 = time.perf_counter()
            results, _ = runner.round(order())
            round_s += time.perf_counter() - r0
            judge(results, golden, workload)
            rounds.append(results)
            setup_times += probes()
            elapsed = time.perf_counter() - t0
            mean_round = round_s / len(rounds)
            if elapsed + mean_round > seconds or runner._remaining() < 2 * mean_round:
                break
        metrics, notes = end_to_end(rounds, setup_times, runner.peak_rss_kb)
        return Run(rounds, metrics, notes, [], metrics)

    commands = order()
    plain, _ = runner.round(commands)
    judge(plain, golden, workload)
    e2e, _ = end_to_end([plain], probes(1), runner.peak_rss_kb)
    traced, spans = runner.round(commands, traced=True)
    judge(traced, golden, workload)
    metrics, by_command, missing = tracing.aggregate(spans)
    wall_plain = sum(r.wall for r in plain if r.problem is None)
    wall_traced = sum(r.wall for r in traced if r.problem is None)
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0) if wall_plain else 0.0
    lines = ["untraced round: " + ", ".join(
        "%s %.4f" % (k, v) for k, v in (e2e or {}).items())]
    lines.append("untraced wall %.3f s, traced wall %.3f s, cli.main spans %.3f s"
                 % (wall_plain, wall_traced, metrics["cli.main.total_s"]))
    if missing:
        lines.append("trace targets not found (reported as 0): " + ", ".join(missing))
    lines.append("time inside each traced function, as a share of the command's "
                 "cli.main (repeats of a command summed):")
    for cid in dict.fromkeys(cid for cid, _ in workload.commands):
        per = by_command.get(cid, {})
        total = per.get("cli.main", 0.0)
        top = sorted(((t, n) for n, t in per.items() if n != "cli.main"), reverse=True)[:4]
        lines.append("  %-40s %8.3f s  %s" % (cid, total, ", ".join(
            "%s %.0f%%" % (n, 100 * t / total) for t, n in top) if total else "-"))
    return Run([plain, traced], metrics, {}, lines, e2e)


def _units(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def report(workload, seed, run, out=sys.stdout):
    rounds, metrics, notes = run.rounds, run.metrics, run.notes
    attempted = sum(len(rnd) for rnd in rounds)
    failures = [r for rnd in rounds for r in rnd if r.problem is not None]
    unexpected = [r for r in failures if not r.expected]
    print("workload %s  seed %d  rounds %d%s  commands per round %d" % (
        workload.name, seed, len(rounds), " (untraced, traced)" if run.lines else "",
        len(workload.commands)), file=out)
    for line in run.lines:
        print(line, file=out)
    for name, value in (metrics or {}).items():
        print("  %-48s %14.6f %-5s %s" % (name, value, _units(name), notes.get(name, "")),
              file=out)
    print("  %-48s %14.6f %-5s %d failed of %d attempted" % (
        "failed_frac", len(failures) / attempted, "ratio", len(failures), attempted),
        file=out)
    for r in failures:
        print("  failed: %s: %s%s" % (r.id, r.problem,
                                       " (known defect)" if r.expected else ""), file=out)
    fixed = sorted({r.id for rnd in rounds for r in rnd
                    if r.problem is None and r.id in workload.expected_failures})
    for cid in fixed:
        print("  known defect no longer fails: %s (recapture golden/)" % cid, file=out)
    result = {
        "correct": not unexpected and metrics is not None,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": _units(name)}
                    for name, value in (metrics or {}).items()},
    }
    print(json.dumps(result), file=out)
    return result


def capture(root, tmp):
    """Run every command once at the current code and store its output."""
    outputs = {}
    seen = set()
    every = list(wl.workloads().values()) + [wl.workloads(holdout=True)["axioms-cold"]]
    for workload in every:
        commands = [c for c in workload.commands if c[0] not in seen]
        if not commands:
            continue
        seen.update(cid for cid, _ in commands)
        results, _ = Runner(root, workload, tmp).round(commands)
        for r in results:
            outputs[r.id] = {"exit": r.exit, "stdout": r.stdout, "failure": r.problem}
            print("captured %-45s exit %s %s" % (r.id, r.exit, r.problem or ""), flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                            capture_output=True, text=True).stdout.strip()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"commit": commit, "outputs": outputs},
                                 indent=1, sort_keys=True) + "\n")


def self_check(root, tmp):
    """Every named metric prints and every output matches the reference.

    One traced run per workload of BENCHMARK.json: its untraced round gives
    the end-to-end metrics, its traced round the per-layer ones.  Then one
    round of ``session-warm-defects``, whose failures must all be the known
    defects failing as they do at the parent commit.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for entry in spec["workloads"]:
        workload = wl.workloads()[entry["name"]]
        run = run_workload(root, workload, 0, 0, 1, tmp)
        result = report(workload, 0, run)
        printed = set(result["metrics"]) | set(run.e2e or {})
        wanted = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        absent = [name for name in wanted if name not in printed]
        if absent:
            problems.append("%s: missing metrics %s" % (workload.name, absent))
        if not result["correct"] or result["failed"]:
            problems.append("%s: outputs do not all match" % workload.name)
    workload = wl.workloads()["session-warm-defects"]
    if not report(workload, 0, run_workload(root, workload, 0, 0, 0, tmp))["correct"]:
        problems.append("%s: a failure is not a known defect" % workload.name)
    print("self-check: " + ("PASS" if not problems else "FAIL\n" + "\n".join(problems)))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="use the held-out axioms seed")
    parser.add_argument("--check", action="store_true", help="self-check and exit")
    parser.add_argument("--capture", action="store_true",
                        help="rewrite golden/ from the current code")
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    tmp = root / ".perfbench_tmp" / ("run-%d" % os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if not (root / "src" / "waldcat").is_dir():
            raise SetupFailed("run from the root of a waldcat checkout: no src/waldcat here")
        if args.capture:
            capture(root, tmp)
            return 0
        if args.check:
            return self_check(root, tmp)
        table = wl.workloads(holdout=args.holdout)
        if args.workload not in table:
            parser.error("--workload must be one of: " + ", ".join(table))
        workload = table[args.workload]
        run = run_workload(root, workload, args.seed, args.seconds, args.trace, tmp)
        report(workload, args.seed, run)
        return 0
    except SetupFailed as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
