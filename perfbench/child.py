"""Child-process side of the benchmark; every piece of waldcat work runs here.

    python3 perfbench/child.py ready WORKSPACE
        Import ``waldcat.cli``, load WORKSPACE, print ``ready`` and exit.
        The parent times this as the set-up probe.
    python3 perfbench/child.py cold TIMING SPANS -- ARGV...
        One CLI command, as the ``waldcat`` console script runs it: stdout,
        stderr and the exit code are the CLI's own.  The wall and CPU time
        of ``waldcat.cli.main`` (set-up excluded) go to TIMING; unless SPANS
        is ``-``, the command is traced and its spans go to SPANS.
    python3 perfbench/child.py session QUERIES RESULTS [SPANS]
        A warm session: one interpreter runs every query of the JSON list
        QUERIES (``[[id, argv], ...]``) through ``waldcat.cli.main`` back to
        back and writes one record per query to RESULTS.  With SPANS the
        session is traced.

Every mode caps its address space at ``AS_CAP_BYTES``.  ``src/`` of the
current directory goes first on ``sys.path``, so the checkout's waldcat is
the one measured.
"""

import io
import json
import os
import resource
import signal
import sys
import time
import traceback

QUERY_TIMEOUT_S = 120
AS_CAP_BYTES = 3 << 30  # quiver_a1 axioms at seed 3 passes under this cap


class QueryTimeout(BaseException):
    """Raised inside a query that ran past its time limit."""


def _prepare():
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [os.path.join(os.getcwd(), "src"), here] + [
        p for p in sys.path if os.path.abspath(p or ".") != here]


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _ready(workspace):
    import waldcat.cli
    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(waldcat.cli.__file__).startswith(src):
        raise SystemExit("waldcat imported from %s, not from %s"
                         % (waldcat.cli.__file__, src))
    from waldcat.workspace import load_workspace
    load_workspace(workspace)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def _cold(timing_path, spans_path, argv):
    rec = None
    if spans_path != "-":
        import tracing
        rec = tracing.install()
    import waldcat.cli
    cpu0 = _cpu()
    t0 = time.perf_counter()
    try:
        return waldcat.cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        sys.stdout.flush()
        with open(timing_path, "w") as fh:
            json.dump({"wall_s": wall, "cpu_s": cpu}, fh)
        if rec is not None:
            rec.dump(spans_path)


def _on_alarm(signum, frame):
    raise QueryTimeout("query ran longer than %d s" % QUERY_TIMEOUT_S)


def _session(queries_path, results_path, spans_path=None):
    with open(queries_path) as fh:
        queries = json.load(fh)
    rec = None
    if spans_path:
        import tracing
        rec = tracing.install()
    import waldcat.cli
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []
    real_stdout = sys.stdout
    for number, (query_id, argv) in enumerate(queries):
        if rec is not None:
            rec.current_command = number
        buf = io.StringIO()
        problem = None
        code = None
        sys.stdout = buf
        signal.alarm(QUERY_TIMEOUT_S)
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            code = waldcat.cli.main(argv)
        except QueryTimeout:
            problem = "timeout"
        except MemoryError:
            problem = "MemoryError"
        except Exception:
            problem = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu() - cpu0
            signal.alarm(0)
            sys.stdout = real_stdout
        records.append({"id": query_id, "exit": code, "stdout": buf.getvalue(),
                        "problem": problem, "wall_s": wall, "cpu_s": cpu})
    with open(results_path, "w") as fh:
        json.dump(records, fh)
    if rec is not None:
        rec.dump(spans_path)
    return 0


def main(argv):
    _prepare()
    mode = argv[0]
    if mode == "ready":
        return _ready(argv[1])
    if mode == "cold":
        return _cold(argv[1], argv[2], argv[4:])
    if mode == "session":
        return _session(*argv[1:4])
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
