"""simpletri benchmark: verdict latency and throughput of the CLI, in process.

    python3 bench/run.py --workload graph-reject --seed 1 --seconds 15 --trace 0

A single-threaded closed loop: one caller hands one instance file at a time
to ``simpletri.cli.main`` and starts the next only after the verdict
returns.  Every verdict is checked against an answer that does not come from
the recognizer (see ``checks.py``).  ``--trace 0`` measures the end-to-end
metrics over whole passes of the stream for about ``--seconds`` seconds;
``--trace 1`` decides a fixed prefix of the stream once untraced and once
traced, and reports the per-layer metrics (see ``README.md``).  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import corpora
import hostspeed
from checks import Checker
from tracing import Recorder, patched

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Set-up (import, corpus generation, file writing) is repeated this many
# times per run; setup_s is the median.
SETUP_REPEATS = 11

COMMANDS = {
    "graph-reject": ["recognize"],
    "graph-accept": ["recognize"],
    "order-recognize": ["order", "recognize"],
    "crosscheck": ["oracle", "verify"],
}

# Stream prefix decided by a traced run (fixed, so its counters repeat).
TRACE_INSTANCES = {
    "graph-reject": 24,
    "graph-accept": 50,
    "order-recognize": 60,
    "crosscheck": 150,
}

LIBRARY_MODULES = (
    "cli", "errors", "exhaustive", "graphs", "oracles", "orders", "recognition",
    "triangles",
)


class Library:
    """Handles on the freshly imported modules of the program under test."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "simpletri" or m.startswith("simpletri.")]:
            del sys.modules[name]
        package = importlib.import_module("simpletri")
        if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
            raise ImportError(f"simpletri imported from {package.__file__}, not {SRC}")
        for name in LIBRARY_MODULES:
            setattr(self, name, importlib.import_module(f"simpletri.{name}"))


def set_up(workload: str, seed: int):
    """Import, generate and write the stream; repeated, timed by the median
    of the set-up times at the reference host speed (raw median printed)."""
    calls = []
    probes = []
    made = []
    try:
        for r in range(SETUP_REPEATS):
            probes.extend(hostspeed.probe() for _ in range(3))
            directory = os.path.join(WORK, f"{workload}-seed{seed}-pid{os.getpid()}-{r}")
            start = time.perf_counter()
            lib = Library()
            timer = corpora.Timer()
            stream = corpora.STREAMS[workload](seed, timer, lib.exhaustive)
            paths = corpora.write_stream(stream, directory)
            calls.append((start, time.perf_counter()))
            made.append(directory)
            if r < SETUP_REPEATS - 1:
                # every repeat writes into an equally empty tree
                shutil.rmtree(directory)
        print(f"raw setup_s = {statistics.median(t1 - t0 for t0, t1 in calls):.6g} s")
        setup_s = statistics.median(hostspeed.scaled(calls, probes))
        return lib, stream, paths, timer, setup_s, made
    except BaseException:
        for directory in made:
            shutil.rmtree(directory, ignore_errors=True)
        raise


def invoke(lib, argv):
    """Run ``cli.main(argv)``; returns (start, end, exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed instance, not a crash
            code = 2
        end = time.perf_counter()
    return start, end, code, out.getvalue()


def verdict_of(command, code, out):
    if command[0] == "oracle":
        return "accept" if "recognize: accept" in out else "reject"
    return "accept" if code == 0 else "reject"


class Outcomes:
    """Checks each (instance, output) once and counts failures."""

    def __init__(self, checker, stream, command):
        self.checker = checker
        self.stream = stream
        self.command = command
        self.seen: dict[tuple[int, str], object] = {}
        self.attempted = 0
        self.failed = 0
        self.accepted = 0
        self.sources = Counter()
        self.reasons: list[str] = []

    def add(self, k, code, out):
        inst = self.stream[k]
        key = (k, out)
        if key not in self.seen:
            self.seen[key] = self.checker.check(inst, self.command[0], code, out)
        reason = self.seen[key]
        self.attempted += 1
        self.sources[inst.source] += 1
        if verdict_of(self.command, code, out) == "accept":
            self.accepted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"instance {k} ({inst.family}): {reason}")


def tail_percentile(pass_length: int) -> int:
    """Highest whole percentile with at least ten samples of one pass beyond it."""
    return max(q for q in range(1, 100) if pass_length - math.ceil(q * pass_length / 100) >= 10)


def timed_run(lib, stream, paths, command, seconds, outcomes):
    """Decide the whole stream, pass after pass, while another pass ends
    nearer to ``seconds`` than stopping does.

    Only whole passes are measured, so every run times the same multiset of
    instances however fast the program is; a window cut mid-stream would
    make the counts depend on where the cut falls in a stream whose
    instances differ in cost by 1000x.  Times are scaled to the reference
    host speed (``hostspeed.py``); throughput is instances over the summed
    verdict times, the closed loop's rate without the benchmark's checks.
    """
    calls = []
    start = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        while True:
            pass_start = time.perf_counter()
            for k, path in enumerate(paths):
                sampler.take()
                t0, t1, code, out = invoke(lib, command + [path])
                calls.append((t0, t1))
                outcomes.add(k, code, out)
            now = time.perf_counter()
            if now - start + (now - pass_start) / 2 >= seconds:
                break
    probes = sampler.probes
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    durations = [t1 - t0 for t0, t1 in calls]  # raw, probes included
    q = tail_percentile(len(stream))
    rank = math.ceil(q * len(durations) / 100)
    print(f"samples: {len(durations)} in {len(durations) // len(stream)} passes, "
          f"{now - start:.2f} s; verdict_ms_tail is p{q} with "
          f"{len(durations) - rank} samples beyond it")
    print(f"raw verdict_ms_p50 = {statistics.median(durations) * 1e3:.6g} ms, "
          f"raw verdict_ms_tail = {sorted(durations)[rank - 1] * 1e3:.6g} ms, "
          f"raw instances_per_s = {len(durations) / sum(durations):.6g} 1/s, "
          f"host speed = {hostspeed.REFERENCE_S / statistics.median(s for _, s in probes):.4f}"
          " of reference")
    durations = hostspeed.scaled(calls, probes)
    return {
        "verdict_ms_p50": (statistics.median(durations) * 1e3, "ms"),
        "verdict_ms_tail": (sorted(durations)[rank - 1] * 1e3, "ms"),
        "instances_per_s": (len(durations) / sum(durations), "1/s"),
        "ok_ratio": ((outcomes.attempted - outcomes.failed) / outcomes.attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def drain_certificates(lib, graph, counters):
    """Prune counts by pattern and search nodes of one rejected graph.

    Certificates arrive in depth-first order, so the distinct proper
    prefixes of the pruned prefixes (the expanded nodes) are counted from
    each prefix's divergence from the previous one.
    """
    previous: tuple = ()
    for prefix, name, _ in lib.recognition.rejection_certificates(graph):
        counters[f"recognition.prunes.{name}"] += 1
        common = 0
        for a, b in zip(previous, prefix):
            if a != b:
                break
            common += 1
        counters["recognition.expanded"] += max(0, len(prefix) - 1 - common)
        previous = prefix


def extension_loop(lib, inst, counters, busy):
    """The order recognizer's loop, re-run through the public functions."""
    p = lib.orders.make_partial_order(inst.n, inst.items)
    extensions = lib.orders.enumerate_linear_extensions(p)
    while True:
        t0 = time.perf_counter()
        ext = next(extensions, None)
        t1 = time.perf_counter()
        busy["orders.enumerate"] += t1 - t0
        counters["orders.enumerate.calls"] += 1
        if ext is None:
            return
        counters["orders.extensions_enumerated"] += 1
        found = lib.orders.find_alternating_anticycle(p, ext, k_max=2)
        busy["orders.anticycle"] += time.perf_counter() - t1
        counters["orders.anticycle.calls"] += 1
        if found is None:
            counters["orders.extension_hits"] += 1
            return


def traced_run(lib, stream, paths, command, outcomes, workload, setup_timer, spans_path):
    count = TRACE_INSTANCES[workload]
    order = [i % len(stream) for i in range(count)]
    # both passes are scaled to the reference host speed, so that host drift
    # between them does not read as tracing overhead
    plain, plain_probes = [], []
    for k in order:
        plain_probes.append(hostspeed.probe())
        t0, t1, code, out = invoke(lib, command + [paths[k]])
        plain.append((t0, t1))
        outcomes.add(k, code, out)
    untraced = sum(hostspeed.scaled(plain, plain_probes))

    rec = Recorder()
    counters = Counter()
    busy = Counter()
    timed, timed_probes = [], []
    with patched(rec, lib):
        for j, k in enumerate(order):
            inst = stream[k]
            timed_probes.append(hostspeed.probe())
            with rec.root("cli.main", j):
                t0, t1, code, out = invoke(lib, command + [paths[k]])
            timed.append((t0, t1))
            with rec.mute():
                outcomes.add(k, code, out)
                accepted = verdict_of(command, code, out) == "accept"
                if inst.kind == "order":
                    extension_loop(lib, inst, counters, busy)
                    continue
                g = lib.graphs.Graph(inst.n, frozenset(inst.items))
                if not accepted:
                    drain_certificates(lib, g, counters)
                elif command[0] == "recognize" and code == 0:
                    ordering = tuple(int(tok) for tok in out.split())
                    with rec.span("recognition.check_apex"):
                        lib.recognition.check_apex_ordering(g, ordering)
                    rep = lib.recognition.realize(g, ordering)
                    with rec.span("triangles.verify"):
                        lib.triangles.verify_representation(g, rep)
    rec.write(spans_path)
    print(f"spans: {len(rec.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    print("wait: no layer has a queue (one caller, closed loop), so no layer has a wait metric")

    totals = rec.totals()
    metrics = {}

    def layer(metric, span, use_self=False):
        inclusive, own, calls = totals.get(span, (0.0, 0.0, 0))
        metrics[f"{metric}_ms"] = ((own if use_self else inclusive) * 1e3, "ms")
        metrics[f"{metric}.calls"] = (calls, "count")

    layer("recognition.recognize", "recognition.recognize")
    layer("recognition.realize", "recognition.realize")
    layer("recognition.search", "recognition.recognize", use_self=True)
    layer("recognition.check_apex", "recognition.check_apex")
    prunes = sum(counters[f"recognition.prunes.{p}"] for p in ("cpc", "p1", "p2"))
    nodes = prunes + counters["recognition.expanded"]
    metrics["recognition.prunes"] = (prunes, "count")
    for p in ("cpc", "p1", "p2"):
        metrics[f"recognition.prunes.{p}"] = (counters[f"recognition.prunes.{p}"], "count")
    metrics["recognition.nodes"] = (nodes, "count")
    metrics["recognition.survive_ratio"] = (
        counters["recognition.expanded"] / nodes if nodes else 0.0, "ratio")
    layer("graphs.find_pattern", "graphs.find_pattern")
    layer("graphs.orient_complement", "graphs.orient_complement")
    layer("orders.build_intervals", "orders.build_intervals")
    layer("orders.recognize_lio", "orders.recognize_lio")
    for name in ("enumerate", "anticycle"):
        metrics[f"orders.{name}_ms"] = (busy[f"orders.{name}"] * 1e3, "ms")
        metrics[f"orders.{name}.calls"] = (counters[f"orders.{name}.calls"], "count")
    extensions = counters["orders.extensions_enumerated"]
    metrics["orders.extensions_enumerated"] = (extensions, "count")
    metrics["orders.extension_hit_ratio"] = (
        counters["orders.extension_hits"] / extensions if extensions else 0.0, "ratio")
    layer("triangles.verify", "triangles.verify")
    layer("io.load", "io.load")
    layer("cli.overhead", "cli.main", use_self=True)
    layer("oracles.geometric_search", "oracles.geometric_search")
    layer("oracles.alternating_pair", "oracles.alternating_pair")
    layer("oracles.complements_extend", "oracles.complements_extend")
    layer("oracles.geometry_check", "oracles.geometry_check")
    metrics["exhaustive.corpus_ms"] = (setup_timer.seconds * 1e3, "ms")
    metrics["exhaustive.corpus.calls"] = (setup_timer.calls, "count")
    traced = sum(hostspeed.scaled(timed, timed_probes))
    metrics["trace.untraced_ms"] = (untraced * 1e3, "ms")
    metrics["trace.traced_ms"] = (traced * 1e3, "ms")
    metrics["trace.overhead_ms"] = ((traced - untraced) * 1e3, "ms")
    metrics["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "simpletri", "__init__.py")):
        print(f"error: no simpletri sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(WORK, exist_ok=True)
    lib, stream, paths, timer, setup_s, made = set_up(args.workload, args.seed)
    try:
        command = COMMANDS[args.workload]
        outcomes = Outcomes(Checker(lib), stream, command)
        if args.trace:
            spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
            metrics = traced_run(lib, stream, paths, command, outcomes, args.workload,
                                 timer, spans_path)
        else:
            metrics = {"setup_s": (setup_s, "s")}
            metrics.update(timed_run(lib, stream, paths, command, args.seconds, outcomes))
    finally:
        for directory in made:
            shutil.rmtree(directory, ignore_errors=True)

    checker = outcomes.checker
    print(f"workload {args.workload}, seed {args.seed}: {outcomes.attempted} decided, "
          f"{outcomes.accepted} accepted ({outcomes.accepted / outcomes.attempted:.1%}), "
          f"fail_ratio {outcomes.failed / outcomes.attempted:.4f}")
    print("answers by source: " + ", ".join(f"{s} {c}" for s, c in sorted(outcomes.sources.items()))
          + f"; distinct rejections checked {checker.rejections}, "
          f"backed by an oracle-rejected obstruction {checker.backed}")
    for reason in outcomes.reasons:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
