"""Benchmark: seeded repair and evaluation requests through ``dlrepair.cli.run``.

One workload per process, driven as a closed loop with one client: the next
request is sent when the previous one has returned.  Every response is
checked against an independent reference (see ``workloads.py``).

    python3 bench/run.py --workload setcover --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 50

``--trace 0`` measures the end-to-end metrics for ``--seconds``.
``--trace 1`` runs each request of a fixed batch twice, untraced and
traced, and reports per-layer metrics and the tracing overhead.  ``--all``
runs every workload both ways, each in its own process, and prints all of
their metrics.
The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

# Distinct requests generated for an untraced run; the loop cycles them.
# Sized to exceed what one 50 s run completes, so that every request of a
# run is a different input.
POOL = {"setcover": 600, "posdl": 540, "spdl": 450, "tceval": 480}
# Requests in the traced batch per second of --seconds, rounded up to whole
# class cycles; sized so the untraced and traced passes together take about
# 0.8 x --seconds.
TRACE_RATE = {"setcover": 3.0, "posdl": 2.5, "spdl": 2.6, "tceval": 2.2}
SETUP_REPEATS = 7
# The host's speed drifts by 10-25 % in spells of 10 s to minutes.
# Throughput and median are taken per group of whole class cycles and the
# median over the groups reported, so a spell covering less than half the
# run moves neither.
GROUPS = 5
REQUEST_LIMIT_S = 10.0
TAIL_PERCENTILE = 90


class RequestTimeout(Exception):
    """A request ran past REQUEST_LIMIT_S."""


def _on_alarm(signum, frame):
    raise RequestTimeout(f"no response within {REQUEST_LIMIT_S} s")


# ---------------------------------------------------------------------------
# Set-up


def _import_program():
    """Import ``dlrepair`` from the checkout afresh, as a CLI start does."""
    for name in [m for m in sys.modules if m == "dlrepair" or m.startswith("dlrepair.")]:
        del sys.modules[name]
    cli = importlib.import_module("dlrepair.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"dlrepair imported from {cli.__file__}, not from {SRC}")
    return cli


def write_inputs(workload: str, seed: int, count: int, workdir: Path):
    """Generate requests ``0..count-1`` and write their files; returns the
    requests and their argument lists."""
    query, requests = workloads.make_requests(workload, seed, count)
    workdir.mkdir(parents=True, exist_ok=True)
    query_path = workdir / "query.dl"
    query_path.write_text(query)
    argvs = []
    for i, request in enumerate(requests):
        data_path = workdir / f"{i}.facts"
        data_path.write_text(request.data)
        argvs.append([a.format(query=query_path, data=data_path) for a in request.argv])
    return requests, argvs


def setup(workload: str, seed: int, count: int, workdir: Path):
    """Import, generate and write SETUP_REPEATS times; returns the median
    set-up time, the program's cli module, the requests and their argvs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = _import_program()
        requests, argvs = write_inputs(workload, seed, count, workdir)
        times.append(time.perf_counter() - start)
    return statistics.median(times), cli, requests, argvs


# ---------------------------------------------------------------------------
# The closed loop


def closed_loop(cli, requests, argvs, *, seconds=None, count=None, tracer=None):
    """Send requests in order (cycling) until ``seconds`` have passed or
    ``count`` requests are done.  Returns per-request wall times and the
    failures as (request index, reason)."""
    times: list[float] = []
    failures: list[tuple[int, str]] = []
    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        while (len(times) < count) if count is not None else (time.perf_counter() - start < seconds):
            j = len(times) % len(argvs)
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
            try:
                if tracer is None:
                    code = cli.run(argvs[j], out, err)
                else:
                    code = tracer.request(cli.run, argvs[j], out, err)
            except Exception as exc:  # a crashing request is counted, not fatal
                code, why = None, f"raised {exc!r}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(time.perf_counter() - t0)
            if code is not None:
                try:
                    why = requests[j].check(code, out.getvalue())
                except (ValueError, KeyError, TypeError) as exc:
                    why = f"unreadable response {out.getvalue()!r}: {exc!r}"
            if why is not None:
                failures.append((j, why))
    finally:
        signal.signal(signal.SIGALRM, previous_handler)
    return times, failures


def tail(times: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE-th percentile (nearest rank) and the number of
    requests slower than it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(TAIL_PERCENTILE / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def groups(workload: str, times: list[float]) -> list[list[float]]:
    """Split request times into about GROUPS consecutive groups of whole
    class cycles, so every group has the same mix of requests; a partial
    group at the end is dropped."""
    cycle = len(workloads.CLASSES[workload])
    size = cycle * max(1, len(times) // GROUPS // cycle)
    return [times[i : i + size] for i in range(0, len(times) - size + 1, size)]


def untraced(workload: str, seed: int, seconds: int, workdir: Path) -> dict:
    setup_s, cli, requests, argvs = setup(workload, seed, POOL[workload], workdir)
    times, failures = closed_loop(cli, requests, argvs, seconds=seconds)
    parts = groups(workload, times)
    tail_s, beyond = tail(times)
    metrics = {
        "throughput_rps": _metric(statistics.median(len(g) / sum(g) for g in parts), "1/s"),
        "solve_p50_s": _metric(statistics.median(statistics.median(g) for g in parts), "s"),
        "solve_tail_s": _metric(tail_s, "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "throughput_rps": f"median of {len(parts)} groups of {len(parts[0])} requests",
        "solve_p50_s": f"median of the {len(parts)} groups' medians",
        "solve_tail_s": f"p{TAIL_PERCENTILE}, {beyond} of {len(times)} requests beyond it",
        "failed_share": f"{len(failures) / len(times):.4f} ({len(failures)} of {len(times)})",
    }
    return {"metrics": metrics, "notes": notes, "attempted": len(times), "failures": failures}


def trace_batch_size(workload: str, seconds: int) -> int:
    cycle = len(workloads.CLASSES[workload])
    return cycle * math.ceil(seconds * TRACE_RATE[workload] / cycle)


def traced(workload: str, seed: int, seconds: int, workdir: Path) -> dict:
    """Run each request of the batch untraced and traced, alternating which
    goes first, so that drifts in the host's speed and warm-up fall on both
    sides of the overhead."""
    batch = trace_batch_size(workload, seconds)
    _, cli, requests, argvs = setup(workload, seed, batch, workdir)
    tracer = Tracer()
    plain_times, times, failures = [], [], []
    for j in range(batch):
        one = (requests[j : j + 1], argvs[j : j + 1])
        for with_trace in (j % 2 == 1, j % 2 == 0):
            if with_trace:
                with tracer:
                    t, failed = closed_loop(cli, *one, count=1, tracer=tracer)
                times += t
            else:
                t, failed = closed_loop(cli, *one, count=1)
                plain_times += t
            failures += [(j, why) for _, why in failed]
    tracer.write(WORK / f"spans-{workload}.tsv")

    c = tracer.counts
    layer = tracer.layer_self_times()
    total = tracer.total_times()
    candidates = c["repair.eval_member"]
    tuples = tracer.tuples_derived
    datalog_s = total["engine.eval_datalog"]
    values = {
        "classify.calls": (c["repair.classify"] + c["engine.classify"], "count"),
        "classify.s": (layer["classify"], "s"),
        "engine.eval_member.calls": (c["cli.eval_member"] + candidates, "count"),
        "engine.eval_datalog.calls": (c["engine.eval_datalog"], "count"),
        "engine.eval_datalog.s": (datalog_s, "s"),
        "engine.rule_solutions.calls": (c["engine.rule_solutions"], "count"),
        "engine.self_s": (layer["engine"], "s"),
        "engine.tuples_derived": (tuples, "count"),
        "engine.tuples_per_s": (_ratio(tuples, datalog_s), "1/s"),
        "repair.candidates": (candidates, "count"),
        "repair.candidates_per_repair": (_ratio(candidates, c["repair.ma_min"]), "count"),
        "repair.candidates_per_s": (_ratio(candidates, total["repair.ma_min"]), "1/s"),
        "repair.domain_size": (_ratio(sum(tracer.domain_sizes), len(tracer.domain_sizes)), "count"),
        "repair.self_s": (layer["repair"], "s"),
        "parser.s": (layer["parser"], "s"),
        "parser.facts": (tracer.facts_parsed, "count"),
        "cli.self_s": (layer["cli"], "s"),
        "trace.requests": (batch, "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.overhead_share": (sum(times) / sum(plain_times) - 1, "ratio"),
    }
    metrics = {name: _metric(v, unit) for name, (v, unit) in values.items()}
    return {
        "metrics": metrics,
        "notes": {"trace": f"{batch} requests, untraced {sum(plain_times):.3f} s, traced {sum(times):.3f} s"},
        "attempted": 2 * batch,
        "failures": failures,
    }


# ---------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    workdir = WORK / f"{workload}-{os.getpid()}"
    try:
        result = (traced if trace else untraced)(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}" + (f"  ({note})" if note else ""))
    for name, note in result["notes"].items():
        if name not in result["metrics"]:
            print(f"{workload} {name}: {note}")
    for index, why in result["failures"][:5]:
        print(f"{workload} request {index} failed: {why}", file=sys.stderr)
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Each workload untraced and traced, in a process of its own."""
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            sys.stderr.write(proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} trace={trace}: FAILED (exit {proc.returncode})")
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (SRC / "dlrepair" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
