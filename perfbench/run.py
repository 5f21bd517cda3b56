"""Replay benchmark: streaming platform replays measured end to end.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` a run sets up and replays the workload repeatedly,
cycling through the seed's relabelled streams (``workloads.stream_seed``),
each at least once and until ``--seconds`` have passed, then sets up alone until
``SETUP_SECONDS`` of set-up time are measured, and reports the end-to-end
metrics, times scaled to a reference host speed (:func:`reference_s`,
sampled between decisions).
With ``--trace 1`` it makes one untraced
and one traced replay, reports the per-layer metrics and writes the trace
to ``.bench_trace/`` (render it with ``python -m repro.obs.report``).
Without ``--workload`` every workload runs in turn, each in its own
process.  The last line of standard output is one JSON object; the exit
code is 1 when a correctness check fails.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
TRACE_DIR = ROOT / ".bench_trace"
#: An untraced run then sets up again (without replaying) until it has
#: measured this much set-up time: a cheap set-up takes tens of
#: milliseconds, so the median of two or three would be noise.
SETUP_SECONDS = 2.0

#: Nominal time of one :func:`reference_s` sample: the time metrics are
#: reported at the host speed at which the loop takes this long.
REFERENCE_S = 0.003
#: Wall time between two reference samples taken during an untraced replay.
SAMPLE_EVERY_S = 0.2

#: End-to-end metrics: name -> unit, in report order.
END_TO_END = {
    "events_per_s": "events/s",
    "decision_p50_ms": "ms",
    "decision_p99_ms": "ms",
    "assigned_tasks": "tasks",
    "clean_decision_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: The time metrics, reported at the reference speed.
SCALED = ("events_per_s", "decision_p50_ms", "decision_p99_ms", "setup_s")


@dataclass
class Replay:
    """What one set-up + replay measured."""

    #: Relabelling seed of the replayed stream.
    stream: int
    setup_s: float
    replay_s: float
    events: int
    #: ``AssignmentStrategy.plan`` calls.
    decisions: int
    #: Wall time of each call made with at least one pending task: the
    #: paper's CPU time per assignment instance.  Calls without pending
    #: tasks only reposition idle workers and take microseconds.  These
    #: calls are the benchmark's counted decisions.
    plan_times: List[float]
    assigned_tasks: int
    failed_decisions: int
    digest: str
    #: :func:`reference_s` samples taken during the replay (none when
    #: traced); their time is not part of ``replay_s`` or ``plan_times``.
    references: List[float] = field(default_factory=list)
    row_stats: Optional[Dict[str, int]] = None
    problems: List[str] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """``REFERENCE_S`` over the mean reference sample; below 1 while the host runs slow."""
        return host_speed(self.references)


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of the raw samples."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


#: Points of :func:`reference_s`.
REFERENCE_POINTS = [((i * 7919) % 1000 / 1000.0, (i * 104729) % 1000 / 1000.0) for i in range(120)]


def reference_s() -> float:
    """Time one run of a fixed interpreter loop that calls no repository code.

    The host's speed drifts by a quarter over seconds to minutes (other
    tenants share its cores), and user time drifts with wall time.  The
    loop slows down with the host, and with nothing else.  A replay takes
    a sample every ``SAMPLE_EVERY_S`` between two decisions, and its times
    are multiplied by :func:`host_speed` of those samples, which cancels
    much of the drift and none of the program's cost.  The loop imitates
    the planner's inner work (distances, candidate lists, a sort, a set):
    under memory contention an integer loop slowed down less than the
    replays did, this one as much.  The collector is off while it runs, so
    the size of the program's heap does not enter the sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for x0, y0 in REFERENCE_POINTS:
        near = []
        for j, (x1, y1) in enumerate(REFERENCE_POINTS):
            d = math.hypot(x1 - x0, y1 - y0)
            if d < 0.3:
                near.append((d, j))
        near.sort()
        {j for _, j in near[:8]}
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def host_speed(references: List[float]) -> float:
    """Host speed over the period the reference samples cover (1 at reference speed)."""
    return REFERENCE_S / statistics.mean(references)


def set_up(name: str, stream: int):
    """Generate, train and build one replay; return it with its set-up time."""
    from workloads import WORKLOADS

    start = time.perf_counter()
    prepared = WORKLOADS[name](stream)
    return prepared, time.perf_counter() - start


def replay_once(name: str, stream: int, trace=None, sample: bool = False) -> Replay:
    """Set up and replay one relabelling; with ``sample``, take reference samples."""
    from repro.simulation.platform import SCPlatform

    with trace.span("setup") if trace else nullcontext():
        prepared, setup_s = set_up(name, stream)

    strategy = prepared.strategy
    problems: List[str] = []
    plan_times: List[float] = []
    decisions = 0
    references = [reference_s()] if sample else []
    sampling_s = 0.0
    next_sample = 0.0
    plan = trace.wrap_decision(strategy.plan) if trace else strategy.plan
    dispatched = set()
    notify_dispatch = strategy.notify_dispatch

    def timed_plan(idle_workers, pending_tasks, now):
        nonlocal decisions, sampling_s, next_sample
        if sample and time.perf_counter() >= next_sample:
            references.append(reference_s())
            sampling_s += references[-1]
            next_sample = time.perf_counter() + SAMPLE_EVERY_S
        t0 = time.perf_counter()
        result = plan(idle_workers, pending_tasks, now)
        elapsed = time.perf_counter() - t0
        decisions += 1
        if pending_tasks:
            plan_times.append(elapsed)
        return result

    def checked_notify_dispatch(worker_id, task_id):
        if task_id in dispatched:
            problems.append(f"task {task_id} dispatched twice")
        dispatched.add(task_id)
        return notify_dispatch(worker_id, task_id)

    strategy.plan = timed_plan
    strategy.notify_dispatch = checked_notify_dispatch

    instance = prepared.instance
    stats_fn = getattr(instance.travel, "cache_stats", None)
    before = stats_fn() if stats_fn else None
    # The platform ``SimulationRunner.run_strategy`` would build, kept here
    # because its report does not carry ``deterministic_state()``.
    platform = SCPlatform(instance, strategy, prepared.runner.platform_config)
    try:
        with trace.span("replay") if trace else nullcontext() as span:
            if trace:
                trace.replay_span_id = span.span_id
            start = time.perf_counter()
            metrics = platform.run()
            replay_s = time.perf_counter() - start - sampling_s
    finally:
        platform.close()
    row_stats = None
    if stats_fn:
        after = stats_fn()
        row_stats = {k: after[k] - before[k] for k in ("row_hits", "row_misses")}

    if len(dispatched) != metrics.dispatched_tasks:
        problems.append(
            f"{len(dispatched)} tasks reached notify_dispatch, "
            f"metrics count {metrics.dispatched_tasks}"
        )
    state = json.dumps(metrics.deterministic_state(), sort_keys=True)
    return Replay(
        stream=stream,
        setup_s=setup_s,
        replay_s=replay_s,
        events=instance.num_workers + instance.num_tasks,
        decisions=decisions,
        plan_times=plan_times,
        assigned_tasks=metrics.assigned_tasks,
        # Decisions served below the full rung, plus incremental-cache
        # invariant repairs (each a cache drop and a replan from scratch).
        failed_decisions=metrics.degraded_epochs + metrics.invariant_repairs,
        digest=hashlib.sha256(state.encode()).hexdigest(),
        references=references,
        row_stats=row_stats,
        problems=problems,
    )


def check_digests(name: str, seed: int, replays: List[Replay]) -> List[str]:
    """Replays of one stream must agree, and seed 0 must match the record."""
    problems = [p for r in replays for p in r.problems]
    for stream in sorted({r.stream for r in replays}):
        found = sorted({r.digest for r in replays if r.stream == stream})
        if len(found) > 1:
            problems.append(f"stream {stream}: replays disagree on deterministic_state(): {found}")
    digests = sorted({r.digest for r in replays})
    if seed == 0:
        recorded = json.loads(DIGESTS.read_text()).get(name)
        if digests != [recorded]:
            problems.append(f"digest {digests} differs from the recorded {recorded}")
    return problems


def distinct(replays: List[Replay]) -> List[Replay]:
    """The first replay of each relabelling in the run.

    Replays of one relabelling make the same decisions (their digests must
    agree), so the decision counts and failures of a run are taken from
    these: they depend on the seed alone, not on how many replays fitted in
    ``--seconds``.
    """
    first: Dict[int, Replay] = {}
    for replay in replays:
        first.setdefault(replay.stream, replay)
    return list(first.values())


def counted(replays: List[Replay]) -> int:
    """Counted decisions of the replays: ``plan`` calls with a pending task."""
    return sum(len(r.plan_times) for r in replays)


def failed(replays: List[Replay]) -> int:
    """Failed decisions of the replays: degraded epochs and repairs."""
    return sum(r.failed_decisions for r in replays)


def end_to_end(
    replays: List[Replay], setups: List[float], scaled: bool = True
) -> Dict[str, float]:
    """The end-to-end metrics: times at the reference speed, or raw wall times.

    Rate and latencies are taken over each relabelling's replays and then
    averaged over the relabellings, so each weighs the same however many
    times the run replayed it.
    """
    streams: Dict[int, List[Replay]] = {}
    for replay in replays:
        streams.setdefault(replay.stream, []).append(replay)
    rates, p50s, p99s = [], [], []
    for group in streams.values():
        speeds = [r.speed if scaled else 1.0 for r in group]
        samples = [t * v for r, v in zip(group, speeds) for t in r.plan_times]
        replay_s = sum(r.replay_s * v for r, v in zip(group, speeds))
        rates.append(sum(r.events for r in group) / replay_s)
        p50s.append(statistics.median(samples))
        p99s.append(percentile(samples, 99.0))
    return {
        "events_per_s": statistics.mean(rates),
        "decision_p50_ms": statistics.mean(p50s) * 1e3,
        "decision_p99_ms": statistics.mean(p99s) * 1e3,
        "assigned_tasks": statistics.mean(group[0].assigned_tasks for group in streams.values()),
        "clean_decision_share": 1.0 - failed(distinct(replays)) / counted(distinct(replays)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_untraced(name: str, seed: int, seconds: float):
    from workloads import STREAMS, stream_seed

    replays: List[Replay] = []
    start = time.perf_counter()
    while len(replays) < STREAMS[name] or time.perf_counter() - start < seconds:
        replays.append(replay_once(name, stream_seed(name, seed, len(replays)), sample=True))
        # Free the finished replay's cycles now, so the next one starts
        # from the same heap and the peak RSS does not depend on when the
        # collector last ran.
        gc.collect()
    raw_setups = [r.setup_s for r in replays]
    references = [t for r in replays for t in r.references]
    while sum(raw_setups) < SETUP_SECONDS:
        references.append(reference_s())
        raw_setups.append(set_up(name, stream_seed(name, seed, len(raw_setups)))[1])
    # A set-up is too short, or (with predictor training) too long, to be
    # sampled like a replay; it is scaled by the speed over the whole run.
    setups = [t * host_speed(references) for t in raw_setups]
    problems = check_digests(name, seed, replays)
    values = end_to_end(replays, setups)
    raw = end_to_end(replays, raw_setups, scaled=False)
    decisions = sum(r.decisions for r in replays)
    samples = counted(replays)
    attempted, failures = counted(distinct(replays)), failed(distinct(replays))
    print(
        f"# {name} seed={seed}: {len(replays)} replays of streams "
        f"{sorted({r.stream for r in replays})}, {len(setups)} set-ups, "
        f"digest {replays[0].digest[:16]}, host speed "
        f"{min(r.speed for r in replays):.3f}-{max(r.speed for r in replays):.3f} of reference "
        f"({len(references)} samples)"
    )
    for metric, unit in END_TO_END.items():
        note = ""
        if metric == "decision_p99_ms":
            note = f"  (n={samples} of {decisions} decisions, {samples - math.ceil(0.99 * samples)} above p99)"
        if metric in SCALED:
            note = f"  wall {raw[metric]:.4f}{note}"
        print(f"{name}  {metric:<22} {values[metric]:>14.4f} {unit}{note}")
    print(
        f"{name}  {'failed_decision_share':<22} {failures / attempted:>14.6f} ratio"
        f"  ({failures} of {attempted}, one replay per relabelling)"
    )
    return problems, values, END_TO_END, attempted, failures


def run_traced(name: str, seed: int):
    from layers import UNITS, LayerTrace
    import workloads

    stream = workloads.stream_seed(name, seed, 0)
    untraced = replay_once(name, stream)
    trace = LayerTrace()
    trace.install(extra_modules=[workloads])
    try:
        traced = replay_once(name, stream, trace)
    finally:
        trace.restore()
    problems = check_digests(name, seed, [untraced, traced])
    values = trace.metrics(
        overhead_ratio=traced.replay_s / untraced.replay_s,
        failed_decision_share=traced.failed_decisions / len(traced.plan_times),
        row_stats=traced.row_stats,
    )
    TRACE_DIR.mkdir(exist_ok=True)
    # One file per workload, overwritten by its next traced run: a trace
    # holds every span of a replay (20-60 MB).
    path = TRACE_DIR / f"{name}.json"
    trace.tracer.write(os.fspath(path))
    print(f"# {name} seed={seed}: traced replay {traced.replay_s:.3f} s, untraced {untraced.replay_s:.3f} s")
    for metric, unit in UNITS.items():
        share = ""
        if unit == "s" and not metric.startswith(("datasets.", "demand.")):
            share = f"  ({values[metric] / traced.replay_s:6.1%} of replay)"
        print(f"{name}  {metric:<34} {values[metric]:>14.6f} {unit}{share}")
    print(f"# trace written to {path.relative_to(ROOT)}")
    return problems, values, UNITS, counted([traced]), failed([traced])


def run_all(args) -> int:
    """Run every workload in its own process; merge their results."""
    from workloads import NAMES

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, os.fspath(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no source tree at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # The search executor runs serially: no pool, whatever the environment.
    for var in ("REPRO_EXECUTOR", "REPRO_MAX_WORKERS"):
        os.environ.pop(var, None)
    sys.path.insert(0, os.fspath(SRC))
    from workloads import NAMES, CheckFailed

    if args.workload is None:
        return run_all(args)
    if args.workload not in NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {NAMES}")
    try:
        if args.trace:
            problems, values, units, attempted, failures = run_traced(
                args.workload, args.seed
            )
        else:
            problems, values, units, attempted, failures = run_untraced(
                args.workload, args.seed, args.seconds
            )
    except CheckFailed as exc:
        problems, values, units, attempted, failures = [str(exc)], {}, {}, 0, 0
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failures,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
