"""Runs of the workloads: untraced for end-to-end metrics, traced for
per-layer metrics."""

from __future__ import annotations

import glob
import os
import resource
import statistics
import subprocess
import sys
import threading
from itertools import islice
from pathlib import Path

import spans
import workloads
from stopwatch import Stopwatch

# name -> (unit, better)
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "item_p50_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
SETUP_REPEATS = 11
# rounds of a traced run: one cycle of every kind of input, so the counts
# repeat exactly for a seed and the run stays well inside its time limit
TRACE_ROUNDS = {"sweep": 3, "sweep-pool": 3, "trajectory": 2, "portrait": 4}
# per-layer metrics measured by the traced run itself, not from spans
TRACE_EXTRAS = ("pool.overhead_s", "pool.efficiency", "cli.rows_out",
                "cli.bytes_out", "trace.overhead_frac")


def setup_seconds(src: Path) -> float:
    """Median time of a fresh interpreter importing the package and CLI."""
    cmd = [sys.executable, "-c", "import trivortex, trivortex.cli"]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(cmd, env=env, check=True)  # writes bytecode caches
    with Stopwatch() as watch:
        for _ in range(SETUP_REPEATS):
            watch.time(subprocess.run, cmd, env=env, check=True)
    return statistics.median(watch.corrected())


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # the child has exited
        pass
    return 0


class ChildPeakRss(threading.Thread):
    """Largest sum of child peak RSS seen while running, sampled from /proc."""

    def __init__(self, period: float = 0.05) -> None:
        super().__init__(daemon=True)
        self.period = period
        self.peak_kb = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.period):
            pids = set()
            for path in glob.glob("/proc/self/task/*/children"):
                with open(path) as f:
                    pids.update(f.read().split())
            self.peak_kb = max(self.peak_kb, sum(_vm_hwm_kb(p) for p in pids))

    def __enter__(self) -> "ChildPeakRss":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop_event.set()
        self.join()


def run_rounds(workload, rounds, seconds=None, tracer=None):
    """Run whole rounds: all of ``rounds``, or, when ``seconds`` is given,
    whole cycles of ``workload.cycle`` rounds until the items have taken
    ``seconds`` of wall time.  ``tracer`` records the timed calls.
    Returns (items, corrected item time, stopwatch)."""
    done, items, cycle = 0, [], workload.cycle
    with Stopwatch(workload.kernel, tracer) as watch:
        for rnd in rounds:
            if seconds is not None and done % cycle == 0 and sum(watch.raw) >= seconds:
                break
            items += workload.run(rnd, watch)
            done += 1
    corrected = watch.corrected()
    for item in items:
        item.latency = corrected[item.record]
    return items, sum(corrected), watch


def untraced(name: str, seed: int, seconds: float, jobs: int):
    """End-to-end metrics (but ``setup_s``), items, problems, printed facts."""
    workload = workloads.make(name, jobs)
    with ChildPeakRss() as children:
        items, busy, watch = run_rounds(workload, workload.rounds(seed), seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children.peak_kb
    metrics = {
        "items_per_s": len(items) / busy,
        "item_p50_s": statistics.median(i.latency for i in items),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    info = {
        "wall.items_per_s": len(items) / sum(watch.raw),
        "wall.item_p50_s": statistics.median(watch.raw[i.record] for i in items),
        "host_speed": watch.host_speed(),
    }
    if len(items) >= 100:
        info["item_p90_s"] = statistics.quantiles(
            [i.latency for i in items], n=10)[-1]
    return metrics, items, [], info


def _same_outputs(a, b, what: str) -> list[str]:
    if [i.digest for i in a] != [i.digest for i in b]:
        return [f"{what} differ"]
    return []


def traced(name: str, seed: int, jobs: int):
    """Untraced then traced pass over the same rounds: per-layer metrics,
    items, problems, printed facts."""
    workload = workloads.make(name, jobs)
    rounds = list(islice(workload.rounds(seed), TRACE_ROUNDS[name]))
    layer = {"pool.overhead_s": 0.0, "pool.efficiency": 0.0}
    problems = []
    if name == "sweep-pool":
        # pool against serial in wall time: the corrected pool time carries
        # the workers' own share of CPU, which would bias the ratio
        pool_items, _, pool_watch = run_rounds(workload, rounds)
        workload = workloads.make(name, 1)
        items, busy, serial_watch = run_rounds(workload, rounds)
        problems += _same_outputs(pool_items, items, "pool and serial rows")
        layer["pool.efficiency"] = sum(serial_watch.raw) / (jobs * sum(pool_watch.raw))
        layer["pool.overhead_s"] = pool_overhead(rounds[0], jobs)
    else:
        items, busy, _ = run_rounds(workload, rounds)
    with spans.Tracer() as tracer:
        traced_items, traced_busy, _ = run_rounds(workload, rounds, tracer=tracer)
    problems += _same_outputs(items, traced_items, "traced and untraced outputs")
    problems += spans.assertions(name, tracer)
    layer.update(spans.layer_metrics(tracer.spans))
    layer["cli.rows_out"] = sum(i.rows_out for i in traced_items)
    layer["cli.bytes_out"] = sum(i.bytes_out for i in traced_items)
    layer["trace.overhead_frac"] = traced_busy / busy - 1.0
    return layer, items, problems, {}


def pool_overhead(rnd, jobs: int, repeats: int = 3) -> float:
    """Median wall time of (one-row pool sweep) - (the same row serially)."""
    from trivortex import scattering

    gamma, rhos = rnd
    with Stopwatch("numpy") as watch:
        for _ in range(repeats):
            watch.time(scattering.sweep, rhos[:1], gamma, jobs=jobs)
            watch.time(scattering.sweep, rhos[:1], gamma, jobs=1)
    t = watch.raw
    return statistics.median(t[i] - t[i + 1] for i in range(0, len(t), 2))


def oracle_summary(items) -> dict:
    """The deterministic end-to-end figures, printed beside the metrics."""
    figures = {}
    for item in items:
        for k, v in item.figures.items():
            figures[k] = max(figures.get(k, 0.0), v)
    out = {"failed_frac": sum(i.failed for i in items) / len(items)}
    if "drift" in figures:
        out["max_drift"] = figures.pop("drift")
    if figures:
        out["max_err"] = max(figures.values())
    out.update({f"err.{k}": v for k, v in sorted(figures.items())})
    return out
