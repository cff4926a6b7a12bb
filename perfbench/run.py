"""trivortex benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from the repository root; the package is imported from ``src/``.  An
untraced run (``--trace 0``) runs whole cycles of the workload's rounds
until the items have taken ``--seconds`` of wall time and reports the
end-to-end metrics.  A traced run (``--trace 1``) runs one fixed cycle twice,
untraced and then traced, and reports the per-layer metrics, so its
counts repeat exactly for a seed.  ``--workload all`` runs every workload in turn.  The last
stdout line of a run is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give run facts and every
figure with its unit.  The exit code is 0 when every oracle and trace
check passed, 1 when one failed, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("sweep", "sweep-pool", "trajectory", "portrait")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def facts() -> dict:
    """Facts of the machine and the code under test; not metrics."""
    import numpy

    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src_lines = 0
    for path in sorted(SRC.glob("trivortex/*.py")):
        with open(path) as f:
            src_lines += sum(1 for _ in f)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "src_lines": src_lines,
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import measure
    import spans

    jobs = min(len(os.sched_getaffinity(0)), 8)
    print("facts", json.dumps(facts(), sort_keys=True))
    if args.trace:
        metrics, items, problems, info = measure.traced(args.workload, args.seed, jobs)
        units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
    else:
        metrics, items, problems, info = measure.untraced(
            args.workload, args.seed, args.seconds, jobs)
        metrics["setup_s"] = measure.setup_seconds(SRC)
        units = {k: u for k, (u, _) in measure.END_TO_END.items()}
    for item in items:
        problems += item.problems
    info.update(measure.oracle_summary(items))
    info["items"] = len(items)
    for k, v in info.items():
        print(f"{args.workload:<11} {k:<40} {v:.6g}")
    for k, unit in units.items():
        print(f"{args.workload:<11} {k:<40} {metrics[k]:.6g} {unit}")
    for p in problems:
        print(f"{args.workload:<11} FAILED {p}")
    result = {
        "correct": not problems,
        "attempted": len(items),
        "failed": sum(i.failed for i in items),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "trivortex" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no trivortex package under {SRC}\n")
        return 2
    if args.workload != "all":
        return run_one(args)
    worst = 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
