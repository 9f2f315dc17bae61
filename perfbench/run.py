"""Run one detcodes benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spectrum_fullspace --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The process runs the workload's job list in passes until
``--seconds`` have elapsed (at least three passes), clearing every
package cache before each job so each pays what a fresh CLI process
pays after import.  The seed only shuffles the job order of each pass.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it repeats an untraced, a timing and a memory pass and reports the
per-layer metrics.  The second-to-last stdout line is the run record (the
environment, every pass and every failure); the last line is the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import isolation
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 1  # an untraced, a timing and a memory pass
# Set-up probes run between passes, so that they sample the machine over
# the whole run rather than in its first second.
SETUP_PROBES_PER_PASS = 2
PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import detcodes.cli\n"
    "detcodes.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def setup_seconds() -> float:
    """Import detcodes and build the CLI parser in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def environment(kernels) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_route": "numba" if getattr(kernels, "USE_NUMBA", False) else "numpy",
    }


class Runner:
    """Runs passes over one workload's jobs in this process."""

    def __init__(self, package, jobs, seed):
        self.package = package
        self.jobs = jobs
        self.rng = random.Random(seed)
        self.modules = isolation.package_modules(package)
        self.caches = isolation.find_caches(self.modules)
        self.passes: list[dict] = []
        self.attempted = 0
        self.failures: list[dict] = []

    def one_pass(self, tracer=None) -> None:
        order = self.jobs[:]
        self.rng.shuffle(order)
        wall = cpu = 0.0
        times = {}
        for job in order:
            isolation.reset(self.caches, self.modules)
            gc.collect()
            if tracer is not None:
                tracer.job, tracer.on = job.name, True
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result, error = job.run(), None
            except Exception as exc:  # a failed job is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            dw, dc = time.perf_counter() - w0, time.process_time() - c0
            if tracer is not None:
                tracer.on = False
            if error is None:
                error = job.check(result)
            wall, cpu = wall + dw, cpu + dc
            times[job.name] = dw
            self.attempted += 1
            if error is not None:
                self.failures.append({"job": job.name, "error": error})
        kind = "off" if tracer is None else "memory" if tracer.memory else "timing"
        self.passes.append({"wall_s": wall, "cpu_s": cpu, "traced": kind, "jobs": times})

    def traced_pass(self, memory: bool) -> list:
        """One pass under a fresh tracer; returns its spans."""
        tr = tracing.Tracer(self.package, memory=memory)
        tr.install(self.modules, holders=[self.caches])
        try:
            self.one_pass(tr)
        finally:
            tr.uninstall()
        return tr.spans


def run(args) -> tuple[dict, dict]:
    """Returns (run record, metric values)."""
    import detcodes
    from workloads import SEED_COUNTS, WORKLOADS

    runner = Runner(detcodes, WORKLOADS[args.workload](), args.seed)
    passes = runner.passes
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(detcodes._kernels),
        "caches": sorted(runner.caches), "passes": passes,
    }
    start = time.perf_counter()

    def time_left(min_rounds, per_round):
        """True while fewer than ``min_rounds`` ran, or another should fit."""
        done = len(passes) // per_round
        if done < min_rounds:
            return True
        elapsed = time.perf_counter() - start
        return elapsed + elapsed / done <= args.seconds

    if not args.trace:
        setup = record["setup_samples"] = []
        while time_left(MIN_PASSES, 1):
            setup += [setup_seconds() for _ in range(SETUP_PROBES_PER_PASS)]
            runner.one_pass()
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": 1 - len(runner.failures) / runner.attempted,
        }
    else:
        per_pass = []
        while time_left(MIN_TRACED_ROUNDS, 3):
            runner.one_pass()
            timing = runner.traced_pass(memory=False)
            memory = runner.traced_pass(memory=True)
            per_pass.append(tracing.pass_metrics(timing) | tracing.memory_metrics(memory))
        values = tracing.median_metrics(per_pass)
        wall = {
            kind: statistics.median(p["wall_s"] for p in passes if p["traced"] == kind)
            for kind in ("off", "timing")
        }
        values["trace.overhead_ratio"] = wall["timing"] / wall["off"]
        record["selfcheck"] = {
            name: {"seed": want, "traced": values[name]}
            for name, want in SEED_COUNTS.get(args.workload, {}).items()
        }
        for name, c in record["selfcheck"].items():
            if c["seed"] != c["traced"]:
                print(f"perfbench: {name} = {c['traced']} per pass, {c['seed']} at the seed",
                      file=sys.stderr)
    record["attempted"] = runner.attempted
    record["failures"] = runner.failures
    return record, values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "detcodes" / "__init__.py").is_file():
        print(f"perfbench: no detcodes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record, values = run(args)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
