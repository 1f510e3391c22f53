"""stochwave benchmark: time the workloads of ``workloads.py`` and check their outputs.

    python3 perfbench/run.py --workload {mc-isometry,picard-solve,sweep-ensemble,all}
        [--seed 20260810] [--seconds 40] [--trace 0|1]

``all`` measures the three workloads in turn, each printing its own block.

Every process is a fresh ``worker.py``, started one at a time with one BLAS
thread, so at most one computes while this process waits.  The seed is the
master seed of every input.

``--trace 0`` starts ``SETUP_PROBES`` set-up-only processes and then one
that repeats the workload's pass for the rest of ``--seconds``.  It reports
medians over passes of ``wall_s`` (the wall time of one pass) and ``cpu_s``
(its process CPU time), the measuring process's ``peak_rss_mb``, and the
median ``setup_s`` over every process started (interpreter start until
stochwave, numpy and scipy are imported and the inputs are built).  Times
are scaled to a reference host speed measured by ``calibration.py`` in the
same process; the unscaled medians are printed beside them.
``--trace 1`` makes one untraced and one traced pass in one process and
reports the per-layer metrics of ``layers.py`` from the traced one, plus
its overhead.

Correctness: every check of every unit must pass (see ``workloads.py``).
``verdict_fail_ratio`` is failed checks over checks made; it is printed,
and it equals ``failed / attempted`` in the JSON object on the last stdout
line.  The exit code is 0 when that object is printed, whether or not the
run was correct, and 1 when no result could be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import speed as host_speed
from layers import per_layer_metrics
from workloads import DEFAULT_SEED, SWEEP_ROWS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
HARD_LIMIT_S = 170.0  # every run ends well inside the 180 s a caller allows
SETUP_PROBES = 4
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts workers one at a time and keeps every run inside the hard limit."""

    def __init__(self, workload: str, seed: int, reduced: bool = False):
        self.workload = workload
        self.seed = seed
        self.reduced = reduced
        self.started = _now()
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def elapsed(self) -> float:
        return _now() - self.started

    def spawn(self, setup_only: bool = False, trace_path: Path | None = None,
              seconds: float = 0.0) -> dict | None:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", repr(seconds)]
        if setup_only:
            cmd.append("--setup-only")
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        if self.reduced:
            cmd.append("--reduced")
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        t0 = _now()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"worker printed no result: {proc.stdout[-200:]!r}", file=sys.stderr)
            return None
        result["duration_s"] = _now() - t0
        return result


def _check_tree() -> None:
    missing = [p for p in [ROOT / "src" / "stochwave" / "harness.py"]
               + [ROOT / "configs" / f"{e}.ini" for e in SWEEP_ROWS]
               if not p.is_file()]
    if missing:
        raise SystemExit(f"error: not a stochwave checkout, missing {missing[0]}")


def _llc_bytes() -> int | None:
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level >= best[0]:
            best = (level, value)
    return None if best is None else best[1]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(workload, versions: dict) -> dict:
    llc = _llc_bytes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **versions,
        "workload": workload.name,
        "sizes_d_N_steps_replicas": workload.sizes,
        "largest_array_bytes": workload.largest_array_bytes,
        "llc_bytes": llc,
        # below 1 the working set stays in cache, so no bandwidth claims are made
        "largest_array_over_llc": None if not llc else workload.largest_array_bytes / llc,
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            reduced: bool = False) -> tuple[dict, dict]:
    """Run one benchmark measurement; returns (result object, details)."""
    _check_tree()
    workload = WORKLOADS[workload_name]
    runner = Runner(workload_name, seed, reduced)
    details: dict = {}
    if trace:
        trace_path = OUT / f"trace-{workload_name}.csv"
        workers = [runner.spawn(trace_path=trace_path)]
        details["trace_path"] = str(trace_path)
    else:
        workers = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
        budget = min(seconds, HARD_LIMIT_S - 60.0) - runner.elapsed()
        workers.append(runner.spawn(seconds=max(budget, 0.0)))
    last = workers[-1]
    ok = all(w is not None for w in workers)
    attempted = max(last["checks"], 1) if last else 1
    failed = last["failed"] if last else attempted
    correct = ok and failed == 0 and last["checks"] > 0
    details.update(failing=last["failing"] if last else [],
                   env=environment(workload, last["versions"]) if last else None,
                   verdict_fail_ratio=failed / attempted)

    metrics = {}
    if ok and trace:
        run = last["trace"]
        values = {f"{g}.self_s": v for g, v in run["self_s"].items()}
        values.update({f"{g}.calls": v for g, v in run["calls"].items()})
        values.update(run["counts"])
        values["trace_overhead_s"] = run["traced_wall_s"] - run["plain_wall_s"]
        details["trace"] = run
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in per_layer_metrics()}
    elif ok:
        # seconds at the reference speed; see calibration.py
        passes = last["passes"]
        speed = host_speed([c for p in passes for u in p["units"] for c in u[2]])
        walls = [sum(u[0] for u in p["units"]) for p in passes]
        samples = {
            "wall_s": [w * speed for w in walls],
            "cpu_s": [sum(u[1] for u in p["units"]) * speed for p in passes],
            "peak_rss_mb": [last["peak_rss_mb"]],
            "setup_s": [w["setup_s"] * host_speed(w["setup_cal_s"]) for w in workers],
        }
        details.update(samples=samples, speed=speed,
                       raw_wall_s=statistics.median(walls),
                       raw_setup_s=statistics.median(w["setup_s"] for w in workers))
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END}
    return ({"correct": correct and bool(metrics), "attempted": attempted, "failed": failed,
             "metrics": metrics}, details)


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and print its metrics, the JSON object last."""
    result, details = measure(workload, seed, seconds, trace)
    print("environment " + json.dumps(details["env"]))
    for name, samples in details.get("samples", {}).items():
        print(f"{name} {statistics.median(samples):.6g} {result['metrics'][name]['unit']} "
              f"(median of {len(samples)}; min {min(samples):.6g}, max {max(samples):.6g})")
    if "speed" in details:
        print(f"host speed {details['speed']:.4g} x reference; unscaled medians: "
              f"wall {details['raw_wall_s']:.6g} s, setup {details['raw_setup_s']:.6g} s")
    if "trace_path" in details:
        print(f"spans written to {details['trace_path']}")
    print(f"verdict_fail_ratio {details['verdict_fail_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} checks failed)")
    for name in details["failing"]:
        print(f"failing: {name}")
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [report(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(r["metrics"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
