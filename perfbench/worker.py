"""One benchmark process: set up a workload, repeat its pass, report.

Started by ``run.py``, one process at a time:

    python3 perfbench/worker.py --workload NAME --seed S --t0 T --seconds X
        [--setup-only] [--trace SPANS.csv] [--reduced]

``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so ``setup_s`` covers interpreter start, the numpy, scipy and
stochwave imports, parsing the configs and building the workload's inputs.

Untraced, the process repeats the workload's pass until the next one would
end after ``--seconds`` (at least ``MIN_PASSES`` passes), while the
calibration sampler of ``calibration.py`` measures the host's speed; the
pass times leave out the sampler's own time.  Traced, it makes one untraced pass
and then one traced pass.  The last stdout line is one JSON object.  Result
CSVs go to a temporary directory under ``.perfbench_out/`` that is removed
before the process exits.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 3
SETUP_CAL_SAMPLES = 20


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _pass(units, sampler=None):
    """Run every unit once; returns (unit times, checks) without sampler time.

    A unit's times are [wall, cpu, calibration samples taken while it ran].
    """
    times, checks = [], []
    for unit in units:
        s_wall, s_cpu, first = ((sampler.wall_s, sampler.cpu_s, len(sampler.samples))
                                if sampler else (0.0, 0.0, 0))
        c0, w0 = time.process_time(), time.perf_counter()
        result = unit.run()
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        samples = []
        if sampler is not None:
            wall -= sampler.wall_s - s_wall
            cpu -= sampler.cpu_s - s_cpu
            samples = sampler.samples[first:]
        times.append([wall, cpu, samples])
        checks += [(f"{unit.label}:{name}", ok) for name, ok in result]
    return times, checks


def _measure(units, seconds):
    from calibration import Sampler

    deadline = time.perf_counter() + seconds
    passes, checks = [], []
    with Sampler() as sampler:
        while True:
            start = time.perf_counter()
            times, pass_checks = _pass(units, sampler)
            passes.append({"units": times, "duration_s": time.perf_counter() - start})
            checks += pass_checks
            longest = max(p["duration_s"] for p in passes)
            if len(passes) >= MIN_PASSES and time.perf_counter() + longest > deadline:
                return passes, checks


def _trace(workload, units, trace_path):
    from layers import LAYERS
    from tracer import Tracer

    plain, checks = _pass(units)
    tracer = Tracer(f"{workload.name}-{os.getpid()}-{time.time_ns()}")
    tracer.install(LAYERS)
    tracer.open(f"workload:{workload.name}")
    try:
        traced, traced_checks = _pass(units)
    finally:
        root = tracer.close("workload")
        tracer.uninstall()
    tracer.write(trace_path)
    return {"plain_wall_s": sum(t[0] for t in plain), "traced_wall_s": sum(t[0] for t in traced),
            "root_s": root,
            "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "counts": dict(tracer.counts), "spans": len(tracer.spans),
            "trace_id": tracer.trace_id}, checks + traced_checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--reduced", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import stochwave.harness  # noqa: F401  (the package's import cost belongs to set-up)
    from calibration import calibrate
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        units = workload.build(args.seed, tmp, args.reduced)
        setup_s = _now() - args.t0
        result = {"setup_s": setup_s,
                  "setup_cal_s": [calibrate() for _ in range(SETUP_CAL_SAMPLES)],
                  "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                               "scipy": scipy.__version__}}
        checks = []
        if args.trace is not None:
            result["trace"], checks = _trace(workload, units, args.trace)
        elif not args.setup_only:
            result["passes"], checks = _measure(units, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["checks"] = len(checks)
    result["failing"] = sorted({name for name, ok in checks if not ok})
    result["failed"] = sum(1 for _, ok in checks if not ok)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
