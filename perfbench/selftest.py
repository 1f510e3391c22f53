"""Self-test of the benchmark itself, on a reduced-size pass of every workload.

    python3 perfbench/selftest.py

For each workload it checks that:
  - an untraced measurement emits every end-to-end metric of BENCHMARK.json
    with its unit, and reports verdict_fail_ratio;
  - a traced measurement emits every per-layer metric with its unit, and
    BENCHMARK.json declares exactly the metrics the tracer emits;
  - the exact counts agree between two traced measurements;
  - the self times of all spans sum to the traced wall time;
  - solver spans are zero on mc-isometry and non-zero on the other two.
Correctness checks are not required to pass: reduced sizes are not the
benchmark's sizes.  Exits 0 when every check passes, 1 otherwise.
"""

import json
import sys

from layers import per_layer_metrics
from run import ROOT, measure
from workloads import DEFAULT_SEED, WORKLOADS

EXACT = ("lattice.transform.calls", "lattice.transform.points", "noise.slices",
         "solver.picard.iterations")
SOLVER = ("solver.sweep.calls", "solver.picard.calls", "solver.sweep.self_s",
          "solver.picard.self_s")


def _emitted(result: dict) -> list:
    return [(name, m["unit"]) for name, m in result["metrics"].items()]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    problems = []
    if per_layer != per_layer_metrics():
        problems.append("BENCHMARK.json per_layer differs from layers.per_layer_metrics()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in WORKLOADS:
        plain, details = measure(name, DEFAULT_SEED, 0.0, trace=False, reduced=True)
        if sorted(_emitted(plain)) != sorted(end_to_end):
            problems.append(f"{name}: end-to-end metrics {_emitted(plain)}")
        if "verdict_fail_ratio" not in details or plain["attempted"] < 1:
            problems.append(f"{name}: no verdict_fail_ratio or no checks")

        traced = [measure(name, DEFAULT_SEED, 0.0, trace=True, reduced=True) for _ in range(2)]
        for result, _ in traced:
            if _emitted(result) != per_layer:
                problems.append(f"{name}: per-layer metrics {_emitted(result)}")
        values = [{k: m["value"] for k, m in result["metrics"].items()} for result, _ in traced]
        for key in EXACT:
            if values[0].get(key) != values[1].get(key):
                problems.append(f"{name}: {key} differs: {values[0].get(key)} vs {values[1].get(key)}")
        run = traced[0][1]["trace"]
        self_sum = sum(run["self_s"].values())
        if abs(self_sum - run["root_s"]) > 1e-6:
            problems.append(f"{name}: self times sum to {self_sum}, traced wall {run['root_s']}")
        solver = [values[0][key] for key in SOLVER]
        if name == "mc-isometry" and any(solver):
            problems.append(f"{name}: solver spans present: {solver}")
        if name != "mc-isometry" and not values[0]["solver.sweep.calls"]:
            problems.append(f"{name}: no solver spans")
        print(f"{name}: {len(per_layer)} per-layer metrics, {run['spans']} spans, "
              f"self-time sum {self_sum:.6f} s vs traced wall {run['root_s']:.6f} s")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
