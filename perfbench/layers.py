"""Layer map of the traced run: what each per-layer metric wraps and predicts.

A layer is one stochwave module.  Each entry names the public functions and
methods whose calls form the layer's spans, the end-to-end metric a change
to that layer should move, and the workload where it shows.  A later change
cites this table to name the workload that exercises its mechanism and the
one that bypasses it (where the prediction is no change).

Targets are ``module:function`` or ``module:Class.method`` inside the
``stochwave`` package.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import SWEEP_ROWS


@dataclass(frozen=True)
class Layer:
    group: str
    targets: tuple
    emit: tuple  # which of "calls", "self_s" are per-layer metrics
    moves: str
    workloads: str


LAYERS = (
    Layer("lattice.transform", ("lattice:Grid.forward", "lattice:Grid.inverse"),
          ("calls", "self_s"), "wall_s",
          "mc-isometry (bulk points), picard-solve (per-call overhead)"),
    Layer("noise.sample",
          ("noise:sample_slice", "noise:sample_slice_batch", "noise:sample_path"),
          ("calls", "self_s"), "wall_s", "mc-isometry; little on picard-solve"),
    Layer("greens.multiplier",
          ("greens:GreenMultiplier.lattice_spectrum", "greens:GreenMultiplier.lattice_dt_spectrum",
           "greens:cosine_multiplier"),
          ("calls", "self_s"), "wall_s", "picard-solve (n multipliers a solve)"),
    Layer("greens.j_field", ("greens:j_field", "greens:j_functional"),
          ("calls", "self_s"), "wall_s", "mc-isometry, sweep-ensemble"),
    Layer("covariance.lattice_weights", ("covariance:SpectralMeasure.lattice_weights",),
          ("calls", "self_s"), "wall_s", "mc-isometry, sweep-ensemble"),
    Layer("covariance.admissibility", ("covariance:admissibility_integral",),
          ("self_s",), "wall_s", "sweep-ensemble"),
    Layer("stochint.mc", ("stochint:convolution_moment_mc",),
          ("self_s",), "wall_s", "mc-isometry; none on picard-solve"),
    Layer("stochint.alternative", ("stochint:isometry_alternative",),
          ("self_s",), "wall_s", "mc-isometry"),
    Layer("stochint.quadrature",
          ("stochint:isometry_functional", "stochint:isometry_bound",
           "stochint:ladder_distance", "stochint:truncation_distance"),
          ("self_s",), "wall_s", "mc-isometry, sweep-ensemble"),
    Layer("solver.sweep", ("solver:explicit_sweep",),
          ("calls", "self_s"), "wall_s, peak_rss_mb",
          "picard-solve, sweep-ensemble; zero on mc-isometry"),
    Layer("solver.picard", ("solver:picard_iterate",),
          ("calls", "self_s"), "wall_s, peak_rss_mb", "picard-solve"),
    Layer("solver.deterministic",
          ("solver:deterministic_part", "solver:energy_trajectory", "solver:moment_track"),
          ("self_s",), "wall_s", "sweep-ensemble"),
    Layer("weighted.mc", ("weighted:weighted_isometry_bound",),
          ("self_s",), "wall_s", "sweep-ensemble only"),
    Layer("weighted.solve", ("weighted:weighted_wave_solve",),
          ("self_s",), "wall_s", "sweep-ensemble only"),
    Layer("weighted.shells", ("weighted:annuli_norms", "weighted:equivalence_constants"),
          ("self_s",), "wall_s", "sweep-ensemble only"),
    Layer("harness.run", ("harness:run",),
          ("self_s",), "wall_s", "sweep-ensemble: experiment code outside the layers above"),
    Layer("harness.seeding", ("harness:replica_generator",),
          ("calls", "self_s"), "wall_s", "mc-isometry (6 x 200 generators a pass)"),
    Layer("harness.csv", ("harness:ResultTable.to_csv", "harness:solve_report_csv"),
          ("self_s",), "wall_s", "sweep-ensemble (small)"),
)

# the experiments that go through harness.run, each with its own time
EXPERIMENTS = tuple(SWEEP_ROWS)

# Counts the tracer derives from arguments and return values.  "points" and
# "slices" are computed from array shapes, not measured, and their units say so.
COUNTS = (
    ("lattice.transform.points", "points-computed",
     "wall_s; mc-isometry (bulk), must not move unless the transform layout changes"),
    ("noise.slices", "slices-computed", "wall_s; mc-isometry"),
    ("solver.picard.iterations", "count",
     "must not move on picard-solve: a propagator that changes it changed the maths"),
)


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric the traced run emits, in order."""
    out = []
    for layer in LAYERS:
        for kind in layer.emit:
            out.append((f"{layer.group}.{kind}", "count" if kind == "calls" else "s"))
    out.extend((name, unit) for name, unit, _ in COUNTS)
    out.extend((f"harness.run.{exp}_s", "s") for exp in EXPERIMENTS)
    out.append(("trace_overhead_s", "s"))
    return out
