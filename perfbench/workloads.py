"""The benchmark's three workloads: a fixed pass of units that call stochwave.

A pass is one closed loop over a workload's units, one after another in one
process; a run repeats the pass.  Each unit calls stochwave's public API
through its module (``stochint.isometry_functional``, ``harness.run``), so
the tracer's wrappers see every call, and returns its correctness checks as
``(name, ok)`` pairs.

Inputs come from the seed alone: it is the master seed of every random
stream (``harness.replica_generator``) and of the configs that go through
``harness.run``.  Every pass of a run repeats the same inputs.

Correctness checks are properties a correct program meets on every seed:
- ``mc-isometry``: the quadrature identities (alternative form within 1e-8,
  bound not below the functional, equality for white noise), as the
  ``isometry`` experiment checks them, and the Monte Carlo moment within
  5 standard errors of the exact functional;
- ``picard-solve``: the Picard fixed point converges from both initial
  guesses and agrees with the explicit sweep within 1e-10, as the
  ``picard`` experiment's fixed-point rows check it;
- ``sweep-ensemble``: every verdict row of the six experiments passes and
  each experiment gives its acceptance row count.

Why each workload was chosen is recorded in BENCHMARK.json; the layer map
is in ``layers.py``.  ``reduced`` shrinks every size for the self-test,
which checks the plumbing, not the verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20260810
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Unit:
    label: str
    run: object  # () -> list of (check name, ok)


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (seed, out_dir, reduced) -> list of Unit, built during set-up
    sizes: dict  # part -> (d, N, steps, replicas per pass)
    largest_array_bytes: int  # computed from the sizes: the biggest live ndarray


# ---------------------------------------------------------------------------
# mc-isometry: the isometry experiment's six cases, at fewer replicas a pass
# ---------------------------------------------------------------------------

ISOMETRY_CASES = (  # (case, measure, alpha, d, k), as the isometry experiment runs them
    ("white-d1-k1", "white", None, 1, 1),
    ("white-d1-k2", "white", None, 1, 2),
    ("white-d2-k2", "white", None, 2, 2),
    ("riesz0.5-d1-k1", "riesz", 0.5, 1, 1),
    ("riesz1.0-d2-k1", "riesz", 1.0, 2, 1),
    ("riesz1.5-d2-k2", "riesz", 1.5, 2, 2),
)
ISOMETRY_N, ISOMETRY_STEPS, ISOMETRY_REPLICAS = 64, 8, 200
MC_SIGMAS = 5.0


def _isometry_units(seed, out_dir, reduced):
    import numpy as np
    from stochwave import covariance, greens, harness, lattice, stochint

    n, replicas = (16, 8) if reduced else (ISOMETRY_N, ISOMETRY_REPLICAS)
    horizon = 0.5
    dt = horizon / ISOMETRY_STEPS
    units = []
    for case_index, (case, kind, alpha, d, k) in enumerate(ISOMETRY_CASES):
        grid = lattice.Grid(d, n, 16.0)
        measure = (covariance.SpectralMeasure.white(d) if kind == "white"
                   else covariance.SpectralMeasure.riesz(d, alpha))
        g = greens.GreenMultiplier(k, horizon)
        Z = stochint.IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq),
                                               ISOMETRY_STEPS, dt)

        def run(case_index=case_index, kind=kind, g=g, Z=Z, measure=measure):
            ival = stochint.isometry_functional(g, Z, measure)
            ialt = stochint.isometry_alternative(g, Z, measure)
            itil = stochint.isometry_bound(g, Z, measure)
            rngs = [harness.replica_generator(seed, "isometry", case_index, r)
                    for r in range(replicas)]
            mc, se = stochint.convolution_moment_mc(g, Z, measure, replicas, rngs)
            checks = [
                ("alternative_rel_err", abs(ialt - ival) / ival <= 1e-8),
                ("bound_excess", itil - ival >= -1e-12 * max(ival, 1.0)),
                ("mc_within_5se", abs(mc - ival) <= MC_SIGMAS * se),
            ]
            if kind == "white":
                checks.append(("white_equality_rel", abs(itil - ival) / ival <= 1e-12))
            return checks

        units.append(Unit(case, run))
    return units


# ---------------------------------------------------------------------------
# picard-solve: the picard experiment's fixed-point solve, on several paths
# ---------------------------------------------------------------------------

PICARD_N, PICARD_STEPS, PICARD_PATHS = 128, 128, 8


def _picard_units(seed, out_dir, reduced):
    import numpy as np
    from stochwave import covariance, harness, lattice, noise, solver

    n, steps, paths = (32, 32, 2) if reduced else (PICARD_N, PICARD_STEPS, PICARD_PATHS)
    grid = lattice.Grid(1, n, 16.0)
    x = grid.axis_coords
    # the picard experiment's defaults: white noise, sine, a wavepacket at rest
    cfg = solver.SolveConfig(
        grid=grid, measure=covariance.SpectralMeasure.white(1), k=1, horizon=1.0,
        dt=1.0 / steps, nonlinearity=solver.Nonlinearity.sine(),
        v0=lattice.LatticeField(grid, np.exp(-x**2 / 4.0) * np.cos(2.0 * x)),
        picard_tol=1e-13, snapshot_stride=1,
    )

    def gap(a, b):
        return max(lattice.l2_norm(a.snapshot_at(j) - b.snapshot_at(j)) for j in a.snapshots)

    def run(r):
        path = noise.sample_path(grid, cfg.measure, cfg.horizon, cfg.dt,
                                 harness.replica_generator(seed, "picard", 0, r))
        sweep = solver.explicit_sweep(cfg, path)
        pic = solver.picard_iterate(cfg, path)
        pic0 = solver.picard_iterate(cfg, path, initial="zero")
        return [
            ("converged", pic.converged and pic0.converged),
            ("sweep_vs_picard_sup", gap(sweep, pic) <= 1e-10),
            ("two_guess_gap", gap(pic0, pic) <= 1e-10),
        ]

    return [Unit(f"path{r}", lambda r=r: run(r)) for r in range(paths)]


# ---------------------------------------------------------------------------
# sweep-ensemble: six shipped configs through harness.run
# ---------------------------------------------------------------------------

SWEEP_ROWS = {"weighted": 9, "refinement": 5, "admissibility": 40,
              "mollifier-ladder": 14, "energy": 2, "support": 2}

# Overrides (section -> key -> value) for the self-test's reduced pass.
SWEEP_REDUCED = {
    "weighted": {"experiment": {"replicas": "24", "envelope_replicas": "30",
                                "equivalence_fields": "4"},
                 "grid": {"n": "64"}, "solver": {"dt": "0.0625"}},
    "refinement": {"experiment": {"replicas": "4"}, "grid": {"n": "16"}},
    "admissibility": {},
    "mollifier-ladder": {"grid": {"n": "128"}},
    "energy": {"grid": {"n": "32"}, "solver": {"steps": "32"}},
    "support": {"grid": {"n": "128"}},
}


def _sweep_units(seed, out_dir, reduced):
    from stochwave import harness

    units = []
    for experiment, rows in SWEEP_ROWS.items():
        cfg = harness.parse_config_file(ROOT / "configs" / f"{experiment}.ini")
        raw = {section: dict(kv) for section, kv in cfg.raw.items()}
        for section, kv in (SWEEP_REDUCED[experiment] if reduced else {}).items():
            raw.setdefault(section, {}).update(kv)
        raw["experiment"].update(seed=str(seed), threads="1",
                                 output=str(Path(out_dir) / experiment))
        cfg = harness.parse_config(harness.serialize_config(harness.ExperimentConfig(raw)))

        def run(cfg=cfg, rows=rows):
            table = harness.run(cfg)
            checks = [(f"{r.case}/{r.quantity}", bool(r.verdict)) for r in table.rows]
            return checks + [("row_count", len(table.rows) == rows)]

        units.append(Unit(experiment, run))
    return units


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc-isometry",
            build=_isometry_units,
            sizes={"isometry": ("1,2", ISOMETRY_N, ISOMETRY_STEPS,
                                f"6 cases x {ISOMETRY_REPLICAS}")},
            # one replica chunk of 256 complex d = 2 fields on 64**2 points
            largest_array_bytes=256 * ISOMETRY_N**2 * 16,
        ),
        Workload(
            name="picard-solve",
            build=_picard_units,
            sizes={"picard": (1, PICARD_N, PICARD_STEPS,
                              f"{PICARD_PATHS} paths x (1 sweep + 2 Picard solves)")},
            # one solve's trajectory: steps + 1 complex fields of N points
            largest_array_bytes=(PICARD_STEPS + 1) * PICARD_N * 16,
        ),
        Workload(
            name="sweep-ensemble",
            build=_sweep_units,
            sizes={
                "weighted": (1, 256, "8 (MC) / 64 (solve)", "1000 MC + 100 solves + 50 fields"),
                "refinement": (1, 64, "9/17/33/65", "4 levels x 100"),
                "admissibility": ("1-4", None, None, "40 quadratures"),
                "mollifier-ladder": (1, 512, 4, "5 scales x 2 ladders"),
                "energy": (1, 128, 256, "k = 1, 2"),
                "support": (1, 512, 32, 1),
            },
            # one weighted-MC chunk of 256 complex fields on 256 points
            largest_array_bytes=256 * 256 * 16,
        ),
    )
}
