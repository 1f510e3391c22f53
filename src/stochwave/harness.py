"""Experiment harness: configuration, named experiments, statistics, CSV.

Every acceptance property of the package is runnable as a named
experiment.  A run is deterministic given the master seed: random
streams are counter-based (Philox), keyed by

    SeedSequence(master_seed, spawn_key=(experiment_index, case_index,
                                         replica_index)),

with the experiment index from the one registry ``EXPERIMENTS`` (name ->
spawn-key index, criterion, function); within one stream, noise slices
are drawn in time order.  Two runs of the same experiment at replica
offsets 0..a and a..b therefore draw exactly the replicas of one run
over 0..b, which is what makes result aggregation exact rather than
approximate.

Config files are INI-style (see ``parse_config``); ``_KEYS`` must declare
every key they set, and checks its value when they are parsed.  An experiment
checks the values that depend on each other before it builds anything, and it
hands its side files (trajectory CSV, field snapshot) to :func:`run`,
which writes them and the result CSV only once the experiment has
returned its rows: a refused config leaves no output directory.  Results
are CSV rows (experiment, case, quantity, value, std_error, replicas,
verdict) with '.' decimals and no locale dependence.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .covariance import SpectralMeasure, admissibility_integral
from .greens import GreenMultiplier
from .lattice import Grid, LatticeField, l2_norm, norm_sq, write_field
from .noise import mean_se, sample_path, whole_steps
from .solver import (
    MIN_TRACK_REPLICAS,
    MomentSummary,
    Nonlinearity,
    SolveConfig,
    check_envelope,
    energy_trajectory,
    explicit_sweep,
    moment_track,
    picard_iterate,
    picard_replicas,
    sweep_replicas,
)
from .stochint import (
    IntegrandProcess,
    convolution_moment_mc,
    isometry_alternative,
    isometry_bound,
    isometry_functional,
    ladder_distance,
    truncation_distance,
)
from .weighted import (
    Weight,
    annuli_norms,
    equivalence_constants,
    weighted_isometry_bound,
    weighted_moment_track,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "Row",
    "ResultTable",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "replica_generator",
    "run",
    "aggregate",
    "solve_report_csv",
]

DEFAULT_SEED = 20260810

# standard errors every Monte Carlo verdict allows (and the trajectory CSV's band)
_SE_MULTIPLIER = 3.0


def replica_generator(master_seed: int, experiment: str, case_index: int,
                      replica_index: int) -> np.random.Generator:
    """Counter-based stream for one (experiment, case, replica) triple."""
    ss = np.random.SeedSequence(
        master_seed, spawn_key=(EXPERIMENTS[experiment][0], case_index, replica_index)
    )
    return np.random.Generator(np.random.Philox(ss))


def _replica_generators(cfg: "ExperimentConfig", case_index: int, count: int) -> list:
    off = cfg.replica_offset
    return [replica_generator(cfg.seed, cfg.name, case_index, off + r) for r in range(count)]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


# Every key an experiment reads: section -> key -> (type, bound[, reason]).  An
# int must be >= its bound and a float > it (None: any finite number), unless the
# bound is the set of allowed values; a str's bound is its tuple of choices (None:
# any text).  A value out of bound fails with "[section] key: <reason>, got ...",
# the entry's reason or one the bound gives.  Defaults stay with the experiment
# that reads the key.
_KEYS = {
    "experiment": {"seed": (int, 0), "replicas": (int, 2),  # a standard error needs two
                   "replica_offset": (int, 0), "output": (str, None), "snapshots": (bool, None),
                   "ratio_replicas": (int, 1), "equivalence_fields": (int, 1),
                   "envelope_replicas": (int, MIN_TRACK_REPLICAS,
                                         f"moment tracking needs at least {MIN_TRACK_REPLICAS}"),
                   "base_time": (float, 0.0)},
    "grid": {"d": (int, {1, 2, 3}),
             "n": (int, {2**j for j in range(3, 63)}, "must be a power of two >= 8"),
             "length": (float, 0.0)},
    "measure": {"kind": (str, ("white", "riesz", "radial-table")), "alpha": (float, 0.0),
                "scale": (float, 0.0), "table_path": (str, None), "tail_exponent": (float, None)},
    "green": {"k": (int, 1), "horizon": (float, 0.0)},
    "solver": {"dt": (float, 0.0), "steps": (int, 1),
               "nonlinearity": (str, ("identity", "sine", "one-minus-exp", "affine")),
               "picard_tol": (float, 0.0)},
    "weight": {"exponent": (float, 0.0), "radius": (float, 0.0)},
}
# Keys a config may set that _KEYS does not declare: the name, checked on its own, and
# [experiment] threads, unread but written by perfbench/workloads.py until it stops.
_UNDECLARED_KEYS = {("experiment", "name"), ("experiment", "threads")}


def _value(section: str, key: str, text: str):
    """``text`` as the declared type of [section] key, checked against its bound."""
    kind, bound, *reason = _KEYS[section][key]
    where = f"[{section}] {key}"
    if kind is bool:
        if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"{where}: expected a boolean, got {text!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    if kind is str:
        if bound is not None and text not in bound:
            raise ValueError(f"{where}: unknown {key} {text!r}, expected one of "
                             f"{' | '.join(bound)}")
        return text
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: expected {what}, got {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{where}: expected a finite number, got {text!r}")
    if isinstance(bound, set):
        ok, why = value in bound, f"must be one of {sorted(bound)}"
    else:
        ok = bound is None or (value >= bound if kind is int else value > bound)
        why = f"must be {'>=' if kind is int else '>'} {bound}"
    if not ok:
        raise ValueError(f"{where}: {reason[0] if reason else why}, got {text!r}")
    return value


@dataclass
class ExperimentConfig:
    """View over the flat INI key tree; raw strings are canonical, read through ``_KEYS``."""

    raw: dict

    def get(self, section: str, key: str, default=None):
        """[section] key as its declared type, or ``default`` when the config does not set it."""
        if key not in _KEYS.get(section, {}):
            raise KeyError(f"[{section}] {key} is not declared in _KEYS")
        text = self.raw.get(section, {}).get(key)
        return default if text is None else _value(section, key, text)

    @property
    def name(self) -> str:
        return self.raw["experiment"]["name"]

    @property
    def seed(self) -> int:
        return self.get("experiment", "seed", DEFAULT_SEED)

    @property
    def replicas(self) -> int | None:
        return self.get("experiment", "replicas")

    @property
    def replica_offset(self) -> int:
        return self.get("experiment", "replica_offset", 0)

    @property
    def output_dir(self) -> Path:
        return Path(self.get("experiment", "output", "results"))

    def override(self, **updates) -> "ExperimentConfig":
        """Copy with [experiment] keys replaced, checked as :func:`parse_config` checks."""
        raw = {s: dict(kv) for s, kv in self.raw.items()}
        raw.setdefault("experiment", {})
        for key, value in updates.items():
            if value is not None:
                raw["experiment"][key] = str(value)
        return _validate(ExperimentConfig(raw))


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """The checks every config passes before an experiment reads it: its name, and that
    ``_KEYS`` declares every other key it sets (``threads`` aside) and accepts its value."""
    if "name" not in cfg.raw.get("experiment", {}):
        raise ValueError("malformed config: missing [experiment] name")
    if cfg.name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {cfg.name!r}; see list-experiments")
    for section, values in cfg.raw.items():
        for key, text in values.items():
            if key in _KEYS.get(section, {}):
                _value(section, key, text)
            elif (section, key) not in _UNDECLARED_KEYS:
                raise ValueError(f"[{section}] {key}: not a config key")
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate an experiment config.

    INI sections; ``[experiment] name`` (one of the registered experiments)
    is required.  ``_KEYS`` declares every other key an experiment reads,
    with its section, type and bound or choices; each one the text sets is
    converted and checked here, and any key it does not declare is refused
    (``[experiment] threads`` aside), so a bad config raises before any work.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    raw = {section: dict(parser.items(section)) for section in parser.sections()}
    return _validate(ExperimentConfig(raw))


def parse_config_file(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    out = io.StringIO()
    for section in cfg.raw:
        out.write(f"[{section}]\n")
        for key, value in cfg.raw[section].items():
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------


@dataclass
class Row:
    experiment: str
    case: str
    quantity: str
    value: float
    std_error: float | None
    replicas: int
    verdict: bool


_CSV_HEADER = ["experiment", "case", "quantity", "value", "std_error", "replicas", "verdict"]


@dataclass
class ResultTable:
    rows: list

    @property
    def all_pass(self) -> bool:
        return all(r.verdict for r in self.rows)

    def failing(self) -> list:
        return [r for r in self.rows if not r.verdict]

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for r in self.rows:
            writer.writerow([
                r.experiment,
                r.case,
                r.quantity,
                repr(float(r.value)),
                "" if r.std_error is None else repr(float(r.std_error)),
                r.replicas,
                "pass" if r.verdict else "fail",
            ])
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if header != _CSV_HEADER:
            raise ValueError("schema mismatch: unexpected CSV header")
        rows = []
        for rec in reader:
            if not rec:
                continue
            rows.append(Row(
                experiment=rec[0],
                case=rec[1],
                quantity=rec[2],
                value=float(rec[3]),
                std_error=None if rec[4] == "" else float(rec[4]),
                replicas=int(rec[5]),
                verdict=rec[6] == "pass",
            ))
        return cls(rows)


def _pool(stats: list[tuple[float, float, int]]) -> tuple[float, float, int]:
    """Exact pooling of (mean, std error, count) groups.

    Sums of squares are reconstructed from each group's moments, so the
    pooled statistics equal a single run over the union of replicas up
    to floating-point associativity.
    """
    stats = sorted(stats, key=lambda s: (s[2], s[0], s[1]))
    total_n = sum(s[2] for s in stats)
    mean = sum(s[2] * s[0] for s in stats) / total_n
    ss = 0.0
    for m, se, n in stats:
        sd_sq = (se * math.sqrt(n)) ** 2 if n > 1 else 0.0
        ss += (n - 1) * sd_sq + n * m * m
    if total_n > 1:
        var = max(ss - total_n * mean * mean, 0.0) / (total_n - 1)
        se = math.sqrt(var / total_n)
    else:
        se = 0.0
    return mean, se, total_n


def aggregate(tables: list[ResultTable]) -> ResultTable:
    """Merge result tables: replica-weighted pooling of MC rows.

    Groups rows by (experiment, case, quantity); Monte Carlo rows
    (std_error present) pool exactly; deterministic rows keep their
    value (which must agree across tables) with AND-combined verdicts.
    The reduction is canonicalized by sorting, so the merge is
    associative and commutative.
    """
    groups: dict[tuple, list[Row]] = {}
    for table in tables:
        for row in table.rows:
            groups.setdefault((row.experiment, row.case, row.quantity), []).append(row)
    merged = []
    for key in sorted(groups):
        rows = groups[key]
        verdict = all(r.verdict for r in rows)
        mc = [r for r in rows if r.std_error is not None]
        if mc:
            mean, se, n = _pool([(r.value, r.std_error, r.replicas) for r in mc])
            merged.append(Row(*key, value=mean, std_error=se, replicas=n, verdict=verdict))
        else:
            values = {repr(r.value) for r in rows}
            if len(values) > 1:
                raise ValueError(f"deterministic rows disagree for {key}: {sorted(values)}")
            merged.append(replace(rows[0], verdict=verdict))
    return ResultTable(merged)


def solve_report_csv(summary: MomentSummary, m_table=()) -> str:
    """Trajectory CSV: t, iteration, m_n, moment, band, space.

    Iteration 0 rows carry the pooled moment trajectory and its Monte
    Carlo band (``_SE_MULTIPLIER`` s.e.); iteration n >= 1 rows carry ``m_table[n - 1]``,
    the squared update distances of one solve's n-th Picard sweep at
    each step time.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "iteration", "m_n", "moment", "band", "space"])
    times, space = summary.times, summary.space
    for j, t in enumerate(times):
        writer.writerow([repr(float(t)), 0, "", repr(float(summary.mean[j])),
                         repr(float(_SE_MULTIPLIER * summary.std_error[j])), space])
    for n, dist_sq in enumerate(m_table, start=1):
        for j, t in enumerate(times):
            writer.writerow([repr(float(t)), n, repr(float(dist_sq[j])), "", "", space])
    return out.getvalue()


def _decreasing_row(experiment: str, case: str, quantity: str, values,
                    enough: bool = True) -> Row:
    """Verdict row, value 1.0 and pass when ``values`` strictly decrease (and ``enough``)."""
    ok = enough and all(a > b for a, b in zip(values, values[1:]))
    return Row(experiment, case, quantity, 1.0 if ok else 0.0, None, 0, ok)


def _envelope_rows(experiment: str, case: str, summary: MomentSummary, replicas: int,
                   files: dict, m_table=()) -> list[Row]:
    """The pooled moment at T and the envelope excess; the trajectory CSV goes to ``files``."""
    files[f"{experiment}_trajectory.csv"] = solve_report_csv(summary, m_table).encode()
    excess = float(np.max(summary.mean - summary.envelope - _SE_MULTIPLIER * summary.std_error))
    ok = excess <= 1e-12
    return [Row(experiment, case, "moment_at_T", summary.mean[-1], summary.std_error[-1],
                replicas, ok),
            Row(experiment, case, "envelope_excess", excess, None, 0, ok)]


# ---------------------------------------------------------------------------
# config-driven object builders
# ---------------------------------------------------------------------------


def _keyed(key: str, build, *args, **kw):
    """``build(*args, **kw)``, an ``OSError`` or ``ValueError`` from it re-raised naming ``key``."""
    try:
        return build(*args, **kw)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def _build_grid(cfg: ExperimentConfig, n: int, length: float) -> Grid:
    return Grid(cfg.get("grid", "d", 1), cfg.get("grid", "n", n),
                cfg.get("grid", "length", length))


def _build_measure(cfg: ExperimentConfig) -> SpectralMeasure:
    """The [measure] of the [grid] dimension, built before the grid is: it checks keys only."""
    d = cfg.get("grid", "d", 1)
    kind = cfg.get("measure", "kind", "white")
    scale = cfg.get("measure", "scale", 1.0)
    if kind == "white":
        return SpectralMeasure.white(d, scale=scale)
    if kind == "riesz":
        return _keyed("[measure] alpha", SpectralMeasure.riesz, d,
                      cfg.get("measure", "alpha", 0.5), scale=scale)
    for key in ("table_path", "tail_exponent"):  # radial-table
        if cfg.get("measure", key) is None:
            raise ValueError(f"[measure] {key}: required for radial-table")
    radii, density = _keyed("[measure] table_path", np.loadtxt, cfg.get("measure", "table_path"),
                            delimiter=",", ndmin=2, usecols=(0, 1), unpack=True)
    return _keyed("[measure] table_path", SpectralMeasure.radial_table, d, radii, density,
                  tail_exponent=cfg.get("measure", "tail_exponent"), scale=scale)


def _build_nonlinearity(cfg: ExperimentConfig, default: str = "sine") -> Nonlinearity:
    name = cfg.get("solver", "nonlinearity", default)
    if name == "identity":
        return Nonlinearity.identity()
    if name == "sine":
        return Nonlinearity.sine()
    if name == "one-minus-exp":
        return Nonlinearity.one_minus_exp()
    return Nonlinearity.affine(0.0, 1.0)  # affine


def _initial_field(grid: Grid, kind: str, amplitude: float, width: float,
                   center: float = 0.0, mode: float = 0.0) -> LatticeField:
    """A gaussian, bump or wavepacket (carrier cos(mode x_0)) of radius width about x_0 = center."""
    shifted_sq = np.zeros(grid.shape)
    for ax in range(grid.dimension):
        coord = grid._axis_array(grid.axis_coords, ax)
        shifted_sq = shifted_sq + (coord - (center if ax == 0 else 0.0)) ** 2
    if kind == "gaussian":
        return LatticeField(grid, amplitude * np.exp(-shifted_sq / width**2))
    if kind == "bump":
        r_sq = shifted_sq / width**2
        vals = np.zeros(grid.shape)
        inside = r_sq < 1.0
        vals[inside] = amplitude * np.exp(-1.0 / (1.0 - r_sq[inside]))
        return LatticeField(grid, vals)
    x0 = grid._axis_array(grid.axis_coords, 0) - center  # wavepacket
    env = amplitude * np.exp(-shifted_sq / width**2)
    return LatticeField(grid, env * np.cos(mode * (x0 + np.zeros(grid.shape))))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _exp_admissibility(cfg: ExperimentConfig, files: dict) -> list[Row]:
    rows = []
    dims = (1, 2, 3, 4)
    orders = (1, 2)
    alphas = [0.5 * j for j in range(1, 8)]
    for d in dims:
        for k in orders:
            value = admissibility_integral(SpectralMeasure.white(d), k)
            expected = d < 2 * k
            rows.append(Row("admissibility", f"white-d{d}-k{k}", "integral",
                            value, None, 0, math.isfinite(value) == expected))
    for d in dims:
        for alpha in alphas:
            if not alpha < d:
                continue
            for k in orders:
                value = admissibility_integral(SpectralMeasure.riesz(d, alpha), k)
                expected = alpha < 2 * k
                rows.append(Row("admissibility", f"riesz{alpha}-d{d}-k{k}", "integral",
                                value, None, 0, math.isfinite(value) == expected))
    return rows


_ISOMETRY_CASES = [
    ("white-d1-k1", "white", None, 1, 1),
    ("white-d1-k2", "white", None, 1, 2),
    ("white-d2-k2", "white", None, 2, 2),
    ("riesz0.5-d1-k1", "riesz", 0.5, 1, 1),
    ("riesz1.0-d2-k1", "riesz", 1.0, 2, 1),
    ("riesz1.5-d2-k2", "riesz", 1.5, 2, 2),
]


def _exp_isometry(cfg: ExperimentConfig, files: dict) -> list[Row]:
    replicas = cfg.replicas or 1000
    n = cfg.get("grid", "n", 64)
    length = cfg.get("grid", "length", 16.0)
    horizon, steps = 0.5, 8
    dt = horizon / steps
    rows = []
    for case_index, (case, kind, alpha, d, k) in enumerate(_ISOMETRY_CASES):
        grid = Grid(d, n, length)
        measure = SpectralMeasure.white(d) if kind == "white" else SpectralMeasure.riesz(d, alpha)
        g = GreenMultiplier(k, horizon)
        z_vals = np.exp(-grid.coord_norm_sq)
        Z = IntegrandProcess.constant(grid, z_vals, steps, dt)

        ival = isometry_functional(g, Z, measure)
        ialt = isometry_alternative(g, Z, measure)
        itil = isometry_bound(g, Z, measure)
        rngs = _replica_generators(cfg, case_index, replicas)
        mc, se = convolution_moment_mc(g, Z, measure, replicas, rngs)

        dev = abs(mc - ival) / se
        alt_rel = abs(ialt - ival) / ival
        excess = itil - ival
        rows.append(Row("isometry", case, "functional", ival, None, 0, True))
        rows.append(Row("isometry", case, "bound", itil, None, 0, True))
        rows.append(Row("isometry", case, "mc_moment", mc, se, replicas, dev <= _SE_MULTIPLIER))
        rows.append(Row("isometry", case, "mc_deviation_se", dev, None, 0,
                        dev <= _SE_MULTIPLIER))
        rows.append(Row("isometry", case, "alternative_rel_err", alt_rel, None, 0, alt_rel <= 1e-8))
        rows.append(Row("isometry", case, "bound_excess", excess, None, 0,
                        excess >= -1e-12 * max(ival, 1.0)))
        if kind == "white":
            eq_rel = abs(itil - ival) / ival
            rows.append(Row("isometry", case, "white_equality_rel", eq_rel, None, 0,
                            eq_rel <= 1e-12))
    return rows


def _exp_mollifier_ladder(cfg: ExperimentConfig, files: dict) -> list[Row]:
    measure = _build_measure(cfg)
    grid = _build_grid(cfg, 512, 48.0)
    g = GreenMultiplier(cfg.get("green", "k", 1), 1.0)
    steps, dt = 4, 0.25
    Z = IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq / 2.0), steps, dt)
    scales = (1, 2, 4, 8, 16)

    rows = []
    green_ladder = [ladder_distance(g, s, Z, measure) for s in scales]
    trunc_ladder = [truncation_distance(g, Z, measure, float(s)) for s in scales]
    for name, ladder in (("green", green_ladder), ("truncation", trunc_ladder)):
        for s, val in zip(scales, ladder):
            rows.append(Row("mollifier-ladder", name, f"distance_n{s}", val, None, 0, True))
        ratio = ladder[-1] / ladder[0]
        rows.append(_decreasing_row("mollifier-ladder", name, "strictly_decreasing", ladder))
        rows.append(Row("mollifier-ladder", name, "final_over_initial", ratio, None, 0,
                        ratio < 0.05))
    return rows


def _picard_config(cfg: ExperimentConfig) -> SolveConfig:
    horizon = cfg.get("green", "horizon", 1.0)
    dt = cfg.get("solver", "dt", 1.0 / 128.0)
    _keyed("[solver] dt", whole_steps, horizon, dt)
    measure = _build_measure(cfg)
    grid = _build_grid(cfg, 128, 16.0)
    return SolveConfig(grid=grid, measure=measure, k=cfg.get("green", "k", 1), horizon=horizon,
                       dt=dt, nonlinearity=_build_nonlinearity(cfg, "sine"),
                       v0=_initial_field(grid, "wavepacket", 1.0, 2.0, mode=2.0),
                       picard_tol=cfg.get("solver", "picard_tol", SolveConfig.picard_tol),
                       snapshot_stride=1)


def _exp_picard(cfg: ExperimentConfig, files: dict) -> list[Row]:
    replicas = cfg.replicas or 100
    if replicas < MIN_TRACK_REPLICAS:
        raise ValueError("[experiment] replicas: moment tracking needs at least "
                         f"{MIN_TRACK_REPLICAS}")
    ratio_replicas = cfg.get("experiment", "ratio_replicas", 20)
    solve_cfg = _picard_config(cfg)
    check_envelope(solve_cfg.nonlinearity)
    grid, measure = solve_cfg.grid, solve_cfg.measure
    rows = []

    # fixed-point agreement and uniqueness surrogate on one fixed path
    path = sample_path(grid, measure, solve_cfg.horizon, solve_cfg.dt,
                       replica_generator(cfg.seed, "picard", 0, cfg.replica_offset))
    sweep = explicit_sweep(solve_cfg, path)
    pic = picard_iterate(solve_cfg, path)
    pic0 = picard_iterate(solve_cfg, path, initial="zero")
    gap = max(l2_norm(sweep.snapshot_at(j) - pic.snapshot_at(j)) for j in sweep.snapshots)
    gap0 = max(l2_norm(pic0.snapshot_at(j) - pic.snapshot_at(j)) for j in pic.snapshots)
    rows.append(Row("picard", "fixed-point", "sweep_vs_picard_sup", gap, None, 0, gap <= 1e-10))
    rows.append(Row("picard", "fixed-point", "two_guess_gap", gap0, None, 0, gap0 <= 1e-10))
    rows.append(Row("picard", "fixed-point", "picard_iterations", float(pic.iterations),
                    None, 0, pic.converged))

    # contraction-ratio decay of the replica-averaged squared distances at T
    m = picard_replicas(solve_cfg, _replica_generators(cfg, 1, ratio_replicas), 10)
    mbar = np.mean(m[:, :, -1], axis=0)
    floor = 1e-20 * mbar[0]
    usable = [i for i in range(len(mbar)) if mbar[i] > floor]
    ratios = [mbar[i] / mbar[i - 1] for i in usable[1:]]
    for i, r in enumerate(ratios):
        rows.append(Row("picard", "contraction", f"mhat_ratio_{i + 1}", r, None, 0, True))
    rows.append(_decreasing_row("picard", "contraction", "ratios_decreasing", ratios,
                                len(ratios) >= 3))

    # moment envelope
    moments, _ = sweep_replicas(solve_cfg, _replica_generators(cfg, 2, replicas))
    summary = moment_track(moments, solve_cfg)
    return rows + _envelope_rows("picard", "moment", summary, replicas, files, pic.m_table)


def _exp_energy(cfg: ExperimentConfig, files: dict) -> list[Row]:
    rows = []
    grid = _build_grid(cfg, 128, 16.0)
    steps = cfg.get("solver", "steps", 256)
    horizon = cfg.get("green", "horizon", 1.0)
    v0 = _initial_field(grid, "gaussian", 1.0, 1.0)
    v0_dot = _initial_field(grid, "gaussian", 0.3, 1.4, center=1.0)
    for k in (1, 2):
        solve_cfg = SolveConfig(
            grid=grid, measure=SpectralMeasure.white(grid.dimension), k=k,
            horizon=horizon, dt=horizon / steps,
            nonlinearity=Nonlinearity.affine(0.0, 0.0), v0=v0, v0_dot=v0_dot,
        )
        energy = energy_trajectory(solve_cfg)
        drift = float((energy.max() - energy.min()) / energy.mean())
        rows.append(Row("energy", f"k{k}", "energy_rel_drift", drift, None, 0, drift <= 1e-10))
    return rows


def _exp_support(cfg: ExperimentConfig, files: dict) -> list[Row]:
    d = cfg.get("grid", "d", 1)
    if d != 1:
        raise ValueError(f"[grid] d: the support experiment runs in d = 1 only, got {d}")
    measure = _build_measure(cfg)
    grid = _build_grid(cfg, 512, 16.0)
    h = grid.spacing
    v0 = _initial_field(grid, "bump", 1.0, 1.0)
    mask = (np.sqrt(grid.coord_norm_sq) <= 1.0).astype(float)
    horizon = cfg.get("green", "horizon", 1.0)
    needed = 8.0 + horizon  # four diameters of |x| <= 1 (the bump and the mask), plus T
    if grid.box_length < needed:
        raise ValueError(f"[grid] length: box length {grid.box_length} < {needed} needed to keep "
                         "finite-speed effects from wrapping within the horizon")
    solve_cfg = SolveConfig(
        grid=grid, measure=measure, k=1, horizon=horizon, dt=h,
        nonlinearity=_build_nonlinearity(cfg, "sine"), v0=v0,
        noise_mask=mask, snapshot_stride=1,
    )
    path = sample_path(grid, measure, solve_cfg.horizon, h,
                       replica_generator(cfg.seed, "support", 0, cfg.replica_offset))
    report = explicit_sweep(solve_cfg, path)
    radius = np.sqrt(grid.coord_norm_sq)
    worst = 0.0
    for j, fld in report.snapshots.items():
        outside = radius > 1.0 + j * solve_cfg.dt + 2.0 * h
        if np.any(outside):
            worst = max(worst, float(np.abs(fld.values[outside]).max()))
    if cfg.get("experiment", "snapshots", False):
        snapshot = io.BytesIO()
        write_field(report.snapshot_at(solve_cfg.steps), snapshot)
        files["support_final.field"] = snapshot.getvalue()
    inside_scale = float(np.abs(report.snapshot_at(solve_cfg.steps).values).max())
    return [
        Row("support", "wave-d1", "max_outside_cone", worst, None, 0, worst <= 1e-10),
        Row("support", "wave-d1", "inside_scale", inside_scale, None, 0, inside_scale > 0.0),
    ]


def _exp_weighted(cfg: ExperimentConfig, files: dict) -> list[Row]:
    n_fields = cfg.get("experiment", "equivalence_fields", 50)
    solver_replicas = cfg.get("experiment", "envelope_replicas", 100)
    dt = cfg.get("solver", "dt", 1.0 / 64.0)
    _keyed("[solver] dt", whole_steps, 1.0, dt)
    d = cfg.get("grid", "d", 1)
    w = Weight(cfg.get("weight", "exponent", float(d + 1)), cfg.get("weight", "radius", 1.0))
    _keyed("[weight] exponent", w.check_dimension, d)
    measure = _build_measure(cfg)
    rows = []
    grid = _build_grid(cfg, 256, 16.0)
    theta = w.theta_on(grid)

    # pointwise sandwich with the exact constants: base = 1 and |x|**(-K)
    radius = np.sqrt(grid.coord_norm_sq)
    base = np.ones(grid.shape)
    far = radius > 1.0
    base[far] = radius[far] ** (-w.exponent)
    ok = bool(np.all(theta >= w.sandwich_lower * base * (1.0 - 1e-12))
              and np.all(theta <= w.sandwich_upper * base * (1.0 + 1e-12)))
    rows.append(Row("weighted", "sandwich", "pointwise_ok", 1.0 if ok else 0.0, None, 0, ok))

    # shell equivalence on random fields with the computed discrete constants
    c_disc, big_c = equivalence_constants(grid, w)
    rng = replica_generator(cfg.seed, "weighted", 0, cfg.replica_offset)
    shell_count = int(w.annulus_index(grid).max()) + 1
    weights_n = np.array([float(max(n, 1)) ** (-w.exponent) for n in range(shell_count)])
    violations = 0
    for _ in range(n_fields):
        f = LatticeField(grid, rng.standard_normal(grid.shape))
        wn_sq = float(norm_sq(grid, f.values, theta))
        shells = annuli_norms(f, w)
        shell_sum = float(np.sum(weights_n * shells))
        if not (c_disc * shell_sum <= wn_sq * (1.0 + 1e-12)
                and wn_sq <= big_c * shell_sum * (1.0 + 1e-12)):
            violations += 1
    rows.append(Row("weighted", "equivalence", "violations", float(violations), None, 0,
                    violations == 0))
    rows.append(Row("weighted", "equivalence", "lower_constant", c_disc, None, 0, True))
    rows.append(Row("weighted", "equivalence", "upper_constant", big_c, None, 0, True))

    # weighted second-moment bound, ball-supported integrand
    replicas = cfg.replicas or 1000
    steps, horizon = 8, 1.0
    g = GreenMultiplier(1, horizon)
    ball = (np.sqrt(grid.coord_norm_sq) <= 1.0).astype(float)
    Z = IntegrandProcess.constant(grid, ball, steps, horizon / steps)
    rngs = _replica_generators(cfg, 1, replicas)
    res = weighted_isometry_bound(g, Z, measure, w, replicas, rngs)
    rows.append(Row("weighted", "moment-bound", "quadrature_bound", res.bound, None, 0, True))
    rows.append(Row("weighted", "moment-bound", "mc_moment", res.mc_estimate, res.std_error,
                    replicas, res.mc_estimate <= res.bound + _SE_MULTIPLIER * res.std_error))
    rows.append(Row("weighted", "moment-bound", "locality_constant", res.locality, None, 0, True))

    # linear-growth solver (alpha does not vanish at zero) under its envelope
    v0 = _initial_field(grid, "wavepacket", 1.0, 2.0, mode=1.0)
    solve_cfg = SolveConfig(
        grid=grid, measure=measure, k=1, horizon=1.0, dt=dt,
        nonlinearity=_build_nonlinearity(cfg, "affine"), v0=v0,
    )
    moments, _ = sweep_replicas(solve_cfg, _replica_generators(cfg, 2, solver_replicas),
                                theta=theta)
    summary = weighted_moment_track(moments, solve_cfg, w)
    return rows + _envelope_rows("weighted", "linear-growth", summary, solver_replicas, files)


def _exp_refinement(cfg: ExperimentConfig, files: dict) -> list[Row]:
    t0 = cfg.get("experiment", "base_time", 0.5)
    dts = [1.0 / 16.0 / 2**level for level in range(4)]
    if _keyed("[experiment] base_time", whole_steps, t0, dts[0]) < 1:
        raise ValueError(f"[experiment] base_time: must be at least the coarsest step 1/16, "
                         f"got {t0!r}")
    measure = _build_measure(cfg)
    grid = _build_grid(cfg, 64, 16.0)
    v0 = _initial_field(grid, "gaussian", 1.0, 1.0)
    replicas = cfg.replicas or 100
    rows = []
    means = []
    for level, dt in enumerate(dts):
        horizon = t0 + dt
        solve_cfg = SolveConfig(
            grid=grid, measure=measure, k=1, horizon=horizon, dt=dt,
            nonlinearity=_build_nonlinearity(cfg, "sine"), v0=v0,
        )
        j0 = whole_steps(t0, dt)
        _, kept = sweep_replicas(solve_cfg, _replica_generators(cfg, level, replicas),
                                 keep=(j0, j0 + 1))
        mean, se = mean_se([l2_norm(LatticeField(grid, after - before)) ** 2
                            for before, after in kept])
        means.append(float(mean))
        rows.append(Row("refinement", f"dt_1over{int(round(1 / dt))}", "increment_moment",
                        mean, se, replicas, True))
    rows.append(_decreasing_row("refinement", "summary", "decreasing_under_halving", means))
    return rows


# name -> (spawn-key index, criterion, function).  The index is the first entry of
# every spawn key the experiment draws from, so it is fixed for good.
EXPERIMENTS = {
    "admissibility": (0, "admissibility verdicts match analytic thresholds", _exp_admissibility),
    "isometry": (1, "second-moment identity, modulation equivalence, bound chain", _exp_isometry),
    "mollifier-ladder": (2, "smoothing and truncation ladders decrease to < 5%",
                         _exp_mollifier_ladder),
    "picard": (3, "fixed-point agreement, contraction ratios, moment envelope", _exp_picard),
    "energy": (4, "noise-free spectral energy conservation", _exp_energy),
    "support": (5, "finite propagation speed with masked noise (k = 1, d = 1)", _exp_support),
    "weighted": (6, "weight sandwich, shell equivalence, weighted bound, affine envelope",
                 _exp_weighted),
    "refinement": (7, "moment of time increments decreases under step halving", _exp_refinement),
}


def run(cfg: ExperimentConfig, out_dir: Path | None = None) -> ResultTable:
    """Execute one experiment, then write its CSV and side files into the output directory,
    made only once the experiment has returned its rows."""
    files: dict[str, bytes] = {}
    table = ResultTable(EXPERIMENTS[cfg.name][2](cfg, files))
    files[f"{cfg.name}.csv"] = table.to_csv().encode()
    out = Path(out_dir) if out_dir is not None else cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data)
    return table
