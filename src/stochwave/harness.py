"""Experiment harness: configuration, named experiments, statistics, CSV.

Every acceptance property of the package is runnable as a named
experiment.  A run is deterministic given the master seed: random
streams are counter-based (Philox), keyed by

    SeedSequence(master_seed, spawn_key=(experiment_index, case_index,
                                         replica_index)),

with the experiment index from the one registry ``EXPERIMENTS`` (name ->
spawn-key index, criterion, function, keys); within one stream, noise slices
are drawn in time order (the draw rule of ``stochwave.noise``).  Two runs
of the same experiment at replica offsets 0..a and a..b therefore draw
exactly the replicas of one run over 0..b, which is what makes result
aggregation exact rather than approximate.  Every stream an experiment
draws comes from :func:`_replica_generators`, which takes a case's Philox
keys from one vectorized pass of ``SeedSequence``'s hash over all its
replica indices (:func:`_philox_keys`), a single stream included.
:func:`replica_generator` builds one stream through ``SeedSequence``
itself: no experiment calls it; it is the public reference the tests and
the benchmark's workloads build streams with, and the experiments'
streams are the same streams.

Config files are INI-style (see ``parse_config``); a config sets only the keys
its experiment's ``EXPERIMENTS`` entry lists, checked by ``_KEYS`` when it is
parsed.  An experiment checks the values that depend on each other before it
builds anything, and it hands its side files (trajectory CSV, field snapshot) to
:func:`run`, which writes them and the result CSV only once the experiment has
returned its rows: a refused config leaves no output directory.  Results
are CSV rows (experiment, case, quantity, value, std_error, replicas,
verdict) with '.' decimals and no locale dependence.
"""

from __future__ import annotations

import configparser
import csv
import functools
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

# standard errors every Monte Carlo verdict allows (and the trajectory CSV's band)
_SE_MULTIPLIER = 3.0


def replica_generator(master_seed: int, experiment: str, case_index: int,
                      replica_index: int) -> np.random.Generator:
    """Counter-based stream for one (experiment, case, replica) triple."""
    ss = np.random.SeedSequence(
        master_seed, spawn_key=(EXPERIMENTS[experiment][0], case_index, replica_index)
    )
    return np.random.Generator(np.random.Philox(ss))


_MASK32 = 0xFFFFFFFF


def _philox_keys(seed: int, spawn_head: tuple, first: int, count: int) -> np.ndarray:
    """The (count, 2) uint64 Philox keys of ``SeedSequence(seed, spawn_key=spawn_head + (r,))``
    for r = first .. first + count - 1, by one pass of its hash over all of them.

    The entropy is the seed's little-endian 32-bit words, zero-padded to 4, then the
    words of each spawn-key entry (0 is one word).  The first 4 words fill the pool
    and are mixed across it, each later word is mixed into every pool entry, and the
    pool is hashed out to 4 words, 0|1 and 2|3 forming the key.  Only the replica
    index varies, so every word before it is hashed once for the whole case; an index
    word that a smaller index lacks leaves that index's pool as it was.
    """
    hash_const, hash_mult = 0x43B0D7E5, 0x931E8875  # the pool's hash; the output's below

    # on Python ints and on uint64 arrays alike, each result masked to 32 bits
    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * hash_mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        out = x * 0xCA01F9DD - y * 0x4973F715 & _MASK32
        return out ^ out >> 16

    def words(n: int) -> list[int]:
        return [n >> s & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]

    def add(word) -> list:
        return [mix(entry, hashmix(word)) for entry in pool]

    entropy = words(seed)
    entropy += [0] * (4 - len(entropy))
    for entry in spawn_head:
        entropy += words(entry)
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        pool = add(w)
    index = np.array(range(first, first + count), dtype=object)
    pool = add((index & _MASK32).astype(np.uint64))
    for shift in range(32, max(first + count - 1, 1).bit_length(), 32):
        high = index >> shift
        pool = [np.where(high != 0, new, old)
                for new, old in zip(add((high & _MASK32).astype(np.uint64)), pool)]
    hash_const, hash_mult = 0x8B51F9DD, 0x58F38DED
    out = [hashmix(entry) for entry in pool]
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)


@functools.cache
def _key_sequence():
    """A seed sequence that hands ``Philox`` one precomputed key; built at first use, so
    importing the harness does not load ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a key sequence holds one Philox key: 2 words of uint64, "
                                 f"not {n_words} of {np.dtype(dtype)}")
            return self.key

    return KeySequence


def _replica_generators(cfg: "ExperimentConfig", case_index: int, count: int) -> list:
    """The streams of replicas replica_offset .. replica_offset + count - 1 of one case:
    :func:`replica_generator`'s, keyed by :func:`_philox_keys` in one pass."""
    keys = _philox_keys(cfg.get("experiment", "seed"), (EXPERIMENTS[cfg.name][0], case_index),
                        cfg.get("experiment", "replica_offset"), count)
    sequence = _key_sequence()
    return [np.random.Generator(np.random.Philox(sequence(key))) for key in keys]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


# Every key an experiment reads: section -> key -> (type, bound[, reason]).  An
# int must be >= its bound and a float > it (None: any finite number), unless the
# bound is the set of allowed values; a str's bound is its tuple of choices (None:
# any text).  A value out of bound fails with "[section] key: <reason>, got ...",
# the entry's reason or one the bound gives.  Which experiments read a key, with
# its default there, is in ``EXPERIMENTS``.
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
# The keys every experiment reads, and those of the five that build a measure, with defaults.
_EVERY_RUN = {"experiment": dict(seed=20260810, output="results")}
_MEASURE = {"grid": dict(d=1), "measure": dict(kind="white", alpha=0.5, scale=1.0,
                                               table_path=None, tail_exponent=None)}


def _reads(*groups: dict, **sections: dict) -> dict:
    """One experiment's keys, section -> key -> default: the every-run keys and these merged."""
    table = {}
    for group in (_EVERY_RUN, *groups, sections):
        for section, keys in group.items():
            table.setdefault(section, {}).update(keys)
    return table


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

    def get(self, section: str, key: str):
        """[section] key as its declared type; the experiment's default if the config lacks it."""
        reads = EXPERIMENTS[self.name][3].get(section, {})
        if key not in reads:
            raise KeyError(f"[{section}] {key} is not read by the {self.name} experiment")
        text = self.raw.get(section, {}).get(key)
        return reads[key] if text is None else _value(section, key, text)

    @property
    def name(self) -> str:
        return self.raw["experiment"]["name"]

    @property
    def output_dir(self) -> Path:
        return Path(self.get("experiment", "output"))

    def override(self, **updates) -> "ExperimentConfig":
        """Copy with [experiment] keys replaced, checked as :func:`parse_config` checks."""
        raw = {s: dict(kv) for s, kv in self.raw.items()}
        raw.setdefault("experiment", {})
        for key, value in updates.items():
            if value is not None:
                raw["experiment"][key] = str(value)
        return _validate(ExperimentConfig(raw))


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """The checks every config passes before an experiment reads it: its name, and that the
    experiment reads every other key it sets (``threads`` aside), with a value ``_KEYS`` accepts."""
    if "name" not in cfg.raw.get("experiment", {}):
        raise ValueError("malformed config: missing [experiment] name")
    if cfg.name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {cfg.name!r}; see list-experiments")
    for section, values in cfg.raw.items():
        for key, text in values.items():
            if key in EXPERIMENTS[cfg.name][3].get(section, {}):
                _value(section, key, text)
            elif key in _KEYS.get(section, {}):
                raise ValueError(f"[{section}] {key}: not read by the {cfg.name} experiment")
            elif (section, key) not in _UNDECLARED_KEYS:
                raise ValueError(f"[{section}] {key}: not a config key")
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate an experiment config.

    INI sections; ``[experiment] name`` (one of the registered experiments)
    is required.  The experiment's ``EXPERIMENTS`` entry lists every other key
    it reads, and ``_KEYS`` its type and bound or choices; each one the text
    sets is converted and checked here, and any other key is refused
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
    """The pooled moment at T and the envelope excess, both failing where the envelope is not
    finite, since it then bounds nothing; the trajectory CSV goes to ``files``."""
    files[f"{experiment}_trajectory.csv"] = solve_report_csv(summary, m_table).encode()
    excess = float(np.max(summary.mean - summary.envelope - _SE_MULTIPLIER * summary.std_error))
    ok = excess <= 1e-12 and bool(np.all(np.isfinite(summary.envelope)))
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


def _build_grid(cfg: ExperimentConfig) -> Grid:
    return Grid(cfg.get("grid", "d"), cfg.get("grid", "n"), cfg.get("grid", "length"))


def _radial_table(path: str) -> np.ndarray:
    """The radius and density columns of a radial table file; any other column count is refused."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"a radial table has two columns (radius, density), "
                         f"{path} has {data.shape[1]}")
    return data.T


def _build_measure(cfg: ExperimentConfig) -> SpectralMeasure:
    """The [measure] of the [grid] dimension, built before the grid is: it checks keys only."""
    d = cfg.get("grid", "d")
    kind = cfg.get("measure", "kind")
    scale = cfg.get("measure", "scale")
    given = cfg.raw.get("measure", {})
    for key, owner in (("alpha", "riesz"), ("table_path", "radial-table"),
                       ("tail_exponent", "radial-table")):
        if key in given and kind != owner:
            raise ValueError(f"[measure] {key}: read for {owner} only, not {kind}")
        if key not in given and kind == owner == "radial-table":
            raise ValueError(f"[measure] {key}: required for radial-table")
    if kind == "white":
        return SpectralMeasure.white(d, scale=scale)
    if kind == "riesz":
        return _keyed("[measure] alpha", SpectralMeasure.riesz, d,
                      cfg.get("measure", "alpha"), scale=scale)
    radii, density = _keyed("[measure] table_path", _radial_table, cfg.get("measure", "table_path"))
    return _keyed("[measure] table_path", SpectralMeasure.radial_table, d, radii, density,
                  tail_exponent=cfg.get("measure", "tail_exponent"), scale=scale)


def _build_nonlinearity(cfg: ExperimentConfig) -> Nonlinearity:
    name = cfg.get("solver", "nonlinearity")
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
    replicas = cfg.get("experiment", "replicas")
    horizon, steps = 0.5, 8
    dt = horizon / steps
    rows = []
    for case_index, (case, kind, alpha, d, k) in enumerate(_ISOMETRY_CASES):
        grid = Grid(d, cfg.get("grid", "n"), cfg.get("grid", "length"))
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
    grid = _build_grid(cfg)
    g = GreenMultiplier(cfg.get("green", "k"), 1.0)
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
    horizon = cfg.get("green", "horizon")
    dt = cfg.get("solver", "dt")
    _keyed("[solver] dt", whole_steps, horizon, dt)
    measure = _build_measure(cfg)
    grid = _build_grid(cfg)
    return SolveConfig(grid=grid, measure=measure, k=cfg.get("green", "k"), horizon=horizon,
                       dt=dt, nonlinearity=_build_nonlinearity(cfg),
                       v0=_initial_field(grid, "wavepacket", 1.0, 2.0, mode=2.0),
                       picard_tol=cfg.get("solver", "picard_tol"),
                       snapshot_stride=1)


def _exp_picard(cfg: ExperimentConfig, files: dict) -> list[Row]:
    replicas = cfg.get("experiment", "replicas")
    if replicas < MIN_TRACK_REPLICAS:
        raise ValueError("[experiment] replicas: moment tracking needs at least "
                         f"{MIN_TRACK_REPLICAS}")
    ratio_replicas = cfg.get("experiment", "ratio_replicas")
    solve_cfg = _picard_config(cfg)
    check_envelope(solve_cfg.nonlinearity)
    grid, measure = solve_cfg.grid, solve_cfg.measure
    rows = []

    # fixed-point agreement on one fixed path; the zero-guess solve is the u0 solve one
    # update later (picard_iterate), so two_guess_gap is 0 by construction
    path = sample_path(grid, measure, solve_cfg.horizon, solve_cfg.dt,
                       _replica_generators(cfg, 0, 1)[0])
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
    grid = _build_grid(cfg)
    steps = cfg.get("solver", "steps")
    horizon = cfg.get("green", "horizon")
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
    d = cfg.get("grid", "d")
    if d != 1:
        raise ValueError(f"[grid] d: the support experiment runs in d = 1 only, got {d}")
    measure = _build_measure(cfg)
    grid = _build_grid(cfg)
    h = grid.spacing
    v0 = _initial_field(grid, "bump", 1.0, 1.0)
    mask = (np.sqrt(grid.coord_norm_sq) <= 1.0).astype(float)
    horizon = cfg.get("green", "horizon")
    needed = 8.0 + horizon  # four diameters of |x| <= 1 (the bump and the mask), plus T
    if grid.box_length < needed:
        raise ValueError(f"[grid] length: box length {grid.box_length} < {needed} needed to keep "
                         "finite-speed effects from wrapping within the horizon")
    solve_cfg = SolveConfig(
        grid=grid, measure=measure, k=1, horizon=horizon, dt=h,
        nonlinearity=_build_nonlinearity(cfg), v0=v0,
        noise_mask=mask, snapshot_stride=1,
    )
    path = sample_path(grid, measure, solve_cfg.horizon, h, _replica_generators(cfg, 0, 1)[0])
    report = explicit_sweep(solve_cfg, path)
    radius = np.sqrt(grid.coord_norm_sq)
    worst = 0.0
    for j, fld in report.snapshots.items():
        outside = radius > 1.0 + j * solve_cfg.dt + 2.0 * h
        if np.any(outside):
            worst = max(worst, float(np.abs(fld.values[outside]).max()))
    if cfg.get("experiment", "snapshots"):
        snapshot = io.BytesIO()
        write_field(report.snapshot_at(solve_cfg.steps), snapshot)
        files["support_final.field"] = snapshot.getvalue()
    inside_scale = float(np.abs(report.snapshot_at(solve_cfg.steps).values).max())
    return [
        Row("support", "wave-d1", "max_outside_cone", worst, None, 0, worst <= 1e-10),
        Row("support", "wave-d1", "inside_scale", inside_scale, None, 0, inside_scale > 0.0),
    ]


def _exp_weighted(cfg: ExperimentConfig, files: dict) -> list[Row]:
    n_fields = cfg.get("experiment", "equivalence_fields")
    solver_replicas = cfg.get("experiment", "envelope_replicas")
    dt = cfg.get("solver", "dt")
    _keyed("[solver] dt", whole_steps, 1.0, dt)
    d = cfg.get("grid", "d")
    w = Weight(cfg.get("weight", "exponent") or d + 1.0, cfg.get("weight", "radius"))
    _keyed("[weight] exponent", w.check_dimension, d)
    measure = _build_measure(cfg)
    rows = []
    grid = _build_grid(cfg)
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
    rng = _replica_generators(cfg, 0, 1)[0]
    shell_count = int(w.annulus_index(grid).max()) + 1
    weights_n = np.array([float(max(n, 1)) ** (-w.exponent) for n in range(shell_count)])
    violations = 0
    for values in rng.standard_normal((n_fields,) + grid.shape):
        f = LatticeField(grid, values)
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
    replicas = cfg.get("experiment", "replicas")
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
        nonlinearity=_build_nonlinearity(cfg), v0=v0,
    )
    moments, _ = sweep_replicas(solve_cfg, _replica_generators(cfg, 2, solver_replicas),
                                theta=theta)
    summary = weighted_moment_track(moments, solve_cfg, w)
    return rows + _envelope_rows("weighted", "linear-growth", summary, solver_replicas, files)


def _exp_refinement(cfg: ExperimentConfig, files: dict) -> list[Row]:
    t0 = cfg.get("experiment", "base_time")
    dts = [1.0 / 16.0 / 2**level for level in range(4)]
    if _keyed("[experiment] base_time", whole_steps, t0, dts[0]) < 1:
        raise ValueError(f"[experiment] base_time: must be at least the coarsest step 1/16, "
                         f"got {t0!r}")
    measure = _build_measure(cfg)
    grid = _build_grid(cfg)
    v0 = _initial_field(grid, "gaussian", 1.0, 1.0)
    replicas = cfg.get("experiment", "replicas")
    rows = []
    means = []
    for level, dt in enumerate(dts):
        horizon = t0 + dt
        solve_cfg = SolveConfig(
            grid=grid, measure=measure, k=1, horizon=horizon, dt=dt,
            nonlinearity=_build_nonlinearity(cfg), v0=v0,
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


# name -> (spawn-key index, criterion, function, keys read: section -> key -> default).  The
# index is the first entry of every spawn key the experiment draws from, so it is fixed for good.
EXPERIMENTS = {
    "admissibility": (0, "admissibility verdicts match analytic thresholds", _exp_admissibility,
                      _reads()),
    "isometry": (1, "second-moment identity, modulation equivalence, bound chain", _exp_isometry,
                 _reads(experiment=dict(replicas=1000, replica_offset=0),
                        grid=dict(n=64, length=16.0))),
    "mollifier-ladder": (2, "smoothing and truncation ladders decrease to < 5%",
                         _exp_mollifier_ladder,
                         _reads(_MEASURE, grid=dict(n=512, length=48.0), green=dict(k=1))),
    "picard": (3, "fixed-point agreement, contraction ratios, moment envelope", _exp_picard,
               _reads(_MEASURE, experiment=dict(replicas=100, replica_offset=0, ratio_replicas=20),
                      grid=dict(n=128, length=16.0), green=dict(k=1, horizon=1.0),
                      solver=dict(dt=1 / 128, nonlinearity="sine",
                                  picard_tol=SolveConfig.picard_tol))),
    "energy": (4, "noise-free spectral energy conservation", _exp_energy,
               _reads(grid=dict(d=1, n=128, length=16.0), green=dict(horizon=1.0),
                      solver=dict(steps=256))),
    "support": (5, "finite propagation speed with masked noise (k = 1, d = 1)", _exp_support,
                _reads(_MEASURE, experiment=dict(replica_offset=0, snapshots=False),
                       grid=dict(n=512, length=16.0), green=dict(horizon=1.0),
                       solver=dict(nonlinearity="sine"))),
    "weighted": (6, "weight sandwich, shell equivalence, weighted bound, affine envelope",
                 _exp_weighted,
                 _reads(_MEASURE, experiment=dict(replicas=1000, replica_offset=0,
                                                  equivalence_fields=50, envelope_replicas=100),
                        grid=dict(n=256, length=16.0), weight=dict(exponent=None, radius=1.0),
                        solver=dict(dt=1 / 64, nonlinearity="affine"))),
    "refinement": (7, "moment of time increments decreases under step halving", _exp_refinement,
                   _reads(_MEASURE, experiment=dict(replicas=100, replica_offset=0, base_time=0.5),
                          grid=dict(n=64, length=16.0), solver=dict(nonlinearity="sine"))),
}


def run(cfg: ExperimentConfig) -> ResultTable:
    """Execute one experiment, then write its CSV and side files into ``cfg.output_dir``,
    made only once the experiment has returned its rows."""
    files: dict[str, bytes] = {}
    table = ResultTable(EXPERIMENTS[cfg.name][2](cfg, files))
    files[f"{cfg.name}.csv"] = table.to_csv().encode()
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data)
    return table
