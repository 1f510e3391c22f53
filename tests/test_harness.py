import configparser
import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochwave.solver import MomentSummary
from stochwave.weighted import WeightedBoundResult

from stochwave import cli, harness
from stochwave.harness import (
    EXPERIMENTS,
    ExperimentConfig,
    ResultTable,
    Row,
    _decreasing_row,
    _envelope_rows,
    aggregate,
    parse_config,
    replica_generator,
    run,
    serialize_config,
)


def _config(text: str) -> ExperimentConfig:
    return parse_config(text)


ENERGY_CFG = """
[experiment]
name = energy
seed = 77
"""


_TEXT = st.text(alphabet="abcXYZ019 .,-_/+*=:[]%#;", max_size=12).map(str.strip)


def _valid_text(section: str, key: str):
    """Strategy for the text of a value that [section] key accepts; free text where any is."""
    kind, bound, *_ = harness._KEYS[section][key]
    if kind is bool:
        return st.sampled_from(sorted(configparser.ConfigParser.BOOLEAN_STATES))
    if kind is str:
        return _TEXT if bound is None else st.sampled_from(bound)
    if isinstance(bound, set):
        return st.sampled_from(sorted(bound)).map(str)
    if kind is int:
        return st.integers(min_value=bound).map(str)
    return st.floats(min_value=bound, exclude_min=bound is not None, allow_nan=False,
                     allow_infinity=False).map(repr)


_DECLARED = {(section, key): _valid_text(section, key)
             for section, keys in harness._KEYS.items() for key in keys}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(EXPERIMENTS)),
       values=st.fixed_dictionaries({}, optional=_DECLARED))
def test_parse_and_serialize_round_trip(name, values):
    raw = {"experiment": {"name": name}}
    for (section, key), text in values.items():
        raw.setdefault(section, {})[key] = text
    cfg = ExperimentConfig(raw)
    again = parse_config(serialize_config(cfg))
    assert again.raw == cfg.raw
    assert serialize_config(again) == serialize_config(cfg)


def test_parse_rejects_bad_configs():
    with pytest.raises(ValueError, match="malformed"):
        parse_config("not an ini file at all [")
    with pytest.raises(ValueError, match="missing"):
        parse_config("[grid]\nn = 8\n")
    with pytest.raises(ValueError, match="unknown experiment"):
        parse_config("[experiment]\nname = nosuch\n")
    for key, value in (("replicas", "0"), ("seed", "-1"), ("replica_offset", "-3"),
                       ("seed", "1.5")):
        with pytest.raises(ValueError, match=rf"\[experiment\] {key}"):
            parse_config(f"[experiment]\nname = energy\n{key} = {value}\n")


def test_replica_streams_are_deterministic_and_distinct():
    a = replica_generator(7, "isometry", 0, 3).standard_normal(4)
    b = replica_generator(7, "isometry", 0, 3).standard_normal(4)
    c = replica_generator(7, "isometry", 0, 4).standard_normal(4)
    d = replica_generator(7, "isometry", 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_the_seeding_contract_is_pinned():
    # the registry index is the first entry of every spawn key, so moving one
    # redraws every stream of that experiment; the literal pins the Philox
    # stream of the picard experiment's fixed path at the default seed
    assert {name: index for name, (index, _, _) in EXPERIMENTS.items()} == {
        "admissibility": 0, "isometry": 1, "mollifier-ladder": 2, "picard": 3, "energy": 4,
        "support": 5, "weighted": 6, "refinement": 7}
    assert replica_generator(20260810, "picard", 0, 0).standard_normal() == 0.43744210888409474


def _case_config(seed: int, experiment: str, offset: int) -> ExperimentConfig:
    return parse_config(f"[experiment]\nname = {experiment}\nseed = {seed}\n"
                        f"replica_offset = {offset}\n")


def _streams_agree(gen, ref) -> bool:
    """The same Philox key and counter, and the same first draws."""
    a, b = gen.bit_generator.state["state"], ref.bit_generator.state["state"]
    return (np.array_equal(a["key"], b["key"]) and np.array_equal(a["counter"], b["counter"])
            and np.array_equal(gen.standard_normal(5), ref.standard_normal(5)))


# offsets whose replicas cross a word boundary of the index (2**32, 2**64, 2**128) inside
# the case, next to seeds, experiments and cases drawn at random, multi-word ones included
_BOUNDARY_CASES = [(20260810, "picard", 1, 0, 40), (0, "admissibility", 0, 0, 3),
                   (2**32 - 1, "weighted", 2**32, 2**32 - 3, 6), (2**32, "support", 5, 2**64 - 2, 4),
                   (2**130 + 7, "refinement", 2**128 + 1, 2**128 - 2, 4),
                   (5, "isometry", 3, 2**96 - 1, 2)]


@pytest.mark.parametrize("draw", range(6))
def test_case_streams_are_replica_generators(draw):
    # one vectorized hash pass gives every replica of a case the key SeedSequence gives it
    rnd = np.random.default_rng(4100 + draw)
    cases = [_BOUNDARY_CASES[draw]]
    for _ in range(4):
        bits = [int(b) for b in rnd.choice([8, 32, 33, 64, 65, 140], size=3)]
        seed, case, offset = (int.from_bytes(rnd.bytes(18), "little") % 2**b for b in bits)
        cases.append((seed, str(rnd.choice(list(EXPERIMENTS))), case, offset,
                      int(rnd.integers(1, 6))))
    for seed, experiment, case, offset, count in cases:
        gens = harness._replica_generators(_case_config(seed, experiment, offset), case, count)
        assert len(gens) == count
        for r, gen in enumerate(gens):
            assert _streams_agree(gen, replica_generator(seed, experiment, case, offset + r)), \
                (seed, experiment, case, offset + r)


def test_a_key_sequence_hands_out_its_one_key_only():
    key = np.array([3, 2**64 - 1], dtype=np.uint64)
    sequence = harness._key_sequence()(key)
    assert np.array_equal(sequence.generate_state(2, np.uint64), key)
    for n_words, dtype in ((4, np.uint32), (2, np.uint32), (1, np.uint64), (4, np.uint64)):
        with pytest.raises(ValueError, match="one Philox key"):
            sequence.generate_state(n_words, dtype)


def test_importing_the_harness_does_not_load_numpy_random():
    # the key sequence class is built at first use, so set-up does not pay for numpy.random
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, stochwave.harness; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=env)
    assert proc.stdout.strip() == "False"


def test_run_is_byte_deterministic(tmp_path):
    cfg = _config(ENERGY_CFG)
    t1 = run(cfg.override(output=tmp_path / "a"))
    t2 = run(cfg.override(output=tmp_path / "b"))
    assert t1.to_csv() == t2.to_csv()
    assert (tmp_path / "a" / "energy.csv").read_bytes() == (tmp_path / "b" / "energy.csv").read_bytes()


def test_picard_run_is_byte_deterministic(tmp_path):
    # covers the replica-batched contraction phase and the trajectory CSV
    cfg = _config("[experiment]\nname = picard\nseed = 5\nreplicas = 30\n"
                  "ratio_replicas = 6\n[grid]\nn = 64\n")
    run(cfg.override(output=tmp_path / "a"))
    run(cfg.override(output=tmp_path / "b"))
    for name in ("picard.csv", "picard_trajectory.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("text, case", [
    ("[experiment]\nname = picard\nseed = 5\nreplicas = 30\nratio_replicas = 6\n[grid]\nn = 64\n",
     "moment"),
    ("[experiment]\nname = weighted\nseed = 11\nreplicas = 30\nequivalence_fields = 2\n"
     "envelope_replicas = 30\n[grid]\nn = 64\n", "linear-growth"),
])
def test_moment_at_t_row_is_the_last_pooled_trajectory_row(tmp_path, text, case):
    cfg = _config(text)
    table = run(cfg.override(output=tmp_path))
    (row,) = [r for r in table.rows if (r.case, r.quantity) == (case, "moment_at_T")]
    lines = (tmp_path / f"{cfg.name}_trajectory.csv").read_text().splitlines()
    pooled = [rec for rec in csv.reader(lines[1:]) if rec[1] == "0"]
    t, _, _, moment, band, _ = pooled[-1]
    assert float(t) == 1.0  # the horizon T
    assert float(moment) == row.value and float(band) == 3.0 * row.std_error


@pytest.mark.parametrize("values, enough, ok", [
    ([3.0, 2.0, 1.0], True, True), ([3.0, 2.0, 2.0], True, False), ([1.0, 2.0], True, False),
    ([3.0, 2.0, 1.0], False, False), ([5.0], True, True),
])
def test_decreasing_row_passes_only_on_a_strict_decrease(values, enough, ok):
    row = _decreasing_row("picard", "contraction", "ratios_decreasing", values, enough)
    assert (row.value, row.verdict) == ((1.0, True) if ok else (0.0, False))


@pytest.mark.parametrize("excess, ok", [
    (-1.0, True), (0.0, True), (1e-12, True), (np.nextafter(1e-12, 1.0), False), (1e-6, False),
])
def test_envelope_verdict_flips_at_an_excess_of_1e_12(tmp_path, excess, ok):
    # steps 0 and 2 sit exactly on envelope + 3 s.e.; step 1 passes its zero envelope by
    # ``excess`` with no band, so the row's value is max(excess, 0) without rounding
    summary = MomentSummary(np.array([0.0, 0.5, 1.0]), np.array([1.75, excess, 5.5]),
                            np.array([0.25, 0.0, 0.5]), np.array([1.0, 0.0, 4.0]))
    files = {}
    moment, excess_row = _envelope_rows("picard", "moment", summary, 30, files)
    assert list(files) == ["picard_trajectory.csv"]
    assert excess_row.value == max(excess, 0.0)
    assert moment.verdict is ok and excess_row.verdict is ok


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_envelope_fails_both_rows(bad):
    # an overflowed envelope at a late step leaves the excess to its finite steps,
    # where it passes; it bounds nothing, so both rows fail
    summary = MomentSummary(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]),
                            np.array([0.1, 0.1, 0.1]), np.array([2.0, 4.0, bad]))
    moment, excess_row = _envelope_rows("weighted", "linear-growth", summary, 30, {})
    assert moment.verdict is False and excess_row.verdict is False


def _isometry_verdicts(tmp_path, monkeypatch, estimates):
    """The isometry Monte Carlo verdicts when case i's estimate is estimates[i], I = 1, s.e. 1/16."""
    for name in ("isometry_functional", "isometry_alternative", "isometry_bound"):
        monkeypatch.setattr(harness, name, lambda *args: 1.0)
    estimates = iter(estimates)
    monkeypatch.setattr(harness, "convolution_moment_mc", lambda *args: (next(estimates), 0.0625))
    table = run(_config("[experiment]\nname = isometry\nreplicas = 2\n[grid]\nn = 8\n"
                        ).override(output=tmp_path))
    rows = {(r.case, r.quantity): r for r in table.rows}
    verdicts = []
    for case in [r.case for r in table.rows if r.quantity == "mc_moment"]:
        assert rows[case, "mc_moment"].verdict == rows[case, "mc_deviation_se"].verdict
        verdicts.append(rows[case, "mc_deviation_se"].verdict)
    return verdicts


@pytest.mark.parametrize("multiplier", [2.0, 3.0, 4.0])
def test_isometry_verdict_flips_at_the_se_multiplier(tmp_path, monkeypatch, multiplier):
    # every estimate lies in [1/2, 2], so mc - I is exact (Sterbenz) and so is |mc - I| / (1/16):
    # the deviation is exactly the multiplier, or the next float past it
    monkeypatch.setattr(harness, "_SE_MULTIPLIER", multiplier)
    high, low = 1.0 + multiplier / 16.0, 1.0 - multiplier / 16.0
    assert _isometry_verdicts(tmp_path, monkeypatch, [
        high, np.nextafter(high, 2.0), low, np.nextafter(low, 0.0), 1.0, high + 1.0 / 16.0,
    ]) == [True, False, True, False, True, False]


@pytest.mark.parametrize("multiplier", [3.0, 4.0])
@pytest.mark.parametrize("offset, ok", [(0.0, True), (-0.25, True), (2.0**-40, False)])
def test_weighted_bound_verdict_flips_at_the_se_multiplier(tmp_path, monkeypatch, multiplier,
                                                           offset, ok):
    # bound 1, s.e. 0.25: the estimate sits ``offset`` past bound + multiplier s.e., exactly
    monkeypatch.setattr(harness, "_SE_MULTIPLIER", multiplier)
    monkeypatch.setattr(harness, "weighted_isometry_bound", lambda *args: WeightedBoundResult(
        1.0, 1.0 + 0.25 * multiplier + offset, 0.25, 1.0))
    table = run(_config("[experiment]\nname = weighted\nreplicas = 2\nequivalence_fields = 1\n"
                        "envelope_replicas = 30\n[grid]\nn = 64\n[solver]\ndt = 0.0625\n"
                        ).override(output=tmp_path))
    (row,) = [r for r in table.rows if (r.case, r.quantity) == ("moment-bound", "mc_moment")]
    assert row.verdict is ok


@pytest.mark.parametrize("text, key", [
    ("name = weighted\nequivalence_fields = 0\n", "[experiment] equivalence_fields"),
    ("name = weighted\nenvelope_replicas = 29\n", "[experiment] envelope_replicas"),
    ("name = refinement\nbase_time = 0.3\n", "[experiment] base_time"),
    ("name = picard\nreplicas = 10\n", "[experiment] replicas"),
    ("name = energy\nsnapshots = maybe\n", "[experiment] snapshots"),
    ("name = picard\n[solver]\npicard_tol = -1\n", "[solver] picard_tol"),
    ("name = energy\n[solver]\nsteps = 0\n", "[solver] steps"),
    ("name = energy\n[green]\nhorizon = 0\n", "[green] horizon"),
    ("name = weighted\n[weight]\nradius = 0\n", "[weight] radius"),
    ("name = weighted\n[solver]\ndt = 0\n", "[solver] dt"),
    ("name = support\n[green]\nhorizon = -1\n", "[green] horizon"),
    # values that pass their own bound but not another key's
    ("name = weighted\n[solver]\ndt = 0.3\n", "[solver] dt"),
    ("name = picard\n[green]\nhorizon = 0.5\n[solver]\ndt = 0.3\n", "[solver] dt"),
    ("name = weighted\n[grid]\nd = 2\n[weight]\nexponent = 2\n", "[weight] exponent"),
    ("name = support\n[grid]\nd = 2\n", "[grid] d"),
    # values a library object would refuse only once the experiment builds it
    ("name = energy\n[grid]\nn = 100\n", "[grid] n"),
    ("name = picard\n[grid]\nd = 4\n", "[grid] d"),
    ("name = picard\n[measure]\nkind = riesz\nalpha = 1.5\n", "[measure] alpha"),
    # a radial table missing a key, refused before the (absent) table file is read
    ("name = picard\n[measure]\nkind = radial-table\ntable_path = no-such.csv\n",
     "[measure] tail_exponent"),
    ("name = weighted\n[measure]\nkind = radial-table\ntable_path = no-such.csv\n",
     "[measure] tail_exponent"),
    ("name = support\n[measure]\nkind = radial-table\ntail_exponent = -3\n",
     "[measure] table_path"),
    # a radial table that the file cannot supply: missing, unordered, one row, one
    # column, a third column
    *(("name = picard\n[measure]\nkind = radial-table\ntail_exponent = -3\n"
       f"table_path = {table}\n", "[measure] table_path")
      for table in ("no-such.csv", "unordered.csv", "one-row.csv", "one-column.csv",
                    "three-column.csv")),
])
def test_experiment_keys_are_checked_before_any_work(tmp_path, monkeypatch, text, key):
    def no_work(*args):
        raise AssertionError("the experiment started before checking its keys")

    for name, rows in (("unordered.csv", "1.0,0.5\n0.5,1.0\n2.0,0.25\n"),
                       ("one-row.csv", "1.0,0.5\n"), ("one-column.csv", "0.5\n1.0\n2.0\n"),
                       ("three-column.csv", "0.5,1.0,9\n1.0,0.5,9\n2.0,0.25,9\n")):
        (tmp_path / name).write_text(rows)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "_build_grid", no_work)
    with pytest.raises(ValueError, match="^" + re.escape(key) + ": "):
        run(_config("[experiment]\n" + text).override(output=tmp_path / "out"))
    assert not (tmp_path / "out").exists()  # run makes the directory only after the rows


def test_get_refuses_an_undeclared_key():
    cfg = _config(ENERGY_CFG)
    assert cfg.get("experiment", "seed") == 77 and cfg.get("grid", "n", 128) == 128
    for section, key in (("experiment", "threads"), ("grid", "dt"), ("nosuch", "n")):
        with pytest.raises(KeyError, match=re.escape(f"[{section}] {key}")):
            cfg.get(section, key)


def test_the_readme_config_block_lists_every_declared_key():
    # section by section, the keys commented out in the block counted too
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    listed = {}
    for line in block.splitlines():
        if header := re.match(r"\[(\w+)\]", line):
            section = listed.setdefault(header[1], set())
        elif key := re.match(r"(?:;\s*)?(\w+)\s*=", line):
            section.add(key[1])
    declared = {section: set(keys) for section, keys in harness._KEYS.items()}
    declared["experiment"].add("name")
    assert listed == declared


@pytest.mark.parametrize("extra, key", [
    ("[grid]\nnn = 32\n", "[grid] nn"),  # misspelt
    ("[solver]\nv0_kind = bump\n", "[solver] v0_kind"),  # removed
    ("[solver]\naffine_b = 2\n", "[solver] affine_b"),  # removed
    ("[extra]\nn = 1\n", "[extra] n"),  # unknown section
])
def test_undeclared_keys_are_refused(tmp_path, capsys, extra, key):
    cfg_path = tmp_path / "energy.ini"
    cfg_path.write_text(ENERGY_CFG + extra)
    assert cli.main(["run", str(cfg_path), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {key}: not a config key\n"
    assert not (tmp_path / "out").exists()
    # the benchmark's workloads write [experiment] threads, which nothing reads
    assert _config(ENERGY_CFG + "threads = 1\n").raw["experiment"]["threads"] == "1"


def test_isometry_run_is_byte_deterministic(tmp_path):
    # covers the Monte Carlo kernel over two replica chunks (256 + 44)
    cfg = _config("[experiment]\nname = isometry\nseed = 5\nreplicas = 300\n"
                  "[grid]\nn = 16\n")
    run(cfg.override(output=tmp_path / "a"))
    run(cfg.override(output=tmp_path / "b"))
    first = (tmp_path / "a" / "isometry.csv").read_bytes()
    assert first == (tmp_path / "b" / "isometry.csv").read_bytes()
    assert b"mc_moment" in first


def test_run_writes_only_inside_output_dir(tmp_path):
    before = set((tmp_path).rglob("*"))
    run(_config(ENERGY_CFG).override(output=tmp_path / "only"))
    created = set(tmp_path.rglob("*")) - before
    assert all(str(p).startswith(str(tmp_path / "only")) for p in created)


def test_csv_round_trip(tmp_path):
    table = run(_config(ENERGY_CFG).override(output=tmp_path))
    back = ResultTable.from_csv(table.to_csv())
    assert back.to_csv() == table.to_csv()


def test_csv_schema_mismatch_rejected():
    with pytest.raises(ValueError, match="schema"):
        ResultTable.from_csv("a,b,c\n1,2,3\n")


def _mc_row(value, se, n, case="c", quantity="q"):
    return Row("isometry", case, quantity, value, se, n, True)


def test_aggregate_identity_and_commutativity():
    table = ResultTable([_mc_row(1.0, 0.1, 10), Row("isometry", "c", "det", 2.0, None, 0, True)])
    empty = ResultTable([])
    merged = aggregate([table, empty])
    assert merged.to_csv() == aggregate([table]).to_csv()
    other = ResultTable([_mc_row(2.0, 0.2, 30)])
    ab = aggregate([table, other])
    ba = aggregate([other, table])
    assert ab.to_csv() == ba.to_csv()


def _sample_table(samples, verdict=True):
    x = np.asarray(samples)
    return ResultTable([_mc_row(float(x.mean()), float(x.std(ddof=1) / np.sqrt(x.size)), x.size),
                        Row("isometry", "c", "det", 2.0, None, 0, verdict)])


# normal samples whose spread is at least a tenth of their offset, so the
# pooled variance is not a difference of nearly equal sums of squares
_SAMPLES = st.builds(
    lambda seed, n, loc, scale: np.random.default_rng(seed).normal(loc, scale, n),
    st.integers(0, 2**32 - 1), st.integers(4, 200), st.floats(-1.0, 1.0), st.floats(0.1, 10.0))


@settings(max_examples=60, deadline=None)
@given(samples=_SAMPLES, cut=st.floats(0.0, 1.0))
def test_aggregate_pools_exactly(samples, cut):
    # two halves at any split pool into the statistics of the whole run
    split = min(max(2, int(cut * samples.size)), samples.size - 2)
    merged = aggregate([_sample_table(samples[:split]), _sample_table(samples[split:])])
    (row,) = [r for r in merged.rows if r.std_error is not None]
    (whole,) = [r for r in _sample_table(samples).rows if r.std_error is not None]
    assert row.replicas == whole.replicas == samples.size
    assert row.value == pytest.approx(whole.value, rel=1e-12, abs=1e-12 * np.max(np.abs(samples)))
    assert row.std_error == pytest.approx(whole.std_error, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(st.tuples(_SAMPLES, st.booleans()), min_size=3, max_size=3))
def test_aggregate_is_associative_and_commutative(parts):
    a, b, c = (_sample_table(x, verdict) for x, verdict in parts)
    flat = aggregate([a, b, c])
    for order in itertools.permutations([a, b, c]):
        assert aggregate(list(order)).to_csv() == flat.to_csv()
    scale = max(np.max(np.abs(x)) for x, _ in parts)
    for nested in (aggregate([aggregate([a, b]), c]), aggregate([a, aggregate([b, c])])):
        assert [(r.case, r.quantity, r.replicas, r.verdict) for r in nested.rows] == \
            [(r.case, r.quantity, r.replicas, r.verdict) for r in flat.rows]
        for r, ref in zip(nested.rows, flat.rows):
            assert r.value == pytest.approx(ref.value, rel=1e-12, abs=1e-12 * scale)
            if ref.std_error is not None:
                assert r.std_error == pytest.approx(ref.std_error, rel=1e-12)


def test_aggregate_rejects_conflicting_deterministic_rows():
    a = ResultTable([Row("energy", "k1", "drift", 1.0, None, 0, True)])
    b = ResultTable([Row("energy", "k1", "drift", 2.0, None, 0, True)])
    with pytest.raises(ValueError, match="disagree"):
        aggregate([a, b])


def test_replica_offset_runs_pool_to_single_run(tmp_path):
    # two 15-replica runs at offsets 0 and 15 merge into exactly the
    # 30-replica run (same streams, exact pooling)
    base = """
[experiment]
name = refinement
seed = 11
replicas = 15
"""
    t_a = run(parse_config(base).override(output=tmp_path / "a"))
    t_b = run(parse_config(base + "replica_offset = 15\n").override(output=tmp_path / "b"))
    t_full = run(parse_config(base.replace("replicas = 15", "replicas = 30"))
                 .override(output=tmp_path / "full"))
    merged = aggregate([t_a, t_b])
    full_rows = {(r.case, r.quantity): r for r in t_full.rows if r.std_error is not None}
    for row in merged.rows:
        if row.std_error is None:
            continue
        ref = full_rows[(row.case, row.quantity)]
        assert row.replicas == ref.replicas
        assert row.value == pytest.approx(ref.value, rel=1e-12)
        assert row.std_error == pytest.approx(ref.std_error, rel=1e-9)


def test_weighted_replica_offset_runs_pool_to_single_run(tmp_path):
    # the linear-growth solve: 30 + 30 replicas at offsets 0 and 30 pool
    # into exactly the 60-replica run
    base = """
[experiment]
name = weighted
seed = 11
replicas = 30
equivalence_fields = 2
envelope_replicas = 30
[grid]
n = 64
"""

    def moment_row(text, out):
        table = run(parse_config(text).override(output=tmp_path / out))
        return ResultTable([r for r in table.rows
                            if (r.case, r.quantity) == ("linear-growth", "moment_at_T")])

    t_a = moment_row(base, "a")
    t_b = moment_row(base.replace("[grid]", "replica_offset = 30\n[grid]"), "b")
    (ref,) = moment_row(base.replace("envelope_replicas = 30", "envelope_replicas = 60"),
                        "full").rows
    (row,) = aggregate([t_a, t_b]).rows
    assert row.replicas == ref.replicas == 60
    assert row.value == pytest.approx(ref.value, rel=1e-12)
    assert row.std_error == pytest.approx(ref.std_error, rel=1e-9)


def test_admissibility_experiment_matches_thresholds(tmp_path):
    table = run(_config("[experiment]\nname = admissibility\n").override(output=tmp_path))
    assert table.all_pass
    by_case = {r.case: r for r in table.rows}
    assert np.isinf(by_case["white-d2-k1"].value)
    assert by_case["white-d1-k1"].value == pytest.approx(0.5, rel=1e-10)
    assert np.isinf(by_case["riesz2.5-d3-k1"].value)
    assert np.isfinite(by_case["riesz2.5-d3-k2"].value)


def test_support_experiment_snapshot(tmp_path):
    from stochwave.lattice import read_field

    cfg = _config("[experiment]\nname = support\nsnapshots = true\n[grid]\nn = 256\nlength = 16\n")
    table = run(cfg.override(output=tmp_path))
    assert table.all_pass
    with open(tmp_path / "support_final.field", "rb") as fh:
        field = read_field(fh)
    assert field.grid.points_per_axis == 256


def test_cli_list_and_run(tmp_path, capsys):
    assert cli.main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    assert all(f"{name:18s} {criterion}" in out for name, (_, criterion, _) in EXPERIMENTS.items())

    cfg_path = tmp_path / "energy.ini"
    cfg_path.write_text(ENERGY_CFG)
    assert cli.main(["run", str(cfg_path), "--output", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "energy.csv").exists()


def test_cli_prints_a_failing_numpy_value_as_the_csv_does(tmp_path, capsys, monkeypatch):
    table = ResultTable([Row("weighted", "linear-growth", "moment_at_T",
                             np.float64(729.4534798904585), 1.5, 30, False),
                         Row("weighted", "linear-growth", "envelope_excess", 0.5, None, 30, True)])
    monkeypatch.setattr(cli, "run", lambda cfg: table)
    cfg_path = tmp_path / "energy.ini"
    cfg_path.write_text(ENERGY_CFG)
    assert cli.main(["run", str(cfg_path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "failing rows:\n  weighted,linear-growth,moment_at_T = 729.4534798904585\n"
    assert "weighted,linear-growth,moment_at_T,729.4534798904585,1.5,30,fail" in table.to_csv()


def test_cli_aggregate(tmp_path):
    cfg_path = tmp_path / "energy.ini"
    cfg_path.write_text(ENERGY_CFG)
    cli.main(["run", str(cfg_path), "--output", str(tmp_path / "o1")])
    cli.main(["run", str(cfg_path), "--output", str(tmp_path / "o2")])
    rc = cli.main(["aggregate", str(tmp_path / "o1" / "energy.csv"),
                   str(tmp_path / "o2" / "energy.csv"),
                   "--output", str(tmp_path / "merged.csv")])
    assert rc == 0
    merged = ResultTable.from_csv((tmp_path / "merged.csv").read_text())
    assert merged.all_pass and len(merged.rows) == 2


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nname = nosuch\n")
    assert cli.main(["run", str(bad)]) == 2
    assert cli.main(["run", str(tmp_path / "missing.ini")]) == 2


@pytest.mark.parametrize("options, extra, message", [
    (["--replicas", "0"], "", "[experiment] replicas"),
    (["--seed", "-1"], "", "[experiment] seed"),
    ([], "replica_offset = -3\n", "[experiment] replica_offset"),
    ([], "seed = -1\n", "[experiment] seed"),
])
def test_cli_checks_overrides_like_the_config_file(tmp_path, capsys, options, extra, message):
    cfg_path = tmp_path / "energy.ini"
    cfg_path.write_text(ENERGY_CFG.replace("seed = 77\n", extra))
    assert cli.main(["run", str(cfg_path), "--output", str(tmp_path / "out"), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["isometry", "refinement", "weighted"])
def test_cli_refuses_a_single_replica(tmp_path, capsys, experiment):
    # one replica has no standard error, so a Monte Carlo verdict would pass vacuously
    config = Path(__file__).resolve().parent.parent / "configs" / f"{experiment}.ini"
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--replicas", "1", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[experiment] replicas: must be >= 2" in err
    assert not out.exists()


@pytest.mark.parametrize("scale, code", [(1.0, 0), (10000.0, 2)])
def test_one_minus_exp_fails_outside_its_lipschitz_box(tmp_path, capsys, scale, code):
    # exp(3) bounds the slope of 1 - exp(-u) only on |u| <= 3; the bump peaks
    # at 1 / e, and noise 10**4 times stronger drives the solution out of the box
    cfg_path = tmp_path / "support.ini"
    cfg_path.write_text("[experiment]\nname = support\nseed = 5\n[measure]\n"
                        f"scale = {scale}\n[solver]\nnonlinearity = one-minus-exp\n")
    assert cli.main(["run", str(cfg_path), "--output", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and "max|u| = 3.87815" in err and "|u| <= 3" in err
    else:
        assert (tmp_path / "out" / "support.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("[experiment]\nname = picard\n[solver]\nnonlinearity = bogus\n", "unknown nonlinearity"),
    ("[experiment]\nname = energy\n[grid]\nn = 100\n", "power of two"),
    ("[experiment]\nname = picard\n[solver]\nnonlinearity = one-minus-exp\n", "Lipschitz"),
    ("[experiment]\nname = picard\nratio_replicas = 0\n", "[experiment] ratio_replicas"),
    ("[experiment]\nname = picard\nreplicas = 10\n", "[experiment] replicas"),
    ("[experiment]\nname = weighted\nequivalence_fields = 0\n", "[experiment] equivalence_fields"),
    ("[experiment]\nname = weighted\nequivalence_fields = -3\n", "[experiment] equivalence_fields"),
    ("[experiment]\nname = weighted\nenvelope_replicas = 10\n",
     "[experiment] envelope_replicas: moment tracking needs at least 30"),
    ("[experiment]\nname = refinement\nbase_time = -0.5\n", "[experiment] base_time"),
    ("[experiment]\nname = refinement\nbase_time = 0.3\n", "[experiment] base_time"),
    ("[experiment]\nname = refinement\nbase_time = 0\n", "[experiment] base_time"),
    ("[experiment]\nname = support\n[grid]\nlength = 8\n", "[grid] length: box length 8.0 < 9.0"),
    ("[experiment]\nname = energy\n[grid]\nn = abc\n", "[grid] n: expected an integer"),
    ("[experiment]\nname = energy\n[grid]\nlength = 1.0.0\n", "[grid] length: expected a number"),
    ("[experiment]\nname = energy\n[grid]\nlength = inf\n", "[grid] length: expected a finite number"),
    ("[experiment]\nname = energy\n[green]\nhorizon = nan\n",
     "[green] horizon: expected a finite number"),
])
def test_cli_run_time_config_error_exit_code(tmp_path, capsys, text, message):
    # bad values, refused when the config is parsed or when the experiment starts
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert cli.main(["run", str(bad), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, kind", [("scale", "white"), ("alpha", "riesz"),
                                       ("tail_exponent", "radial-table")])
def test_cli_non_finite_measure_parameter_exit_code(tmp_path, capsys, key, kind, value):
    table = tmp_path / "table.csv"
    table.write_text("0.5,1.0\n1.0,0.5\n2.0,0.25\n")
    extra = {"radial-table": f"table_path = {table}\n"}.get(kind, "")
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[experiment]\nname = picard\n[measure]\nkind = {kind}\n{extra}{key} = {value}\n")
    assert cli.main(["run", str(bad), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: [measure] {key}: ") and value in err
    assert not (tmp_path / "out" / "picard.csv").exists()


_IMPORT_PROBE = """
import json, sys
import stochwave.cli as cli
def scipy_loaded():
    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))
loaded = [scipy_loaded()]
assert cli.main(['run', sys.argv[1], '--output', sys.argv[2]]) == 0
loaded.append(scipy_loaded())
from stochwave.covariance import SpectralMeasure, admissibility_integral
from stochwave.lattice import Grid
SpectralMeasure.riesz(2, 1.0).lattice_weights(Grid(2, 8, 8.0))  # an isometry riesz case
assert admissibility_integral(SpectralMeasure.riesz(2, 1.0), 1) < float('inf')
assert admissibility_integral(SpectralMeasure.white(1), 1) < float('inf')
loaded.append(scipy_loaded())
print(json.dumps({'loaded': loaded, 'riesz': SpectralMeasure.riesz(2, 1.0).riesz_constant.hex()}))
"""


def test_white_noise_run_does_not_import_quadrature(tmp_path):
    # the transforms run on numpy.fft, and the riesz normalization and the
    # white and riesz admissibility values are closed forms, so neither a
    # white-noise run nor a riesz weight table or admissibility value loads
    # a scipy module
    cfg_path = tmp_path / "energy.ini"
    cfg_path.write_text(ENERGY_CFG + "[grid]\nn = 32\n[solver]\nsteps = 32\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(cfg_path), str(tmp_path / "out")],
                          capture_output=True, text=True, check=True, env=env)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["loaded"] == [[], [], []]
    # the riesz constant is a ratio of Gaussian radial moments 2**(a/2 - 1) Gamma(a/2)
    d, alpha = 2, 1.0

    def moment(a):
        return 2.0 ** (a / 2.0 - 1.0) * math.gamma(a / 2.0)

    assert float.fromhex(result["riesz"]) == moment(d - alpha) / ((2.0 * math.pi) ** (d / 2.0) * moment(alpha))
