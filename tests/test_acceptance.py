"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest
tests/test_acceptance.py -v -s`` to see them.  The criteria are exact in
the discrete model (the second-moment identity and its consequences
hold with equality up to Monte Carlo sampling error), so failures here
indicate implementation bugs rather than discretization error.
"""

import csv
from pathlib import Path

import pytest

from stochwave.harness import parse_config, run

SEED = 20260810
# every CSV the eight configs write at SEED, from
# ``stochwave run configs/<name>.ini --output tests/expected``
EXPECTED = Path(__file__).parent / "expected"
# a pinned number may move by |a - b| <= REL * max(|a|, |b|) + ABS, fixed before
# the first comparison: ABS covers rows that are rounding noise, such as
# two_guess_gap and alternative_rel_err; every other cell must match exactly
REL, ABS = 1e-12, 1e-14
NUMERIC = {"value", "std_error", "t", "m_n", "moment", "band"}


def _report(number: int, ok: bool, text: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {text}")


@pytest.fixture(scope="session")
def acceptance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def tables(acceptance_dir):
    """Run each named experiment once at its acceptance settings, writing every CSV
    into ``acceptance_dir``."""
    results = {}
    for name in ("admissibility", "isometry", "mollifier-ladder", "picard",
                 "energy", "support", "weighted", "refinement"):
        cfg = parse_config(f"[experiment]\nname = {name}\nseed = {SEED}\n")
        results[name] = run(cfg.override(output=acceptance_dir))
    return results


def _moved_cells(name: str, expected: Path, got: Path) -> list[str]:
    """Each cell of ``got`` that differs from ``expected`` beyond the bound, named."""
    want, have = (list(csv.reader(path.read_text().splitlines())) for path in (expected, got))
    if want[0] != have[0] or len(want) != len(have):
        return [f"{name}: header {have[0]} and {len(have) - 1} rows, "
                f"expected {want[0]} and {len(want) - 1} rows"]
    moved = []
    for line, (a_row, b_row) in enumerate(zip(want[1:], have[1:]), start=2):
        if len(a_row) != len(b_row):
            moved.append(f"{name} line {line}: {b_row}, expected {a_row}")
        for column, a, b in zip(want[0], a_row, b_row):
            if a == b:
                continue
            if column in NUMERIC and a and b:
                x, y = float(a), float(b)
                if abs(x - y) <= REL * max(abs(x), abs(y)) + ABS:
                    continue
            moved.append(f"{name} line {line} ({','.join(a_row[:3])}) {column}: {a} -> {b}")
    return moved


def _rows(tables, experiment, quantity=None, case=None):
    rows = tables[experiment].rows
    if quantity is not None:
        rows = [r for r in rows if r.quantity == quantity]
    if case is not None:
        rows = [r for r in rows if r.case == case]
    return rows


def test_criterion_01_admissibility_thresholds(tables):
    # verdicts across d in 1..4, k in {1,2}, alpha in {0.5,...,3.5}
    # must match the analytic thresholds exactly
    table = tables["admissibility"]
    ok = table.all_pass and len(table.rows) == 40
    _report(1, ok, "admissibility verdicts match analytic thresholds (exact)")
    assert ok


def test_criterion_02_second_moment_identity(tables):
    # |MC - functional| <= 3 s.e. at 1000 replicas on the 6-case matrix
    rows = _rows(tables, "isometry", "mc_moment")
    ok = len(rows) == 6 and all(r.verdict and r.replicas == 1000 for r in rows)
    _report(2, ok, "second-moment identity within 3 s.e. on all 6 cases")
    assert ok


def test_criterion_03_modulation_equivalence(tables):
    # the two functional code paths agree to 1e-8 relative on all cases
    rows = _rows(tables, "isometry", "alternative_rel_err")
    ok = len(rows) == 6 and all(r.verdict and r.value <= 1e-8 for r in rows)
    _report(3, ok, "modulated-integrand form matches functional to 1e-8")
    assert ok


def test_criterion_04_bound_chain(tables):
    # functional <= bound everywhere; equality for white noise
    excess = _rows(tables, "isometry", "bound_excess")
    equality = _rows(tables, "isometry", "white_equality_rel")
    ok = (len(excess) == 6 and all(r.verdict for r in excess)
          and len(equality) == 3 and all(r.verdict and r.value <= 1e-12 for r in equality))
    _report(4, ok, "bound chain holds; exact equality for white noise")
    assert ok


def test_criterion_05_approximation_ladders(tables):
    rows = {(r.case, r.quantity): r for r in tables["mollifier-ladder"].rows}
    ok = all(rows[(c, q)].verdict
             for c in ("green", "truncation")
             for q in ("strictly_decreasing", "final_over_initial"))
    ok = ok and all(rows[(c, "final_over_initial")].value < 0.05
                    for c in ("green", "truncation"))
    _report(5, ok, "smoothing/truncation ladders decrease strictly to < 5%")
    assert ok


def test_criterion_06_fixed_point(tables):
    rows = {r.quantity: r for r in _rows(tables, "picard", case="fixed-point")}
    contraction = {r.quantity: r for r in _rows(tables, "picard", case="contraction")}
    ok = (rows["sweep_vs_picard_sup"].verdict and rows["sweep_vs_picard_sup"].value <= 1e-10
          and rows["two_guess_gap"].verdict and rows["two_guess_gap"].value <= 1e-10
          and contraction["ratios_decreasing"].verdict)
    _report(6, ok, "sweep = Picard fixed point to 1e-10; contraction ratios decrease")
    assert ok


def test_picard_fixed_point_is_pinned(tables):
    # at this seed the Picard solve from u0 stops after 11 updates at the shipped
    # tolerance (10 at 1e-12), lands within rounding of the sweep, and the zero
    # guess reaches the same bits; a Green-pair table that moved one bit moves these
    rows = {r.quantity: r.value for r in _rows(tables, "picard", case="fixed-point")}
    assert rows["picard_iterations"] == 11
    assert rows["sweep_vs_picard_sup"] <= 1e-14
    assert rows["two_guess_gap"] == 0


def test_criterion_07_moment_envelope(tables):
    rows = {r.quantity: r for r in _rows(tables, "picard", case="moment")}
    ok = rows["moment_at_T"].verdict and rows["moment_at_T"].replicas == 100 \
        and rows["envelope_excess"].value <= 0.0
    _report(7, ok, "MC moments stay below 2||u0||^2 exp(2KCt) + 3 s.e. (100 replicas)")
    assert ok


def test_criterion_08_energy_conservation(tables):
    rows = _rows(tables, "energy", "energy_rel_drift")
    ok = len(rows) == 2 and all(r.verdict and r.value <= 1e-10 for r in rows)
    _report(8, ok, "noise-free spectral energy constant to 1e-10 over 256 steps, k in {1,2}")
    assert ok


def test_criterion_09_finite_speed(tables):
    row = _rows(tables, "support", "max_outside_cone")[0]
    ok = row.verdict and row.value <= 1e-10
    _report(9, ok, "solution vanishes outside |x| <= 1 + t + 2h to 1e-10")
    assert ok


def test_criterion_10_weighted_suite(tables):
    rows = {(r.case, r.quantity): r for r in tables["weighted"].rows}
    sandwich = rows[("sandwich", "pointwise_ok")].verdict
    equivalence = rows[("equivalence", "violations")].verdict
    lemma_bound = rows[("moment-bound", "mc_moment")]
    growth = rows[("linear-growth", "moment_at_T")]
    ok = (sandwich and equivalence
          and lemma_bound.verdict and lemma_bound.replicas == 1000
          and growth.verdict)
    _report(10, ok, "weight sandwich, shell equivalence, weighted bound, affine envelope")
    assert ok


def test_criterion_11_time_increment_refinement(tables):
    rows = _rows(tables, "refinement", "increment_moment")
    summary = _rows(tables, "refinement", "decreasing_under_halving")[0]
    ok = len(rows) == 4 and summary.verdict
    _report(11, ok, "E||u(t+dt) - u(t)||^2 decreases under dt halving, 3 levels")
    assert ok


def test_every_shipped_value_is_pinned(tables, acceptance_dir):
    # every CSV of the eight experiments, the two trajectories included, matches
    # tests/expected row by row: text, counts and verdicts exactly, numbers to
    # REL and ABS; README says how to rewrite the files when a value moves on purpose
    names = sorted(path.name for path in EXPECTED.glob("*.csv"))
    assert names == sorted(path.name for path in acceptance_dir.glob("*.csv"))
    assert len(names) == 10
    moved = [cell for name in names
             for cell in _moved_cells(name, EXPECTED / name, acceptance_dir / name)]
    assert not moved, "moved cells:\n" + "\n".join(moved)
