"""Byte comparison of the shipped experiments' CSVs against a parent commit.

    python3 scripts/same_csvs.py --parent REV [--seed 20260810]

Exports ``REV`` with ``bench_pairs.export`` into a temporary directory.
There and in this checkout's working tree it runs ``stochwave run`` on
every ``configs/*.ini`` of the working tree, and ``configs/isometry.ini``
again at ``--replicas 200``, one run at a time, each tree with its own
``src`` first on ``PYTHONPATH``.  Every ``*.csv`` a run writes (the
trajectory CSVs too) is compared byte for byte with the other side's.
Each file that differs or that only one side wrote is named, and so is a
run that wrote no results.  For a file both sides wrote, the first
``ROWS_SHOWN`` rows that differ follow its name, the parent's line above
the change's.  Exits 1 on any of these, 0 when every CSV is identical.

A change that moves results on purpose fails this check, so it is run by
hand on changes meant to keep every value, not in CI.
"""

from __future__ import annotations

import argparse
import filecmp
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export


def runs() -> list[tuple[str, str, list[str]]]:
    """(label, config, extra arguments) of every run, in order."""
    out = [(p.stem, f"configs/{p.name}", []) for p in sorted((ROOT / "configs").glob("*.ini"))]
    out.append(("isometry-replicas-200", "configs/isometry.ini", ["--replicas", "200"]))
    return out


def run_all(tree: Path, out: Path, seed: int) -> list[str]:
    """Runs every experiment in ``tree`` into ``out/<label>``; the problems seen."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"),
                                                      env.get("PYTHONPATH")]))
    problems = []
    for label, config, extra in runs():
        cmd = [sys.executable, "-m", "stochwave.cli", "run", config, "--seed", str(seed),
               "--output", str(out / label), *extra]
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        # exit 1 may be a failing verdict, whose rows are still written and compared
        if proc.returncode not in (0, 1) or not any((out / label).glob("*.csv")):
            problems.append(f"{label}: exit {proc.returncode} in {tree}\n{proc.stderr[-2000:]}")
    return problems


def differing(parent: Path, change: Path) -> list[str]:
    """Relative paths of the CSVs that differ or exist on one side only."""
    names = {p.relative_to(side) for side in (parent, change) for p in side.rglob("*.csv")}
    return [str(name) for name in sorted(names)
            if not ((parent / name).is_file() and (change / name).is_file()
                    and filecmp.cmp(parent / name, change / name, shallow=False))]


ROWS_SHOWN = 3  # differing rows printed per file


def differing_rows(parent: Path, change: Path) -> list[str]:
    """Lines showing the first ``ROWS_SHOWN`` differing rows of a CSV both sides wrote,
    each as the parent's line above the change's; none for a file one side lacks."""
    if not (parent.is_file() and change.is_file()):
        return []
    rows = itertools.zip_longest(parent.read_text().splitlines(),
                                 change.read_text().splitlines(), fillvalue="(no row)")
    pairs = [(n, a, b) for n, (a, b) in enumerate(rows, start=1) if a != b]
    out = []
    for n, a, b in pairs[:ROWS_SHOWN]:
        out += [f"  line {n} parent: {a}", f"  line {n} change: {b}"]
    if len(pairs) > ROWS_SHOWN:
        out.append(f"  ... and {len(pairs) - ROWS_SHOWN} more differing rows")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--seed", type=int, default=20260810)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        commit = export(args.parent, tmp)
        problems = run_all(tmp / "parent", tmp / "out-parent", args.seed)
        problems += run_all(ROOT, tmp / "out-change", args.seed)
        diff = {name: differing_rows(tmp / "out-parent" / name, tmp / "out-change" / name)
                for name in differing(tmp / "out-parent", tmp / "out-change")}
        compared = len(list((tmp / "out-change").rglob("*.csv")))
    for line in problems:
        print(f"run failed: {line}")
    for name, rows in diff.items():
        print(f"differs: {name}", *rows, sep="\n")
    verdict = "differ" if problems or diff else "identical"
    print(f"{compared} CSVs of {len(runs())} runs at seed {args.seed} against {commit[:12]}: "
          f"{verdict}")
    return 1 if problems or diff else 0


if __name__ == "__main__":
    sys.exit(main())
