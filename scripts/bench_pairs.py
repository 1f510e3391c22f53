"""Paired benchmark of a change against its parent commit.

    python3 scripts/bench_pairs.py --parent REV --pr N
        [--workload W ...] [--pairs 10] [--seed 20260810] [--seconds 40]

Exports ``REV`` with ``git archive`` into a temporary directory, and
copies beside it this checkout's working tree as git sees it: the
tracked files plus the untracked ones ``.gitignore`` does not ignore, so
neither side carries caches or outputs of earlier runs.  It runs
``python3 perfbench/run.py --workload W --seed S --seconds T`` in both
copies, one run at a time, for ``--pairs`` pairs per workload.  The side
that goes first alternates from pair to pair, so a drift in host speed
does not favour one side.  Each run's metrics come from the JSON object
on its last stdout line.

Writes ``BENCH_<N>.json`` at the repository root: per workload and
metric, both sides' values, medians and quartiles, the change/parent
ratio of the medians, and the number of pairs the change won (every
end-to-end metric is lower-is-better).  ``gain_holds`` records whether
the change won at least 9 pairs in 10 and its median beats the parent's
by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc-isometry", "picard-solve", "sweep-ensemble")


def export(rev: str, dest: Path) -> str:
    """Unpack ``rev`` into ``dest``; returns the full commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = dest / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                       stdout=fh)
    tree = dest / "parent"
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return commit


def export_worktree(dest: Path) -> Path:
    """Copy the working tree's tracked and unignored untracked files into ``dest``/change."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, check=True, capture_output=True).stdout.split(b"\0")
    tree = dest / "change"
    for name in map(os.fsdecode, filter(None, names)):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree stays out
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, tree / name)
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its JSON result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed in {tree}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Per-metric statistics of paired runs (lower is better for every metric)."""
    out = {}
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        ps, cs = summarize(p), summarize(c)
        won = sum(b < a for a, b in zip(p, c))
        out[name] = {
            "unit": parent[0]["metrics"][name]["unit"],
            "parent": ps,
            "change": cs,
            "ratio_change_over_parent": cs["median"] / ps["median"] if ps["median"] else None,
            "pairs_won": won,
            "pairs": len(p),
            "gain_holds": won >= 0.9 * len(p) and ps["median"] - cs["median"] > ps["iqr"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pr", required=True, help="suffix of the BENCH_<PR>.json record")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = args.workload or list(WORKLOADS)

    record = {
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": args.seed,
        "seconds_per_run": args.seconds,
        "change": "working tree, tracked and unignored files",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        record["parent"] = export(args.parent, Path(tmp))
        trees = {"parent": Path(tmp) / "parent", "change": export_worktree(Path(tmp))}
        for workload in workloads:
            runs: dict = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, args.seed, args.seconds)
                    runs[side].append(result)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          + ", ".join(f"{k} {v['value']:.4g}"
                                      for k, v in result["metrics"].items()), flush=True)
            record["workloads"][workload] = {
                "all_correct": all(r["correct"] for side in runs.values() for r in side),
                "metrics": compare(runs["parent"], runs["change"]),
            }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
