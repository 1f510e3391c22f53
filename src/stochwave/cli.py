"""Command-line entry point: run experiments, aggregate results."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import EXPERIMENTS, ResultTable, aggregate, parse_config_file, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochwave",
        description="Spectral simulation and verification suite for "
                    "second-order-in-time stochastic PDEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("config", help="path to the INI experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--replicas", type=int, default=None, help="override the replica count")
    p_run.add_argument("--output", default=None, help="output directory")

    p_agg = sub.add_parser("aggregate", help="merge result CSVs (replica-weighted)")
    p_agg.add_argument("files", nargs="+", help="result CSV files to merge")
    p_agg.add_argument("--output", default=None, help="write merged CSV here (default stdout)")

    sub.add_parser("list-experiments", help="list experiment names")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-experiments":
        for name, (_, criterion, _) in EXPERIMENTS.items():
            print(f"{name:18s} {criterion}")
        return 0

    if args.command == "aggregate":
        try:
            tables = [ResultTable.from_csv(Path(f).read_text()) for f in args.files]
            merged = aggregate(tables)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = merged.to_csv()
        if args.output is None:
            sys.stdout.write(text)
        else:
            Path(args.output).write_text(text)
        return 0

    # run; a bad config value can also surface while the experiment is built
    try:
        cfg = parse_config_file(args.config)
        cfg = cfg.override(seed=args.seed, replicas=args.replicas, output=args.output)
        table = run(cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_path = cfg.output_dir / f"{cfg.name}.csv"
    print(f"{cfg.name}: {len(table.rows)} rows -> {out_path}")
    if table.all_pass:
        return 0
    print("failing rows:", file=sys.stderr)
    for row in table.failing():
        print(f"  {row.experiment},{row.case},{row.quantity} = {row.value!r}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
