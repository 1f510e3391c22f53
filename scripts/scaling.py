"""Scaling sweep of the Monte Carlo kernel over the replicas in a block.

    python3 scripts/scaling.py --pr N
    python3 scripts/scaling.py --smallest

Times ``stochint.convolution_norms_mc`` on one isometry-style case (riesz
noise of alpha 0.5, k = 1, horizon 0.5 in 8 steps, L = 16, the integrand
exp(-|x|**2)) at d = 1 and 2 with N = 32 to 256 and at d = 3 with N = 16
and 32.  On each grid it forces each block size of ``ROWS`` whose three
block buffers fit in ``MAX_BLOCK_BYTES``, by setting
``noise._BLOCK_ENTRIES`` to that many times the float64 words one replica
holds (``stochint._replica_words``), and runs as many replicas as the
largest such size, so that every size fills at least one block.

Each point runs in a fresh process: one call to warm caches, ``REPEATS``
calls timed by process CPU time, then one call under ``tracemalloc`` for
its peak.  The blocks move no value (each replica reads only its own
stream), so the points differ in cost only.  The block size the package
picks on that grid is a point too, marked ``shipped``.

With ``--pr N`` it writes the table under the ``scaling`` key of
``BENCH_<N>.json`` at the repository root, keeping the file's other keys
(``scripts/bench_pairs.py`` writes ``workloads``).  ``--smallest`` runs
the first point alone, once, and prints its row without writing: a check
that the script still runs.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

GRIDS = ((1, 32), (1, 64), (1, 128), (1, 256), (2, 32), (2, 64), (2, 128), (2, 256),
         (3, 16), (3, 32))
ROWS = (1, 2, 3, 5, 7, 10, 15, 31, 84, 256)
MAX_BLOCK_BYTES = 32 * 2**20
STEPS, HORIZON, LENGTH = 8, 0.5, 16.0
REPEATS = 5


def points() -> list[tuple[int, int, int, int, bool]]:
    """``(d, n, rows, replicas, shipped)`` of the sweep: the fitting sizes of ``ROWS`` and the
    shipped one, replicas the largest of them."""
    from stochwave.lattice import Grid
    from stochwave.noise import replica_blocks
    from stochwave.stochint import _replica_words

    out = []
    for d, n in GRIDS:
        words = _replica_words(Grid(d, n, LENGTH))
        shipped = replica_blocks(256, words)[0][1]
        rows = sorted({r for r in ROWS if r * words * 8 <= MAX_BLOCK_BYTES} | {shipped})
        out += [(d, n, r, rows[-1], r == shipped) for r in rows]
    return out


def point(spec: tuple[int, int, int, int, bool, int]) -> dict:
    """Time and trace ``convolution_norms_mc`` at one ``(*points()[i], repeats)``."""
    import tracemalloc

    import stochwave.noise as noise
    from stochwave.covariance import SpectralMeasure
    from stochwave.greens import GreenMultiplier
    from stochwave.lattice import Grid
    from stochwave.stochint import IntegrandProcess, _replica_words, convolution_norms_mc

    d, n, rows, replicas, shipped, repeats = spec
    grid = Grid(d, n, LENGTH)
    z = IntegrandProcess.constant(grid, np.exp(-grid.coord_norm_sq), STEPS, HORIZON / STEPS)
    g, measure = GreenMultiplier(1, HORIZON), SpectralMeasure.riesz(d, 0.5)
    vol = grid.box_length**d
    noise._BLOCK_ENTRIES = rows * _replica_words(grid)

    def call(rngs):
        convolution_norms_mc(g, z, measure, replicas, rngs,
                             lambda acc: grid.half_sum(acc.real**2 + acc.imag**2) / vol)

    def streams():  # made outside the timed and traced calls
        return [np.random.default_rng(r) for r in range(replicas)]

    call(streams())
    cpu = []
    for _ in range(repeats):
        rngs = streams()
        start = time.process_time()
        call(rngs)
        cpu.append(time.process_time() - start)
    rngs = streams()
    tracemalloc.start()
    try:
        call(rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    median = statistics.median(cpu)
    return {"d": d, "n": n, "rows": rows, "replicas": replicas, "steps": STEPS,
            "shipped": shipped, "block_buffer_bytes": rows * _replica_words(grid) * 8,
            "cpu_s": cpu, "cpu_s_median": median,
            "cpu_us_per_replica_step": 1e6 * median / (replicas * STEPS),
            "tracemalloc_peak_bytes": peak}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--pr", help="suffix of the BENCH_<PR>.json record")
    which.add_argument("--smallest", action="store_true",
                       help="run the first point once and write nothing")
    args = parser.parse_args(argv)
    specs = [(*p, REPEATS) for p in points()]
    if args.smallest:
        specs = [specs[0][:5] + (1,)]
    ctx = multiprocessing.get_context("spawn")
    table = []
    with ctx.Pool(1, maxtasksperchild=1) as pool:  # a fresh process a point
        for row in pool.imap(point, specs, chunksize=1):
            table.append(row)
            print(f"d={row['d']} N={row['n']} rows={row['rows']:3d}: "
                  f"{row['cpu_us_per_replica_step']:8.1f} us a replica-step, "
                  f"peak {row['tracemalloc_peak_bytes'] / 2**20:6.2f} MiB"
                  + (" (shipped)" if row["shipped"] else ""), flush=True)
    if args.smallest:
        return 0
    out = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(out.read_text()) if out.exists() else {}
    record["scaling"] = {
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "kernel": "stochint.convolution_norms_mc, riesz alpha 0.5, k = 1",
        "repeats": REPEATS,
        "max_block_bytes": MAX_BLOCK_BYTES,
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(),
        "points": table,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
