#!/usr/bin/env python3
"""Run the solver against the brute-force reference on random instances.

Generates a batch of small random programs, solves each one, and compares
the result with the grid oracle where the dimension permits.  Prints a
per-instance table and a summary of certificate kinds and timings.

Usage:
    python3 scripts/random_battery.py --count 25 --max-n 3 --seed 0
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from fracdual import (
    CertificateKind,
    DimensionTooLargeError,
    generate_program,
    grid_minimize_objective,
    solve,
)


def run_one(seed: int, max_n: int):
    n = 1 + seed % max_n
    m = seed % 4
    prog = generate_program(n=n, m=m, seed=seed)
    t0 = time.perf_counter()
    res = solve(prog)
    elapsed = time.perf_counter() - t0
    row = {
        "seed": seed,
        "n": n,
        "m": m,
        "p0": res.P0_value,
        "mu": res.mu_star,
        "kind": res.certificate.kind.value,
        "ms": 1e3 * elapsed,
        "oracle": None,
        "diff": None,
    }
    try:
        ref = grid_minimize_objective(prog)
    except DimensionTooLargeError:
        return row
    row["oracle"] = ref.min_value
    row["diff"] = res.P0_value - ref.min_value
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=25, help="number of instances")
    ap.add_argument("--max-n", type=int, default=3, help="largest dimension to draw")
    ap.add_argument("--seed", type=int, default=0, help="first seed of the batch")
    args = ap.parse_args()

    print(f"{'seed':>6} {'n':>2} {'m':>2} {'P0':>14} {'mu*':>10} "
          f"{'certificate':>12} {'ms':>7} {'vs oracle':>11}")
    rows = []
    for seed in range(args.seed, args.seed + args.count):
        row = run_one(seed, args.max_n)
        rows.append(row)
        diff = "" if row["diff"] is None else f"{row['diff']:+.2e}"
        print(f"{row['seed']:>6} {row['n']:>2} {row['m']:>2} {row['p0']:>14.6f} "
              f"{row['mu']:>10.4f} {row['kind']:>12} {row['ms']:>7.1f} {diff:>11}")

    kinds = {}
    for row in rows:
        kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
    checked = [r for r in rows if r["diff"] is not None]
    worst = max((abs(r["diff"]) for r in checked), default=0.0)
    mean_ms = float(np.mean([r["ms"] for r in rows]))
    print()
    print(f"kinds: {kinds}")
    print(f"oracle comparisons: {len(checked)}, worst |difference| {worst:.3e}")
    print(f"mean solve time {mean_ms:.1f} ms")
    perfect = kinds.get(CertificateKind.PERFECT.value, 0)
    print(f"certified {perfect}/{len(rows)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
