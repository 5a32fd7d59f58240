#!/usr/bin/env python3
"""Dump the dual value profile and a dual landscape slice for one instance.

Builds the bundled one-dimensional demonstration instance (or reads one
from a file), sweeps the level parameter to a CSV profile, and rasterizes
the dual function around the maximizer of a chosen slice.  With --plot and
matplotlib installed, renders both as PNG files instead.

Usage:
    python3 scripts/landscape_demo.py --out-dir /tmp/landscape
    python3 scripts/landscape_demo.py --instance my.json --at-mu 1.5 --plot
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from fracdual import (
    DualPoint,
    NotPDError,
    SolverOptions,
    evaluate_dual,
    maximize_dual,
    parse_instance,
    solve,
    validate,
)
from fracdual.solver import mu_grid


def demo_instance():
    # one-dimensional well with a strictly concave margin, the interval
    # of level parameters is [1, 2]
    return validate(
        Q=np.array([[2.0]]),
        f_vec=np.array([0.0]),
        B=np.array([[1.0]]),
        lam=1.0,
        H=np.array([[-2.0]]),
        b_vec=np.array([-2.0]),
        delta=0.5,
    )


def profile_rows(prog, grid: int):
    opts = SolverOptions(grid=grid)
    rows = []
    for mu in mu_grid(prog, grid):
        sol = maximize_dual(prog, float(mu), opts)
        rows.append((float(mu), sol.value))
    return rows


def landscape_rows(prog, mu: float, shape: tuple[int, int]):
    sol = maximize_dual(prog, mu)
    vs0, sg0 = sol.point.varsigma, sol.point.sigma
    width = 1.0 + 2.0 * (abs(vs0) + sg0)
    vs_axis = np.linspace(max(-prog.lam, vs0 - width), vs0 + width, shape[0])
    sg_axis = np.linspace(max(0.0, sg0 - width), sg0 + width, shape[1])
    rows = []
    for vs in vs_axis:
        for sg in sg_axis:
            try:
                val = evaluate_dual(prog, DualPoint(mu, float(vs), float(sg))).value
            except NotPDError:
                val = np.nan
            rows.append((float(vs), float(sg), val))
    return rows, vs_axis, sg_axis


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instance", type=Path, default=None,
                    help="instance file (default: bundled 1-d demo)")
    ap.add_argument("--at-mu", type=float, default=None,
                    help="slice for the landscape (default: solver's best)")
    ap.add_argument("--grid", type=int, default=64)
    ap.add_argument("--shape", type=int, nargs=2, default=(40, 40),
                    metavar=("ROWS", "COLS"))
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    ap.add_argument("--plot", action="store_true",
                    help="write PNGs with matplotlib instead of CSVs")
    args = ap.parse_args()

    if args.instance is not None:
        prog = parse_instance(args.instance.read_text())
    else:
        prog = demo_instance()

    res = solve(prog, SolverOptions(grid=args.grid))
    print(f"best value {res.P0_value:.9f} at mu*={res.mu_star:.6f} "
          f"(certificate {res.certificate.kind.value})")
    mu_slice = args.at_mu if args.at_mu is not None else res.mu_star

    prof = profile_rows(prog, args.grid)
    grid_rows, vs_axis, sg_axis = landscape_rows(prog, mu_slice, tuple(args.shape))

    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not available, falling back to CSV output")
            args.plot = False

    if args.plot:
        fig, ax = plt.subplots()
        ax.plot([r[0] for r in prof], [r[1] for r in prof])
        ax.axvline(res.mu_star, ls="--", c="gray")
        ax.set_xlabel("mu")
        ax.set_ylabel("dual optimum")
        fig.savefig(args.out_dir / "profile.png", dpi=150)

        grid = np.array([r[2] for r in grid_rows]).reshape(len(vs_axis), len(sg_axis))
        fig, ax = plt.subplots()
        im = ax.pcolormesh(sg_axis, vs_axis, grid, shading="auto")
        fig.colorbar(im, ax=ax, label="dual value")
        ax.set_xlabel("sigma")
        ax.set_ylabel("varsigma")
        ax.set_title(f"dual landscape at mu={mu_slice:.4f}")
        fig.savefig(args.out_dir / "landscape.png", dpi=150)
        print(f"wrote {args.out_dir / 'profile.png'} and "
              f"{args.out_dir / 'landscape.png'}")
        return 0

    prof_path = args.out_dir / "profile.csv"
    with prof_path.open("w") as fh:
        fh.write("mu,dual_value\n")
        for mu, val in prof:
            fh.write(f"{mu:.12g},{val:.12g}\n")
    land_path = args.out_dir / "landscape.csv"
    with land_path.open("w") as fh:
        fh.write("varsigma,sigma,dual_value\n")
        for vs, sg, val in grid_rows:
            cell = "nonPD" if np.isnan(val) else f"{val:.12g}"
            fh.write(f"{vs:.12g},{sg:.12g},{cell}\n")
    print(f"wrote {prof_path} and {land_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
