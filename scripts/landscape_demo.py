#!/usr/bin/env python3
"""Dump the dual value profile and a dual landscape slice for one instance.

Writes the bundled one-dimensional demonstration instance (or reads one
from a file), then runs `fracdual sweep` twice: once for the CSV profile
over the level parameter, once for the dual function rasterized around the
maximizer of a chosen slice.  With --plot and matplotlib installed, also
renders both as PNG files.

Usage:
    python3 scripts/landscape_demo.py --out-dir /tmp/landscape
    python3 scripts/landscape_demo.py --instance my.json --at-mu 1.5 --plot
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from fracdual import parse_instance, serialize_instance, solve, validate
from fracdual.cli import main as fracdual_main


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


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _cell(text: str) -> float:
    return float(text) if text and text != "nonPD" else np.nan


def plot(out_dir: Path, prof_path: Path, land_path: Path, mu_star: float, mu_slice: float):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    prof = _read_csv(prof_path)
    fig, ax = plt.subplots()
    ax.plot([float(r[0]) for r in prof], [_cell(r[1]) for r in prof])
    ax.axvline(mu_star, ls="--", c="gray")
    ax.set_xlabel("mu")
    ax.set_ylabel("dual optimum")
    fig.savefig(out_dir / "profile.png", dpi=150)

    land = _read_csv(land_path)
    vs_axis = np.unique([float(r[0]) for r in land])
    sg_axis = np.unique([float(r[1]) for r in land])
    values = np.array([_cell(r[2]) for r in land]).reshape(len(vs_axis), len(sg_axis))
    fig, ax = plt.subplots()
    im = ax.pcolormesh(sg_axis, vs_axis, values, shading="auto")
    fig.colorbar(im, ax=ax, label="dual value")
    ax.set_xlabel("sigma")
    ax.set_ylabel("varsigma")
    ax.set_title(f"dual landscape at mu={mu_slice:.4f}")
    fig.savefig(out_dir / "landscape.png", dpi=150)
    print(f"wrote {out_dir / 'profile.png'} and {out_dir / 'landscape.png'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instance", type=Path, default=None,
                    help="instance file (default: bundled 1-d demo)")
    ap.add_argument("--at-mu", type=float, default=None,
                    help="slice for the landscape (default: solver's best)")
    ap.add_argument("--shape", type=int, nargs=2, default=(40, 40),
                    metavar=("ROWS", "COLS"))
    ap.add_argument("--out-dir", type=Path, default=Path("."))
    ap.add_argument("--plot", action="store_true",
                    help="also write PNGs with matplotlib")
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.instance is not None:
        inst_path = args.instance
        prog = parse_instance(inst_path.read_text())
    else:
        inst_path = args.out_dir / "demo_instance.json"
        prog = demo_instance()
        inst_path.write_text(serialize_instance(prog))

    res = solve(prog)
    print(f"best value {res.P0_value:.9f} at mu*={res.mu_star:.6f} "
          f"(certificate {res.certificate.kind.value})")
    mu_slice = args.at_mu if args.at_mu is not None else res.mu_star

    prof_path = args.out_dir / "profile.csv"
    land_path = args.out_dir / "landscape.csv"
    rows, cols = args.shape
    for argv in (
        ["sweep", str(inst_path), "--output", str(prof_path)],
        ["sweep", str(inst_path), "--at-mu", "%.17g" % mu_slice,
         "--landscape", f"{rows}x{cols}", "--output", str(land_path)],
    ):
        code = fracdual_main(argv)
        if code != 0:
            return code

    if args.plot:
        try:
            import matplotlib  # noqa: F401
        except ImportError:
            print("matplotlib not available, wrote the CSVs only")
            return 0
        plot(args.out_dir, prof_path, land_path, res.mu_star, mu_slice)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
