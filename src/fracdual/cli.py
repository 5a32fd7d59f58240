"""Command line front end.

Subcommands:
  solve    run the dual solver on an instance file, write a result file
  verify   cross-check the solver against the exhaustive grid reference
  gen      draw a random instance and print or save it
  sweep    dump the dual profile over the parameter interval, or a 2-D
           value landscape at a fixed parameter, as CSV

Exit codes: 0 success (solve: certified global optimum; verify: values
agree), 1 completed uncertified, mismatched or inconclusive, 2 any error
(bad input, unparseable file, dimension too large, usage).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .dual import DualPoint, evaluate_dual
from .errors import FracdualError, NotPDError
from .generate import generate_program
from .instance_io import parse_instance, serialize_instance, serialize_result
from .oracle import grid_minimize_objective
from .problem import FractionalProgram
from .solver import CertificateKind, certify, maximize_dual, mu_grid, solve


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _conditioning(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 1.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 1, got {text!r}")
    return value


def _read_instance(path: str) -> FractionalProgram:
    return parse_instance(Path(path).read_text())


def _default_output(instance_path: str) -> Path:
    p = Path(instance_path)
    if p.suffix == ".json":
        return p.with_suffix(".result.json")
    return Path(str(p) + ".result.json")


def cmd_solve(args: argparse.Namespace) -> int:
    prog = _read_instance(args.instance)
    result = solve(prog)
    out = Path(args.output) if args.output else _default_output(args.instance)
    out.write_text(serialize_result(result))
    kind = result.certificate.kind
    print(
        f"certificate={kind.value} P0={result.P0_value:.12g} "
        f"mu_star={result.mu_star:.9g} gap={result.certificate.gap:.3g} "
        f"global_gap={result.global_gap:.3g} -> {out}"
    )
    return 0 if kind is CertificateKind.PERFECT else 1


def cmd_verify(args: argparse.Namespace) -> int:
    prog = _read_instance(args.instance)
    # the reference first: a dimension or grid it refuses exits 2 without a solve
    report = grid_minimize_objective(prog, resolution=args.resolution)
    result = solve(prog)
    print(f"solver   P0 = {result.P0_value:.12g}  (certificate={result.certificate.kind.value})")
    if not report.grid_feasible:
        print(f"INCONCLUSIVE: no feasible grid cell at resolution {report.resolution:g}")
        return 1
    diff = abs(result.P0_value - report.min_value)
    tol = max(1e-4, 1e-3 * abs(report.min_value))
    dist = float(np.linalg.norm(result.x_star - report.argmin))
    agree = diff <= tol
    print(f"reference P0 = {report.min_value:.12g}  (grid resolution {report.resolution:g})")
    print(f"|difference| = {diff:.3g}  tolerance = {tol:.3g}  |x gap| = {dist:.3g}")
    print("PASS" if agree else "FAIL")
    return 0 if agree else 1


def cmd_gen(args: argparse.Namespace) -> int:
    prog = generate_program(args.n, args.m, seed=args.seed, conditioning=args.conditioning)
    text = serialize_instance(prog)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote n={prog.n} m={prog.m} instance -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _landscape_rows(prog: FractionalProgram, mu: float, shape: tuple[int, int]) -> list[str]:
    sol = maximize_dual(prog, mu)
    vs0, sg0 = sol.point.varsigma, sol.point.sigma
    width = 1.0 + 2.0 * (abs(vs0) + sg0)
    rows, cols = shape
    vs_axis = np.linspace(max(-prog.lam, vs0 - width), vs0 + width, rows)
    sg_axis = np.linspace(max(0.0, sg0 - width), sg0 + width, cols)
    lines = ["varsigma,sigma,dual_value"]
    for vs in vs_axis:
        for sg in sg_axis:
            try:
                ev = evaluate_dual(prog, DualPoint(mu, float(vs), float(sg)))
                cell = "%.17g" % ev.value
            except NotPDError:
                cell = "nonPD"
            lines.append(f"{'%.17g' % vs},{'%.17g' % sg},{cell}")
    return lines


def _profile_rows(prog: FractionalProgram, grid: int) -> list[str]:
    lines = ["mu,dual_value,certificate"]
    for mu in mu_grid(prog, grid):
        mu = float(mu)
        try:
            sol = maximize_dual(prog, mu)
            cert = certify(prog, mu, sol)
            lines.append(f"{'%.17g' % mu},{'%.17g' % sol.value},{cert.kind.value}")
        except FracdualError:
            lines.append(f"{'%.17g' % mu},,None")
    return lines


def _parse_shape(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected ROWSxCOLS, e.g. 20x20")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected ROWSxCOLS, e.g. 20x20") from exc
    if rows < 2 or cols < 2:
        raise argparse.ArgumentTypeError("landscape needs at least 2x2 cells")
    return rows, cols


def cmd_sweep(args: argparse.Namespace) -> int:
    prog = _read_instance(args.instance)
    if args.at_mu is not None:
        shape = args.landscape if args.landscape else (20, 20)
        lines = _landscape_rows(prog, args.at_mu, shape)
    else:
        lines = _profile_rows(prog, args.grid)
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {len(lines) - 1} rows -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracdual",
        description="Globally solve quadratic-over-quadratic fractional programs by dual ascent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance", help="instance file path")
    p_solve.add_argument("--output", help="result file path (default: <instance>.result.json)")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="cross-check the solver against the grid reference")
    p_verify.add_argument("instance", help="instance file path (dimension 3 at most)")
    p_verify.add_argument(
        "--resolution", type=_positive_float, default=None,
        help="reference grid spacing override",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--n", type=int, required=True, help="variable dimension")
    p_gen.add_argument("--m", type=int, default=1, help="coupling matrix row count")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "--conditioning", type=_conditioning, default=1.0,
        help="curvature spread factor (finite, >= 1)",
    )
    p_gen.add_argument("--output", help="write here instead of stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_sweep = sub.add_parser("sweep", help="CSV dual profile or 2-D landscape")
    p_sweep.add_argument("instance", help="instance file path")
    p_sweep.add_argument(
        "--at-mu", type=float, default=None, help="fixed parameter for a 2-D landscape"
    )
    p_sweep.add_argument(
        "--landscape", type=_parse_shape, default=None, help="landscape cells as ROWSxCOLS"
    )
    p_sweep.add_argument(
        "--grid", type=_positive_int, default=64, help="number of mu values in the profile"
    )
    p_sweep.add_argument("--output", help="write here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.landscape and args.at_mu is None:
        parser.error("sweep: --landscape needs --at-mu")
    try:
        return args.func(args)
    except (FracdualError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
