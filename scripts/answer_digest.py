#!/usr/bin/env python3
"""Print every answer the solver gives on the benchmark's instances, exactly.

Solves each instance of the three benchmark workloads (`mixed`, `large-n`,
`ill-conditioned`, from perfbench/workloads.py) at a given `--base` and
prints, as float hex:

    per instance: P0, x_star, the certificate kind and the global lower
                  bound;
    per slice:    mu, note, P0 of its candidate, n_iter, status,
                  value_trace, the final dual point, min_pivot and the
                  slice's certificate kind.

The last line is the sha256 of everything before it.  Two outputs that
`diff` clean mean two versions of the solver are bit-identical there.

    python3 scripts/answer_digest.py --base 1000 > digest_1000.txt
    python3 scripts/answer_digest.py --root ../other-checkout --base 1000

`--root` picks the checkout whose `src/` is solved (default: this one);
the workloads always come from this checkout's perfbench/, read-only.
BLAS runs on one thread, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in values)


def _kind(cert) -> str:
    return "-" if cert is None else cert.kind.value


def instance_lines(fd, name: str, seed: int, text: str):
    prog = fd.parse_instance(text)
    res = fd.solve(prog)
    yield (f"{name} {seed} P0 {float(res.P0_value).hex()} "
           f"cert {_kind(res.certificate)} x {_hex(res.x_star)} "
           f"lb {float(res.global_lower_bound).hex()}")
    for s in res.mu_profile:
        p0 = "-" if s.p0 is None else float(s.p0).hex()
        head = f"  mu {float(s.mu).hex()} note {s.note or '-'} p0 {p0} cert {_kind(s.certificate)}"
        sol = s.solution
        if sol is None:
            yield head
            continue
        d = sol.point
        yield (f"{head} n_iter {sol.n_iter} status {sol.status.value} "
               f"d {_hex((d.varsigma, d.sigma))} min_pivot {float(sol.min_pivot).hex()} "
               f"trace {_hex(sol.value_trace)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=int, default=1000, help="first seed of every workload range")
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is solved")
    ap.add_argument("--workload", action="append", default=None,
                    help="solve only this workload (repeatable; default: all three)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(args.root.resolve() / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import fracdual as fd
    from workloads import WORKLOADS

    digest = hashlib.sha256()
    for name in args.workload or list(WORKLOADS):
        for seed, text in WORKLOADS[name].texts(args.base):
            for line in instance_lines(fd, name, seed, text):
                digest.update(line.encode() + b"\n")
                print(line)
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
