#!/usr/bin/env python3
"""Print every answer the solver gives on the benchmark's instances, exactly.

Solves each instance of the three benchmark workloads (`mixed`, `large-n`,
`ill-conditioned`, from perfbench/workloads.py) at a given `--base` and
prints, as float hex:

    per instance: P0, x_star, the certificate kind and the global lower
                  bound, then the sha256 of the canonical instance text and
                  of the result text with its `timings` values zeroed;
    per slice:    mu, note, P0 of its candidate, n_iter, status, the
                  final dual point, min_pivot and the slice's certificate
                  kind (not the ascent's intermediate values, which the
                  solver does not keep).

Then comes the sha256 of everything before it.  Two outputs with the same
sha256 line mean two versions of the solver are bit-identical there, and
that their instance and result files are byte-identical.  After it, and
not covered by it, one line per workload counts the Cholesky
factorizations its solves made, split into definite ones and failed
ones, then one line per workload counts the pencil verdicts its solves
asked for ("-" for a checkout without fracdual.solver.pencil_indefinite),
and one line per workload the dual evaluations its solves made (calls of
fracdual.solver.evaluate_dual); the script counts them by wrapping,
during each solve, pencil_indefinite, evaluate_dual and the
factorization: LAPACK's potrf as fracdual.dual calls it (info 0 is
definite, info > 0 failed), or numpy.linalg.cholesky for a checkout that
factorizes with it (returned is definite, raised failed).

    python3 scripts/answer_digest.py --base 1000 > digest_1000.txt
    python3 scripts/answer_digest.py --root ../other-checkout --base 1000

`--root` picks the checkout whose `src/` is solved (default: this one);
the workloads always come from this checkout's perfbench/, read-only.
BLAS runs on one thread, as in the benchmark.

Answers may move within the solver's tolerance, so a change that is not
meant to be bit-identical is checked against an earlier digest instead:

    python3 scripts/answer_digest.py --base 1000 --against digest_1000.txt

prints, instead of the digest, every instance whose certificate kind
changed or whose P0 rose by more than tol_gap*(1+|P0|) (tol_gap is
`SolverOptions().tol_gap`), that only one of the two solved, or whose
global lower bound LB in this run lies above its P0 by more than
1e-12*(1+|P0|) (a bound above a feasible value is wrong), then
how many instances end with P0 - LB <= tol_gap*(1+|P0|) on each side, and
per workload each side's ascent iterations (summed n_iter over all slices),
iteration-capped slices (n_iter equal to `SolverOptions().max_iter`) and
stalled slices (status MaxIterations with n_iter below it, perfbench's
`solver.stalled_slices`), the polish wins: the instances whose answer is a
`Polished` slice (one whose P0 is the instance's), the Cholesky
factorizations, definite and failed, the pencil verdicts and the dual
evaluations ("-" for a digest without them).
It exits 1 when it listed any instance.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from contextlib import ExitStack, contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _hex(values) -> str:
    return " ".join(float(v).hex() for v in values)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _kind(cert) -> str:
    return "-" if cert is None else cert.kind.value


# Lines of a digest that are neither instance nor slice lines.
_TRAILER = ("sha256", "cholesky", "pencil", "evaluate")


class _Tally:
    """Per-workload counts of the calls made inside `counting` only."""

    def __init__(self) -> None:
        self.counts: dict = {}
        self._workload = None

    def _zero(self):
        return 0

    @contextmanager
    def counting(self, workload: str):
        self.counts.setdefault(workload, self._zero())
        self._workload = workload
        try:
            yield
        finally:
            self._workload = None


class CholeskyTally(_Tally):
    """The Cholesky factorizations of the solver, counted per workload inside
    `counting` only: definite and failed.  A solver module `dual` that calls
    LAPACK's potrf through its handle `_potrf` has that handle bound and
    wrapped (info == 0 is definite, info > 0 failed); for an older one,
    numpy.linalg.cholesky is wrapped (returned is definite, raised failed)."""

    def __init__(self, np, dual) -> None:
        super().__init__()
        if hasattr(dual, "_potrf"):
            dual._bind_lapack()
            potrf = dual._potrf

            def counted(*args, **kwargs):
                factor, info = potrf(*args, **kwargs)
                if self._workload is not None:
                    self.counts[self._workload][info > 0] += 1
                return factor, info

            dual._potrf = counted
            return
        cholesky = np.linalg.cholesky

        def counted(*args, **kwargs):
            if self._workload is None:
                return cholesky(*args, **kwargs)
            counts = self.counts[self._workload]
            try:
                factor = cholesky(*args, **kwargs)
            except np.linalg.LinAlgError:
                counts[1] += 1
                raise
            counts[0] += 1
            return factor

        np.linalg.cholesky = counted

    def _zero(self):
        return [0, 0]

    def lines(self):
        for name, (definite, failed) in self.counts.items():
            yield f"cholesky {name} definite {definite} failed {failed}"


class CallTally(_Tally):
    """The solver module's function `attr`, wrapped to count per workload
    its calls inside `counting` only, printed as `line` (a format of the
    workload and the count); every count is "-" for a solver without it."""

    def __init__(self, solver, attr: str, line: str) -> None:
        super().__init__()
        self._line = line
        function = getattr(solver, attr, None)
        self.present = function is not None
        if not self.present:
            return

        def counted(*args, **kwargs):
            if self._workload is not None:
                self.counts[self._workload] += 1
            return function(*args, **kwargs)

        setattr(solver, attr, counted)

    def lines(self):
        for name, calls in self.counts.items():
            yield self._line.format(name, calls if self.present else "-")


class VerdictTally(CallTally):
    """The pencil verdicts, solver.pencil_indefinite's calls."""

    def __init__(self, solver) -> None:
        super().__init__(solver, "pencil_indefinite", "pencil {} verdicts {}")


class EvaluationTally(CallTally):
    """The dual evaluations, solver.evaluate_dual's calls."""

    def __init__(self, solver) -> None:
        super().__init__(solver, "evaluate_dual", "evaluate {} {}")


def instance_lines(fd, name: str, seed: int, text: str, *tallies: _Tally):
    prog = fd.parse_instance(text)
    with ExitStack() as stack:
        for tally in tallies:
            stack.enter_context(tally.counting(name))
        res = fd.solve(prog)
    yield (f"{name} {seed} P0 {float(res.P0_value).hex()} "
           f"cert {_kind(res.certificate)} x {_hex(res.x_star)} "
           f"lb {float(res.global_lower_bound).hex()}")
    payload = fd.result_payload(res)
    payload["timings"] = dict.fromkeys(payload["timings"], 0.0)
    yield f"  text {_sha256(text)} result {_sha256(fd.canonical_text(payload))}"
    for s in res.mu_profile:
        p0 = "-" if s.p0 is None else float(s.p0).hex()
        head = f"  mu {float(s.mu).hex()} note {s.note or '-'} p0 {p0} cert {_kind(s.certificate)}"
        sol = s.solution
        if sol is None:
            yield head
            continue
        d = sol.point
        yield (f"{head} n_iter {sol.n_iter} status {sol.status.value} "
               f"d {_hex((d.varsigma, d.sigma))} min_pivot {float(sol.min_pivot).hex()}")


def _instances(lines) -> dict:
    """(workload, seed) -> (P0, certificate kind, lower bound) of a digest."""
    table = {}
    for line in lines:
        tok = line.split()
        if tok and not line.startswith(" ") and tok[0] not in _TRAILER:
            table[tok[0], int(tok[1])] = (float.fromhex(tok[3]), tok[5], float.fromhex(tok[-1]))
    return table


def _iterations(lines, max_iter: int) -> dict:
    """workload -> [ascent iterations, capped slices, stalled slices] of a digest."""
    table = {}
    for line in lines:
        tok = line.split()
        if not tok or tok[0] in _TRAILER:
            continue
        if not line.startswith(" "):
            counts = table.setdefault(tok[0], [0, 0, 0])
        elif "n_iter" in tok:
            n_iter = int(tok[tok.index("n_iter") + 1])
            counts[0] += n_iter
            counts[1] += n_iter == max_iter
            counts[2] += n_iter < max_iter and tok[tok.index("status") + 1] == "MaxIterations"
    return table


def _polish_wins(lines) -> dict:
    """workload -> seeds whose answer is a Polished slice, of a digest."""
    table = {}
    for line in lines:
        tok = line.split()
        if not tok or tok[0] in _TRAILER:
            continue
        if not line.startswith(" "):
            name, seed, p0 = tok[0], int(tok[1]), tok[3]
            table.setdefault(name, [])
        elif tok[:1] == ["mu"] and tok[3:6] == ["Polished", "p0", p0]:
            table[name].append(seed)
    return table


def _choleskys(lines) -> dict:
    """workload -> (definite, failed) Cholesky factorizations of a digest."""
    return {tok[1]: (int(tok[3]), int(tok[5]))
            for tok in map(str.split, lines) if tok[:1] == ["cholesky"]}


def _calls(lines, head: str) -> dict:
    """workload -> the count on a digest's `head` lines (pencil verdicts or
    dual evaluations), as printed ("-" when unknown)."""
    return {tok[1]: tok[-1] for tok in map(str.split, lines) if tok[:1] == [head]}


def against(old_lines, new_lines, opts) -> int:
    tol_gap = opts.tol_gap
    new = _instances(new_lines)
    names = {name for name, _ in new}
    old = {key: v for key, v in _instances(old_lines).items() if key[0] in names}

    def closed(p0, lb):
        return p0 - lb <= tol_gap * (1.0 + abs(p0))

    listed = 0
    for key in sorted(old.keys() | new.keys()):
        name = f"{key[0]} {key[1]}"
        if key not in old or key not in new:
            print(f"{name}: solved only in {'DIGEST' if key in old else 'this run'}")
            listed += 1
            continue
        (p_old, k_old, _), (p_new, k_new, _) = old[key], new[key]
        if k_old != k_new:
            print(f"{name}: certificate {k_old} -> {k_new}")
            listed += 1
        if p_new - p_old > tol_gap * (1.0 + abs(p_old)):
            print(f"{name}: P0 rose {p_old!r} -> {p_new!r}")
            listed += 1
    for key, (p0, _, lb) in sorted(new.items()):
        if lb - p0 > 1e-12 * (1.0 + abs(p0)):
            print(f"{key[0]} {key[1]}: LB {lb!r} above P0 {p0!r}")
            listed += 1
    print(f"gap closed: DIGEST {sum(closed(p, lb) for p, _, lb in old.values())} of {len(old)}, "
          f"this run {sum(closed(p, lb) for p, _, lb in new.values())} of {len(new)}")
    old_iters = _iterations(old_lines, opts.max_iter)
    for name, (iters, capped, stalled) in sorted(_iterations(new_lines, opts.max_iter).items()):
        was_iters, was_capped, was_stalled = old_iters.get(name, ("-", "-", "-"))
        print(f"{name}: ascent iterations DIGEST {was_iters}, this run {iters}; "
              f"iteration-capped slices DIGEST {was_capped}, this run {capped}; "
              f"stalled slices DIGEST {was_stalled}, this run {stalled}")
    old_wins = _polish_wins(old_lines)
    for name, wins in sorted(_polish_wins(new_lines).items()):
        was = old_wins.get(name, [])
        print(f"{name}: polish wins DIGEST {len(was)} {was}, this run {len(wins)} {wins}")
    old_chol = _choleskys(old_lines)
    for name, (definite, failed) in _choleskys(new_lines).items():
        was_definite, was_failed = old_chol.get(name, ("-", "-"))
        print(f"{name}: Cholesky definite DIGEST {was_definite}, this run {definite}; "
              f"failed DIGEST {was_failed}, this run {failed}")
    for head, what in (("pencil", "pencil verdicts"), ("evaluate", "dual evaluations")):
        was = _calls(old_lines, head)
        for name, calls in _calls(new_lines, head).items():
            print(f"{name}: {what} DIGEST {was.get(name, '-')}, this run {calls}")
    print(f"listed: {listed}")
    return 1 if listed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=int, default=1000, help="first seed of every workload range")
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is solved")
    ap.add_argument("--workload", action="append", default=None,
                    help="solve only this workload (repeatable; default: all three)")
    ap.add_argument("--against", type=Path, default=None, metavar="DIGEST",
                    help="compare with an earlier digest instead of printing one")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(args.root.resolve() / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import fracdual as fd
    import fracdual.dual
    import fracdual.solver
    from workloads import WORKLOADS

    tallies = (CholeskyTally(np, fracdual.dual), VerdictTally(fracdual.solver),
               EvaluationTally(fracdual.solver))
    lines = [line for name in args.workload or list(WORKLOADS)
             for seed, text in WORKLOADS[name].texts(args.base)
             for line in instance_lines(fd, name, seed, text, *tallies)]
    trailer = [line for tally in tallies for line in tally.lines()]
    if args.against is not None:
        return against(args.against.read_text().splitlines(), lines + trailer,
                       fd.SolverOptions())
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
        print(line)
    print(f"sha256 {digest.hexdigest()}")
    for line in trailer:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
