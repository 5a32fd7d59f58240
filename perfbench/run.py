#!/usr/bin/env python3
"""fracdual benchmark: one process, one caller, a closed loop of solves.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 35 --trace 0

Each operation does in-process what `fracdual solve` does:
parse_instance(text) -> solve(prog) -> serialize_result(result).  The loop
solves each of the workload's instances once, in an order rotated by
`--seed`, then keeps solving the instance with the least summed time while
the next solve is expected to end within `--seconds`.  Between solves it
times a fixed host-speed kernel (see hostspeed.py).  A correctness gate
checks every answer outside the timed region.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
runs one untraced pass, one traced pass with spans around each public call,
and a replay of every slice, then reports the per-layer metrics and checks
that the traced and untraced answers and counts agree.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it that start with `#` give the
environment and a summary; the full record, spans included, is written to
`.bench_out/` in the checkout.  Run it from the root of a checkout: it
imports `fracdual` from `src/` there and fails if that is missing.
"""

import os

# Before numpy loads: one BLAS/OpenMP thread (OpenBLAS threads slow the
# small factorizations on a shared 2-core box), and no inherited THREADS,
# which would switch `solve` onto a thread pool.
THREAD_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
INHERITED_THREADS = os.environ.pop("THREADS", None)
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import bisect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
TAIL_ABOVE = 10  # samples beyond the highest percentile that the tail reports on


def import_fracdual():
    """Import fracdual from this checkout's src/, or exit without a result."""
    if not (SRC / "fracdual" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fracdual package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fracdual

    if Path(fracdual.__file__).resolve().parent != SRC / "fracdual":
        sys.exit(f"perfbench: imported fracdual from {fracdual.__file__}, not {SRC}")
    return fracdual


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0, help="rotates the instance order")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--base", type=int, default=1000,
                   help="first generate_program seed of the workload's range")
    p.add_argument("--setup-probe", action="store_true",
                   help="time importing fracdual and generating the instances, then exit")
    return p.parse_args(argv)


def setup_probe(workload: str, base: int) -> None:
    t0 = time.perf_counter()
    import_fracdual()
    from workloads import WORKLOADS

    WORKLOADS[workload].texts(base)
    print(time.perf_counter() - t0)


def measure_setup(workload: str, base: int) -> list[float]:
    """Set-up time in fresh interpreters, so every probe pays the import."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--base", str(base), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def environment(fd) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "fracdual": fd.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "inherited_THREADS": INHERITED_THREADS,
        "loadavg_start": os.getloadavg(),
    }


class Op:
    """One closed-loop operation and what it returned."""

    def __init__(self, seed: int):
        self.seed = seed
        self.start = self.seconds = math.nan
        self.host_ms = math.nan  # host-speed kernel time around the op
        self.prog = self.result = self.result_text = None
        self.error: str | None = None

    def answer(self):
        return (self.result.P0_value, self.result.certificate.kind.value)

    def slice_counts(self):
        return tuple((s.note, None if s.solution is None else
                      (s.solution.n_iter, s.solution.status.value))
                     for s in self.result.mu_profile)


def solve_text(fd, text: str):
    """What `fracdual solve` does, in-process."""
    prog = fd.parse_instance(text)
    result = fd.solve(prog)
    return prog, result, fd.serialize_result(result)


def timed_op(seed: int, operation) -> Op:
    op = Op(seed)
    op.start = t0 = time.perf_counter()
    try:
        op.prog, op.result, op.result_text = operation()
    except Exception as exc:  # a failed operation is counted, and the loop goes on
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = time.perf_counter() - t0
    return op


def one_pass(fd, order) -> list[Op]:
    """Each instance solved once, in order."""
    return [timed_op(seed, lambda: solve_text(fd, text)) for seed, text in order]


def closed_loop(fd, order, seconds: float):
    """Passes over `order` until `seconds` have gone by.

    The first pass is always whole.  After it, an instance is skipped when
    its last time would carry the loop past `seconds`, and the loop ends
    when every instance in a row was skipped: slow instances are solved as
    often as they fit, and cheap ones fill the end of the run.  Between
    operations the loop times the host-speed kernel (and for LEAD_IN_S
    before the first one).  Returns the ops, the loop's wall time and the
    kernel samples as (time since the loop began, ms).
    """
    from hostspeed import LEAD_IN_S, SAMPLE_EVERY_S, sample_ms

    sample_ms()  # the first call pays lazy set-up
    t0 = time.perf_counter()
    ref = []

    def sample():
        ms = sample_ms()
        ref.append((time.perf_counter() - t0, ms))

    while not ref or ref[-1][0] < LEAD_IN_S:
        sample()
    t_end = time.perf_counter() + seconds
    ops, last, skipped = [], {}, 0
    for step in itertools.count():
        seed, text = order[step % len(order)]
        if step >= len(order) and time.perf_counter() + last[seed] > t_end:
            skipped += 1
            if skipped == len(order):
                break
            continue
        skipped = 0
        if time.perf_counter() - t0 - ref[-1][0] >= SAMPLE_EVERY_S:
            sample()
        op = timed_op(seed, lambda: solve_text(fd, text))
        op.start -= t0
        ops.append(op)
        last[seed] = op.seconds
    sample()
    for op in ops:
        op.host_ms = host_ms_around(ref, op.start, op.seconds)
    return ops, time.perf_counter() - t0, ref


def host_ms_around(ref, start: float, seconds: float) -> float:
    """Kernel time that stands for the host's speed during one operation.

    The mean of the samples taken within two op-lengths before the op and
    the mean of those within two op-lengths after it, weighted equally;
    a side with no sample in its window uses its nearest sample.  A short
    op is judged by its neighbours, a long one by the host's speed over
    spans longer than itself on both sides, so that an op at the start or
    end of the run is not judged by one side only.
    """
    at = [t for t, _ in ref]
    end, span = start + seconds, 2 * seconds
    i = bisect.bisect_right(at, start)  # ref[:i] were taken before the op
    j = bisect.bisect_left(at, end)  # ref[j:] were taken after it
    pre = [ms for _, ms in ref[bisect.bisect_left(at, start - span):i]] or [ref[i - 1][1]]
    post = [ms for _, ms in ref[j:bisect.bisect_right(at, end + span)]] or [ref[j][1]]
    return (fmean(pre) + fmean(post)) / 2


def gate_ops(gate, ops) -> list[str]:
    """Run the correctness gate; every op that fails it gets an error."""
    first = {}
    for op in ops:
        if op.error is None:
            op.error = gate.check(op.seed, op.prog, op.result, op.result_text)
        if op.error is None:
            want = first.setdefault(op.seed, op.answer())
            if op.answer() != want:
                op.error = f"answer {op.answer()} differs from the first solve {want}"
    return [f"seed {op.seed}: {op.error}" for op in ops if op.error is not None]


def per_instance_ms(ops, nominal_ms: float | None = None) -> list[float]:
    """Each instance's median latency over its samples, sorted.

    With `nominal_ms`, each sample is first brought to the nominal host
    speed by the kernel time measured around it.
    """
    by_seed: dict[int, list[float]] = {}
    for op in ops:
        scale = 1.0 if nominal_ms is None else nominal_ms / op.host_ms
        by_seed.setdefault(op.seed, []).append(scale * op.seconds)
    return sorted(1e3 * median(v) for v in by_seed.values())


def harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of all order statistics, with the weight on the middle
    ones.  It moves less from run to run than the middle sample, which is
    one or two solves timed at one moment of a drifting host.
    """
    from scipy.special import betainc

    x = sorted(values)
    n = len(x)
    edges = [betainc((n + 1) / 2, (n + 1) / 2, i / n) for i in range(n + 1)]
    return float(sum((hi - lo) * v for lo, hi, v in zip(edges, edges[1:], x)))


def end_to_end(ops, elapsed: float, ref_ms: list[float], setup_times: list[float],
               rss_mb: float):
    """End-to-end metrics, plus the summary that explains them.

    Time metrics are given at the nominal host speed of `hostspeed`; the
    summary also gives them as measured.
    """
    from hostspeed import NOMINAL_MS

    raw = per_instance_ms(ops)
    at_nominal = per_instance_ms(ops, NOMINAL_MS)
    k = len(raw)
    if k <= TAIL_ABOVE:
        sys.exit(f"perfbench: {k} instances leave no tail with {TAIL_ABOVE} samples above it")
    failed = sum(op.error is not None for op in ops)
    good = [op for op in ops if op.result is not None]
    perfect = sum(op.result.certificate.kind.value == "Perfect" for op in good)
    pct = math.floor(100 * (k - TAIL_ABOVE) / k)

    def times(latencies):
        return {
            "solves_per_s": 1e3 * k / sum(latencies),
            "solve_ms_p50": harrell_davis_median(latencies),
            # The mean of the samples beyond that percentile, not the order
            # statistic at it: with a few dozen heavy-tailed instances the order
            # statistic falls in gaps between instances and jumps from run to run.
            "solve_ms_tail": fmean(latencies[k - TAIL_ABOVE:]),
        }

    metrics = {
        **times(at_nominal),
        "correct_share": (len(ops) - failed) / len(ops),
        "setup_s": median(setup_times),
        "peak_rss_mb": rss_mb,
    }
    counts = sorted(sum(op.seed == seed for op in ops) for seed in {op.seed for op in ops})
    summary = {
        "instances": k,
        "operations": len(ops),
        "samples_per_instance_min_max": [counts[0], counts[-1]],
        "loop_s": elapsed,
        "loop_solves_per_s": len(good) / elapsed,
        "latency_samples": "per-instance median over its samples",
        "host_ref_ms_median": median(ref_ms),
        "host_ref_samples": len(ref_ms),
        "as_measured": times(raw),
        "solve_ms_middle_sample": median(at_nominal),
        "solve_ms_tail": f"mean of the {TAIL_ABOVE} samples beyond p{pct}",
        f"solve_ms_p{pct}": at_nominal[k - TAIL_ABOVE - 1],
        "perfect_share": perfect / len(good) if good else 0.0,
        "failed_share": failed / len(ops),
        "setup_s_probes": setup_times,
    }
    return metrics, summary


def traced_run(fd, order, gate):
    """Untraced pass, traced pass and replay; per-layer metrics and checks."""
    from layers import Tracer, layer_metrics, replay, traced_operation

    untraced = one_pass(fd, order)
    tracer = Tracer()
    traced_ops, traced, problems = [], {}, []
    for op_id, (seed, text) in enumerate(order):
        op = timed_op(seed, lambda: traced_operation(tracer, op_id, text))
        traced_ops.append(op)
        if op.result is not None:
            traced[op_id] = op.result
            problems += [f"seed {seed} replay {m}" for m in replay(tracer, op_id, op.prog,
                                                                   op.result)]
    ops = untraced + traced_ops
    errors = gate_ops(gate, ops)
    for u, t in zip(untraced, traced_ops):
        if u.result is not None and t.result is not None and (
                u.answer() != t.answer() or u.slice_counts() != t.slice_counts()):
            problems.append(f"seed {u.seed}: traced and untraced solves differ")
    if not traced:
        sys.exit("perfbench: every traced operation failed")
    overhead = sum(op.seconds for op in traced_ops) / sum(op.seconds for op in untraced) - 1
    summary = {"instances": len(order), "operations": len(ops),
               "traced_over_untraced_op_time": overhead, "determinism_problems": problems}
    return ops, errors, problems, layer_metrics(tracer, traced), summary, tracer.dump()


def declared_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    base = args.base
    if args.setup_probe:
        setup_probe(args.workload, base)
        return 0

    fd = import_fracdual()
    from gate import Gate
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    env = environment(fd)
    setup_times = measure_setup(args.workload, base)
    texts = WORKLOADS[args.workload].texts(base)
    shift = args.seed % len(texts)
    order = texts[shift:] + texts[:shift]
    gate = Gate()

    warm_up = fd.serialize_instance(fd.generate_program(2, 1, seed=0))
    timed_op(0, lambda: solve_text(fd, warm_up))
    record = {"workload": args.workload, "base": base, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        ops, errors, problems, metrics, summary, spans = traced_run(fd, order, gate)
        record["spans"] = spans
    else:
        ops, elapsed, ref = closed_loop(fd, order, args.seconds)
        record["host_ref"] = ref
        ref_ms = [ms for _, ms in ref]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors, problems = gate_ops(gate, ops), []
        metrics, summary = end_to_end(ops, elapsed, ref_ms, setup_times, rss_mb)
    env["loadavg_end"] = os.getloadavg()

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        sys.exit(f"perfbench: no samples for {bad}")
    failed = sum(op.error is not None for op in ops)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(env=env, summary=summary, errors=errors, result=result,
                  ops_columns=["seed", "start_s", "seconds", "host_ms", "P0", "certificate"],
                  ops=[[op.seed, op.start, op.seconds, op.host_ms,
                        *(op.answer() if op.result else (None, op.error))] for op in ops])
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-base{base}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=str))

    print("# env " + json.dumps(env, default=str))
    print("# summary " + json.dumps(summary, default=str))
    for line in errors + problems:
        print("# error " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
