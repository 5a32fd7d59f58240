"""The benchmark's workloads: which instances each one solves.

Every workload is a contiguous range of `generate_program` seeds, starting
at an offset from the run's `--base`.  The range is fixed per workload so
that counts repeat exactly from run to run; the run's `--seed` only rotates
the order in which the closed loop visits the instances, and `--base` moves
every range (to check a claim on seeds that were not used while a change
was written).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import fracdual as fd


@dataclass(frozen=True)
class Workload:
    name: str
    offset: int  # first seed, relative to the base
    span: int  # number of consecutive seeds
    recipe: Callable[[int], tuple[int, int, float] | None]  # seed -> (n, m, conditioning)

    def seeds(self, base: int) -> list[int]:
        first = base + self.offset
        return [s for s in range(first, first + self.span) if self.recipe(s) is not None]

    def texts(self, base: int) -> list[tuple[int, str]]:
        """Serialized instances, as `fracdual gen` would write them."""
        out = []
        for s in self.seeds(base):
            n, m, conditioning = self.recipe(s)
            prog = fd.generate_program(n, m, seed=s, conditioning=conditioning)
            out.append((s, fd.serialize_instance(prog)))
        return out


def _mixed(s: int):
    # ROADMAP criterion-2 recipe; 24 seeds are two full periods of (n, m).
    return 1 + s % 6, s % 4, 1.0


def _large_n(s: int):
    # Two n = 64 instances to one n = 128, so that the median falls inside
    # the n = 64 group; with equal groups it would sit in the gap between them.
    return (128 if s % 3 == 0 else 64), 1 + (s // 3) % 2, 1.0


def _ill_conditioned(s: int):
    # The generator ignores `conditioning` at n = 1, so those seeds are skipped.
    n = 1 + s % 6
    return (n, s % 4, 1e6) if n >= 2 else None


# Ranges are sized so that one pass takes well under half a minute.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mixed", 0, 24, _mixed),
        Workload("large-n", 0, 12, _large_n),
        # The 14 seeds after mixed's range.  Seed 1034 has slices at the
        # 500-iteration cap; 1039 (27 capped slices, over 30 s a solve) is
        # past the range because a traced run would not end in 3 minutes.
        Workload("ill-conditioned", 24, 14, _ill_conditioned),
    )
}
