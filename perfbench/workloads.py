"""Workload definitions: seeded study configs for the benchmark.

Each workload is a list of study configs in the perispec schema (version 1).
A draw runs the workload's configs once, with one offset added to every
config's s; each offset in ``OFFSETS`` has its own pinned references. A run
goes through whole cycles, each cycle one draw of every offset of its
workload, in an order the seed fixes; seed 0 starts with the canonical
configs (offset 0). The program receives only the configs written from here,
so a later edit to ``configs/`` does not change the benchmark.

Why a run draws several offsets: the number of energy calls in the p=3
inverse-power solves depends chaotically on the input. The inner L-BFGS runs
until its line search stalls at rounding level, so a change of s by 1e-3
moves the call count, and the time of one study, by up to +-40%. One study
is therefore one draw from that spread. A run times every offset equally
often, so two runs do the same work and differ only in machine noise, and a
change to the solver is judged on the whole set instead of on one lucky or
unlucky trajectory.
"""

from __future__ import annotations

import copy
import random

# Offsets added to every config's s: 0, +-0.001, ..., +-0.005, +0.006.
S_OFFSETS = tuple(round(0.001 * j, 6) for j in (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6))

_INF_DELTAS = [1.0, 2.0, 4.0, 8.0, "INF"]
_ZERO_DELTAS = [0.2, 0.1, 0.05, 0.025]
_TINY_DELTAS = [0.5, 0.25, 0.125, 0.0625]


def _config(name, study, p, s, **extra):
    d = {"schema_version": 1, "name": name, "study": study, "p": p, "s": s,
         "a": 0.0, "b": 1.0}
    d.update(extra)
    return d


# Canonical parameters per workload, at full size and at the tiny size the
# self-test uses (n about 16, seconds per workload).
_WORKLOADS = {
    # inf-p3 at n_interior=24 instead of 256: dense O(n^2) pair sets plus the
    # analytic tail, 5 tableaus, and a cold delta=1 inverse-power row. Energy
    # and gradient evaluation dominate.
    "collarless-p3": lambda tiny: [
        _config("inf-p3", "inf", 3.0, 0.5, delta_list=_INF_DELTAS,
                n_interior=16 if tiny else 24, k_list=[1], thresholds=[0.02]),
    ],
    # zero-p3 with its first three horizons at 4 cells per horizon (n = 20,
    # 40, 80): banded collar-mesh pair sets make each call cheap, and the
    # inner iteration count grows with n, so solver iterations dominate.
    "collar-p3": lambda tiny: [
        _config("zero-p3", "zero", 3.0, 0.5,
                delta_list=(_TINY_DELTAS if tiny else _ZERO_DELTAS)[:3],
                cells_per_horizon=4, k_list=[1], thresholds=[0.05]),
    ],
    # The four canonical p=2 configs: tableau build, n^2 assembly and eigh
    # instead of repeated evaluation; the highest peak memory.
    "p2-suite": lambda tiny: [
        _config("inf-p2", "inf", 2.0, 0.5, delta_list=_INF_DELTAS,
                n_interior=16 if tiny else 256, k_list=[1], thresholds=[0.01]),
        _config("zero-p2", "zero", 2.0, 0.5, delta_list=_TINY_DELTAS if tiny else _ZERO_DELTAS,
                cells_per_horizon=4 if tiny else 8, k_list=[1, 2], thresholds=[0.02, 0.03]),
        _config("bbm-s05", "bbm", 2.0, 0.5, delta_list=_TINY_DELTAS if tiny else _ZERO_DELTAS,
                cells_per_horizon=4 if tiny else 8, k_list=[1], thresholds=[0.02]),
        _config("bbm-s09", "bbm", 2.0, 0.9, delta_list=_TINY_DELTAS if tiny else _ZERO_DELTAS,
                cells_per_horizon=4 if tiny else 8, k_list=[1], thresholds=[0.02]),
    ],
}

WORKLOADS = tuple(_WORKLOADS)

# Draws per workload process. The p=3 workloads run several draws in one
# interpreter so a cycle pays interpreter start-up only once or twice; the
# p=2 suite keeps one draw per process, so its peak memory is one suite's. The
# p=2 time hardly depends on s, so its cycle uses only the first four offsets.
DRAWS_PER_PASS = {"collarless-p3": 6, "collar-p3": 12, "p2-suite": 1}
CYCLE = {"collarless-p3": S_OFFSETS, "collar-p3": S_OFFSETS, "p2-suite": S_OFFSETS[:4]}
# Nominal seconds of one untraced cycle, set-up probes included, on a 2-core
# Xeon VM; a run of --seconds S makes S // CYCLE_SECONDS cycles (at least one).
CYCLE_SECONDS = {"collarless-p3": 13.0, "collar-p3": 17.0, "p2-suite": 14.0}


def offsets(workload: str, seed: int) -> list:
    """One cycle of the workload's s offsets, in the order this seed draws them."""
    cycle = CYCLE[workload]
    order = random.Random(seed).sample(cycle, len(cycle))
    if seed == 0:
        order.remove(0.0)
        order.insert(0, 0.0)
    return order


def offset_key(offset: float) -> str:
    """Key of the pinned references for one offset."""
    return f"ds={offset:+.3f}"


def configs(workload: str, offset: float, tiny: bool = False) -> list:
    """The study configs of one workload with ``offset`` added to each s."""
    out = []
    for d in _WORKLOADS[workload](tiny):
        d = copy.deepcopy(d)
        d["s"] = round(d["s"] + offset, 6)
        out.append(d)
    return out
