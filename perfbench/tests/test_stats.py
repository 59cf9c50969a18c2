"""The tail-percentile rule and seeded input generation."""

import math
import random

import pytest

import inputs
from run import TAIL_DESIGN_PASSES, TAIL_LADDER, tail_latency


@pytest.mark.parametrize("per_pass", [1, 5, 9, 10, 19, 20, 49, 50, 99, 100, 499, 500, 2000])
def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond(per_pass):
    design = per_pass * TAIL_DESIGN_PASSES
    samples = [float(v) for v in random.Random(per_pass).sample(range(100_000), design)]
    pct, value = tail_latency(samples, per_pass)
    beyond = sum(v > value for v in samples)
    if design < 20:
        slowest = [max(samples[:per_pass]), max(samples[per_pass:])]
        assert (pct, value) == (100.0, sum(slowest) / 2)
        return
    assert pct in TAIL_LADDER and beyond >= 10
    higher = [p for p in TAIL_LADDER if p > pct]
    if higher:
        # the next rung up would leave fewer than 10 samples beyond it
        assert design - math.ceil(design * min(higher) / 100) < 10


def test_tail_percentile_is_fixed_by_the_operation_list():
    fast = [float(v) for v in range(130 * 7)]
    slow = [float(v) for v in range(130 * 2)]
    assert tail_latency(fast, 130)[0] == tail_latency(slow, 130)[0] == 95.0
    assert tail_latency(slow, 130)[1] == 246.0  # nearest rank: ceil(0.95 * 260) = 247th
    # two or three passes of six: the median of the passes' slowest operations
    assert tail_latency([float(v) for v in range(12)], 6) == (100.0, 8.0)
    assert tail_latency([1.0, 9.0, 2.0, 3.0, 7.0, 1.0], 2) == (100.0, 7.0)


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_same_inputs(workload):
    make = inputs.WORKLOADS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_sum_rows_stay_in_their_strata():
    for seed in range(20):
        ops = [op for op in inputs.sums_ops(seed) if op["kind"] == "alt_sum_stable"]
        for family, (kmin, tol, decades, anchor) in inputs.SUM_FAMILIES.items():
            ns = sorted(op["n"] for op in ops if op["family"] == family and op["tol"] == tol)
            assert ns[-1] == anchor
            for d in decades:
                for i in range(4):
                    lo = 10.0 ** (d + i / 4)
                    assert any(lo - 0.5 <= n <= lo * 10**inputs.STRATUM_WIDTH + 0.5 for n in ns)
