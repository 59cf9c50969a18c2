"""Span nesting, self times, and traced versus untraced results."""

import pytest

import inputs
import worker
from tracer import Tracer


def _small_ops():
    ops = [op for op in inputs.sums_ops(3) if op["kind"] != "alt_sum_stable" or op["n"] < 2000]
    ops = [op for op in ops if not (op["kind"] == "alt_sum_stable" and op["family"] in ("tab21", "beta1"))]
    games = [op for op in inputs.games_ops(3)
             if op["kind"] in ("game_oracles", "zeta_mc", "trials_fixed") and max(op.get("p", [0])) < 0.99]
    return ops, games


@pytest.fixture(scope="module")
def executors():
    return worker.Executor("sums", "."), worker.Executor("games", ".")


def test_traced_and_untraced_results_are_identical(executors):
    for execute, ops in zip(executors, _small_ops()):
        plain = worker.run_pass(ops, execute, None)
        tracer = Tracer()
        tracer.install()
        try:
            traced = worker.run_pass(ops, execute, tracer)
        finally:
            tracer.uninstall()
        assert [r for _, r, _ in plain] == [r for _, r, _ in traced]
        assert not any("error" in r for _, r, _ in plain)


def test_uninstall_restores_every_function():
    import momzeta
    from momzeta import binom_sums, game_sim

    before = (momzeta.alt_sum_stable, binom_sums.power_tail_sum, game_sim._moment_zeta_sum,
              momzeta.MomentSequence.moments, momzeta.BetaEdge.ppf)
    tracer = Tracer()
    tracer.install()
    assert binom_sums.power_tail_sum is not before[1]
    tracer.uninstall()
    after = (momzeta.alt_sum_stable, binom_sums.power_tail_sum, game_sim._moment_zeta_sum,
             momzeta.MomentSequence.moments, momzeta.BetaEdge.ppf)
    assert before == after


def test_self_times_add_up_to_each_operation(executors):
    tracer = Tracer()
    tracer.install()
    try:
        for execute, ops in zip(executors, _small_ops()):
            worker.run_pass(ops, execute, tracer)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    own = tracer.self_times()
    names = {s.name for s in spans}
    assert {"binom_sums.alt_sum_stable.power_law", "moment_zeta.power_tail_sum",
            "dist_core.moments.power", "game_sim.paper_T_series"} <= names
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    assert all(spans[i].name.startswith("op.") for i in roots)
    for i, s in enumerate(spans):
        assert s.start <= s.end
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            assert s.op == parent.op
            assert own[i] >= -1e-9
    for r in roots:
        total = sum(own[i] for i, s in enumerate(spans) if s.op == spans[r].op and _under(spans, i, r))
        assert total == pytest.approx(spans[r].end - spans[r].start, abs=1e-9)


def _under(spans, i, root):
    while i is not None:
        if i == root:
            return True
        i = spans[i].parent
    return False
