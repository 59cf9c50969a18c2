"""Every exported name resolves, and so do the internals the benchmark wraps.

``perfbench/tracer.py`` patches functions and reads constants by name and
skips a name it cannot find, so a rename would silently drop a span or zero
a counter instead of failing.
"""

import importlib

import pytest

import momzeta

MODULES = ["momzeta"] + [
    f"momzeta.{m}"
    for m in ("acceptance", "binom_sums", "dist_core", "euler_maclaurin", "game_sim", "moment_zeta")
]

# (module, attribute) pairs the benchmark looks up by name
BENCHMARK_HOOKS = [
    ("momzeta", "riemann_zeta_source"),
    ("momzeta", "uniform_zeta_source"),
    ("momzeta", "scaled_riemann_zeta_source"),
    ("momzeta.binom_sums", "power_tail_sum"),
    ("momzeta.binom_sums", "_GENERIC_CAP"),
    ("momzeta.binom_sums", "_POWER_LAW_J_CAP"),
    ("momzeta.moment_zeta", "_GENERIC_CAP"),
    ("momzeta.game_sim", "_moment_zeta_sum"),
    ("momzeta.cli", "_moment_zeta_sum"),
    ("momzeta.game_sim", "moment_sequence"),
    ("momzeta.cli", "moment_sequence"),
    ("momzeta.acceptance", "moment_sequence"),
]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module, name", BENCHMARK_HOOKS)
def test_benchmark_hooks_exist(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_moment_evaluator_is_bound_to_its_source():
    # the benchmark names moment spans by the class of the evaluator's owner
    dist = momzeta.Uniform()
    assert momzeta.moment_sequence(dist)._evaluator.__self__ is dist
