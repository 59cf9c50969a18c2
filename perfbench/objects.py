"""The program objects a workload needs, built once before timing starts.

Run as a script (``python3 perfbench/objects.py --workload sums``) it is the
set-up probe: a fresh interpreter that imports momzeta, builds the
workload's objects and exits.  Its wall time is the set-up time.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402


def build_objects(workload: str) -> dict:
    """Distributions and moment sequences by family name, plus the CLI parser."""
    import momzeta
    from momzeta import cli

    if workload == "cli":
        return {"parser": cli.build_parser()}
    x2, f2 = inputs.tab2_table()
    x21, f21 = inputs.tab21_table()
    dists = {
        "uniform": momzeta.Uniform(),
        "beta1": momzeta.BetaEdge(beta=1.0),
        "beta2": momzeta.BetaEdge(beta=2.0),
        "tab2": momzeta.TabulatedDensity(x2, f2, edge=(f2[-1], 0.0)),
        "tab21": momzeta.TabulatedDensity(x21, f21, edge=(inputs.tab21_edge(), 1.0)),
    }
    objs = {"dists": dists}
    if workload == "sums":
        sources = {"riemann": momzeta.PowerMoments(1.0), "scaled2": momzeta.PowerMoments(2.0),
                   "scaled3": momzeta.PowerMoments(3.0), **dists}
        objs["seqs"] = {name: momzeta.moment_sequence(src) for name, src in sources.items()}
        objs["zeta_sources"] = {
            "riemann": momzeta.riemann_zeta_source(),
            "uniform": momzeta.uniform_zeta_source(),
            "scaled2": momzeta.scaled_riemann_zeta_source(2.0),
        }
    else:
        # the random-p and zeta-mc targets are built from these sequences
        objs["seqs"] = {name: momzeta.moment_sequence(dists[name]) for name in ("uniform", "beta2", "tab21")}
    return objs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    args = parser.parse_args()
    build_objects(args.workload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
