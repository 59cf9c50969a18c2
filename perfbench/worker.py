"""The workload process: runs one operation list in a closed loop.

One caller, one operation at a time: the next operation starts when the
previous one returns (``workers=1`` everywhere; the cli workload runs one
``python -m momzeta`` process at a time).  Whole passes over the list repeat
until ``--seconds`` have elapsed.  With ``--trace 1`` the same number of
passes then runs again under the tracer, and the two runs' results must be
identical.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import objects  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MOMZETA_SEED", None)
    return env


class Executor:
    """Maps one operation to a call into momzeta and a JSON-ready result."""

    def __init__(self, workload: str, spans_dir: str) -> None:
        self.workload = workload
        self.objs = objects.build_objects(workload)
        self.spans_dir = spans_dir
        # spans a traced CLI child wrote for the last operation, if any
        self.child_spans: list[dict] = []
        self.traced_children = False
        self.env = child_env()

    def __call__(self, op: dict) -> dict:
        import momzeta
        import numpy as np

        kind = op["kind"]
        if kind == "alt_sum_stable":
            r = momzeta.alt_sum_stable(self.objs["seqs"][op["family"]], op["n"], op["kmin"], op["tol"])
            return {"value": r.value, "tail_bound": float(r.tail_bound), "terms": r.terms_used}
        if kind == "moment_zeta":
            r = momzeta.moment_zeta(self.objs["seqs"][op["family"]], op["s"], op["tol"])
            return {"value": r.value, "tail_bound": float(r.tail_bound), "terms": r.terms_used}
        if kind == "alt_sum_naive":
            source = self.objs["zeta_sources"][op["family"]]
            return {"value": momzeta.alt_sum_naive(op["n"], op["kmin"], source)}
        if kind == "defect_dnform":
            r = momzeta.defect_dnform(op["n"], op["tol"])
            # the deviation keeps D_n - 1/2 at full resolution
            return {"value": r.deviation, "tail_bound": float(r.tail_bound)}
        if kind == "game_oracles":
            params = momzeta.GameParams(op["p"])
            series = momzeta.paper_T_series(params)
            return {"series": series.value, "inclusion_exclusion": momzeta.paper_T_inclusion_exclusion(params),
                    "iterations": series.terms_used}
        if kind == "trials_fixed":
            rep = momzeta.run_trials("fixed-p", momzeta.GameParams(op["p"]), op["trials"], op["seed"])
            return _report(rep)
        if kind == "trials_random":
            dist = self.objs["dists"][op["family"]]
            return _report(momzeta.run_trials("random-p", dist, op["trials"], op["seed"], n=op["n"]))
        if kind == "zeta_mc":
            dist = self.objs["dists"][op["family"]]
            return _report(momzeta.zeta_expectation_mc(dist, op["n"], op["trials"], op["seed"]))
        if kind == "ppf_roundtrip":
            dist = self.objs["dists"][op["family"]]
            u = np.random.default_rng(op["seed"]).random(op["draws"])
            x = dist.ppf(u)
            return {"max_err": float(np.max(np.abs(dist.cdf(x) - u)))}
        if kind == "cli":
            return self._cli(op)
        raise ValueError(f"unknown operation kind {kind!r}")

    def _cli(self, op: dict) -> dict:
        if self.traced_children:
            spans_file = os.path.join(self.spans_dir, "cli-child-spans.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_file, *op["argv"]]
        else:
            cmd = [sys.executable, "-m", "momzeta", *op["argv"]]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                              timeout=CLI_TIMEOUT_S)
        if self.traced_children and os.path.exists(spans_file):
            with open(spans_file) as fh:
                self.child_spans = json.load(fh)
            os.remove(spans_file)
        return {"returncode": proc.returncode, "stdout": proc.stdout}


def _report(rep) -> dict:
    return {"mean": rep.mean, "stderr": rep.stderr, "target": rep.target, "trials": rep.trials}


def run_pass(ops, execute, tracer: Tracer | None) -> list[tuple[dict, object, float]]:
    """One closed-loop pass: (op, result or error text, seconds) per operation."""
    out = []
    for op in ops:
        if tracer is not None:
            tracer.op = op["id"]
            root = tracer.begin(f"op.{op['kind']}")
        start = time.perf_counter()
        try:
            result = execute(op)
        except Exception as exc:  # a raising operation is a counted failure, not a crash
            result = {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
            if execute.child_spans:
                tracer.adopt(execute.child_spans, root)
                execute.child_spans = []
        out.append((op, result, elapsed))
    return out


def warm_up(ops, execute) -> None:
    """Run the first operation of each kind and family once, untimed."""
    seen = set()
    for op in ops:
        key = (op["kind"], op.get("family"), op.get("command"))
        if key not in seen and op["kind"] != "cli":
            seen.add(key)
            try:
                execute(op)
            except Exception:  # reported when the timed pass raises again
                pass


def judge(records, refs: dict) -> dict:
    """Correctness gate and certificate audit over (op, result, seconds) records."""
    failures, violations, misses = [], [], []
    ratio_max = 0.0
    correct = 0
    for op, result, _ in records:
        if "error" in result:
            failures.append({"id": op["id"], "reason": result["error"]})
            continue
        passed, audit = checks.check(op, result, refs.get(str(op["id"])))
        if not passed:
            failures.append({"id": op["id"], "reason": json.dumps(audit, default=str)[:300]})
            continue
        correct += 1
        for row in [audit] + audit.get("rows", []):
            if "bound_violation" not in row:
                continue
            label = _label(op, row)
            if row["bound_violation"]:
                violations.append(label)
            if row["tol_miss"]:
                misses.append(label)
            if op["kind"] == "alt_sum_stable" and math.isfinite(row["err_over_bound"]):
                ratio_max = max(ratio_max, row["err_over_bound"])
    return {"failures": failures, "bound_violations": violations, "tol_misses": misses,
            "err_over_bound_max": ratio_max, "correct": correct}


def _label(op: dict, row: dict) -> str:
    keys = ("kind", "family", "n", "kmin", "s", "tol", "command")
    text = " ".join(f"{k}={op[k]}" for k in keys if k in op)
    if "n" in row and "n" not in op:
        text += f" n={row['n']}"
    return f"{text} err={row['err']:.3g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", required=True, help="JSON file of references by op id")
    parser.add_argument("--spans", required=True, help="where the traced run writes its spans")
    args = parser.parse_args()

    ops = inputs.WORKLOADS[args.workload](args.seed)
    with open(args.refs) as fh:
        refs = json.load(fh)
    execute = Executor(args.workload, os.path.dirname(args.spans))
    warm_up(ops, execute)

    records, pass_walls = [], []
    start = time.perf_counter()
    while not pass_walls or time.perf_counter() - start < args.seconds:
        begin = time.perf_counter()
        records += run_pass(ops, execute, None)
        pass_walls.append(time.perf_counter() - begin)
    wall = time.perf_counter() - start
    passes = len(pass_walls)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    n = len(ops)
    out = {"passes": passes, "ops_per_pass": n, "wall_s": wall, "pass_walls_s": pass_walls,
           "latencies_s": [r[2] for r in records], "peak_rss_mb": peak_rss_mb,
           "judged": judge(records, refs),
           "correct_per_pass": [judge(records[i * n:(i + 1) * n], refs)["correct"] for i in range(passes)]}
    if args.workload == "cli":
        by_cmd: dict[str, list[float]] = {}
        for op, _, seconds in records:
            by_cmd.setdefault(op["command"], []).append(seconds)
        out["cli_wall_ms"] = {k: 1e3 * statistics.median(v) for k, v in by_cmd.items()}

    if args.trace:
        tracer = Tracer()
        if args.workload == "cli":
            execute.traced_children = True
        else:
            # the objects are built once more, traced, for the set-up layers
            setup = Tracer()
            setup.install()
            try:
                root = setup.begin("setup")
                objects.build_objects(args.workload)
                setup.end(root)
            finally:
                setup.uninstall()
            tracer.install()
        traced, start = [], time.perf_counter()
        try:
            for _ in range(passes):
                traced += run_pass(ops, execute, tracer)
        finally:
            tracer.uninstall()
        traced_wall = time.perf_counter() - start
        with open(args.spans, "w") as fh:
            json.dump(tracer.to_json(), fh)
        mismatched = [op["id"] for (op, a, _), (_, b, _) in zip(records, traced) if a != b]
        layers = tracer.layers(passes)
        if args.workload != "cli":
            layers["setup"] = setup.layers(1)
        out["traced"] = {"wall_s": traced_wall, "layers": layers,
                         "mismatched": mismatched, "judged": judge(traced, refs)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
