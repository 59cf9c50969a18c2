"""The momzeta benchmark: one command, three workloads, correctness-gated.

    python3 perfbench/run.py --workload {sums,games,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/momzeta``.  The run

1. generates the workload's operation list from the seed (``inputs.py``);
2. computes an independent mpmath reference for every operation
   (``checks.py``, ``reference.py``), outside any timed region, cached by
   input under ``.perfbench_runs/``;
3. times set-up: fresh interpreters that import momzeta and build the
   workload's objects (``objects.py``), median of ``SETUP_REPEATS``;
4. with ``--trace 1``, times ``import momzeta`` with ``-X importtime``;
5. runs the workload process (``worker.py``) for ``--seconds`` and checks
   every operation against its reference.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The line before it is the full
report, with all eight end-to-end metrics, the rows that violate their
certified bound or miss their tolerance, and the machine and versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
sys.path.insert(0, HERE)

from worker import child_env  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170
# the whole run ends within this, whatever the program does
RUN_LIMIT_S = 175
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_DESIGN_PASSES = 2
IMPORTED = ("momzeta", "scipy", "mpmath", "numpy")
CLI_COMMANDS = ("predict", "sum", "game_exact", "game_simulate", "dn", "verify")
LAYER_FAMILIES = {"moments": ("power", "uniform", "beta", "tabulated"),
                  "ppf": ("uniform", "beta", "tabulated")}


def tail_latency(samples: list[float], ops_per_pass: int) -> tuple[float, float]:
    """(percentile, value) of the per-operation times, passes in order.

    The percentile is the highest one on the ladder that has at least 10
    samples beyond it in a run of ``TAIL_DESIGN_PASSES`` passes, the fewest a
    run makes at the benchmark's run length.  It is fixed by the operation
    list, so a faster program (more passes) is compared at the same
    percentile.  When a design run has fewer than 20 samples no percentile
    qualifies; the tail is then the slowest operation of each pass, median
    over passes (reported as percentile 100).
    """
    design = ops_per_pass * TAIL_DESIGN_PASSES
    for pct in TAIL_LADDER:
        if design - math.ceil(design * pct / 100) >= 10:
            ordered = sorted(samples)
            rank = max(1, math.ceil(len(ordered) * pct / 100))
            return pct, ordered[rank - 1]
    slowest = [max(samples[i:i + ops_per_pass]) for i in range(0, len(samples), ops_per_pass)]
    return 100.0, statistics.median(slowest)


def _run(cmd: list[str], env: dict | None = None,
         timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=timeout)


def measure_setup(workload: str) -> list[float]:
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = _run([sys.executable, os.path.join(HERE, "objects.py"), "--workload", workload], child_env())
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return walls


def measure_imports() -> dict:
    """Import time in seconds: all of ``import momzeta``, and per dependency the
    self time of every module of that package (it and its submodules)."""
    runs: dict[str, list[float]] = {name: [] for name in IMPORTED}
    for _ in range(IMPORT_REPEATS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import momzeta"], child_env())
        if proc.returncode != 0:
            raise RuntimeError(f"import failed:\n{proc.stderr}")
        totals = dict.fromkeys(IMPORTED, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line or "[us]" in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            name = name.strip()
            package = name.split(".")[0]
            if name == "momzeta":
                totals["momzeta"] = int(cumulative) * 1e-6
            elif package in totals and package != "momzeta":
                totals[package] += int(own) * 1e-6
        for name, value in totals.items():
            runs[name].append(value)
    return {name: statistics.median(values) for name, values in runs.items()}


def references(ops: list[dict]) -> dict:
    import checks

    # the cache is only valid for the code that computed it
    digest = hashlib.sha1()
    for name in ("inputs.py", "reference.py", "checks.py"):
        with open(os.path.join(HERE, name), "rb") as fh:
            digest.update(fh.read())
    path = os.path.join(RUNS_DIR, f"references-{digest.hexdigest()[:12]}.json")
    cache = {}
    if os.path.exists(path):
        with open(path) as fh:
            cache = json.load(fh)
    refs = checks.References(cache)
    out = {str(op["id"]): refs.for_op(op) for op in ops}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(refs.cache, fh)
    os.replace(tmp, path)
    return out


def context(args, result: dict) -> dict:
    caches = {}
    # getconf answers from sysconf (cpuid on x86), without reading files
    try:
        lines = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=30).stdout
    except OSError:
        lines = ""
    for line in lines.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip() not in ("", "0"):
            caches[key] = int(value)
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cores_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "cpu": platform.machine(), "platform": platform.platform(), "caches": caches,
            "versions": versions, "passes": result["passes"], "ops_per_pass": result["ops_per_pass"],
            "samples": len(result["latencies_s"]), "setup_samples": SETUP_REPEATS,
            "closed_loop": "one caller, workers=1, one operation (or one CLI process) at a time"}


def end_to_end(result: dict, setup_walls: list[float]) -> dict:
    lat = result["latencies_s"]
    judged = result["judged"]
    pct, tail = tail_latency(lat, result["ops_per_pass"])
    attempted = len(lat)
    rates = [c / w for c, w in zip(result["correct_per_pass"], result["pass_walls_s"])]
    return {
        "setup_s": {"value": statistics.median(setup_walls), "unit": "s", "samples": len(setup_walls),
                    "walls": setup_walls},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s", "samples": attempted,
                      "per_pass": rates},
        "latency_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms", "samples": attempted},
        "latency_tail_ms": {"value": 1e3 * tail, "unit": "ms", "samples": attempted, "percentile": pct},
        "fail_frac": {"value": len(judged["failures"]) / attempted, "unit": "ratio", "samples": attempted},
        "bound_violations": {"value": len(judged["bound_violations"]) // result["passes"], "unit": "count",
                             "rows": sorted(set(judged["bound_violations"]))},
        "tol_misses": {"value": len(judged["tol_misses"]) // result["passes"], "unit": "count",
                       "rows": sorted(set(judged["tol_misses"]))},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict, imports: dict, e2e: dict) -> dict:
    traced = result["traced"]
    layers = traced["layers"]

    def get(span: str, field: str) -> float:
        return float(layers.get(span, {}).get(field, 0.0))

    m: dict[str, tuple[float, str]] = {}
    for layer, fams in LAYER_FAMILIES.items():
        count = "values" if layer == "moments" else "draws"
        for fam in fams:
            span = f"dist_core.{layer}.{fam}"
            m[f"{span}.self_s"] = (get(span, "self_s"), "s")
            m[f"{span}.{count}"] = (get(span, count), "count")
    # sequences are built in set-up; the traced set-up covers them (and the
    # CLI children build theirs inside each command)
    built = layers.get("setup", {}).get("dist_core.moment_sequence", {}).get("self_s", 0.0)
    m["dist_core.moment_sequence.self_s"] = (built + get("dist_core.moment_sequence", "self_s"), "s")
    calls = tol_met = cap_hits = 0.0
    for path in ("power_law", "generic"):
        span = f"binom_sums.alt_sum_stable.{path}"
        for field in ("self_s", "calls", "terms"):
            m[f"{span}.{field}"] = (get(span, field), "s" if field == "self_s" else "count")
        calls += get(span, "calls")
        tol_met += get(span, "tol_met")
        cap_hits += get(span, "cap_hits")
    m["binom_sums.alt_sum_stable.cap_hits"] = (cap_hits, "count")
    m["binom_sums.alt_sum_stable.tol_met_ratio"] = (tol_met / calls if calls else 0.0, "ratio")
    m["binom_sums.alt_sum_stable.err_over_bound_max"] = (traced["judged"]["err_over_bound_max"], "ratio")
    for span, fields in (("binom_sums.alt_sum_naive", ("self_s", "calls")),
                         ("moment_zeta.power_tail_sum", ("self_s", "calls")),
                         ("moment_zeta.moment_zeta", ("self_s", "terms", "cap_hits")),
                         ("game_sim.paper_T_series", ("self_s", "iterations")),
                         ("game_sim.paper_T_inclusion_exclusion", ("self_s", "subsets")),
                         ("game_sim.run_trials", ("self_s", "trials")),
                         ("game_sim.zeta_expectation_mc", ("self_s",)),
                         ("euler_maclaurin.defect_dnform", ("self_s",)),
                         ("euler_maclaurin.defect_direct", ("self_s",))):
        for field in fields:
            m[f"{span}.{field}"] = (get(span, field), "s" if field == "self_s" else "count")
    for cid in range(1, 12):
        m[f"acceptance.criterion_{cid}.s"] = (get(f"acceptance.criterion_{cid}", "wall_s"), "s")
    for name in IMPORTED:
        m[f"import.{name}.s"] = (imports[name], "s")
    cli_ms = result.get("cli_wall_ms", {})
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.wall_ms"] = (cli_ms.get(cmd, 0.0), "ms")
    m["trace.overhead_frac"] = ((traced["wall_s"] - result["wall_s"]) / result["wall_s"], "ratio")
    m["audit.bound_violations"] = (e2e["bound_violations"]["value"], "count")
    m["audit.tol_misses"] = (e2e["tol_misses"]["value"], "count")
    m["audit.fail_frac"] = (e2e["fail_frac"]["value"], "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main() -> int:
    import inputs

    parser = argparse.ArgumentParser(description="momzeta benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "momzeta", "__init__.py")):
        print(f"error: no momzeta sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(RUNS_DIR, exist_ok=True)
    # One core for this process and every process it starts: the workloads are
    # single-threaded, and a run that migrates between cores of different
    # speed (shared with other tenants) times some operations on each.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    ops = inputs.WORKLOADS[args.workload](args.seed)
    refs = references(ops)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    refs_file = os.path.join(RUNS_DIR, f"refs-{tag}.json")
    with open(refs_file, "w") as fh:
        json.dump(refs, fh)
    setup_walls = measure_setup(args.workload)
    imports = measure_imports() if args.trace else None

    spans_file = os.path.join(RUNS_DIR, f"spans-{tag}.json")
    proc = _run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--refs", refs_file, "--spans", spans_file],
                timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    e2e = end_to_end(result, setup_walls)
    failures = list(result["judged"]["failures"])
    attempted = len(result["latencies_s"])
    correct = not failures
    report = {"context": context(args, result), "end_to_end": e2e, "failures": failures[:20]}
    if args.trace:
        traced = result["traced"]
        failures += traced["judged"]["failures"]
        attempted *= 2
        correct = not failures and not traced["mismatched"]
        metrics = per_layer(result, imports, e2e)
        report.update(per_layer=metrics, traced_mismatches=traced["mismatched"], spans_file=spans_file)
    else:
        names = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")
        metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in names}
    with open(os.path.join(RUNS_DIR, f"report-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
