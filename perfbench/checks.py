"""Independent references per operation and the per-operation correctness gate.

``reference_for`` computes, outside the timed region, what each operation
should return; ``check`` compares a result with it.  An operation fails when
it raised, or when its answer is wrong: off the reference by more than
``GATE`` times what it certifies, oracles disagreeing, a Monte Carlo mean
outside 4 standard errors of its exact target, a tabulated ppf that does not
invert the cdf, or a CLI call that exits non-zero or prints unparseable
output.  Separately from failure, every row with a certified bound is
audited: ``bound_violation`` when |value - reference| > tail_bound, and
``tol_miss`` when the returned tail_bound exceeds the requested tol.
"""

from __future__ import annotations

import json
import math

import mpmath

import inputs
import reference as ref

# A certified row is *wrong* (fails) beyond GATE x max(tail_bound, tol); between
# its bound and that it is counted as a bound violation but still answered.
GATE = 100.0
ORACLE_TOL = 1e-9
MC_SIGMAS = 4.0
PPF_TOL = 1e-10
NAIVE_REL_TOL = 1e-12


def sequence_ref(family: str):
    if family in inputs.POWER_LAW:
        return ref.PowerLaw(*inputs.POWER_LAW[family])
    if family == "beta1":
        return ref.beta_edge(1)
    if family == "beta2":
        return ref.beta_edge(2)
    if family == "tab2":
        return ref.tabulated(*inputs.tab2_table())
    if family == "tab21":
        return ref.tabulated(*inputs.tab21_table())
    raise KeyError(family)


def expected_rounds(p) -> float:
    """E[T] = 1 + sum over nonempty subsets S of (-1)^(|S|-1) p_S / (1 - p_S)."""
    with mpmath.workdps(30):
        prods = [(mpmath.mpf(1), 0)]
        for v in p:
            prods += [(q * mpmath.mpf(v), size + 1) for q, size in prods]
        total = mpmath.fsum((1 if size % 2 else -1) * q / (1 - q) for q, size in prods[1:])
        return float(1 + total)


def cache_key(op: dict) -> str | None:
    kind = op["kind"]
    if kind in ("alt_sum_stable", "alt_sum_naive"):
        return f"A:{op['family']}:{op['n']}:{op['kmin']}"
    if kind == "moment_zeta":
        return f"Z:{op['family']}:{op['s']}"
    if kind == "defect_dnform":
        return f"D:{op['n']}"
    if kind == "trials_random":
        return f"A:{op['family']}:{op['n']}:1"
    if kind == "zeta_mc":
        return f"Z:{op['family']}:{op['n']}"
    return None


class References:
    """Reference values by cache key, computed on demand and kept in ``cache``."""

    def __init__(self, cache: dict | None = None) -> None:
        self.cache = {} if cache is None else cache
        self._seqs: dict = {}

    def _seq(self, family: str):
        if family not in self._seqs:
            self._seqs[family] = sequence_ref(family)
        return self._seqs[family]

    def value(self, key: str) -> float:
        if key not in self.cache:
            what, *args = key.split(":")
            if what == "A":
                family, n, kmin = args[0], int(args[1]), int(args[2])
                v = ref.alt_sum(self._seq(family), n, kmin)
            elif what == "Z":
                v = ref.zeta_value(self._seq(args[0]), int(args[1]))
            else:
                v = ref.defect_deviation(int(args[0]))
            self.cache[key] = float(v)
        return self.cache[key]

    def for_op(self, op: dict):
        kind = op["kind"]
        key = cache_key(op)
        if kind == "trials_fixed":
            return expected_rounds(op["p"])
        if kind == "trials_random":
            return 1.0 - self.value(key)
        if kind == "zeta_mc":
            return 1.0 + self.value(key)
        if kind == "game_oracles":
            return expected_rounds(op["p"]) - 1.0
        if kind == "cli":
            return self._cli(op)
        return None if key is None else self.value(key)

    def _cli(self, op: dict):
        argv = op["argv"]
        name = op["command"]
        if name == "sum":
            ns = [int(v) for v in argv[argv.index("--n") + 1].split(",")]
            return {str(n): self.value(f"A:riemann:{n}:2") for n in ns}
        if name == "dn":
            ns = [int(v) for v in argv[argv.index("--n") + 1].split(",")]
            return {str(n): self.value(f"D:{n}") for n in ns}
        if name in ("game_exact", "game_simulate"):
            p = [float(v) for v in argv[argv.index("--p") + 1].split(",")]
            return expected_rounds(p)
        if name == "predict":
            n = int(argv[argv.index("--n") + 1])
            with mpmath.workdps(30):
                return float(n * mpmath.log(n) + (2 * mpmath.euler - 1) * n)
        return None


def audit_row(value: float, tail_bound: float, tol: float | None, reference: float) -> dict:
    """Error against the reference, and the certificate audit flags."""
    err = abs(value - reference)
    scale = max(tail_bound, tol or 0.0)
    return {
        "err": err,
        "err_over_bound": err / tail_bound if tail_bound > 0 else math.inf,
        "bound_violation": err > tail_bound,
        "tol_miss": tol is not None and tail_bound > tol,
        "wrong": not (err <= GATE * scale),
    }


def check(op: dict, result: dict, reference) -> tuple[bool, dict]:
    """(passed, audit) for one operation's result."""
    kind = op["kind"]
    if kind in ("alt_sum_stable", "moment_zeta", "defect_dnform"):
        audit = audit_row(result["value"], result["tail_bound"], op.get("tol"), reference)
        return not audit["wrong"], audit
    if kind == "alt_sum_naive":
        err = abs(result["value"] - reference)
        return err <= NAIVE_REL_TOL * max(1.0, abs(reference)), {"err": err}
    if kind == "game_oracles":
        gap = abs(result["series"] - result["inclusion_exclusion"])
        err = abs(result["series"] - reference)
        return gap <= ORACLE_TOL and err <= ORACLE_TOL * max(1.0, reference), {"gap": gap, "err": err}
    if kind in ("trials_fixed", "zeta_mc") or (kind == "trials_random" and op["family"] == "beta2"):
        z = abs(result["mean"] - reference) / result["stderr"]
        return z <= MC_SIGMAS, {"z": z}
    if kind == "trials_random":
        # infinite variance: no statistical check on the mean; the target is
        # 1 - A(n; 1), which run_trials asks for at tol 1e-4
        err = abs(result["target"] - reference)
        return math.isfinite(result["mean"]) and err <= GATE * 1e-4, {"target_err": err}
    if kind == "ppf_roundtrip":
        return result["max_err"] <= PPF_TOL, {"max_err": result["max_err"]}
    if kind == "cli":
        return check_cli(op, result, reference)
    raise ValueError(f"unknown operation kind {kind!r}")


def check_cli(op: dict, result: dict, reference) -> tuple[bool, dict]:
    if result["returncode"] != 0:
        return False, {"returncode": result["returncode"]}
    out = result["stdout"]
    name = op["command"]
    try:
        if name == "dn":
            lines = out.strip().splitlines()
            if lines[0] != "n,d_n,abs_dev,scaled_dev":
                return False, {"header": lines[0]}
            rows = [line.split(",") for line in lines[1:]]
            # abs_dev is |D_n - 1/2| at full resolution; the defect is certified to tol 1e-12
            audits = [audit_row(float(r[2]), 0.0, 1e-12, abs(reference[r[0]])) for r in rows]
            return len(rows) == len(reference) and not any(a["wrong"] for a in audits), {}
        doc = json.loads(out)["results"]
    except (ValueError, KeyError, IndexError) as exc:
        return False, {"parse_error": repr(exc)}
    if name == "predict":
        return abs(doc["value"] - reference) <= 1e-12 * abs(reference), {}
    if name == "sum":
        audits = [audit_row(r["value"], r["tail_bound"], 1e-9, reference[str(r["n"])])
                  for r in doc["rows"]]
        return (len(audits) == len(reference) and not any(a["wrong"] for a in audits),
                {"rows": [{"n": r["n"], **a} for r, a in zip(doc["rows"], audits)]})
    if name == "game_exact":
        gap = abs(doc["paper_T"] - doc["inclusion_exclusion"])
        err = abs(doc["expected_rounds"] - reference)
        return gap <= ORACLE_TOL and err <= ORACLE_TOL * max(1.0, reference), {"gap": gap}
    if name == "game_simulate":
        z = abs(doc["mean"] - reference) / doc["stderr"]
        return z <= MC_SIGMAS, {"z": z}
    if name == "verify":
        return doc["all_passed"] is True, {}
    raise ValueError(f"unknown command {name!r}")
