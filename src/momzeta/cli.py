"""Command-line front end: every computation as a reproducible experiment.

Subcommands
    zeta      one moment zeta value Z(s) (--dist riemann gives the Riemann zeta)
    moments   moment sweep of a distribution with the scaled-tail column
    sum       alternating-sum sweep over n, stable or naive, with predictors
    predict   evaluate a growth law at n
    game      exact     closed-form duration oracles for fixed p
              simulate  Monte Carlo runs, fixed-p or random-p
    dn        sum-integral defect sweep
    identity  quadrature vs closed form for the limit integrals
    verify    run the acceptance checks and emit a pass/fail report

Each --dist family reads its own flags, each one required, and no other.
sum --predict reads a growth law's (L, alpha) from the tail m_j ~ L j^(-alpha)
of the sequence it sums, and refuses a kind that does not fit it at that
--kmin.  --c is an option of predict alone, whose kinds each read exactly
their own flags.

Reports are JSON ({"schema": 1, "config": ..., "results": ...}) or CSV with
fixed headers.  Numbers carry 17 significant digits, so a given config and
seed produce byte-identical output on one machine and numpy build; the seed
falls back to the MOMZETA_SEED environment variable, then to 42.  Exit codes: 0 success,
1 numeric failure (divergence, precision, quadrature), 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, NamedTuple, Sequence

from . import binom_sums, euler_maclaurin, game_sim
from .dist_core import (
    BetaEdge,
    PowerMoments,
    Uniform,
    load_tabulated_csv,
    moment_sequence,
)
from .errors import Divergence, DomainError, MomentZetaError
from .game_sim import GameParams
from .moment_zeta import moment_zeta as _moment_zeta_sum

SCHEMA_VERSION = 1


class _Family(NamedTuple):
    reads: tuple[str, ...]  # the distribution flags it reads, each one required
    build: Callable  # args -> EdgeDistribution or PowerMoments
    naive: Callable | None  # args -> zeta source of the naive oracle


_FAMILIES = {
    "uniform": _Family((), lambda a: Uniform(), lambda a: binom_sums.uniform_zeta_source()),
    "beta": _Family(("beta",), lambda a: BetaEdge(beta=a.beta), None),
    "tabulated": _Family(("table",), lambda a: load_tabulated_csv(a.table), None),
    "riemann": _Family((), lambda a: PowerMoments(1.0),
                       lambda a: binom_sums.riemann_zeta_source()),
    "riemann-scaled": _Family(("s",), lambda a: PowerMoments(a.s),
                              lambda a: binom_sums.scaled_riemann_zeta_source(a.s)),
}
_DIST_FLAGS = ("beta", "table", "s")


# ---------------------------------------------------------------------------
# deterministic serialization: floats always carry 17 significant digits
# ---------------------------------------------------------------------------

def fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        import json as _json

        return _json.dumps(obj)
    if isinstance(obj, (bool, int, float)):
        return fmt_number(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(inner + json_dumps(v, indent + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        import json as _json

        body = ",\n".join(
            f"{inner}{_json.dumps(str(k))}: {json_dumps(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else fmt_number(v) if not isinstance(v, str) else v
                              for v in row))
    return "\n".join(lines) + "\n"


def _report(config: dict, results) -> str:
    return json_dumps({"schema": SCHEMA_VERSION, "config": config, "results": results})


def _warn_if_missed(what: str, tail_bound: float, tol: float) -> None:
    # a sum stopped by a cap, or asked for a tol under its rounding, returns
    # a bound above tol; the report itself stays as it is
    if tail_bound > tol:
        print(f"warning: {what}: tail_bound {tail_bound:.3g} exceeds tol {tol:g}", file=sys.stderr)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_dist_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", choices=tuple(_FAMILIES), help="distribution / sequence family")
    p.add_argument("--beta", type=float, help="edge exponent of the density at x=1")
    p.add_argument("--table", help="CSV file with header x,f for --dist tabulated")
    p.add_argument("--s", type=float, help="exponent of the abstract sequence j^(-s)")


def _dist_config(args) -> dict:
    return {
        "family": args.dist,
        "beta": args.beta,
        "table": args.table,
        "s": args.s,
    }


def _check_reads(args, parser: argparse.ArgumentParser, what: str, reads: Sequence[str],
                 flags: Sequence[str]) -> None:
    """Of ``flags``, each one ``what`` reads must be given, and no other."""
    def named(fs):
        return ", ".join(f"--{f.replace('_', '-')}" for f in fs)

    given = [f for f in flags if f not in reads and getattr(args, f) is not None]
    if given:
        parser.error(f"{what} takes no {named(given)}")
    missing = [f for f in reads if getattr(args, f) is None]
    if missing:
        parser.error(f"{what} needs {named(missing)}")


def _build_source(args, parser: argparse.ArgumentParser, density: bool = False):
    """EdgeDistribution or PowerMoments from CLI flags; ``density`` refuses the latter."""
    if args.dist is None:
        parser.error("--dist is required")
    family = _FAMILIES[args.dist]
    _check_reads(args, parser, f"--dist {args.dist}", family.reads, _DIST_FLAGS)
    source = family.build(args)
    if density and isinstance(source, PowerMoments):
        parser.error(f"--dist {args.dist} is an abstract sequence, not a distribution")
    return source


class _Once(argparse.Action):
    """Store the flag's value, and make a second occurrence a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} given more than once; pass one comma-separated list")
        setattr(namespace, self.dest, values)


def _parse_list(text: str, parser: argparse.ArgumentParser, flag: str, kind: type = float) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part]
    except ValueError:
        noun = "integer" if kind is int else "number"
        parser.error(f"{flag} expects a comma-separated {noun} list, got {text!r}")
    if not values:
        parser.error(f"{flag} is empty")
    return values


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MOMZETA_SEED")
    if env is not None:
        return int(env)
    return 42


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_zeta(args, parser) -> int:
    ms = moment_sequence(_build_source(args, parser))
    res = _moment_zeta_sum(ms, args.s_eval, tol=args.tol)
    _warn_if_missed("zeta", res.tail_bound, args.tol)
    config = {"command": "zeta", "dist": _dist_config(args), "s_eval": args.s_eval,
              "tol": args.tol}
    results = {"value": res.value, "tail_bound": res.tail_bound,
               "terms_used": res.terms_used, "method": res.method}
    _write_output(_report(config, results), args.output)
    return 0


def _cmd_moments(args, parser) -> int:
    import numpy as np

    if args.k_max < 1 or args.points < 1:
        parser.error("--k-max and --points must be >= 1")
    ms = moment_sequence(_build_source(args, parser, density=True))
    pl = ms.power_law
    ks = np.unique(np.round(np.geomspace(1, args.k_max, args.points)).astype(np.int64))
    m = ms.moments(ks)
    rows = [
        (int(k), float(mk), float(k**pl.alpha * mk), pl.L)
        for k, mk in zip(ks, m)
    ]
    text = _csv_text(("k", "m_k", "k_pow_alpha_m_k", "tail_L"), rows)
    _write_output(text, args.output)
    return 0


def _cmd_sum(args, parser) -> int:
    ms = moment_sequence(_build_source(args, parser))
    ns = _parse_list(args.n, parser, "--n", int)
    preds = [None] * len(ns)
    if args.predict is not None:
        # the growth law reads (L, alpha) from the summed sequence's form; a
        # kind that does not fit it is refused before anything is summed
        try:
            law = binom_sums.sequence_law(args.predict, ms.power_law, args.kmin)
            preds = [law(n) for n in ns]
        except DomainError as exc:
            parser.error(f"--predict {exc}")
    if args.method == "naive":
        naive = _FAMILIES[args.dist].naive
        if naive is None:
            parser.error(f"--method naive has no oracle for --dist {args.dist}")
        zeta_source = naive(args)
    rows = []
    for n, pred in zip(ns, preds):
        if args.method == "stable":
            res = binom_sums.alt_sum_stable(ms, n, kmin=args.kmin, tol=args.tol)
            value, tail_bound, terms = res.value, res.tail_bound, res.terms_used
        else:
            value = binom_sums.alt_sum_naive(n, args.kmin, zeta_source)
            tail_bound, terms = 0.0, n - args.kmin + 1
        _warn_if_missed(f"sum n={n}", tail_bound, args.tol)
        # a kmin 1 law predicts the magnitude of a negative sum
        residual = None if pred is None else (abs(value) if args.kmin == 1 else value) - pred
        rows.append({"n": n, "value": value, "prediction": pred, "residual": residual,
                     "tail_bound": tail_bound, "terms_used": terms})
    config = {
        "command": "sum", "dist": _dist_config(args), "n": ns, "kmin": args.kmin,
        "tol": args.tol, "method": args.method, "predict": args.predict,
        "format": args.format,
    }
    if args.format == "csv":
        text = _csv_text(("n", "value", "prediction", "residual", "tail_bound", "terms_used"),
                         [tuple(r.values()) for r in rows])
    else:
        text = _report(config, {"rows": rows})
    _write_output(text, args.output)
    return 0


def _cmd_predict(args, parser) -> int:
    _check_reads(args, parser, f"predict --kind {args.kind}",
                 binom_sums.PREDICTION_KINDS[args.kind].reads, ("beta", "c", "s"))
    pred = binom_sums.predict(args.kind, args.n, c=args.c, beta=args.beta, s=args.s)
    config = {"command": "predict", "kind": args.kind, "n": args.n,
              "c": args.c, "beta": args.beta, "s": args.s}
    _write_output(_report(config, {"value": pred.value, "params": pred.params}), args.output)
    return 0


def _cmd_game_exact(args, parser) -> int:
    params = GameParams(_parse_list(args.p, parser, "--p"))
    series = game_sim.paper_T_series(params, tol=args.tol)
    _warn_if_missed("game exact", series.tail_bound, args.tol)
    results = {
        "paper_T": series.value,
        "paper_T_tail_bound": series.tail_bound,
        "expected_rounds": 1.0 + series.value,
        "inclusion_exclusion": (
            game_sim.paper_T_inclusion_exclusion(params) if params.n <= 20 else None
        ),
    }
    config = {"command": "game-exact", "p": list(params.p), "tol": args.tol}
    _write_output(_report(config, results), args.output)
    return 0


def _cmd_game_simulate(args, parser) -> int:
    seed = _resolve_seed(args)
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.p is not None:
        _check_reads(args, parser, "game simulate --p", (), ("dist", *_DIST_FLAGS, "n_sets"))
        params = GameParams(_parse_list(args.p, parser, "--p"))
        report = game_sim.run_trials("fixed-p", params, trials=args.trials, seed=seed)
        config = {"command": "game-simulate", "mode": "fixed-p", "p": list(params.p),
                  "trials": args.trials, "seed": seed}
    else:
        source = _build_source(args, parser, density=True)
        if args.n_sets is None or args.n_sets < 1:
            parser.error("game simulate --dist ... needs --n-sets >= 1")
        report = game_sim.run_trials("random-p", source, trials=args.trials, seed=seed,
                                     n=args.n_sets)
        config = {"command": "game-simulate", "mode": "random-p",
                  "dist": _dist_config(args), "n_sets": args.n_sets,
                  "trials": args.trials, "seed": seed}
    _write_output(_report(config, report.to_json_dict()), args.output)
    return 0


def _cmd_dn(args, parser) -> int:
    rows = []
    for n in _parse_list(args.n, parser, "--n", int):
        res = euler_maclaurin.defect_dnform(n, tol=args.tol)
        rows.append((res.n, res.d_value, abs(res.deviation), res.n * abs(res.deviation)))
    _write_output(_csv_text(("n", "d_n", "abs_dev", "scaled_dev"), rows), args.output)
    return 0


def _cmd_identity(args, parser) -> int:
    ls = _parse_list(args.l_grid, parser, "--l-grid")
    alphas = _parse_list(args.alpha_grid, parser, "--alpha-grid")
    rows = []
    for length in ls:
        for variant, alpha in [*(("power", a) for a in alphas), ("log", 1.0)]:
            quad, closed = binom_sums.gamma_integral_identity_check(length, alpha)
            rows.append((variant, length, alpha, quad, closed, abs(quad - closed)))
    text = _csv_text(
        ("variant", "L", "alpha", "quadrature", "closed_form", "abs_diff"), rows
    )
    _write_output(text, args.output)
    return 0


def _cmd_verify(args, parser) -> int:
    from . import acceptance

    seed = _resolve_seed(args)
    only = args.criteria.split(",") if args.criteria else None
    results = acceptance.run_all(seed=seed, only=only)
    for res in results:
        print(f"{res.line()} ({res.seconds:.2f}s)", file=sys.stderr)
    # timings stay out of the report so identical config + seed give
    # byte-identical bytes
    payload = {
        "criteria": [
            {"id": r.cid, "description": r.description, "passed": r.passed,
             "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    config = {"command": "verify", "criteria": only, "seed": seed}
    _write_output(_report(config, payload), args.output)
    return 0 if payload["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momzeta",
        description="moment zeta sums, alternating binomial sums, and the covering game",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default=None, seed=False):
        p.add_argument("-o", "--output", help="output file (default stdout)")
        if fmt_default:
            p.add_argument("--format", choices=("json", "csv"), default=fmt_default)
        if seed:
            p.add_argument("--seed", type=int, help="RNG seed (fallback: MOMZETA_SEED, then 42)")

    p = sub.add_parser("zeta", help="one moment zeta value")
    p.add_argument("--s-eval", type=float, required=True, help="exponent s of the moment zeta sum")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_dist_args(p)
    common(p)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("moments", help="moment sweep with tail check")
    _add_dist_args(p)
    p.add_argument("--k-max", type=int, default=10_000)
    p.add_argument("--points", type=int, default=25)
    common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("sum", help="alternating-sum sweep over n")
    _add_dist_args(p)
    p.add_argument("--n", required=True, help="comma-separated n values")
    p.add_argument("--kmin", type=int, choices=(1, 2), default=1)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--method", choices=("stable", "naive"), default="stable")
    p.add_argument("--predict", choices=binom_sums.PREDICTION_KINDS,
                   help="add prediction and residual columns")
    common(p, fmt_default="csv")
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("predict", help="evaluate a growth law")
    p.add_argument("--kind", required=True, choices=binom_sums.PREDICTION_KINDS)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--c", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--s", type=float)
    common(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("game", help="covering game oracles and simulation")
    gsub = p.add_subparsers(dest="game_cmd", required=True)
    pe = gsub.add_parser("exact", help="closed-form duration oracles")
    pe.add_argument("--p", required=True, action=_Once,
                    help="comma-separated measures p_i in [0,1)")
    pe.add_argument("--tol", type=float, default=1e-12)
    common(pe)
    pe.set_defaults(func=_cmd_game_exact)
    ps = gsub.add_parser("simulate", help="Monte Carlo game runs")
    ps.add_argument("--p", action=_Once, help="fixed measures p_i (fixed-p mode)")
    _add_dist_args(ps)
    ps.add_argument("--n-sets", type=int, help="number of sets in random-p mode")
    ps.add_argument("--trials", type=int, default=100_000)
    common(ps, seed=True)
    ps.set_defaults(func=_cmd_game_simulate)

    p = sub.add_parser("dn", help="sum-integral defect sweep")
    p.add_argument("--n", required=True, help="comma-separated n values")
    p.add_argument("--tol", type=float, default=1e-12)
    common(p)
    p.set_defaults(func=_cmd_dn)

    p = sub.add_parser("identity", help="limit-integral identity checks")
    p.add_argument("--l-grid", default="0.5,1,2")
    p.add_argument("--alpha-grid", default="1.5,2,3")
    common(p)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--criteria", help="comma-separated criterion ids (default: all)")
    common(p, seed=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except Divergence as exc:
        print(f"divergent: {exc}", file=sys.stderr)
        return 1
    except (MomentZetaError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
