"""Spans recorded around calls into momzeta, from wrappers the benchmark installs.

A span is {name, start, end, parent, op}; the spans stay in memory and are
written out when the run ends.  ``Tracer.install`` patches the public
functions of each layer where their callers look them up:

* functions imported with ``from ... import`` are patched in the consumer's
  namespace too (``binom_sums.power_tail_sum``, ``game_sim._moment_zeta_sum``,
  the names ``cli`` imported, the package namespace);
* ``momzeta.moment_zeta`` is the function, so the module comes from
  ``importlib.import_module("momzeta.moment_zeta")``;
* ``MomentSequence.moments`` and each family's ``ppf`` are wrapped at class
  level, because sequences keep bound methods taken before tracing starts.

``uninstall`` restores every original, so traced and untraced runs can
share one process.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op: int | None = None

    # -- recording -----------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if counts:
            span.counts.update(counts)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name, counter=None):
        """fn wrapped in a span; ``name`` may be a callable of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name(*args, **kwargs) if callable(name) else name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(result, *args, **kwargs)
                return result
            finally:
                tracer.end(index, counts)

        return traced

    # -- patching ------------------------------------------------------------
    def _patch(self, targets, name, counter=None) -> None:
        """Replace the function at each (owner, attribute) target by one traced wrapper.

        The first target holds the public function; the others are names
        bound to it elsewhere.  A target that does not exist, or no longer
        holds that function, is left alone, so a refactored program loses
        spans rather than the benchmark crashing.
        """

        def current(owner, attr):
            return owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)

        original = current(*targets[0])
        if original is None:
            return
        traced = self.wrap(original, name, counter)
        for owner, attr in targets:
            if current(owner, attr) is not original:
                continue
            self._patches.append((owner, attr, original))
            if isinstance(owner, dict):
                owner[attr] = traced
            else:
                setattr(owner, attr, traced)

    def install(self) -> None:
        import momzeta
        from momzeta import acceptance, binom_sums, cli, dist_core, euler_maclaurin, game_sim

        mz = importlib.import_module("momzeta.moment_zeta")

        family_of = {"PowerMoments": "power", "Uniform": "uniform", "BetaEdge": "beta",
                     "TabulatedDensity": "tabulated"}

        def moments_name(seq, j):
            owner = getattr(seq._evaluator, "__self__", None)
            return f"dist_core.moments.{family_of.get(type(owner).__name__, 'other')}"

        self._patch([(dist_core.MomentSequence, "moments")], moments_name,
                    lambda r, seq, j: {"values": int(getattr(r, "size", 1))})
        for cls, fam in ((dist_core.Uniform, "uniform"), (dist_core.BetaEdge, "beta"),
                         (dist_core.TabulatedDensity, "tabulated")):
            self._patch([(cls, "ppf")], f"dist_core.ppf.{fam}",
                        lambda r, dist, u: {"draws": int(getattr(r, "size", 1))})
        self._patch([(m, "moment_sequence") for m in (dist_core, momzeta, game_sim, cli, acceptance)],
                    "dist_core.moment_sequence")

        generic_cap = getattr(binom_sums, "_GENERIC_CAP", None)
        power_cap = getattr(binom_sums, "_POWER_LAW_J_CAP", None)

        def stable_name(ms, *a, **k):
            path = "power_law" if ms.power_law is not None else "generic"
            return f"binom_sums.alt_sum_stable.{path}"

        def stable_counts(r, ms, n, kmin=1, tol=1e-8, **k):
            cap = power_cap if ms.power_law is not None else generic_cap
            return {"terms": r.terms_used, "cap_hits": int(cap is not None and r.terms_used >= cap),
                    "tol_met": int(r.tail_bound <= tol)}

        self._patch([(binom_sums, "alt_sum_stable"), (momzeta, "alt_sum_stable")], stable_name,
                    stable_counts)
        self._patch([(binom_sums, "alt_sum_naive"), (momzeta, "alt_sum_naive")],
                    "binom_sums.alt_sum_naive")
        self._patch([(mz, "power_tail_sum"), (binom_sums, "power_tail_sum")],
                    "moment_zeta.power_tail_sum")
        zeta_cap = getattr(mz, "_GENERIC_CAP", None)
        self._patch([(mz, "moment_zeta"), (momzeta, "moment_zeta"), (game_sim, "_moment_zeta_sum"),
                     (cli, "_moment_zeta_sum")], "moment_zeta.moment_zeta",
                    lambda r, *a, **k: {"terms": r.terms_used,
                                        "cap_hits": int(zeta_cap is not None and r.terms_used >= zeta_cap)})
        self._patch([(game_sim, "paper_T_series"), (momzeta, "paper_T_series")],
                    "game_sim.paper_T_series",
                    lambda r, *a, **k: {"iterations": r.terms_used})
        self._patch([(game_sim, "paper_T_inclusion_exclusion"),
                     (momzeta, "paper_T_inclusion_exclusion")], "game_sim.paper_T_inclusion_exclusion",
                    lambda r, params: {"subsets": 2 ** params.n - 1})
        self._patch([(game_sim, "run_trials"), (momzeta, "run_trials")], "game_sim.run_trials",
                    lambda r, *a, **k: {"trials": r.trials})
        self._patch([(game_sim, "zeta_expectation_mc"), (momzeta, "zeta_expectation_mc")],
                    "game_sim.zeta_expectation_mc")
        for fn in ("defect_dnform", "defect_direct"):
            self._patch([(euler_maclaurin, fn), (momzeta, fn)], f"euler_maclaurin.{fn}")
        # run_criterion looks criteria up in the CRITERIA dict
        for cid in list(acceptance.CRITERIA):
            self._patch([(acceptance.CRITERIA, cid)], f"acceptance.criterion_{cid}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded in a child process under the span ``parent``."""
        offset = len(self.spans)
        for s in spans:
            self.spans.append(Span(s["name"], s["start"], s["end"],
                                   parent if s["parent"] is None else s["parent"] + offset,
                                   self.spans[parent].op, dict(s.get("counts", {}))))

    # -- analysis --------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def layers(self, passes: int) -> dict:
        """Self time, calls and counts per span name, per pass."""
        agg: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            a = agg.setdefault(s.name, {"self_s": 0.0, "wall_s": 0.0, "calls": 0})
            a["self_s"] += own
            a["wall_s"] += s.end - s.start
            a["calls"] += 1
            for k, v in s.counts.items():
                a[k] = a.get(k, 0) + v
        return {name: {k: v / passes for k, v in a.items()} for name, a in agg.items()}

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op,
                 **({"counts": s.counts} if s.counts else {})} for s in self.spans]
