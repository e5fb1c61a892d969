"""Span tracing of dronecoal's public layer functions, done from the
benchmark's side: each traced name is replaced by a recording wrapper at
every dronecoal module that looks it up, and restored afterwards.

Spans are kept in memory as four columns (name, parent, start, end) and
summarised, or written out, only after the traced run has finished.
Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (span name, defining module, attribute; "Class.method" for methods)
SPANS = (
    ("propagation.path_loss", "dronecoal.propagation", "path_loss"),
    ("scenario.generate", "dronecoal.scenario", "generate"),
    ("scenario.baseline_rates", "dronecoal.scenario", "baseline_rates"),
    ("allocation.evaluate", "dronecoal.allocation",
     "CoalitionEvaluator.evaluate"),
    ("allocation.max_weight_matching", "dronecoal.allocation",
     "max_weight_matching"),
    ("allocation.waterfill", "dronecoal.allocation", "waterfill"),
    ("game.expected_payoff", "dronecoal.game",
     "PayoffEngine.expected_payoff_of"),
    ("game.is_nash_stable", "dronecoal.game", "is_nash_stable"),
    ("game.admissible", "dronecoal.game", "admissible"),
    ("game.enumerate_structures", "dronecoal.game", "enumerate_structures"),
    ("learning.update_beliefs", "dronecoal.learning", "update_beliefs"),
    ("learning.frobenius_convergence", "dronecoal.learning",
     "frobenius_convergence"),
    ("dynamics.run_repeated_game", "dronecoal.dynamics",
     "run_repeated_game"),
    ("dynamics.run_best_reply", "dronecoal.dynamics", "run_best_reply"),
    ("dynamics.best_reply_step", "dronecoal.dynamics", "best_reply_step"),
    ("dynamics.candidate_groups", "dronecoal.dynamics", "candidate_groups"),
    ("markov.build_chain", "dronecoal.markov", "build_chain"),
    ("markov.formation_probabilities", "dronecoal.markov",
     "formation_probabilities"),
    ("bench.run_topology", "dronecoal.bench", "run_topology"),
    ("bench.run_regime", "dronecoal.bench", "run_regime"),
    ("bench.stable_set_analysis", "dronecoal.bench", "stable_set_analysis"),
    ("bench.structure_rates", "dronecoal.bench", "structure_rates"),
    ("bench.emit_outputs", "dronecoal.bench", "emit_outputs"),
)


def _log_samples(args, kwargs, result):
    log = args[0] if args else kwargs["log"]
    return sum(len(v) for v in log.samples.values())


# span name -> (counter name, count taken from the call and its result)
COUNTERS = {
    "learning.update_beliefs": ("learning.samples", _log_samples),
    "dynamics.run_repeated_game": ("dynamics.rounds",
                                   lambda args, kwargs, r: len(r.rounds)),
    "markov.build_chain": ("markov.states",
                           lambda args, kwargs, r: len(r.states)),
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.sites: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn, counter=None):
        """``fn`` wrapped so that each call records one span."""
        if span not in self.names:
            self.names.append(span)
        sid = self.names.index(span)
        kind, parent, start, end = self.kind, self.parent, self.start, \
            self.end
        stack, clock, counters = self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                name, count = counter
                counters[name] = counters.get(name, 0) \
                    + count(args, kwargs, result)
            return result
        return traced

    def _set(self, owner, attr: str, value, label: str) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)
        self.sites.append(label)

    def install(self) -> None:
        """Replace every traced name wherever a dronecoal module holds it."""
        for name, _ in COUNTERS.values():
            self.counters.setdefault(name, 0)
        for span, modname, attr in SPANS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                wrapper = self.wrap(span, cls.__dict__[meth],
                                    COUNTERS.get(span))
                self._set(cls, meth, wrapper, f"{modname}.{attr}")
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span, original, COUNTERS.get(span))
            for mname, mod in sorted(sys.modules.items()):
                if (mname.split(".")[0] == "dronecoal"
                        and getattr(mod, "__dict__", {}).get(attr)
                        is original):
                    self._set(mod, attr, wrapper, f"{mname}.{attr}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def columns(self):
        return (np.frombuffer(self.kind, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path) -> None:
        kind, parent, start, end = self.columns()
        np.savez(path, names=np.array(self.names), kind=kind, parent=parent,
                 start=start, end=end)

    def summary(self) -> dict[str, float]:
        """Per-span calls / total_s / self_s, the counters, and the ratios
        derived from parent links."""
        kind, parent, start, end = self.columns()
        duration = end - start
        own = np.asarray(self_times(start, end, parent))
        out: dict[str, float] = {}
        for sid, span in enumerate(self.names):
            mask = kind == sid
            out[f"{span}.calls"] = int(mask.sum())
            out[f"{span}.total_s"] = float(duration[mask].sum())
            out[f"{span}.self_s"] = float(own[mask].sum())
        out.update(self.counters)

        def sid_of(span):
            return self.names.index(span) if span in self.names else -1

        evaluate, payoff = sid_of("allocation.evaluate"), \
            sid_of("game.expected_payoff")
        is_eval = kind == evaluate
        from_payoff = is_eval & (parent >= 0)
        from_payoff[from_payoff] = kind[parent[from_payoff]] == payoff
        out["game.type_vectors"] = int(from_payoff.sum())
        calls = out.get("game.expected_payoff.calls", 0)
        missed = np.unique(parent[from_payoff]).size
        out["game.expected_payoff.miss_ratio"] = missed / calls if calls \
            else 0.0
        evals = out.get("allocation.evaluate.calls", 0)
        fills = out.get("allocation.waterfill.calls", 0)
        out["allocation.evaluate.hit_ratio"] = 1.0 - fills / evals if evals \
            else 0.0
        return out


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (the union of the children, clipped to the parent)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    covered = [0.0] * len(start)
    order = np.lexsort((start, parent))
    s, e, p = start.tolist(), end.tolist(), parent.tolist()
    current, frontier = -1, 0.0
    for i in order.tolist():
        pi = p[i]
        if pi < 0:
            continue
        if pi != current:
            current, frontier = pi, s[pi]
        lo, hi = max(s[i], frontier), min(e[i], e[pi])
        if hi > lo:
            covered[pi] += hi - lo
            frontier = hi
    return [e[i] - s[i] - covered[i] for i in range(len(s))]
