"""Markov chain over coalition structures induced by best-reply dynamics,
built from the walk's decisions (``DecisionTable.decisions``): a
proposer's mass is split uniformly over its best-reply targets.  A
proposer's slot is its position in ``scenario.drone_ids``, which is id
order and its bit in every structure's masks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# candidate_groups is unused here; the benchmark's tracer looks it up here
from .game import (BeliefState, CoalitionStructure, PayoffEngine,
                   candidate_groups, enumerate_structures, moved)

ABSORBING_TOL = 1e-12


@dataclass
class MarkovModel:
    states: list[CoalitionStructure]
    transition: np.ndarray
    absorbing: tuple[int, ...] = ()
    formation_probs: dict[int, float] = field(default_factory=dict)

    def index(self, structure: CoalitionStructure) -> int:
        return self.states.index(structure)

    def export_text(self, path) -> None:
        with open(path, "w") as f:
            f.write("states\n")
            for i, s in enumerate(self.states):
                f.write(f"{i}\t{s.to_string()}\n")
            f.write("transition\n")
            for row in self.transition:
                f.write("\t".join(repr(float(x)) for x in row) + "\n")
            f.write("absorbing\t"
                    + ",".join(str(i) for i in self.absorbing) + "\n")
            f.write("formation_probs\n")
            for i in self.absorbing:
                f.write(f"{i}\t{repr(self.formation_probs.get(i, 0.0))}\n")


def build_chain(scenario, beliefs: BeliefState,
                engine: PayoffEngine,
                veto_self_loop: bool = False) -> MarkovModel:
    """Analytic transition matrix of the best-reply process.  With
    ``veto_self_loop`` only the top payoff level counts: a vetoed
    maximizer's share stays put instead of falling through."""
    ids = scenario.drone_ids
    states = enumerate_structures(ids)
    index = {s.masks: i for i, s in enumerate(states)}
    table = engine.table(beliefs)
    share = 1.0 / len(ids)
    t = np.zeros((len(states), len(states)))
    for i, w in enumerate(states):
        if veto_self_loop:
            rows = [_top_level(table, w, pos) for pos in range(len(ids))]
        else:
            rows = [targets for _, targets in table.decisions(w)]
        # in proposer order: two proposers can reach the same structure
        for pos, chosen in enumerate(rows):
            if not chosen:
                t[i, i] += share
            for m in chosen:
                j = i if m is None else index[moved(w.masks, 1 << pos, m)]
                t[i, j] += share / len(chosen)
    return MarkovModel(states=states, transition=t)


def _top_level(table, structure: CoalitionStructure, pos: int) -> list:
    """The top payoff level's targets of the drone at ``pos``, vetoed ones
    as None (the share stays put)."""
    levels = table.levels(structure, pos)
    return [m if table.accepts(pos, m) else None
            for m in levels[0][1]] if levels else []


def absorbing_states(model: MarkovModel) -> tuple[int, ...]:
    diag = np.diag(model.transition)
    return tuple(int(i) for i in np.flatnonzero(diag >= 1.0 - ABSORBING_TOL))


class TrappedClassError(RuntimeError):
    def __init__(self, states):
        super().__init__(f"transient recurrent class detected: {states}")
        self.states = states


def formation_probabilities(model: MarkovModel,
                            initial: np.ndarray | None = None
                            ) -> dict[int, float]:
    """Absorption probability per absorbing state via the fundamental
    matrix, weighted by the initial distribution (default: point mass on
    the all-singletons structure)."""
    absorbing = absorbing_states(model)
    if not absorbing:
        raise ValueError("chain has no absorbing state")
    n = len(model.states)
    if initial is None:
        ids = model.states[0].members()
        initial = np.zeros(n)
        initial[model.index(CoalitionStructure.singletons(ids))] = 1.0
    initial = np.asarray(initial, dtype=float)
    absorbing_set = set(absorbing)
    transient = [i for i in range(n) if i not in absorbing_set]
    probs = {a: float(initial[a]) for a in absorbing}
    if transient:
        q = model.transition[np.ix_(transient, transient)]
        r = model.transition[np.ix_(transient, list(absorbing))]
        eye = np.eye(len(transient))
        try:
            b = np.linalg.solve(eye - q, r)
        except np.linalg.LinAlgError:
            # singular I - Q: some transient states never reach absorption
            b, *_ = np.linalg.lstsq(eye - q, r, rcond=None)
        reach = b.sum(axis=1)
        for col, a in enumerate(absorbing):
            share = float(initial[transient] @ b[:, col])
            # rounding in solve can leave an unreachable state at -1e-18
            probs[a] = max(0.0, probs[a] + share)
        if sum(probs.values()) < 1.0 - 1e-9:
            low = [transient[i] for i in np.flatnonzero(reach < 1.0 - 1e-6)]
            raise TrappedClassError(
                [model.states[i].to_string() for i in low])
    model.absorbing = absorbing
    model.formation_probs = probs
    return probs
