"""The one payoff comparison rule: a relative 1e-12 band, absolute below
1, inside which two payoffs or rates count as equal."""

from types import SimpleNamespace

import pytest

from dronecoal import bench
from dronecoal.bench import RunManifest, run_regime
from dronecoal.game import (CoalitionStructure, DeviationWitness,
                            PayoffEngine, admissible, candidate_groups,
                            is_nash_stable,
                            strictly_better, weakly_better)

BASES = (0.0, 1.0, 1e6)


def gap(base: float, rel: float) -> float:
    return rel * max(1.0, abs(base))


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_gap_inside_the_band_is_a_tie(base, sign):
    other = base + sign * gap(base, 0.5e-12)
    assert other != base
    assert not strictly_better(other, base)
    assert not strictly_better(base, other)
    assert weakly_better(other, base)
    assert weakly_better(base, other)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_gap_outside_the_band_decides(base, sign):
    other = base + sign * gap(base, 2e-12)
    higher, lower = (other, base) if sign > 0 else (base, other)
    assert strictly_better(higher, lower)
    assert not strictly_better(lower, higher)
    assert weakly_better(higher, lower)
    assert not weakly_better(lower, higher)


def test_equal_values():
    for base in BASES:
        assert not strictly_better(base, base)
        assert weakly_better(base, base)


class StubEngine(PayoffEngine):
    """Expected payoffs from a table keyed by (observer, coalition), which
    the engine's per-content decision tables fill from, over the drones
    the table names, and no types.  The stub payoffs ignore ``beliefs``;
    the engine keys its tables by their content and checks their drones
    and types against its own."""

    evaluator = None
    scenario = SimpleNamespace(type_ids=())

    def __init__(self, payoffs):
        self.payoffs = {(d, frozenset(s)): q for (d, s), q in payoffs.items()}
        self.ids = tuple(sorted({d for _, s in payoffs for d in s}))
        self.tables = {}
        self.beliefs = SimpleNamespace(content_key="stub",
                                       drone_ids=self.ids, type_ids=())

    def expected_payoff_of(self, pos, mask, beliefs):
        return self.payoffs[(self.ids[pos], frozenset(
            d for i, d in enumerate(self.ids) if mask >> i & 1))]


@pytest.mark.parametrize("base", (1.0, 1e6))
@pytest.mark.parametrize("rel,accepted", ((0.5e-12, True), (2e-12, False)))
def test_admissible_accepts_a_loss_inside_the_band(base, rel, accepted):
    # drone 1 loses rel of its payoff when drone 0 joins it
    engine = StubEngine({(1, (1,)): base,
                         (1, (0, 1)): base - gap(base, rel)})
    assert admissible(0, (1,), engine, engine.beliefs) is accepted
    assert admissible(0, None, engine, engine.beliefs)


@pytest.mark.parametrize("rel,tied", ((0.5e-12, True), (2e-12, False)))
def test_payoff_levels_tie_inside_the_band(rel, tied):
    # drone 0 gains by joining 1 or 2; joining 2 pays rel less
    q = 2.0 - gap(2.0, rel)
    # a table decides every drone of a structure at once, so drones 1 and
    # 2 read their payoffs together too
    engine = StubEngine({(0, (0,)): 1.0, (0, (0, 1)): 2.0, (0, (0, 2)): q,
                         (1, (1,)): 1.0, (1, (0, 1)): 1.0, (1, (1, 2)): 1.0,
                         (2, (2,)): 1.0, (2, (0, 2)): 1.0, (2, (1, 2)): 1.0})
    singles, beliefs = CoalitionStructure.singletons([0, 1, 2]), engine.beliefs
    groups = candidate_groups(singles, 0, beliefs, engine)
    # drone 0's targets as masks: bit i is drone i
    decision = engine.table(beliefs).decisions(singles)[0]
    if tied:
        assert groups == [(2.0, [(1,), (2,)])]
        assert decision == (2.0, (0b010, 0b100))
    else:
        assert groups == [(2.0, [(1,)]), (q, [(2,)])]
        assert decision == (2.0, (0b010,))
    # the witness is the first best-reply target, at the level's gain
    assert is_nash_stable(singles, beliefs, engine.scenario, engine) == \
        (False, DeviationWitness(0, (1,), 1.0))


@pytest.mark.parametrize("rel,feasible", ((0.5e-12, True), (2e-12, False)))
def test_social_optimum_feasibility_inside_the_band(monkeypatch, rel,
                                                    feasible):
    # the grand coalition has the larger total but leaves drone 1 rel
    # below its baseline rate
    base = {0: 10.0, 1: 1e6}
    rates = {"{0,1}": {0: 20.0, 1: base[1] - gap(base[1], rel)},
             "{0}{1}": dict(base)}
    monkeypatch.setattr(bench, "baseline_rates", lambda ev: dict(base))
    monkeypatch.setattr(bench, "structure_rates",
                        lambda s, ev: dict(rates[s.to_string()]))
    engine = StubEngine({})
    engine.scenario = SimpleNamespace(drone_ids=(0, 1))
    result = run_regime(engine.scenario, "social_optimal", RunManifest(),
                        "S1", 0, 0, engine)
    assert result.structure == ("{0,1}" if feasible else "{0}{1}")
    assert result.note == ""
