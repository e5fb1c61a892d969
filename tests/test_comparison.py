"""The one payoff comparison rule: a relative 1e-12 band, absolute below
1, inside which two payoffs or rates count as equal."""

from types import SimpleNamespace

import pytest

from dronecoal import bench
from dronecoal.bench import RunManifest, run_regime
from dronecoal.game import (CoalitionStructure, DeviationWitness,
                            admissible, best_reply,
                            candidate_groups, is_nash_stable,
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


class StubEngine:
    """Expected payoffs from a table keyed by (observer, coalition)."""

    evaluator = None

    def __init__(self, payoffs):
        self.payoffs = {(d, frozenset(s)): q for (d, s), q in payoffs.items()}

    def expected_payoff(self, observer, coalition, beliefs):
        return self.payoffs[(observer, frozenset(coalition))]


@pytest.mark.parametrize("base", (1.0, 1e6))
@pytest.mark.parametrize("rel,accepted", ((0.5e-12, True), (2e-12, False)))
def test_admissible_accepts_a_loss_inside_the_band(base, rel, accepted):
    # drone 1 loses rel of its payoff when drone 0 joins it
    engine = StubEngine({(1, (1,)): base,
                         (1, (0, 1)): base - gap(base, rel)})
    assert admissible(0, (1,), engine, beliefs=None) is accepted
    assert admissible(0, None, engine, beliefs=None)


@pytest.mark.parametrize("rel,tied", ((0.5e-12, True), (2e-12, False)))
def test_payoff_levels_tie_inside_the_band(rel, tied):
    # drone 0 gains by joining 1 or 2; joining 2 pays rel less
    q = 2.0 - gap(2.0, rel)
    engine = StubEngine({(0, (0,)): 1.0, (0, (0, 1)): 2.0, (0, (0, 2)): q,
                         (1, (1,)): 1.0, (1, (0, 1)): 1.0,
                         (2, (2,)): 1.0, (2, (0, 2)): 1.0})
    singles = CoalitionStructure.singletons([0, 1, 2])
    groups = candidate_groups(singles, 0, None, engine)
    if tied:
        assert groups == [(2.0, [(1,), (2,)])]
        assert best_reply(singles, 0, None, engine) == (2.0, [(1,), (2,)])
    else:
        assert groups == [(2.0, [(1,)]), (q, [(2,)])]
        assert best_reply(singles, 0, None, engine) == (2.0, [(1,)])
    # the witness is the first best-reply target, at the level's gain
    assert is_nash_stable(singles, None, None, engine) == \
        (False, DeviationWitness(0, (1,), 1.0))


@pytest.mark.parametrize("rel,feasible", ((0.5e-12, True), (2e-12, False)))
def test_social_optimum_feasibility_inside_the_band(monkeypatch, rel,
                                                    feasible):
    # the grand coalition has the larger total but leaves drone 1 rel
    # below its baseline rate
    base = {0: 10.0, 1: 1e6}
    rates = {"{0,1}": {0: 20.0, 1: base[1] - gap(base[1], rel)},
             "{0}{1}": dict(base)}
    monkeypatch.setattr(bench, "baseline_rates", lambda sc, ev: dict(base))
    monkeypatch.setattr(bench, "structure_rates",
                        lambda s, sc, ev: dict(rates[s.to_string()]))
    scenario = SimpleNamespace(drone_ids=(0, 1))
    result = run_regime(scenario, "social_optimal", RunManifest(), "S1", 0,
                        0, StubEngine({}))
    assert result.structure == ("{0,1}" if feasible else "{0}{1}")
    assert result.note == ""
