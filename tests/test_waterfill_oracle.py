"""Differential test: ``allocation.waterfill`` over an array of budgets, and
the rates ``CoalitionEvaluator`` makes from its rows, against the
one-budget loop in ``oracles.py``, compared bit for bit."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dronecoal.allocation import CoalitionEvaluator, waterfill
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, generate

URBAN = ENVIRONMENTS["urban"]
SCENARIO = generate(SETTINGS["S1"], URBAN, seed=0)
BUDGET = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-300, 1e-12]),
                   st.floats(0.0, 500.0), st.floats(1e250, 1e300))


@st.composite
def fills(draw):
    """Gains of one to eighteen links, with zeros and repeated values (equal
    1/g), sometimes all zero; the links' owners, as indices into the
    scenario's drones; and
    budgets with zero, tiny, huge and repeated ones."""
    n = draw(st.integers(1, 18))
    if draw(st.integers(0, 9)) == 0:
        gains = [0.0] * n
    else:
        pool = draw(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=3))
        gain = st.one_of(st.just(0.0), st.sampled_from(pool),
                         st.floats(1e-6, 1e3))
        gains = draw(st.lists(gain, min_size=n, max_size=n))
    owners = draw(st.lists(st.integers(0, len(SCENARIO.drone_ids) - 1),
                           min_size=n, max_size=n))
    budgets = draw(st.lists(BUDGET, min_size=1, max_size=12))
    budgets += draw(st.lists(st.sampled_from(budgets), max_size=4))
    return gains, owners, budgets


def hexes(values):
    return [float(x).hex() for x in values]


@settings(deadline=None, max_examples=300)
@given(fills())
@example(([0.0, 0.0, 0.0], [0, 1, 1], [4.0, 0.0]))
@example(([2.0], [0], [5.0, 0.0, 5.0, 1e-300]))
@example(([3.0, 3.0, 3.0, 3.0], [0, 0, 1, 2], [8.0, 1e-12, 1e300]))
@example(([10.0, 0.01, 0.0, 10.0], [0, 1, 2, 0], [0.5, 0.5, 0.0]))
def test_batched_fill_equals_one_budget_loop(case):
    gains, owners, budgets = case
    gains = np.array(gains)
    powers, levels = waterfill(gains, np.array(budgets))
    assert powers.shape == (len(budgets), len(gains))
    for b, row, level in zip(budgets, powers, levels):
        ref, ref_level = oracles.waterfill(gains, b)
        assert hexes(row) == hexes(ref)
        assert float(level).hex() == ref_level.hex()
        one, one_level = waterfill(gains, b)
        assert hexes(one) == hexes(ref)
        assert one_level.hex() == ref_level.hex()

    # the evaluator's rate code on the drawn links: its matching cache is
    # seeded, so the rates come from gains no scenario makes
    evaluator = CoalitionEvaluator(SCENARIO)
    members = list(range(len(SCENARIO.drones)))
    grand = (1 << len(members)) - 1
    evaluator._matchings[grand] = members, owners, gains
    rates = evaluator.evaluate_budgets(grand, budgets)
    bandwidth = SCENARIO.env.bandwidth_hz
    for b in budgets:
        ref = oracles.rates(members, owners, gains, b, bandwidth)
        assert list(rates[b]) == list(ref)
        assert hexes(rates[b].values()) == hexes(ref.values())


@pytest.mark.parametrize("setting", ["S2", "S4"])
def test_every_coalition_rates_equal_one_budget_loop(setting):
    # a scenario's matched gains over a sweep of budgets: tens of thousands
    # of link rates, each of which must keep the bits of the scalar
    # ``math.log2`` path
    sc = generate(SETTINGS[setting], URBAN, seed=3)
    evaluator = CoalitionEvaluator(sc)
    budgets = np.linspace(0.0, 240.0, 97).tolist()
    for k in range(1, len(sc.drone_ids) + 1):
        for members in itertools.combinations(range(len(sc.drones)), k):
            mask = sum(1 << i for i in members)
            rates = evaluator.evaluate_budgets(mask, budgets)
            _, owners, gains = evaluator._matched(mask)
            for b in budgets:
                ref = oracles.rates(members, owners, gains, b,
                                    sc.env.bandwidth_hz)
                assert hexes(rates[b].values()) == hexes(ref.values())
