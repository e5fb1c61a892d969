"""Best-reply coalition formation on one topology with full information.

Generates a 3-drone network where cooperation pays, walks the best-reply
dynamics from the all-singletons start, and compares each drone's final
rate with its non-cooperative baseline.
"""

import numpy as np

from dronecoal.game import (BeliefState, CoalitionStructure, PayoffEngine,
                            enumerate_structures, is_nash_stable)
from dronecoal.dynamics import run_best_reply
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, baseline_rates, generate

scenario = generate(SETTINGS["S1"], ENVIRONMENTS["urban"], seed=8)
engine = PayoffEngine(scenario)
beliefs = BeliefState.point_mass_truth(scenario)
base = baseline_rates(scenario, engine.evaluator)

print("=== scenario ===")
for d in scenario.drones:
    print(f"drone {d.id}: type {d.true_type} "
          f"(mu={scenario.true_power(d.id)} W), "
          f"users {scenario.baseline_users(d.id)}, "
          f"baseline rate {base[d.id]:.3f}")

print()
print("=== stability of every structure ===")
for s in enumerate_structures(scenario.drone_ids):
    stable, witness = is_nash_stable(s, beliefs, scenario, engine)
    tag = "STABLE" if stable else \
        f"unstable (drone {witness.drone} gains {witness.payoff_gain:.3f})"
    print(f"  {s.to_string():<14} {tag}")

print()
print("=== best-reply run from singletons ===")
singles = CoalitionStructure.singletons(scenario.drone_ids)
final, stats = run_best_reply(singles, beliefs, scenario, engine,
                              np.random.default_rng(0))
print(f"final structure: {final.to_string()} "
      f"({stats.changes} changes over {stats.proposals} proposals)")
for d in scenario.drone_ids:
    q = engine.expected_payoff(d, frozenset(final.block_of(d)), beliefs)
    delta = q - base[d]
    print(f"  drone {d}: {q:.3f} vs baseline {base[d]:.3f} "
          f"({'+' if delta >= 0 else ''}{delta:.3f})")
