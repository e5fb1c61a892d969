"""Analytic absorption analysis of the best-reply process.

Builds the Markov chain over all 15 coalition structures of a 4-drone
network whose dynamics can end in two different stable structures, prints
the transition matrix, and compares the analytic formation probabilities
with simulated trajectories.
"""

import numpy as np

from dronecoal.dynamics import best_reply_step
from dronecoal.game import BeliefState, CoalitionStructure, PayoffEngine
from dronecoal.markov import (absorbing_states, build_chain,
                              formation_probabilities)
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, generate

scenario = generate(SETTINGS["S2"], ENVIRONMENTS["urban"], seed=87)
engine = PayoffEngine(scenario)
beliefs = BeliefState.point_mass_truth(scenario)

model = build_chain(scenario, beliefs, engine)
absorbing = absorbing_states(model)
probs = formation_probabilities(model)

print(f"{len(model.states)} structures, "
      f"{len(absorbing)} absorbing: "
      + ", ".join(model.states[i].to_string() for i in absorbing))

print()
print("=== transition matrix (rows/cols in enumeration order) ===")
for i, row in enumerate(model.transition):
    cells = " ".join(f"{x:.3f}" if x else "  .  " for x in row)
    print(f"{model.states[i].to_string():<16} {cells}")

print()
print("=== formation probabilities from the all-singletons start ===")
for i in absorbing:
    print(f"  {model.states[i].to_string():<16} analytic {probs[i]:.4f}")

print()
print("=== Monte-Carlo check (2000 trajectories) ===")
rng = np.random.default_rng(0)
ids = scenario.drone_ids
counts = {i: 0 for i in absorbing}
absorbing_set = set(absorbing)
for _ in range(2000):
    state = CoalitionStructure.singletons(ids)
    while model.index(state) not in absorbing_set:
        proposer = ids[int(rng.integers(len(ids)))]
        state = best_reply_step(state, proposer, beliefs, engine, rng)
    counts[model.index(state)] += 1
for i in absorbing:
    print(f"  {model.states[i].to_string():<16} "
          f"simulated {counts[i] / 2000:.4f}")
