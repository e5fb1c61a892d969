"""Belief learning in the repeated game under uncertainty.

Runs the repeated coalition-formation game on the same topology with
well-separated types (sigma = 3) and heavily overlapping types
(sigma = 6) and prints the per-round Frobenius convergence metric for
both, illustrating how type overlap slows identification.
"""

from dronecoal.dynamics import DynamicsConfig, run_repeated_game
from dronecoal.game import PayoffEngine
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, TypeSpec, generate

SHARP = (TypeSpec(0, 12.0, 3.0), TypeSpec(1, 18.0, 3.0))
OVERLAP = (TypeSpec(0, 12.0, 6.0), TypeSpec(1, 18.0, 6.0))

config = DynamicsConfig(epsilon=0.1, max_rounds=60, seed=0)
runs = {}
for label, types in (("sigma=3", SHARP), ("sigma=6", OVERLAP)):
    scenario = generate(SETTINGS["S1"], ENVIRONMENTS["urban"],
                        type_set=types, seed=0)
    runs[label] = run_repeated_game(config, PayoffEngine(scenario))

print("=== mean Frobenius norm per round (0 = all types identified) ===")
print(f"{'round':>5} {'sigma=3':>8} {'sigma=6':>8}")
longest = max(len(r.rounds) for r in runs.values())
for i in range(longest):
    cells = []
    for label in ("sigma=3", "sigma=6"):
        rounds = runs[label].rounds
        cells.append(f"{rounds[i].mean_norm:>8.3f}" if i < len(rounds)
                     else f"{'--':>8}")
    print(f"{i:>5} " + " ".join(cells))

print()
for label, result in runs.items():
    tag = "converged" if result.converged else "still learning"
    print(f"{label}: {tag} after {len(result.rounds)} rounds, "
          f"final structure {result.structure.to_string()}, "
          f"final norm {result.rounds[-1].mean_norm:.3f}")
