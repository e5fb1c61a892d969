"""Coalition formation among power-uncertain drone base stations."""

from .propagation import (ENVIRONMENTS, Environment, LinkBudget, Position3D,
                          elevation_angle, los_probability, path_loss, rate,
                          rician_k, shadow_std)
from .scenario import (DEFAULT_TYPE_SET, SETTINGS, Scenario,
                       SimulationSetting, TypeSpec, baseline_rates, generate,
                       kmeans_placement)
from .allocation import (AllocationResult, CoalitionEvaluator,
                         max_weight_matching, waterfill)
from .game import (BeliefState, CoalitionStructure, PayoffEngine,
                   enumerate_structures, is_nash_stable)
from .learning import (ObservationLog, TypePrediction, classify,
                       frobenius_convergence, kl_gaussian, mle_gaussian,
                       update_beliefs)
from .dynamics import (DynamicsConfig, NonConvergenceError, RoundRecord,
                       best_reply_step, run_best_reply, run_repeated_game)
from .markov import (MarkovModel, absorbing_states, build_chain,
                     formation_probabilities)
from .bench import (RegimeResult, RunManifest, aggregate, emit_outputs,
                    run_manifest, run_regime)

__version__ = "0.1.0"
