"""Differential tests: repeated games played in lockstep on one engine and
one ``ObservationLog`` (``dynamics.run_repeated_games``) against each game
played alone on a fresh engine.  Every game of a batch must give the
round stream, outcome, stall trace and final learning state of its lone
run, whatever the other games in the batch do."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dronecoal import bench
from dronecoal.dynamics import (DynamicsConfig, run_repeated_game,
                                run_repeated_games)
from dronecoal.game import PayoffEngine
from dronecoal.propagation import ENVIRONMENTS
from dronecoal.scenario import SETTINGS, generate

URBAN = ENVIRONMENTS["urban"]


def fingerprint(result) -> tuple:
    """Everything a repeated game leaves behind, as comparable values."""
    stall = None if result.stall is None else (
        str(result.stall), [s.to_string() for s in result.stall.trace])
    return ([r.to_json() for r in result.rounds], result.converged, stall,
            result.prediction.tobytes(), result.structure.to_string(),
            result.beliefs.content_key)


def assert_batch_equals_lone_runs(sc, configs):
    batch = run_repeated_games(configs, PayoffEngine(sc))
    assert len(batch) == len(configs)
    for config, result in zip(configs, batch):
        assert fingerprint(result) == \
            fingerprint(run_repeated_game(config, PayoffEngine(sc)))
    return batch


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(["S1", "S2", "S3", "S4"]),
       scenario_seed=st.integers(0, 10_000),
       seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
       epsilon=st.sampled_from([0.0, 0.1, 1.0]),
       init_grand_rounds=st.integers(1, 3),
       max_rounds=st.integers(1, 8),
       stability_window=st.integers(1, 3))
def test_lockstep_games_equal_lone_runs(name, scenario_seed, seeds, epsilon,
                                        init_grand_rounds, max_rounds,
                                        stability_window):
    # a repeated seed plays the same game twice in one batch
    sc = generate(SETTINGS[name], URBAN, seed=scenario_seed)
    configs = [DynamicsConfig(epsilon, init_grand_rounds, max_rounds,
                              stability_window, seed) for seed in seeds]
    assert_batch_equals_lone_runs(sc, configs)


def test_paper_topology_with_a_cycle_as_one_batch():
    # seed-0 S4 topology 2 as run_topology plays it: rep 23 stops on a
    # best-reply cycle, and the others converge, each as it does alone
    manifest = bench.RunManifest(settings=["S4"], topologies=5,
                                 repetitions=30, seed=0,
                                 regimes=["proposed"])
    sc = generate(SETTINGS["S4"], URBAN, manifest.types(),
                  seed=bench.scenario_seed(manifest, 0, 2))
    configs = [bench._proposed_config(manifest,
                                      bench.run_seed(manifest, 0, 2, rep))
               for rep in range(manifest.repetitions)]
    batch = assert_batch_equals_lone_runs(sc, configs)
    assert [rep for rep, r in enumerate(batch) if r.stall is not None] == [23]
    assert [rep for rep, r in enumerate(batch) if not r.converged] == [23]
    # the games end at different rounds, so later rounds run fewer games
    assert len({len(r.rounds) for r in batch}) > 1
    assert all(not r.prediction.flags.writeable for r in batch)
