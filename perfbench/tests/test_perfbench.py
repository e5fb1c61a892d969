"""Tests of the benchmark's own arithmetic: span self time, the latency
tail rule, failure accounting, whole-pass repetition, and the tracer's
patching."""

import itertools

import pytest

from harness import (CRASHED, NON_CONVERGED, WRONG_OUTPUT, Unit, cycle_of,
                     percentile, run_units, tail_percentile)
from tracer import Tracer, self_times


def test_self_time_subtracts_union_of_children():
    # 0: root [0, 10]; 1, 2 overlap under root ([1, 4] and [3, 6]);
    # 3 is nested in 1; 4 sticks out of root's end and is clipped.
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    own = self_times(start, end, parent)
    assert own == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_self_time_of_disjoint_children_is_duration_minus_their_sum():
    start = [0.0, 0.5, 2.0, 2.5]
    end = [4.0, 1.5, 3.0, 2.75]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent) == pytest.approx(
        [2.0, 1.0, 0.75, 0.25])


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (10_000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0
    assert percentile([7.0], 90) == 7.0


class Cycle(RuntimeError):
    def __init__(self):
        super().__init__("no stable structure")
        self.trace = ["a", "b", "c", "d", "b", "c", "d"]


def test_failures_are_isolated_and_counted():
    def cycle():
        raise Cycle()

    def crash():
        raise KeyError("drone 7")

    def check(out):
        if out == "bad":
            return WRONG_OUTPUT, "bad output"
        if out == "stuck":
            return NON_CONVERGED, "hit max rounds"
        return None

    units = [Unit("ok1", lambda: "good", check),
             Unit("cycle", cycle, check),
             Unit("crash", crash, check),
             Unit("wrong", lambda: "bad", check),
             Unit("stuck", lambda: "stuck", check),
             Unit("ok2", lambda: "good", check)]
    run = run_units(lambda: units, seconds=0, non_convergence=Cycle)
    records = run.records
    assert run.passes == 1
    assert [r.name for r in records] == [u.name for u in units]
    assert [r.kind for r in records] == [
        None, NON_CONVERGED, CRASHED, WRONG_OUTPUT, NON_CONVERGED, None]
    assert records[1].error == "Cycle: no stable structure"
    assert records[1].cycle == ["b", "c", "d"]
    assert records[2].error == "KeyError: 'drone 7'"
    assert records[2].cycle == []
    assert run.busy >= 0.0
    assert all(r.calib > 0.0 for r in records)


def test_whole_passes_repeat_while_the_next_fits_in_the_time():
    now = [0.0]
    made = []

    def work():   # each unit takes 10 s of the fake clock
        now[0] += 10.0

    def make_pass():
        made.append(len(made))
        return [Unit(f"u{j}", work, lambda out: None) for j in range(3)]

    # 30 s a pass: a third pass would end at 90 s, beyond 85 s
    run = run_units(make_pass, seconds=85, non_convergence=Cycle,
                    clock=lambda: now[0], calib=lambda: 0.25)
    assert run.passes == len(made) == 2
    assert [r.name for r in run.records] == ["u0", "u1", "u2"] * 2
    assert run.busy == 60.0
    # slices around the run, and before every unit but the first (>= 0.5 s
    # after the last slice); each unit gets the mean of its two slices
    assert run.calib == [0.25] * 7
    assert [r.calib for r in run.records] == [0.25] * 6
    assert run_units(make_pass, seconds=90, non_convergence=Cycle,
                     clock=lambda: now[0]).passes == 3
    assert run_units(make_pass, seconds=0, non_convergence=Cycle,
                     clock=lambda: now[0]).passes == 1


def test_cycle_of_structures_or_strings():
    assert cycle_of(["x", "y", "x"]) == ["y", "x"]
    assert cycle_of(["x"]) == ["x"]
    assert cycle_of([]) == []


def test_tracer_counts_parents_and_derived_ratios():
    clock = itertools.count()
    tracer = Tracer(clock=lambda: float(next(clock)))
    cache = {}
    evaluate = tracer.wrap("allocation.evaluate", lambda key: key)
    waterfill = tracer.wrap("allocation.waterfill", lambda: None)

    def compute(key):
        if key not in cache:
            for vector in range(2):
                evaluate(vector)
            waterfill()
            cache[key] = True
        return cache[key]

    payoff = tracer.wrap("game.expected_payoff", compute)
    for key in ("a", "a", "b", "a"):
        payoff(key)
    evaluate("direct")
    out = tracer.summary()
    assert out["game.expected_payoff.calls"] == 4
    assert out["allocation.evaluate.calls"] == 5
    assert out["game.type_vectors"] == 4
    assert out["game.expected_payoff.miss_ratio"] == 0.5
    assert out["allocation.evaluate.hit_ratio"] == pytest.approx(1 - 2 / 5)
    total = out["game.expected_payoff.total_s"]
    children = out["allocation.evaluate.total_s"] - 1.0 \
        + out["allocation.waterfill.total_s"]
    assert out["game.expected_payoff.self_s"] == pytest.approx(
        total - children)


def test_tracer_patches_every_lookup_site_and_restores():
    from dronecoal import bench, dynamics, markov
    originals = (dynamics.candidate_groups, dynamics.run_best_reply)
    tracer = Tracer()
    tracer.install()
    try:
        assert markov.candidate_groups is dynamics.candidate_groups
        assert dynamics.candidate_groups is not originals[0]
        assert bench.run_best_reply is dynamics.run_best_reply
        assert dynamics.run_best_reply is not originals[1]
        assert "dronecoal.markov.candidate_groups" in tracer.sites
        assert "dronecoal.bench.run_best_reply" in tracer.sites
    finally:
        tracer.uninstall()
    assert dynamics.candidate_groups is originals[0]
    assert markov.candidate_groups is originals[0]
    assert bench.run_best_reply is originals[1]


def test_workload_output_checks_flag_wrong_outputs():
    from types import SimpleNamespace

    from workloads import audit_check, dominance_violation

    assert audit_check(((3, 7), {3: 0.25, 7: 0.75}, (3, 7))) is None
    assert audit_check(((3,), {3: 1.0}, (3, 7)))[0] == WRONG_OUTPUT
    assert audit_check(((3, 7), {3: 0.25, 7: 0.7}, (3, 7)))[0] \
        == WRONG_OUTPUT

    def result(regime, total, per_drone, rep=0, best=None, note=""):
        return SimpleNamespace(regime=regime, total_rate=total,
                               per_drone=per_drone, repetition=rep,
                               best_stable_total=best, note=note)

    sc = SimpleNamespace(drone_ids=(0, 1))
    base = result("baseline", 2.0, {0: 1.0, 1: 1.0})
    full = result("full_info", 3.0, {0: 1.5, 1: 1.5}, best=3.0)
    social = result("social_optimal", 3.0, {0: 1.5, 1: 1.5})
    stuck = result("proposed", 2.5, {0: 1.0, 1: 1.5}, rep=4,
                   note="non-converged")
    assert dominance_violation(sc, [base, full, social]) is None
    assert dominance_violation(sc, [base, full, social, stuck])[0] \
        == NON_CONVERGED
    low = result("social_optimal", 2.9, {0: 1.4, 1: 1.5})
    assert dominance_violation(sc, [base, full, low])[0] == WRONG_OUTPUT
    below = result("full_info", 3.0, {0: 0.5, 1: 2.5}, best=3.0)
    assert dominance_violation(sc, [base, below, social])[0] == WRONG_OUTPUT
