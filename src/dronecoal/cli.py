"""Command-line harness: scenario generation, manifest batch runs,
Markov-chain audits, and re-aggregation of existing results."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .bench import (REGIMES, RegimeResult, RunManifest, emit_outputs,
                    run_manifest)
from .game import BeliefState, PayoffEngine
from .markov import build_chain, formation_probabilities
from .propagation import ENVIRONMENTS
from .scenario import (DEFAULT_TYPE_SET, SETTINGS, Scenario, TypeSpec,
                       check_keys, generate, is_int, is_number)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NON_CONVERGENCE = 3


def _parse_types(text: str):
    """Type-set string "mu:sigma,mu:sigma,..." -> TypeSpec tuple."""
    types = []
    for i, part in enumerate(text.split(",")):
        mu, sigma = part.split(":")
        types.append(TypeSpec(i, float(mu), float(sigma)))
    return tuple(types)


def cmd_generate(args) -> int:
    scenario = generate(SETTINGS[args.setting], ENVIRONMENTS[args.env],
                        _parse_types(args.types), seed=args.seed)
    scenario.save(args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    manifest = RunManifest.load(args.manifest)
    out_dir = args.out or manifest.output_dir
    # a bad output path fails here, before the batch runs
    made = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    try:
        results = run_manifest(manifest, strict=args.strict)
    except RuntimeError as e:
        if made:
            os.rmdir(out_dir)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    files = emit_outputs(results, manifest, out_dir)
    raw = os.path.join(out_dir, "results.json")
    with open(raw, "w") as f:
        json.dump([dataclasses.asdict(r) for r in results], f, sort_keys=True)
        f.write("\n")
    files.append(raw)
    for path in files:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_markov(args) -> int:
    scenario = Scenario.load(args.scenario)
    engine = PayoffEngine(scenario)
    if args.beliefs == "truth":
        beliefs = engine.truth
    else:
        beliefs = BeliefState.uniform(scenario)
    model = build_chain(scenario, beliefs, engine,
                        veto_self_loop=args.veto_self_loop)
    formation_probabilities(model)
    model.export_text(args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _numbers(value) -> bool:
    """A JSON object whose values are numbers."""
    return isinstance(value, dict) and all(map(is_number, value.values()))


# every field of a results entry: what emit_outputs needs it to be
RESULT_FIELDS = (
    ("regime", lambda v: isinstance(v, str) and v in REGIMES,
     "be one of " + ", ".join(REGIMES)),
    ("setting", lambda v: isinstance(v, str) and v in SETTINGS,
     "be one of " + ", ".join(SETTINGS)),
    ("topology", is_int, "be an integer"),
    ("repetition", is_int, "be an integer"),
    ("total_rate", is_number, "be a number"),
    ("per_drone", lambda v: _numbers(v) and all(map(str.isdigit, v)),
     "map drone ids to rates"),
    ("structure", lambda v: isinstance(v, str), "be a string"),
    ("rounds_to_convergence", lambda v: v is None or is_int(v),
     "be an integer or null"),
    ("structure_changes", lambda v: v is None or is_int(v),
     "be an integer or null"),
    ("frobenius_series", lambda v: isinstance(v, list)
     and all(map(is_number, v)), "be a list of numbers"),
    ("stable_totals", _numbers, "map structures to numbers"),
    ("formation_probs", _numbers, "map structures to numbers"),
    ("best_stable_total", lambda v: v is None or is_number(v),
     "be a number or null"),
    ("note", lambda v: isinstance(v, str), "be a string"),
)


def cmd_report(args) -> int:
    with open(args.results) as f:
        raw = json.load(f)
    if not isinstance(raw, list):
        raise ValueError(
            f"results must be a JSON list, got {type(raw).__name__}")
    results = []
    for r in raw:
        check_keys(r, RegimeResult, "result key")
        for name, ok, what in RESULT_FIELDS:
            if name in r and not ok(r[name]):
                raise ValueError(f"{name} must {what}, got {r[name]!r}")
        r["per_drone"] = {int(k): v for k, v in r["per_drone"].items()}
        results.append(RegimeResult(**r))
    manifest = RunManifest.load(args.manifest)
    manifest.aggregate_mode = args.mode
    files = emit_outputs(results, manifest, args.out)
    for path in files:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dronecoal",
        description="Coalition formation benchmarks for drone networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a scenario file")
    p.add_argument("--setting", choices=sorted(SETTINGS), default="S1")
    p.add_argument("--env", choices=sorted(ENVIRONMENTS), default="urban")
    p.add_argument("--types", default=",".join(
        f"{t.mu:g}:{t.sigma:g}" for t in DEFAULT_TYPE_SET))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="execute a run manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None,
                   help="output directory (overrides the manifest)")
    p.add_argument("--strict", action="store_true",
                   help="also exit 3 if a repeated-game run ends "
                        "non-converged (a run that raises exits 3 either "
                        "way)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("markov", help="chain audit for one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--beliefs", choices=["truth", "uniform"],
                   default="truth")
    p.add_argument("--veto-self-loop", action="store_true",
                   help="alternative transition rule: a vetoed maximizer "
                        "keeps the chain in place instead of falling "
                        "through to the next-best coalition")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("report", help="re-aggregate existing results")
    p.add_argument("--results", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=["best_stable", "expected"],
                   default="best_stable")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
