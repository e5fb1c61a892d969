"""Smoke check of one benchmark workload: run one seed-0 pass of
``perfbench/run.py``, pass its standard output through, and check the JSON
record on its last line.

    python3 .github/bench_smoke.py WORKLOAD [--trace] [--failed-share K/N]
                                   [--attempted N] [--positive METRIC ...]

Run from the repository root.  The record must read ``correct`` true and
some units attempted, of which exactly the share ``--failed-share``
(default 0) failed; ``--attempted`` fixes the number of units, and each
``--positive`` metric must read above 0.  Exits 1 on the first check that
fails.
"""

import argparse
import json
import subprocess
import sys
from fractions import Fraction


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload")
    p.add_argument("--trace", action="store_true",
                   help="run the traced pass (perfbench --trace 1)")
    p.add_argument("--failed-share", type=Fraction, default=Fraction(0),
                   help="failed units per attempted unit, as K/N")
    p.add_argument("--attempted", type=int, default=None,
                   help="the exact number of units attempted")
    p.add_argument("--positive", action="append", default=[],
                   metavar="METRIC", help="a metric that must read above 0")
    args = p.parse_args(argv)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", "0", "--seconds", "1", "--trace", str(int(args.trace))],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    sys.stdout.write(out)
    r = json.loads(out.splitlines()[-1])
    attempted, failed = r["attempted"], r["failed"]
    checks = [(r["correct"] is True, f"correct is {r['correct']!r}"),
              (attempted > 0, "no unit attempted"),
              (failed == args.failed_share * attempted,
               f"{failed} of {attempted} units failed, expected a share "
               f"of {args.failed_share}")]
    if args.attempted is not None:
        checks.append((attempted == args.attempted,
                       f"{attempted} units attempted, expected "
                       f"{args.attempted}"))
    for name in args.positive:
        value = r["metrics"][name]["value"]
        checks.append((value > 0, f"{name} reads {value!r}"))
    for ok, message in checks:
        if not ok:
            print(f"{args.workload}: {message}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
