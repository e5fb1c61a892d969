# Paper-scale digest check: `dronecoal run` on S1-S4 x 100 topologies x 30
# repetitions with all four regimes at seed 0, the scale whose figures the
# paper reports.  The sha256 of each output must equal the committed value,
# and exactly the four known best-reply cycles may end non-converged.  The
# digests depend on numpy and scipy float behaviour, so run it with the
# versions that tests/workload_pins.json records.  About 40 s on 2 cores.
#
# Usage, from the repository root: bash -e .github/paper_scale.sh [WORK_DIR]
set -euo pipefail
work="${1:-$(mktemp -d)}"
mkdir -p "$work"
cat > "$work/manifest.json" <<'JSON'
{"settings": ["S1", "S2", "S3", "S4"], "topologies": 100,
 "repetitions": 30, "seed": 0,
 "regimes": ["baseline", "full_info", "proposed", "social_optimal"]}
JSON
PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}" python -m dronecoal.cli run \
    --manifest "$work/manifest.json" --out "$work/out" > /dev/null
cd "$work/out"
sha256sum -c <<'SUMS'
818b65f697a67045929dfc1ca0cfe2268f907a6b953b32db8dd0f8bfaee58a5d  summary.csv
2205496806ae08a01cf66263abd3dd01cc4d42d9acb156a87fb8b3e360854530  per_drone.csv
235a7492360113db715f994d8a0d65502f0edcf6555e8a62d3ecfdc3a45a958e  convergence.csv
22c90bc2cb8351eafeda59352fc2229006855e42175a396cb0eab748eb3227a2  results.json
SUMS
python - results.json <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    results = json.load(f)
stalled = sorted((r["setting"], r["topology"], r["repetition"])
                 for r in results if r["note"] == "non-converged")
expected = [("S2", 79, 8), ("S2", 79, 11), ("S2", 79, 14), ("S3", 61, 18)]
assert stalled == expected, stalled
assert all(r["regime"] == "proposed" for r in results
           if r["note"] == "non-converged")
print(f"{len(stalled)} non-converged units, as expected")
PY
