"""Smoke test: every demo script runs to completion and prints its
headline section."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HEADLINES = {
    "channel_model.py": "=== mean mode vs sampled mode on one link ===",
    "coalition_dynamics.py": "=== best-reply run from singletons ===",
    "learning_curves.py": "mean Frobenius norm per round",
    "markov_analysis.py": "=== formation probabilities from the "
                          "all-singletons start ===",
}


def test_every_demo_has_a_headline():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) \
        == sorted(HEADLINES)


@pytest.mark.parametrize("demo", sorted(HEADLINES))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert HEADLINES[demo] in proc.stdout
