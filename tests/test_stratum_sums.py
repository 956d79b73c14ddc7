"""A stratified view partitions the cohort, so its strata sum to the whole.

On ``rwdval simulate`` workspaces of drawn seeds and sizes, every patient
check's per-stratum tallies sum to the check's totals, and every metric
target's per-stratum confusion counts sum to the cohort's on each side
wherever no stratum of the attribute is suppressed (a suppressed stratum
reports its size only).
"""

import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from rwdval.cli import main
from rwdval.pipeline import load_run_config, run_pipeline

_TALLIES = ("n_evaluated", "n_flagged", "n_not_applicable")
_COUNTS = ("tp", "fp", "fn", "n_matched_with_date", "n_date_correct")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(60, 300))
def test_strata_sum_to_the_cohort(seed, n):
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp) / "ws"
        made = CliRunner().invoke(main, ["--out", str(ws), "--seed", str(seed), "simulate", "--n", str(n)])
        assert made.exit_code == 0, made.output
        report = run_pipeline(load_run_config(ws / "run.yaml")).report
    checks = [c for c in report["checks"]["checks"].values() if c["level"] == "patient"]
    assert checks and all(c["stratified"] for c in checks)
    for check in checks:
        for attr, strata in check["stratified"].items():
            for key in _TALLIES:
                assert sum(s[key] for s in strata.values()) == check[key], (check["check_id"], attr, key)
    assert report["metrics"]["variables"]
    for variable, entry in report["metrics"]["variables"].items():
        for attr, strata in entry["stratified"].items():
            assert sum(s["n"] for s in strata.values()) == n, (variable, attr)
            if any(s["suppressed"] for s in strata.values()):
                continue
            for side in ("llm", "abstraction"):
                for key in _COUNTS:
                    total = sum(s[side]["counts"][key] for s in strata.values())
                    assert total == entry[side]["counts"][key], (variable, attr, side, key)
