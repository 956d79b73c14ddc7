import csv

from workspace import WORKLOADS, Workload, build_workspace

SMALL = Workload("small", n_patients=120, adjudicated=True, bootstrap_replicates=10)


def test_same_seed_gives_identical_workspace_files(tmp_path):
    first = build_workspace(SMALL, 3, tmp_path / "a")
    second = build_workspace(SMALL, 3, tmp_path / "b")
    other = build_workspace(SMALL, 4, tmp_path / "c")
    assert first.digests == second.digests
    assert first.digests != other.digests
    assert "labels_adjudicator.csv" in first.digests
    assert first.n_cases and first.n_cases == second.n_cases


def test_prior_snapshot_records_carry_refresh_id(tmp_path):
    ws = build_workspace(SMALL, 3, tmp_path).path
    with open(ws / "labels_llm_refresh1.csv", newline="") as fh:
        ids = {row["refresh_id"] for row in csv.DictReader(fh)}
    assert ids == {"1"}
    text = (ws / "run.yaml").read_text()
    assert "reference_mode: triple_adjudication" in text
    assert "bootstrap_replicates: 10" in text


def test_workloads_are_named_by_their_keys():
    assert all(name == w.name for name, w in WORKLOADS.items())
