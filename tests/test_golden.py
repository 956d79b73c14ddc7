"""Pinned report bytes: speed work must not move one byte of a run's output.

Each workspace is built by ``simulate``, run with ``rwdval run``, and the
SHA-256 of each pinned output file is compared with digests recorded
before the code paths they cover were optimised: the per-patient label
store, the compiled checks and the shared metric rows for the duplicate
mode runs, and the reference assembly for the adjudicated runs.
"""

import hashlib

import pytest
import yaml
from click.testing import CliRunner

from rwdval.cli import main

from conftest import adjudicate_simulated

GOLDEN = {
    "bootstrap": {
        "report.json": "db822d7bfacd8e2effd9d768b6a915a3c684d5c47fa5048b9f9b5e3758078c55",
        "summary.txt": "f71a05add08e1adde69a321ba2cd574f088e1500638b8467e08de67c9b9e8993",
        "findings.csv": "cb06e55cb89fc4d76e172df602c2938bb03523b62ec3f5fd11d3206c32764b7b",
    },
    "refresh": {
        "report.json": "895a1d0cbfd00e866edc8a2cef1c2a5a12bce643d534ef6ba976ef95144b5cb8",
        "summary.txt": "7cc879f5226ba6cd33e7c47506d0bcdbb368b39179f1ebef4bf612e4dbe71b55",
        "findings.csv": "cc49c50d4eb23ab9d119fb1e3504435a6ed5bb2d3630187c0859565513ad971d",
    },
    "triple": {
        "report.json": "7609748726531c78569e1d210cf131e3595faa6e5ff71ef7b6df961b87b827d6",
        "summary.txt": "931838fc358163bf75124706214802999b0daf1e0562d4b612cb8e03d192891b",
        "findings.csv": "cc49c50d4eb23ab9d119fb1e3504435a6ed5bb2d3630187c0859565513ad971d",
        "disagreements.csv": "46550667ef611349297a35f63a60a48d27efdcdde3b250f97aa53757ea9e72b6",
    },
    "double": {
        "report.json": "b70ce3286f2adf189dae7d85bffb747e0680eed36684c1c51f4d68516fdea32c",
        "summary.txt": "07d2cbceefbb3ef3a61efe9f7a8634d134e95894aa89f08b7e31d79ef47541f8",
        "findings.csv": "cc49c50d4eb23ab9d119fb1e3504435a6ed5bb2d3630187c0859565513ad971d",
        "disagreements.csv": "c093f5bdaf77c95aaccf287af6a5eef349312b5b7f570eafd1076b9615457d64",
    },
}


def _bootstrap_on(ws, doc: dict) -> None:
    doc["metrics"]["bootstrap"] = True
    doc["tolerances"]["bootstrap_replicates"] = 200


def _adjudicated(mode: str):
    return lambda ws, doc: adjudicate_simulated(ws, doc, mode)


@pytest.mark.parametrize(
    "name, flags, edit",
    [
        ("bootstrap", [], _bootstrap_on),
        ("refresh", ["--with-refresh"], None),
        ("triple", ["--with-refresh"], _adjudicated("triple_adjudication")),
        ("double", ["--with-refresh"], _adjudicated("double_adjudication")),
    ],
    ids=["bootstrap", "refresh", "triple", "double"],
)
def test_run_output_bytes_are_pinned(tmp_path, name, flags, edit):
    runner = CliRunner()
    made = runner.invoke(main, ["--out", str(tmp_path), "--seed", "3", "simulate", "--n", "200", *flags])
    assert made.exit_code == 0, made.output
    cfg_path = tmp_path / "run.yaml"
    if edit is not None:
        doc = yaml.safe_load(cfg_path.read_text())
        edit(tmp_path, doc)
        cfg_path.write_text(yaml.safe_dump(doc))
    result = runner.invoke(main, ["--config", str(cfg_path), "run"])
    assert result.exit_code == 1, result.output  # every simulated cohort has check findings
    out = tmp_path / "results"
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in GOLDEN[name]}
    assert got == GOLDEN[name]
