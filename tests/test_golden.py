"""Pinned report bytes: speed work must not move one byte of a run's output.

Each workspace is built by ``simulate``, run with ``rwdval run``, and the
SHA-256 of each pinned output file is compared with digests recorded
before the code paths they cover were optimised: the per-patient label
store, the compiled checks and the shared metric rows for the duplicate
mode runs, and the reference assembly for the adjudicated runs. The
report, summary and findings digests were re-recorded once, when findings
came to print label text (``no@2017-08-15``, not a Python repr) and the
summary's reference block sorted dotted-key lines; the disagreement
digests did not move.
"""

import hashlib

import pytest
import yaml
from click.testing import CliRunner

from rwdval.cli import main

from conftest import adjudicate_simulated

GOLDEN = {
    "bootstrap": {
        "report.json": "0a2d00c2fe13a8603b0af0c6e8a8e8b91b48e4f957fe4d73dd7afda03f20d57f",
        "summary.txt": "20591aa7612e6120960d91fa92dca99ac670b6118a8965689887e03dc1246552",
        "findings.csv": "c879ba5c9b31c543aca4d204dc564f03cbd1217f7d7c9b376adddbef236d8961",
    },
    "refresh": {
        "report.json": "b483d71e5060a36208a122fa0a6c7ada4de2ced3c2843c31dc806f5b723c09fa",
        "summary.txt": "02721ecb4fbcb74f87dd08e36957abf426c67e9461cd8f419632cebe831e15de",
        "findings.csv": "322e96e3915817ae597e593b2b9b1f817720079c504077e74acdf15731638597",
    },
    "triple": {
        "report.json": "7113d3b35524868149d007e39342fd352d36df071500a1bb5c407229b7c54cad",
        "summary.txt": "36fac0d2721c504be369a4e7110061296ce7b584c42ab43fc402eafa2e99a65f",
        "findings.csv": "322e96e3915817ae597e593b2b9b1f817720079c504077e74acdf15731638597",
        "disagreements.csv": "46550667ef611349297a35f63a60a48d27efdcdde3b250f97aa53757ea9e72b6",
    },
    "double": {
        "report.json": "cc9e9d4239b52663729d4da44d9666b2bf25fedd11ba0af3563b9dbf32ee3c06",
        "summary.txt": "a685c5dc8615f4f832abad706cca7f8821a1703723835742ab7b67aaab7d10c0",
        "findings.csv": "322e96e3915817ae597e593b2b9b1f817720079c504077e74acdf15731638597",
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
