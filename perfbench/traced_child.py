"""Run ``rwdval --config CONFIG run`` in this process with layer spans on.

Usage: python3 perfbench/traced_child.py CONFIG SPANS_NPZ RUN_ID

rwdval must be importable (``PYTHONPATH=src``). The spans stay in memory
until the run ends and are then written to SPANS_NPZ; the seconds that
writing took go to SPANS_NPZ.dump_s, so the caller can leave them out of
the traced wall time. Exits with rwdval's exit code.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

from spans import RUN_LAYERS, Recorder, instrument


def main(config: str, spans_path: str, run_id: str) -> None:
    from rwdval import cli

    recorder = Recorder(run_id)
    instrument(recorder, RUN_LAYERS)
    try:
        cli.main(["--config", config, "run"])
    finally:
        start = time.perf_counter()
        recorder.table().save(Path(spans_path))
        Path(spans_path + ".dump_s").write_text(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:])
