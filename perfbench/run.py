"""Benchmark of ``rwdval run``, the batch validator's end-to-end command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload run_1500 --seed 1 --seconds 25 --trace 0

One run builds the workload's workspace from the seed three times (the
builds must be byte-identical; ``setup_s`` is their median), then starts
``python3 -m rwdval.cli --config <ws>/run.yaml run`` as a child process,
one at a time, until ``--seconds`` have passed. The harness starts no
threads and waits in ``os.wait4`` while a child runs, which also gives the
child's own CPU time and peak RSS. Every child passes the correctness gate
in ``gate.py`` or counts as failed.

With ``--trace 1`` the set-up builds record synth spans, and after the
untraced children one more child runs with spans around every layer (see
``spans.py``); the run then reports per-layer metrics instead of the
end-to-end ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Details of each run (every sample, versions,
git commit, report digest) go to ``.perfbench/results/``.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import spans
from gate import Expectation, Gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# Every workload's cohort has check findings, so a correct run exits 1.
EXPECTED_EXIT = 1

END_TO_END_UNITS = {"run_wall_s": "s", "run_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: tuple[str, ...]


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(cmd: list[str], ws: Path, gate) -> Sample:
    """Run one child to completion and put its outputs through the gate."""
    out_dir = ws / "results"
    shutil.rmtree(out_dir, ignore_errors=True)
    stderr_path = ws / "stderr.txt"
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = gate.check(proc.returncode, stderr_path.read_text(errors="replace"), out_dir)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, tuple(problems))


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric == "pipeline.bytes_written" else "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def set_up(workload, seed: int, work: Path, trace: bool):
    """Build the workspace SETUP_REPEATS times; keep the first build."""
    from workspace import build_workspace

    times, layer_runs, builds = [], [], []
    for i in range(SETUP_REPEATS):
        recorder = spans.Recorder(f"{workload.name}-{seed}-setup{i}")
        restore = spans.instrument(recorder, spans.SETUP_LAYERS) if trace else None
        ws = work / f"build{i}"
        ws.mkdir(parents=True)
        start = time.perf_counter()
        try:
            builds.append(build_workspace(workload, seed, ws))
        finally:
            times.append(time.perf_counter() - start)
            if restore:
                restore()
        layer_runs.append(spans.layer_metrics(recorder.table(), spans.SETUP_METRICS))
    problems = []
    if any(b.digests != builds[0].digests for b in builds[1:]):
        problems.append("workspace builds from one seed differ")
    for b in builds[1:]:
        shutil.rmtree(b.path)
    return builds[0], times, spans.median_metrics(layer_runs), problems


def traced_run(ws: Path, spans_path: Path, run_id: str, gate) -> tuple[Sample, dict]:
    """One child with spans on; returns its sample and per-layer metrics."""
    cmd = [sys.executable, str(HERE / "traced_child.py"), str(ws / "run.yaml"), str(spans_path), run_id]
    sample = run_child(cmd, ws, gate)
    recorded = spans.SpanTable.load(spans_path)
    wall = sample.wall_s - float(Path(f"{spans_path}.dump_s").read_text())
    metrics = spans.layer_metrics(recorded, spans.RUN_METRICS)
    metrics["pipeline.unattributed_s"] = spans.unattributed(recorded, wall)
    problems = list(sample.problems)
    attributed = float(spans.self_times(recorded).sum()) + metrics["pipeline.unattributed_s"]
    if abs(attributed - wall) > 1e-6:
        problems.append(f"self times plus unattributed give {attributed} s, traced wall {wall} s")
    return Sample(wall, sample.cpu_s, sample.peak_rss_mb, tuple(problems)), metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "rwdval" / "__init__.py").is_file():
        print(f"error: no rwdval sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from workspace import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / "work" / f"{run_id}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    compileall.compile_dir(SRC / "rwdval", quiet=1)
    try:
        info, setup_times, setup_layers, problems = set_up(workload, args.seed, work, trace)
        gate = Gate(Expectation(
            exit_code=EXPECTED_EXIT,
            n_patients=workload.n_patients,
            n_cases=info.n_cases,
            bootstrap=workload.bootstrap_replicates is not None,
        ))
        cmd = [sys.executable, "-m", "rwdval.cli", "--config", str(info.path / "run.yaml"), "run"]
        samples: list[Sample] = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < args.seconds:
            samples.append(run_child(cmd, info.path, gate))
        layers = {}
        if trace:
            traced, layers = traced_run(info.path, results / f"{run_id}-spans.npz", run_id, gate)
            samples_all = samples + [traced]
        else:
            samples_all = samples
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples_all if s.problems)
    summary = {
        "run_wall_s": quartiles([s.wall_s for s in samples]),
        "run_cpu_s": quartiles([s.cpu_s for s in samples]),
        "peak_rss_mb": quartiles([s.peak_rss_mb for s in samples]),
        "setup_s": quartiles(setup_times),
    }
    if trace:
        metrics = {**layers, **setup_layers}
        metrics["trace.overhead_s"] = traced.wall_s - summary["run_wall_s"][1]
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {k: v[1] for k, v in summary.items()}
        units = END_TO_END_UNITS
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_commit(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(f"perfbench {run_id}: {len(samples)} runs in {args.seconds:g} s, one at a time")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"report.json sha256 {gate.report_sha}")
    for name, (q1, med, q3) in summary.items():
        n = len(setup_times) if name == "setup_s" else len(samples)
        print(f"{name:<12} median {med:.4f} {END_TO_END_UNITS[name]} (q1 {q1:.4f}, q3 {q3:.4f}, n={n})")
    print(f"failed_frac  {failed / len(samples_all):.4f} ({failed}/{len(samples_all)})")
    if trace:
        for name in sorted(metrics):
            print(f"  {name:<34} {metrics[name]:.6g} {units[name]}")
    for s in samples_all:
        for p in s.problems:
            print(f"gate: {p}")
    for p in problems:
        print(f"setup: {p}")
    detail = {
        "run_id": run_id,
        "env": env,
        "report_sha256": gate.report_sha,
        "samples": [asdict(s) for s in samples_all],
        "setup_s": setup_times,
        "summary": {k: dict(zip(("q1", "median", "q3"), v)) for k, v in summary.items()},
        "metrics": metrics,
    }
    (results / f"{run_id}.json").write_text(json.dumps(detail, indent=2) + "\n")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(samples_all),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
