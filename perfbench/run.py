"""panseg4d benchmark: whole-run throughput, memory and LSTQ, with traced per-layer numbers.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run synthesises the workload's SemanticKITTI-layout dataset from the
seed (timed as ``setup_s``, several times, median reported), then runs the
user-facing ``segment`` -> ``evaluate`` flow through ``pipeline_cli.main``,
each command in fresh worker processes, in rounds while the time budget
lasts. Every worker is checked: a prediction file of exactly 4*n bytes per
scan after ``segment``; an evaluation report, with LSTQ at or above the
workload's floor where it has one, after ``evaluate``. A worker that fails
a check counts as a failed operation.

Datasets and outputs live in one directory per workload under
``.perfbench_work`` that is kept between runs and written over in place:
creating a file costs the filesystem an inode allocation whose price
depends on how many files were deleted shortly before, which would make
set-up and segment times depend on what ran earlier.

``--trace 0`` prints the end-to-end metrics (medians over workers);
``--trace 1`` runs one untraced and one traced worker and prints the per-layer
metrics taken from spans recorded around each module boundary (see
``tracer.py``); span rows are kept under ``.perfbench_work/traces``.
Informational lines (environment, per-worker numbers, prediction digest)
come first; the last line of standard output is the JSON result.
See ``METRICS.md`` for what each metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Each round of a run sets up until this long has passed (at least once),
# so set-up samples spread over the whole run; a short set-up (0.15 s on
# kitti-oracle-n2) gets several per round. Rounds are kept short so that a
# third 10-15 s segment still fits a 45 s run.
SETUP_SECONDS = 0.5
# Each round then starts evaluate workers until this long has passed (at
# least one), each running evaluate this often. Other tenants of a shared
# host slow a CPU-bound run by up to 2x for seconds at a time, so evaluate
# (0.07-0.3 s) is sampled in many short workers spread over the run, each
# timed by its fastest run, and the median is taken over workers.
EVALUATE_SECONDS = 1.5
EVALUATE_REPEATS = 3
# A worker still running this long after the run started is killed and
# counted as failed, so a hung pipeline cannot keep the run past 180 s.
RUN_LIMIT_S = 170
# One BLAS thread per process: the workloads' thread counts are then the
# whole story (at most nproc = 2 busy threads).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Workload  # noqa: E402


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


def write_scene(workload: Workload, seed: int, path: Path) -> None:
    """The bundled reference scene with the workload's changes and its seed."""
    from panseg4d.synthlab import SceneConfig

    reference = SceneConfig.load(SRC / "panseg4d" / "data" / "reference_scene.cfg")
    scene = replace(reference, **workload.scene, seed=workload.scene_seed(seed, reference.seed))
    scene.validate()
    scene.save(path)


def synthesize(workload: Workload, scene_path: Path, out: Path) -> float:
    """Write the workload's dataset with ``panseg4d synth``; returns its wall time."""
    from panseg4d import pipeline_cli

    argv = ["synth", "--scene-config", str(scene_path), "--out", str(out)]
    if workload.emit_offsets:
        argv.append("--emit-offsets")
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = pipeline_cli.main(argv)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"synth exited with {rc}")
    return elapsed


def scan_sizes(dataset: Path) -> dict[str, int]:
    """Scan stem -> point count, from the velodyne file sizes."""
    return {p.stem: p.stat().st_size // 16 for p in sorted((dataset / "00" / "velodyne").glob("*.bin"))}


def open_workspace(workload: Workload) -> tuple[Path, io.TextIOWrapper]:
    """The workload's kept directory and a lock held for this run.

    The directory is emptied when the workload's parameters or the program's
    source changed since it was filled, so no file of another shape or of
    another program version is read.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    lock = open(WORK / f"{workload.name}.lock", "w")
    fcntl.flock(lock, fcntl.LOCK_EX)
    source = hashlib.sha256()
    for path in sorted((SRC / "panseg4d").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    stamp = json.dumps({"params": workload.params(0), "source": source.hexdigest()}, sort_keys=True)
    work = WORK / workload.name
    stamp_path = work / "stamp.json"
    if not stamp_path.is_file() or stamp_path.read_text() != stamp:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        stamp_path.write_text(stamp)
    return work, lock


def clear_outputs(out: Path) -> None:
    """Empty the previous pass's output files in place, so none passes a check."""
    for path in out.rglob("*"):
        if path.is_file():
            os.truncate(path, 0)


def prediction_digest(out: Path, stems) -> str:
    digest = hashlib.sha256()
    for stem in stems:
        path = out / "00" / "predictions" / f"{stem}.label"
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_segment(sizes: dict[str, int], out: Path, result: dict) -> list[str]:
    """Output checks of one ``segment``: the failures found."""
    failures = []
    if result.get("segment_rc") != 0:
        failures.append(f"segment exited with {result.get('segment_rc')}")
    pred_dir = out / "00" / "predictions"
    for stem, n in sizes.items():
        path = pred_dir / f"{stem}.label"
        if not path.exists() or path.stat().st_size != 4 * n:
            failures.append(f"{path}: expected {4 * n} bytes")
            break
    return failures


def check_evaluate(workload: Workload, out: Path, result: dict) -> tuple[list[str], float | None]:
    """Output checks of one ``evaluate``: failures found, and the LSTQ it reported."""
    failures = []
    if result.get("evaluate_rc") != 0:
        failures.append(f"evaluate exited with {result.get('evaluate_rc')}")
    lstq = None
    report = out / "eval" / "report_overall.kv"
    if report.exists():
        for line in report.read_text().splitlines():
            key, _, value = line.partition(":")
            if key == "lstq":
                lstq = float(value) / 100.0
    if lstq is None:
        failures.append(f"{report}: no evaluation report with an lstq line")
    elif workload.lstq_floor is not None and lstq < workload.lstq_floor:
        failures.append(f"lstq {lstq:.4f} below the floor {workload.lstq_floor}")
    return failures, lstq


def run_worker(workload: Workload, seed: int, dataset: Path, work: Path, tag: str, *, segment: bool,
               evaluate_repeats: int, deadline: float, trace: bool = False,
               spans_path: Path | None = None) -> dict:
    """One fresh worker process: ``segment`` over ``dataset`` (or not), then
    ``evaluate`` over its predictions ``evaluate_repeats`` times; checked."""
    out = work / "out"
    # Empty what this worker will write, so that nothing left over passes a check.
    clear_outputs(out if segment else out / "eval")
    sizes = scan_sizes(dataset)
    first_stem = next(iter(sizes))
    request = {
        "src": str(SRC),
        "trace": trace,
        "segment_args": workload.segment_args(dataset, out, seed) if segment else None,
        "evaluate_repeats": evaluate_repeats,
        "evaluate_args": [
            "evaluate", "--pred-root", str(out), "--dataset-root", str(dataset),
            "--sequences", "00", "--out", str(out / "eval"),
        ],
        "first_prediction": str(out / "00" / "predictions" / f"{first_stem}.label"),
        "spans_path": str(spans_path) if spans_path else None,
    }
    request_path, result_path, log_path = (work / f"{tag}.{ext}" for ext in ("request.json", "result.json", "log"))
    request_path.write_text(json.dumps(request))
    result_path.unlink(missing_ok=True)
    with open(log_path, "w") as log:
        try:
            returncode = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(request_path), str(result_path)],
                stdout=log, stderr=subprocess.STDOUT, env={**os.environ, **THREAD_ENV},
                timeout=max(1.0, deadline - time.perf_counter()),
            ).returncode
        except subprocess.TimeoutExpired:
            returncode = "killed after the run's time limit"
    if returncode != 0 or not result_path.exists():
        tail = log_path.read_text()[-2000:]
        return {"failures": [f"worker exited with {returncode}: {tail}"], "points": sum(sizes.values())}
    result = json.loads(result_path.read_text())
    failures, lstq = [], None
    if segment:
        failures += check_segment(sizes, out, result)
    if evaluate_repeats:
        evaluate_failures, lstq = check_evaluate(workload, out, result)
        failures += evaluate_failures
    result.update(failures=failures, lstq=lstq, points=sum(sizes.values()),
                  digest=prediction_digest(out, sizes) if segment and not failures else None)
    return result


def measure(workload: Workload, seed: int, seconds: float, work: Path, started: float) -> tuple[dict, dict]:
    """Untraced run: rounds of set-ups, a ``segment`` worker and ``evaluate``
    workers, each started only while it still fits the budget."""
    scene_path = work / "scene.cfg"
    write_scene(workload, seed, scene_path)
    dataset = work / "data"
    end, deadline = started + seconds, started + RUN_LIMIT_S
    setup_times, segments, evaluates, segment_walls, evaluate_walls = [], [], [], [], []

    def fits(walls: list[float]) -> bool:
        return time.perf_counter() + max(walls) <= end

    while True:
        round_start = time.perf_counter()
        # Set-up writes the same dataset over itself; the workers read it.
        while True:
            setup_times.append(synthesize(workload, scene_path, dataset))
            if time.perf_counter() - round_start >= SETUP_SECONDS:
                break
        if not segments or fits(segment_walls):
            start = time.perf_counter()
            segments.append(run_worker(workload, seed, dataset, work, "segment", segment=True,
                                       evaluate_repeats=0, deadline=deadline))
            segment_walls.append(time.perf_counter() - start)
        evaluate_start = time.perf_counter()
        while not evaluates or (time.perf_counter() - evaluate_start < EVALUATE_SECONDS
                                and fits(evaluate_walls)):
            start = time.perf_counter()
            evaluates.append(run_worker(workload, seed, dataset, work, "evaluate", segment=False,
                                        evaluate_repeats=EVALUATE_REPEATS, deadline=deadline))
            evaluate_walls.append(time.perf_counter() - start)
        if time.perf_counter() + SETUP_SECONDS + max(evaluate_walls) > end:
            break

    good_segments = [p for p in segments if not p["failures"]]
    good_evaluates = [p for p in evaluates if not p["failures"]]
    digests = {p["digest"] for p in good_segments}
    if len(digests) > 1:
        for p in good_segments:
            p["failures"].append("predictions differ between passes over the same inputs")
        good_segments = []
    metrics = {}
    if good_segments and good_evaluates:
        points = good_segments[0]["points"]
        med = statistics.median
        metrics = {
            "segment_points_per_s": med(points / p["segment_s"] for p in good_segments),
            # Each evaluate worker's fastest run: its first pays for warm-up.
            "evaluate_points_per_s": points / med(min(p["evaluate_s"]) for p in good_evaluates),
            "peak_rss_mb": max(med(p["peak_rss_mb"] for p in good_segments),
                               med(p["peak_rss_mb"] for p in good_evaluates)),
            "first_prediction_s": med(p["first_prediction_s"] for p in good_segments),
            "setup_s": med(setup_times),
            "lstq": med(p["lstq"] for p in good_evaluates),
        }
    details = {
        "setup_s": setup_times,
        "segments": [{k: p.get(k) for k in ("segment_s", "first_prediction_s", "peak_rss_mb", "failures")}
                     for p in segments],
        "evaluates": [{k: p.get(k) for k in ("evaluate_s", "peak_rss_mb", "lstq", "failures")}
                      for p in evaluates],
        "prediction_digest": sorted(digests),
    }
    return {"passes": segments + evaluates, "metrics": metrics}, details


def measure_traced(workload: Workload, seed: int, work: Path, started: float) -> tuple[dict, dict]:
    """Traced run: traced set-up, one untraced and one traced pass."""
    import tracer as tracing

    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    scene_path = work / "scene.cfg"
    write_scene(workload, seed, scene_path)
    dataset = work / "data"
    tracer = tracing.install(tracing.Tracer())
    try:
        tracer.wrap(tracing.SETUP, synthesize)(workload, scene_path, dataset)
    finally:
        tracer.restore()
    stem = f"{workload.name}-seed{seed}"
    (traces / f"{stem}.setup.json").write_text(json.dumps(tracing.span_records(tracer.spans)))

    deadline = started + RUN_LIMIT_S
    # One evaluate per pass, so the traced pass has exactly one evaluate span.
    plain = run_worker(workload, seed, dataset, work, "untraced", segment=True, evaluate_repeats=1,
                       deadline=deadline)
    traced = run_worker(workload, seed, dataset, work, "traced", segment=True, evaluate_repeats=1,
                        deadline=deadline, trace=True, spans_path=traces / f"{stem}.spans.json")
    if not plain["failures"] and not traced["failures"] and plain["digest"] != traced["digest"]:
        traced["failures"].append("traced and untraced predictions differ")
    metrics = {}
    if not plain["failures"] and not traced["failures"]:
        metrics = {
            **traced["layers"],
            **tracing.setup_metrics(tracer.spans),
            "pipeline_cli.trace_overhead_s": traced["segment_s"] - plain["segment_s"],
        }
    details = {
        "untraced_segment_s": plain.get("segment_s"),
        "traced_segment_s": traced.get("segment_s"),
        "prediction_digest": [plain.get("digest"), traced.get("digest")],
        "failures": plain["failures"] + traced["failures"],
    }
    return {"passes": [plain, traced], "metrics": metrics}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "panseg4d" / "pipeline_cli.py").is_file():
        print(f"error: no panseg4d source tree under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import panseg4d

    if Path(panseg4d.__file__).resolve().parent != SRC / "panseg4d":
        print(f"error: imported panseg4d from {panseg4d.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work, lock = open_workspace(workload)
    with lock:
        if args.trace:
            outcome, details = measure_traced(workload, args.seed, work, started)
        else:
            outcome, details = measure(workload, args.seed, args.seconds, work, started)

    print(json.dumps({"environment": environment(), "workload": workload.name,
                      "params": workload.params(args.seed), "trace": args.trace}))
    print(json.dumps({"details": details}))
    passes = outcome["passes"]
    failed = sum(1 for p in passes if p["failures"])
    for p in passes:
        for failure in p["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)
    if not outcome["metrics"]:
        print("error: no worker succeeded; no metrics to report", file=sys.stderr)
        return 1
    # BENCHMARK.json declares which metrics a run prints, and their units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    values = outcome["metrics"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
