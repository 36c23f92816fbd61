"""The benchmark's own tests: tiny runs of every workload shape, tracer hygiene.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(workload: Workload, scale: float) -> Workload:
    """The same workload shape with fewer scans and points."""
    scene = dict(workload.scene)
    scene["n_scans"] = max(4, int(scene["n_scans"] * scale))
    scene["points_per_scan"] = max(3000, int(scene["points_per_scan"] * scale))
    return replace(workload, scene=scene)


def _run_tiny(monkeypatch, tmp_path, name: str, trace: int) -> dict:
    monkeypatch.setitem(run.WORKLOADS, name, small(WORKLOADS[name], 0.02))
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    assert rc == 0
    return json.loads(stdout.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_declared_metric_with_its_unit(monkeypatch, tmp_path, name, trace):
    result = _run_tiny(monkeypatch, tmp_path, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_second_run_writes_over_the_kept_workspace(monkeypatch, tmp_path):
    name = "kitti-oracle-n2"
    _run_tiny(monkeypatch, tmp_path, name, 0)
    work = tmp_path / "work" / name
    stamp = (work / "stamp.json").read_text()
    marker = work / "data" / "marker"
    marker.write_text("kept")
    result = _run_tiny(monkeypatch, tmp_path, name, 0)
    assert result["correct"] and marker.exists()
    assert (work / "stamp.json").read_text() == stamp

    # Another shape under the same name empties the workspace first.
    monkeypatch.setitem(run.WORKLOADS, name, replace(run.WORKLOADS[name], threads=2))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0"]) == 0
    assert not marker.exists()


def test_outputs_left_by_an_earlier_pass_fail_the_checks(tmp_path):
    tiny = small(WORKLOADS["long-files-n2"], 0.02)
    run.write_scene(tiny, 5, tmp_path / "scene.cfg")
    run.synthesize(tiny, tmp_path / "scene.cfg", tmp_path / "data")
    sizes = run.scan_sizes(tmp_path / "data")
    result = run.run_worker(tiny, 5, tmp_path / "data", tmp_path, "pass", segment=True,
                            evaluate_repeats=1, deadline=run.time.perf_counter() + 120)
    assert result["failures"] == []
    run.clear_outputs(tmp_path / "out")
    assert run.check_segment(sizes, tmp_path / "out", {"segment_rc": 0})
    failures, lstq = run.check_evaluate(tiny, tmp_path / "out", {"evaluate_rc": 0})
    assert lstq is None and failures


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in DECLARED["end_to_end"]}


def test_every_wrapped_callable_is_restored_after_a_traced_run(tmp_path):
    from panseg4d import pipeline_cli

    scene = tmp_path / "scene.cfg"
    tiny = small(WORKLOADS["long-files-n2"], 0.02)
    run.write_scene(tiny, 5, scene)
    tracer = tracing.install(tracing.Tracer())
    patched = list(tracer._originals)
    assert len(patched) > 20
    try:
        run.synthesize(tiny, scene, tmp_path / "data")
        with contextlib.redirect_stdout(io.StringIO()):
            assert pipeline_cli.main(tiny.segment_args(tmp_path / "data", tmp_path / "out", 5)) == 0
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
    assert {s.name for s in tracer.spans} >= set(tracing.WINDOW_STAGES) | {tracing.SEGMENT}

    # One thread: segment's children never overlap, so its self time plus
    # their summed durations is its wall time.
    (segment,) = [s for s in tracer.spans if s.name == tracing.SEGMENT]
    children = [s for s in tracer.spans if s.parent == segment.id]
    assert all(segment.start <= c.start <= c.end <= segment.end for c in children)
    own = tracing.self_times(tracer.spans)[segment.id]
    assert own + sum(c.duration for c in children) == pytest.approx(segment.duration, abs=1e-9)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        tracing.Span(1, "root", 0.0, 10.0, None, 1),
        tracing.Span(2, "a", 1.0, 4.0, 1, 1),
        tracing.Span(3, "b", 3.0, 6.0, 1, 2),  # overlaps a (another thread)
        tracing.Span(4, "c", 8.0, 12.0, 1, 1),  # clipped at the parent's end
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 2.0)


def test_benchmark_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kitti-oracle-n2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
