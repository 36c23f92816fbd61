"""The benchmark's workloads: scene changes and pipeline flags per workload.

Every workload starts from the bundled ``reference_scene.cfg``; only the
fields listed here change. The benchmark seed drives the scene layout (or,
on the noisy workload, the noise), so the pipeline sees nothing but the
generated dataset.
Each workload is a closed loop: one worker process, one run at a time, at
most two threads (the container's ``nproc``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict  # SceneConfig fields overriding the reference scene
    window_n: int
    threads: int
    source: str  # "oracle" | "files"
    offset_sigma: float = 0.0
    flip_prob: float = 0.0
    lstq_floor: float | None = None  # output check; None = reported only
    # False keeps the reference scene's layout and lets the seed drive only
    # the noise, where the layout would otherwise dominate LSTQ's spread.
    vary_scene: bool = True

    @property
    def emit_offsets(self) -> bool:
        return self.source == "files"

    def scene_seed(self, seed: int, reference_seed: int) -> int:
        return seed if self.vary_scene else reference_seed

    def params(self, seed: int) -> dict:
        """Everything that defines this run's inputs, for the result record."""
        return {
            "scene": {**self.scene, "seed": seed if self.vary_scene else "reference"},
            "window_n": self.window_n,
            "threads": self.threads,
            "source": self.source,
            "offset_sigma": self.offset_sigma,
            "flip_prob": self.flip_prob,
            "noise_seed": seed if self.offset_sigma or self.flip_prob else 0,
        }

    def segment_args(self, dataset: Path, out: Path, seed: int) -> list[str]:
        """``panseg4d segment`` flags for this workload over ``dataset``."""
        args = [
            "segment", "--dataset-root", str(dataset), "--out", str(out),
            "--sequences", "00", "--window-n", str(self.window_n),
            "--threads", str(self.threads), "--source", self.source,
        ]
        if self.source == "oracle":
            args += ["--scene-config", str(dataset / "00" / "scene.cfg")]
        else:
            args += [
                "--semantic-dir", str(dataset / "{seq}" / "labels"),
                "--offset-dir", str(dataset / "{seq}" / "oracle_offsets"),
                "--offset-frame", "sensor",
            ]
        if self.offset_sigma or self.flip_prob:
            args += [
                "--offset-sigma", repr(self.offset_sigma),
                "--flip-prob", repr(self.flip_prob),
                "--noise-seed", str(seed),
            ]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        # KITTI-sized 240k-point windows: the quadratic FPS, grouping and
        # merge path carries most of the wall time.
        Workload(
            name="kitti-oracle-n2",
            scene={"n_scans": 6, "points_per_scan": 120000},
            window_n=2,
            threads=1,
            source="oracle",
            lstq_floor=0.999,
        ),
        # Many small windows over real file reads: provider I/O, dense priors,
        # aggregation, stitching and per-window overhead; memory grows with
        # the scan count because the sequence is loaded up front.
        Workload(
            name="long-files-n2",
            scene={
                "n_scans": 400,
                "points_per_scan": 4000,
                "ego_waypoints": ((0.0, 0.0, 0.0), (40.0, 0.0, 0.0)),
            },
            window_n=2,
            threads=1,
            source="files",
            lstq_floor=0.999,
        ),
        # Noisy votes give DBSCAN, multi-claim merge and the tracker's fresh-id
        # path real work and put LSTQ in its collapse region; the only
        # workload on the thread pool.
        Workload(
            name="noisy-oracle-n4-t2",
            scene={
                "n_scans": 120,
                "points_per_scan": 20000,
                "ego_waypoints": ((0.0, 0.0, 0.0), (24.0, 0.0, 0.0)),
            },
            window_n=4,
            threads=2,
            source="oracle",
            offset_sigma=0.2,
            flip_prob=0.1,
            vary_scene=False,
        ),
    )
}

