"""What ``panseg4d synth`` writes, and how much memory it needs to write it.

Each digest is the sha256 over every written file's path (relative to the
output root) and bytes, in sorted path order. A change to how a scene is
built or written must leave every digest here as it is.
"""

import hashlib
import tracemalloc
from dataclasses import replace

import pytest

from panseg4d import pipeline_cli
from panseg4d.synthlab import SceneConfig


def dataset_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def reference_scene() -> SceneConfig:
    return SceneConfig.load(pipeline_cli.bundled_path("reference_scene.cfg"))


def synth(tmp_path, scene: SceneConfig | None, *flags: str):
    """Run ``synth`` on ``scene`` (the bundled scene when None); returns the output root."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "out"
    argv = ["synth", "--out", str(out), *flags]
    if scene is not None:
        scene_path = tmp_path / "scene.cfg"
        scene.save(scene_path)
        argv += ["--scene-config", str(scene_path)]
    assert pipeline_cli.main(argv) == 0
    return out


# A 48-scan drive around three corners, so the sensor yaw takes four values.
TURNING = {
    "n_scans": 48,
    "points_per_scan": 3000,
    "ego_waypoints": ((0.0, 0.0, 0.0), (6.0, 0.0, 0.0), (6.0, 6.0, 0.0), (0.0, 6.0, 0.0)),
}

PINNED = [
    ("reference", None, (), "f0bce4a898d82bffba0f171c11fb06353de8344d881fc1ff5d6a293bbd1b380d"),
    ("reference-offsets", None, ("--emit-offsets",), "d599c2b21dbbcefdb212c805942176d8fe1922dd302f01efc9ca17729fafbeb1"),
    ("turning-48-offsets", TURNING, ("--emit-offsets",), "52ea9278cd0ab60146698475587a1d166870060b359670d32398918ffbcd235a"),
]


@pytest.mark.parametrize("changes, flags, expected", [p[1:] for p in PINNED], ids=[p[0] for p in PINNED])
def test_synth_output_is_pinned(tmp_path, changes, flags, expected):
    scene = None if changes is None else replace(reference_scene(), **changes)
    assert dataset_digest(synth(tmp_path, scene, *flags)) == expected


def test_synth_memory_does_not_grow_with_the_scan_count(tmp_path):
    """Ten times the scans may not take more than 1.5 times the peak heap."""
    peaks = []
    for n_scans in (40, 400):
        scene = replace(
            reference_scene(), n_scans=n_scans, points_per_scan=4000,
            ego_waypoints=((0.0, 0.0, 0.0), (40.0, 0.0, 0.0)),
        )
        tracemalloc.start()
        try:
            synth(tmp_path / str(n_scans), scene, "--emit-offsets")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], f"peak heap {peaks[0]} B at 40 scans, {peaks[1]} B at 400"
