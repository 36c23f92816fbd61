"""Prediction bytes pinned on the bundled reference scene.

Each digest is the sha256 over every prediction file's name and bytes in
scan order, the same digest the benchmark prints for a workload. A change
that moves any predicted label or instance id changes it; a change meant
to keep predictions must leave every digest here as it is. Beside them,
the synthesised ``poses.txt`` bytes are pinned, so the camera-pose chain
and its text keep every bit.
"""

import hashlib
from dataclasses import replace

import pytest

from panseg4d.pipeline_cli import PipelineConfig, segment_sequence
from panseg4d.synthlab import generate, write_dataset

CLEAN = {"flip_prob": 0.0, "offset_sigma": 0.0, "noise_seed": 0}
NOISY = {"flip_prob": 0.1, "offset_sigma": 0.3, "noise_seed": 7}

# (noise, window_n, thread counts, digest). The reference scene has six
# scans, so N=3 (stride 2) ends in a clipped tail window (3, 3) that shares
# two scans with (2, 3), and N=4 (stride 3) shares two scans as well.
PINNED = [
    (CLEAN, 2, (1, 4), "64f868fe6efe17e439d797f5ecfaa69aa3988e51a7328aacda5b3b45dd536e68"),
    (NOISY, 2, (1, 2), "772009682662eecd1fcc82b9bd250538c044c500e28fec2ffec94f0e2a27fd9d"),
    (NOISY, 3, (1, 2), "c33f4ae180ff2e37f156bb1ef133a1173150dcb60ea51b3d5264faa92f64da4c"),
    (NOISY, 4, (1, 2), "a7f9cd0ec547e8e8e76d1a955ad4d6d0f430b97f87115e06786369cabaf839fc"),
]


def prediction_digest(pred_dir, n_scans: int) -> str:
    digest = hashlib.sha256()
    for k in range(n_scans):
        path = pred_dir / f"{k:06d}.label"
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "noise, window_n, threads, expected",
    [(noise, n, t, d) for noise, n, ts, d in PINNED for t in ts],
    ids=[f"{'clean' if noise is CLEAN else 'noisy'}-n{n}-t{t}" for noise, n, ts, _ in PINNED for t in ts],
)
def test_reference_scene_predictions_are_pinned(reference_dataset, tmp_path, noise, window_n, threads, expected):
    config = PipelineConfig(
        dataset_root=reference_dataset.root,
        out_dir=tmp_path,
        window_n=window_n,
        source="oracle",
        scene_config=reference_dataset.scene_path,
        threads=threads,
        **noise,
    )
    segment_sequence(config, "00")
    got = prediction_digest(tmp_path / "00" / "predictions", reference_dataset.config.n_scans)
    assert got == expected


# sha256 of the synthesised poses.txt: the reference scene, and the same
# scene driven along a turning path, whose poses rotate.
POSES_DIGEST = "3a9bd8625ac8c95bef8d68dd9961e11ade0b949f59c9f4792609241f4b452922"
TURNING_POSES_DIGEST = "14474b1b2d315c806b2f8782dc054dbcd9fa7fb026e5203596b7b74a491c8e43"
TURNING_PATH = ((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 2.0, 0.0), (0.0, 2.0, 0.0))


def test_reference_scene_poses_file_is_pinned(reference_dataset, reference_scene, class_map, tmp_path):
    poses = reference_dataset.root / "00" / "poses.txt"
    assert hashlib.sha256(poses.read_bytes()).hexdigest() == POSES_DIGEST
    turning = replace(reference_scene, ego_waypoints=TURNING_PATH)
    seq_dir = write_dataset(tmp_path, "00", *generate(turning), class_map)
    assert hashlib.sha256((seq_dir / "poses.txt").read_bytes()).hexdigest() == TURNING_POSES_DIGEST
