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

from panseg4d.pipeline_cli import PipelineConfig, evaluate_directories, segment_sequence
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


# Evaluate's output on the reference scene: the sha256 of each report file
# and every GT tube's association term, exact, in tube_terms order.
# (noise, window_n, {report file: digest}, tube_terms items).
REPORTS = [
    (CLEAN, 2, {
        "report_00.kv": "7933273fd533f342cc5357bec142787c3826143a7facce21142e1347fa171768",
        "report_00.txt": "d44046acb10f8959e41b00d74545faafefd0301ea852ef82ee8fa14e92ea7e89",
        "report_overall.kv": "7933273fd533f342cc5357bec142787c3826143a7facce21142e1347fa171768",
        "report_overall.txt": "d44046acb10f8959e41b00d74545faafefd0301ea852ef82ee8fa14e92ea7e89",
    }, [(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0), (6, 1.0)]),
    (NOISY, 2, {
        "report_00.kv": "6928229baee5c5fc66e4158bc3446e4cc0ca527f89a7ee9022b98e91289f2dd4",
        "report_00.txt": "82a4e81f94b010477a02c994121e7bfdde97995ccaa9bdd5192fda711b0ca287",
        "report_overall.kv": "6928229baee5c5fc66e4158bc3446e4cc0ca527f89a7ee9022b98e91289f2dd4",
        "report_overall.txt": "82a4e81f94b010477a02c994121e7bfdde97995ccaa9bdd5192fda711b0ca287",
    }, [(1, 0.002279171920601938), (2, 0.013143903591682419), (3, 0.022744569555355077),
        (4, 0.00481859410430839), (5, 0.0024691358024691358), (6, 0.02240724721261053)]),
    (NOISY, 4, {
        "report_00.kv": "fc8a6b4f6a924f134707c242fc2b3bdbde66a6a4b888ec7b6cf2a57c79869f42",
        "report_00.txt": "7d15d51843bf15fca682ce35abb7129d5d0c84e39bd1bad6ff6091c9e3bd99e0",
        "report_overall.kv": "fc8a6b4f6a924f134707c242fc2b3bdbde66a6a4b888ec7b6cf2a57c79869f42",
        "report_overall.txt": "7d15d51843bf15fca682ce35abb7129d5d0c84e39bd1bad6ff6091c9e3bd99e0",
    }, [(1, 0.0031257214911112295), (2, 0.002592680109220752), (3, 0.026894205174468465),
        (4, 0.007630385487528344), (5, 0.014938271604938274), (6, 0.016640234525182623)]),
]


@pytest.mark.parametrize(
    "noise, window_n, digests, tube_terms",
    REPORTS,
    ids=[f"{'clean' if noise is CLEAN else 'noisy'}-n{n}" for noise, n, _, _ in REPORTS],
)
def test_reference_scene_reports_are_pinned(
    reference_dataset, class_map, tmp_path, noise, window_n, digests, tube_terms
):
    config = PipelineConfig(
        dataset_root=reference_dataset.root,
        out_dir=tmp_path,
        window_n=window_n,
        source="oracle",
        scene_config=reference_dataset.scene_path,
        **noise,
    )
    segment_sequence(config, "00")
    reports, _ = evaluate_directories(tmp_path, reference_dataset.root, ("00",), class_map, tmp_path / "rep")
    got = {name: hashlib.sha256((tmp_path / "rep" / name).read_bytes()).hexdigest() for name in digests}
    assert got == digests
    assert list(reports["00"].tube_terms.items()) == tube_terms
