"""4D panoptic LiDAR segmentation pipeline with pluggable prediction sources.

The package decomposes sequence-level panoptic segmentation into plain,
independently testable stages: SemanticKITTI-format I/O, ego-motion scan
aggregation, semantic-prior attachment, offset-vote instance proposals with
DBSCAN merging, cross-window id stitching, and the segmentation-and-tracking
quality (LSTQ) evaluator. Learned predictors are replaced by file-backed or
synthetic oracle sources behind one provider interface.
"""

__version__ = "0.1.0"

from .errors import PipelineError
from .sk_formats import (
    PointCloudScan,
    LabelArray,
    CalibRecord,
    read_scan,
    read_labels,
    read_poses,
    read_calib,
    write_predictions,
)
from .scan_aggregator import (
    RigidTransform,
    Aggregated4DCloud,
    lidar_poses_from_camera_poses,
    aggregate,
)
from .semantic_prior import (
    IGNORE,
    ClassMap,
    SemanticPrior,
    PredictionSource,
    ScanInputs,
    FileProvider,
    remap,
    encode_one_hot,
    normalize_confidences,
    majority_label,
    argmax_label,
)
from .proposal_engine import (
    InstanceSegmentation,
    shift_to_centers,
    farthest_point_sample,
    radius_group,
    refine_proposal,
    dbscan,
    merge_and_assign,
    huber_center_loss,
)
from .window_tracker import TrackState, WindowSegmentation, shared_rows, stitch
from .lstq_eval import LSTQReport, SequenceEvaluator, lstq
from .synthlab import SceneConfig, GroundTruth, OracleProvider, generate, oracle_offsets
