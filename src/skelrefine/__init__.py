"""Skeleton motion refinement: recurrent denoising networks, velocity-gated
KNN and Kalman fusion, jerk-based naturalness metrics, and a synthetic
ground-truth/corruption corpus for end-to-end evaluation."""

from .errors import (
    ConfigurationError,
    DataError,
    DegenerateGeometryError,
    DependencyError,
    DimensionError,
    EncodingError,
    InsufficientFramesError,
    NumericalError,
    SkelRefineError,
    TrainingDivergedError,
)
from .skeleton import (
    DEFAULT_TREE,
    N_JOINTS,
    POSE_DIM,
    Encoding,
    JointId,
    KinematicTree,
    RigidTransform,
    SkeletonPose,
    SkeletonSequence,
    rigid_align,
    sequence_to_absolute,
    sequence_to_relative,
    to_absolute,
    to_relative,
    velocities,
)
from .drnn import (
    DrnnConfig,
    DrnnParams,
    TrainingBatch,
    TrainResult,
    batch_from_streams,
    forward,
    init_params,
    load_checkpoint,
    loss_and_gradient,
    make_windows,
    refine_positions,
    refine_velocities,
    run_stream,
    save_checkpoint,
    train,
)
from .fusion import (
    FusionModels,
    GateModel,
    KalmanState,
    NeighborStore,
    PIPELINE_VARIANTS,
    estimate_gate,
    estimate_noise_covariances,
    fit_fusion_models,
    kalman_filter_stream,
    kalman_step,
    run_pipeline,
    sknn_step,
)
from .metrics import EvalReport, aje, aje_histogram, ape, evaluate, jerk, jerk_error
from .optim import MinimizeResult, OptimizerSpec, minimize
from .synth import (
    Corpus,
    CorruptionConfig,
    MotionConfig,
    SequencePair,
    build_corpus,
    corrupt,
    generate_ground_truth,
    read_corpus,
    write_corpus,
)

__version__ = "0.1.0"
