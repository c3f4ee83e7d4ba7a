"""Skeleton motion refinement: recurrent denoising networks, velocity-gated
KNN and Kalman fusion, jerk-based naturalness metrics, and a synthetic
ground-truth/corruption corpus for end-to-end evaluation.

The package re-exports the value types and reference operations that the
acceptance checks use; everything else is imported from its module
(skelrefine.drnn, .fusion, .metrics, .optim, .seqio, .skeleton, .synth).
"""

from .drnn import DrnnConfig, TrainingBatch, init_params
from .fusion import (
    GateModel,
    KalmanState,
    NeighborStore,
    kalman_filter_stream,
    kalman_step,
    sknn_step,
)
from .optim import OptimizerSpec
from .skeleton import SkeletonPose, rigid_align, to_absolute, to_relative

__version__ = "0.1.0"
