"""Skeleton data model and geometry.

A pose is a 48-vector (16 joints, xyz each, in meters), either in absolute
world coordinates or encoded relative to each joint's kinematic parent with
the root kept absolute. Sequences are time-ordered poses at a fixed nominal
frame rate. All types are immutable values; the operations are pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    DegenerateGeometryError,
    EncodingError,
    InsufficientFramesError,
)

N_JOINTS = 16
POSE_DIM = 3 * N_JOINTS
# The largest magnitude of a joint value, checkpoint parameter or real setting
# the program takes in, or of a network's or variant's output. A tracker
# reports metres within a few metres of its sensor; within this bound all the
# pipeline derives stays below about 1e30 (a tree-depth sum, a third
# difference, a 48-term squared distance, a Kalman recursion over 1e7 frames).
# Data beyond it is NumericalError; a setting beyond it is malformed input.
VALUE_LIMIT = 1e6


class JointId(enum.IntEnum):
    """The 16 tracked joints. SPINEMID is the kinematic root."""

    SPINEMID = 0
    SPINEBASE = 1
    SPINESHOULDER = 2
    NECK = 3
    SHOULDERLEFT = 4
    ELBOWLEFT = 5
    WRISTLEFT = 6
    SHOULDERRIGHT = 7
    ELBOWRIGHT = 8
    WRISTRIGHT = 9
    HIPLEFT = 10
    KNEELEFT = 11
    ANKLELEFT = 12
    HIPRIGHT = 13
    KNEERIGHT = 14
    ANKLERIGHT = 15


class Encoding(enum.Enum):
    ABSOLUTE = "absolute"
    RELATIVE = "relative"


def joint_slice(joint: JointId) -> slice:
    """Column slice of a joint's xyz triple within a 48-vector."""
    return slice(3 * joint, 3 * joint + 3)


@dataclass(frozen=True)
class KinematicTree:
    """Rooted joint hierarchy as a child -> parent map; the root maps to itself.

    Construction fails unless every joint reaches the root by following
    parents, which rules out cycles and disconnected joints.
    """

    parent: Mapping[JointId, JointId]

    def __post_init__(self):
        parent = {JointId(j): JointId(p) for j, p in self.parent.items()}
        if set(parent) != set(JointId):
            raise ValueError("parent map must cover all 16 joints")
        if parent[JointId.SPINEMID] != JointId.SPINEMID:
            raise ValueError("root joint spinemid must be its own parent")
        for joint in JointId:
            seen = set()
            node = joint
            while node != JointId.SPINEMID:
                if node in seen:
                    raise ValueError(f"cycle in parent map at {node.name}")
                seen.add(node)
                node = parent[node]
        order = [JointId.SPINEMID]
        placed = {JointId.SPINEMID}
        while len(order) < N_JOINTS:
            for joint in JointId:
                if joint not in placed and parent[joint] in placed:
                    order.append(joint)
                    placed.add(joint)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "_topo", tuple(order))

    @property
    def root(self) -> JointId:
        return JointId.SPINEMID

    def parent_of(self, joint: JointId) -> JointId:
        return self.parent[joint]

    def topological_order(self) -> tuple[JointId, ...]:
        """All joints, root first, every parent before its children."""
        return self._topo


DEFAULT_TREE = KinematicTree(
    {
        JointId.SPINEMID: JointId.SPINEMID,
        JointId.SPINEBASE: JointId.SPINEMID,
        JointId.SPINESHOULDER: JointId.SPINEMID,
        JointId.NECK: JointId.SPINESHOULDER,
        JointId.SHOULDERLEFT: JointId.SPINESHOULDER,
        JointId.ELBOWLEFT: JointId.SHOULDERLEFT,
        JointId.WRISTLEFT: JointId.ELBOWLEFT,
        JointId.SHOULDERRIGHT: JointId.SPINESHOULDER,
        JointId.ELBOWRIGHT: JointId.SHOULDERRIGHT,
        JointId.WRISTRIGHT: JointId.ELBOWRIGHT,
        JointId.HIPLEFT: JointId.SPINEBASE,
        JointId.KNEELEFT: JointId.HIPLEFT,
        JointId.ANKLELEFT: JointId.KNEELEFT,
        JointId.HIPRIGHT: JointId.SPINEBASE,
        JointId.KNEERIGHT: JointId.HIPRIGHT,
        JointId.ANKLERIGHT: JointId.KNEERIGHT,
    }
)


def _frozen_array(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SkeletonPose:
    """One 48-dim pose plus the encoding it is expressed in."""

    coords: np.ndarray
    encoding: Encoding

    def __post_init__(self):
        object.__setattr__(
            self, "coords", _frozen_array(self.coords, (POSE_DIM,), "pose")
        )


@dataclass(frozen=True)
class SkeletonSequence:
    """Time-ordered poses sharing one encoding, at a fixed frame rate."""

    data: np.ndarray  # (n_frames, 48)
    encoding: Encoding
    frame_rate_hz: float = 30.0

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != POSE_DIM:
            raise ValueError(f"sequence data must be (n, {POSE_DIM}), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("sequence needs at least one frame")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sequence data must be finite")
        if not self.frame_rate_hz > 0:
            raise ValueError("frame_rate_hz must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return self.data.shape[0]

    def with_data(self, data) -> "SkeletonSequence":
        """Same encoding and frame rate, new frame contents."""
        return SkeletonSequence(data, self.encoding, self.frame_rate_hz)


def relative_coords(coords: np.ndarray, tree: KinematicTree) -> np.ndarray:
    """Absolute (..., 48) coordinates to parent-relative; root stays absolute."""
    arr = np.asarray(coords, dtype=np.float64)
    out = arr.copy()
    for joint in JointId:
        if joint == tree.root:
            continue
        parent = tree.parent_of(joint)
        out[..., joint_slice(joint)] = (
            arr[..., joint_slice(joint)] - arr[..., joint_slice(parent)]
        )
    return out


def absolute_coords(coords: np.ndarray, tree: KinematicTree) -> np.ndarray:
    """Parent-relative (..., 48) coordinates back to absolute."""
    out = np.array(coords, dtype=np.float64)
    for joint in tree.topological_order()[1:]:
        out[..., joint_slice(joint)] += out[..., joint_slice(tree.parent_of(joint))]
    return out


def to_relative(pose: SkeletonPose, tree: KinematicTree) -> SkeletonPose:
    """Re-encode an absolute pose as offsets from each joint's parent."""
    if pose.encoding is not Encoding.ABSOLUTE:
        raise EncodingError("to_relative expects an absolute pose")
    return SkeletonPose(relative_coords(pose.coords, tree), Encoding.RELATIVE)


def to_absolute(pose: SkeletonPose, tree: KinematicTree) -> SkeletonPose:
    """Resolve a parent-relative pose to absolute world coordinates."""
    if pose.encoding is not Encoding.RELATIVE:
        raise EncodingError("to_absolute expects a relative pose")
    return SkeletonPose(absolute_coords(pose.coords, tree), Encoding.ABSOLUTE)


def sequence_to_relative(seq: SkeletonSequence, tree: KinematicTree) -> SkeletonSequence:
    if seq.encoding is not Encoding.ABSOLUTE:
        raise EncodingError("sequence_to_relative expects an absolute sequence")
    return SkeletonSequence(
        relative_coords(seq.data, tree), Encoding.RELATIVE, seq.frame_rate_hz
    )


def sequence_to_absolute(seq: SkeletonSequence, tree: KinematicTree) -> SkeletonSequence:
    if seq.encoding is not Encoding.RELATIVE:
        raise EncodingError("sequence_to_absolute expects a relative sequence")
    return SkeletonSequence(
        absolute_coords(seq.data, tree), Encoding.ABSOLUTE, seq.frame_rate_hz
    )


def velocities(seq: SkeletonSequence) -> np.ndarray:
    """Per-frame displacements, frame t minus frame t-1, meters per frame.

    Returns an array of shape (len(seq) - 1, 48).
    """
    if seq.encoding is not Encoding.ABSOLUTE:
        raise EncodingError("velocities expects an absolute sequence")
    if len(seq) < 2:
        raise InsufficientFramesError("velocities needs at least 2 frames")
    return np.diff(seq.data, axis=0)


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion: rotation (det +1 orthonormal) plus translation."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        rot = _frozen_array(self.rotation, (3, 3), "rotation")
        trans = _frozen_array(self.translation, (3,), "translation")
        if not np.allclose(rot.T @ rot, np.eye(3), atol=1e-9):
            raise ValueError("rotation must be orthonormal within 1e-9")
        if abs(np.linalg.det(rot) - 1.0) > 1e-9:
            raise ValueError("rotation must have determinant +1 within 1e-9")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)


def rigid_align(src, dst) -> RigidTransform:
    """Least-squares rigid motion mapping src points onto dst points.

    Solves min over R, t of sum_i ||R src_i + t - dst_i||^2 in closed form:
    centroid subtraction, SVD of the 3x3 cross-covariance, and a reflection
    correction so the result is a proper rotation.
    """
    a = np.asarray(src, dtype=np.float64)
    b = np.asarray(dst, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3 or a.shape != b.shape:
        raise ValueError("rigid_align expects matching (n, 3) point sets")
    if a.shape[0] < 3:
        raise DegenerateGeometryError("rigid_align needs at least 3 point pairs")
    centroid_a = a.mean(axis=0)
    centroid_b = b.mean(axis=0)
    cross = (a - centroid_a).T @ (b - centroid_b)
    u, s, vt = np.linalg.svd(cross)
    # rank < 2 leaves the rotation about the principal axis unconstrained
    if s[1] <= 1e-9 * max(s[0], np.finfo(np.float64).tiny):
        raise DegenerateGeometryError("points are collinear or coincident")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = centroid_b - rotation @ centroid_a
    return RigidTransform(rotation, translation)
