"""Tracking-quality measures.

Position accuracy is the mean Euclidean joint error. Motion naturalness is
scored through the discrete jerk (backward third difference, per frame
units): the jerk error stream, its mean, and a banded histogram of where
the jerk-error mass falls.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import seqio
from .errors import DimensionError, EncodingError, InsufficientFramesError, NumericalError
from .skeleton import N_JOINTS, Encoding, SkeletonSequence

JERK_BIN_WIDTH = 0.03
JERK_BIN_COUNT = 10
# interior edges; the last bin is open-ended above 0.27
_JERK_EDGES = JERK_BIN_WIDTH * np.arange(1, JERK_BIN_COUNT)


def _check_pair(pred: SkeletonSequence, truth: SkeletonSequence) -> None:
    if pred.encoding is not Encoding.ABSOLUTE or truth.encoding is not Encoding.ABSOLUTE:
        raise EncodingError("metrics expect absolute sequences")
    if len(pred) != len(truth):
        raise DimensionError(
            f"sequence lengths differ: {len(pred)} vs {len(truth)}"
        )


def ape(pred: SkeletonSequence, truth: SkeletonSequence) -> float:
    """Average position error: mean Euclidean joint distance in meters."""
    _check_pair(pred, truth)
    diff = (pred.data - truth.data).reshape(len(pred), N_JOINTS, 3)
    return float(np.linalg.norm(diff, axis=2).mean())


def jerk(seq: SkeletonSequence) -> np.ndarray:
    """Backward third difference of each coordinate, (len(seq) - 3, 48), in
    meters per frame cubed."""
    if len(seq) < 4:
        raise InsufficientFramesError("jerk needs at least 4 frames")
    a = seq.data
    return a[3:] - 3.0 * a[2:-1] + 3.0 * a[1:-2] - a[:-3]


def jerk_error(pred: SkeletonSequence, truth: SkeletonSequence) -> np.ndarray:
    """Elementwise |jerk(pred) - jerk(truth)|, (len - 3, 48)."""
    _check_pair(pred, truth)
    return np.abs(jerk(pred) - jerk(truth))


def aje(pred: SkeletonSequence, truth: SkeletonSequence) -> float:
    """Average jerk error over every component-frame with a defined jerk."""
    return float(jerk_error(pred, truth).mean())


def aje_histogram(pred: SkeletonSequence, truth: SkeletonSequence) -> np.ndarray:
    """Per-band jerk-error mass, each band's sum divided by the same M.

    Bands are uniform width 0.03 from 0 up to 0.27, plus one open-ended band
    above 0.27; M counts all component-frames with a defined jerk, so the ten
    values sum to the overall average jerk error.
    """
    return _banded_mass(jerk_error(pred, truth))


def _banded_mass(je: np.ndarray) -> np.ndarray:
    """aje_histogram's bands over a jerk-error array."""
    idx = np.searchsorted(_JERK_EDGES, je.ravel(), side="right")
    sums = np.bincount(idx, weights=je.ravel(), minlength=JERK_BIN_COUNT)
    return sums / je.size


@dataclass(frozen=True)
class EvalReport:
    """Summary of one prediction/ground-truth comparison."""

    ape: float
    aje: float
    histogram: tuple[float, ...]
    m: int

    def __post_init__(self):
        if len(self.histogram) != JERK_BIN_COUNT:
            raise ValueError(f"histogram must have {JERK_BIN_COUNT} bins")
        if any(v < 0 for v in self.histogram):
            raise ValueError("histogram entries must be non-negative")

    def to_json_dict(self) -> dict:
        return {
            "ape": self.ape,
            "aje": self.aje,
            "histogram": list(self.histogram),
            "m": self.m,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def evaluate(pred: SkeletonSequence, truth: SkeletonSequence) -> EvalReport:
    """APE, AJE and the jerk-error bands of a prediction against the truth.

    Finite inputs can still overflow (a pose near 1e306 m is finite), so a
    report holding a non-finite APE, AJE or band raises NumericalError
    instead of being returned.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        je = jerk_error(pred, truth)
        position_error = ape(pred, truth)
        bands = _banded_mass(je)
        mean_jerk_error = float(je.mean())
    if not np.all(np.isfinite([position_error, mean_jerk_error, *bands])):
        raise NumericalError(
            "evaluation overflowed: APE, AJE or a jerk-error band is not finite"
        )
    return EvalReport(
        ape=position_error,
        aje=mean_jerk_error,
        histogram=tuple(float(v) for v in bands),
        m=int(je.size),
    )


def histogram_bin_edges() -> list[tuple[float, float]]:
    """(lower, upper) bounds of the ten jerk-error bands; last upper is inf."""
    edges = []
    for i in range(JERK_BIN_COUNT):
        lower = i * JERK_BIN_WIDTH
        upper = (i + 1) * JERK_BIN_WIDTH if i < JERK_BIN_COUNT - 1 else float("inf")
        edges.append((lower, upper))
    return edges


def write_histogram_csv(path, report: EvalReport) -> None:
    with seqio.atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lower", "bin_upper", "value"])
        for (lower, upper), value in zip(histogram_bin_edges(), report.histogram):
            writer.writerow([repr(lower), repr(upper), repr(value)])
