"""Fusing refined positions with refined velocities.

Three integration methods plus ablation variants:

* soft-KNN: exact K-nearest-neighbor regression over stored (key, target)
  pose pairs where, per component, neighbors whose implied velocity is
  inconsistent with the refined velocity are dropped before averaging.
  A neighbor's implied velocity is its target minus the previous fused
  output, so both poses live in output (ground-truth) space; keys only pick
  the neighbors. Consistency is a two-sided tail test under a per-component
  zero-mean Gaussian whose variance is fitted, on the validation split, to
  the very deviation the gate tests (see _fit_track_gate).
* Kalman: per-component scalar filter with identity dynamics, refined
  velocities as the control input and refined positions as measurements.
  Noise diagonals come from validation residual variances.
* The chain: Kalman states re-regressed through a second soft-KNN whose
  velocity check uses a network trained on Kalman-state velocities.

run_pipeline() exposes these plus the raw/position-only baselines and the
ablations that drop one refinement stage at a time.

Cost. The neighbor search is exact but does not sort the whole store per
query: one BLAS mat-vec gives every key's squared distance through the
expansion |k|^2 - 2 k.q + |q|^2, np.partition finds the k-th smallest, and
only the keys within twice a forward-error bound of it are re-ranked with
the exact formula and a stable sort (nearest_indices derives the bound).
The result is the full stable sort's, bit for bit, for finite inputs. The
gate mean is one row reduction over a component-major gather, with a loop
only over components the gate partly rejects, and the Kalman gain sequence,
which does not depend on the data, is computed once per stream.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import special

from . import drnn, seqio
from .errors import ConfigurationError, NumericalError
from .skeleton import (
    POSE_DIM,
    Encoding,
    KinematicTree,
    SkeletonSequence,
    velocities,
)

VARIANCE_FLOOR = 1e-12

PIPELINE_VARIANTS = (
    "raw",
    "pdrnn",
    "sknn",
    "kf",
    "sknnkf",
    "sknn_minus_pdrnn",
    "sknn_minus_vdrnn",
    "naive_sknn",
    "kf_minus_pdrnn",
)


@dataclass(frozen=True)
class GateModel:
    """Per-component velocity-consistency test.

    A deviation d passes for component j when the two-sided tail probability
    P(|N(0, sigma2[j])| > d) exceeds theta, i.e. d < sqrt(2 sigma2[j]) *
    erfcinv(theta). theta = 0 disables the gate (everything passes).
    """

    sigma2: np.ndarray  # (48,)
    theta: float

    def __post_init__(self):
        sigma2 = np.asarray(self.sigma2, dtype=np.float64)
        if sigma2.shape != (POSE_DIM,):
            raise ValueError(f"sigma2 must have shape ({POSE_DIM},), got {sigma2.shape}")
        if np.any(sigma2 <= 0.0) or not np.all(np.isfinite(sigma2)):
            raise ValueError("sigma2 must be positive and finite elementwise")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        sigma2 = sigma2.copy()
        sigma2.setflags(write=False)
        object.__setattr__(self, "sigma2", sigma2)
        thresholds = np.sqrt(2.0 * sigma2) * special.erfcinv(self.theta)
        thresholds.setflags(write=False)
        object.__setattr__(self, "_thresholds", thresholds)

    def passes(self, deviation) -> np.ndarray:
        """Boolean mask over (..., 48) absolute deviations."""
        return np.asarray(deviation, dtype=np.float64) < self._thresholds

    def tail_probability(self, deviation) -> np.ndarray:
        d = np.asarray(deviation, dtype=np.float64)
        return special.erfc(d / np.sqrt(2.0 * self.sigma2))

    def to_json_dict(self) -> dict:
        return {"sigma2": [float(v) for v in self.sigma2], "theta": self.theta}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GateModel":
        return cls(np.asarray(data["sigma2"], dtype=np.float64), float(data["theta"]))


def estimate_gate(validation_residuals, theta: float = 0.05) -> GateModel:
    """Fit per-component variances from residuals, mean pinned at 0.

    The residuals should be samples of the deviation the gate will test;
    fit_fusion_models passes implied-velocity deviations from a validation
    run of the recursion (see _fit_track_gate). Components with zero
    empirical variance are floored at 1e-12 with a warning.
    """
    res = np.asarray(validation_residuals, dtype=np.float64)
    if res.ndim != 2 or res.shape[1] != POSE_DIM:
        raise ValueError(f"residuals must be (n, {POSE_DIM}), got {res.shape}")
    if res.shape[0] < 2:
        raise ValueError("need at least 2 residual vectors")
    sigma2 = np.mean(res * res, axis=0)
    if np.any(sigma2 < VARIANCE_FLOOR):
        warnings.warn("zero-variance gate components floored at 1e-12", stacklevel=2)
        sigma2 = np.maximum(sigma2, VARIANCE_FLOOR)
    return GateModel(sigma2, theta)


@dataclass(frozen=True)
class NeighborStore:
    """Paired (key pose, target pose) training points for KNN regression.

    Keys and targets must be finite: the neighbor search is exact only for
    finite inputs.
    """

    keys: np.ndarray  # (n, 48)
    targets: np.ndarray  # (n, 48)
    k: int = 300

    def __post_init__(self):
        keys = np.asarray(self.keys, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        if keys.ndim != 2 or keys.shape[1] != POSE_DIM:
            raise ValueError(f"keys must be (n, {POSE_DIM}), got {keys.shape}")
        if targets.shape != keys.shape:
            raise ValueError("keys and targets must have matching shapes")
        if keys.shape[0] < 1:
            raise ValueError("store must not be empty")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not (np.all(np.isfinite(keys)) and np.all(np.isfinite(targets))):
            raise ValueError("keys and targets must be finite")
        keys = keys.copy()
        targets = targets.copy()
        key_norms2 = np.sum(keys * keys, axis=1)
        # component-major, so that a gather of neighbors along axis 1 is
        # C-contiguous and its row sums are numpy's pairwise sums
        targets_t = np.ascontiguousarray(targets.T)
        for arr in (keys, targets, key_norms2, targets_t):
            arr.setflags(write=False)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "_key_norms2", key_norms2)
        object.__setattr__(self, "_max_key_norm2", float(key_norms2.max()))
        object.__setattr__(self, "_targets_t", targets_t)

    def __len__(self) -> int:
        return self.keys.shape[0]


# Slack factor of the prefilter's forward-error bound; see nearest_indices.
_PREFILTER_SLACK = 4 * (POSE_DIM + 2)
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).smallest_subnormal)


def nearest_indices(store: NeighborStore, query) -> np.ndarray:
    """Indices of the k nearest keys by Euclidean distance.

    Exact search; ties at equal distance go to the lower store index. k is
    clamped to the store size. The result is, bit for bit, that of a stable
    argsort of d[i] = np.sum((keys[i] - q) ** 2) over the whole store; a
    non-finite query raises NumericalError.

    When k < n, a prefilter picks the keys worth ranking exactly. For key k
    and query q, with m = 48 components, unit roundoff u = eps/2 and
    gamma_m = m u / (1 - m u), let a = fl(fl(|k|^2) - 2 fl(k.q)), the
    expansion without its constant |q|^2. With S = |k|^2 + |q|^2:

    * fl(|k|^2) is a sum of m products, off by at most gamma_m |k|^2;
    * fl(k.q) from BLAS, in any summation order and with or without fused
      multiply-adds, is off by at most gamma_m sum|k_j q_j| <= gamma_m S / 2;
    * the subtraction rounds by at most u |fl(|k|^2) - 2 fl(k.q)|, which is
      about u (|k|^2 + 2|k||q|) <= 2 u S;
    * the exact formula's d rounds each difference and square and sums m
      nonnegative terms, so it is off by at most gamma_(m+2) |k - q|^2
      <= 2 gamma_(m+2) S.

    So |(a + |q|^2) - d| <= (4m + 6) u S to first order. Products that
    underflow add at most half a subnormal step each, 2m steps in all (the
    k.q products count twice). E = 4 (m + 2) (eps S_max + step), with
    S_max = max|k|^2 + |q|^2, is twice both bounds; the margin covers the
    second-order terms and the rounding of the threshold below.

    Let D be the k-th smallest d and a_k the k-th smallest a. Each of the
    k nearest keys has d <= D, so a <= D + E - |q|^2 for each; and a_k
    >= D - E - |q|^2, or else k keys would have d < D. Every one of the k
    nearest keys therefore has a <= a_k + 2E. Those keys, in index order,
    are re-ranked with d and a stable argsort, which reproduces the full
    sort's order and its lower-index tie-break. When k >= n, or when S_max
    overflows, every key is ranked.
    """
    q = np.asarray(query, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise NumericalError("nearest-neighbor query is not finite")
    keys = store.keys
    n = keys.shape[0]
    k = min(store.k, n)
    bound = _PREFILTER_SLACK * (_EPS * (store._max_key_norm2 + float(q @ q)) + _TINY)
    if k < n and np.isfinite(bound):
        approx = store._key_norms2 - 2.0 * (keys @ q)
        kth = np.partition(approx, k - 1)[k - 1]
        candidates = np.flatnonzero(approx <= kth + 2.0 * bound)
    else:
        candidates = np.arange(n)
    d2 = np.sum((keys[candidates] - q) ** 2, axis=1)
    return candidates[np.argsort(d2, kind="stable")[:k]]


def sknn_step(store: NeighborStore, gate: GateModel, query, velocity, prev) -> np.ndarray:
    """One step of gated KNN regression.

    For the K nearest stored keys to the query pose, each neighbor's implied
    per-component velocity (its target minus prev) is checked against the
    refined velocity through the gate; the output component is the mean of
    the surviving neighbors' target components. Components where the gate
    rejects every neighbor fall back to the ungated K-neighbor mean.

    prev is normally the previous fused output, a mean of targets, so the
    implied velocity is the step the output would take if it moved to that
    neighbor, with both poses in output space. Keys are refined poses or
    Kalman states and sit about one position error away from their targets;
    measuring the velocity from a key would add that offset to every
    deviation, so keys are used only to find the neighbors.
    """
    query = np.asarray(query, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)
    prev = np.asarray(prev, dtype=np.float64)
    idx = nearest_indices(store, query)
    # (48, k) and C-contiguous: each row's reduction is the same pairwise sum
    # as the mean of that component's column of the (k, 48) neighbor targets
    rows = np.take(store._targets_t, idx, axis=1)
    deviation = np.abs((rows.T - prev) - velocity)
    kept_t = gate.passes(deviation).T
    out = np.add.reduce(rows, axis=1) / idx.size
    # components whose gate keeps every neighbor, or none (the fallback),
    # already hold the ungated mean
    for j in np.flatnonzero(kept_t.any(axis=1) & ~kept_t.all(axis=1)):
        kept = rows[j][kept_t[j]]
        out[j] = np.add.reduce(kept) / kept.size
    return out


# The chained method runs the identical algorithm over a store keyed by
# Kalman states, with its own gate; only the parameterization differs.
sknnkf_step = sknn_step


@dataclass(frozen=True)
class KalmanState:
    """Per-component scalar filter state: estimate plus diagonal covariances."""

    x: np.ndarray  # (48,) state estimate
    P: np.ndarray  # (48,) estimate variances
    Q: np.ndarray  # (48,) process-noise variances
    R: np.ndarray  # (48,) measurement-noise variances

    def __post_init__(self):
        for name in ("x", "P", "Q", "R"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (POSE_DIM,):
                raise ValueError(f"{name} must have shape ({POSE_DIM},), got {arr.shape}")
            if name != "x" and np.any(arr < 0.0):
                raise ValueError(f"{name} must be non-negative elementwise")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def kalman_step(state: KalmanState, velocity, measurement) -> tuple[KalmanState, np.ndarray]:
    """Predict with the velocity control, then correct with the measurement.

    Identity dynamics throughout: predict x_pred = x + v, P_pred = P + Q;
    update with gain P_pred / (P_pred + R). Returns the new state and the
    posterior estimate as the fused pose.
    """
    velocity = np.asarray(velocity, dtype=np.float64)
    measurement = np.asarray(measurement, dtype=np.float64)
    x_pred = state.x + velocity
    p_pred = state.P + state.Q
    denom = p_pred + state.R
    if np.any(denom == 0.0):
        raise NumericalError("P + Q + R vanished in some component; gain undefined")
    gain = p_pred / denom
    x = x_pred + gain * (measurement - x_pred)
    p = (1.0 - gain) * p_pred
    return replace(state, x=x, P=p), x


def kalman_filter_stream(measurements, control_velocities, measurement_noise,
                         process_noise) -> np.ndarray:
    """Filter a whole stream; state starts at the first measurement, P0 = R."""
    meas = np.asarray(measurements, dtype=np.float64)
    vel = np.asarray(control_velocities, dtype=np.float64)
    if meas.ndim != 2 or meas.shape[1] != POSE_DIM:
        raise ValueError(f"measurements must be (n, {POSE_DIM}), got {meas.shape}")
    if vel.shape != (meas.shape[0] - 1, POSE_DIM):
        raise ValueError(
            f"need one control velocity per transition: got {vel.shape} "
            f"for {meas.shape[0]} measurements"
        )
    # validates the noise diagonals' shapes and signs
    state = KalmanState(x=meas[0], P=measurement_noise, Q=process_noise, R=measurement_noise)
    q, r = state.Q, state.R
    # P + Q + R is nondecreasing in P >= 0, so it vanishes at some step only
    # if it does at the first, where P = R
    if vel.shape[0] and np.any((r + q) + r == 0.0):
        raise NumericalError("P + Q + R vanished in some component; gain undefined")
    # kalman_step's gain recursion, which does not depend on the data
    gains = np.empty_like(vel)
    p = r
    for t in range(vel.shape[0]):
        p_pred = p + q
        gains[t] = p_pred / (p_pred + r)
        p = (1.0 - gains[t]) * p_pred
    out = np.empty_like(meas)
    out[0] = meas[0]
    for t in range(1, meas.shape[0]):
        x_pred = out[t - 1] + vel[t - 1]
        out[t] = x_pred + gains[t - 1] * (meas[t] - x_pred)
    return out


def estimate_noise_covariances(position_residuals, velocity_residuals) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal measurement (R) and process (Q) noise from residual variances.

    Variances are floored at 1e-12.
    """
    r = _residual_variance(position_residuals, "position residuals")
    q = _residual_variance(velocity_residuals, "velocity residuals")
    return r, q


def _residual_variance(residuals, what: str) -> np.ndarray:
    res = np.asarray(residuals, dtype=np.float64)
    if res.ndim != 2 or res.shape[1] != POSE_DIM:
        raise ValueError(f"{what} must be (n, {POSE_DIM}), got {res.shape}")
    if res.shape[0] < 2:
        raise ValueError(f"need at least 2 {what}")
    return np.maximum(np.var(res, axis=0), VARIANCE_FLOOR)


@dataclass
class FusionModels:
    """Everything run_pipeline may need; variants check their own subset."""

    tree: KinematicTree
    knn_k: int = 300
    pdrnn: drnn.DrnnParams | None = None
    vdrnn: drnn.DrnnParams | None = None
    vdrnn_plus: drnn.DrnnParams | None = None
    store: NeighborStore | None = None  # refined-pose keys
    store_plus: NeighborStore | None = None  # Kalman-state keys
    store_raw: NeighborStore | None = None  # unrefined-pose keys
    gate: GateModel | None = None
    gate_plus: GateModel | None = None
    gate_raw: GateModel | None = None
    gate_unrefined_velocity: GateModel | None = None
    kalman_r: np.ndarray | None = None
    kalman_q: np.ndarray | None = None
    kalman_r_raw: np.ndarray | None = None
    kalman_q_raw: np.ndarray | None = None


_VARIANT_NEEDS: dict[str, tuple[str, ...]] = {
    "raw": (),
    "pdrnn": ("pdrnn",),
    "sknn": ("pdrnn", "vdrnn", "store", "gate"),
    "naive_sknn": ("pdrnn", "vdrnn", "store", "gate"),
    "sknn_minus_vdrnn": ("pdrnn", "store", "gate_unrefined_velocity"),
    "sknn_minus_pdrnn": ("vdrnn", "store_raw", "gate_raw"),
    "kf": ("pdrnn", "vdrnn", "kalman_r", "kalman_q"),
    "kf_minus_pdrnn": ("vdrnn", "kalman_r_raw", "kalman_q_raw"),
    "sknnkf": (
        "pdrnn", "vdrnn", "vdrnn_plus", "kalman_r", "kalman_q", "store_plus", "gate_plus",
    ),
}


def required_networks(variant: str) -> tuple[str, ...]:
    """Which trained networks a variant needs loaded."""
    if variant not in _VARIANT_NEEDS:
        raise ConfigurationError(f"unknown pipeline variant {variant!r}")
    nets = ("pdrnn", "vdrnn", "vdrnn_plus")
    return tuple(n for n in _VARIANT_NEEDS[variant] if n in nets)


def _require(models: FusionModels, variant: str) -> None:
    missing = [name for name in _VARIANT_NEEDS[variant] if getattr(models, name) is None]
    if missing:
        raise ConfigurationError(
            f"variant {variant!r} is missing models: {', '.join(missing)}"
        )


def _sknn_track(query_data: np.ndarray, velocity_stream: np.ndarray,
                store: NeighborStore, gate: GateModel,
                anchor_on_query: bool = False) -> np.ndarray:
    """Run the gated-KNN recursion along a sequence; frame 0 passes through.

    Each frame's implied velocities are measured from the previous fused
    output. anchor_on_query switches that anchor to the previous query pose
    (the naive_sknn ablation): the neighbor's target is then compared with a
    refined pose or Kalman state instead of with the recursion's own output,
    so the gate no longer sees the output's history and its test carries
    the query stream's position error.
    """
    out = np.empty_like(query_data)
    out[0] = query_data[0]
    for t in range(1, query_data.shape[0]):
        anchor = query_data[t - 1] if anchor_on_query else out[t - 1]
        out[t] = sknn_step(store, gate, query_data[t], velocity_stream[t - 1], anchor)
    return out


def _fit_track_gate(store: NeighborStore, query_val: np.ndarray, velocity_val: np.ndarray,
                    clean_val: np.ndarray, theta: float) -> GateModel:
    """Fit a gate to the deviation _sknn_track tests, on the validation split.

    That deviation is (clean[t] - out[t-1]) - velocity[t-1]. It carries the
    position error of the recursion's own previous output, so its spread is
    about that error (~0.025 m on the acceptance corpus), not the velocity
    residual spread (~0.001 m/frame); a gate fitted on velocity residuals
    alone rejects nearly every neighbor. A provisional gate fitted with the
    true previous pose as anchor, i.e. on velocity residuals, drives one
    recursion over the validation queries; sigma2 is then refitted on the
    deviations of that run.
    """
    provisional = estimate_gate(np.diff(clean_val, axis=0) - velocity_val, theta)
    out = _sknn_track(query_val, velocity_val, store, provisional)
    return estimate_gate((clean_val[1:] - out[:-1]) - velocity_val, theta)


def _run_sknnkf(seq: SkeletonSequence, models: FusionModels) -> np.ndarray:
    refined = drnn.refine_positions(models.pdrnn, seq, models.tree)
    refined_vel = drnn.refine_velocities(models.vdrnn, refined)
    states = kalman_filter_stream(
        refined.data, refined_vel, models.kalman_r, models.kalman_q
    )
    state_vel = drnn.run_stream(models.vdrnn_plus, np.diff(states, axis=0))
    return _sknn_track(states, state_vel, models.store_plus, models.gate_plus)


def run_pipeline(variant: str, seq: SkeletonSequence, models: FusionModels) -> SkeletonSequence:
    """Refine an absolute sequence with the named method.

    Variants: raw (pass-through), pdrnn (position network only), sknn, kf,
    sknnkf, and the ablations sknn_minus_pdrnn, sknn_minus_vdrnn,
    naive_sknn, kf_minus_pdrnn. Missing models raise ConfigurationError.
    Deterministic: identical inputs and models give identical outputs.
    """
    if variant not in _VARIANT_NEEDS:
        raise ConfigurationError(f"unknown pipeline variant {variant!r}")
    if seq.encoding is not Encoding.ABSOLUTE:
        raise ConfigurationError("run_pipeline expects an absolute sequence")
    _require(models, variant)

    if variant == "raw":
        return seq.with_data(seq.data.copy())

    if variant == "pdrnn":
        return drnn.refine_positions(models.pdrnn, seq, models.tree)

    if variant in ("sknn", "naive_sknn"):
        refined = drnn.refine_positions(models.pdrnn, seq, models.tree)
        refined_vel = drnn.refine_velocities(models.vdrnn, refined)
        fused = _sknn_track(
            refined.data, refined_vel, models.store, models.gate,
            anchor_on_query=(variant == "naive_sknn"),
        )
        return seq.with_data(fused)

    if variant == "sknn_minus_vdrnn":
        refined = drnn.refine_positions(models.pdrnn, seq, models.tree)
        fused = _sknn_track(
            refined.data, velocities(refined), models.store,
            models.gate_unrefined_velocity,
        )
        return seq.with_data(fused)

    if variant == "sknn_minus_pdrnn":
        refined_vel = drnn.run_stream(models.vdrnn, velocities(seq))
        fused = _sknn_track(seq.data, refined_vel, models.store_raw, models.gate_raw)
        return seq.with_data(fused)

    if variant == "kf":
        refined = drnn.refine_positions(models.pdrnn, seq, models.tree)
        refined_vel = drnn.refine_velocities(models.vdrnn, refined)
        return seq.with_data(
            kalman_filter_stream(refined.data, refined_vel, models.kalman_r, models.kalman_q)
        )

    if variant == "kf_minus_pdrnn":
        refined_vel = drnn.run_stream(models.vdrnn, velocities(seq))
        return seq.with_data(
            kalman_filter_stream(seq.data, refined_vel, models.kalman_r_raw, models.kalman_q_raw)
        )

    return seq.with_data(_run_sknnkf(seq, models))


def fit_fusion_models(
    corpus,
    tree: KinematicTree,
    pdrnn: drnn.DrnnParams | None = None,
    vdrnn: drnn.DrnnParams | None = None,
    vdrnn_plus: drnn.DrnnParams | None = None,
    k: int = 300,
    theta: float = 0.05,
    theta_plus: float = 0.05,
    variants: tuple[str, ...] = ("sknn", "kf", "sknnkf"),
) -> FusionModels:
    """Build stores, gates and noise diagonals for the requested variants.

    Stores come from the training split; gates and covariances are fitted on
    validation residuals, each gate on the implied-velocity deviations of a
    validation run of its own recursion (_fit_track_gate). Only artifacts
    some requested variant needs are computed, and the networks each variant
    relies on must be supplied.
    """
    for variant in variants:
        if variant not in _VARIANT_NEEDS:
            raise ConfigurationError(f"unknown pipeline variant {variant!r}")
    want: set[str] = set()
    for variant in variants:
        want.update(_VARIANT_NEEDS[variant])
    provided = {"pdrnn": pdrnn, "vdrnn": vdrnn, "vdrnn_plus": vdrnn_plus}
    for net, params in provided.items():
        if net in want and params is None:
            raise ConfigurationError(f"requested variants need the {net} network")

    models = FusionModels(
        tree=tree, knn_k=k, pdrnn=pdrnn, vdrnn=vdrnn, vdrnn_plus=vdrnn_plus
    )
    corrupt_train, clean_train = corpus.train.corrupted, corpus.train.clean
    corrupt_val, clean_val = corpus.validation.corrupted, corpus.validation.clean
    clean_val_vel = velocities(clean_val)

    refined_train = refined_val = None
    refined_train_vel = refined_val_vel = None
    if want & {"store", "gate", "gate_unrefined_velocity", "kalman_r", "store_plus"}:
        refined_train = drnn.refine_positions(pdrnn, corrupt_train, tree)
        refined_val = drnn.refine_positions(pdrnn, corrupt_val, tree)
    if want & {"gate", "kalman_r", "store_plus"}:
        refined_train_vel = drnn.refine_velocities(vdrnn, refined_train)
        refined_val_vel = drnn.refine_velocities(vdrnn, refined_val)

    if "store" in want:
        models.store = NeighborStore(refined_train.data, clean_train.data, k)
    if "gate" in want:
        models.gate = _fit_track_gate(
            models.store, refined_val.data, refined_val_vel, clean_val.data, theta
        )
    if "gate_unrefined_velocity" in want:
        models.gate_unrefined_velocity = _fit_track_gate(
            models.store, refined_val.data, velocities(refined_val), clean_val.data, theta
        )
    if want & {"kalman_r", "kalman_q"}:
        models.kalman_r, models.kalman_q = estimate_noise_covariances(
            clean_val.data - refined_val.data, clean_val_vel - refined_val_vel
        )

    if want & {"store_raw", "gate_raw", "kalman_r_raw"}:
        raw_val_vel_refined = drnn.run_stream(vdrnn, velocities(corrupt_val))
        if "store_raw" in want:
            models.store_raw = NeighborStore(corrupt_train.data, clean_train.data, k)
        if "gate_raw" in want:
            models.gate_raw = _fit_track_gate(
                models.store_raw, corrupt_val.data, raw_val_vel_refined, clean_val.data, theta
            )
        if want & {"kalman_r_raw", "kalman_q_raw"}:
            models.kalman_r_raw, models.kalman_q_raw = estimate_noise_covariances(
                clean_val.data - corrupt_val.data, clean_val_vel - velocities(corrupt_val)
            )

    if want & {"store_plus", "gate_plus"}:
        states_train = kalman_filter_stream(
            refined_train.data, refined_train_vel, models.kalman_r, models.kalman_q
        )
        states_val = kalman_filter_stream(
            refined_val.data, refined_val_vel, models.kalman_r, models.kalman_q
        )
        state_val_vel = drnn.run_stream(vdrnn_plus, np.diff(states_val, axis=0))
        models.store_plus = NeighborStore(states_train, clean_train.data, k)
        models.gate_plus = _fit_track_gate(
            models.store_plus, states_val, state_val_vel, clean_val.data, theta_plus
        )

    return models


def write_gate(path, gate: GateModel) -> None:
    Path(path).write_text(json.dumps(gate.to_json_dict()), encoding="utf-8")


def read_gate(path) -> GateModel:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return GateModel.from_json_dict(data)


def write_covariances(path, measurement_noise, process_noise) -> None:
    payload = {
        "R": [float(v) for v in np.asarray(measurement_noise)],
        "Q": [float(v) for v in np.asarray(process_noise)],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def read_covariances(path) -> tuple[np.ndarray, np.ndarray]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return (
        np.asarray(data["R"], dtype=np.float64),
        np.asarray(data["Q"], dtype=np.float64),
    )


def write_store(keys_path, targets_path, store: NeighborStore,
                frame_rate_hz: float = 30.0) -> None:
    """Serialize a store as a pair of sequence files (keys, targets)."""
    seqio.write_sequence(
        keys_path, SkeletonSequence(store.keys, Encoding.ABSOLUTE, frame_rate_hz)
    )
    seqio.write_sequence(
        targets_path, SkeletonSequence(store.targets, Encoding.ABSOLUTE, frame_rate_hz)
    )


def read_store(keys_path, targets_path, k: int = 300) -> NeighborStore:
    keys = seqio.read_sequence(keys_path)
    targets = seqio.read_sequence(targets_path)
    return NeighborStore(keys.data, targets.data, k)
