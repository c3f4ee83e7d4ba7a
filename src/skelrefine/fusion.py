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
ablations that drop one refinement stage at a time. The VARIANTS table is
the one place this wiring lives: each row names its query (or measurement)
stream, its velocity stream, its store, its gate or noise, and its anchor,
by the names of STREAMS and of FusionModels attributes. run_pipeline and
fit_fusion_models read the table, and a StreamBuilder computes each stream
of a sequence at most once. The NETWORKS table wires training the same way:
each network, in training order, names the stream it reads and the stream
it learns, and training_streams builds both with a StreamBuilder.

Cost. The neighbor search is exact but does not sort the whole store per
query: one BLAS mat-vec gives every key's squared distance through the
expansion |k|^2 - 2 k.q + |q|^2, np.partition finds the k-th smallest, and
the keys within twice a forward-error bound of it are sorted by that
approximate distance. The exact formula is evaluated only for near ties,
keys whose approximate distances lie within twice the bound of a
neighbor's, and re-ranks them (nearest_indices derives the bound and the
order). The result is the full stable sort's, bit for bit, for finite
inputs. The gate's (k, 48) deviation is built in one buffer, the gate mean
is one row reduction over a component-major gather, with a loop only over
components the gate partly rejects, and the Kalman gain sequence, which
does not depend on the data, is computed once per stream. With a 5000-key
store at K=1000 (one BLAS thread, a 2-CPU VM), a search takes about 190
microseconds per query, and a gated frame, search included, about 570.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import drnn, seqio, skeleton
from .errors import (
    ConfigurationError,
    EncodingError,
    InsufficientFramesError,
    NumericalError,
)
from .skeleton import (
    POSE_DIM,
    Encoding,
    KinematicTree,
    SkeletonSequence,
    velocities,
)

VARIANCE_FLOOR = 1e-12
# the neighbor count K and the gate's tail probability theta where no config
# sets them
DEFAULT_K = 300
DEFAULT_THETA = 0.05


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
        # scipy loads only where a gate is built, which keeps it out of the
        # commands that need none
        from scipy import special

        thresholds = np.sqrt(2.0 * sigma2) * special.erfcinv(self.theta)
        thresholds.setflags(write=False)
        object.__setattr__(self, "_thresholds", thresholds)

    def passes(self, deviation) -> np.ndarray:
        """Boolean mask over (..., 48) absolute deviations."""
        return np.asarray(deviation, dtype=np.float64) < self._thresholds


def estimate_gate(validation_residuals, theta: float = DEFAULT_THETA) -> GateModel:
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
    k: int = DEFAULT_K

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
# Up to this largest |q_j|, q.q over 48 components cannot overflow.
_QUERY_LIMIT = 1e153


def nearest_indices(store: NeighborStore, query) -> np.ndarray:
    """Indices of the k nearest keys by Euclidean distance.

    Exact search; ties at equal distance go to the lower store index. k is
    clamped to the store size. The result is, bit for bit, that of a stable
    argsort of d[i] = np.sum((keys[i] - q) ** 2) over the whole store. A
    non-finite query, or a k-th nearest d that overflows (every key beyond
    it would tie at inf), raises NumericalError.

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
    nearest keys therefore has a <= a_k + 2E, so the candidates, the keys
    with a <= a_k + 2E, hold them all.

    Only near ties among the candidates need d. Sorted by a, they are cut
    into runs wherever the gap to the next a exceeds 2E. If a_j - a_i > 2E
    then d_j >= a_j + |q|^2 - E > a_i + |q|^2 + E >= d_i, so keys in
    different runs rank in the order of their runs. The computed gap is a
    correctly rounded difference and 2E is a float, so by monotone rounding
    a computed gap above 2E means an exact one above 2E. Ordering by (run,
    d, index), with d computed only for the members of runs longer than
    one, is therefore the full sort's order with its lower-index
    tie-break; a tie in a puts both keys in one run, so the sort by a need
    not be stable. When k >= n, when a query component exceeds _QUERY_LIMIT
    in magnitude (so that |q|^2 could overflow), or when S_max overflows,
    every key is ranked by d.
    """
    q = np.asarray(query, dtype=np.float64)
    q_max = float(np.abs(q).max())
    if not q_max < math.inf:  # NaN fails too
        raise NumericalError("nearest-neighbor query is not finite")
    keys = store.keys
    n = keys.shape[0]
    k = min(store.k, n)
    bound = math.inf
    if q_max <= _QUERY_LIMIT:
        bound = _PREFILTER_SLACK * (_EPS * (store._max_key_norm2 + float(q @ q)) + _TINY)
    if k >= n or bound == math.inf:
        with np.errstate(over="ignore"):
            d = np.sum((keys - q) ** 2, axis=1)
        nearest = np.argsort(d, kind="stable")[:k]
        if d[nearest[-1]] == math.inf:
            raise NumericalError(
                f"nearest-neighbor distances overflow at a query component of {q_max:.3g}")
        return nearest
    approx = store._key_norms2 - 2.0 * (keys @ q)
    kth = np.partition(approx, k - 1)[k - 1]
    candidates = np.flatnonzero(approx <= kth + 2.0 * bound)
    candidates = candidates[np.argsort(approx[candidates])]
    # tied[i]: the gap between sorted candidates i and i + 1 is within 2E
    tied = np.diff(approx[candidates]) <= 2.0 * bound
    if not tied[:k].any():
        # none of the first k is near-tied with a neighbor: they are ranked
        return candidates[:k]
    member = np.zeros(candidates.size, dtype=bool)
    member[:-1] = tied
    member[1:] |= tied
    d = np.zeros(candidates.size)
    d[member] = np.sum((keys[candidates[member]] - q) ** 2, axis=1)
    run = np.concatenate(([0], np.cumsum(~tied)))
    return candidates[np.lexsort((candidates, d, run))[:k]]


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
    # |(t - prev) - velocity| in one (k, 48) buffer; the chained form's
    # temporaries made the whole step about 8% slower at K=1000
    deviation = rows.T - prev
    np.subtract(deviation, velocity, out=deviation)
    np.abs(deviation, out=deviation)
    kept_t = gate.passes(deviation).T
    out = np.add.reduce(rows, axis=1) / idx.size
    # components whose gate keeps every neighbor, or none (the fallback),
    # already hold the ungated mean
    for j in np.flatnonzero(kept_t.any(axis=1) & ~kept_t.all(axis=1)):
        kept = rows[j][kept_t[j]]
        out[j] = np.add.reduce(kept) / kept.size
    return out


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
            if name != "x" and not (np.all(np.isfinite(arr)) and np.all(arr >= 0.0)):
                raise ValueError(f"{name} must be finite and non-negative elementwise")
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
    """Everything run_pipeline may need; each variant reads the subset that
    required_models names."""

    tree: KinematicTree
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


# Streams derived from one absolute sequence, whose own positions are "raw":
# name -> (operation, FusionModels attributes it reads, streams it reads).
# "relative" is the parent-relative encoding, "<x>_diff" the
# finite-difference velocity of x, "<x>_vel" that velocity refined by a
# network.
STREAMS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "relative": ("sequence_to_relative", (), ()),
    "refined": ("refine_positions", ("pdrnn",), ()),
    "refined_diff": ("difference", (), ("refined",)),
    "refined_vel": ("run_stream", ("vdrnn",), ("refined_diff",)),
    "raw_diff": ("difference", (), ("raw",)),
    "raw_vel": ("run_stream", ("vdrnn",), ("raw_diff",)),
    "states": ("kalman_filter_stream", ("kalman_r", "kalman_q"), ("refined", "refined_vel")),
    "states_diff": ("difference", (), ("states",)),
    "states_vel": ("run_stream", ("vdrnn_plus",), ("states_diff",)),
}


class StreamBuilder:
    """The STREAMS of one absolute sequence, each computed at most once.

    Models are read when a stream is first asked for, so a fit can add the
    Kalman noise before it asks for the states.
    """

    def __init__(self, seq: SkeletonSequence, models: FusionModels):
        self._seq = seq
        self._models = models
        self._streams = {"raw": seq.data}

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._streams:
            operation, model_names, sources = STREAMS[name]
            params = [getattr(self._models, m) for m in model_names]
            inputs = [self[s] for s in sources]
            if operation == "sequence_to_relative":
                value = skeleton.sequence_to_relative(self._seq, self._models.tree).data
            elif operation == "refine_positions":
                value = drnn.refine_positions(params[0], self._seq, self._models.tree).data
            elif operation == "difference":
                if inputs[0].shape[0] < 2:
                    raise InsufficientFramesError("velocities needs at least 2 frames")
                value = np.diff(inputs[0], axis=0)
            elif operation == "run_stream":
                value = drnn.run_stream(params[0], inputs[0])
            else:
                value = kalman_filter_stream(*inputs, *params)
            self._streams[name] = value
        return self._streams[name]


@dataclass(frozen=True)
class Variant:
    """One pipeline variant: each field names a stream or a FusionModels
    attribute. With a store the variant runs the gated KNN, with noise the
    Kalman filter; with neither its output is the query stream."""

    query: str  # KNN query or Kalman measurement stream
    velocity: str | None = None  # the gate's velocity or the filter's control
    store: str | None = None
    gate: str | None = None
    theta: str = "theta"  # the fit_fusion_models argument the gate takes
    noise: tuple[str, str] | None = None  # (R, Q)
    anchor_on_query: bool = False  # see _sknn_track


# The one place the pipeline is wired. A store, gate or noise is fitted from
# the first row that names it, so rows sharing one must agree on its streams.
# A gate is fitted on the row's query and velocity streams; noise fits R on
# the query stream and Q on the velocity stream, the filter's own control.
VARIANTS: dict[str, Variant] = {
    "raw": Variant("raw"),
    "pdrnn": Variant("refined"),
    "sknn": Variant("refined", "refined_vel", store="store", gate="gate"),
    "kf": Variant("refined", "refined_vel", noise=("kalman_r", "kalman_q")),
    "sknnkf": Variant("states", "states_vel", store="store_plus", gate="gate_plus",
                      theta="theta_plus"),
    "sknn_minus_pdrnn": Variant("raw", "raw_vel", store="store_raw", gate="gate_raw"),
    "sknn_minus_vdrnn": Variant("refined", "refined_diff", store="store",
                                gate="gate_unrefined_velocity"),
    "naive_sknn": Variant("refined", "refined_vel", store="store", gate="gate",
                          anchor_on_query=True),
    "kf_minus_pdrnn": Variant("raw", "raw_vel", noise=("kalman_r_raw", "kalman_q_raw")),
}

PIPELINE_VARIANTS = tuple(VARIANTS)

# The networks in training order, each with the stream of the corrupted
# sequence it reads and the stream of the clean sequence it learns.
NETWORKS: dict[str, tuple[str, str]] = {
    "pdrnn": ("relative", "relative"),
    "vdrnn": ("refined_diff", "raw_diff"),
    "vdrnn_plus": ("states_diff", "raw_diff"),
}


def _variant(name: str) -> Variant:
    if name not in VARIANTS:
        raise ConfigurationError(f"unknown pipeline variant {name!r}")
    return VARIANTS[name]


def _stream_needs(name: str) -> list[str]:
    if name == "raw":
        return []
    _, model_names, sources = STREAMS[name]
    return [m for source in sources for m in _stream_needs(source)] + list(model_names)


def required_models(variant: str) -> tuple[str, ...]:
    """The FusionModels attributes a variant reads, each after the ones it
    is fitted from."""
    spec = _variant(variant)
    names = _stream_needs(spec.query)
    if spec.velocity is not None:
        names += _stream_needs(spec.velocity)
    names += [spec.store, spec.gate, *(spec.noise or ())]
    return tuple(dict.fromkeys(n for n in names if n is not None))


def required_networks(variant: str) -> tuple[str, ...]:
    """Which trained networks a variant needs loaded."""
    needs = required_models(variant)
    return tuple(n for n in NETWORKS if n in needs)


def training_models(network: str) -> tuple[str, ...]:
    """The FusionModels attributes a network's training streams read, each
    after the ones it is fitted from."""
    return tuple(dict.fromkeys(m for stream in NETWORKS[network] for m in _stream_needs(stream)))


def training_streams(network: str, pair, models: FusionModels) -> tuple[np.ndarray, np.ndarray]:
    """A network's (input, target) streams on one corpus split, as NETWORKS
    names them; models must hold what training_models names."""
    source, target = NETWORKS[network]
    return StreamBuilder(pair.corrupted, models)[source], StreamBuilder(pair.clean, models)[target]


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


def run_pipeline(variant: str, seq: SkeletonSequence, models: FusionModels) -> SkeletonSequence:
    """Refine an absolute sequence with the named method of VARIANTS.

    Variants: raw (pass-through), pdrnn (position network only), sknn, kf,
    sknnkf, and the ablations sknn_minus_pdrnn, sknn_minus_vdrnn,
    naive_sknn, kf_minus_pdrnn. Missing models raise ConfigurationError, a
    sequence in another encoding EncodingError. Deterministic: identical
    inputs and models give identical outputs.
    """
    spec = _variant(variant)
    if seq.encoding is not Encoding.ABSOLUTE:
        raise EncodingError("run_pipeline expects an absolute sequence")
    missing = [name for name in required_models(variant) if getattr(models, name) is None]
    if missing:
        raise ConfigurationError(f"variant {variant!r} is missing models: {', '.join(missing)}")
    streams = StreamBuilder(seq, models)
    fused = streams[spec.query]
    if spec.store is not None:
        fused = _sknn_track(fused, streams[spec.velocity], getattr(models, spec.store),
                            getattr(models, spec.gate), spec.anchor_on_query)
    elif spec.noise is not None:
        fused = kalman_filter_stream(fused, streams[spec.velocity],
                                     *(getattr(models, n) for n in spec.noise))
    return seq.with_data(fused)


# The fewest validation frames a gate or noise fit takes: their differences
# are the two velocity residuals a variance needs.
MIN_FIT_FRAMES = 3


def fit_fusion_models(
    corpus,
    tree: KinematicTree,
    pdrnn: drnn.DrnnParams | None = None,
    vdrnn: drnn.DrnnParams | None = None,
    vdrnn_plus: drnn.DrnnParams | None = None,
    k: int = DEFAULT_K,
    theta: float = DEFAULT_THETA,
    theta_plus: float = DEFAULT_THETA,
    variants: tuple[str, ...] = ("sknn", "kf", "sknnkf"),
) -> FusionModels:
    """Build the stores, gates and noise diagonals the requested variants name.

    Stores are keyed by a train-split stream; gates and covariances are
    fitted on validation residuals, each gate on the implied-velocity
    deviations of a validation run of its own recursion (_fit_track_gate).
    Each is fitted from the first VARIANTS row that names it, in the order
    of required_models, so the Kalman noise comes before the states' store
    and gate. The networks the variants rely on must be supplied. The train
    split is used only when a store is fitted, so a noise-only fit (kf)
    leaves a lazily read corpus's train files unread. A validation split of
    fewer than MIN_FIT_FRAMES frames raises InsufficientFramesError.
    """
    want = dict.fromkeys(name for v in variants for name in required_models(v))
    models = FusionModels(tree=tree, pdrnn=pdrnn, vdrnn=vdrnn, vdrnn_plus=vdrnn_plus)
    for net in NETWORKS:
        if net in want and getattr(models, net) is None:
            raise ConfigurationError(f"requested variants need the {net} network")
    stores = {spec.store for spec in VARIANTS.values()}
    validation_fits = [name for name in want if name not in NETWORKS and name not in stores]
    n_val = len(corpus.validation.clean)
    if validation_fits and n_val < MIN_FIT_FRAMES:
        raise InsufficientFramesError(
            f"the validation split has {n_val} frames; fitting {', '.join(validation_fits)} "
            f"needs at least {MIN_FIT_FRAMES}"
        )

    train = None  # built at the first store
    val = StreamBuilder(corpus.validation.corrupted, models)
    clean_val = corpus.validation.clean.data
    thetas = {"theta": theta, "theta_plus": theta_plus}
    for name in want:
        if getattr(models, name) is not None:
            continue  # a network, or a Q fitted with its R
        spec = next(s for s in VARIANTS.values() if name in (s.store, s.gate, *(s.noise or ())))
        if name == spec.store:
            if train is None:
                train = StreamBuilder(corpus.train.corrupted, models)
            setattr(models, name, NeighborStore(train[spec.query], corpus.train.clean.data, k))
        elif name == spec.gate:
            setattr(models, name, _fit_track_gate(
                getattr(models, spec.store), val[spec.query], val[spec.velocity], clean_val,
                thetas[spec.theta]))
        else:
            noise = estimate_noise_covariances(
                clean_val - val[spec.query],
                velocities(corpus.validation.clean) - val[spec.velocity],
            )
            for attr, value in zip(spec.noise, noise):
                setattr(models, attr, value)
    return models


def write_covariances(path, measurement_noise, process_noise) -> None:
    payload = {
        "R": [float(v) for v in np.asarray(measurement_noise)],
        "Q": [float(v) for v in np.asarray(process_noise)],
    }
    with seqio.atomic_open(path) as fh:
        fh.write(json.dumps(payload))
