"""Independent references and properties that the benchmark checks outputs against.

Nothing here calls the program: each reference is written from the
definition it checks (the DRNN forward pass, the scalar Kalman recursion,
the gated KNN, parent-relative encoding, APE and jerk). Every `check_*`
function returns a list of failure messages, empty when the check passes.
The checks run after timing, outside every timed interval.
"""

from __future__ import annotations

import math

import numpy as np


# --- references ---------------------------------------------------------------

def forward_reference(weights: dict, stream: np.ndarray) -> np.ndarray:
    """DRNN outputs over a (frames, dim) stream, hidden state carried.

    weights: inter, biases (per hidden layer), recurrent, out_weight,
    out_bias and the 1-based recurrent_layer_index.
    """
    rec = weights["recurrent_layer_index"] - 1
    h = np.zeros(weights["recurrent"].shape[0])
    out = np.empty((len(stream), weights["out_bias"].shape[0]))
    for t, x in enumerate(np.asarray(stream, dtype=np.float64)):
        a = x
        for layer, (u, b) in enumerate(zip(weights["inter"], weights["biases"])):
            z = a @ u + b
            if layer == rec:
                z = z + h @ weights["recurrent"]
            a = np.where(z > 0.0, z, 0.0)
            if layer == rec:
                h = a
        out[t] = a @ weights["out_weight"] + weights["out_bias"]
    return out


def weights_of(params) -> dict:
    """Reference weights from an in-memory network's arrays."""
    return {
        "inter": params.inter,
        "biases": params.biases,
        "recurrent": params.recurrent,
        "out_weight": params.out_weight,
        "out_bias": params.out_bias,
        "recurrent_layer_index": params.config.recurrent_layer_index,
    }


def weights_from_checkpoint(payload: dict) -> dict:
    """Reference weights parsed from a checkpoint's JSON object."""
    arrays = {name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
              for name, entry in payload["arrays"].items()}
    n_layers = len(payload["config"]["hidden_sizes"])
    return {
        "inter": [arrays[f"inter_{l}"] for l in range(1, n_layers + 1)],
        "biases": [arrays[f"bias_{l}"] for l in range(1, n_layers + 1)],
        "recurrent": arrays["recurrent"],
        "out_weight": arrays["out_weight"],
        "out_bias": arrays["out_bias"],
        "recurrent_layer_index": payload["config"]["recurrent_layer_index"],
    }


def to_relative_reference(absolute: np.ndarray, parents: dict[int, int]) -> np.ndarray:
    """Each joint minus its parent; the root (its own parent) stays absolute."""
    out = np.array(absolute, dtype=np.float64)
    for joint, parent in parents.items():
        if joint != parent:
            out[:, 3 * joint:3 * joint + 3] = (
                absolute[:, 3 * joint:3 * joint + 3] - absolute[:, 3 * parent:3 * parent + 3])
    return out


def to_absolute_reference(relative: np.ndarray, parents: dict[int, int]) -> np.ndarray:
    """Sum each joint's offsets along its chain of parents up to the root."""
    out = np.empty_like(relative)
    for joint in parents:
        total = relative[:, 3 * joint:3 * joint + 3].copy()
        j = joint
        while parents[j] != j:
            j = parents[j]
            total += relative[:, 3 * j:3 * j + 3]
        out[:, 3 * joint:3 * joint + 3] = total
    return out


def position_refinement_reference(weights: dict, absolute: np.ndarray,
                                  parents: dict[int, int]) -> np.ndarray:
    """The position network applied in parent-relative coordinates."""
    relative = to_relative_reference(absolute, parents)
    return to_absolute_reference(forward_reference(weights, relative), parents)


def kalman_reference(measurements, controls, r, q, components) -> np.ndarray:
    """Scalar Kalman recursion per component: x0 = z0, P0 = R; predict x + v,
    P + Q; gain P / (P + R). Returns (frames, len(components))."""
    out = np.empty((len(measurements), len(components)))
    for c, j in enumerate(components):
        x = float(measurements[0][j])
        p = float(r[j])
        out[0, c] = x
        for t in range(1, len(measurements)):
            x = x + float(controls[t - 1][j])
            p = p + float(q[j])
            gain = p / (p + float(r[j]))
            x = x + gain * (float(measurements[t][j]) - x)
            p = (1.0 - gain) * p
            out[t, c] = x
    return out


def sknn_reference(keys, targets, k, sigma2, theta, query, velocity, prev) -> np.ndarray:
    """One gated-KNN step by brute force.

    The k nearest keys by a full (squared distance, index) sort; per
    component, neighbours whose implied velocity (target minus prev) deviates
    from `velocity` with two-sided Gaussian tail probability erfc(d / sqrt(2
    sigma2)) at or below theta are dropped; the kept targets are averaged,
    and a component that drops every neighbour takes the mean of all k.
    """
    distances = [float(np.sum((key - query) ** 2)) for key in keys]
    order = sorted(range(len(keys)), key=lambda i: (distances[i], i))[:min(k, len(keys))]
    out = np.empty(len(query))
    for j in range(len(query)):
        scale = math.sqrt(2.0 * sigma2[j])
        column = [float(targets[i, j]) for i in order]
        kept = [v for v in column
                if math.erfc(abs((v - prev[j]) - velocity[j]) / scale) > theta]
        out[j] = math.fsum(kept or column) / len(kept or column)
    return out


def ape_reference(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean Euclidean distance over every joint of every frame."""
    diff = (pred - truth).reshape(len(pred), -1, 3)
    return math.fsum(math.sqrt(math.fsum(float(v) ** 2 for v in joint))
                     for frame in diff for joint in frame) / (diff.shape[0] * diff.shape[1])


def jerk_reference(data: np.ndarray) -> np.ndarray:
    """Third backward difference per component: x[t] - 3x[t-1] + 3x[t-2] - x[t-3]."""
    return data[3:] - 3.0 * data[2:-1] + 3.0 * data[1:-2] - data[:-3]


def aje_reference(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean absolute jerk difference over every component-frame with a jerk."""
    err = np.abs(jerk_reference(pred) - jerk_reference(truth))
    return math.fsum(err.ravel().tolist()) / err.size


# --- checks ---------------------------------------------------------------------

def check_close(what: str, got, want, rtol: float = 1e-9, atol: float = 1e-12) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, reference {want.shape}"]
    bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
    if bad.any():
        worst = float(np.max(np.abs(got - want)))
        return [f"{what}: {int(bad.sum())} of {bad.size} values differ from the reference "
                f"(largest difference {worst:.3g})"]
    return []


def check_kalman(what: str, output, measurements, controls, r, q, components) -> list[str]:
    want = kalman_reference(measurements, controls, r, q, components)
    return check_close(what, np.asarray(output)[:, list(components)], want)


def check_sknn_frames(what: str, keys, targets, k, sigma2, theta, query, velocity,
                      output, frames) -> list[str]:
    """Program output at each sampled frame t >= 1 against the brute force,
    fed the program's query[t], velocity[t-1] and its previous output[t-1]."""
    failures = []
    for t in frames:
        want = sknn_reference(keys, targets, k, sigma2, theta, query[t], velocity[t - 1],
                              output[t - 1])
        failures += check_close(f"{what} frame {t}", output[t], want)
    return failures


def check_within_target_range(what: str, output, targets) -> list[str]:
    """Every regressed component (frame 0 passes its query through) lies
    within the range of the store's targets for that component."""
    out = np.asarray(output)[1:]
    lo, hi = targets.min(axis=0), targets.max(axis=0)
    bad = (out < lo) | (out > hi)
    if bad.any():
        return [f"{what}: {int(bad.sum())} components outside the store's target range"]
    return []


def check_strictly_falling(what: str, losses) -> list[str]:
    """Recorded training SSE falls strictly at every accepted step."""
    rises = [i for i in range(1, len(losses)) if not losses[i] < losses[i - 1]]
    if len(losses) < 2:
        return [f"{what}: fewer than two recorded losses"]
    if rises:
        return [f"{what}: SSE did not fall at accepted steps {rises}"]
    return []


def check_directional_derivative(what: str, loss_and_gradient, x0: np.ndarray, seed: int,
                                 directions: int = 3, eps: float = 1e-6,
                                 rtol: float = 1e-4) -> list[str]:
    """loss_and_gradient(x) -> (loss, gradient) against central differences.

    Each direction is the unit gradient plus a seeded random unit vector,
    normalised: the directional derivative is then of the order of the
    gradient's norm, so the few ReLU kinks a step of eps crosses stay far
    below the tolerance, while a missing or mis-scaled gradient block moves
    it by its share of the squared norm.
    """
    rng = np.random.default_rng(seed)
    _, gradient = loss_and_gradient(x0)
    unit = gradient / np.linalg.norm(gradient)
    failures = []
    for n in range(directions):
        d = rng.normal(size=x0.shape)
        d = unit + d / np.linalg.norm(d)
        d /= np.linalg.norm(d)
        plus, _ = loss_and_gradient(x0 + eps * d)
        minus, _ = loss_and_gradient(x0 - eps * d)
        numeric = (plus - minus) / (2.0 * eps)
        analytic = float(gradient @ d)
        if not abs(numeric - analytic) <= rtol * abs(analytic):
            failures.append(f"{what} direction {n}: gradient . d = {analytic:.9g}, "
                            f"central difference {numeric:.9g}")
    return failures


def check_scores(what: str, ape: float, aje: float, pred, truth) -> list[str]:
    return (check_close(f"{what} APE", ape, ape_reference(pred, truth))
            + check_close(f"{what} AJE", aje, aje_reference(pred, truth)))


def check_histogram_sums(what: str, histogram, aje: float) -> list[str]:
    """The ten jerk-error bands sum to the AJE."""
    if len(histogram) != 10:
        return [f"{what}: {len(histogram)} histogram bands, expected 10"]
    return check_close(f"{what} histogram sum", math.fsum(histogram), aje)
