"""Each benchmark check passes on the program's output and fails on a wrong one.

    PYTHONPATH=src python3 perfbench/test_checks.py
    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
from skelrefine import drnn, fusion, metrics
from skelrefine.skeleton import DEFAULT_TREE, Encoding, SkeletonSequence, velocities
from worker import PARENTS

RNG_SEED = 20251018


def smooth_sequence(n_frames: int, seed: int) -> SkeletonSequence:
    rng = np.random.default_rng(seed)
    t = np.arange(n_frames)[:, None]
    data = (rng.normal(size=48) + 0.1 * np.sin(0.2 * t + rng.uniform(0, 6, 48))
            + 0.01 * rng.normal(size=(n_frames, 48)))
    return SkeletonSequence(data, Encoding.ABSOLUTE, 30.0)


def tiny_network(input_dim: int = 48, seed: int = 3) -> drnn.DrnnParams:
    params = drnn.init_params(drnn.DrnnConfig(input_dim=input_dim, output_dim=48,
                                              hidden_sizes=(6, 5), recurrent_layer_index=1,
                                              window_length=3, seed=seed))
    params.biases = [np.full_like(b, 0.1) for b in params.biases]
    return params


def perturbed(array, index=(0, 0), delta=1e-6) -> np.ndarray:
    out = np.array(array, dtype=np.float64)
    out[index] += delta
    return out


def test_forward_pass():
    params = tiny_network()
    stream = smooth_sequence(30, 1).data
    want = checks.forward_reference(checks.weights_of(params), stream)
    got = drnn.run_stream(params, stream)
    assert checks.check_close("forward", got, want) == []
    assert checks.check_close("forward", perturbed(got, (17, 5)), want)
    # a pass that drops the carried hidden state
    restarted = np.vstack([drnn.run_stream(params, stream[:15]),
                           drnn.run_stream(params, stream[15:])])
    assert checks.check_close("forward", restarted, want)


def test_position_refinement_and_encoding():
    params = tiny_network()
    seq = smooth_sequence(25, 2)
    want = checks.position_refinement_reference(checks.weights_of(params), seq.data, PARENTS)
    got = drnn.refine_positions(params, seq, DEFAULT_TREE).data
    assert checks.check_close("pdrnn", got, want) == []
    # the network applied to absolute coordinates, skipping the encoding
    assert checks.check_close("pdrnn", drnn.run_stream(params, seq.data), want)
    relative = checks.to_relative_reference(seq.data, PARENTS)
    assert checks.check_close("round trip", checks.to_absolute_reference(relative, PARENTS),
                              seq.data) == []


def test_checkpoint_weights():
    params = tiny_network(seed=5)
    stream = smooth_sequence(10, 3).data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        drnn.save_checkpoint(path, params)
        payload = json.loads(path.read_text(encoding="utf-8"))
    parsed = checks.weights_from_checkpoint(payload)
    want = checks.forward_reference(checks.weights_of(params), stream)
    assert checks.check_close("checkpoint", checks.forward_reference(parsed, stream), want,
                              0, 0) == []
    payload["arrays"]["out_bias"]["data"][0] += 1e-3
    wrong = checks.weights_from_checkpoint(payload)
    assert checks.check_close("checkpoint", checks.forward_reference(wrong, stream), want)


def test_kalman():
    rng = np.random.default_rng(RNG_SEED)
    meas = smooth_sequence(40, 4).data
    vel = np.diff(meas, axis=0) + 0.001 * rng.normal(size=(39, 48))
    r = rng.uniform(1e-4, 1e-3, 48)
    q = rng.uniform(1e-5, 1e-4, 48)
    got = fusion.kalman_filter_stream(meas, vel, r, q)
    assert checks.check_kalman("kf", got, meas, vel, r, q, range(48)) == []
    assert checks.check_kalman("kf", perturbed(got, (20, 7)), meas, vel, r, q, range(48))
    # the recursion started from P0 = 0 instead of R
    wrong = got.copy()
    x, p = meas[0, 0], 0.0
    for t in range(1, len(meas)):
        x, p = x + vel[t - 1, 0], p + q[0]
        gain = p / (p + r[0])
        x, p = x + gain * (meas[t, 0] - x), (1 - gain) * p
        wrong[t, 0] = x
    assert checks.check_kalman("kf", wrong, meas, vel, r, q, [0])


def sknn_case():
    rng = np.random.default_rng(RNG_SEED)
    keys = rng.normal(size=(80, 48))
    targets = keys + 0.05 * rng.normal(size=(80, 48))
    store = fusion.NeighborStore(keys, targets, k=12)
    gate = fusion.GateModel(np.full(48, 0.01), 0.05)
    query = rng.normal(size=(10, 48))
    velocity = 0.05 * rng.normal(size=(9, 48))
    out = np.empty_like(query)
    out[0] = query[0]
    for t in range(1, 10):
        out[t] = fusion.sknn_step(store, gate, query[t], velocity[t - 1], out[t - 1])
    return store, gate, query, velocity, out


def test_sknn_brute_force():
    store, gate, query, velocity, out = sknn_case()
    args = (store.keys, store.targets, store.k, gate.sigma2, gate.theta, query, velocity)
    assert checks.check_sknn_frames("sknn", *args, out, range(1, 10)) == []
    assert checks.check_sknn_frames("sknn", *args, perturbed(out, (4, 9)), [4])
    # the ungated mean: the gate must have dropped neighbours for this to differ
    ungated = out.copy()
    ungated[5] = fusion.sknn_step(store, fusion.GateModel(gate.sigma2, 0.0), query[5],
                                  velocity[4], out[4])
    assert checks.check_sknn_frames("sknn", *args, ungated, [5])
    # one neighbour too many
    wrong_k = out.copy()
    wrong_k[6] = fusion.sknn_step(fusion.NeighborStore(store.keys, store.targets, k=13), gate,
                                  query[6], velocity[5], out[5])
    assert checks.check_sknn_frames("sknn", *args, wrong_k, [6])


def test_target_range():
    store, _, _, _, out = sknn_case()
    assert checks.check_within_target_range("sknn", out, store.targets) == []
    wrong = out.copy()
    wrong[3, 2] = store.targets[:, 2].max() + 1e-9
    assert checks.check_within_target_range("sknn", wrong, store.targets)


def test_strictly_falling():
    assert checks.check_strictly_falling("sse", [3.0, 2.0, 1.0]) == []
    assert checks.check_strictly_falling("sse", [3.0, 3.0, 1.0])
    assert checks.check_strictly_falling("sse", [3.0, 2.0, 2.5])
    assert checks.check_strictly_falling("sse", [3.0])


def test_directional_derivative():
    params = tiny_network()
    rng = np.random.default_rng(RNG_SEED)
    batch = drnn.TrainingBatch(rng.normal(size=(4, 3, 48)), rng.normal(size=(4, 3, 48)))
    cfg = params.config

    def objective(vector):
        loss, grads = drnn.loss_and_gradient(drnn.unpack_params(cfg, vector), batch)
        return loss, drnn.pack_params(grads)

    def scaled(vector):
        loss, gradient = objective(vector)
        return loss, 1.01 * gradient

    def output_layer_missing(vector):
        loss, grads = drnn.loss_and_gradient(drnn.unpack_params(cfg, vector), batch)
        grads.out_weight[:] = 0.0
        return loss, drnn.pack_params(grads)

    x0 = drnn.pack_params(params)
    assert checks.check_directional_derivative("grad", objective, x0, 1) == []
    assert checks.check_directional_derivative("grad", scaled, x0, 1)
    assert checks.check_directional_derivative("grad", output_layer_missing, x0, 1)


def test_scores_and_histogram():
    truth = smooth_sequence(50, 6)
    pred = truth.with_data(truth.data + 0.01 * np.random.default_rng(RNG_SEED).normal(
        size=truth.data.shape))
    report = metrics.evaluate(pred, truth)
    assert checks.check_scores("v", report.ape, report.aje, pred.data, truth.data) == []
    assert checks.check_scores("v", report.ape * (1 + 1e-6), report.aje, pred.data, truth.data)
    # AJE from second differences instead of third
    second = float(np.abs(np.diff(pred.data, 2, axis=0) - np.diff(truth.data, 2, axis=0)).mean())
    assert checks.check_scores("v", report.ape, second, pred.data, truth.data)
    # APE as the mean coordinate error instead of the mean joint distance
    coordinate = float(np.abs(pred.data - truth.data).mean())
    assert checks.check_scores("v", coordinate, report.aje, pred.data, truth.data)
    assert checks.check_histogram_sums("v", report.histogram, report.aje) == []
    bands = list(report.histogram)
    bands[0] *= 2.0
    assert checks.check_histogram_sums("v", bands, report.aje)
    assert checks.check_histogram_sums("v", bands[:9], report.aje)


def test_velocities_feed_the_reference():
    # the refined velocity stream the benchmark checks is the network over
    # frame differences
    params = tiny_network()
    seq = smooth_sequence(20, 7)
    want = checks.forward_reference(checks.weights_of(params), np.diff(seq.data, axis=0))
    assert checks.check_close("vdrnn", drnn.refine_velocities(params, seq), want) == []
    assert checks.check_close("vdrnn", drnn.run_stream(params, velocities(seq)[::-1]), want)


if __name__ == "__main__":
    failed = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name} {exc}")
    sys.exit(1 if failed else 0)
