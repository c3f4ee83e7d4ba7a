"""Acceptance suite: one criterion per test, one PASS/FAIL line printed each.

The end-to-end ordering criterion trains the full pipeline on the pinned
synthetic corpus (5000/800/1500 frames, jitter sigma 0.01 m, occlusion rate
0.02) and therefore dominates the suite's runtime; run with `-s` to watch
progress lines.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import skelrefine as sr
from skelrefine import cli, drnn, fusion, metrics, seqio, synth
from skelrefine.drnn import loss_and_gradient, pack_params, unpack_params
from skelrefine.skeleton import DEFAULT_TREE, POSE_DIM, Encoding, SkeletonSequence

from conftest import smooth_absolute_sequence
from test_drnn import min_relu_kink_distance
from test_fusion import brute_force_sknn


def check(criterion, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert condition, line


# --- C1: gradient correctness ------------------------------------------------

def test_c1_gradient_matches_finite_differences():
    started = time.monotonic()
    rng = np.random.default_rng(20250809)
    checked = 0
    worst = 0.0
    while checked < 20:
        n_layers = int(rng.integers(1, 4))
        config = sr.DrnnConfig(
            input_dim=int(rng.integers(1, 9)),
            output_dim=int(rng.integers(1, 9)),
            hidden_sizes=tuple(int(h) for h in rng.integers(2, 9, size=n_layers)),
            recurrent_layer_index=int(rng.integers(1, n_layers + 1)),
            window_length=int(rng.integers(2, 6)),
            seed=int(rng.integers(0, 10**6)),
        )
        params = sr.init_params(config)
        # keep pre-activations off the ReLU kink so central differences
        # remain valid at step 1e-6
        for i in range(len(params.biases)):
            params.biases[i] = rng.uniform(0.05, 0.3, size=params.biases[i].shape)
        params.out_bias = rng.uniform(-0.2, 0.2, size=params.out_bias.shape)
        n_windows = int(rng.integers(1, 4))
        batch = sr.TrainingBatch(
            rng.normal(size=(n_windows, config.window_length, config.input_dim)),
            rng.normal(size=(n_windows, config.window_length, config.output_dim)),
        )
        if min_relu_kink_distance(params, batch) < 1e-3:
            continue
        _, grads = loss_and_gradient(params, batch)
        analytic = pack_params(grads)
        x0 = pack_params(params)
        eps = 1e-6
        fd = np.empty_like(x0)
        for i in range(len(x0)):
            xp = x0.copy()
            xp[i] += eps
            xm = x0.copy()
            xm[i] -= eps
            fp, _ = loss_and_gradient(unpack_params(config, xp), batch)
            fm, _ = loss_and_gradient(unpack_params(config, xm), batch)
            fd[i] = (fp - fm) / (2.0 * eps)
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(rel.max()))
        checked += 1
    elapsed = time.monotonic() - started
    check(
        "C1 gradient-vs-finite-differences",
        worst < 1e-5 and elapsed < 10.0,
        f"{checked} instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# --- C2: Kalman oracle --------------------------------------------------------

def test_c2_kalman_scalar_oracle_and_limits():
    measurements = [1.0, -0.5, 2.0, 0.25, -1.5]
    controls = [0.5, -1.0, 0.75, 0.3, -0.2]
    x, p, q, r = Fraction(0), Fraction(1), Fraction(1), Fraction(1)
    table = []
    for z, v in zip(measurements, controls):
        x_pred = x + Fraction(v)
        p_pred = p + q
        gain = p_pred / (p_pred + r)
        x = x_pred + gain * (Fraction(z) - x_pred)
        p = (1 - gain) * p_pred
        table.append((float(x), float(p)))

    state = sr.KalmanState(x=np.zeros(POSE_DIM), P=np.ones(POSE_DIM),
                           Q=np.ones(POSE_DIM), R=np.ones(POSE_DIM))
    worst = 0.0
    for (z, v), (x_exact, p_exact) in zip(zip(measurements, controls), table):
        state, fused = sr.kalman_step(state, np.full(POSE_DIM, v), np.full(POSE_DIM, z))
        worst = max(worst, abs(fused[0] - x_exact), abs(state.P[0] - p_exact))
    table_ok = worst < 1e-12

    big_r = sr.KalmanState(x=np.zeros(POSE_DIM), P=np.ones(POSE_DIM),
                           Q=np.ones(POSE_DIM), R=np.full(POSE_DIM, 1e12))
    _, fused = sr.kalman_step(big_r, np.full(POSE_DIM, 0.3), np.full(POSE_DIM, 50.0))
    prediction_ok = float(np.max(np.abs(fused - 0.3))) < 1e-6

    rng = np.random.default_rng(1)
    x0 = rng.normal(size=POSE_DIM)
    pure = sr.KalmanState(x=x0, P=np.zeros(POSE_DIM), Q=np.zeros(POSE_DIM),
                          R=np.ones(POSE_DIM))
    running = x0.copy()
    integration_err = 0.0
    for _ in range(5):
        v = rng.normal(size=POSE_DIM)
        pure, fused = sr.kalman_step(pure, v, rng.normal(size=POSE_DIM))
        running = running + v
        integration_err = max(integration_err, float(np.max(np.abs(fused - running))))
    integration_ok = integration_err < 1e-6

    check(
        "C2 kalman-scalar-oracle",
        table_ok and prediction_ok and integration_ok,
        f"table err {worst:.1e}, limits ok={prediction_ok and integration_ok}",
    )


# --- C3: velocity-from-measurements degeneracy --------------------------------

def test_c3_kalman_identity_degeneracy():
    rng = np.random.default_rng(2)
    seq = smooth_absolute_sequence(rng, 100)
    out = sr.kalman_filter_stream(
        seq.data,
        np.diff(seq.data, axis=0),
        measurement_noise=np.full(POSE_DIM, 0.25),
        process_noise=np.zeros(POSE_DIM),
    )
    deviation = float(np.max(np.abs(out - seq.data)))
    check("C3 kalman-raw-velocity-degeneracy", deviation < 1e-12,
          f"max deviation {deviation:.2e} over 100 frames")


# --- C4: soft-KNN against brute force ------------------------------------------

def test_c4_sknn_matches_brute_force_exactly():
    rng = np.random.default_rng(3)
    keys = rng.normal(size=(1000, POSE_DIM))
    keys[500] = keys[0]  # exact duplicates force distance ties
    keys[750] = keys[250]
    targets = rng.normal(size=(1000, POSE_DIM))
    sigma2 = rng.uniform(1e-4, 1e-2, POSE_DIM)
    sigma2[5] = 1e-18  # all neighbors rejected: exercises the fallback
    sigma2[29] = 1e-18
    store = sr.NeighborStore(keys, targets, k=300)
    gate = sr.GateModel(sigma2, theta=0.05)

    mismatches = 0
    for case in range(100):
        if case % 10 == 0:
            query = keys[int(rng.integers(0, 1000))].copy()  # tie-heavy queries
        else:
            query = rng.normal(size=POSE_DIM)
        velocity = rng.normal(size=POSE_DIM) * 0.05
        prev = rng.normal(size=POSE_DIM)
        fast = sr.sknn_step(store, gate, query, velocity, prev)
        reference = brute_force_sknn(keys, targets, 300, sigma2, 0.05, query,
                                     velocity, prev)
        if not np.array_equal(fast, reference):
            mismatches += 1
    check("C4 sknn-brute-force-oracle", mismatches == 0,
          f"{mismatches} mismatches in 100 queries (ties and fallback included)")


# --- C5: metric identities -----------------------------------------------------

def test_c5_metric_identities():
    rng = np.random.default_rng(4)
    seq = smooth_absolute_sequence(rng, 50)
    self_aje = metrics.aje(seq, seq)

    offset_pred = SkeletonSequence(seq.data + 0.17, Encoding.ABSOLUTE, seq.frame_rate_hz)
    offset_je = float(np.max(metrics.jerk_error(offset_pred, seq)))

    t = np.arange(50, dtype=float)
    coeffs = rng.uniform(-0.01, 0.01, (3, POSE_DIM))
    quadratic = coeffs[0] * t[:, None] ** 2 + coeffs[1] * t[:, None] + coeffs[2]
    quad_jerk = float(np.max(np.abs(metrics.jerk(
        SkeletonSequence(quadratic, Encoding.ABSOLUTE)
    ))))

    pred = smooth_absolute_sequence(np.random.default_rng(5), 60)
    truth = smooth_absolute_sequence(np.random.default_rng(6), 60)
    partition_gap = abs(metrics.aje_histogram(pred, truth).sum() - metrics.aje(pred, truth))

    check(
        "C5 metric-identities",
        self_aje == 0.0 and offset_je < 1e-12 and quad_jerk < 1e-12
        and partition_gap < 1e-12,
        f"self AJE {self_aje}, offset JE {offset_je:.1e}, quad jerk {quad_jerk:.1e}, "
        f"bin partition gap {partition_gap:.1e}",
    )


# --- C6: round trips -------------------------------------------------------------

def test_c6_round_trips():
    rng = np.random.default_rng(7)
    worst_pose = 0.0
    for _ in range(50):
        coords = rng.normal(scale=0.7, size=POSE_DIM)
        pose = sr.SkeletonPose(coords, Encoding.ABSOLUTE)
        back = sr.to_absolute(sr.to_relative(pose, DEFAULT_TREE), DEFAULT_TREE)
        worst_pose = max(worst_pose, float(np.max(np.abs(back.coords - coords))))

    src = rng.normal(size=(30, 3))
    angle = 0.83
    rotation = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    translation = np.array([0.4, -1.2, 2.5])
    xf = sr.rigid_align(src, src @ rotation.T + translation)
    align_err = max(
        float(np.max(np.abs(xf.rotation - rotation))),
        float(np.max(np.abs(xf.translation - translation))),
    )
    check(
        "C6 round-trips",
        worst_pose < 1e-12 and align_err < 1e-9,
        f"pose round-trip {worst_pose:.1e}, rigid recovery {align_err:.1e}",
    )


# --- C7: end-to-end ordering on the pinned synthetic corpus ---------------------

ACCEPTANCE_MOTION = synth.MotionConfig(
    n_frames=7300,
    frame_rate_hz=30.0,
    motion_bandwidth_hz=0.8,
    seed=20240817,
    angle_amplitude_rad=0.35,
    root_amplitude_m=0.15,
)
ACCEPTANCE_CORRUPTION = synth.CorruptionConfig(
    jitter_sigma=0.01,  # pinned by the criterion
    occlusion_rate=0.02,  # pinned by the criterion
    occlusion_duration_frames=(4, 12),
    displacement_sigma=0.2,
    seed=7,
)
PDRNN_CONFIG = sr.DrnnConfig(hidden_sizes=(64, 64, 64), recurrent_layer_index=2,
                             window_length=7, seed=1)
VDRNN_CONFIG = sr.DrnnConfig(hidden_sizes=(48, 48, 48), recurrent_layer_index=2,
                             window_length=20, seed=2)
VDRNN_PLUS_CONFIG = sr.DrnnConfig(hidden_sizes=(48, 48, 48), recurrent_layer_index=2,
                                  window_length=20, seed=3)
PDRNN_ITERATIONS = 500
VELOCITY_ITERATIONS = 80
ACCEPTANCE_KNN_K = 1000


@pytest.fixture(scope="module")
def trained_pipeline():
    started = time.monotonic()
    tree = DEFAULT_TREE
    corpus = synth.build_corpus(ACCEPTANCE_MOTION, ACCEPTANCE_CORRUPTION)
    assert (len(corpus.train.clean), len(corpus.validation.clean),
            len(corpus.test.clean)) == (5000, 800, 1500)

    def train(network, config, iterations, models):
        batches = [drnn.batch_from_streams(*fusion.training_streams(network, pair, models),
                                           config.window_length)
                   for pair in (corpus.train, corpus.validation)]
        return drnn.train(config, *batches, sr.OptimizerSpec(max_iterations=iterations)).params

    print("\n[C7] training position network ...")
    pdrnn = train("pdrnn", PDRNN_CONFIG, PDRNN_ITERATIONS, fusion.FusionModels(tree=tree))
    print("[C7] training velocity network ...")
    vdrnn = train("vdrnn", VDRNN_CONFIG, VELOCITY_ITERATIONS,
                  fusion.FusionModels(tree=tree, pdrnn=pdrnn))
    print("[C7] training state-velocity network ...")
    vdrnn_plus = train("vdrnn_plus", VDRNN_PLUS_CONFIG, VELOCITY_ITERATIONS,
                       fusion.fit_fusion_models(corpus, tree, pdrnn=pdrnn, vdrnn=vdrnn,
                                                variants=("kf",)))

    models = fusion.fit_fusion_models(
        corpus, tree, pdrnn=pdrnn, vdrnn=vdrnn, vdrnn_plus=vdrnn_plus,
        k=ACCEPTANCE_KNN_K, variants=("sknn", "kf", "sknnkf"),
    )
    scores = {}
    scores["raw"] = (
        metrics.ape(corpus.test.corrupted, corpus.test.clean),
        metrics.aje(corpus.test.corrupted, corpus.test.clean),
    )
    for variant in ("pdrnn", "sknn", "kf", "sknnkf"):
        refined = fusion.run_pipeline(variant, corpus.test.corrupted, models)
        scores[variant] = (
            metrics.ape(refined, corpus.test.clean),
            metrics.aje(refined, corpus.test.clean),
        )
    elapsed = time.monotonic() - started
    for name, (a, j) in scores.items():
        print(f"[C7] {name:7s} APE {a:.5f}  AJE {j:.5f}")
    print(f"[C7] pipeline wall time {elapsed:.0f}s")
    return scores, elapsed


@pytest.mark.slow
def test_c7_end_to_end_ordering(trained_pipeline):
    scores, elapsed = trained_pipeline
    margin = 0.9  # every inequality strict by at least 10 percent
    ape_ok = scores["pdrnn"][0] < margin * scores["raw"][0]
    aje_pdrnn_ok = scores["pdrnn"][1] < margin * scores["raw"][1]
    fusion_ok = all(
        scores[v][1] < margin * scores["pdrnn"][1] for v in ("sknn", "kf", "sknnkf")
    )
    runtime_ok = elapsed < 30 * 60
    check(
        "C7 end-to-end-ordering",
        ape_ok and aje_pdrnn_ok and fusion_ok and runtime_ok,
        f"APE pdrnn/raw {scores['pdrnn'][0] / scores['raw'][0]:.2f}, "
        f"AJE pdrnn/raw {scores['pdrnn'][1] / scores['raw'][1]:.2f}, "
        "AJE fusion/pdrnn "
        + ", ".join(
            f"{v} {scores[v][1] / scores['pdrnn'][1]:.2f}" for v in ("sknn", "kf", "sknnkf")
        )
        + f", {elapsed:.0f}s",
    )


# --- C8: determinism through the command line ------------------------------------

DETERMINISM_CONFIG = {
    "paths": {"corpus": "corpus", "models": "models", "outputs": "out"},
    "corpus": {
        "total_frames": 400,
        "split_ratios": [0.5, 0.25, 0.25],
        "frame_rate_hz": 30.0,
        "motion_bandwidth_hz": 0.8,
        "seed": 21,
        "corruption": {
            "jitter_sigma": 0.01,
            "occlusion_rate": 0.02,
            "occlusion_duration_frames": [3, 8],
            "displacement_sigma": 0.1,
            "seed": 22,
        },
    },
    "pdrnn": {"hidden_sizes": [16, 16], "recurrent_layer_index": 2,
              "window_length": 7, "seed": 1, "max_iterations": 20},
    "vdrnn": {"hidden_sizes": [12, 12], "recurrent_layer_index": 1,
              "window_length": 10, "seed": 2, "max_iterations": 12},
    "vdrnn_plus": {"hidden_sizes": [12, 12], "recurrent_layer_index": 1,
                   "window_length": 10, "seed": 3, "max_iterations": 12},
    "optimizer": {"max_iterations": 20},
    "fusion": {"k": 40, "theta": 0.05, "theta_plus": 0.05},
    "variants": ["raw", "pdrnn", "sknn", "kf", "sknnkf"],
}


def _run_cli_pipeline(root):
    root.mkdir(parents=True, exist_ok=True)
    config_path = root / "config.json"
    config_path.write_text(json.dumps(DETERMINISM_CONFIG))
    assert cli.main(["synth", "--config", str(config_path)]) == 0
    for which in ("pdrnn", "vdrnn", "vdrnn_plus"):
        assert cli.main(["train", "--config", str(config_path), "--which", which]) == 0
    source = root / "corpus" / "test.corrupted.jsonl"
    truth = root / "corpus" / "test.clean.jsonl"
    artifacts = {}
    for variant in ("pdrnn", "sknn", "kf", "sknnkf"):
        refined = root / "out" / f"{variant}.jsonl"
        hist = root / "out" / f"{variant}_hist.csv"
        assert cli.main([
            "refine", "--config", str(config_path), "--variant", variant,
            "--input", str(source), "--out", str(refined),
        ]) == 0
        assert cli.main([
            "eval", "--pred", str(refined), "--truth", str(truth), "--out", str(hist),
        ]) == 0
        artifacts[f"{variant}.jsonl"] = refined.read_bytes()
        artifacts[f"{variant}_hist.csv"] = hist.read_bytes()
    for name in ("train.corrupted.jsonl", "test.clean.jsonl"):
        artifacts[name] = (root / "corpus" / name).read_bytes()
    for which in ("pdrnn", "vdrnn", "vdrnn_plus"):
        artifacts[f"{which}.checkpoint"] = (root / "models" / f"{which}.json").read_bytes()
        artifacts[f"{which}.loss"] = (root / "models" / f"{which}_loss.csv").read_bytes()
    return artifacts


@pytest.mark.slow
def test_c8_pipeline_is_byte_deterministic(tmp_path, capsys):
    first = _run_cli_pipeline(tmp_path / "run1")
    second = _run_cli_pipeline(tmp_path / "run2")
    capsys.readouterr()
    differing = [name for name in first if first[name] != second[name]]
    check(
        "C8 byte-determinism",
        set(first) == set(second) and not differing,
        f"{len(first)} artifacts compared" + (f", differing: {differing}" if differing else ""),
    )
