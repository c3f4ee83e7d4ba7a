import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelrefine import drnn
from skelrefine.errors import ConfigurationError, NumericalError
from skelrefine.fusion import (
    _sknn_track,
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
    nearest_indices,
    read_covariances,
    read_gate,
    read_store,
    required_networks,
    run_pipeline,
    sknn_step,
    sknnkf_step,
    write_covariances,
    write_gate,
    write_store,
)
from skelrefine.skeleton import DEFAULT_TREE, POSE_DIM, Encoding, SkeletonSequence, velocities
from skelrefine.synth import (
    Corpus,
    CorruptionConfig,
    MotionConfig,
    SequencePair,
    build_corpus,
)

from conftest import smooth_absolute_sequence


def brute_force_sknn(keys, targets, k, sigma2, theta, query, velocity, prev):
    """Independent reference: full (distance, index) sort plus an explicit
    per-component tail-probability gate on the implied velocity (neighbor
    target minus prev), with the ungated-mean fallback."""
    n = len(keys)
    d2 = [float(np.sum((keys[i] - query) ** 2)) for i in range(n)]
    order = sorted(range(n), key=lambda i: (d2[i], i))[: min(k, n)]
    out = np.empty(POSE_DIM)
    for j in range(POSE_DIM):
        kept = []
        for i in order:
            deviation = abs((targets[i, j] - prev[j]) - velocity[j])
            if math.erfc(deviation / math.sqrt(2.0 * sigma2[j])) > theta:
                kept.append(targets[i, j])
        if not kept:
            kept = [targets[i, j] for i in order]
        out[j] = np.mean(np.asarray(kept))
    return out


class TestGate:
    def test_zero_residuals_floored_with_warning(self):
        with pytest.warns(UserWarning):
            gate = estimate_gate(np.zeros((5, POSE_DIM)))
        assert np.all(gate.sigma2 == 1e-12)

    def test_known_variance_recovered(self):
        rng = np.random.default_rng(42)
        residuals = rng.normal(scale=0.01, size=(10_000, POSE_DIM))
        gate = estimate_gate(residuals)
        assert np.all(np.abs(gate.sigma2 - 1e-4) < 0.1 * 1e-4)

    def test_tail_probability_semantics(self):
        sigma = 0.01
        gate = GateModel(np.full(POSE_DIM, sigma**2), theta=0.05)
        assert bool(gate.passes(np.zeros(POSE_DIM)).all())
        # 3 sigma has two-sided tail probability ~0.0027 < 0.05
        assert not gate.passes(np.full(POSE_DIM, 3 * sigma)).any()
        tail = gate.tail_probability(np.full(POSE_DIM, 3 * sigma))
        assert np.all(np.abs(tail - 0.0027) < 3e-4)

    def test_theta_zero_passes_everything(self):
        gate = GateModel(np.full(POSE_DIM, 1e-6), theta=0.0)
        assert bool(gate.passes(np.full(POSE_DIM, 1e6)).all())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GateModel(np.full(POSE_DIM, 1e-4), theta=1.0)
        with pytest.raises(ValueError):
            GateModel(np.zeros(POSE_DIM), theta=0.05)
        with pytest.raises(ValueError):
            estimate_gate(np.zeros((1, POSE_DIM)))

    def test_mean_pinned_at_zero(self):
        # biased residuals still measured as second moment about zero
        residuals = np.full((100, POSE_DIM), 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gate = estimate_gate(residuals)
        assert np.allclose(gate.sigma2, 4e-4, rtol=1e-12, atol=0)


class TestSknnStep:
    def test_exact_key_with_k1_returns_its_target(self):
        rng = np.random.default_rng(1)
        keys = rng.normal(size=(10, POSE_DIM))
        targets = rng.normal(size=(10, POSE_DIM))
        store = NeighborStore(keys, targets, k=1)
        gate = GateModel(np.full(POSE_DIM, 1e-4), theta=0.0)
        out = sknn_step(store, gate, keys[4], np.zeros(POSE_DIM), np.zeros(POSE_DIM))
        assert np.array_equal(out, targets[4])

    def test_small_store_matches_brute_force(self):
        rng = np.random.default_rng(2)
        keys = rng.normal(size=(5, POSE_DIM))
        targets = rng.normal(size=(5, POSE_DIM))
        store = NeighborStore(keys, targets, k=3)
        gate = GateModel(np.full(POSE_DIM, 10.0), theta=0.05)  # passes everything nearby
        query = rng.normal(size=POSE_DIM)
        velocity = rng.normal(size=POSE_DIM) * 0.01
        prev = rng.normal(size=POSE_DIM)
        out = sknn_step(store, gate, query, velocity, prev)
        expected = brute_force_sknn(keys, targets, 3, np.full(POSE_DIM, 10.0), 0.05,
                                    query, velocity, prev)
        assert np.array_equal(out, expected)

    def test_all_rejected_component_falls_back_to_ungated_mean(self):
        rng = np.random.default_rng(3)
        keys = rng.normal(size=(6, POSE_DIM))
        targets = rng.normal(size=(6, POSE_DIM))
        store = NeighborStore(keys, targets, k=4)
        sigma2 = np.full(POSE_DIM, 1e-4)
        sigma2[7] = 1e-18  # gate rejects every deviation > ~a few nano-meters
        gate = GateModel(sigma2, theta=0.05)
        query = rng.normal(size=POSE_DIM)
        out = sknn_step(store, gate, query, np.zeros(POSE_DIM), rng.normal(size=POSE_DIM))
        idx = nearest_indices(store, query)
        assert out[7] == store.targets[idx][:, 7].mean()

    def test_theta_zero_reduces_to_plain_knn(self):
        rng = np.random.default_rng(4)
        keys = rng.normal(size=(50, POSE_DIM))
        targets = rng.normal(size=(50, POSE_DIM))
        store = NeighborStore(keys, targets, k=7)
        gate = GateModel(np.full(POSE_DIM, 1e-12), theta=0.0)
        query = rng.normal(size=POSE_DIM)
        out = sknn_step(store, gate, query, rng.normal(size=POSE_DIM),
                        rng.normal(size=POSE_DIM))
        idx = nearest_indices(store, query)
        expected = np.array([store.targets[idx][:, j].mean() for j in range(POSE_DIM)])
        assert np.array_equal(out, expected)

    def test_distance_ties_break_to_lower_index(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=POSE_DIM)
        keys = np.stack([base, base + 1.0, base, base + 1.0, base])
        targets = np.arange(5, dtype=float)[:, None] * np.ones(POSE_DIM)
        store = NeighborStore(keys, targets, k=3)
        gate = GateModel(np.full(POSE_DIM, 10.0), theta=0.0)
        idx = nearest_indices(store, base)
        assert list(idx) == [0, 2, 4]
        out = sknn_step(store, gate, base, np.zeros(POSE_DIM), base)
        assert np.array_equal(out, targets[[0, 2, 4]].mean(axis=0))

    def test_output_within_retained_target_bounds(self):
        rng = np.random.default_rng(6)
        keys = rng.normal(size=(40, POSE_DIM))
        targets = rng.normal(size=(40, POSE_DIM))
        store = NeighborStore(keys, targets, k=9)
        gate = GateModel(np.full(POSE_DIM, 0.5), theta=0.05)
        for _ in range(10):
            query = rng.normal(size=POSE_DIM)
            out = sknn_step(store, gate, query, rng.normal(size=POSE_DIM) * 0.1,
                            rng.normal(size=POSE_DIM))
            idx = nearest_indices(store, query)
            lows = store.targets[idx].min(axis=0)
            highs = store.targets[idx].max(axis=0)
            assert np.all(out >= lows - 1e-12)
            assert np.all(out <= highs + 1e-12)

    def test_key_offset_does_not_reject_consistent_neighbors(self):
        # Keys sit a constant 0.04 from their targets, as refined poses sit
        # about one position error from ground truth; prev is a fused output,
        # in target space. The implied velocity is measured target to target,
        # so the offset must not matter.
        rng = np.random.default_rng(15)
        prev = rng.normal(size=POSE_DIM)
        velocity = rng.normal(size=POSE_DIM) * 0.01
        sigma = 1e-3
        consistent = prev + velocity + rng.normal(scale=0.1 * sigma, size=(6, POSE_DIM))
        inconsistent = prev + velocity + np.full((4, POSE_DIM), 0.01)
        targets = np.concatenate([consistent, inconsistent])
        keys = targets + 0.04
        store = NeighborStore(keys, targets, k=10)
        gate = GateModel(np.full(POSE_DIM, sigma**2), theta=0.05)
        out = sknn_step(store, gate, keys.mean(axis=0), velocity, prev)
        assert np.allclose(out, consistent.mean(axis=0), rtol=0, atol=1e-12)
        assert np.all(np.abs(out - targets.mean(axis=0)) > 1e-3)

    def test_sknnkf_step_is_shared_implementation(self):
        assert sknnkf_step is sknn_step


def brute_force_nearest(keys, query, k):
    """Independent reference: full (distance, index) sort."""
    d2 = [float(np.sum((keys[i] - query) ** 2)) for i in range(len(keys))]
    return sorted(range(len(keys)), key=lambda i: (d2[i], i))[:k]


@st.composite
def knn_cases(draw):
    """A store, k and query; keys may share a large offset, repeat exactly,
    and tie at the k-th neighbor."""
    n = draw(st.integers(1, 300))
    k = draw(st.integers(1, n + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1.0, 1e2, 1e4]))
    spread = draw(st.sampled_from([1e-3, 1e-1, 1.0]))
    pool = offset + spread * rng.normal(size=(draw(st.integers(1, n)), POSE_DIM))
    keys = pool[rng.integers(0, len(pool), size=n)]
    if draw(st.booleans()):
        query = keys[int(rng.integers(0, n))].copy()
    else:
        query = offset + spread * rng.normal(size=POSE_DIM)
    order = brute_force_nearest(keys, query, n)
    if k < n and draw(st.booleans()):
        # copies of the k-th nearest key among the keys ranked after it make
        # a tie that straddles the boundary
        outside = order[k:]
        copies = rng.choice(outside, size=min(len(outside), draw(st.integers(1, 4))),
                            replace=False)
        keys[copies] = keys[order[k - 1]]
    return keys, k, query


class TestNearestIndices:
    @given(knn_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sort_reference(self, case):
        keys, k, query = case
        store = NeighborStore(keys, np.zeros_like(keys), k=k)
        assert list(nearest_indices(store, query)) == brute_force_nearest(keys, query, k)

    def test_store_rejects_non_finite_keys_and_targets(self):
        finite = np.zeros((3, POSE_DIM))
        for bad_value in (np.nan, np.inf):
            bad = finite.copy()
            bad[1, 2] = bad_value
            with pytest.raises(ValueError):
                NeighborStore(bad, finite)
            with pytest.raises(ValueError):
                NeighborStore(finite, bad)

    def test_non_finite_query_is_numerical_error(self):
        rng = np.random.default_rng(16)
        store = NeighborStore(rng.normal(size=(8, POSE_DIM)), rng.normal(size=(8, POSE_DIM)),
                              k=3)
        query = rng.normal(size=POSE_DIM)
        query[4] = np.nan
        with pytest.raises(NumericalError):
            nearest_indices(store, query)

    def test_track_matches_brute_force_loop(self):
        rng = np.random.default_rng(17)
        keys = rng.normal(size=(120, POSE_DIM))
        keys[60] = keys[10]  # a distance tie
        targets = rng.normal(scale=0.1, size=(120, POSE_DIM))
        k, theta = 30, 0.05
        sigma2 = np.full(POSE_DIM, 1e6)  # keeps every neighbor
        sigma2[5] = 1e-18  # rejects every neighbor: the fallback
        sigma2[11] = 0.01  # rejects some neighbors
        store = NeighborStore(keys, targets, k=k)
        gate = GateModel(sigma2, theta)
        query = rng.normal(size=(40, POSE_DIM))
        query[7] = keys[10]
        velocity = rng.normal(scale=0.01, size=(39, POSE_DIM))

        out = _sknn_track(query, velocity, store, gate)

        expected = np.empty_like(query)
        expected[0] = query[0]
        kept_11 = []
        for t in range(1, 40):
            expected[t] = brute_force_sknn(keys, targets, k, sigma2, theta, query[t],
                                           velocity[t - 1], expected[t - 1])
            near = brute_force_nearest(keys, query[t], k)
            deviation = np.abs((targets[near, 11] - expected[t - 1, 11]) - velocity[t - 1, 11])
            kept_11.append(sum(math.erfc(d / math.sqrt(2.0 * sigma2[11])) > theta
                               for d in deviation))
        assert any(0 < kept < k for kept in kept_11)
        assert np.array_equal(out, expected)


class TestKalman:
    def test_huge_measurement_noise_tracks_prediction(self):
        state = KalmanState(
            x=np.zeros(POSE_DIM), P=np.ones(POSE_DIM), Q=np.ones(POSE_DIM),
            R=np.full(POSE_DIM, 1e12),
        )
        velocity = np.full(POSE_DIM, 0.3)
        measurement = np.full(POSE_DIM, 123.0)
        _, fused = kalman_step(state, velocity, measurement)
        assert np.max(np.abs(fused - 0.3)) < 1e-6

    def test_zero_process_noise_and_p0_integrates_velocities(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=POSE_DIM)
        state = KalmanState(x=x0, P=np.zeros(POSE_DIM), Q=np.zeros(POSE_DIM),
                            R=np.ones(POSE_DIM))
        vels = rng.normal(size=(5, POSE_DIM))
        expected = x0.copy()
        for t in range(5):
            state, fused = kalman_step(state, vels[t], rng.normal(size=POSE_DIM))
            expected = expected + vels[t]
            assert np.array_equal(fused, expected)

    def test_five_step_scalar_recursion_matches_rational_arithmetic(self):
        # independent oracle: the same recursion in exact Fraction arithmetic
        measurements = [1.0, -0.5, 2.0, 0.25, -1.5]
        vels = [0.5, -1.0, 0.75, 0.3, -0.2]
        x = Fraction(0)
        p = Fraction(1)
        q = Fraction(1)
        r = Fraction(1)
        expected = []
        for z, v in zip(measurements, vels):
            x_pred = x + Fraction(v)
            p_pred = p + q
            gain = p_pred / (p_pred + r)
            x = x_pred + gain * (Fraction(z) - x_pred)
            p = (1 - gain) * p_pred
            expected.append((x, p))

        state = KalmanState(x=np.zeros(POSE_DIM), P=np.ones(POSE_DIM),
                            Q=np.ones(POSE_DIM), R=np.ones(POSE_DIM))
        for (z, v), (x_exact, p_exact) in zip(zip(measurements, vels), expected):
            state, fused = kalman_step(
                state, np.full(POSE_DIM, v), np.full(POSE_DIM, z)
            )
            assert abs(fused[0] - float(x_exact)) < 1e-12
            assert abs(state.P[0] - float(p_exact)) < 1e-12

    def test_gain_in_unit_interval_and_variance_contracts(self):
        rng = np.random.default_rng(8)
        state = KalmanState(
            x=rng.normal(size=POSE_DIM),
            P=rng.uniform(0.1, 2.0, POSE_DIM),
            Q=rng.uniform(0.0, 1.0, POSE_DIM),
            R=rng.uniform(0.1, 1.0, POSE_DIM),
        )
        for _ in range(10):
            p_pred = state.P + state.Q
            gain = p_pred / (p_pred + state.R)
            assert np.all(gain >= 0.0) and np.all(gain <= 1.0)
            new_state, _ = kalman_step(
                state, rng.normal(size=POSE_DIM), rng.normal(size=POSE_DIM)
            )
            assert np.all(new_state.P <= p_pred + 1e-15)
            state = new_state

    def test_degenerate_gain_rejected(self):
        state = KalmanState(x=np.zeros(POSE_DIM), P=np.zeros(POSE_DIM),
                            Q=np.zeros(POSE_DIM), R=np.zeros(POSE_DIM))
        with pytest.raises(NumericalError):
            kalman_step(state, np.zeros(POSE_DIM), np.zeros(POSE_DIM))

    def test_negative_covariance_rejected(self):
        with pytest.raises(ValueError):
            KalmanState(x=np.zeros(POSE_DIM), P=np.full(POSE_DIM, -1.0),
                        Q=np.zeros(POSE_DIM), R=np.ones(POSE_DIM))

    def test_stream_equals_kalman_step_loop(self):
        rng = np.random.default_rng(18)
        meas = rng.normal(size=(60, POSE_DIM))
        vel = rng.normal(scale=0.1, size=(59, POSE_DIM))
        r = rng.uniform(1e-4, 1e-1, POSE_DIM)
        q = rng.uniform(1e-5, 1e-2, POSE_DIM)
        r[3] = 0.0
        q[4] = 0.0
        out = kalman_filter_stream(meas, vel, r, q)
        state = KalmanState(x=meas[0], P=r, Q=q, R=r)
        expected = [meas[0]]
        for t in range(1, 60):
            state, fused = kalman_step(state, vel[t - 1], meas[t])
            expected.append(fused)
        assert np.array_equal(out, np.stack(expected))

    def test_stream_degenerate_gain_rejected(self):
        noise = np.ones(POSE_DIM)
        noise[9] = 0.0
        with pytest.raises(NumericalError):
            kalman_filter_stream(np.zeros((3, POSE_DIM)), np.zeros((2, POSE_DIM)), noise, noise)

    def test_control_equal_to_measurement_difference_is_identity(self):
        # feeding a filter its own measurement increments reproduces the
        # measurements regardless of the gain trajectory
        rng = np.random.default_rng(9)
        seq = smooth_absolute_sequence(rng, 100)
        out = kalman_filter_stream(
            seq.data, np.diff(seq.data, axis=0),
            measurement_noise=np.full(POSE_DIM, 0.3), process_noise=np.zeros(POSE_DIM),
        )
        assert np.max(np.abs(out - seq.data)) < 1e-12


class TestNoiseCovariances:
    def test_zero_residuals_floored(self):
        r, q = estimate_noise_covariances(np.zeros((5, POSE_DIM)), np.zeros((5, POSE_DIM)))
        assert np.all(r == 1e-12)
        assert np.all(q == 1e-12)

    def test_known_variances_recovered(self):
        rng = np.random.default_rng(10)
        pos = rng.normal(scale=0.02, size=(10_000, POSE_DIM))
        vel = rng.normal(scale=0.005, size=(10_000, POSE_DIM))
        r, q = estimate_noise_covariances(pos, vel)
        assert np.all(np.abs(r - 4e-4) < 0.1 * 4e-4)
        assert np.all(np.abs(q - 2.5e-5) < 0.1 * 2.5e-5)

    def test_diagonal_shapes(self):
        rng = np.random.default_rng(11)
        r, q = estimate_noise_covariances(
            rng.normal(size=(10, POSE_DIM)), rng.normal(size=(10, POSE_DIM))
        )
        assert r.shape == (POSE_DIM,)
        assert q.shape == (POSE_DIM,)


def tiny_trained_models(variants=("sknn", "kf", "sknnkf"), n_frames=260, iters=12):
    """Small corpus plus briefly trained networks, enough to exercise wiring."""
    motion = MotionConfig(n_frames=n_frames, seed=5, motion_bandwidth_hz=0.8)
    corruption = CorruptionConfig(jitter_sigma=0.01, occlusion_rate=0.02, seed=6)
    corpus = build_corpus(motion, corruption, (0.6, 0.2, 0.2))
    tree = DEFAULT_TREE
    from skelrefine.optim import OptimizerSpec
    from skelrefine.skeleton import sequence_to_relative

    spec = OptimizerSpec(max_iterations=iters)
    pcfg = drnn.DrnnConfig(hidden_sizes=(16, 16), recurrent_layer_index=2,
                           window_length=7, seed=1)
    ptb = drnn.batch_from_streams(
        sequence_to_relative(corpus.train.corrupted, tree).data,
        sequence_to_relative(corpus.train.clean, tree).data, 7)
    pvb = drnn.batch_from_streams(
        sequence_to_relative(corpus.validation.corrupted, tree).data,
        sequence_to_relative(corpus.validation.clean, tree).data, 7)
    pdrnn = drnn.train(pcfg, ptb, pvb, spec).params

    vcfg = drnn.DrnnConfig(hidden_sizes=(12, 12), recurrent_layer_index=1,
                           window_length=10, seed=2)
    refined_train = drnn.refine_positions(pdrnn, corpus.train.corrupted, tree)
    refined_val = drnn.refine_positions(pdrnn, corpus.validation.corrupted, tree)
    vtb = drnn.batch_from_streams(velocities(refined_train), velocities(corpus.train.clean), 10)
    vvb = drnn.batch_from_streams(velocities(refined_val), velocities(corpus.validation.clean), 10)
    vdrnn = drnn.train(vcfg, vtb, vvb, spec).params
    vdrnn_plus = drnn.train(
        drnn.DrnnConfig(hidden_sizes=(12, 12), recurrent_layer_index=1,
                        window_length=10, seed=3),
        vtb, vvb, spec,
    ).params

    models = fit_fusion_models(
        corpus, tree, pdrnn=pdrnn, vdrnn=vdrnn, vdrnn_plus=vdrnn_plus,
        k=25, variants=variants,
    )
    return corpus, models


@pytest.fixture(scope="module")
def pipeline_setup():
    return tiny_trained_models(variants=PIPELINE_VARIANTS)


class TestPipeline:
    def test_raw_variant_is_identity(self, pipeline_setup):
        corpus, models = pipeline_setup
        out = run_pipeline("raw", corpus.test.corrupted, models)
        assert np.array_equal(out.data, corpus.test.corrupted.data)

    def test_unknown_variant_rejected(self, pipeline_setup):
        corpus, models = pipeline_setup
        with pytest.raises(ConfigurationError):
            run_pipeline("magic", corpus.test.corrupted, models)

    def test_missing_models_named(self, pipeline_setup):
        _, trained = pipeline_setup
        seq = SkeletonSequence(np.zeros((5, POSE_DIM)), Encoding.ABSOLUTE)
        with pytest.raises(ConfigurationError, match="pdrnn"):
            run_pipeline("pdrnn", seq, FusionModels(tree=DEFAULT_TREE))
        nets_only = FusionModels(tree=DEFAULT_TREE, pdrnn=trained.pdrnn, vdrnn=trained.vdrnn)
        with pytest.raises(ConfigurationError, match="store"):
            run_pipeline("sknn", seq, nets_only)

    def test_all_variants_run_and_preserve_length(self, pipeline_setup):
        corpus, models = pipeline_setup
        seq = corpus.test.corrupted
        for variant in PIPELINE_VARIANTS:
            out = run_pipeline(variant, seq, models)
            assert len(out) == len(seq)
            assert out.encoding is Encoding.ABSOLUTE

    def test_pipeline_deterministic(self, pipeline_setup):
        corpus, models = pipeline_setup
        seq = corpus.test.corrupted
        for variant in ("sknn", "kf", "sknnkf"):
            a = run_pipeline(variant, seq, models)
            b = run_pipeline(variant, seq, models)
            assert np.array_equal(a.data, b.data)

    def test_sknnkf_equals_manual_composition(self, pipeline_setup):
        corpus, models = pipeline_setup
        seq = corpus.test.corrupted
        out = run_pipeline("sknnkf", seq, models)

        refined = drnn.refine_positions(models.pdrnn, seq, models.tree)
        refined_vel = drnn.refine_velocities(models.vdrnn, refined)
        states = kalman_filter_stream(refined.data, refined_vel,
                                      models.kalman_r, models.kalman_q)
        state_vel = drnn.run_stream(models.vdrnn_plus, np.diff(states, axis=0))
        expected = np.empty_like(states)
        expected[0] = states[0]
        for t in range(1, states.shape[0]):
            expected[t] = sknnkf_step(models.store_plus, models.gate_plus,
                                      states[t], state_vel[t - 1], expected[t - 1])
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_sknn_uses_previous_fused_output_but_naive_uses_refined(self, pipeline_setup):
        corpus, models = pipeline_setup
        seq = corpus.test.corrupted
        fused = run_pipeline("sknn", seq, models)
        naive = run_pipeline("naive_sknn", seq, models)
        refined = drnn.refine_positions(models.pdrnn, seq, models.tree)
        refined_vel = drnn.refine_velocities(models.vdrnn, refined)
        expected_naive_t1 = sknn_step(models.store, models.gate, refined.data[1],
                                      refined_vel[0], refined.data[0])
        assert np.array_equal(naive.data[1], expected_naive_t1)
        # frame 0 passes through identically for both
        assert np.array_equal(fused.data[0], refined.data[0])
        assert np.array_equal(naive.data[0], refined.data[0])

    def test_required_networks_map(self):
        assert required_networks("raw") == ()
        assert required_networks("sknn") == ("pdrnn", "vdrnn")
        assert required_networks("sknn_minus_vdrnn") == ("pdrnn",)
        assert required_networks("sknn_minus_pdrnn") == ("vdrnn",)
        assert required_networks("kf_minus_pdrnn") == ("vdrnn",)
        assert required_networks("sknnkf") == ("pdrnn", "vdrnn", "vdrnn_plus")
        with pytest.raises(ConfigurationError):
            required_networks("nope")

    def test_fit_rejects_missing_networks(self, pipeline_setup):
        corpus, _ = pipeline_setup
        with pytest.raises(ConfigurationError, match="pdrnn"):
            fit_fusion_models(corpus, DEFAULT_TREE, variants=("sknn",))


class TestSerialization:
    def test_gate_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        gate = GateModel(rng.uniform(1e-6, 1e-3, POSE_DIM), theta=0.05)
        write_gate(tmp_path / "gate.json", gate)
        back = read_gate(tmp_path / "gate.json")
        assert np.array_equal(back.sigma2, gate.sigma2)
        assert back.theta == gate.theta

    def test_covariances_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        r = rng.uniform(1e-6, 1e-3, POSE_DIM)
        q = rng.uniform(1e-6, 1e-3, POSE_DIM)
        write_covariances(tmp_path / "cov.json", r, q)
        r2, q2 = read_covariances(tmp_path / "cov.json")
        assert np.array_equal(r, r2)
        assert np.array_equal(q, q2)

    def test_store_round_trip_as_paired_sequence_files(self, tmp_path):
        rng = np.random.default_rng(14)
        store = NeighborStore(rng.normal(size=(20, POSE_DIM)),
                              rng.normal(size=(20, POSE_DIM)), k=5)
        write_store(tmp_path / "keys.jsonl", tmp_path / "targets.jsonl", store)
        back = read_store(tmp_path / "keys.jsonl", tmp_path / "targets.jsonl", k=5)
        assert np.array_equal(back.keys, store.keys)
        assert np.array_equal(back.targets, store.targets)
