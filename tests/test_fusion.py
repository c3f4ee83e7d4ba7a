import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelrefine import drnn, skeleton
from skelrefine.errors import (
    ConfigurationError,
    EncodingError,
    InsufficientFramesError,
    NumericalError,
)
from skelrefine.fusion import (
    _sknn_track,
    FusionModels,
    GateModel,
    KalmanState,
    NETWORKS,
    NeighborStore,
    PIPELINE_VARIANTS,
    estimate_gate,
    estimate_noise_covariances,
    fit_fusion_models,
    kalman_filter_stream,
    kalman_step,
    nearest_indices,
    required_models,
    required_networks,
    run_pipeline,
    sknn_step,
    training_models,
    training_streams,
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

    def test_inputs_and_store_left_unchanged(self):
        rng = np.random.default_rng(19)
        store = NeighborStore(rng.normal(size=(30, POSE_DIM)), rng.normal(size=(30, POSE_DIM)),
                              k=8)
        sigma2 = np.full(POSE_DIM, 1e6)
        sigma2[:16] = 1e-18
        sigma2[16:32] = 0.5
        gate = GateModel(sigma2, theta=0.05)
        query, velocity, prev = (rng.normal(size=POSE_DIM) for _ in range(3))
        arrays = {"query": query, "velocity": velocity, "prev": prev, "keys": store.keys,
                  "targets": store.targets, "key_norms2": store._key_norms2,
                  "targets_t": store._targets_t, "sigma2": gate.sigma2}
        before = {name: arr.copy() for name, arr in arrays.items()}
        sknn_step(store, gate, query, velocity, prev)
        for name, arr in arrays.items():
            assert np.array_equal(arr, before[name]), name

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

    @given(knn_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_gated_step_matches_brute_force(self, case, seed):
        keys, k, query = case
        rng = np.random.default_rng(seed)
        targets = rng.normal(scale=0.1, size=keys.shape)
        velocity = rng.normal(scale=0.01, size=POSE_DIM)
        prev = rng.normal(scale=0.1, size=POSE_DIM)
        # per component: keeps every neighbor, rejects every one (the
        # fallback), or rejects some
        sigma2 = rng.choice([1e6, 1e-18, 0.01], size=POSE_DIM)
        theta = 0.05
        store = NeighborStore(keys, targets, k=k)
        out = sknn_step(store, GateModel(sigma2, theta), query, velocity, prev)
        expected = brute_force_sknn(keys, targets, k, sigma2, theta, query, velocity, prev)
        assert np.array_equal(out, expected)

    def test_near_ties_across_the_kth_boundary(self):
        # At a 1e4 offset with a 1e-3 spread the prefilter's error bound
        # exceeds every gap between distances, so the near ties must be
        # ranked exactly: exact copies of one key, and copies one ulp away in
        # one component, sit on both sides of the k-th neighbor and on both
        # sides of the original in index order.
        rng = np.random.default_rng(18)
        base = 1e4 + 1e-3 * rng.normal(size=(40, POSE_DIM))
        query = 1e4 + 1e-3 * rng.normal(size=POSE_DIM)
        j = 9
        tied = base[brute_force_nearest(base, query, j + 1)[j]]
        up, down = tied.copy(), tied.copy()
        up[3] = np.nextafter(up[3], np.inf)
        down[3] = np.nextafter(down[3], -np.inf)
        keys = np.concatenate([base[:20], [tied, up, down], base[20:], [down, tied, up]])
        k = j + 4
        expected = brute_force_nearest(keys, query, k)
        cluster = [i for i in range(len(keys)) if np.abs(keys[i] - tied).max() <= 2e-12]
        assert len(cluster) == 7
        assert set(expected[j:]) < set(cluster)  # the boundary cuts the cluster
        distances = {float(np.sum((keys[i] - query) ** 2)) for i in cluster}
        assert len(distances) > 1  # so the distance, not only the index, orders it
        store = NeighborStore(keys, np.zeros_like(keys), k=k)
        assert list(nearest_indices(store, query)) == expected

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

    @pytest.mark.parametrize("k", [3, 8], ids=["prefilter", "full_sort"])
    def test_overflowing_distances_are_numerical_error(self, k):
        rng = np.random.default_rng(19)
        keys = rng.normal(size=(8, POSE_DIM))
        store = NeighborStore(keys, keys, k=k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # finite, but every distance overflows: the k nearest are undefined
            with pytest.raises(NumericalError):
                nearest_indices(store, 1e306 * rng.normal(size=POSE_DIM))
            # |q|^2 could overflow at the limit, but every distance is finite
            query = rng.normal(size=POSE_DIM)
            query[4] = 5e153
            assert list(nearest_indices(store, query)) == brute_force_nearest(keys, query, k)

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

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["P", "Q", "R"])
    def test_non_finite_covariance_rejected(self, name, bad_value):
        noise = {key: np.ones(POSE_DIM) for key in ("P", "Q", "R")}
        noise[name][3] = bad_value
        with pytest.raises(ValueError):
            KalmanState(x=np.zeros(POSE_DIM), **noise)

    def test_stream_with_nan_noise_rejected(self):
        r = np.ones(POSE_DIM)
        r[3] = np.nan
        with pytest.raises(ValueError):
            kalman_filter_stream(np.zeros((3, POSE_DIM)), np.zeros((2, POSE_DIM)), r,
                                 np.ones(POSE_DIM))

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


def explicit_composition(variant, seq, models):
    """A variant's output wired by hand from drnn.refine_positions,
    drnn.run_stream, kalman_filter_stream and sknn_step loops."""

    def track(query, velocity, store, gate, anchor_on_query=False):
        out = np.empty_like(query)
        out[0] = query[0]
        for t in range(1, len(query)):
            anchor = query[t - 1] if anchor_on_query else out[t - 1]
            out[t] = sknn_step(store, gate, query[t], velocity[t - 1], anchor)
        return out

    raw = seq.data
    if variant == "raw":
        return raw
    if variant in ("sknn_minus_pdrnn", "kf_minus_pdrnn"):
        raw_vel = drnn.run_stream(models.vdrnn, np.diff(raw, axis=0))
        if variant == "kf_minus_pdrnn":
            return kalman_filter_stream(raw, raw_vel, models.kalman_r_raw, models.kalman_q_raw)
        return track(raw, raw_vel, models.store_raw, models.gate_raw)
    refined = drnn.refine_positions(models.pdrnn, seq, models.tree).data
    if variant == "pdrnn":
        return refined
    if variant == "sknn_minus_vdrnn":
        return track(refined, np.diff(refined, axis=0), models.store,
                     models.gate_unrefined_velocity)
    refined_vel = drnn.run_stream(models.vdrnn, np.diff(refined, axis=0))
    if variant in ("sknn", "naive_sknn"):
        return track(refined, refined_vel, models.store, models.gate,
                     anchor_on_query=(variant == "naive_sknn"))
    states = kalman_filter_stream(refined, refined_vel, models.kalman_r, models.kalman_q)
    if variant == "kf":
        return states
    assert variant == "sknnkf"
    state_vel = drnn.run_stream(models.vdrnn_plus, np.diff(states, axis=0))
    return track(states, state_vel, models.store_plus, models.gate_plus)


def hand_wired_training_streams(network, pair, models):
    """Independent reference for training_streams: each network's (input,
    target) streams wired by hand from the encoder, the networks and the
    Kalman filter."""
    tree = models.tree
    if network == "pdrnn":
        return (skeleton.sequence_to_relative(pair.corrupted, tree).data,
                skeleton.sequence_to_relative(pair.clean, tree).data)
    refined = drnn.refine_positions(models.pdrnn, pair.corrupted, tree)
    if network == "vdrnn":
        return velocities(refined), velocities(pair.clean)
    assert network == "vdrnn_plus"
    states = kalman_filter_stream(refined.data, drnn.refine_velocities(models.vdrnn, refined),
                                  models.kalman_r, models.kalman_q)
    return np.diff(states, axis=0), velocities(pair.clean)


def tiny_trained_models(variants=("sknn", "kf", "sknnkf"), n_frames=260, iters=12):
    """Small corpus plus briefly trained networks, enough to exercise wiring."""
    motion = MotionConfig(n_frames=n_frames, seed=5, motion_bandwidth_hz=0.8)
    corruption = CorruptionConfig(jitter_sigma=0.01, occlusion_rate=0.02, seed=6)
    corpus = build_corpus(motion, corruption, (0.6, 0.2, 0.2))
    tree = DEFAULT_TREE
    from skelrefine.optim import OptimizerSpec

    spec = OptimizerSpec(max_iterations=iters)

    def batches(network, window, models):
        return [drnn.batch_from_streams(*training_streams(network, pair, models), window)
                for pair in (corpus.train, corpus.validation)]

    pcfg = drnn.DrnnConfig(hidden_sizes=(16, 16), recurrent_layer_index=2,
                           window_length=7, seed=1)
    pdrnn = drnn.train(pcfg, *batches("pdrnn", 7, FusionModels(tree=tree)), spec).params

    vcfg = drnn.DrnnConfig(hidden_sizes=(12, 12), recurrent_layer_index=1,
                           window_length=10, seed=2)
    velocity_batches = batches("vdrnn", 10, FusionModels(tree=tree, pdrnn=pdrnn))
    vdrnn = drnn.train(vcfg, *velocity_batches, spec).params
    # vdrnn_plus learns vdrnn's streams, which spares the noise fit that its
    # own streams need
    vdrnn_plus = drnn.train(
        drnn.DrnnConfig(hidden_sizes=(12, 12), recurrent_layer_index=1,
                        window_length=10, seed=3),
        *velocity_batches, spec,
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
            expected[t] = sknn_step(models.store_plus, models.gate_plus,
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

    def test_relative_sequence_is_encoding_error(self, pipeline_setup):
        _, models = pipeline_setup
        seq = SkeletonSequence(np.zeros((5, POSE_DIM)), Encoding.RELATIVE)
        with pytest.raises(EncodingError):
            run_pipeline("raw", seq, models)

    @pytest.mark.parametrize("variant", PIPELINE_VARIANTS)
    def test_variant_equals_explicit_composition(self, pipeline_setup, variant):
        corpus, models = pipeline_setup
        seq = corpus.test.corrupted
        out = run_pipeline(variant, seq, models)
        assert np.array_equal(out.data, explicit_composition(variant, seq, models))

    @pytest.mark.parametrize("variant", PIPELINE_VARIANTS)
    def test_single_variant_fit_matches_fit_of_all(self, pipeline_setup, variant):
        # a gate, store or noise shared by several variants (naive_sknn and
        # sknn share gate) is the same whichever variant asks for it
        corpus, full = pipeline_setup
        one = fit_fusion_models(corpus, DEFAULT_TREE, pdrnn=full.pdrnn, vdrnn=full.vdrnn,
                                vdrnn_plus=full.vdrnn_plus, k=25, variants=(variant,))
        fitted = ("store", "store_plus", "store_raw", "gate", "gate_plus", "gate_raw",
                  "gate_unrefined_velocity", "kalman_r", "kalman_q", "kalman_r_raw",
                  "kalman_q_raw")
        for name in fitted:
            mine, reference = getattr(one, name), getattr(full, name)
            if name not in required_models(variant):
                assert mine is None, name
            elif name.startswith("gate"):
                assert np.array_equal(mine.sigma2, reference.sigma2), name
                assert mine.theta == reference.theta
            elif name.startswith("store"):
                assert np.array_equal(mine.keys, reference.keys), name
                assert np.array_equal(mine.targets, reference.targets), name
            else:
                assert np.array_equal(mine, reference), name

    @pytest.mark.parametrize("variant", ["kf", "kf_minus_pdrnn"])
    def test_noise_is_fitted_on_the_filters_own_streams(self, pipeline_setup, variant):
        # R on the measurements' validation residuals, Q on those of the
        # velocities the filter is driven by
        corpus, full = pipeline_setup
        r_name, q_name = ("kalman_r", "kalman_q") if variant == "kf" else (
            "kalman_r_raw", "kalman_q_raw")
        corrupted, clean = corpus.validation.corrupted, corpus.validation.clean
        if variant == "kf":
            measured = drnn.refine_positions(full.pdrnn, corrupted, full.tree).data
        else:
            measured = corrupted.data
        control = drnn.run_stream(full.vdrnn, np.diff(measured, axis=0))
        r, q = estimate_noise_covariances(clean.data - measured, velocities(clean) - control)
        assert np.array_equal(getattr(full, r_name), r)
        assert np.array_equal(getattr(full, q_name), q)

    def test_fit_of_every_variant_refines_each_split_once(self, pipeline_setup, monkeypatch):
        corpus, full = pipeline_setup
        refined = []
        refine_positions = drnn.refine_positions

        def counting(params, seq, tree):
            refined.append(seq)
            return refine_positions(params, seq, tree)

        monkeypatch.setattr(drnn, "refine_positions", counting)
        fit_fusion_models(corpus, DEFAULT_TREE, pdrnn=full.pdrnn, vdrnn=full.vdrnn,
                          vdrnn_plus=full.vdrnn_plus, k=25, variants=PIPELINE_VARIANTS)
        assert sum(seq is corpus.train.corrupted for seq in refined) == 1
        assert sum(seq is corpus.validation.corrupted for seq in refined) == 1
        assert len(refined) == 2

    def test_required_models_of_the_shared_gate_and_the_chain(self):
        assert required_models("naive_sknn") == required_models("sknn") == (
            "pdrnn", "vdrnn", "store", "gate")
        assert required_models("sknnkf") == (
            "pdrnn", "vdrnn", "kalman_r", "kalman_q", "vdrnn_plus", "store_plus", "gate_plus")

    def test_required_networks_map(self):
        assert required_networks("raw") == ()
        assert required_networks("sknn") == ("pdrnn", "vdrnn")
        assert required_networks("sknn_minus_vdrnn") == ("pdrnn",)
        assert required_networks("sknn_minus_pdrnn") == ("vdrnn",)
        assert required_networks("kf_minus_pdrnn") == ("vdrnn",)
        assert required_networks("sknnkf") == ("pdrnn", "vdrnn", "vdrnn_plus")
        with pytest.raises(ConfigurationError):
            required_networks("nope")

    @pytest.mark.parametrize("split", ["train", "validation"])
    @pytest.mark.parametrize("network", NETWORKS)
    def test_training_streams_equal_hand_wiring(self, pipeline_setup, network, split):
        corpus, models = pipeline_setup
        pair = getattr(corpus, split)
        streams = training_streams(network, pair, models)
        reference = hand_wired_training_streams(network, pair, models)
        assert all(np.array_equal(a, b) for a, b in zip(streams, reference, strict=True))

    def test_training_models_map(self):
        assert tuple(NETWORKS) == ("pdrnn", "vdrnn", "vdrnn_plus")
        assert training_models("pdrnn") == ()
        assert training_models("vdrnn") == ("pdrnn",)
        assert training_models("vdrnn_plus") == ("pdrnn", "vdrnn", "kalman_r", "kalman_q")

    def test_fit_rejects_missing_networks(self, pipeline_setup):
        corpus, _ = pipeline_setup
        with pytest.raises(ConfigurationError, match="pdrnn"):
            fit_fusion_models(corpus, DEFAULT_TREE, variants=("sknn",))


@pytest.mark.parametrize("variant", ["sknn", "kf", "sknnkf"])
def test_fit_needs_three_validation_frames(variant):
    corpus = build_corpus(MotionConfig(n_frames=60, seed=5, motion_bandwidth_hz=0.8),
                          CorruptionConfig(jitter_sigma=0.01, occlusion_rate=0.02, seed=6),
                          (0.6, 0.2, 0.2))

    def with_validation_frames(n):
        val = corpus.validation
        short = SequencePair(val.corrupted.with_data(val.corrupted.data[:n]),
                             val.clean.with_data(val.clean.data[:n]))
        return Corpus(corpus.train, short, corpus.test, corpus.motion_config,
                      corpus.corruption_config, corpus.split_ratios)

    networks = {name: drnn.init_params(drnn.DrnnConfig(hidden_sizes=(4, 4),
                                                       recurrent_layer_index=1, seed=i))
                for i, name in enumerate(NETWORKS)}
    with pytest.raises(InsufficientFramesError, match="validation split has 2 frames"):
        fit_fusion_models(with_validation_frames(2), DEFAULT_TREE, **networks, k=5,
                          variants=(variant,))
    # two velocity residuals are enough
    fit_fusion_models(with_validation_frames(3), DEFAULT_TREE, **networks, k=5,
                      variants=(variant,))
