import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelrefine import optim
from skelrefine.drnn import (
    _forward_batch,
    DrnnConfig,
    DrnnParams,
    TrainingBatch,
    batch_from_streams,
    init_params,
    load_checkpoint,
    loss_and_gradient,
    loss_value,
    make_windows,
    pack_params,
    refine_positions,
    refine_velocities,
    run_stream,
    save_checkpoint,
    train,
    unpack_params,
    window_count,
    zeros_like_params,
)
from skelrefine.errors import (
    ConfigurationError,
    DataError,
    DimensionError,
    EncodingError,
    InsufficientFramesError,
    TrainingDivergedError,
)
from skelrefine.skeleton import DEFAULT_TREE, POSE_DIM, Encoding, SkeletonSequence, velocities

from conftest import smooth_absolute_sequence


def tiny_config(**overrides):
    defaults = dict(
        input_dim=3,
        output_dim=2,
        hidden_sizes=(4, 5),
        recurrent_layer_index=1,
        window_length=3,
        seed=7,
    )
    defaults.update(overrides)
    return DrnnConfig(**defaults)


def zero_params(config):
    params = init_params(config)
    for arr in params.inter:
        arr[:] = 0.0
    params.recurrent[:] = 0.0
    params.out_weight[:] = 0.0
    return params


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = DrnnConfig()
        assert cfg.input_dim == 48
        assert cfg.output_dim == 48
        assert cfg.hidden_sizes == (256, 256, 256)
        assert cfg.window_length == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(hidden_sizes=()),
            dict(hidden_sizes=(0,)),
            dict(recurrent_layer_index=0),
            dict(recurrent_layer_index=3),
            dict(window_length=1),
            dict(input_dim=0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(
            input_dim=4, output_dim=4, hidden_sizes=(3, 3), recurrent_layer_index=1,
            window_length=4, seed=0,
        )
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            DrnnConfig(**base)

    @pytest.mark.parametrize("field, value", [
        ("input_dim", 2.5), ("hidden_sizes", [4, 4.5]), ("recurrent_layer_index", True),
        ("window_length", 7.9), ("seed", -1), ("seed", False),
    ])
    def test_from_dict_takes_whole_numbers_only(self, field, value):
        data = asdict(tiny_config())
        data[field] = value
        with pytest.raises(ConfigurationError, match=field.rstrip("s")):
            DrnnConfig.from_dict(data)

    def test_from_dict_accepts_integral_floats(self):
        data = asdict(tiny_config())
        data.update(window_length=3.0, hidden_sizes=[4.0, 5], seed=0.0)
        cfg = DrnnConfig.from_dict(data)
        assert cfg == tiny_config(seed=0)
        assert type(cfg.window_length) is int and type(cfg.hidden_sizes[0]) is int


class TestForward:
    def test_zero_weights_give_zero_outputs(self):
        cfg = tiny_config()
        params = zero_params(cfg)
        outputs = run_stream(params, np.ones((4, 3)))
        assert np.array_equal(outputs, np.zeros((4, 2)))

    def test_single_layer_without_recurrence_equals_feedforward_oracle(self):
        cfg = tiny_config(hidden_sizes=(6,), recurrent_layer_index=1)
        params = init_params(cfg)
        params.recurrent[:] = 0.0
        rng = np.random.default_rng(0)
        window = rng.normal(size=(5, 3))
        outputs = run_stream(params, window)
        for t in range(5):
            hidden = np.maximum(window[t] @ params.inter[0] + params.biases[0], 0.0)
            expected = hidden @ params.out_weight + params.out_bias
            assert np.max(np.abs(outputs[t] - expected)) < 1e-12

    def test_scalar_network_in_relu_off_region_outputs_zero(self):
        cfg = DrnnConfig(
            input_dim=1, output_dim=1, hidden_sizes=(1,), recurrent_layer_index=1,
            window_length=3, seed=0,
        )
        params = init_params(cfg)
        params.inter[0][:] = 1.0
        params.recurrent[:] = 0.5
        params.out_weight[:] = 2.0
        # negative inputs keep the single ReLU unit off at every step
        outputs = run_stream(params, -np.ones((6, 1)))
        assert np.array_equal(outputs, np.zeros((6, 1)))

    def test_zeroed_recurrence_equals_per_frame_application(self):
        cfg = tiny_config(hidden_sizes=(4, 4, 3), recurrent_layer_index=2)
        params = init_params(cfg)
        params.recurrent[:] = 0.0
        rng = np.random.default_rng(1)
        window = rng.normal(size=(6, 3))
        outputs = run_stream(params, window)
        for t in range(6):
            single = run_stream(params, window[t : t + 1])
            assert np.max(np.abs(outputs[t] - single[0])) < 1e-12

    def test_shape_errors(self):
        cfg = tiny_config()
        params = init_params(cfg)
        with pytest.raises(DimensionError):
            run_stream(params, np.ones((4, 5)))
        with pytest.raises(DimensionError):
            run_stream(params, np.ones(3))
        with pytest.raises(DimensionError):
            run_stream(params, np.ones((0, 3)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_frame_reference(self, data):
        n_layers = data.draw(st.integers(1, 3), label="n_layers")
        hidden_sizes = tuple(data.draw(st.lists(st.integers(1, 12), min_size=n_layers,
                                                max_size=n_layers), label="hidden_sizes"))
        rec = data.draw(st.integers(1, n_layers), label="recurrent_layer_index")
        input_dim = data.draw(st.integers(1, 9), label="input_dim")
        output_dim = data.draw(st.integers(1, 9), label="output_dim")
        n_frames = data.draw(st.integers(1, 40), label="n_frames")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params, _ = random_instance(rng, hidden_sizes, rec, 2, 1,
                                    input_dim=input_dim, output_dim=output_dim)
        stream = rng.normal(size=(n_frames, input_dim))
        before = stream.copy()
        got = run_stream(params, stream)
        want = per_frame_reference(params, stream)
        assert got.shape == want.shape == (n_frames, output_dim)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert np.array_equal(stream, before)


def per_frame_reference(params, stream):
    """The batch-1 pass run_stream replaced: each frame a (1, dim) row
    through every layer in turn, the recurrent state a (1, size) row."""
    cfg = params.config
    rec = cfg.recurrent_layer_index - 1
    h = np.zeros((1, cfg.recurrent_size))
    outputs = np.empty((stream.shape[0], cfg.output_dim))
    for t in range(stream.shape[0]):
        a = stream[t : t + 1]
        for layer, weight in enumerate(params.inter):
            pre = a @ weight
            pre += params.biases[layer]
            if layer == rec:
                pre += h @ params.recurrent
            a = np.maximum(pre, 0.0)
            if layer == rec:
                h = a
        outputs[t] = (a @ params.out_weight + params.out_bias)[0]
    return outputs


def central_difference_gradient(config, params, batch, eps=1e-6):
    x0 = pack_params(params)
    fd = np.empty_like(x0)
    for i in range(len(x0)):
        xp = x0.copy()
        xp[i] += eps
        xm = x0.copy()
        xm[i] -= eps
        fp, _ = loss_and_gradient(unpack_params(config, xp), batch)
        fm, _ = loss_and_gradient(unpack_params(config, xm), batch)
        fd[i] = (fp - fm) / (2.0 * eps)
    return fd


def min_relu_kink_distance(params, batch):
    """Smallest |pre-activation| across the batch; guards FD kink artifacts."""
    cfg = params.config
    n_batch, n_time, _ = batch.inputs.shape
    h = np.zeros((n_batch, cfg.recurrent_size))
    rec = cfg.recurrent_layer_index - 1
    smallest = np.inf
    for t in range(n_time):
        a = batch.inputs[:, t, :]
        for layer in range(len(cfg.hidden_sizes)):
            pre = a @ params.inter[layer] + params.biases[layer]
            if layer == rec:
                pre = pre + h @ params.recurrent
            smallest = min(smallest, float(np.min(np.abs(pre))))
            a = np.maximum(pre, 0.0)
            if layer == rec:
                h = a
    return smallest


def random_checkable_instance(rng):
    """Tiny network plus batch, kept away from ReLU kinks so central
    differences are valid (biases are randomized off zero)."""
    while True:
        n_layers = int(rng.integers(1, 4))
        cfg = DrnnConfig(
            input_dim=int(rng.integers(1, 9)),
            output_dim=int(rng.integers(1, 9)),
            hidden_sizes=tuple(int(h) for h in rng.integers(2, 9, size=n_layers)),
            recurrent_layer_index=int(rng.integers(1, n_layers + 1)),
            window_length=int(rng.integers(2, 6)),
            seed=int(rng.integers(0, 10**6)),
        )
        params = init_params(cfg)
        for i in range(len(params.biases)):
            params.biases[i] = rng.uniform(0.05, 0.3, size=params.biases[i].shape)
        params.out_bias = rng.uniform(-0.2, 0.2, size=params.out_bias.shape)
        n_windows = int(rng.integers(1, 4))
        batch = TrainingBatch(
            rng.normal(size=(n_windows, cfg.window_length, cfg.input_dim)),
            rng.normal(size=(n_windows, cfg.window_length, cfg.output_dim)),
        )
        if min_relu_kink_distance(params, batch) > 1e-3:
            return cfg, params, batch


@st.composite
def random_params(draw):
    """A network of 1-3 hidden layers with the temporal connection at any of
    them, every width 1-9, and nonzero biases."""
    n_layers = draw(st.integers(1, 3), label="n_layers")
    widths = st.integers(1, 9)
    cfg = DrnnConfig(
        input_dim=draw(widths, label="input_dim"),
        output_dim=draw(widths, label="output_dim"),
        hidden_sizes=tuple(draw(st.lists(widths, min_size=n_layers, max_size=n_layers),
                                label="hidden_sizes")),
        recurrent_layer_index=draw(st.integers(1, n_layers), label="recurrent_layer_index"),
        seed=draw(st.integers(0, 10**6), label="seed"),
    )
    params = init_params(cfg)
    rng = np.random.default_rng(cfg.seed)
    params.biases = [rng.normal(size=b.shape) for b in params.biases]
    params.out_bias = rng.normal(size=params.out_bias.shape)
    return params


def param_arrays(params):
    return [*params.inter, *params.biases, params.recurrent, params.out_weight,
            params.out_bias]


def assert_same_params(got, want):
    """Equal configs, and each attribute's arrays equal in count, shape,
    dtype and bytes."""
    assert got.config == want.config
    assert len(got.inter) == len(want.inter) and len(got.biases) == len(want.biases)
    for a, b in zip(param_arrays(got), param_arrays(want)):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


class TestGradient:
    def test_zero_loss_and_gradient_when_targets_match_outputs(self):
        cfg = tiny_config()
        params = init_params(cfg)
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(3, 3, 3))
        outputs, _ = _forward_batch(params, inputs)
        loss, grads = loss_and_gradient(params, TrainingBatch(inputs, outputs))
        assert loss == 0.0
        assert np.array_equal(pack_params(grads), np.zeros_like(pack_params(params)))

    def test_matches_central_differences_on_tiny_nets(self):
        rng = np.random.default_rng(91)
        for _ in range(5):
            cfg, params, batch = random_checkable_instance(rng)
            _, grads = loss_and_gradient(params, batch)
            fd = central_difference_gradient(cfg, params, batch)
            rel = np.abs(pack_params(grads) - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() < 1e-5

    def test_batch_doubling_doubles_loss_and_gradient(self):
        rng = np.random.default_rng(5)
        cfg = tiny_config()
        params = init_params(cfg)
        inputs = rng.normal(size=(4, 3, 3))
        targets = rng.normal(size=(4, 3, 2))
        loss1, g1 = loss_and_gradient(params, TrainingBatch(inputs, targets))
        loss2, g2 = loss_and_gradient(
            params,
            TrainingBatch(np.vstack([inputs, inputs]), np.vstack([targets, targets])),
        )
        assert np.isclose(loss2, 2.0 * loss1, rtol=1e-14, atol=0)
        assert np.allclose(pack_params(g2), 2.0 * pack_params(g1), rtol=1e-13, atol=1e-18)

    @given(random_params())
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_round_trip(self, params):
        vector = pack_params(params)
        again = unpack_params(params.config, vector)
        assert_same_params(again, params)
        assert np.array_equal(pack_params(again), vector)
        # copies, so that an optimizer may reuse its vector
        assert not any(np.shares_memory(arr, vector) for arr in param_arrays(again))

    def test_dimension_mismatch_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg)
        with pytest.raises(DimensionError):
            loss_and_gradient(params, TrainingBatch(np.ones((2, 3, 5)), np.ones((2, 3, 2))))


def reference_loss_and_gradient(params, batch):
    """The copy-based BPTT that the slab rewrite replaced, kept verbatim as a
    bit-identity reference: the forward pass copies each step's activations
    and entering hidden state into strided (batch, time, size) caches, and
    the backward pass allocates every intermediate afresh."""
    cfg = params.config
    x, target = batch.inputs, batch.targets
    n_batch, n_time, _ = x.shape
    n_layers = len(cfg.hidden_sizes)
    rec = cfg.recurrent_layer_index - 1
    h = np.zeros((n_batch, cfg.recurrent_size))
    acts = [np.empty((n_batch, n_time, s)) for s in cfg.hidden_sizes]
    h_prev = np.empty((n_batch, n_time, cfg.recurrent_size))
    outputs = np.empty((n_batch, n_time, cfg.output_dim))
    for t in range(n_time):
        a = x[:, t, :]
        for layer in range(n_layers):
            pre = a @ params.inter[layer]
            pre += params.biases[layer]
            if layer == rec:
                h_prev[:, t, :] = h
                pre += h @ params.recurrent
            a = np.maximum(pre, 0.0, out=pre)
            if layer == rec:
                h = a
            acts[layer][:, t, :] = a
        outputs[:, t, :] = a @ params.out_weight + params.out_bias
    diff = outputs - target
    loss = float(np.vdot(diff, diff))

    grads = zeros_like_params(params)
    d_out = 2.0 * diff
    dh_carry = np.zeros((n_batch, cfg.recurrent_size))
    for t in range(n_time - 1, -1, -1):
        dy = d_out[:, t, :]
        grads.out_weight += acts[n_layers - 1][:, t, :].T @ dy
        grads.out_bias += dy.sum(axis=0)
        da = dy @ params.out_weight.T
        for layer in range(n_layers - 1, -1, -1):
            a_layer = acts[layer][:, t, :]
            if layer == rec:
                da = da + dh_carry
            dpre = da * (a_layer > 0.0)
            below = acts[layer - 1][:, t, :] if layer > 0 else x[:, t, :]
            grads.inter[layer] += below.T @ dpre
            grads.biases[layer] += dpre.sum(axis=0)
            if layer == rec:
                grads.recurrent += h_prev[:, t, :].T @ dpre
                dh_carry = dpre @ params.recurrent.T
            da = dpre @ params.inter[layer].T
    return loss, grads


def random_instance(rng, hidden_sizes, recurrent_layer_index, window_length, n_windows,
                    input_dim=5, output_dim=4, views=False):
    """A network with randomized biases plus a batch; with views, the batch is
    read-only make_windows views of two streams, as training builds it."""
    cfg = DrnnConfig(input_dim=input_dim, output_dim=output_dim, hidden_sizes=hidden_sizes,
                     recurrent_layer_index=recurrent_layer_index,
                     window_length=window_length, seed=int(rng.integers(0, 10**6)))
    params = init_params(cfg)
    for i in range(len(params.biases)):
        params.biases[i] = rng.normal(scale=0.3, size=params.biases[i].shape)
    params.out_bias = rng.normal(scale=0.3, size=params.out_bias.shape)
    if views:
        n_frames = n_windows + window_length - 1
        batch = batch_from_streams(rng.normal(size=(n_frames, input_dim)),
                                   rng.normal(size=(n_frames, output_dim)), window_length)
    else:
        batch = TrainingBatch(rng.normal(size=(n_windows, window_length, input_dim)),
                              rng.normal(size=(n_windows, window_length, output_dim)))
    return params, batch


BIT_IDENTITY_CASES = {
    # hidden_sizes, recurrent_layer_index, window_length, n_windows, views
    "recurrent_first": ((6, 7, 5), 1, 4, 3, False),
    "recurrent_middle": ((6, 7, 5), 2, 4, 3, False),
    "recurrent_last": ((6, 7, 5), 3, 4, 3, False),
    "one_layer": ((8,), 1, 5, 4, False),
    "window_two": ((6, 5), 2, 2, 6, False),
    "window_views": ((6, 7, 5), 2, 6, 9, True),
    "blas_sized_views": ((64, 48, 64), 2, 7, 300, True),
}


class TestBitIdentity:
    @pytest.mark.parametrize("case", BIT_IDENTITY_CASES)
    def test_matches_copy_based_reference(self, case):
        hidden_sizes, rec, window, n_windows, views = BIT_IDENTITY_CASES[case]
        rng = np.random.default_rng(sum(map(ord, case)))
        params, batch = random_instance(rng, hidden_sizes, rec, window, n_windows, views=views)
        loss, grads = loss_and_gradient(params, batch)
        want_loss, want_grads = reference_loss_and_gradient(params, batch)
        assert loss == want_loss
        assert np.array_equal(pack_params(grads), pack_params(want_grads))

    def test_matches_reference_on_random_configs(self):
        rng = np.random.default_rng(2718)
        for _ in range(25):
            n_layers = int(rng.integers(1, 5))
            hidden_sizes = tuple(int(h) for h in rng.integers(1, 20, size=n_layers))
            params, batch = random_instance(
                rng, hidden_sizes, int(rng.integers(1, n_layers + 1)),
                int(rng.integers(2, 9)), int(rng.integers(1, 40)),
                input_dim=int(rng.integers(1, 10)), output_dim=int(rng.integers(1, 10)),
                views=bool(rng.integers(0, 2)),
            )
            loss, grads = loss_and_gradient(params, batch)
            want_loss, want_grads = reference_loss_and_gradient(params, batch)
            assert loss == want_loss
            assert np.array_equal(pack_params(grads), pack_params(want_grads))

    @pytest.mark.parametrize("case", BIT_IDENTITY_CASES)
    def test_cached_and_uncached_forward_agree_bitwise(self, case):
        """loss_value's forward pass and loss_and_gradient's both run on the
        time-major slabs, and their losses agree bit for bit."""
        hidden_sizes, rec, window, n_windows, views = BIT_IDENTITY_CASES[case]
        rng = np.random.default_rng(sum(map(ord, case)) + 1)
        params, batch = random_instance(rng, hidden_sizes, rec, window, n_windows, views=views)
        outputs, acts = _forward_batch(params, batch.inputs)
        assert outputs.shape == batch.targets.shape
        assert [a.shape for a in acts] == [(window, n_windows, s) for s in hidden_sizes]
        assert loss_value(params, batch) == loss_and_gradient(params, batch)[0]

    @pytest.mark.parametrize("views", [False, True], ids=["arrays", "window_views"])
    def test_batch_left_unchanged(self, views):
        rng = np.random.default_rng(31)
        params, batch = random_instance(rng, (6, 7, 5), 2, 5, 8, views=views)
        inputs, targets = batch.inputs.copy(), batch.targets.copy()
        loss_and_gradient(params, batch)
        loss_value(params, batch)
        assert np.array_equal(batch.inputs, inputs)
        assert np.array_equal(batch.targets, targets)


class TestWindows:
    def test_window_count_identity(self):
        assert window_count(10, 7) == 4
        rng = np.random.default_rng(6)
        stream = rng.normal(size=(10, 4))
        assert make_windows(stream, 7).shape == (4, 7, 4)

    def test_windows_are_dense_stride_one(self):
        stream = np.arange(12, dtype=float).reshape(6, 2)
        windows = make_windows(stream, 3)
        assert windows.shape == (4, 3, 2)
        for i in range(4):
            assert np.array_equal(windows[i], stream[i : i + 3])

    def test_too_short_stream_rejected(self):
        with pytest.raises(InsufficientFramesError):
            make_windows(np.zeros((3, 4)), 5)

    def test_batch_from_streams_pairs_windows(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(9, 3))
        b = rng.normal(size=(9, 2))
        batch = batch_from_streams(a, b, 4)
        assert batch.n_windows == 6
        assert batch.window_length == 4
        assert np.array_equal(batch.inputs[2], a[2:6])
        assert np.array_equal(batch.targets[2], b[2:6])
        # read-only views of the batch's own copies of the streams
        assert not (batch.inputs.flags.writeable or batch.targets.flags.writeable)
        expected = a[2:6].copy()
        a[:] = 0.0
        assert np.array_equal(batch.inputs[2], expected)

    def test_mismatched_batch_rejected(self):
        with pytest.raises(DimensionError):
            TrainingBatch(np.ones((2, 3, 4)), np.ones((2, 4, 4)))
        with pytest.raises(ValueError):
            TrainingBatch(np.ones((0, 3, 4)), np.ones((0, 3, 4)))


def identity_batches(rng, n_windows=100, window=5, dim=6):
    streams = rng.normal(size=(n_windows + window - 1, dim)) * 0.5
    batch = batch_from_streams(streams, streams, window)
    val = batch_from_streams(streams[: 3 * window], streams[: 3 * window], window)
    return batch, val


class TestTrain:
    def test_identity_task_reaches_one_percent_of_initial_mse(self):
        rng = np.random.default_rng(8)
        batch, val = identity_batches(rng)
        cfg = DrnnConfig(
            input_dim=6, output_dim=6, hidden_sizes=(16, 16), recurrent_layer_index=1,
            window_length=5, seed=3,
        )
        result = train(cfg, batch, val, optim.OptimizerSpec(max_iterations=250))
        assert result.train_losses[-1] <= 0.01 * result.train_losses[0]

    def test_denoising_beats_input_noise_on_validation(self):
        rng = np.random.default_rng(9)
        t = np.arange(900) / 30.0
        clean = np.stack(
            [np.sin(2 * np.pi * f * t + p) * 0.3 for f, p in
             zip(rng.uniform(0.2, 0.8, 4), rng.uniform(0, 6.28, 4))],
            axis=1,
        )
        noisy = clean + rng.normal(scale=0.02, size=clean.shape)
        cfg = DrnnConfig(
            input_dim=4, output_dim=4, hidden_sizes=(16, 16), recurrent_layer_index=2,
            window_length=9, seed=4,
        )
        split = 700
        batch = batch_from_streams(noisy[:split], clean[:split], 9)
        val = batch_from_streams(noisy[split:], clean[split:], 9)
        result = train(cfg, batch, val, optim.OptimizerSpec(max_iterations=300))
        val_mse = result.validation_losses[-1] / val.targets.size
        noise_mse = float(np.mean((noisy[split:] - clean[split:]) ** 2))
        assert val_mse < noise_mse

    def test_same_seed_is_bitwise_identical(self):
        rng = np.random.default_rng(10)
        batch, val = identity_batches(rng, n_windows=30)
        cfg = DrnnConfig(
            input_dim=6, output_dim=6, hidden_sizes=(8, 8), recurrent_layer_index=2,
            window_length=5, seed=11,
        )
        spec = optim.OptimizerSpec(max_iterations=40)
        a = train(cfg, batch, val, spec)
        b = train(cfg, batch, val, spec)
        assert a.train_losses == b.train_losses
        assert np.array_equal(pack_params(a.params), pack_params(b.params))

    def test_losses_non_increasing_under_accepted_steps(self):
        rng = np.random.default_rng(12)
        batch, val = identity_batches(rng, n_windows=40)
        cfg = DrnnConfig(
            input_dim=6, output_dim=6, hidden_sizes=(8,), recurrent_layer_index=1,
            window_length=5, seed=2,
        )
        result = train(cfg, batch, val, optim.OptimizerSpec(max_iterations=60))
        pairs = zip(result.train_losses, result.train_losses[1:])
        assert all(b <= a for a, b in pairs)

    def test_divergence_reports_iteration(self):
        # activations that overflow read as an infinite loss, which at the
        # starting point is divergence at iteration 0
        rng = np.random.default_rng(13)
        batch, val = identity_batches(rng, n_windows=20)
        huge = TrainingBatch(batch.inputs * 1e200, batch.targets)
        cfg = DrnnConfig(
            input_dim=6, output_dim=6, hidden_sizes=(8,), recurrent_layer_index=1,
            window_length=5, seed=2,
        )
        with pytest.raises(TrainingDivergedError) as err:
            train(cfg, huge, val, optim.OptimizerSpec(max_iterations=50))
        assert err.value.iteration == 0

    def test_loss_curves_have_equal_length(self):
        rng = np.random.default_rng(14)
        batch, val = identity_batches(rng, n_windows=20)
        cfg = DrnnConfig(
            input_dim=6, output_dim=6, hidden_sizes=(8,), recurrent_layer_index=1,
            window_length=5, seed=2,
        )
        result = train(cfg, batch, val, optim.OptimizerSpec(max_iterations=25))
        assert len(result.train_losses) == len(result.validation_losses)
        assert len(result.train_losses) == result.iterations + 1


class TestRefiners:
    def test_zero_network_maps_to_all_zero_absolute_sequence(self, tree):
        cfg = DrnnConfig(hidden_sizes=(8, 8), recurrent_layer_index=1, seed=0)
        params = zero_params(cfg)
        rng = np.random.default_rng(15)
        seq = smooth_absolute_sequence(rng, 12)
        refined = refine_positions(params, seq, tree)
        assert refined.encoding is Encoding.ABSOLUTE
        assert np.array_equal(refined.data, np.zeros_like(seq.data))

    def test_exact_identity_network_passes_input_through(self, tree):
        # identity is exactly expressible: one hidden layer of 48 units with a
        # bias shift keeping every ReLU active, inverted at the output
        shift = 100.0
        cfg = DrnnConfig(hidden_sizes=(POSE_DIM,), recurrent_layer_index=1, seed=0)
        params = init_params(cfg)
        params.inter[0][:] = np.eye(POSE_DIM)
        params.biases[0][:] = shift
        params.recurrent[:] = 0.0
        params.out_weight[:] = np.eye(POSE_DIM)
        params.out_bias[:] = -shift
        rng = np.random.default_rng(16)
        seq = smooth_absolute_sequence(rng, 60, amplitude=0.3)
        refined = refine_positions(params, seq, tree)
        assert np.max(np.abs(refined.data - seq.data)) < 1e-9

    def test_trained_near_identity_network_tracks_input(self, tree):
        rng = np.random.default_rng(16)
        seq = smooth_absolute_sequence(rng, 120, amplitude=0.2)
        from skelrefine.skeleton import sequence_to_relative

        rel = sequence_to_relative(seq, tree).data
        cfg = DrnnConfig(hidden_sizes=(64,), recurrent_layer_index=1, window_length=5, seed=5)
        batch = batch_from_streams(rel, rel, 5)
        result = train(cfg, batch, batch, optim.OptimizerSpec(max_iterations=200))
        assert result.train_losses[-1] <= 1e-3 * result.train_losses[0]
        refined = refine_positions(result.params, seq, tree)
        assert np.max(np.abs(refined.data - seq.data)) < 0.1

    def test_output_length_matches_input(self, tree):
        cfg = DrnnConfig(hidden_sizes=(6, 6), recurrent_layer_index=2, seed=1)
        params = init_params(cfg)
        rng = np.random.default_rng(17)
        for n in (1, 2, 9):
            seq = smooth_absolute_sequence(rng, n)
            assert len(refine_positions(params, seq, tree)) == n

    def test_refine_positions_requires_absolute(self, tree):
        cfg = DrnnConfig(hidden_sizes=(6,), recurrent_layer_index=1, seed=1)
        params = init_params(cfg)
        seq = SkeletonSequence(np.zeros((4, POSE_DIM)), Encoding.RELATIVE)
        with pytest.raises(EncodingError):
            refine_positions(params, seq, tree)

    def test_refine_velocities_zero_network_on_constant_input(self):
        cfg = DrnnConfig(hidden_sizes=(6,), recurrent_layer_index=1, window_length=20, seed=1)
        params = zero_params(cfg)
        seq = SkeletonSequence(np.ones((8, POSE_DIM)), Encoding.ABSOLUTE)
        out = refine_velocities(params, seq)
        assert np.array_equal(out, np.zeros((7, POSE_DIM)))

    def test_refine_velocities_length_and_composition(self):
        cfg = DrnnConfig(hidden_sizes=(6, 6), recurrent_layer_index=1, window_length=20, seed=2)
        params = init_params(cfg)
        rng = np.random.default_rng(18)
        seq = smooth_absolute_sequence(rng, 15)
        out = refine_velocities(params, seq)
        assert out.shape == (14, POSE_DIM)
        oracle = run_stream(params, velocities(seq))
        assert np.max(np.abs(out - oracle)) < 1e-12

    def test_refine_velocities_needs_two_frames(self):
        cfg = DrnnConfig(hidden_sizes=(6,), recurrent_layer_index=1, seed=1)
        params = init_params(cfg)
        seq = SkeletonSequence(np.zeros((1, POSE_DIM)), Encoding.ABSOLUTE)
        with pytest.raises(InsufficientFramesError):
            refine_velocities(params, seq)


class TestCheckpoint:
    @given(random_params())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_is_bitwise(self, params):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "net.json"
            save_checkpoint(path, params)
            loaded = load_checkpoint(path)
        assert_same_params(loaded, params)

    def test_shape_tampering_detected(self, tmp_path):
        import json

        cfg = tiny_config()
        params = init_params(cfg)
        path = tmp_path / "net.json"
        save_checkpoint(path, params)
        payload = json.loads(path.read_text())
        payload["arrays"]["recurrent"]["shape"] = [2, 2]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_missing_array_detected(self, tmp_path):
        import json

        cfg = tiny_config()
        params = init_params(cfg)
        path = tmp_path / "net.json"
        save_checkpoint(path, params)
        payload = json.loads(path.read_text())
        del payload["arrays"]["out_weight"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_bad_version_detected(self, tmp_path):
        import json

        cfg = tiny_config()
        save_checkpoint(tmp_path / "net.json", init_params(cfg))
        payload = json.loads((tmp_path / "net.json").read_text())
        payload["format_version"] = 99
        (tmp_path / "net.json").write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "net.json")
