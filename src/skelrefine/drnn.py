"""Recurrent refinement networks.

The network is a stack of ReLU hidden layers with a temporal connection at
exactly one of them: that layer's previous-frame activation feeds back
through a square weight matrix, all other layers are plain feedforward at
each step, and the output layer is linear. Training minimizes the sum of
squared output errors over fixed-length windows; gradients come from
backpropagation through the whole window.

Two application wrappers cover the refinement roles: position denoising
(parent-relative encoding in and out) and velocity denoising. At inference
the hidden state is carried across the entire sequence; windows only bound
the training horizon. Every window and every stream starts from a zero
recurrent state.

Training runs window batches step by step over time-major activation slabs,
which backpropagation reads back. Inference runs each layer as one GEMM over
the whole stream; only the recurrent term, which needs the previous frame's
activation, is a loop over frames.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import optim, seqio
from .errors import (
    ConfigurationError,
    DataError,
    DimensionError,
    EncodingError,
    InsufficientFramesError,
    NumericalError,
)
from .skeleton import (
    Encoding,
    KinematicTree,
    SkeletonSequence,
    sequence_to_absolute,
    sequence_to_relative,
    velocities,
)

CHECKPOINT_VERSION = 1

POSITION_WINDOW = 7
VELOCITY_WINDOW = 20


@dataclass(frozen=True)
class DrnnConfig:
    """Network layout and training-window geometry."""

    input_dim: int = 48
    output_dim: int = 48
    hidden_sizes: tuple[int, ...] = (256, 256, 256)
    recurrent_layer_index: int = 2  # 1-based position of the temporal connection
    window_length: int = POSITION_WINDOW  # 20 for the velocity networks
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigurationError("input_dim and output_dim must be positive")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigurationError("hidden_sizes must be a nonempty list of positive ints")
        if not 1 <= self.recurrent_layer_index <= len(self.hidden_sizes):
            raise ConfigurationError(
                f"recurrent_layer_index must be in 1..{len(self.hidden_sizes)}"
            )
        if self.window_length < 2:
            raise ConfigurationError("window_length must be at least 2")

    @property
    def recurrent_size(self) -> int:
        return self.hidden_sizes[self.recurrent_layer_index - 1]

    @classmethod
    def from_dict(cls, data: dict) -> "DrnnConfig":
        try:
            return cls(
                input_dim=optim.whole_count(data["input_dim"], "input_dim"),
                output_dim=optim.whole_count(data["output_dim"], "output_dim"),
                hidden_sizes=tuple(optim.whole_count(h, "hidden_sizes entry")
                                   for h in data["hidden_sizes"]),
                recurrent_layer_index=optim.whole_count(data["recurrent_layer_index"],
                                                        "recurrent_layer_index"),
                window_length=optim.whole_count(data["window_length"], "window_length"),
                seed=optim.whole_count(data["seed"], "seed", minimum=0),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad network config: {exc}") from exc


@dataclass
class DrnnParams:
    """Weights for one network. Shapes follow the config:

    inter[l] maps layer l's input to its units, (size_below, size_l);
    recurrent is square at the designated layer; out_weight is
    (last hidden size, output_dim). Biases start at zero and are absent
    from the recurrence equations unless training moves them.
    """

    config: DrnnConfig
    inter: list[np.ndarray]
    biases: list[np.ndarray]
    recurrent: np.ndarray
    out_weight: np.ndarray
    out_bias: np.ndarray


def _expected_shapes(config: DrnnConfig) -> list[tuple[str, tuple[int, ...]]]:
    sizes = (config.input_dim, *config.hidden_sizes)
    shapes = []
    for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:]), start=1):
        shapes.append((f"inter_{layer}", (fan_in, fan_out)))
        shapes.append((f"bias_{layer}", (fan_out,)))
    r = config.recurrent_size
    shapes.append(("recurrent", (r, r)))
    shapes.append(("out_weight", (config.hidden_sizes[-1], config.output_dim)))
    shapes.append(("out_bias", (config.output_dim,)))
    return shapes


def _params_from_arrays(config: DrnnConfig, arrays: dict[str, np.ndarray]) -> DrnnParams:
    """DrnnParams from arrays named as _expected_shapes names them."""
    layers = range(1, len(config.hidden_sizes) + 1)
    return DrnnParams(
        config,
        [arrays[f"inter_{l}"] for l in layers],
        [arrays[f"bias_{l}"] for l in layers],
        arrays["recurrent"],
        arrays["out_weight"],
        arrays["out_bias"],
    )


def init_params(config: DrnnConfig) -> DrnnParams:
    """Seeded random initialization, uniform(-a, a) with a = sqrt(6/(fi+fo))."""
    rng = np.random.default_rng(config.seed)
    sizes = (config.input_dim, *config.hidden_sizes)
    inter, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        inter.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    r = config.recurrent_size
    bound = np.sqrt(6.0 / (r + r))
    recurrent = rng.uniform(-bound, bound, size=(r, r))
    bound = np.sqrt(6.0 / (config.hidden_sizes[-1] + config.output_dim))
    out_weight = rng.uniform(-bound, bound, size=(config.hidden_sizes[-1], config.output_dim))
    return DrnnParams(config, inter, biases, recurrent, out_weight, np.zeros(config.output_dim))


def zeros_like_params(params: DrnnParams) -> DrnnParams:
    return DrnnParams(
        params.config,
        [np.zeros_like(u) for u in params.inter],
        [np.zeros_like(b) for b in params.biases],
        np.zeros_like(params.recurrent),
        np.zeros_like(params.out_weight),
        np.zeros_like(params.out_bias),
    )


def _param_arrays(params: DrnnParams) -> list[np.ndarray]:
    arrays = []
    for u, b in zip(params.inter, params.biases):
        arrays.append(u)
        arrays.append(b)
    arrays.append(params.recurrent)
    arrays.append(params.out_weight)
    arrays.append(params.out_bias)
    return arrays


def pack_params(params: DrnnParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in _param_arrays(params)])


def unpack_params(config: DrnnConfig, vector: np.ndarray) -> DrnnParams:
    shapes = _expected_shapes(config)
    total = sum(int(np.prod(shape)) for _, shape in shapes)
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (total,):
        raise DimensionError(f"parameter vector must have {total} entries, got {vector.shape}")
    arrays = {}
    offset = 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        arrays[name] = vector[offset : offset + size].reshape(shape).copy()
        offset += size
    return _params_from_arrays(config, arrays)


def _forward_batch(params: DrnnParams, inputs: np.ndarray):
    """Batched forward pass over (batch, time, input_dim) windows.

    Every window starts from a zero recurrent state. Returns (outputs,
    acts): acts holds one time-major (time, batch, size) activation slab per
    hidden layer. Each step's layer GEMM writes straight into the step's row,
    the bias, the recurrent term and the ReLU are applied there in place, and
    the recurrent layer's state entering step t is row t - 1 of its slab
    (zeros at t = 0).
    """
    cfg = params.config
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != cfg.input_dim:
        raise DimensionError(
            f"expected inputs of shape (batch, time, {cfg.input_dim}), got {x.shape}"
        )
    n_batch, n_time, _ = x.shape
    if n_time < 1:
        raise DimensionError("window must contain at least one frame")
    rec = cfg.recurrent_layer_index - 1
    h = np.zeros((n_batch, cfg.recurrent_size))
    acts = [np.empty((n_time, n_batch, size)) for size in cfg.hidden_sizes]
    outputs = np.empty((n_batch, n_time, cfg.output_dim))
    for t in range(n_time):
        a = x[:, t, :]
        for layer, weight in enumerate(params.inter):
            pre = np.matmul(a, weight, out=acts[layer][t])
            pre += params.biases[layer]
            if layer == rec:
                pre += h @ params.recurrent
            a = np.maximum(pre, 0.0, out=pre)
            if layer == rec:
                h = a
        y = np.matmul(a, params.out_weight, out=outputs[:, t, :])
        y += params.out_bias
    return outputs, acts


def run_stream(params: DrnnParams, stream) -> np.ndarray:
    """Apply the network across a whole (frames, dim) stream, state carried.

    Each layer is one (frames, size) GEMM over the whole stream, with its
    bias and ReLU applied in place. Only the recurrent term needs the
    previous frame: after its input GEMM the recurrent layer walks the
    frames, adding the previous frame's activation times the recurrent
    weights to each row before that row's ReLU. The state starts at zero and
    stays 1-D. The caller's stream is not written. Raises DimensionError for
    a stream that is not (frames, input_dim) with at least one frame.
    """
    cfg = params.config
    s = np.asarray(stream, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != cfg.input_dim:
        raise DimensionError(
            f"expected a stream of shape (frames, {cfg.input_dim}), got {s.shape}"
        )
    if s.shape[0] < 1:
        raise DimensionError("stream must contain at least one frame")
    a = s
    for layer, weight in enumerate(params.inter):
        pre = a @ weight
        pre += params.biases[layer]
        if layer == cfg.recurrent_layer_index - 1:
            # row 0 enters with a zero state; each later row adds h @ R first
            h = np.maximum(pre[0], 0.0, out=pre[0])
            for row in pre[1:]:
                row += h @ params.recurrent
                h = np.maximum(row, 0.0, out=row)
        else:
            np.maximum(pre, 0.0, out=pre)
        a = pre
    outputs = a @ params.out_weight
    outputs += params.out_bias
    return outputs


@dataclass(frozen=True)
class TrainingBatch:
    """Equal-count input and target windows of one common length."""

    inputs: np.ndarray  # (n_windows, window_length, dim)
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        if inputs.ndim != 3 or targets.ndim != 3:
            raise DimensionError("batch arrays must be (windows, time, features)")
        if inputs.shape[:2] != targets.shape[:2]:
            raise DimensionError(
                f"inputs {inputs.shape} and targets {targets.shape} disagree on "
                "window count or window length"
            )
        if inputs.shape[0] == 0:
            raise ValueError("batch must contain at least one window")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def n_windows(self) -> int:
        return self.inputs.shape[0]

    @property
    def window_length(self) -> int:
        return self.inputs.shape[1]


def window_count(n_frames: int, window_length: int) -> int:
    return n_frames - window_length + 1


def make_windows(stream, window_length: int) -> np.ndarray:
    """Dense sliding windows over a (frames, dim) stream.

    The windows are a read-only view of one copy of the stream, so they cost
    the stream's memory, not window_length times it, and later writes to the
    caller's stream do not reach them.
    """
    arr = np.array(stream, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"stream must be 2-D, got {arr.shape}")
    if window_count(arr.shape[0], window_length) < 1:
        raise InsufficientFramesError(
            f"stream of {arr.shape[0]} frames is shorter than window {window_length}"
        )
    return np.lib.stride_tricks.sliding_window_view(arr, (window_length, arr.shape[1]))[:, 0]


def batch_from_streams(input_stream, target_stream, window_length: int) -> TrainingBatch:
    return TrainingBatch(
        make_windows(input_stream, window_length),
        make_windows(target_stream, window_length),
    )


def _check_batch(config: DrnnConfig, batch: TrainingBatch) -> None:
    if batch.inputs.shape[2] != config.input_dim:
        raise DimensionError(
            f"batch input dim {batch.inputs.shape[2]} != config input_dim {config.input_dim}"
        )
    if batch.targets.shape[2] != config.output_dim:
        raise DimensionError(
            f"batch target dim {batch.targets.shape[2]} != config output_dim {config.output_dim}"
        )


def loss_value(params: DrnnParams, batch: TrainingBatch) -> float:
    """Sum of squared output errors over the whole batch."""
    _check_batch(params.config, batch)
    diff, _ = _forward_batch(params, batch.inputs)
    diff -= batch.targets
    return float(np.vdot(diff, diff))


def loss_and_gradient(params: DrnnParams, batch: TrainingBatch) -> tuple[float, DrnnParams]:
    """Sum-of-squares loss and its gradient by backpropagation through time.

    The backward pass reads the forward pass's time-major activation slabs
    one step row at a time; the recurrent layer's previous state is the row
    before. The output error and its doubling are formed in place in the
    outputs array, and each layer's delta in place in the array its GEMM
    returned. Layer 0's input gradient is never formed. The ReLU subgradient
    at exactly zero is taken as zero. Raises NumericalError when activations
    overflow to non-finite values.
    """
    cfg = params.config
    _check_batch(cfg, batch)
    x, target = batch.inputs, batch.targets
    diff, acts = _forward_batch(params, x)
    diff -= target
    loss = float(np.vdot(diff, diff))
    if not np.isfinite(loss):
        raise NumericalError("loss is not finite; activations overflowed")

    grads = zeros_like_params(params)
    n_batch, n_time, _ = x.shape
    rec = cfg.recurrent_layer_index - 1
    d_out = diff
    d_out *= 2.0
    h0 = np.zeros((n_batch, cfg.recurrent_size))
    dh_carry = np.zeros((n_batch, cfg.recurrent_size))
    for t in range(n_time - 1, -1, -1):
        dy = d_out[:, t, :]
        grads.out_weight += acts[-1][t].T @ dy
        grads.out_bias += dy.sum(axis=0)
        da = dy @ params.out_weight.T
        for layer in range(len(acts) - 1, -1, -1):
            if layer == rec:
                da += dh_carry
            dpre = np.multiply(da, acts[layer][t] > 0.0, out=da)
            below = acts[layer - 1][t] if layer > 0 else x[:, t, :]
            grads.inter[layer] += below.T @ dpre
            grads.biases[layer] += dpre.sum(axis=0)
            if layer == rec:
                h_prev = acts[rec][t - 1] if t > 0 else h0
                grads.recurrent += h_prev.T @ dpre
                dh_carry = dpre @ params.recurrent.T
            if layer > 0:
                # layer 0's input gradient would be discarded
                da = dpre @ params.inter[layer].T
    return loss, grads


@dataclass
class TrainResult:
    """Fitted parameters plus the recorded optimization trace."""

    params: DrnnParams
    train_losses: list[float]  # SSE at iteration 0 (initial) onward
    validation_losses: list[float]
    iterations: int
    n_evaluations: int  # loss-and-gradient calls, line searches included
    converged: bool
    message: str


def train(
    config: DrnnConfig,
    train_set: TrainingBatch,
    validation_set: TrainingBatch,
    optimizer_spec: optim.OptimizerSpec | None = None,
) -> TrainResult:
    """Fit a network to the training windows by full-batch minimization.

    Deterministic for a fixed config seed and optimizer spec: the same call
    produces bitwise-identical parameter trajectories. Training and
    validation SSE are recorded at the starting point and after every
    accepted optimizer step.
    """
    _check_batch(config, train_set)
    _check_batch(config, validation_set)
    spec = optimizer_spec or optim.OptimizerSpec()
    x0 = pack_params(init_params(config))

    def objective(vec):
        p = unpack_params(config, vec)
        try:
            loss, grads = loss_and_gradient(p, train_set)
        except NumericalError:
            # overflowing trial points read as infinitely bad; the optimizer
            # rejects them or reports divergence if it cannot
            return float("inf"), np.zeros_like(vec)
        return loss, pack_params(grads)

    train_losses: list[float] = []
    validation_losses: list[float] = []

    def record(iteration, loss, vec):
        train_losses.append(loss)
        validation_losses.append(loss_value(unpack_params(config, vec), validation_set))

    result = optim.minimize(objective, x0, spec, callback=record)
    return TrainResult(
        params=unpack_params(config, result.x),
        train_losses=train_losses,
        validation_losses=validation_losses,
        iterations=result.iterations,
        n_evaluations=result.n_evaluations,
        converged=result.converged,
        message=result.message,
    )


def refine_positions(params: DrnnParams, seq: SkeletonSequence,
                     tree: KinematicTree) -> SkeletonSequence:
    """Denoise an absolute sequence through the position network.

    The sequence is re-encoded parent-relative, streamed through the network
    with the hidden state carried across all frames, and resolved back to
    absolute coordinates. Output length equals input length.
    """
    if seq.encoding is not Encoding.ABSOLUTE:
        raise EncodingError("refine_positions expects an absolute sequence")
    rel = sequence_to_relative(seq, tree)
    refined = run_stream(params, rel.data)
    return sequence_to_absolute(
        SkeletonSequence(refined, Encoding.RELATIVE, seq.frame_rate_hz), tree
    )


def refine_velocities(params: DrnnParams, seq: SkeletonSequence) -> np.ndarray:
    """Denoised per-frame velocities of an absolute sequence, (len - 1, 48)."""
    return run_stream(params, velocities(seq))


def save_checkpoint(path, params: DrnnParams) -> None:
    """Versioned JSON container: config plus all matrices, row-major,
    written atomically."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "arrays": {},
    }
    for (name, shape), array in zip(_expected_shapes(params.config), _param_arrays(params)):
        payload["arrays"][name] = {
            "shape": list(shape),
            "data": [float(v) for v in array.ravel()],
        }
    with seqio.atomic_open(path) as fh:
        fh.write(json.dumps(payload))


def load_checkpoint(path) -> DrnnParams:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: checkpoint is not a JSON object")
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint version {payload.get('format_version')!r}"
        )
    try:
        config = DrnnConfig.from_dict(payload.get("config", {}))
    except ConfigurationError as exc:
        raise DataError(f"{path}: {exc}") from exc
    arrays = payload.get("arrays", {})
    if not isinstance(arrays, dict):
        raise DataError(f"{path}: checkpoint arrays are not a JSON object")
    loaded = {}
    for name, shape in _expected_shapes(config):
        entry = arrays.get(name)
        if entry is None:
            raise DataError(f"{path}: checkpoint missing array {name!r}")
        if not isinstance(entry, dict):
            raise DataError(f"{path}: array {name!r} is not a JSON object")
        if not isinstance(entry.get("shape"), list) or tuple(entry["shape"]) != shape:
            raise DataError(
                f"{path}: array {name!r} has shape {entry.get('shape')}, expected {list(shape)}"
            )
        size = int(np.prod(shape))
        data = entry.get("data")
        data = seqio.finite_rows([data], size) if isinstance(data, list) else None
        if data is None:
            raise DataError(f"{path}: array {name!r} data must be {size} finite numbers")
        loaded[name] = data.reshape(shape)
    return _params_from_arrays(config, loaded)
