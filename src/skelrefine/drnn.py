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

One forward pass serves training and inference. It reads windows from
frames: window i's step t is frame i * stride + t, and a stream is the one
window that spans all of its frames. Every layer below the recurrent one,
and the recurrent layer's input term, depend only on the frame, so they are
one GEMM each over frames. Only the recurrent term loops over steps, all
windows at once; the layers above it and the output layer are one GEMM each
over the time-major slab. Backpropagation sums the recurrent layer's deltas
per frame before it takes their gradients. Every weight gradient is reduced
over fixed 256-row chunks in order, so trained weights do not depend on the
BLAS thread count.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
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
    VALUE_LIMIT,
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

# rows per BLAS call in a weight-gradient reduction; see _tdot
GRADIENT_CHUNK_ROWS = 256


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
        if not isinstance(data, dict):
            raise ConfigurationError(f"network config must be an object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown network config key {min(unknown)!r}")
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


def _params_from_arrays(config: DrnnConfig, arrays: list[np.ndarray]) -> DrnnParams:
    """DrnnParams from arrays in the order of _expected_shapes."""
    n = 2 * len(config.hidden_sizes)
    return DrnnParams(config, arrays[0:n:2], arrays[1:n:2], *arrays[n:])


def init_params(config: DrnnConfig) -> DrnnParams:
    """Seeded random initialization in the order of _expected_shapes: each
    (fan_in, fan_out) matrix uniform(-a, a), a = sqrt(6/(fan_in + fan_out))."""
    rng = np.random.default_rng(config.seed)
    arrays = []
    for _, shape in _expected_shapes(config):
        if len(shape) == 2:
            bound = np.sqrt(6.0 / sum(shape))
            arrays.append(rng.uniform(-bound, bound, size=shape))
        else:
            arrays.append(np.zeros(shape))
    return _params_from_arrays(config, arrays)


def zeros_like_params(params: DrnnParams) -> DrnnParams:
    shapes = _expected_shapes(params.config)
    return _params_from_arrays(params.config, [np.zeros(shape) for _, shape in shapes])


def _param_arrays(params: DrnnParams) -> list[np.ndarray]:
    """The live arrays of params in the order of _expected_shapes."""
    layers = [a for pair in zip(params.inter, params.biases) for a in pair]
    return [*layers, params.recurrent, params.out_weight, params.out_bias]


def pack_params(params: DrnnParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in _param_arrays(params)])


def unpack_params(config: DrnnConfig, vector: np.ndarray) -> DrnnParams:
    """DrnnParams holding copies of pack_params' vector, cut into the arrays."""
    shapes = [shape for _, shape in _expected_shapes(config)]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (ends[-1],):
        raise DimensionError(f"parameter vector must have {ends[-1]} entries, got {vector.shape}")
    pieces = np.split(vector, ends[:-1])
    return _params_from_arrays(config, [p.reshape(s).copy() for p, s in zip(pieces, shapes)])


def run_stream(params: DrnnParams, stream) -> np.ndarray:
    """Apply the network across a whole (frames, dim) stream, state carried.

    The stream is the one window of _forward that spans all of its frames,
    so the state starts at zero and runs through every frame. The caller's
    stream is not written. Raises DimensionError for a stream that is not
    (frames, input_dim) with at least one frame, and NumericalError when an
    output is not finite or exceeds VALUE_LIMIT in magnitude.
    """
    cfg = params.config
    s = np.asarray(stream, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] != cfg.input_dim:
        raise DimensionError(
            f"expected a stream of shape (frames, {cfg.input_dim}), got {s.shape}"
        )
    if s.shape[0] < 1:
        raise DimensionError("stream must contain at least one frame")
    outputs = _forward(params, s, len(s), 1)[0].reshape(len(s), cfg.output_dim)
    if not np.abs(outputs).max() <= VALUE_LIMIT:  # NaN fails too
        raise NumericalError(f"network outputs are not finite or exceed ±{VALUE_LIMIT:g}")
    return outputs


def _windows(frames: np.ndarray, window_length: int, stride: int) -> np.ndarray:
    """The time-major (window_length, n_windows, dim) view of a (frames, dim)
    array in which window i's step t is frame i * stride + t. Row t is the
    strided slice of frames that every window reads at step t, so writing
    it writes frames; the view is read-only when frames is."""
    n_windows = (frames.shape[0] - window_length) // stride + 1
    row, item = frames.strides
    return np.lib.stride_tricks.as_strided(
        frames, (window_length, n_windows, frames.shape[1]), (row, stride * row, item))


class TrainingBatch:
    """Equal-count input and target windows of one common length, over frames.

    Each side keeps its frames as one read-only (frames, dim) array:
    input_frames and target_frames. Window i's step t is frame
    i * stride + t (see _windows). TrainingBatch(inputs, targets) takes
    (n_windows, window_length, dim) arrays and lays window i out at frames
    i * window_length onward (stride window_length); batch_from_streams
    shares one copy of each stream among its overlapping windows (stride 1).
    inputs and targets are read-only (n_windows, window_length, dim) views
    of the frames. Raises DimensionError for arrays that are not 3-D,
    disagree on window count or length, or hold no window or an empty one.
    """

    def __init__(self, inputs, targets):
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if inputs.ndim != 3 or targets.ndim != 3:
            raise DimensionError("batch arrays must be (windows, time, features)")
        if inputs.shape[:2] != targets.shape[:2]:
            raise DimensionError(
                f"inputs {inputs.shape} and targets {targets.shape} disagree on "
                "window count or window length"
            )
        n_windows, length = inputs.shape[:2]
        if n_windows == 0 or length == 0:
            raise DimensionError("batch must contain at least one window of at least one frame")
        self._lay_out(inputs.reshape(n_windows * length, inputs.shape[2]),
                      targets.reshape(n_windows * length, targets.shape[2]), length, length)

    @classmethod
    def _from_frames(cls, input_frames, target_frames, window_length: int,
                     stride: int) -> "TrainingBatch":
        batch = cls.__new__(cls)
        batch._lay_out(input_frames, target_frames, window_length, stride)
        return batch

    def _lay_out(self, input_frames, target_frames, window_length, stride):
        self.window_length = window_length
        self.stride = stride
        self.input_frames, self.target_frames = input_frames.view(), target_frames.view()
        self.input_frames.flags.writeable = self.target_frames.flags.writeable = False
        self.inputs = _windows(self.input_frames, window_length, stride).swapaxes(0, 1)
        self.targets = _windows(self.target_frames, window_length, stride).swapaxes(0, 1)
        self.n_windows = self.inputs.shape[0]


def _stream_frames(stream, window_length: int) -> np.ndarray:
    """A copy of a (frames, dim) stream long enough for one window."""
    arr = np.array(stream, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"stream must be 2-D, got {arr.shape}")
    if arr.shape[0] < window_length:
        raise InsufficientFramesError(
            f"stream of {arr.shape[0]} frames is shorter than window {window_length}"
        )
    return arr


def batch_from_streams(input_stream, target_stream, window_length: int) -> TrainingBatch:
    """Every window position of two equal-length streams, as a stride-1
    batch over copies of the streams."""
    inputs = _stream_frames(input_stream, window_length)
    targets = _stream_frames(target_stream, window_length)
    if inputs.shape[0] != targets.shape[0]:
        raise DimensionError(
            f"input stream of {inputs.shape[0]} frames and target stream of "
            f"{targets.shape[0]} frames differ in length"
        )
    return TrainingBatch._from_frames(inputs, targets, window_length, 1)


def _check_batch(config: DrnnConfig, batch: TrainingBatch) -> None:
    if batch.input_frames.shape[1] != config.input_dim:
        raise DimensionError(
            f"batch input dim {batch.input_frames.shape[1]} != config input_dim "
            f"{config.input_dim}"
        )
    if batch.target_frames.shape[1] != config.output_dim:
        raise DimensionError(
            f"batch target dim {batch.target_frames.shape[1]} != config output_dim "
            f"{config.output_dim}"
        )


def _tdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b over equal row counts, reduced in an order fixed by the rows.

    The rows are cut into chunks of GRADIENT_CHUNK_ROWS. The chunk products
    are one stacked matmul, summed in chunk order by np.add.reduce, and the
    remainder chunk's product is added last. No BLAS call reduces over more
    than one chunk, which keeps the sum independent of the BLAS thread count
    (tests/test_drnn.py pins that for the BLAS it runs on).
    """
    rows = a.shape[0]
    whole = rows - rows % GRADIENT_CHUNK_ROWS
    chunks = whole // GRADIENT_CHUNK_ROWS
    a_chunks = a[:whole].reshape(chunks, GRADIENT_CHUNK_ROWS, a.shape[1])
    b_chunks = b[:whole].reshape(chunks, GRADIENT_CHUNK_ROWS, b.shape[1])
    out = np.add.reduce(np.matmul(a_chunks.transpose(0, 2, 1), b_chunks), axis=0)
    if whole < rows:
        out += a[whole:].T @ b[whole:]
    return out


def _forward(params: DrnnParams, frames: np.ndarray, window_length: int, stride: int):
    """The network's forward pass over every window of a (frames, input_dim)
    array, window i's step t being frame i * stride + t; every window starts
    from a zero recurrent state.

    Returns (outputs, acts). The layers below the recurrent one depend only
    on the frame, so each is one GEMM over the frames, and their acts
    entries are (frames, size). So is the recurrent layer's input term,
    a_below @ W + b. The recurrence then walks the steps: step t's row of
    the time-major (time, windows, size) slab is the previous row times the
    recurrent weights (zeros at t = 0) plus the input term of the frames the
    windows read at t, rectified in place. The layers above and the output
    layer are one GEMM each over the whole slab, so their acts entries and
    outputs are time-major slabs too. Overflow gives non-finite values
    without a numpy warning; callers check the values they use.
    """
    cfg = params.config
    rec = cfg.recurrent_layer_index - 1
    acts = []
    with np.errstate(over="ignore", invalid="ignore"):
        a = frames
        for layer in range(rec):
            pre = a @ params.inter[layer]
            pre += params.biases[layer]
            a = np.maximum(pre, 0.0, out=pre)
            acts.append(a)
        drive = a @ params.inter[rec]
        drive += params.biases[rec]
        steps = _windows(drive, window_length, stride)
        h = np.empty(steps.shape)
        np.maximum(steps[0], 0.0, out=h[0])
        for prev, cur, d in zip(h[:-1], h[1:], steps[1:]):
            np.dot(prev, params.recurrent, out=cur)
            cur += d
            np.maximum(cur, 0.0, out=cur)
        acts.append(h)
        n_time, n_windows, _ = h.shape
        a = h.reshape(n_time * n_windows, cfg.recurrent_size)
        for layer in range(rec + 1, len(cfg.hidden_sizes)):
            pre = a @ params.inter[layer]
            pre += params.biases[layer]
            a = np.maximum(pre, 0.0, out=pre)
            acts.append(a.reshape(n_time, n_windows, -1))
        outputs = a @ params.out_weight
        outputs += params.out_bias
    return outputs.reshape(n_time, n_windows, cfg.output_dim), acts


def _output_errors(outputs: np.ndarray, batch: TrainingBatch) -> float:
    """Turn the time-major outputs into output errors in place and return
    their sum of squares, one np.add.reduce per step and the steps summed in
    order. Raises NumericalError when the sum is not finite."""
    loss = 0.0
    targets = _windows(batch.target_frames, batch.window_length, batch.stride)
    with np.errstate(over="ignore", invalid="ignore"):
        for step, target in zip(outputs, targets):
            step -= target
            loss += float(np.add.reduce(step * step, axis=None))
    if not math.isfinite(loss):
        raise NumericalError("loss is not finite; activations overflowed")
    return loss


def loss_value(params: DrnnParams, batch: TrainingBatch) -> float:
    """Sum of squared output errors over the whole batch, from the forward
    pass loss_and_gradient runs, so the two agree bit for bit. Raises
    NumericalError when it is not finite."""
    _check_batch(params.config, batch)
    outputs, _ = _forward(params, batch.input_frames, batch.window_length, batch.stride)
    return _output_errors(outputs, batch)


def loss_and_gradient(params: DrnnParams, batch: TrainingBatch) -> tuple[float, DrnnParams]:
    """Sum-of-squares loss and its gradient by backpropagation through time.

    The output error and its doubling are formed in place in the outputs
    slab, and the output layer's weight gradient is one reduction over it.
    Backpropagation through time then walks the steps backward: the layers
    above the recurrent one take their deltas per step, and the recurrent
    layer's delta at step t is added to the frames the windows read at t, so
    that after the loop it is summed per frame. The recurrent layer's input
    weights and the layers below it then take their gradients as reductions
    over frames. Every weight gradient is a _tdot reduction and every bias
    gradient a numpy sum, so the result does not depend on the BLAS thread
    count. Layer 0's input gradient is never formed. The ReLU subgradient at
    exactly zero is taken as zero. Raises NumericalError when activations
    overflow to non-finite values.
    """
    cfg = params.config
    _check_batch(cfg, batch)
    outputs, acts = _forward(params, batch.input_frames, batch.window_length, batch.stride)
    loss = _output_errors(outputs, batch)

    grads = zeros_like_params(params)
    n_time, n_batch = batch.window_length, batch.n_windows
    rec = cfg.recurrent_layer_index - 1
    d_out = outputs
    d_out *= 2.0
    flat_out = d_out.reshape(n_time * n_batch, cfg.output_dim)
    grads.out_weight = _tdot(acts[-1].reshape(n_time * n_batch, -1), flat_out)
    grads.out_bias = flat_out.sum(axis=0)
    h = acts[rec]
    d_drive = np.zeros((batch.input_frames.shape[0], cfg.recurrent_size))
    d_steps = _windows(d_drive, n_time, batch.stride)
    for t in range(n_time - 1, -1, -1):
        da = d_out[t] @ params.out_weight.T
        for layer in range(len(acts) - 1, rec, -1):
            dpre = np.multiply(da, acts[layer][t] > 0.0, out=da)
            grads.inter[layer] += _tdot(acts[layer - 1][t], dpre)
            grads.biases[layer] += dpre.sum(axis=0)
            da = dpre @ params.inter[layer].T
        if t < n_time - 1:
            da += dh_carry
        dpre = np.multiply(da, h[t] > 0.0, out=da)
        d_steps[t] += dpre
        if t > 0:
            grads.recurrent += _tdot(h[t - 1], dpre)
            dh_carry = dpre @ params.recurrent.T
    dpre = d_drive
    for layer in range(rec, -1, -1):
        if layer < rec:
            dpre = np.multiply(dpre @ params.inter[layer + 1].T, acts[layer] > 0.0)
        below = acts[layer - 1] if layer > 0 else batch.input_frames
        grads.inter[layer] = _tdot(below, dpre)
        grads.biases[layer] = dpre.sum(axis=0)
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
    produces bitwise-identical parameter trajectories, at any BLAS thread
    count. Training and validation SSE are recorded at the starting point
    and after every accepted optimizer step. Raises NumericalError when a
    validation SSE is not finite.
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
        try:
            validation_losses.append(loss_value(unpack_params(config, vec), validation_set))
        except NumericalError as exc:
            raise NumericalError(f"validation set at iteration {iteration}: {exc}") from exc

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
    absolute coordinates. Output length equals input length. Raises
    NumericalError when the network's outputs are not finite or exceed
    VALUE_LIMIT (see run_stream).
    """
    if seq.encoding is not Encoding.ABSOLUTE:
        raise EncodingError("refine_positions expects an absolute sequence")
    rel = sequence_to_relative(seq, tree)
    refined = SkeletonSequence(run_stream(params, rel.data), Encoding.RELATIVE,
                               seq.frame_rate_hz)
    return sequence_to_absolute(refined, tree)


def refine_velocities(params: DrnnParams, seq: SkeletonSequence) -> np.ndarray:
    """Denoised per-frame velocities of an absolute sequence, (len - 1, 48)."""
    return run_stream(params, velocities(seq))


def save_checkpoint(path, params: DrnnParams) -> None:
    """Versioned JSON container: config plus all matrices, row-major,
    written atomically. A value that load_checkpoint would refuse, not finite
    or beyond VALUE_LIMIT, raises NumericalError, and nothing is written."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "arrays": {},
    }
    for (name, shape), array in zip(_expected_shapes(params.config), _param_arrays(params)):
        if not np.abs(array).max() <= VALUE_LIMIT:  # NaN fails too
            raise NumericalError(f"{path}: array {name!r} not finite or beyond ±{VALUE_LIMIT:g}")
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
    except (OSError, ValueError) as exc:
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
    loaded = []
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
        size = math.prod(shape)
        data = entry.get("data")
        data = seqio.finite_rows([data], size) if isinstance(data, list) else None
        if data is None:
            raise DataError(f"{path}: array {name!r} data must be {size} finite numbers")
        if np.abs(data).max() > VALUE_LIMIT:
            raise NumericalError(f"{path}: array {name!r} data must lie within ±{VALUE_LIMIT:g}")
        loaded.append(data.reshape(shape))
    return _params_from_arrays(config, loaded)
