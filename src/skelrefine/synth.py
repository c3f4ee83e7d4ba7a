"""Synthetic motion corpus.

Ground truth is smooth, bone-length-preserving skeleton motion: every bone
direction follows band-limited sinusoidal angle trajectories around a
standing rest pose, resolved by forward kinematics over the kinematic tree,
while the root wanders along a slow path. The corruption model emulates a
depth-sensor tracker's failure modes: per-joint Gaussian jitter plus
occlusion episodes during which a joint freezes at a displaced position and
then snaps back.

All randomness flows from explicit seeds, so identical configs reproduce
identical corpora. Bones have DEFAULT_BONE_LENGTHS, and the sinusoid
frequency pool is drawn once per corpus from the motion seed.

MotionConfig and CorruptionConfig state their defaults once, as field
defaults; from_dict reads only the keys present, counts and seeds through
optim.whole_count and every other value through optim.real_number, so a
boolean, a string or a non-finite number is refused.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import seqio
from .errors import ConfigurationError, DataError, EncodingError, NumericalError
from .optim import real_number, whole_count
from .skeleton import (
    DEFAULT_TREE,
    N_JOINTS,
    VALUE_LIMIT,
    Encoding,
    JointId,
    KinematicTree,
    SkeletonSequence,
    joint_slice,
)

DEFAULT_BONE_LENGTHS: dict[JointId, float] = {
    JointId.SPINEMID: 0.0,  # root carries no bone
    JointId.SPINEBASE: 0.18,
    JointId.SPINESHOULDER: 0.30,
    JointId.NECK: 0.12,
    JointId.SHOULDERLEFT: 0.20,
    JointId.ELBOWLEFT: 0.28,
    JointId.WRISTLEFT: 0.26,
    JointId.SHOULDERRIGHT: 0.20,
    JointId.ELBOWRIGHT: 0.28,
    JointId.WRISTRIGHT: 0.26,
    JointId.HIPLEFT: 0.11,
    JointId.KNEELEFT: 0.42,
    JointId.ANKLELEFT: 0.41,
    JointId.HIPRIGHT: 0.11,
    JointId.KNEERIGHT: 0.42,
    JointId.ANKLERIGHT: 0.41,
}

# unit rest directions (parent -> joint) of a relaxed standing pose
_REST_DIRECTIONS: dict[JointId, tuple[float, float, float]] = {
    JointId.SPINEBASE: (0.05, -1.0, 0.02),
    JointId.SPINESHOULDER: (0.0, 1.0, 0.05),
    JointId.NECK: (0.02, 1.0, 0.0),
    JointId.SHOULDERLEFT: (-1.0, 0.15, 0.05),
    JointId.ELBOWLEFT: (-0.25, -1.0, 0.1),
    JointId.WRISTLEFT: (-0.1, -1.0, 0.15),
    JointId.SHOULDERRIGHT: (1.0, 0.15, 0.05),
    JointId.ELBOWRIGHT: (0.25, -1.0, 0.1),
    JointId.WRISTRIGHT: (0.1, -1.0, 0.15),
    JointId.HIPLEFT: (-1.0, -0.35, 0.0),
    JointId.KNEELEFT: (-0.05, -1.0, 0.08),
    JointId.ANKLELEFT: (0.0, -1.0, -0.05),
    JointId.HIPRIGHT: (1.0, -0.35, 0.0),
    JointId.KNEERIGHT: (0.05, -1.0, 0.08),
    JointId.ANKLERIGHT: (0.0, -1.0, -0.05),
}

_ROOT_BASE = np.array([0.0, 0.95, 0.0])
_SIGNAL_COMPONENTS = 3

DEFAULT_SPLIT_RATIOS = (50 / 73, 8 / 73, 15 / 73)  # 5000/800/1500 at 7300 frames


_read_seed = partial(whole_count, minimum=0)


def _whole_counts(raw, what: str) -> tuple[int, ...]:
    return tuple(whole_count(v, f"{what} entry") for v in raw)


def _from_present_keys(cls, data: dict, what: str, readers: dict):
    """cls built from the keys of data that name its fields, the others left
    at their defaults. readers maps a field to the function that reads it;
    every other field is a real number. Keys that name no field are ignored,
    so manifests that record removed settings still load."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} config must be an object, got {data!r}")
    try:
        return cls(**{f.name: readers.get(f.name, real_number)(data[f.name], f.name)
                      for f in fields(cls) if f.name in data})
    except TypeError as exc:
        raise ConfigurationError(f"bad {what} config: {exc}") from exc


@dataclass(frozen=True)
class MotionConfig:
    """Ground-truth motion parameters.

    Every angle trajectory is a sum of sinusoids over one shared frequency
    pool with per-joint random amplitudes and phases; sharing the pool keeps
    the whole pose manifold low-dimensional, the analogue of a performer
    repeating a small set of activities. The pool is drawn from the seed
    (draw_frequency_pool); bones have DEFAULT_BONE_LENGTHS.
    """

    n_frames: int
    frame_rate_hz: float = 30.0
    motion_bandwidth_hz: float = 1.0
    seed: int = 0
    angle_amplitude_rad: float = 0.35
    root_amplitude_m: float = 0.15

    def __post_init__(self):
        if not self.n_frames >= 1:
            raise ConfigurationError("n_frames must be at least 1")
        if not self.frame_rate_hz > 0:
            raise ConfigurationError("frame_rate_hz must be positive")
        if not 0 < self.motion_bandwidth_hz < self.frame_rate_hz / 2:
            raise ConfigurationError(
                "motion_bandwidth_hz must lie in (0, frame_rate_hz / 2)"
            )
        if not (self.angle_amplitude_rad >= 0 and self.root_amplitude_m >= 0):
            raise ConfigurationError("amplitudes must be non-negative")

    @classmethod
    def from_dict(cls, data: dict) -> "MotionConfig":
        return _from_present_keys(cls, data, "motion",
                                  {"n_frames": whole_count, "seed": _read_seed})


@dataclass(frozen=True)
class CorruptionConfig:
    """Tracker-noise parameters: jitter plus freeze-then-snap occlusions."""

    jitter_sigma: float = 0.01
    occlusion_rate: float = 0.02
    occlusion_duration_frames: tuple[int, int] = (3, 10)
    displacement_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (self.jitter_sigma >= 0 and self.displacement_sigma >= 0):
            raise ConfigurationError("sigmas must be non-negative")
        if not 0.0 <= self.occlusion_rate <= 1.0:
            raise ConfigurationError("occlusion_rate must lie in [0, 1]")
        duration = tuple(int(d) for d in self.occlusion_duration_frames)
        if len(duration) != 2 or not 1 <= duration[0] <= duration[1]:
            raise ConfigurationError(
                "occlusion_duration_frames must be two counts lo, hi with 1 <= lo <= hi"
            )
        object.__setattr__(self, "occlusion_duration_frames", duration)

    @classmethod
    def from_dict(cls, data: dict) -> "CorruptionConfig":
        return _from_present_keys(cls, data, "corruption",
                                  {"occlusion_duration_frames": _whole_counts, "seed": _read_seed})


def _rest_angles(direction) -> tuple[float, float]:
    u = np.asarray(direction, dtype=np.float64)
    u = u / np.linalg.norm(u)
    elevation = float(np.arcsin(np.clip(u[1], -1.0, 1.0)))
    azimuth = float(np.arctan2(u[0], u[2]))
    return azimuth, elevation


def draw_frequency_pool(seed: int, motion_bandwidth_hz: float) -> tuple[float, ...]:
    """The shared sinusoid frequencies implied by a seed, sorted ascending."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x9E3779B9)))
    pool = motion_bandwidth_hz * np.sort(rng.uniform(0.1, 1.0, _SIGNAL_COMPONENTS))
    return tuple(float(f) for f in pool)


def _pool_signal(rng: np.random.Generator, pool: tuple[float, ...], t: np.ndarray,
                 amplitude: float, low_frequency_bias: bool = False) -> np.ndarray:
    """Sum of sinusoids over the pool, random amplitude and phase each.

    Amplitudes decay along the (ascending) pool so most energy sits at the
    low end, as in natural movement; the decay is quadratic for slow-wander
    signals like the root path and linear otherwise.
    """
    out = np.zeros(len(t))
    for i, freq in enumerate(pool):
        weight = 1.0 / (1 + i) ** 2 if low_frequency_bias else 1.0 / (1 + i)
        amp = amplitude * weight * rng.uniform(0.2, 1.0) / len(pool)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += amp * np.sin(2.0 * np.pi * freq * t + phase)
    return out


def generate_ground_truth(cfg: MotionConfig, tree: KinematicTree = DEFAULT_TREE,
                          pool: tuple[float, ...] | None = None) -> SkeletonSequence:
    """Smooth absolute motion whose bone lengths hold exactly in every frame.

    pool: the shared sinusoid frequencies; drawn from cfg's seed when None.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_frames
    t = np.arange(n) / cfg.frame_rate_hz
    if pool is None:
        pool = draw_frequency_pool(cfg.seed, cfg.motion_bandwidth_hz)
    root = np.empty((n, 3))
    for axis in range(3):
        root[:, axis] = _ROOT_BASE[axis] + _pool_signal(
            rng, pool, t, cfg.root_amplitude_m, low_frequency_bias=True
        )

    directions: dict[JointId, np.ndarray] = {}
    for joint in JointId:
        if joint == tree.root:
            continue
        az0, el0 = _rest_angles(_REST_DIRECTIONS[joint])
        azimuth = az0 + _pool_signal(rng, pool, t, cfg.angle_amplitude_rad)
        elevation = el0 + _pool_signal(rng, pool, t, cfg.angle_amplitude_rad)
        cos_el = np.cos(elevation)
        unit = np.stack(
            [cos_el * np.sin(azimuth), np.sin(elevation), cos_el * np.cos(azimuth)],
            axis=1,
        )
        # normalize away the last-ulp drift so bone lengths hold exactly
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        directions[joint] = unit

    data = np.empty((n, 3 * N_JOINTS))
    data[:, joint_slice(tree.root)] = root
    for joint in tree.topological_order()[1:]:
        parent = tree.parent_of(joint)
        data[:, joint_slice(joint)] = (
            data[:, joint_slice(parent)] + DEFAULT_BONE_LENGTHS[joint] * directions[joint]
        )
    return SkeletonSequence(data, Encoding.ABSOLUTE, cfg.frame_rate_hz)


def corrupt(seq: SkeletonSequence, cfg: CorruptionConfig) -> SkeletonSequence:
    """Apply the tracker-noise model; identity under an all-zero config.

    Occlusion episodes freeze a joint at its entry position plus a random
    displacement for the episode duration, then snap back; jitter rides on
    top of everything. Jitter and occlusion draw from independent
    sub-streams of the seed, so disabling one leaves the other unchanged.
    """
    if seq.encoding is not Encoding.ABSOLUTE:
        raise EncodingError("corrupt expects an absolute sequence")
    jitter_seed, occlusion_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    data = seq.data.copy()
    n = len(seq)

    if cfg.occlusion_rate > 0.0:
        rng = np.random.default_rng(occlusion_seed)
        onset = rng.random((n, N_JOINTS))
        lo, hi = cfg.occlusion_duration_frames
        for joint in range(N_JOINTS):
            cols = joint_slice(JointId(joint))
            t = 0
            while t < n:
                if onset[t, joint] < cfg.occlusion_rate:
                    duration = int(rng.integers(lo, hi + 1))
                    displacement = rng.normal(0.0, cfg.displacement_sigma, size=3)
                    end = min(t + duration, n)
                    data[t:end, cols] = seq.data[t, cols] + displacement
                    t = end
                else:
                    t += 1

    if cfg.jitter_sigma > 0.0:
        rng = np.random.default_rng(jitter_seed)
        data += rng.normal(0.0, cfg.jitter_sigma, size=data.shape)

    return seq.with_data(data)


@dataclass(frozen=True)
class SequencePair:
    """A corrupted sequence aligned with its clean ground truth."""

    corrupted: SkeletonSequence
    clean: SkeletonSequence

    def __post_init__(self):
        if len(self.corrupted) != len(self.clean):
            raise ValueError("corrupted and clean sequences must have equal length")


SPLIT_NAMES = ("train", "validation", "test")


class Corpus:
    """Paired train/validation/test splits and the configs that made them.

    Each split is given as a SequencePair or as a function that returns
    one; a function is called when its split is first used, and its pair
    kept. read_corpus passes functions, so a command reads only the split
    files it uses.
    """

    def __init__(
        self,
        train: SequencePair | Callable[[], SequencePair],
        validation: SequencePair | Callable[[], SequencePair],
        test: SequencePair | Callable[[], SequencePair],
        motion_config: MotionConfig,
        corruption_config: CorruptionConfig,
        split_ratios: tuple[float, float, float],
    ):
        self._splits = {"train": train, "validation": validation, "test": test}
        self.motion_config = motion_config
        self.corruption_config = corruption_config
        self.split_ratios = split_ratios

    def _split(self, name: str) -> SequencePair:
        pair = self._splits[name]
        if not isinstance(pair, SequencePair):
            pair = self._splits[name] = pair()
        return pair

    @property
    def train(self) -> SequencePair:
        return self._split("train")

    @property
    def validation(self) -> SequencePair:
        return self._split("validation")

    @property
    def test(self) -> SequencePair:
        return self._split("test")

    def splits(self) -> dict[str, SequencePair]:
        return {name: self._split(name) for name in SPLIT_NAMES}


def read_split_ratios(raw) -> tuple[float, float, float]:
    """Three positive finite numbers that sum to 1, as floats."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ConfigurationError(f"split_ratios must be a list of 3 numbers, got {raw!r}")
    ratios = tuple(real_number(r, "split_ratios entry") for r in raw)
    if not all(r > 0 for r in ratios):
        raise ConfigurationError("split ratios must be positive")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ConfigurationError(f"split ratios must sum to 1, got {sum(ratios)}")
    return ratios


def split_frame_counts(total: int, ratios) -> tuple[int, int, int]:
    ratios = read_split_ratios(ratios)
    try:
        n_train = round(ratios[0] * total)
        n_val = round(ratios[1] * total)
    except OverflowError as exc:
        raise ConfigurationError(f"{total} frames are too many to split") from exc
    n_test = total - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ConfigurationError("every split needs at least one frame")
    return n_train, n_val, n_test


def build_corpus(
    motion_cfg: MotionConfig,
    corruption_cfg: CorruptionConfig,
    split_ratios=DEFAULT_SPLIT_RATIOS,
    tree: KinematicTree = DEFAULT_TREE,
) -> Corpus:
    """Paired (corrupted, clean) train/validation/test sequences.

    Each split is generated independently with seeds derived from the two
    config seeds, so splits share motion statistics but not trajectories.
    Corruption that draws a joint value beyond VALUE_LIMIT raises
    NumericalError, so no corpus is built that the reader would refuse.
    """
    split_ratios = read_split_ratios(split_ratios)
    counts = split_frame_counts(motion_cfg.n_frames, split_ratios)
    motion_seeds = np.random.SeedSequence(motion_cfg.seed).generate_state(3)
    corruption_seeds = np.random.SeedSequence(corruption_cfg.seed).generate_state(3)
    # one frequency pool for all splits: train must cover the test manifold
    pool = draw_frequency_pool(motion_cfg.seed, motion_cfg.motion_bandwidth_hz)
    pairs = {}
    for i, (name, n_frames) in enumerate(zip(SPLIT_NAMES, counts)):
        split_motion = replace(motion_cfg, n_frames=n_frames, seed=int(motion_seeds[i]))
        split_corruption = replace(corruption_cfg, seed=int(corruption_seeds[i]))
        clean = generate_ground_truth(split_motion, tree, pool)
        corrupted = corrupt(clean, split_corruption)
        if np.abs(corrupted.data).max() > VALUE_LIMIT:
            raise NumericalError(f"corrupted {name} split exceeds ±{VALUE_LIMIT:g}: lower sigmas")
        pairs[name] = SequencePair(corrupted, clean)
    return Corpus(
        train=pairs["train"],
        validation=pairs["validation"],
        test=pairs["test"],
        motion_config=motion_cfg,
        corruption_config=corruption_cfg,
        split_ratios=split_ratios,
    )


MANIFEST_NAME = "manifest.json"


def write_corpus(corpus: Corpus, out_dir) -> Path:
    """Write the six sequence files plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": 1,
        "motion_config": asdict(corpus.motion_config),
        "corruption_config": asdict(corpus.corruption_config),
        "split_ratios": list(corpus.split_ratios),
        "splits": {},
    }
    for name, pair in corpus.splits().items():
        corrupted_name = f"{name}.corrupted.jsonl"
        clean_name = f"{name}.clean.jsonl"
        seqio.write_sequence(out_dir / corrupted_name, pair.corrupted)
        seqio.write_sequence(out_dir / clean_name, pair.clean)
        manifest["splits"][name] = {
            "corrupted": corrupted_name,
            "clean": clean_name,
            "n_frames": len(pair.clean),
        }
    manifest_path = out_dir / MANIFEST_NAME
    with seqio.atomic_open(manifest_path) as fh:
        fh.write(json.dumps(manifest, indent=2))
    return manifest_path


def _read_pair(corrupted_path: Path, clean_path: Path) -> SequencePair:
    # seqio.read_sequence is looked up here, when the split is first used
    corrupted = seqio.read_sequence(corrupted_path)
    clean = seqio.read_sequence(clean_path)
    try:
        return SequencePair(corrupted, clean)
    except ValueError as exc:
        raise DataError(f"{corrupted_path} and {clean_path}: {exc}") from exc


def read_corpus(corpus_dir) -> Corpus:
    """The corpus written by write_corpus.

    The manifest is read and checked here; each split's two sequence files
    are read when the split is first used, and a malformed file or a pair
    of unequal length raises DataError then.
    """
    corpus_dir = Path(corpus_dir)
    manifest_path = corpus_dir / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read corpus manifest {manifest_path}: {exc}") from exc
    try:
        splits = manifest["splits"]
        readers = {}
        for name in SPLIT_NAMES:
            files = splits[name]["corrupted"], splits[name]["clean"]
            if not all(isinstance(f, str) and f.isprintable() for f in files):
                raise DataError(f"{manifest_path}: bad {name} split file names {files!r}")
            readers[name] = partial(_read_pair, *(corpus_dir / f for f in files))
        return Corpus(
            **readers,
            motion_config=MotionConfig.from_dict(manifest["motion_config"]),
            corruption_config=CorruptionConfig.from_dict(manifest["corruption_config"]),
            split_ratios=read_split_ratios(manifest["split_ratios"]),
        )
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise DataError(f"corpus manifest {manifest_path} is malformed: {exc}") from exc
