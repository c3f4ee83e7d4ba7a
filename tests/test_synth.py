import json
from dataclasses import asdict

import numpy as np
import pytest

from skelrefine.errors import ConfigurationError, DataError
from skelrefine.metrics import aje, ape
from skelrefine.skeleton import (
    DEFAULT_TREE,
    N_JOINTS,
    Encoding,
    JointId,
    joint_slice,
    velocities,
)
from skelrefine.synth import (
    DEFAULT_BONE_LENGTHS,
    DEFAULT_SPLIT_RATIOS,
    CorruptionConfig,
    MotionConfig,
    build_corpus,
    corrupt,
    draw_frequency_pool,
    generate_ground_truth,
    read_corpus,
    split_frame_counts,
    write_corpus,
)


class TestMotionConfig:
    def test_bandwidth_must_respect_nyquist(self):
        with pytest.raises(ConfigurationError):
            MotionConfig(n_frames=10, frame_rate_hz=30.0, motion_bandwidth_hz=15.0)

    def test_round_trip_through_dict(self):
        cfg = MotionConfig(n_frames=50, seed=3, motion_bandwidth_hz=0.7)
        assert MotionConfig.from_dict(asdict(cfg)) == cfg

    def test_from_dict_defaults_absent_keys_and_ignores_removed_settings(self):
        # a manifest that records bone_lengths or frequency_pool_hz still loads
        cfg = MotionConfig(n_frames=50, seed=3)
        old = {"n_frames": 50, "seed": 3, "bone_lengths": {"neck": 0.12},
               "frequency_pool_hz": None}
        assert MotionConfig.from_dict(old) == cfg
        assert CorruptionConfig.from_dict({"seed": 2}) == CorruptionConfig(seed=2)

    @pytest.mark.parametrize("key,value", [
        ("frame_rate_hz", True), ("motion_bandwidth_hz", "0.8"),
        ("angle_amplitude_rad", float("nan")), ("root_amplitude_m", float("inf")),
    ])
    def test_from_dict_takes_finite_numbers_only(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            MotionConfig.from_dict({"n_frames": 50, key: value})


class TestGroundTruth:
    def test_zero_amplitudes_give_constant_standing_pose(self):
        cfg = MotionConfig(n_frames=20, seed=1, angle_amplitude_rad=0.0,
                           root_amplitude_m=0.0)
        seq = generate_ground_truth(cfg)
        assert np.max(np.abs(velocities(seq))) == 0.0

    def test_bone_lengths_preserved_exactly(self):
        cfg = MotionConfig(n_frames=120, seed=2)
        seq = generate_ground_truth(cfg)
        for joint in JointId:
            if joint == JointId.SPINEMID:
                continue
            parent = DEFAULT_TREE.parent_of(joint)
            bones = seq.data[:, joint_slice(joint)] - seq.data[:, joint_slice(parent)]
            lengths = np.linalg.norm(bones, axis=1)
            assert np.max(np.abs(lengths - DEFAULT_BONE_LENGTHS[joint])) < 1e-9

    def test_self_aje_is_zero(self):
        seq = generate_ground_truth(MotionConfig(n_frames=30, seed=3))
        assert aje(seq, seq) == 0.0

    def test_deterministic_per_seed(self):
        cfg = MotionConfig(n_frames=25, seed=4)
        a = generate_ground_truth(cfg)
        b = generate_ground_truth(cfg)
        assert np.array_equal(a.data, b.data)
        c = generate_ground_truth(MotionConfig(n_frames=25, seed=5))
        assert not np.array_equal(a.data, c.data)

    def test_pinned_single_frequency_pool_makes_motion_periodic(self):
        # one shared 0.2 Hz sinusoid per signal: the whole pose trajectory
        # repeats every 150 frames at 30 fps
        seq = generate_ground_truth(MotionConfig(n_frames=310, seed=6), pool=(0.2,))
        assert np.max(np.abs(seq.data[:150] - seq.data[150:300])) < 1e-9


class TestCorrupt:
    def test_all_zero_config_is_identity(self):
        seq = generate_ground_truth(MotionConfig(n_frames=15, seed=7))
        cfg = CorruptionConfig(jitter_sigma=0.0, occlusion_rate=0.0,
                               displacement_sigma=0.0, seed=1)
        assert np.array_equal(corrupt(seq, cfg).data, seq.data)

    def test_jitter_only_ape_matches_chi_mean(self):
        # E||N(0, s^2 I3)|| = s * sqrt(8 / pi)
        seq = generate_ground_truth(MotionConfig(n_frames=700, seed=8))
        cfg = CorruptionConfig(jitter_sigma=0.01, occlusion_rate=0.0, seed=2)
        noisy = corrupt(seq, cfg)
        expected = 0.01 * np.sqrt(8.0 / np.pi)
        measured = ape(noisy, seq)
        assert abs(measured - expected) < 0.1 * expected

    def test_occlusions_increase_aje_beyond_jitter_alone(self):
        seq = generate_ground_truth(MotionConfig(n_frames=400, seed=9))
        jitter_only = corrupt(seq, CorruptionConfig(jitter_sigma=0.01,
                                                    occlusion_rate=0.0, seed=3))
        with_occlusions = corrupt(
            seq,
            CorruptionConfig(jitter_sigma=0.01, occlusion_rate=0.05,
                             displacement_sigma=0.1, seed=3),
        )
        assert aje(with_occlusions, seq) > aje(jitter_only, seq)

    def test_jitter_stream_independent_of_occlusion_settings(self):
        # same seed, occlusion toggled: jitter pattern must not shift
        seq = generate_ground_truth(MotionConfig(n_frames=100, seed=10))
        a = corrupt(seq, CorruptionConfig(jitter_sigma=0.01, occlusion_rate=0.0, seed=4))
        b = corrupt(seq, CorruptionConfig(jitter_sigma=0.01, occlusion_rate=0.5,
                                          displacement_sigma=0.0,
                                          occlusion_duration_frames=(1, 1), seed=4))
        # occluded joints freeze but unoccluded frames carry identical jitter
        jitter_a = a.data - seq.data
        assert np.array_equal(a.data.shape, b.data.shape)
        assert np.max(np.abs(jitter_a)) < 0.01 * 6

    def test_occlusion_freezes_then_snaps_back(self):
        seq = generate_ground_truth(MotionConfig(n_frames=200, seed=11))
        cfg = CorruptionConfig(jitter_sigma=0.0, occlusion_rate=0.02,
                               occlusion_duration_frames=(5, 5),
                               displacement_sigma=0.05, seed=5)
        noisy = corrupt(seq, cfg)
        diff = noisy.data - seq.data
        corrupted_frames = np.any(diff != 0.0, axis=1)
        assert corrupted_frames.any()
        assert not corrupted_frames.all()
        # during an episode the reported joint is constant
        for joint in range(N_JOINTS):
            cols = noisy.data[:, 3 * joint : 3 * joint + 3]
            bad = np.any(diff[:, 3 * joint : 3 * joint + 3] != 0.0, axis=1)
            runs = np.flatnonzero(bad)
            if runs.size >= 2 and (runs[1] == runs[0] + 1):
                assert np.array_equal(cols[runs[0]], cols[runs[1]])
                break

    def test_deterministic(self):
        seq = generate_ground_truth(MotionConfig(n_frames=50, seed=12))
        cfg = CorruptionConfig(seed=6)
        assert np.array_equal(corrupt(seq, cfg).data, corrupt(seq, cfg).data)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            CorruptionConfig(occlusion_rate=1.5)
        with pytest.raises(ConfigurationError):
            CorruptionConfig(jitter_sigma=-0.1)
        with pytest.raises(ConfigurationError):
            CorruptionConfig(occlusion_duration_frames=(0, 4))


class TestCorruptionConfig:
    @pytest.mark.parametrize("key,value", [
        ("jitter_sigma", float("nan")), ("jitter_sigma", "0.01"), ("occlusion_rate", True),
        ("displacement_sigma", -float("inf")),
    ])
    def test_from_dict_takes_finite_numbers_only(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            CorruptionConfig.from_dict({key: value})

    @pytest.mark.parametrize("duration", [(2, 1), (0, 3), (3, 6, 9), (3,)])
    def test_occlusion_duration_is_an_ordered_pair_from_one(self, duration):
        with pytest.raises(ConfigurationError, match="occlusion_duration_frames"):
            CorruptionConfig.from_dict({"occlusion_duration_frames": list(duration)})


class TestCorpus:
    def test_split_ratio_validation(self):
        with pytest.raises(ConfigurationError):
            split_frame_counts(100, (0.5, 0.2, 0.2))
        with pytest.raises(ConfigurationError):
            split_frame_counts(100, (0.5, 0.5))
        assert split_frame_counts(7300, DEFAULT_SPLIT_RATIOS) == (5000, 800, 1500)

    def test_build_corpus_counts_and_determinism(self):
        motion = MotionConfig(n_frames=100, seed=13)
        corruption = CorruptionConfig(seed=7)
        a = build_corpus(motion, corruption, (0.6, 0.2, 0.2))
        b = build_corpus(motion, corruption, (0.6, 0.2, 0.2))
        assert len(a.train.clean) == 60
        assert len(a.validation.clean) == 20
        assert len(a.test.clean) == 20
        for name in ("train", "validation", "test"):
            assert np.array_equal(a.splits()[name].clean.data, b.splits()[name].clean.data)
            assert np.array_equal(
                a.splits()[name].corrupted.data, b.splits()[name].corrupted.data
            )

    def test_splits_share_the_frequency_pool_but_not_trajectories(self):
        motion = MotionConfig(n_frames=90, seed=14)
        corpus = build_corpus(motion, CorruptionConfig(seed=8), (1 / 3, 1 / 3, 1 / 3))
        assert not np.array_equal(corpus.train.clean.data[:30], corpus.test.clean.data[:30])
        pool = draw_frequency_pool(motion.seed, motion.motion_bandwidth_hz)
        assert all(f <= motion.motion_bandwidth_hz for f in pool)

    def test_window_count_identity_per_split(self):
        from skelrefine.drnn import batch_from_streams

        corpus = build_corpus(MotionConfig(n_frames=100, seed=15),
                              CorruptionConfig(seed=9), (0.6, 0.2, 0.2))
        clean = corpus.train.clean.data
        windows = batch_from_streams(clean, clean, 7).inputs
        assert windows.shape[0] == 60 - 7 + 1

    def test_write_read_round_trip_and_manifest_lists_files(self, tmp_path):
        corpus = build_corpus(MotionConfig(n_frames=60, seed=16),
                              CorruptionConfig(seed=10), (0.5, 0.25, 0.25))
        manifest_path = write_corpus(corpus, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        emitted = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
        listed = {
            entry[kind]
            for entry in manifest["splits"].values()
            for kind in ("corrupted", "clean")
        }
        assert listed == emitted
        back = read_corpus(tmp_path)
        for name in ("train", "validation", "test"):
            assert np.array_equal(
                back.splits()[name].clean.data, corpus.splits()[name].clean.data
            )
        assert back.motion_config == corpus.motion_config
        assert back.corruption_config == corpus.corruption_config

    def test_read_corpus_reads_each_split_on_first_use(self, tmp_path):
        corpus = build_corpus(MotionConfig(n_frames=60, seed=16),
                              CorruptionConfig(seed=10), (0.5, 0.25, 0.25))
        write_corpus(corpus, tmp_path)
        (tmp_path / "test.clean.jsonl").unlink()
        lines = (tmp_path / "validation.clean.jsonl").read_text().splitlines(keepends=True)
        (tmp_path / "validation.clean.jsonl").write_text("".join(lines[:-1]))
        back = read_corpus(tmp_path)
        assert np.array_equal(back.train.corrupted.data, corpus.train.corrupted.data)
        assert back.train is back.train
        with pytest.raises(DataError, match="test.clean.jsonl"):
            back.test
        with pytest.raises(DataError, match="equal length"):
            back.validation

    def test_malformed_manifest_is_rejected_before_any_split_is_read(self, tmp_path):
        corpus = build_corpus(MotionConfig(n_frames=60, seed=16),
                              CorruptionConfig(seed=10), (0.5, 0.25, 0.25))
        manifest_path = write_corpus(corpus, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        manifest["splits"]["test"] = {"corrupted": "test.corrupted.jsonl"}
        manifest_path.write_text(json.dumps(manifest))
        for path in tmp_path.glob("*.jsonl"):
            path.unlink()
        with pytest.raises(DataError, match="malformed"):
            read_corpus(tmp_path)
