import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelrefine.errors import (
    DimensionError,
    EncodingError,
    InsufficientFramesError,
)
from skelrefine.metrics import (
    EvalReport,
    aje,
    aje_histogram,
    ape,
    evaluate,
    histogram_bin_edges,
    jerk,
    jerk_error,
    write_histogram_csv,
)
from skelrefine.skeleton import POSE_DIM, Encoding, SkeletonSequence

from conftest import random_absolute_sequence, smooth_absolute_sequence


def _seq(data, rate=30.0, encoding=Encoding.ABSOLUTE):
    return SkeletonSequence(np.asarray(data, dtype=float), encoding, rate)


class TestApe:
    def test_zero_for_identical_sequences(self):
        rng = np.random.default_rng(1)
        seq = random_absolute_sequence(rng, 10)
        assert ape(seq, seq) == 0.0

    def test_constant_offset_gives_offset_norm(self):
        rng = np.random.default_rng(2)
        truth = random_absolute_sequence(rng, 12)
        offset = np.tile([0.03, 0.0, 0.0], 16)
        pred = _seq(truth.data + offset)
        assert abs(ape(pred, truth) - 0.03) < 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(21)
        truth = random_absolute_sequence(rng, 9)
        delta = np.array([0.01, -0.02, 0.005])
        pred = _seq(truth.data + np.tile(delta, 16))
        assert abs(ape(pred, truth) - np.linalg.norm(delta)) < 1e-12

    def test_matches_flat_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        pred = random_absolute_sequence(rng, 7)
        truth = random_absolute_sequence(rng, 7)
        total = 0.0
        for t in range(7):
            for j in range(16):
                d = pred.data[t, 3 * j : 3 * j + 3] - truth.data[t, 3 * j : 3 * j + 3]
                total += np.sqrt(np.sum(d * d))
        assert abs(ape(pred, truth) - total / (7 * 16)) < 1e-12

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DimensionError):
            ape(random_absolute_sequence(rng, 5), random_absolute_sequence(rng, 6))

    def test_relative_encoding_rejected(self):
        seq = _seq(np.zeros((5, POSE_DIM)), encoding=Encoding.RELATIVE)
        with pytest.raises(EncodingError):
            ape(seq, seq)


class TestJerk:
    def test_annihilates_constant_linear_quadratic(self):
        t = np.arange(50, dtype=float)
        rng = np.random.default_rng(5)
        a = rng.uniform(-0.01, 0.01, POSE_DIM)
        b = rng.uniform(-0.05, 0.05, POSE_DIM)
        c = rng.uniform(-0.5, 0.5, POSE_DIM)
        quadratic = a * t[:, None] ** 2 + b * t[:, None] + c
        assert np.max(np.abs(jerk(_seq(quadratic)))) < 1e-12

    def test_cubic_has_constant_jerk_six(self):
        t = np.arange(30, dtype=float)
        data = np.tile(t[:, None] ** 3, (1, POSE_DIM))
        assert np.array_equal(jerk(_seq(data)), np.full((27, POSE_DIM), 6.0))

    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(6)
        seq = random_absolute_sequence(rng, 20)
        expected = np.empty((17, POSE_DIM))
        for j in range(POSE_DIM):
            # convolve each track with [1, -3, 3, -1], keeping valid frames
            expected[:, j] = np.convolve(seq.data[:, j], [1.0, -3.0, 3.0, -1.0], "full")[3:20]
        assert np.max(np.abs(jerk(seq) - expected)) < 1e-12

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientFramesError):
            jerk(_seq(np.zeros((3, POSE_DIM))))


class TestJerkError:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(8)
        seq = random_absolute_sequence(rng, 10)
        assert np.array_equal(jerk_error(seq, seq), np.zeros((7, POSE_DIM)))

    def test_constant_offset_annihilated(self):
        rng = np.random.default_rng(9)
        truth = random_absolute_sequence(rng, 10)
        pred = _seq(truth.data + 0.25)
        assert np.max(jerk_error(pred, truth)) < 1e-12

    def test_alternating_disturbance_matches_direct_computation(self):
        rng = np.random.default_rng(10)
        truth = smooth_absolute_sequence(rng, 16)
        amplitude = 0.02
        signs = (-1.0) ** np.arange(16)
        pred_data = truth.data.copy()
        pred_data[:, 5] += amplitude * signs
        je = jerk_error(_seq(pred_data), truth)
        # the alternation's own third difference, computed directly
        alt = amplitude * signs
        expected = np.abs(alt[3:] - 3 * alt[2:-1] + 3 * alt[1:-2] - alt[:-3])
        assert np.max(np.abs(je[:, 5] - expected)) < 1e-12
        others = np.delete(je, 5, axis=1)
        assert np.max(others) < 1e-12


class TestAje:
    def test_zero_for_identical_and_offset(self):
        rng = np.random.default_rng(11)
        truth = random_absolute_sequence(rng, 12)
        assert aje(truth, truth) == 0.0
        assert aje(_seq(truth.data + 0.1), truth) < 1e-12

    def test_matches_flat_loop_oracle(self):
        rng = np.random.default_rng(12)
        pred = random_absolute_sequence(rng, 11)
        truth = random_absolute_sequence(rng, 11)
        je = jerk_error(pred, truth)
        total = 0.0
        for t in range(je.shape[0]):
            for j in range(POSE_DIM):
                total += je[t, j]
        assert abs(aje(pred, truth) - total / je.size) < 1e-12

    def test_non_negative_and_zero_iff_equal_jerks(self):
        rng = np.random.default_rng(13)
        pred = random_absolute_sequence(rng, 9)
        truth = random_absolute_sequence(rng, 9)
        value = aje(pred, truth)
        assert value >= 0.0
        assert (value == 0.0) == np.array_equal(jerk(pred), jerk(truth))


class TestHistogram:
    def test_all_bins_zero_for_identical(self):
        rng = np.random.default_rng(14)
        seq = random_absolute_sequence(rng, 10)
        assert np.array_equal(aje_histogram(seq, seq), np.zeros(10))

    def test_single_large_error_lands_in_last_bin(self):
        rng = np.random.default_rng(15)
        truth = smooth_absolute_sequence(rng, 20)
        pred_data = truth.data.copy()
        # a spike on the final frame perturbs exactly one jerk value
        pred_data[-1, 7] += 0.5
        hist = aje_histogram(_seq(pred_data), truth)
        m = (20 - 3) * POSE_DIM
        assert abs(hist[9] - 0.5 / m) < 1e-15
        assert np.max(np.abs(hist[:9])) == 0.0

    def test_bin_edges(self):
        edges = histogram_bin_edges()
        assert edges[0] == (0.0, 0.03)
        assert edges[8] == (pytest.approx(0.24), pytest.approx(0.27))
        assert edges[9][0] == pytest.approx(0.27)
        assert edges[9][1] == float("inf")

    def test_bins_sum_to_aje(self):
        rng = np.random.default_rng(16)
        pred = random_absolute_sequence(rng, 40)
        truth = random_absolute_sequence(rng, 40)
        assert abs(aje_histogram(pred, truth).sum() - aje(pred, truth)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        pred = random_absolute_sequence(rng, 12, scale=0.05)
        truth = random_absolute_sequence(rng, 12, scale=0.05)
        hist = aje_histogram(pred, truth)
        assert np.all(hist >= 0.0)
        assert abs(hist.sum() - aje(pred, truth)) < 1e-12


class TestEvalReport:
    def test_evaluate_bundles_metrics(self):
        rng = np.random.default_rng(17)
        pred = random_absolute_sequence(rng, 15)
        truth = random_absolute_sequence(rng, 15)
        report = evaluate(pred, truth)
        assert report.ape == ape(pred, truth)
        assert report.aje == aje(pred, truth)
        assert report.m == (15 - 3) * POSE_DIM
        assert np.allclose(report.histogram, aje_histogram(pred, truth), rtol=0, atol=0)

    def test_json_round_trip(self):
        rng = np.random.default_rng(18)
        pred = random_absolute_sequence(rng, 8)
        truth = random_absolute_sequence(rng, 8)
        report = evaluate(pred, truth)
        data = report.to_json_dict()
        assert data["ape"] == report.ape
        assert len(data["histogram"]) == 10

    def test_histogram_csv(self, tmp_path):
        rng = np.random.default_rng(19)
        pred = random_absolute_sequence(rng, 8)
        truth = random_absolute_sequence(rng, 8)
        report = evaluate(pred, truth)
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lower,bin_upper,value"
        assert len(lines) == 11
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values == list(report.histogram)

    def test_invalid_report_rejected(self):
        with pytest.raises(ValueError):
            EvalReport(ape=0.0, aje=0.0, histogram=(0.0,) * 9, m=10)
        with pytest.raises(ValueError):
            EvalReport(ape=0.0, aje=0.0, histogram=(-1.0,) + (0.0,) * 9, m=10)
