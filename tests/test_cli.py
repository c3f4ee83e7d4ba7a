import csv
import json

import numpy as np
import pytest

from skelrefine import drnn, metrics, seqio
from skelrefine.cli import main

TOY_CONFIG = {
    "paths": {"corpus": "corpus", "models": "models", "outputs": "out"},
    "corpus": {
        "total_frames": 200,
        "split_ratios": [0.6, 0.2, 0.2],
        "frame_rate_hz": 30.0,
        "motion_bandwidth_hz": 0.8,
        "seed": 11,
        "corruption": {
            "jitter_sigma": 0.01,
            "occlusion_rate": 0.02,
            "occlusion_duration_frames": [3, 6],
            "displacement_sigma": 0.1,
            "seed": 12,
        },
    },
    "pdrnn": {"hidden_sizes": [10, 10], "recurrent_layer_index": 2,
              "window_length": 7, "seed": 1, "max_iterations": 8},
    "vdrnn": {"hidden_sizes": [8, 8], "recurrent_layer_index": 1,
              "window_length": 10, "seed": 2, "max_iterations": 6},
    "vdrnn_plus": {"hidden_sizes": [8, 8], "recurrent_layer_index": 1,
                   "window_length": 10, "seed": 3, "max_iterations": 6},
    "optimizer": {"max_iterations": 10},
    "fusion": {"k": 20, "theta": 0.05, "theta_plus": 0.05},
    "variants": ["raw", "pdrnn", "sknn", "kf", "sknnkf"],
}


@pytest.fixture
def workspace(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TOY_CONFIG))
    return tmp_path, config_path


def run(*argv):
    return main([str(a) for a in argv])


class TestSynthCommand:
    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert run("synth", "--config", tmp_path / "nope.json") == 1

    def test_empty_config_is_usage_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert run("synth", "--config", path) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert run() == 1

    def test_synth_writes_manifest_listing_every_file(self, workspace, capsys):
        tmp_path, config = workspace
        assert run("synth", "--config", config) == 0
        out = json.loads(capsys.readouterr().out)
        corpus_dir = tmp_path / "corpus"
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        listed = {
            entry[kind]
            for entry in manifest["splits"].values()
            for kind in ("corrupted", "clean")
        }
        present = {p.name for p in corpus_dir.iterdir()} - {"manifest.json"}
        assert listed == present
        assert out["frames"] == {"train": 120, "validation": 40, "test": 40}

    def test_synth_twice_is_byte_identical(self, workspace):
        tmp_path, config = workspace
        assert run("synth", "--config", config, "--out", tmp_path / "c1") == 0
        assert run("synth", "--config", config, "--out", tmp_path / "c2") == 0
        for name in sorted(p.name for p in (tmp_path / "c1").iterdir()):
            assert (tmp_path / "c1" / name).read_bytes() == (tmp_path / "c2" / name).read_bytes()

    def test_seed_override_changes_the_corpus(self, workspace):
        tmp_path, config = workspace
        assert run("synth", "--config", config, "--out", tmp_path / "c1") == 0
        assert run("synth", "--config", config, "--seed", 999, "--out", tmp_path / "c3") == 0
        a = (tmp_path / "c1" / "train.clean.jsonl").read_bytes()
        b = (tmp_path / "c3" / "train.clean.jsonl").read_bytes()
        assert a != b


class TestTrainCommand:
    def test_wrong_order_is_dependency_error(self, workspace, capsys):
        _, config = workspace
        assert run("synth", "--config", config) == 0
        code = run("train", "--config", config, "--which", "vdrnn")
        assert code == 2
        assert "pdrnn" in capsys.readouterr().err

    def test_trains_in_dependency_order_writing_artifacts(self, workspace, capsys):
        tmp_path, config = workspace
        assert run("synth", "--config", config) == 0
        capsys.readouterr()
        for which in ("pdrnn", "vdrnn", "vdrnn_plus"):
            assert run("train", "--config", config, "--which", which) == 0
            summary = json.loads(capsys.readouterr().out)
            checkpoint = tmp_path / "models" / f"{which}.json"
            loss_csv = tmp_path / "models" / f"{which}_loss.csv"
            assert checkpoint.exists()
            assert loss_csv.exists()
            with loss_csv.open() as fh:
                rows = list(csv.reader(fh))
            assert rows[0][0] == "iteration"
            assert len(rows) - 1 == summary["iterations"] + 1
        # the vdrnn_plus stage persists the fitted covariances
        assert (tmp_path / "models" / "kalman.json").exists()


class TestRefineAndEval:
    @pytest.fixture
    def trained(self, workspace):
        tmp_path, config = workspace
        assert run("synth", "--config", config) == 0
        for which in ("pdrnn", "vdrnn", "vdrnn_plus"):
            assert run("train", "--config", config, "--which", which) == 0
        return tmp_path, config

    def test_unknown_variant_is_usage_error(self, trained):
        tmp_path, config = trained
        code = run(
            "refine", "--config", config, "--variant", "sideways",
            "--input", tmp_path / "corpus" / "test.corrupted.jsonl",
        )
        assert code == 1

    def test_refine_raw_matches_input_semantically(self, trained, capsys):
        tmp_path, config = trained
        source = tmp_path / "corpus" / "test.corrupted.jsonl"
        out = tmp_path / "out" / "raw.jsonl"
        assert run("refine", "--config", config, "--variant", "raw",
                   "--input", source, "--out", out) == 0
        a = seqio.read_sequence(source)
        b = seqio.read_sequence(out)
        assert np.array_equal(a.data, b.data)
        assert a.frame_rate_hz == b.frame_rate_hz

    def test_refine_missing_checkpoint_names_stage(self, workspace, capsys):
        tmp_path, config = workspace
        assert run("synth", "--config", config) == 0
        code = run(
            "refine", "--config", config, "--variant", "pdrnn",
            "--input", tmp_path / "corpus" / "test.corrupted.jsonl",
        )
        assert code == 2
        assert "pdrnn" in capsys.readouterr().err

    @pytest.mark.parametrize("malformed", [
        "payload_list", "payload_string", "config_string", "arrays_list", "entry_string",
        "data_string",
    ])
    def test_malformed_checkpoint_is_one_line_data_error(self, workspace, capsys, malformed):
        tmp_path, config = workspace
        assert run("synth", "--config", config) == 0
        checkpoint = tmp_path / "models" / "pdrnn.json"
        checkpoint.parent.mkdir()
        cfg = drnn.DrnnConfig(hidden_sizes=(4, 4), recurrent_layer_index=1)
        drnn.save_checkpoint(checkpoint, drnn.init_params(cfg))
        payload = json.loads(checkpoint.read_text())
        if malformed == "payload_list":
            payload = []
        elif malformed == "payload_string":
            payload = "x"
        elif malformed == "config_string":
            payload["config"] = "x"
        elif malformed == "arrays_list":
            payload["arrays"] = []
        elif malformed == "entry_string":
            payload["arrays"]["recurrent"] = "x"
        else:
            payload["arrays"]["recurrent"]["data"] = "x"
        checkpoint.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run(
            "refine", "--config", config, "--variant", "pdrnn",
            "--input", tmp_path / "corpus" / "test.corrupted.jsonl",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_refine_then_eval_round_trip(self, trained, capsys):
        tmp_path, config = trained
        source = tmp_path / "corpus" / "test.corrupted.jsonl"
        truth = tmp_path / "corpus" / "test.clean.jsonl"
        refined = tmp_path / "out" / "sknn.jsonl"
        assert run("refine", "--config", config, "--variant", "sknn",
                   "--input", source, "--out", refined) == 0
        capsys.readouterr()
        hist_csv = tmp_path / "out" / "hist.csv"
        assert run("eval", "--pred", refined, "--truth", truth, "--out", hist_csv) == 0
        report = json.loads(capsys.readouterr().out)
        pred_seq = seqio.read_sequence(refined)
        truth_seq = seqio.read_sequence(truth)
        direct = metrics.evaluate(pred_seq, truth_seq)
        assert report["ape"] == direct.ape
        assert report["aje"] == direct.aje
        assert report["histogram"] == list(direct.histogram)
        with hist_csv.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 11

    def test_eval_identical_files_is_all_zero(self, trained, capsys):
        tmp_path, config = trained
        truth = tmp_path / "corpus" / "test.clean.jsonl"
        assert run("eval", "--pred", truth, "--truth", truth) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ape"] == 0.0
        assert report["aje"] == 0.0
        assert report["histogram"] == [0.0] * 10

    def test_eval_mismatched_lengths_is_data_error(self, trained, capsys):
        tmp_path, config = trained
        assert run("eval", "--pred", tmp_path / "corpus" / "test.clean.jsonl",
                   "--truth", tmp_path / "corpus" / "train.clean.jsonl") == 2

    def test_refined_outputs_parse_back(self, trained):
        tmp_path, config = trained
        source = tmp_path / "corpus" / "test.corrupted.jsonl"
        for variant in ("pdrnn", "kf", "sknnkf"):
            out = tmp_path / "out" / f"{variant}.jsonl"
            assert run("refine", "--config", config, "--variant", variant,
                       "--input", source, "--out", out) == 0
            seq = seqio.read_sequence(out)
            assert len(seq) == 40
