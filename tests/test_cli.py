import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skelrefine
from skelrefine import cli, drnn, errors, fusion, metrics, seqio, synth
from skelrefine.cli import main
from skelrefine.optim import OptimizerSpec
from skelrefine.skeleton import DEFAULT_TREE, POSE_DIM, Encoding, SkeletonSequence

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


# the exit code skelrefine.cli's docstring documents for each error class
EXIT_CODES = {errors.ConfigurationError: 1, errors.NumericalError: 3,
              errors.TrainingDivergedError: 3, errors.SkelRefineError: 2,
              errors.EncodingError: 2, errors.InsufficientFramesError: 2,
              errors.DegenerateGeometryError: 2, errors.DimensionError: 2,
              errors.DependencyError: 2, errors.DataError: 2}


@pytest.mark.parametrize("error", [
    value for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, errors.SkelRefineError)
], ids=lambda error: error.__name__)
def test_every_error_ends_in_its_exit_code_and_one_line(monkeypatch, capsys, error):
    def failing(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_eval", failing)
    assert run("eval", "--pred", "a.jsonl", "--truth", "b.jsonl") == EXIT_CODES[error]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestSynthCommand:
    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert run("synth", "--config", tmp_path / "nope.json") == 1

    def test_empty_config_is_usage_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert run("synth", "--config", path) == 1

    @pytest.mark.parametrize("key,value", [
        ("theta", 1.5), ("theta", 1.0), ("theta_plus", -0.1), ("theta", float("nan")),
        ("theta_plus", float("inf")), ("theta", "x"), ("theta", None), ("k", "x"), ("k", 0),
    ])
    def test_bad_fusion_value_is_one_line_usage_error(
        self, tmp_path, capsys, key, value
    ):
        config = json.loads(json.dumps(TOY_CONFIG))
        config["fusion"][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = run("refine", "--config", path, "--variant", "sknn",
                   "--input", tmp_path / "input.jsonl")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

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


# each edit of TOY_CONFIG that load_config must refuse with exit 1 and one line
BAD_CONFIG_EDITS = {
    "max_iterations_string": lambda c: c["pdrnn"].update(max_iterations="x"),
    "max_iterations_fraction": lambda c: c["vdrnn"].update(max_iterations=1.5),
    "split_ratios_string": lambda c: c["corpus"].update(split_ratios="abc"),
    "split_ratios_number": lambda c: c["corpus"].update(split_ratios=5),
    "corruption_list": lambda c: c["corpus"].update(corruption=[1]),
    "network_block_list": lambda c: c.update(vdrnn=[1, 2]),
    "paths_corpus_number": lambda c: c["paths"].update(corpus=3),
    "paths_models_null": lambda c: c["paths"].update(models=None),
    "k_fraction": lambda c: c["fusion"].update(k=1.5),
    "k_boolean": lambda c: c["fusion"].update(k=True),
    # the optimizer's fixed settings and removed methods are not config keys
    "grad_tolerance_string": lambda c: c["optimizer"].update(grad_tolerance="x"),
    "history_size_fraction": lambda c: c["optimizer"].update(history_size=2.5),
    "max_line_search_evals_zero": lambda c: c["optimizer"].update(max_line_search_evals=0),
    "loss_tolerance": lambda c: c["optimizer"].update(loss_tolerance=1e-14),
    "wolfe_constants": lambda c: c["optimizer"].update(wolfe_c1=1e-4, wolfe_c2=0.9),
    "method_gd": lambda c: c["optimizer"].update(method="gd"),
    "learning_rate": lambda c: c["optimizer"].update(learning_rate=0.1),
    # integer fields take whole numbers only
    "total_frames_fraction": lambda c: c["corpus"].update(total_frames=200.5),
    "corpus_seed_boolean": lambda c: c["corpus"].update(seed=True),
    "corpus_seed_negative": lambda c: c["corpus"].update(seed=-1),
    "occlusion_duration_fraction": lambda c: c["corpus"]["corruption"].update(
        occlusion_duration_frames=[3, 6.5]),
    "corruption_seed_fraction": lambda c: c["corpus"]["corruption"].update(seed=12.5),
    "window_length_fraction": lambda c: c["pdrnn"].update(window_length=7.9),
    "hidden_size_fraction": lambda c: c["pdrnn"].update(hidden_sizes=[10, 10.5]),
    "layer_index_fraction": lambda c: c["vdrnn"].update(recurrent_layer_index=1.5),
    "network_seed_boolean": lambda c: c["vdrnn_plus"].update(seed=True),
    # real-valued fields take finite JSON numbers only
    "split_ratios_nan": lambda c: c["corpus"].update(split_ratios=[float("nan"), 0.5, 0.5]),
    "split_ratios_strings": lambda c: c["corpus"].update(split_ratios=["0.6", "0.2", "0.2"]),
    "angle_amplitude_nan": lambda c: c["corpus"].update(angle_amplitude_rad=float("nan")),
    "jitter_sigma_nan": lambda c: c["corpus"]["corruption"].update(jitter_sigma=float("nan")),
    "jitter_sigma_string": lambda c: c["corpus"]["corruption"].update(jitter_sigma="0.01"),
    "occlusion_rate_boolean": lambda c: c["corpus"]["corruption"].update(occlusion_rate=True),
    "theta_boolean": lambda c: c["fusion"].update(theta=False),
    "theta_string": lambda c: c["fusion"].update(theta="0.05"),
    # total_frames is the one length key
    "total_frames_and_n_frames": lambda c: c["corpus"].update(total_frames=60, n_frames=30),
}


@pytest.mark.parametrize("edit", BAD_CONFIG_EDITS)
def test_malformed_config_is_one_line_usage_error(tmp_path, capsys, edit):
    config = json.loads(json.dumps(TOY_CONFIG))
    BAD_CONFIG_EDITS[edit](config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run("train", "--config", path, "--which", "pdrnn")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_network_key_is_one_line_usage_error(tmp_path, capsys):
    config = json.loads(json.dumps(TOY_CONFIG))
    config["vdrnn"]["hiden_sizes"] = [4, 4]  # would silently train the default layout
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run("train", "--config", path, "--which", "pdrnn")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: network block 'vdrnn': ") and err.count("\n") == 1
    assert "'hiden_sizes'" in err


@pytest.mark.parametrize("section, key, value, code", [
    ("corruption", "jitter_sigma", 1e308, 1),
    ("corruption", "displacement_sigma", 1e308, 1),
    ("corpus", "frame_rate_hz", 1e308, 1),
    ("corpus", "root_amplitude_m", 2e6, 1),
    # a sigma within the bound whose draws are not, so the reader would refuse them
    ("corruption", "jitter_sigma", 1e6, 3),
])
def test_synth_beyond_the_value_limit_is_one_line_error(tmp_path, capsys, section, key, value,
                                                        code):
    # at 1e308, the noise overflowed the synthesized poses to inf, and at
    # that frame rate a bandwidth of 4e307 overflowed the sinusoids' phases
    config = json.loads(json.dumps(TOY_CONFIG))
    (config["corpus"] if section == "corpus" else config["corpus"]["corruption"])[key] = value
    if key == "frame_rate_hz":
        config["corpus"]["motion_bandwidth_hz"] = 4e307
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("synth", "--config", path) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert code == 3 or key in captured.err
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "corpus").exists()


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaf_paths(value, (*path, index))
    else:
        yield path


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**400, 10**400),
    st.sampled_from([10**400, -10**400, 2**1024, math.nan, math.inf, -math.inf]),
    st.floats(), st.text(max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(list(_leaf_paths(TOY_CONFIG))),
       value=st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3)))
def test_any_leaf_edit_loads_or_is_a_configuration_error(path, value):
    # load_config allocates nothing by the values it reads, so huge counts are safe
    config = json.loads(json.dumps(TOY_CONFIG))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as folder:
        config_path = Path(folder) / "config.json"
        config_path.write_text(json.dumps(config))
        try:
            cli.load_config(config_path)
        except errors.ConfigurationError:
            pass


def test_optimizer_method_lbfgs_still_loads(tmp_path):
    config = json.loads(json.dumps(TOY_CONFIG))
    config["optimizer"]["method"] = "lbfgs"
    del config["vdrnn"]["max_iterations"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # a network without its own budget takes the optimizer section's
    assert cli.load_config(path).optimizers == {
        "pdrnn": OptimizerSpec(max_iterations=8), "vdrnn": OptimizerSpec(max_iterations=10),
        "vdrnn_plus": OptimizerSpec(max_iterations=6)}


def test_readme_minimal_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("A minimal config:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(block)
    cfg = cli.load_config(path)
    assert cfg.optimizers == {"pdrnn": OptimizerSpec(max_iterations=500),
                              "vdrnn": OptimizerSpec(max_iterations=80),
                              "vdrnn_plus": OptimizerSpec(max_iterations=80)}
    assert cfg.motion.n_frames == 7300


@pytest.mark.parametrize("section,key,value", [
    ("motion_config", "n_frames", 200.5), ("motion_config", "seed", True),
    ("corruption_config", "occlusion_duration_frames", [3, 6.5]),
    ("splits", "train", {"corrupted": "train\n.jsonl", "clean": "train.clean.jsonl"}),
], ids=["n_frames_fraction", "seed_boolean", "occlusion_duration_fraction",
        "file_name_line_break"])
def test_malformed_manifest_is_one_line_data_error(workspace, capsys, section, key, value):
    tmp_path, config = workspace
    assert run("synth", "--config", config) == 0
    manifest_path = tmp_path / "corpus" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[section][key] = value
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = run("train", "--config", config, "--which", "pdrnn")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err


class _DiskFull:
    """A file handle that writes half of what it is given, then fails as a
    full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


@pytest.mark.parametrize("artifact,which", [
    ("pdrnn.json", "pdrnn"), ("pdrnn_loss.csv", "pdrnn"), ("kalman.json", "vdrnn_plus"),
    ("manifest.json", "synth"),
])
def test_failed_artifact_write_keeps_the_previous_file(workspace, monkeypatch, artifact, which):
    tmp_path, config = workspace
    assert run("synth", "--config", config) == 0
    for name in ("pdrnn", "vdrnn", "vdrnn_plus"):
        assert run("train", "--config", config, "--which", name) == 0

    def artifacts():
        return {path: path.read_bytes()
                for folder in ("corpus", "models") for path in (tmp_path / folder).iterdir()}

    before = artifacts()

    real_open = Path.open

    def failing_open(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return _DiskFull(fh) if self.name == f".{artifact}.tmp" else fh

    monkeypatch.setattr(Path, "open", failing_open)
    with pytest.raises(OSError, match="No space left"):
        if which == "synth":
            run("synth", "--config", config)
        else:
            run("train", "--config", config, "--which", which)
    # synthesis and training are deterministic, so what was rewritten before
    # the failure has the same bytes; the failed file is the previous one,
    # and no temporary file is left
    assert artifacts() == before


class TestTrainCommand:
    @pytest.mark.parametrize("which,trained,missing", [
        ("vdrnn", (), "pdrnn"), ("vdrnn_plus", ("pdrnn",), "vdrnn"),
    ], ids=["vdrnn", "vdrnn_plus"])
    def test_wrong_order_is_dependency_error(self, workspace, capsys, which, trained, missing):
        _, config = workspace
        assert run("synth", "--config", config) == 0
        for name in trained:
            assert run("train", "--config", config, "--which", name) == 0
        capsys.readouterr()
        code = run("train", "--config", config, "--which", which)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"requires the {missing} checkpoint" in err

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
            assert summary["evaluations"] >= summary["iterations"] + 1
        # the vdrnn_plus stage persists the fitted covariances
        assert (tmp_path / "models" / "kalman.json").exists()


    def test_negative_seed_is_one_line_usage_error(self, workspace, capsys):
        _, config = workspace
        assert run("synth", "--config", config) == 0
        capsys.readouterr()
        assert run("train", "--config", config, "--which", "pdrnn", "--seed", -1) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_validation_split_is_one_line_numerical_error(self, workspace, capsys):
        tmp_path, config = workspace
        assert run("synth", "--config", config) == 0
        path = tmp_path / "corpus" / "validation.corrupted.jsonl"
        source = seqio.read_sequence(path)
        # finite, but beyond VALUE_LIMIT, so the reader refuses it
        seqio.write_sequence(path, source.with_data(source.data * 1e306))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("train", "--config", config, "--which", "pdrnn")
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "validation" in captured.err
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "models" / "pdrnn.json").exists()
        assert not (tmp_path / "models" / "pdrnn_loss.csv").exists()

    def test_trained_parameters_beyond_the_value_limit_are_one_line_numerical_error(
            self, workspace, capsys, monkeypatch):
        tmp_path, config = workspace
        assert run("synth", "--config", config) == 0
        train = drnn.train

        def overshooting(*args, **kwargs):
            # a fit whose output bias the checkpoint loader would refuse
            result = train(*args, **kwargs)
            result.params.out_bias[:] = 2e6
            return result

        monkeypatch.setattr(drnn, "train", overshooting)
        capsys.readouterr()
        code = run("train", "--config", config, "--which", "pdrnn")
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "out_bias" in captured.err
        assert not (tmp_path / "models" / "pdrnn.json").exists()
        assert not (tmp_path / "models" / "pdrnn_loss.csv").exists()

    def test_summary_counts_loss_and_gradient_evaluations(self, workspace, capsys,
                                                          monkeypatch):
        _, config = workspace
        assert run("synth", "--config", config) == 0
        calls = []
        loss_and_gradient = drnn.loss_and_gradient

        def counting(params, batch):
            calls.append(1)
            return loss_and_gradient(params, batch)

        monkeypatch.setattr(drnn, "loss_and_gradient", counting)
        capsys.readouterr()
        assert run("train", "--config", config, "--which", "pdrnn") == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["evaluations"] == len(calls) > summary["iterations"]


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

    def test_relative_input_is_one_line_data_error(self, workspace, capsys):
        tmp_path, config = workspace
        source = tmp_path / "relative.jsonl"
        seqio.write_sequence(source, SkeletonSequence(np.zeros((5, POSE_DIM)),
                                                      Encoding.RELATIVE))
        code = run("refine", "--config", config, "--variant", "raw", "--input", source)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_vdrnn_plus_writes_the_kf_noise_fit(self, trained):
        tmp_path, _ = trained
        models = tmp_path / "models"
        fitted = fusion.fit_fusion_models(
            synth.read_corpus(tmp_path / "corpus"), DEFAULT_TREE,
            pdrnn=drnn.load_checkpoint(models / "pdrnn.json"),
            vdrnn=drnn.load_checkpoint(models / "vdrnn.json"), variants=("kf",),
        )
        fusion.write_covariances(tmp_path / "expected.json", fitted.kalman_r, fitted.kalman_q)
        assert (models / "kalman.json").read_bytes() == (tmp_path / "expected.json").read_bytes()

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
        "data_string", "data_strings", "data_booleans", "window_fraction", "seed_boolean",
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
        elif malformed == "window_fraction":
            payload["config"]["window_length"] = 7.5
        elif malformed == "seed_boolean":
            payload["config"]["seed"] = True
        elif malformed == "data_strings":
            data = payload["arrays"]["recurrent"]["data"]
            payload["arrays"]["recurrent"]["data"] = [str(v) for v in data]
        elif malformed == "data_booleans":
            data = payload["arrays"]["recurrent"]["data"]
            payload["arrays"]["recurrent"]["data"] = [v > 0 for v in data]
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

    def test_eval_overflowing_prediction_is_one_line_numerical_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        truth = SkeletonSequence(rng.normal(size=(10, POSE_DIM)), Encoding.ABSOLUTE)
        truth_path, pred_path = tmp_path / "truth.jsonl", tmp_path / "pred.jsonl"
        seqio.write_sequence(truth_path, truth)
        # finite, but beyond VALUE_LIMIT, so the reader refuses it
        seqio.write_sequence(pred_path, truth.with_data(truth.data * 1e306))
        hist_csv = tmp_path / "hist.csv"
        code = run("eval", "--pred", pred_path, "--truth", truth_path, "--out", hist_csv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not hist_csv.exists()

    def test_refine_with_overflowing_distances_is_one_line_numerical_error(
            self, trained, capsys):
        tmp_path, config = trained
        source = seqio.read_sequence(tmp_path / "corpus" / "test.corrupted.jsonl")
        # finite, but beyond VALUE_LIMIT, so the reader refuses it
        huge = tmp_path / "huge.jsonl"
        seqio.write_sequence(huge, source.with_data(source.data * 1e306))
        capsys.readouterr()
        for variant in ("sknn", "sknnkf"):
            out = tmp_path / "out" / f"{variant}.jsonl"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run("refine", "--config", config, "--variant", variant,
                           "--input", huge, "--out", out)
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert [str(w.message) for w in caught] == []
            assert not out.exists()

    @pytest.mark.parametrize("network, edit, variant", [
        ("pdrnn", {"inter_1": 1e300, "inter_2": 1e300}, "pdrnn"),
        ("pdrnn", {"out_bias": 1e308}, "pdrnn"),
        ("vdrnn", {"bias_1": 1e300, "inter_2": 1e300}, "kf"),
        ("vdrnn", {"bias_1": 1e300, "inter_2": 1e300}, "sknn"),
        ("pdrnn", {"inter_1": 1e4, "inter_2": 1e4}, "pdrnn"),
        ("pdrnn", {"out_bias": 0.9e6}, "pdrnn"),
        ("vdrnn", {"out_bias": 0.9e6}, "kf"),
    ], ids=["pdrnn-weights", "pdrnn-out_bias", "vdrnn-kf", "vdrnn-sknn",
            "pdrnn-outputs_beyond", "pdrnn-poses_beyond", "vdrnn-kf_states_beyond"])
    def test_overflowing_network_is_one_line_numerical_error(
            self, trained, capsys, network, edit, variant):
        tmp_path, config = trained
        checkpoint = tmp_path / "models" / f"{network}.json"
        payload = json.loads(checkpoint.read_text())
        # weights scaled and biases filled: beyond VALUE_LIMIT, so the loader
        # refuses them, or within it but driving beyond it the network's
        # outputs, the absolute poses summed from five of them over the
        # tree's depth, or the Kalman states
        for name, value in edit.items():
            data = payload["arrays"][name]["data"]
            payload["arrays"][name]["data"] = (
                [v * value for v in data] if name.startswith("inter") else [value] * len(data))
        checkpoint.write_text(json.dumps(payload))
        out = tmp_path / "out" / f"{variant}.jsonl"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("refine", "--config", config, "--variant", variant,
                       "--input", tmp_path / "corpus" / "test.corrupted.jsonl", "--out", out)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    @pytest.mark.parametrize("network, output_dim, command", [
        ("pdrnn", 1, ("refine", "pdrnn")),
        ("vdrnn", 1, ("refine", "kf")),
        ("vdrnn", 47, ("refine", "sknn")),
        ("vdrnn_plus", 1, ("refine", "sknnkf")),
        ("vdrnn", 1, ("train", "vdrnn_plus")),
    ], ids=["pdrnn-pdrnn", "vdrnn-kf", "vdrnn-sknn", "vdrnn_plus-sknnkf", "vdrnn-train"])
    def test_network_of_other_dimensions_is_one_line_data_error(
            self, trained, capsys, network, output_dim, command):
        tmp_path, config = trained
        models = tmp_path / "models"
        checkpoint = models / f"{network}.json"
        cfg = dataclasses.replace(drnn.load_checkpoint(checkpoint).config, output_dim=output_dim)
        drnn.save_checkpoint(checkpoint, drnn.init_params(cfg))
        name, which = command
        if name == "refine":
            out = tmp_path / "out" / f"{which}.jsonl"
            argv = ("refine", "--config", config, "--variant", which,
                    "--input", tmp_path / "corpus" / "test.corrupted.jsonl", "--out", out)
        else:
            out = models / f"{which}_loss.csv"
            out.unlink()
            argv = ("train", "--config", config, "--which", which)
        capsys.readouterr()
        code = run(*argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"{network}.json" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("split, variant", [
        ("validation", "kf"), ("validation", "sknn"), ("train", "sknn"),
    ])
    def test_refit_on_an_overflowing_split_is_one_line_numerical_error(
            self, trained, capsys, split, variant):
        tmp_path, config = trained
        path = tmp_path / "corpus" / f"{split}.corrupted.jsonl"
        source = seqio.read_sequence(path)
        # finite, but beyond VALUE_LIMIT, so the reader refuses it
        seqio.write_sequence(path, source.with_data(source.data * 1e306))
        out = tmp_path / "out" / f"{variant}.jsonl"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("refine", "--config", config, "--variant", variant,
                       "--input", tmp_path / "corpus" / "test.corrupted.jsonl", "--out", out)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pdrnn", "kf", "raw", "eval"])
    def test_input_beyond_the_value_limit_is_one_line_numerical_error(
            self, trained, capsys, command):
        tmp_path, config = trained
        source = seqio.read_sequence(tmp_path / "corpus" / "test.corrupted.jsonl")
        huge = tmp_path / "huge.jsonl"
        seqio.write_sequence(huge, source.with_data(source.data * 1e306))
        out = tmp_path / "out" / f"{command}.out"
        if command == "eval":
            argv = ("eval", "--pred", huge, "--truth", tmp_path / "corpus" / "test.clean.jsonl",
                    "--out", out)
        else:
            argv = ("refine", "--config", config, "--variant", command, "--input", huge,
                    "--out", out)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(*argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"error: {huge}:2: ") and captured.err.count("\n") == 1
        assert [str(w.message) for w in caught] == []
        assert not out.exists()

    def test_unknown_checkpoint_config_key_is_one_line_data_error(self, trained, capsys):
        tmp_path, config = trained
        checkpoint = tmp_path / "models" / "pdrnn.json"
        payload = json.loads(checkpoint.read_text())
        payload["config"]["hiden_sizes"] = [10, 10]
        checkpoint.write_text(json.dumps(payload))
        out = tmp_path / "out" / "pdrnn.jsonl"
        capsys.readouterr()
        code = run("refine", "--config", config, "--variant", "pdrnn",
                   "--input", tmp_path / "corpus" / "test.corrupted.jsonl", "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {checkpoint}: ") and err.count("\n") == 1
        assert "'hiden_sizes'" in err
        assert not out.exists()

    def test_refined_outputs_parse_back(self, trained):
        tmp_path, config = trained
        source = tmp_path / "corpus" / "test.corrupted.jsonl"
        for variant in ("pdrnn", "kf", "sknnkf"):
            out = tmp_path / "out" / f"{variant}.jsonl"
            assert run("refine", "--config", config, "--variant", variant,
                       "--input", source, "--out", out) == 0
            seq = seqio.read_sequence(out)
            assert len(seq) == 40

    @pytest.mark.parametrize("bad_record", [
        "[0.0, 1.0]",
        json.dumps({"t": 1, "joints": [0.0] * (POSE_DIM - 1) + [None]}),
        json.dumps({"t": 1, "joints": [0.0] * (POSE_DIM - 1) + ["x"]}),
        json.dumps({"t": 1, "joints": [0.0] * (POSE_DIM - 1) + [{}]}),
        json.dumps({"t": 1, "joints": [0.0] * (POSE_DIM - 1) + [[1.0]]}),
        json.dumps({"t": 1, "joints": [0.0] * (POSE_DIM - 1) + [float("inf")]}),
        json.dumps({"t": 1, "joints": [0.0] * (POSE_DIM - 1) + ["1.5"]}),
        json.dumps({"t": 1, "joints": [0.0] * (POSE_DIM - 1) + [True]}),
        json.dumps({"t": 1, "joints": [False] + [0.0] * (POSE_DIM - 1)}),
        json.dumps({"t": True, "joints": [0.0] * POSE_DIM}),
        json.dumps({"t": 1.0, "joints": [0.0] * POSE_DIM}),
    ], ids=["record_list", "null", "string", "object", "list", "infinity", "numeric_string",
            "true", "false", "index_true", "index_float"])
    def test_malformed_sequence_is_one_line_data_error(self, workspace, capsys, bad_record):
        tmp_path, config = workspace
        good = tmp_path / "good.jsonl"
        seqio.write_sequence(good, SkeletonSequence(np.zeros((3, POSE_DIM)), Encoding.ABSOLUTE))
        lines = good.read_text().splitlines()
        lines[2] = bad_record
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        for argv in (("eval", "--pred", bad, "--truth", good),
                     ("refine", "--config", config, "--variant", "raw", "--input", bad)):
            code = run(*argv)
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"{bad}:3:" in err


class TestCorpusReading:
    """train and refine read only the corpus splits they use."""

    @pytest.fixture
    def trained(self, workspace):
        tmp_path, config = workspace
        assert run("synth", "--config", config) == 0
        for which in ("pdrnn", "vdrnn"):
            assert run("train", "--config", config, "--which", which) == 0
        shutil.copy(tmp_path / "corpus" / "test.corrupted.jsonl", tmp_path / "input.jsonl")
        return tmp_path, config

    def test_train_and_kf_refine_need_no_test_split(self, trained):
        tmp_path, config = trained
        models = tmp_path / "models"
        artifacts = (models / "pdrnn.json", models / "pdrnn_loss.csv", tmp_path / "kf.jsonl")

        def pdrnn_and_kf():
            assert run("train", "--config", config, "--which", "pdrnn") == 0
            assert run("refine", "--config", config, "--variant", "kf",
                       "--input", tmp_path / "input.jsonl", "--out", tmp_path / "kf.jsonl") == 0
            return [path.read_bytes() for path in artifacts]

        expected = pdrnn_and_kf()
        for kind in ("corrupted", "clean"):
            (tmp_path / "corpus" / f"test.{kind}.jsonl").unlink()
        assert pdrnn_and_kf() == expected

    def test_kf_refine_reads_only_the_validation_split(self, trained, monkeypatch):
        tmp_path, config = trained
        read = []
        read_sequence = seqio.read_sequence

        def recording(path):
            read.append(Path(path).name)
            return read_sequence(path)

        monkeypatch.setattr(seqio, "read_sequence", recording)
        assert run("refine", "--config", config, "--variant", "kf",
                   "--input", tmp_path / "input.jsonl") == 0
        assert sorted(read) == ["input.jsonl", "validation.clean.jsonl",
                                "validation.corrupted.jsonl"]

    @pytest.mark.parametrize("cut", ["mid_line", "whole_lines"])
    def test_truncated_train_split_is_one_line_data_error(self, trained, capsys, cut):
        tmp_path, config = trained
        path = tmp_path / "corpus" / "train.clean.jsonl"
        text = path.read_text()
        if cut == "mid_line":
            text = text[: len(text) // 2]
        else:
            text = "".join(text.splitlines(keepends=True)[:-5])
        path.write_text(text)
        capsys.readouterr()
        code = run("refine", "--config", config, "--variant", "sknn",
                   "--input", tmp_path / "input.jsonl")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "train.clean.jsonl" in err


def test_cli_and_eval_never_import_scipy(tmp_path):
    seq_path = tmp_path / "seq.jsonl"
    seqio.write_sequence(seq_path, SkeletonSequence(np.zeros((4, POSE_DIM)), Encoding.ABSOLUTE))
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises
        import numpy as np
        import skelrefine.cli
        from skelrefine import fusion
        code = skelrefine.cli.main(["eval", "--pred", {str(seq_path)!r},
                                    "--truth", {str(seq_path)!r}])
        assert code == 0, code
        rng = np.random.default_rng(0)
        gate = fusion.GateModel(np.ones({POSE_DIM}), 0.05)
        assert fusion.estimate_gate(rng.normal(size=(10, {POSE_DIM})), 0.05).theta == 0.05
        store = fusion.NeighborStore(rng.normal(size=(20, {POSE_DIM})),
                                     rng.normal(size=(20, {POSE_DIM})), k=5)
        out = fusion.sknn_step(store, gate, np.zeros({POSE_DIM}), np.zeros({POSE_DIM}),
                               np.zeros({POSE_DIM}))
        assert out.shape == ({POSE_DIM},) and np.all(np.isfinite(out))
        assert sys.modules["scipy"] is None
        assert not [name for name in sys.modules if name.startswith("scipy.")]
    """)
    src = Path(skelrefine.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """A toy workspace with a corpus and trained pdrnn and vdrnn, which the
    fuzz examples copy and corrupt but never write."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("synth", "--config", config) == 0
        for which in ("pdrnn", "vdrnn"):
            assert run("train", "--config", config, "--which", which) == 0
    return root


def _replaced(data, node):
    """node with one value replaced: a walk from the root that goes one
    level deeper with probability 3/4 and replaces where it stops."""
    if isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)) > 0:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        node[key] = _replaced(data, node[key])
        return node
    return data.draw(st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3)))


def _dropped(data, node) -> None:
    """Remove one entry of node or of an object or list nested in it."""
    key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    if isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
        _dropped(data, node[key])
    else:
        del node[key]


def _corrupted(data, text: str, jsonl: bool) -> bytes:
    """text, a JSON document or one per line, with one value, one record or
    one byte corrupted."""
    kind = data.draw(st.sampled_from(["value", "record", "byte"]))
    if kind == "byte":
        raw = bytearray(text.encode("utf-8"))
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        return bytes(raw)
    if not jsonl:
        doc = json.loads(text)
        if kind == "record":
            _dropped(data, doc)
        else:
            doc = _replaced(data, doc)
        return json.dumps(doc).encode("utf-8")
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "value":
        lines[i] = json.dumps(_replaced(data, json.loads(lines[i])))
    else:
        action = data.draw(st.sampled_from(["drop", "repeat", "swap"]))
        if action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(i, lines[i])
        else:
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _assert_one_outcome(argv, output: Path) -> None:
    """The command exits 0, or exits 1, 2 or 3 with one error line and
    without writing output; either way no numpy RuntimeWarning is raised."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = run(*argv)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code in (0, 1, 2, 3)
    if code:
        err = stderr.getvalue()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not output.exists()


@pytest.mark.parametrize("reader, code", [
    ("config", 1), ("sequence", 2), ("checkpoint", 2), ("manifest", 2),
])
def test_file_that_is_not_utf8_is_one_line_error(fuzz_workspace, tmp_path, capsys, reader,
                                                 code):
    shutil.copytree(fuzz_workspace / "corpus", tmp_path / "corpus")
    shutil.copytree(fuzz_workspace / "models", tmp_path / "models")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    source = tmp_path / "corpus" / "test.corrupted.jsonl"
    broken = {"config": config, "sequence": source, "checkpoint": tmp_path / "models" / "pdrnn.json",
              "manifest": tmp_path / "corpus" / "manifest.json"}[reader]
    broken.write_bytes(b"\xff" + broken.read_bytes())
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    assert run("refine", "--config", config, "--variant", "kf", "--input", source,
               "--out", out) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


class TestCorruptedFiles:
    """Each reader through cli.main, on a valid file with one value, record
    or byte corrupted."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sequence_file(self, fuzz_workspace, data):
        truth = fuzz_workspace / "corpus" / "test.clean.jsonl"
        with tempfile.TemporaryDirectory() as folder:
            pred, histogram = Path(folder) / "pred.jsonl", Path(folder) / "hist.csv"
            pred.write_bytes(_corrupted(data, truth.read_text(), jsonl=True))
            _assert_one_outcome(("eval", "--pred", pred, "--truth", truth, "--out", histogram),
                                histogram)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_checkpoint(self, fuzz_workspace, data):
        with tempfile.TemporaryDirectory() as folder:
            folder = Path(folder)
            (folder / "models").mkdir()
            source = fuzz_workspace / "models" / "pdrnn.json"
            (folder / "models" / "pdrnn.json").write_bytes(
                _corrupted(data, source.read_text(), jsonl=False))
            config = folder / "config.json"
            config.write_text(json.dumps({**TOY_CONFIG, "paths": {
                "corpus": str(fuzz_workspace / "corpus"), "models": "models", "outputs": "out"}}))
            out = folder / "out.jsonl"
            _assert_one_outcome(("refine", "--config", config, "--variant", "pdrnn", "--input",
                                 fuzz_workspace / "corpus" / "test.corrupted.jsonl", "--out", out),
                                out)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_corpus_manifest(self, fuzz_workspace, data):
        with tempfile.TemporaryDirectory() as folder:
            folder = Path(folder)
            shutil.copytree(fuzz_workspace / "corpus", folder / "corpus")
            manifest = folder / "corpus" / "manifest.json"
            manifest.write_bytes(_corrupted(data, manifest.read_text(), jsonl=False))
            config = folder / "config.json"
            config.write_text(json.dumps({**TOY_CONFIG, "paths": {
                "corpus": "corpus", "models": str(fuzz_workspace / "models"), "outputs": "out"}}))
            out = folder / "out.jsonl"
            _assert_one_outcome(("refine", "--config", config, "--variant", "kf", "--input",
                                 fuzz_workspace / "corpus" / "test.corrupted.jsonl", "--out", out),
                                out)
