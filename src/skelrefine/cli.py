"""Batch command line: corpus synthesis, training, refinement, evaluation.

One JSON config file describes a whole experiment (paths, corpus, network
and fusion settings); subcommands consume the pieces they need. Exit codes:
0 success, 1 usage or configuration problem, 2 data problem, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path


from . import drnn, fusion, metrics, seqio, synth
from .errors import (
    ConfigurationError,
    DataError,
    DependencyError,
    NumericalError,
    SkelRefineError,
)
from .optim import OptimizerSpec, real_number, whole_count
from .skeleton import DEFAULT_TREE, POSE_DIM

_DEFAULT_WINDOWS = {"pdrnn": drnn.POSITION_WINDOW, "vdrnn": drnn.VELOCITY_WINDOW,
                    "vdrnn_plus": drnn.VELOCITY_WINDOW}


@dataclass
class PipelineConfig:
    corpus_dir: Path
    models_dir: Path
    outputs_dir: Path
    motion: synth.MotionConfig
    corruption: synth.CorruptionConfig
    split_ratios: tuple[float, float, float]
    networks: dict[str, drnn.DrnnConfig]
    optimizers: dict[str, OptimizerSpec]
    knn_k: int
    theta: float
    theta_plus: float


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name)
    if value is None:
        raise ConfigurationError(f"config missing {name!r} section")
    if not isinstance(value, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    return value


def load_config(path, seed_override: int | None = None) -> PipelineConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not raw:
        raise ConfigurationError(f"config {path} must be a non-empty JSON object")

    paths = _section(raw, "paths")
    base = path.parent
    for key in ("corpus", "models", "outputs"):
        if not isinstance(paths.get(key), str):
            raise ConfigurationError(f"paths {key} must be a string, got {paths.get(key)!r}")
    corpus_dir = base / paths["corpus"]
    models_dir = base / paths["models"]
    outputs_dir = base / paths["outputs"]

    corpus_raw = dict(_section(raw, "corpus"))
    corruption_raw = corpus_raw.pop("corruption", {})
    if not isinstance(corruption_raw, dict):
        raise ConfigurationError(f"corpus corruption must be an object, got {corruption_raw!r}")
    split_ratios = synth.read_split_ratios(
        corpus_raw.pop("split_ratios", synth.DEFAULT_SPLIT_RATIOS))
    if "n_frames" in corpus_raw:
        raise ConfigurationError("corpus length key is total_frames, not n_frames")
    corpus_raw["n_frames"] = whole_count(corpus_raw.pop("total_frames", None),
                                         "corpus total_frames")
    if seed_override is not None:
        corpus_raw["seed"] = seed_override
    motion = synth.MotionConfig.from_dict(corpus_raw)
    corruption = synth.CorruptionConfig.from_dict(corruption_raw)
    synth.split_frame_counts(motion.n_frames, split_ratios)

    optimizer_raw = raw.get("optimizer", {})
    if not isinstance(optimizer_raw, dict):
        raise ConfigurationError("optimizer section must be an object")
    try:
        optimizer = OptimizerSpec(**optimizer_raw)
    except TypeError as exc:
        raise ConfigurationError(f"bad optimizer section: {exc}") from exc

    networks: dict[str, drnn.DrnnConfig] = {}
    optimizers: dict[str, OptimizerSpec] = {}
    for name in fusion.NETWORKS:
        block = raw.get(name, {})
        if not isinstance(block, dict):
            raise ConfigurationError(f"network block {name!r} must be an object")
        block = dict(block)
        iterations = block.pop("max_iterations", optimizer.max_iterations)
        optimizers[name] = replace(
            optimizer, max_iterations=whole_count(iterations, f"{name} max_iterations"))
        defaults = asdict(drnn.DrnnConfig(window_length=_DEFAULT_WINDOWS[name]))
        try:
            networks[name] = drnn.DrnnConfig.from_dict({**defaults, **block})
        except ConfigurationError as exc:
            raise ConfigurationError(f"network block {name!r}: {exc}") from exc

    fusion_raw = raw.get("fusion", {})
    if not isinstance(fusion_raw, dict):
        raise ConfigurationError("fusion section must be an object")
    knn_k = whole_count(fusion_raw.get("k", fusion.DEFAULT_K), "fusion k")
    theta, theta_plus = (real_number(fusion_raw.get(key, fusion.DEFAULT_THETA), f"fusion {key}")
                         for key in ("theta", "theta_plus"))
    if not (0 <= theta < 1 and 0 <= theta_plus < 1):
        raise ConfigurationError(
            f"fusion theta and theta_plus must lie in [0, 1), got {theta} and {theta_plus}")

    return PipelineConfig(
        corpus_dir=corpus_dir,
        models_dir=models_dir,
        outputs_dir=outputs_dir,
        motion=motion,
        corruption=corruption,
        split_ratios=split_ratios,
        networks=networks,
        optimizers=optimizers,
        knn_k=knn_k,
        theta=theta,
        theta_plus=theta_plus,
    )


def _checkpoint_path(models_dir: Path, name: str) -> Path:
    return models_dir / f"{name}.json"


def _load_required_checkpoint(models_dir: Path, name: str, needed_for: str) -> drnn.DrnnParams:
    path = _checkpoint_path(models_dir, name)
    if not path.exists():
        raise DependencyError(
            f"{needed_for} requires the {name} checkpoint; "
            f"run 'skelrefine train --which {name}' first ({path} not found)"
        )
    params = drnn.load_checkpoint(path)
    # every pipeline stream is one pose or pose difference per frame
    dims = (params.config.input_dim, params.config.output_dim)
    if dims != (POSE_DIM, POSE_DIM):
        raise DataError(f"{path}: the {name} network maps {dims[0]} values to {dims[1]}; "
                        f"the pipeline's networks map {POSE_DIM} to {POSE_DIM}")
    return params


def cmd_synth(args) -> int:
    cfg = load_config(args.config, args.seed)
    out_dir = Path(args.out) if args.out else cfg.corpus_dir
    corpus = synth.build_corpus(cfg.motion, cfg.corruption, cfg.split_ratios)
    manifest_path = synth.write_corpus(corpus, out_dir)
    counts = {name: len(pair.clean) for name, pair in corpus.splits().items()}
    print(json.dumps({"manifest": str(manifest_path), "frames": counts}))
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    which = args.which
    corpus = synth.read_corpus(cfg.corpus_dir)
    tree = DEFAULT_TREE
    net_cfg = cfg.networks[which]
    if args.seed is not None:
        net_cfg = replace(net_cfg, seed=whole_count(args.seed, "--seed", minimum=0))
    cfg.models_dir.mkdir(parents=True, exist_ok=True)

    needs = fusion.training_models(which)
    networks = {name: _load_required_checkpoint(cfg.models_dir, name, which)
                for name in fusion.NETWORKS if name in needs}
    models = fusion.FusionModels(tree=tree, **networks)
    if set(needs) - set(networks):
        # the Kalman states need the fitted noise, which is kept beside the
        # checkpoints
        models = fusion.fit_fusion_models(corpus, tree, **networks, variants=("kf",))
        fusion.write_covariances(cfg.models_dir / "kalman.json", models.kalman_r,
                                 models.kalman_q)
    train_batch, val_batch = (
        drnn.batch_from_streams(*fusion.training_streams(which, pair, models),
                                net_cfg.window_length)
        for pair in (corpus.train, corpus.validation)
    )

    result = drnn.train(net_cfg, train_batch, val_batch, cfg.optimizers[which])

    checkpoint = _checkpoint_path(cfg.models_dir, which)
    drnn.save_checkpoint(checkpoint, result.params)
    loss_csv = cfg.models_dir / f"{which}_loss.csv"
    train_size = train_batch.targets.size
    val_size = val_batch.targets.size
    with seqio.atomic_open(loss_csv, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "train_sse", "train_mse", "validation_sse", "validation_mse"]
        )
        for i, (t_loss, v_loss) in enumerate(zip(result.train_losses, result.validation_losses)):
            writer.writerow(
                [i, repr(t_loss), repr(t_loss / train_size), repr(v_loss), repr(v_loss / val_size)]
            )
    print(
        json.dumps(
            {
                "checkpoint": str(checkpoint),
                "loss_csv": str(loss_csv),
                "iterations": result.iterations,
                "evaluations": result.n_evaluations,
                "converged": result.converged,
                "message": result.message,
                "final_train_mse": result.train_losses[-1] / train_size,
                "final_validation_mse": result.validation_losses[-1] / val_size,
            }
        )
    )
    return 0


def cmd_refine(args) -> int:
    cfg = load_config(args.config)
    variant = args.variant
    seq = seqio.read_sequence(args.input)
    tree = DEFAULT_TREE

    networks = {name: _load_required_checkpoint(cfg.models_dir, name, f"variant {variant!r}")
                for name in fusion.required_networks(variant)}
    models = fusion.FusionModels(tree=tree, **networks)
    if set(fusion.required_models(variant)) - set(networks):
        corpus = synth.read_corpus(cfg.corpus_dir)
        models = fusion.fit_fusion_models(
            corpus,
            tree,
            **networks,
            k=cfg.knn_k,
            theta=cfg.theta,
            theta_plus=cfg.theta_plus,
            variants=(variant,),
        )

    refined = fusion.run_pipeline(variant, seq, models)
    out_path = Path(args.out) if args.out else cfg.outputs_dir / f"{variant}.jsonl"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    seqio.write_sequence(out_path, refined)
    print(json.dumps({"variant": variant, "output": str(out_path), "frames": len(refined)}))
    return 0


def cmd_eval(args) -> int:
    pred = seqio.read_sequence(args.pred)
    truth = seqio.read_sequence(args.truth)
    report = metrics.evaluate(pred, truth)
    print(report.to_json())
    if args.out:
        metrics.write_histogram_csv(args.out, report)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="skelrefine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate the paired synthetic corpus")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--out", default=None)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train one network in dependency order")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--which", required=True, choices=tuple(fusion.NETWORKS))
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_refine = sub.add_parser("refine", help="refine a sequence with one variant")
    p_refine.add_argument("--config", required=True)
    p_refine.add_argument("--variant", required=True, choices=fusion.PIPELINE_VARIANTS)
    p_refine.add_argument("--input", required=True)
    p_refine.add_argument("--out", default=None)
    p_refine.set_defaults(func=cmd_refine)

    p_eval = sub.add_parser("eval", help="compare a refined sequence to ground truth")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--out", default=None, help="histogram CSV path")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SkelRefineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
