"""One benchmark workload in its own process: set-up, measured rounds, checks.

run.py starts this process and counts set-up time from its start, so the
interpreter and import start-up below are part of set-up. The process writes
one JSON object to --result: the monotonic time at which set-up ended, the
timings and scores of the measured phase, the operations attempted and
failed, the failures of the correctness checks and, when traced, the spans'
per-layer metrics.

Both workloads report the same metrics (see README.md for why each exists):

* refine -- set-up writes the corpus and trains the three networks with
            skelrefine processes, then loads them and fits fusion at C7's K
            in process; the measured phase refines the test split with four
            variants, models in memory.
* cli    -- the user's whole pipeline as one skelrefine process per command.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
import tracing
from skelrefine import drnn, fusion, metrics, seqio, skeleton, synth
from skelrefine.skeleton import DEFAULT_TREE

# C7's corpus and network shapes (tests/test_acceptance.py); the README's
# desk-scale config generates the same corpus
MOTION = synth.MotionConfig(n_frames=7300, frame_rate_hz=30.0, motion_bandwidth_hz=0.8,
                            seed=20240817, angle_amplitude_rad=0.35, root_amplitude_m=0.15)
CORRUPTION = synth.CorruptionConfig(jitter_sigma=0.01, occlusion_rate=0.02,
                                    occlusion_duration_frames=(4, 12),
                                    displacement_sigma=0.2, seed=7)
NETWORKS = {
    "pdrnn": drnn.DrnnConfig(hidden_sizes=(64, 64, 64), recurrent_layer_index=2,
                             window_length=7, seed=1),
    "vdrnn": drnn.DrnnConfig(hidden_sizes=(48, 48, 48), recurrent_layer_index=2,
                             window_length=20, seed=2),
    "vdrnn_plus": drnn.DrnnConfig(hidden_sizes=(48, 48, 48), recurrent_layer_index=2,
                                  window_length=20, seed=3),
}
# small fixed budgets: a full C7 training takes four minutes
ITERATIONS = {"pdrnn": 4, "vdrnn": 1, "vdrnn_plus": 1}
KNN_K = 1000  # C7's, fitted in process by refine
CLI_KNN_K = 300  # the README config's, fitted by every skelrefine refine
VARIANTS = ("pdrnn", "kf", "sknn", "sknnkf")
# pdrnn and kf take tens of milliseconds per call, so each is refined again
# and again until the timed interval reaches MIN_INTERVAL_S, long enough to
# repeat within a tenth; their intervals alternate with the gated variants'
# single calls, and the median interval rate is taken, so that one slow or
# fast spell of the shared host does not set the figure
MIN_INTERVAL_S = 1.0
SCHEDULE = ("pdrnn", "kf", "sknn", "pdrnn", "kf", "sknnkf", "pdrnn", "kf")
SKNN_SAMPLE_FRAMES = 12  # frames per gated variant checked by brute force
GRADIENT_WINDOWS = 64  # windows per network in the central-difference check
COMMAND_TIMEOUT_S = 170

PARENTS = {int(j): int(DEFAULT_TREE.parent_of(j)) for j in skeleton.JointId}


def noisy(clean: skeleton.SkeletonSequence, seed: int) -> skeleton.SkeletonSequence:
    """The clean sequence under C7's tracker-noise model, noise drawn from seed:
    the recording that both workloads refine."""
    return synth.corrupt(clean, replace(CORRUPTION, seed=seed))


# --- skelrefine commands -----------------------------------------------------------

def cli_config() -> dict:
    """The README's desk-scale config, iteration budgets capped."""
    return {
        "paths": {"corpus": "corpus", "models": "models", "outputs": "out"},
        "corpus": {
            "total_frames": MOTION.n_frames,
            "split_ratios": list(synth.DEFAULT_SPLIT_RATIOS),
            "frame_rate_hz": MOTION.frame_rate_hz,
            "motion_bandwidth_hz": MOTION.motion_bandwidth_hz,
            "seed": MOTION.seed,
            "corruption": {
                "jitter_sigma": CORRUPTION.jitter_sigma,
                "occlusion_rate": CORRUPTION.occlusion_rate,
                "occlusion_duration_frames": list(CORRUPTION.occlusion_duration_frames),
                "displacement_sigma": CORRUPTION.displacement_sigma,
                "seed": CORRUPTION.seed,
            },
        },
        **{name: {"hidden_sizes": list(cfg.hidden_sizes),
                  "recurrent_layer_index": cfg.recurrent_layer_index,
                  "window_length": cfg.window_length, "seed": cfg.seed,
                  "max_iterations": ITERATIONS[name]}
           for name, cfg in NETWORKS.items()},
        "optimizer": {"method": "lbfgs", "max_iterations": 200},
        "fusion": {"k": CLI_KNN_K, "theta": 0.05, "theta_plus": 0.05},
        "variants": ["raw", *VARIANTS],
    }


def cli_commands(work: Path) -> list[tuple[str, list[str]]]:
    """The pipeline in order: synth, three train, four refine, four eval."""
    config = str(work / "config.json")
    commands = [("synth", ["synth", "--config", config])]
    commands += [("train", ["train", "--config", config, "--which", name]) for name in NETWORKS]
    commands += [("refine", ["refine", "--config", config, "--variant", v,
                             "--input", str(work / "input.jsonl"),
                             "--out", str(work / "out" / f"{v}.jsonl")]) for v in VARIANTS]
    commands += [("eval", ["eval", "--pred", str(work / "out" / f"{v}.jsonl"),
                           "--truth", str(work / "corpus" / "test.clean.jsonl"),
                           "--out", str(work / "out" / f"{v}_hist.csv")]) for v in VARIANTS]
    return commands


TRAIN_COMMANDS = 1 + len(NETWORKS)  # synth and the three train commands lead the list


def run_command(work: Path, argv: list[str], span_files: list[Path] | None) -> tuple[float, str]:
    """(wall seconds, standard output) of one skelrefine process.

    With span_files, the process runs as a traced command and its span file
    is appended. A failed command leaves nothing for the ones after it, so
    it stops the run without a result.
    """
    if span_files is None:
        cmd = [sys.executable, "-m", "skelrefine.cli", *argv]
    else:
        span_files.append(work / f"spans.{len(span_files)}.jsonl")
        cmd = [sys.executable, tracing.__file__, str(span_files[-1]), *argv]
    started = time.perf_counter()
    done = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE, text=True,
                          timeout=COMMAND_TIMEOUT_S, check=True)
    return time.perf_counter() - started, done.stdout


def write_config(work: Path) -> None:
    (work / "config.json").write_text(json.dumps(cli_config(), indent=2), encoding="utf-8")


# --- checks -----------------------------------------------------------------------

def network_checks(work: Path, nets: dict, corpus, seed: int) -> list[str]:
    """Strictly falling SSE in each loss CSV, the gradient against central
    differences on seeded windows, and the forward pass of each loaded
    network against the reference fed weights parsed from its checkpoint."""
    rng = np.random.default_rng(seed)
    train = corpus.train
    failures = []
    for name, params in nets.items():
        with open(work / "models" / f"{name}_loss.csv", encoding="utf-8") as fh:
            sse = [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]
        failures += checks.check_strictly_falling(f"{name} training SSE", sse)
        # any stream of the network's dimensions serves the gradient check
        if name == "pdrnn":
            streams = [skeleton.sequence_to_relative(seq, DEFAULT_TREE).data
                       for seq in (train.corrupted, train.clean)]
        else:
            streams = [skeleton.velocities(seq) for seq in (train.corrupted, train.clean)]
        batch = drnn.batch_from_streams(*streams, params.config.window_length)
        picked = np.sort(rng.choice(batch.n_windows, GRADIENT_WINDOWS, replace=False))
        sample = drnn.TrainingBatch(batch.inputs[picked], batch.targets[picked])

        def objective(vector, cfg=params.config, sample=sample):
            loss, grads = drnn.loss_and_gradient(drnn.unpack_params(cfg, vector), sample)
            return loss, drnn.pack_params(grads)

        failures += checks.check_directional_derivative(
            f"{name} loss_and_gradient", objective, drnn.pack_params(params),
            int(rng.integers(2**31)))
        payload = json.loads((work / "models" / f"{name}.json").read_text(encoding="utf-8"))
        stream = streams[0][:300]
        failures += checks.check_close(
            f"{name} forward pass", drnn.run_stream(params, stream),
            checks.forward_reference(checks.weights_from_checkpoint(payload), stream))
    return failures


def sample_frames(rng, n_frames: int) -> list[int]:
    return sorted(int(t) for t in rng.choice(np.arange(1, n_frames), SKNN_SAMPLE_FRAMES,
                                             replace=False))


def fusion_checks(models, source, outputs: dict, seed: int) -> list[str]:
    """Each variant's output against references fed the program's own streams."""
    tree = DEFAULT_TREE
    rng = np.random.default_rng(seed)
    refined = drnn.refine_positions(models.pdrnn, source, tree)
    refined_vel = drnn.refine_velocities(models.vdrnn, refined)
    states = fusion.kalman_filter_stream(refined.data, refined_vel, models.kalman_r,
                                         models.kalman_q)
    state_vel = drnn.run_stream(models.vdrnn_plus, np.diff(states, axis=0))
    failures = checks.check_close(
        "pdrnn output", outputs["pdrnn"],
        checks.position_refinement_reference(checks.weights_of(models.pdrnn), source.data,
                                             PARENTS))
    failures += checks.check_close(
        "vdrnn stream", refined_vel,
        checks.forward_reference(checks.weights_of(models.vdrnn),
                                 np.diff(refined.data, axis=0)))
    failures += checks.check_close(
        "vdrnn_plus stream", state_vel,
        checks.forward_reference(checks.weights_of(models.vdrnn_plus), np.diff(states, axis=0)))
    failures += checks.check_kalman("kf output", outputs["kf"], refined.data, refined_vel,
                                    models.kalman_r, models.kalman_q, range(48))
    for variant, store, gate, query, velocity in (
        ("sknn", models.store, models.gate, refined.data, refined_vel),
        ("sknnkf", models.store_plus, models.gate_plus, states, state_vel),
    ):
        out = outputs[variant]
        failures += checks.check_within_target_range(f"{variant} output", out, store.targets)
        failures += checks.check_sknn_frames(
            f"{variant} output", store.keys, store.targets, store.k, gate.sigma2, gate.theta,
            query, velocity, out, sample_frames(rng, len(out)))
    return failures


def score_checks(reports: dict, outputs: dict, truth) -> list[str]:
    """APE and AJE from their definitions; histogram bands that sum to AJE."""
    failures = []
    for variant in VARIANTS:
        report = reports[variant]
        failures += checks.check_scores(variant, report["ape"], report["aje"],
                                        outputs[variant], truth.data)
        failures += checks.check_histogram_sums(variant, report["histogram"], report["aje"])
    return failures


def cli_checks(work: Path, corpus, source, reports: dict) -> list[str]:
    """The written artifacts against references computed from the
    checkpoints and the Kalman noise file the commands wrote. The gated-KNN
    brute force needs the fitted gates, which no command writes; refine
    checks it, and here the outputs are held to the store's target range."""
    truth = corpus.test.clean
    written_truth = seqio.read_sequence(work / "corpus" / "test.clean.jsonl")
    failures = checks.check_close("test.clean.jsonl", written_truth.data, truth.data, 0, 0)
    outputs = {v: seqio.read_sequence(work / "out" / f"{v}.jsonl").data for v in VARIANTS}
    failures += score_checks(reports, outputs, truth)
    for variant in VARIANTS:
        with open(work / "out" / f"{variant}_hist.csv", encoding="utf-8") as fh:
            csv_bands = [float(line.split(",")[2]) for line in fh.read().splitlines()[1:]]
        failures += checks.check_close(f"{variant} histogram CSV", csv_bands,
                                       reports[variant]["histogram"], 0, 0)
    weights = {name: checks.weights_from_checkpoint(json.loads(
        (work / "models" / f"{name}.json").read_text(encoding="utf-8"))) for name in NETWORKS}
    refined = checks.position_refinement_reference(weights["pdrnn"], source.data, PARENTS)
    refined_vel = checks.forward_reference(weights["vdrnn"], np.diff(refined, axis=0))
    noise = json.loads((work / "models" / "kalman.json").read_text(encoding="utf-8"))
    failures += checks.check_close("pdrnn output", outputs["pdrnn"], refined)
    failures += checks.check_kalman("kf output", outputs["kf"], refined, refined_vel,
                                    noise["R"], noise["Q"], range(48))
    for variant in ("sknn", "sknnkf"):
        failures += checks.check_within_target_range(f"{variant} output", outputs[variant],
                                                     corpus.train.clean.data)
    return failures


# --- measurement ------------------------------------------------------------------

def measure(args, one_round, set_tracing) -> tuple[list[dict], int, float | None]:
    """(rounds, operations attempted, tracing overhead in seconds).

    Untraced: whole rounds while the elapsed time plus one more median round
    fits in --seconds, and at least one. Traced: one round with tracing off,
    then one with it on; the metrics come from the first, and the overhead is
    the second's run_s minus the first's. one_round returns its timings and
    the number of operations it attempted.
    """
    rounds, attempted = [], 0

    def run() -> dict:
        nonlocal attempted
        round_ = one_round()
        attempted += round_.pop("operations")
        print(f"round: {json.dumps(round_)}", file=sys.stderr)
        return round_

    if args.trace:
        set_tracing(False)
        untraced = run()
        set_tracing(True)
        traced = run()
        set_tracing(False)
        return [untraced], attempted, traced["run_s"] - untraced["run_s"]
    started = time.monotonic()
    while True:
        rounds.append(run())
        if time.monotonic() - started + median(rounds, "run_s") > args.seconds:
            return rounds, attempted, None


def median(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def peak_rss_mb() -> float:
    """Peak resident set of the largest process of the workload: this one or
    a skelrefine process it ran."""
    return max(resource.getrusage(who).ru_maxrss  # KiB on Linux
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


# --- refine ---------------------------------------------------------------------

def refine_workload(args, tracer):
    tree = DEFAULT_TREE
    work = Path(args.work)
    write_config(work)
    span_files: list[Path] = []
    train_s = 0.0
    for command, argv in cli_commands(work)[:TRAIN_COMMANDS]:
        elapsed, _ = run_command(work, argv, span_files if args.trace else None)
        if command == "train":
            train_s += elapsed
    corpus = synth.read_corpus(work / "corpus")
    nets = {name: drnn.load_checkpoint(work / "models" / f"{name}.json") for name in NETWORKS}
    models = fusion.fit_fusion_models(corpus, tree, **nets, k=KNN_K,
                                      variants=("sknn", "kf", "sknnkf"))
    truth = corpus.test.clean
    source = noisy(truth, args.seed)
    setup_done = time.monotonic()
    if args.setup_only:
        return setup_done, None
    outputs, reports = {}, {}

    def one_round():
        rates = {v: [] for v in VARIANTS}  # frames per second, one per interval
        calls = 0
        for variant in SCHEDULE:
            n = 0
            started = time.perf_counter()
            while True:
                outputs[variant] = fusion.run_pipeline(variant, source, models)
                n += 1
                elapsed = time.perf_counter() - started
                if elapsed >= MIN_INTERVAL_S:
                    break
            rates[variant].append(n * len(source) / elapsed)
            calls += n
        started = time.perf_counter()
        for variant in VARIANTS:
            reports[variant] = metrics.evaluate(outputs[variant], truth)
        round_ = {f"refine_fps.{v}": statistics.median(r) for v, r in rates.items()}
        # one refine of the test split per variant, then scoring
        round_["run_s"] = (sum(len(source) / fps for fps in round_.values())
                           + time.perf_counter() - started)
        round_["operations"] = calls
        return round_

    def set_tracing(on: bool) -> None:
        if on:
            tracer.install()
        else:
            tracer.uninstall()

    rounds, attempted, overhead_s = measure(args, one_round, set_tracing)
    values = {"run_s": median(rounds, "run_s"), "train_s": train_s,
              "peak_rss_mb": peak_rss_mb()}
    for variant in VARIANTS:
        values[f"refine_fps.{variant}"] = median(rounds, f"refine_fps.{variant}")
        values[f"ape.{variant}"] = reports[variant].ape
        values[f"aje.{variant}"] = reports[variant].aje
    out_data = {v: outputs[v].data for v in VARIANTS}
    failures = network_checks(work, nets, corpus, args.seed)
    failures += fusion_checks(models, source, out_data, args.seed)
    failures += score_checks({v: {"ape": r.ape, "aje": r.aje, "histogram": r.histogram}
                              for v, r in reports.items()}, out_data, truth)
    return setup_done, {"attempted": attempted, "metrics": values, "overhead_s": overhead_s,
                        "span_files": span_files, "failures": failures}


# --- cli ------------------------------------------------------------------------

def cli_workload(args, tracer):
    work = Path(args.work)
    write_config(work)
    corpus = synth.build_corpus(MOTION, CORRUPTION)
    source = noisy(corpus.test.clean, args.seed)
    seqio.write_sequence(work / "input.jsonl", source)
    setup_done = time.monotonic()
    if args.setup_only:
        return setup_done, None
    reports: dict = {}
    span_files: list[Path] = []
    traced = [False]

    def set_tracing(on: bool) -> None:
        traced[0] = on

    def one_round():
        round_ = {"train_s": 0.0, "operations": 0}
        started = time.perf_counter()
        for command, argv in cli_commands(work):
            elapsed, stdout = run_command(work, argv, span_files if traced[0] else None)
            round_["operations"] += 1
            if command == "train":
                round_["train_s"] += elapsed
            elif command == "refine":
                variant = argv[argv.index("--variant") + 1]
                round_[f"refine_fps.{variant}"] = len(source) / elapsed
            elif command == "eval":
                reports[Path(argv[argv.index("--pred") + 1]).stem] = json.loads(stdout)
        round_["run_s"] = time.perf_counter() - started
        return round_

    rounds, attempted, overhead_s = measure(args, one_round, set_tracing)
    values = {name: median(rounds, name)
              for name in ("run_s", "train_s", *(f"refine_fps.{v}" for v in VARIANTS))}
    values["peak_rss_mb"] = peak_rss_mb()
    for variant in VARIANTS:
        values[f"ape.{variant}"] = reports[variant]["ape"]
        values[f"aje.{variant}"] = reports[variant]["aje"]
    nets = {name: drnn.load_checkpoint(work / "models" / f"{name}.json") for name in NETWORKS}
    failures = network_checks(work, nets, corpus, args.seed)
    failures += cli_checks(work, corpus, source, reports)
    return setup_done, {"attempted": attempted, "metrics": values,
                        "overhead_s": overhead_s, "span_files": span_files,
                        "failures": failures}


# --- entry point ------------------------------------------------------------------

def machine() -> dict:
    """CPU count, BLAS threads and the numpy/BLAS build of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": os.cpu_count(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


WORKLOADS = {"refine": refine_workload, "cli": cli_workload}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    # refine is traced in process from before set-up; skelrefine commands
    # trace themselves
    tracer = None
    if args.trace and args.workload != "cli":
        tracer = tracing.Tracer()
        tracer.install()
    setup_done, result = WORKLOADS[args.workload](args, tracer)
    payload = {"setup_done": setup_done, "machine": machine()}
    if result is not None:
        overhead_s = result.pop("overhead_s")
        span_files = result.pop("span_files", [])
        if tracer is not None:
            span_files.append(Path(args.work) / "spans.jsonl")
            tracer.dump(span_files[-1])
        if args.trace:
            layers = tracing.layer_metrics(tracing.load_spans(span_files))
            layers["trace.overhead_s"] = overhead_s
            result["layers"] = layers
        payload.update(result, failed=0)
    Path(args.result).write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
