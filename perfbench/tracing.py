"""Span tracing for the benchmark's traced run, from outside the program.

The tracer replaces public functions of the skelrefine modules with
wrappers, through the module (or class) attributes the program itself looks
them up by, and restores them on uninstall. Each call becomes one span:
name, start, end, parent span and a few attributes (frames processed,
neighbours kept, iterations taken). Spans stay in memory and are written out
as JSON lines when the run ends; `layer_metrics` turns them into the
per-layer metrics. A layer's self time is its span minus its child spans.

Run as a script, this file is a traced `skelrefine` command:

    python3 perfbench/tracing.py SPANS_FILE <skelrefine arguments...>
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

NETWORKS = ("pdrnn", "vdrnn", "vdrnn_plus")
GATED_VARIANTS = ("sknn", "sknnkf")
# the commands that both workloads run; refine and eval run only in cli, and
# their process time is in cli's end-to-end refine_fps and run_s
COMMANDS = ("synth", "train")


def _frames(args, kwargs, result):
    return {"frames": len(args[0])}


def _result_frames(args, kwargs, result):
    return {"frames": len(result)}


def _second_arg_frames(args, kwargs, result):
    return {"frames": len(args[1])}


def _train_windows(args, kwargs, result):
    batches = args[1:3]
    size = sum(b.inputs.nbytes + b.targets.nbytes for b in batches)
    return {"window_mb": size / 2**20}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _gate_mask(args, kwargs, result):
    # result is the (k, 48) pass mask of one sknn_step
    return {
        "cells": result.size,
        "kept": int(result.sum()),
        "components": result.shape[1],
        "fallback": int((~result.any(axis=0)).sum()),
    }


def _pipeline(args, kwargs, result):
    return {"variant": args[0]}


class Tracer:
    """In-memory spans plus the wrappers that record them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        index = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(index)

    def traced(self, function, name: str, describe=None):
        """function wrapped so that each call records one span."""

        @wraps(function)
        def wrapper(*args, **kwargs):
            index = self._open(name, {})
            try:
                result = function(*args, **kwargs)
                # inside the span, so that its cost stays out of the
                # caller's self time
                if describe is not None:
                    self.spans[index][4].update(describe(args, kwargs, result))
            finally:
                self._close(index)
            return result

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patched:
            return
        from skelrefine import cli, drnn, fusion, metrics, optim, seqio, skeleton, synth

        plain = [
            (drnn, "loss_and_gradient", "drnn.loss_and_gradient", None),
            (drnn, "loss_value", "drnn.loss_value", None),
            (drnn, "run_stream", "drnn.run_stream", _result_frames),
            (drnn, "train", "drnn.train", _train_windows),
            (drnn, "save_checkpoint", "drnn.checkpoint_io", None),
            (drnn, "load_checkpoint", "drnn.checkpoint_io", None),
            # drnn imported the encoders by name, so its own copies are
            # patched beside the skeleton module's
            (skeleton, "sequence_to_relative", "skeleton.encode", _frames),
            (skeleton, "sequence_to_absolute", "skeleton.encode", _frames),
            (drnn, "sequence_to_relative", "skeleton.encode", _frames),
            (drnn, "sequence_to_absolute", "skeleton.encode", _frames),
            (fusion, "nearest_indices", "fusion.nearest_indices", None),
            (fusion, "sknn_step", "fusion.sknn_step", None),
            (fusion.GateModel, "passes", "fusion.gate_passes", _gate_mask),
            (fusion, "kalman_filter_stream", "fusion.kalman_filter_stream", _frames),
            (fusion, "fit_fusion_models", "fusion.fit_fusion_models", None),
            (fusion, "run_pipeline", "fusion.run_pipeline", _pipeline),
            (seqio, "read_sequence", "seqio.read_sequence", _result_frames),
            (seqio, "write_sequence", "seqio.write_sequence", _second_arg_frames),
            (synth, "build_corpus", "synth.build_corpus", None),
            (metrics, "evaluate", "metrics.evaluate", None),
        ]
        plain += [(cli, f"cmd_{c}", f"cli.cmd_{c}", None) for c in COMMANDS]
        for owner, attr, name, describe in plain:
            self._patch(owner, attr, self.traced(getattr(owner, attr), name, describe))

        # minimize's objective and callback become child spans, so that its
        # self time is the optimizer's own work
        minimize = self.traced(optim.minimize, "optim.minimize", _iterations)

        def traced_minimize(objective, x0, spec=None, callback=None):
            objective = self.traced(objective, "optim.objective")
            if callback is not None:
                callback = self.traced(callback, "optim.callback")
            return minimize(objective, x0, spec, callback)

        self._patch(optim, "minimize", traced_minimize)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, attrs]) + "\n")


def load_spans(paths) -> list[list]:
    """Spans of several files in one list, parent indices shifted to match."""
    spans: list[list] = []
    for path in paths:
        offset = len(spans)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                name, start, end, parent, attrs = json.loads(line)
                spans.append([name, start, end, None if parent is None else parent + offset,
                              attrs])
    return spans


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics by name, from recorded spans; units are in BENCHMARK.json.

    A metric whose layer did no work in these spans is left out.
    """
    duration = [end - start for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent is not None:
            children[parent] += duration[i]

    def inherited(i: int, key: str):
        while i is not None:
            if key in spans[i][4]:
                return spans[i][4][key]
            i = spans[i][3]
        return None

    def under(i: int, name: str) -> bool:
        i = spans[i][3]
        while i is not None:
            if spans[i][0] == name:
                return True
            i = spans[i][3]
        return False

    def total(name: str) -> float:
        return sum(duration[i] for i in by_name[name])

    def mean(indices, times=duration) -> float:
        return statistics.fmean(times[i] for i in indices)

    def attr_sum(indices, key: str) -> float:
        return sum(spans[i][4][key] for i in indices)

    self_time = [d - c for d, c in zip(duration, children)]
    out: dict[str, float] = {}
    for net in NETWORKS:
        mine = {name: [i for i in by_name[name] if inherited(i, "network") == net]
                for name in ("drnn.loss_and_gradient", "drnn.loss_value", "drnn.train",
                             "optim.minimize")}
        grads = mine["drnn.loss_and_gradient"]
        if grads:
            out[f"drnn.loss_grad_ms.{net}"] = 1e3 * mean(grads)
            out[f"drnn.loss_grad_calls.{net}"] = len(grads)
        if mine["drnn.loss_value"]:
            out[f"drnn.val_loss_ms.{net}"] = 1e3 * mean(mine["drnn.loss_value"])
        if mine["drnn.train"]:
            out[f"drnn.window_mb.{net}"] = max(spans[i][4]["window_mb"]
                                               for i in mine["drnn.train"])
        iterations = attr_sum(mine["optim.minimize"], "iterations")
        if iterations:
            out[f"optim.iterations.{net}"] = iterations
            out[f"optim.self_ms_per_iter.{net}"] = (
                1e3 * sum(self_time[i] for i in mine["optim.minimize"]) / iterations)

    for metric, name in (("drnn.stream_us_per_frame", "drnn.run_stream"),
                         ("skeleton.encode_us_per_frame", "skeleton.encode"),
                         ("fusion.kalman_us_per_frame", "fusion.kalman_filter_stream")):
        frames = attr_sum(by_name[name], "frames")
        if frames:
            out[metric] = 1e6 * total(name) / frames
    queries = by_name["fusion.nearest_indices"]
    if queries:
        out["fusion.knn_us_per_query"] = 1e6 * mean(queries)
    if by_name["fusion.sknn_step"]:
        out["fusion.gate_us_per_frame"] = 1e6 * mean(by_name["fusion.sknn_step"], self_time)
    if by_name["fusion.fit_fusion_models"]:
        out["fusion.fit_s"] = total("fusion.fit_fusion_models")
        fit_queries = sum(1 for i in queries if under(i, "fusion.fit_fusion_models"))
        if fit_queries:
            out["fusion.fit_knn_queries"] = fit_queries
    for variant in GATED_VARIANTS:
        masks = [i for i in by_name["fusion.gate_passes"]
                 if inherited(i, "variant") == variant]
        if masks:
            out[f"fusion.kept_ratio.{variant}"] = (
                attr_sum(masks, "kept") / attr_sum(masks, "cells"))
            out[f"fusion.fallback_ratio.{variant}"] = (
                attr_sum(masks, "fallback") / attr_sum(masks, "components"))

    for metric, name in (("drnn.checkpoint_io_s", "drnn.checkpoint_io"),
                         ("seqio.read_s", "seqio.read_sequence"),
                         ("seqio.write_s", "seqio.write_sequence"),
                         ("synth.build_s", "synth.build_corpus"),
                         *((f"cli.cmd_s.{c}", f"cli.cmd_{c}") for c in COMMANDS)):
        if by_name[name]:
            out[metric] = total(name)
    if by_name["seqio.read_sequence"]:
        out["seqio.read_frames"] = attr_sum(by_name["seqio.read_sequence"], "frames")
    if by_name["metrics.evaluate"]:
        out["metrics.evaluate_ms"] = 1e3 * mean(by_name["metrics.evaluate"])
    if by_name["cli.import"]:
        out["cli.import_s"] = mean(by_name["cli.import"])
    return out


def _traced_command(spans_path: str, argv: list[str]) -> int:
    started = time.perf_counter()
    from skelrefine import cli

    tracer = Tracer()
    tracer.spans.append(["cli.import", started, time.perf_counter(), None, {}])
    tracer.install()
    attrs = {"command": argv[0]}
    if "--which" in argv:
        attrs["network"] = argv[argv.index("--which") + 1]
    try:
        with tracer.span("cli.command", **attrs):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_traced_command(sys.argv[1], sys.argv[2:]))
