"""Spans and counts around the public functions of every gfbs module.

``Tracer.install`` rebinds each wrapped function in every gfbs module
namespace that holds it, so calls made through ``from .x import f`` are
seen too; ``uninstall`` puts the originals back. Nothing under ``src/``
changes. Spans are kept in memory as [name, start, end, parent] and
written out once, at the end of a run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute) of every wrapped function; "Class.method" wraps a method.
TARGETS = {
    "gfbs.autograd": ["conv2d", "batchnorm", "relu", "maxpool2d", "add", "flatten",
                      "linear", "loss", "backward", "SGD.step", "Tape.record"],
    "gfbs.netgraph": ["parse_spec", "build_network", "forward_full", "count_flops",
                      "build_coupling_groups", "infer_shapes", "save_checkpoint",
                      "load_checkpoint"],
    "gfbs.data": ["open_dataset", "DatasetHandle.train_batches"],
    "gfbs.trainer": ["train", "finetune", "evaluate", "Adam.step"],
    "gfbs.saliency": ["capture", "normalize_layerwise", "score", "saliency_records",
                      "write_saliency_csv", "read_saliency_csv"],
    "gfbs.oracle": ["oracle_delta_loss", "spearman", "spot_check_zero_equivalence",
                    "write_oracle_csv"],
    "gfbs.surgeon": ["plan_prune", "validate_plan", "apply_prune", "write_plan"],
    "gfbs.cli": ["cmd_train", "cmd_saliency", "cmd_oracle", "cmd_prune",
                 "cmd_finetune", "cmd_eval", "cmd_report", "_sweep_lambda", "_write_manifest"],
}

OPS = ("conv2d", "batchnorm", "relu", "maxpool2d", "add", "flatten", "linear", "loss")
LOSS_OPS = ("cross_entropy", "mse")
OPTIMIZER_STEPS = ("autograd.SGD.step", "trainer.Adam.step")


def span_name(module: str, attr: str) -> str:
    return module.split(".", 1)[1] + "." + attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self._restore: list = []
        self._train_forward_start = None

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _active(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._before(name, args, kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._after(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _before(self, name, args, kwargs) -> None:
        if name == "autograd.conv2d":
            x, params = args[0], args[1]
            stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
            padding = kwargs.get("padding", args[3] if len(args) > 3 else 0)
            n, c_in, h, w = x.shape
            c_out, _, k, _ = params.weight.shape
            ho = (h + 2 * padding - k) // stride + 1
            wo = (w + 2 * padding - k) // stride + 1
            macs = n * ho * wo * c_out * c_in * k * k
            self.counts["conv2d.fwd_flop"] += 2 * macs
            self.counts["conv2d.cols_bytes"] += n * ho * wo * c_in * k * k * x.data.itemsize
            if self._active("oracle.oracle_delta_loss"):
                self.counts["oracle.conv2d_calls"] += 1
        elif name == "netgraph.forward_full":
            if self._active("oracle.oracle_delta_loss"):
                self.counts["oracle.forward_calls"] += 1
            tape = kwargs.get("tape", args[3] if len(args) > 3 else None)
            if tape is not None and self._parent_name() == "trainer.train":
                self._train_forward_start = time.perf_counter()

    def _after(self, name, args, kwargs, result) -> None:
        if name in OPTIMIZER_STEPS and self._parent_name() == "trainer.train" \
                and self._train_forward_start is not None:
            self.samples["trainer.step_s"].append(
                time.perf_counter() - self._train_forward_start)
            self._train_forward_start = None
        elif name == "oracle.oracle_delta_loss":
            self.counts["oracle.groups"] += len(result)
        elif name == "netgraph.save_checkpoint":
            self.counts["netgraph.checkpoint_bytes"] += os.path.getsize(args[1])
        elif name == "surgeon.apply_prune":
            plan = args[1]
            self.counts["surgeon.removed_channels"] += len(plan.removed)
            self.samples["surgeon.flops_ratio"].append(plan.flops_ratio)

    def _wrap_record(self, record):
        """Tape.record: time each node's backward under ``autograd.<op>.bwd``."""
        tracer = self

        def traced_record(tape, op, inputs, output, backward_fn):
            op_name = "loss" if op in LOSS_OPS else op
            name = f"autograd.{op_name}.bwd"
            if op == "conv2d":
                x, w = inputs[0], inputs[1]
                bwd_flop = 4 * output.size * w.shape[1] * w.shape[2] * w.shape[3]
                cols_bytes = (output.size // w.shape[0] * w.shape[1] * w.shape[2]
                              * w.shape[3] * x.data.itemsize)
            else:
                bwd_flop = cols_bytes = 0

            def timed(gout):
                idx = tracer._open(name)
                try:
                    backward_fn(gout)
                finally:
                    tracer._close(idx)
                if bwd_flop:
                    tracer.counts["conv2d.bwd_flop"] += bwd_flop
                    tracer.counts["conv2d.cols_bytes"] += cols_bytes

            return record(tape, op, inputs, output, timed)

        return traced_record

    def _wrap_batches(self, train_batches):
        """DatasetHandle.train_batches: time every batch the loop waits for."""
        tracer = self

        def traced_batches(handle, *args, **kwargs):
            it = train_batches(handle, *args, **kwargs)
            while True:
                idx = tracer._open("data.batch")
                try:
                    batch = next(it)
                except StopIteration:
                    tracer._close(idx)
                    tracer.spans.pop()
                    return
                tracer._close(idx)
                yield batch

        return traced_batches

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import importlib

        functions = {}  # id(original) -> (original, wrapper)
        for module, attrs in TARGETS.items():
            mod = importlib.import_module(module)
            for attr in attrs:
                owner, _, meth = attr.rpartition(".")
                holder = getattr(mod, owner) if owner else mod
                orig = getattr(holder, meth)
                if attr == "Tape.record":
                    new = self._wrap_record(orig)
                elif attr == "DatasetHandle.train_batches":
                    new = self._wrap_batches(orig)
                else:
                    new = self.wrap(span_name(module, attr), orig)
                if owner:
                    self._restore.append((holder, meth, orig))
                    setattr(holder, meth, new)
                else:
                    functions[id(orig)] = (orig, new)
        # rebind every imported name, in gfbs and in the caller's modules alike
        for m in list(sys.modules.values()):
            for key, val in list(getattr(m, "__dict__", {}).items()):
                hit = functions.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((m, key, val))
                    setattr(m, key, hit[1])

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "samples": dict(self.samples)}


# ---------------------------------------------------------------------------
# aggregation


class Profile:
    """Per-name totals, self times and call counts, mergeable across the
    processes of one workload."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.under: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.spans = 0

    def add(self, dump: dict) -> None:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            d = end - start
            self.total[name] += d
            self.self_time[name] += d - child[i]
            self.calls[name] += 1
            if parent >= 0:
                self.under[(spans[parent][0], name)] += d
        for k, v in dump["counts"].items():
            self.counts[k] += v
        for k, v in dump["samples"].items():
            self.samples[k].extend(v)
        self.spans += len(spans)


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(p: Profile, cli_seconds: dict[str, float], artifact_bytes: int,
                  source_lines: dict[str, int], spearman_rows: dict[str, float]) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    m: dict[str, tuple[float, str]] = {}
    for op in OPS:
        m[f"autograd.{op}.fwd_ms"] = (_ms(p.self_time[f"autograd.{op}"]), "ms")
        m[f"autograd.{op}.bwd_ms"] = (_ms(p.self_time[f"autograd.{op}.bwd"]), "ms")
        m[f"autograd.{op}.calls"] = (p.calls[f"autograd.{op}"], "count")
    conv_flop = p.counts["conv2d.fwd_flop"] + p.counts["conv2d.bwd_flop"]
    conv_s = p.self_time["autograd.conv2d"] + p.self_time["autograd.conv2d.bwd"]
    m["autograd.conv2d.gflop"] = (conv_flop / 1e9, "GFLOP")
    m["autograd.conv2d.gflops_per_s"] = (conv_flop / 1e9 / conv_s if conv_s else 0.0,
                                         "GFLOP/s")
    m["autograd.conv2d.im2col_mb"] = (p.counts["conv2d.cols_bytes"] / 1e6, "MB")

    steps = p.samples["trainer.step_s"]
    m["trainer.step_ms"] = (_ms(_median(steps)), "ms")
    m["trainer.steps"] = (len(steps), "count")
    m["trainer.forward_ms"] = (_ms(p.under[("trainer.train", "netgraph.forward_full")]), "ms")
    m["trainer.backward_ms"] = (_ms(p.under[("trainer.train", "autograd.backward")]), "ms")
    m["trainer.update_ms"] = (_ms(sum(p.under[("trainer.train", s)]
                                      for s in OPTIMIZER_STEPS)), "ms")
    m["trainer.evaluate_ms"] = (_ms(p.total["trainer.evaluate"]), "ms")

    m["data.open_dataset_ms"] = (_ms(p.total["data.open_dataset"]), "ms")
    m["data.batch_wait_ms"] = (_ms(p.total["data.batch"]), "ms")
    m["data.batches"] = (p.calls["data.batch"], "count")

    groups = p.counts["oracle.groups"]
    m["oracle.ms_per_group"] = (_ms(p.total["oracle.oracle_delta_loss"]) / groups
                                if groups else 0.0, "ms")
    m["oracle.groups"] = (groups, "count")
    m["oracle.forward_calls"] = (p.counts["oracle.forward_calls"], "count")
    m["oracle.conv2d_calls"] = (p.counts["oracle.conv2d_calls"], "count")

    m["saliency.capture_ms"] = (_ms(p.total["saliency.capture"]), "ms")
    m["saliency.capture.calls"] = (p.calls["saliency.capture"], "count")
    m["saliency.normalize_score_ms"] = (_ms(p.total["saliency.normalize_layerwise"]
                                            + p.total["saliency.score"]), "ms")
    for key, value in spearman_rows.items():
        m[f"saliency.{key}"] = (value, "count" if "overlap" in key else "ratio")

    m["netgraph.forward_full.ms"] = (_ms(p.total["netgraph.forward_full"]), "ms")
    m["netgraph.forward_full.calls"] = (p.calls["netgraph.forward_full"], "count")
    m["netgraph.build_coupling_groups.calls"] = (
        p.calls["netgraph.build_coupling_groups"], "count")
    m["netgraph.build_coupling_groups.ms"] = (
        _ms(p.total["netgraph.build_coupling_groups"]), "ms")
    m["netgraph.infer_shapes.calls"] = (p.calls["netgraph.infer_shapes"], "count")
    m["netgraph.checkpoint_save_ms"] = (_ms(p.total["netgraph.save_checkpoint"]), "ms")
    m["netgraph.checkpoint_load_ms"] = (_ms(p.total["netgraph.load_checkpoint"]), "ms")
    m["netgraph.checkpoint_bytes"] = (p.counts["netgraph.checkpoint_bytes"], "bytes")

    m["surgeon.plan_ms"] = (_ms(p.total["surgeon.plan_prune"]), "ms")
    m["surgeon.validate_ms"] = (_ms(p.total["surgeon.validate_plan"]), "ms")
    m["surgeon.apply_ms"] = (_ms(p.total["surgeon.apply_prune"]), "ms")
    m["surgeon.removed_channels"] = (p.counts["surgeon.removed_channels"], "count")
    m["surgeon.flops_ratio"] = (_median(p.samples["surgeon.flops_ratio"]), "ratio")

    for command in ("train", "saliency", "oracle", "prune", "finetune", "eval", "report"):
        m[f"cli.{command}_s"] = (cli_seconds.get(command, 0.0), "s")
    m["cli.manifest_ms"] = (_ms(p.total["cli._write_manifest"]), "ms")
    m["cli.artifact_bytes"] = (artifact_bytes, "bytes")

    for module, lines in source_lines.items():
        m[f"{module}.source_lines"] = (lines, "count")
    m["trace.spans"] = (p.spans, "count")
    return m


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds, from a traced no-op function."""
    tracer = Tracer()
    noop = tracer.wrap("noop", lambda: None)
    t = time.perf_counter()
    for _ in range(calls):
        noop()
    traced = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(calls):
        (lambda: None)()
    return max(0.0, traced - (time.perf_counter() - t)) / calls


def write_trace(path, dumps: list[dict], summary: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"summary": summary, "processes": dumps}, fh)
