"""The benchmark's three workloads and one timed round of each.

A round is the whole pruning pipeline from a freshly initialised network:
train, probe saliency, brute-force oracle, plan, surgery, finetune, eval.
``vgg_classify`` and ``dncnn_denoise`` call the library in-process;
``resnet_sweep`` drives the ``gfbs`` commands as subprocesses, with every
artifact on disk, and ends with a lambda sweep. Each round attempts the
same seven operations, so the failed share never depends on run length.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gfbs.autograd import Tensor
from gfbs.data import open_dataset
from gfbs.netgraph import build_network, forward_full, parse_spec
from gfbs.oracle import oracle_delta_loss
from gfbs.saliency import PruneConfig, saliency_records
from gfbs.surgeon import apply_prune, plan_prune, validate_plan
from gfbs.trainer import TrainConfig, evaluate, finetune, train

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

VGG_SPEC = """\
name tinyvgg
input 1 16 16
conv_bn_relu 16 3 1 1
pool 0 2 2 0
conv_bn_relu 32 3 1 1
pool 0 2 2 0
flatten
linear 10
"""

DNCNN_SPEC = """\
name tinydncnn
input 1 12 12
residual_begin
""" + "conv_bn_relu 32 3 1 1\n" * 7 + """\
conv 1 3 1 1
residual_add
"""

# Skip joins tie the conv_bn blocks (no ReLU) to the stem, so the first
# sixteen coupling groups have three members each.
RES_SPEC = """\
name tinyres
input 1 12 12
conv_bn_relu 16 3 1 1
residual_begin
conv_bn_relu 16 3 1 1
conv_bn 16 3 1 1
residual_add
residual_begin
conv_bn_relu 16 3 1 1
conv_bn 16 3 1 1
residual_add
pool 0 2 2 0
conv_bn_relu 32 3 1 1
pool 0 2 2 0
flatten
linear 10
"""

TAU_GRID = tuple(float(t) for t in np.linspace(0.05, 0.95, 19))
PHASES = ("train", "saliency", "oracle", "plan", "surgery", "finetune", "eval")
COMMANDS = ("train", "saliency", "oracle", "prune", "finetune", "eval", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    spec_text: str
    descriptor: str  # formatted with the run's seed
    probe: int  # probe batch of the saliency capture and the oracle
    round_s: float  # nominal round time; a run makes seconds // round_s rounds
    lam: float = 0.05
    flops_target: float | None = None  # in-process: densest plan at or under it
    base: dict = field(default_factory=dict)  # TrainConfig fields, baseline
    tune: dict = field(default_factory=dict)  # TrainConfig fields, finetune
    cli: dict = field(default_factory=dict)  # resnet_sweep command settings

    @property
    def task(self) -> str:
        return "denoise" if self.descriptor.startswith("denoise") else "classify"

    @property
    def loss_kind(self) -> str:
        return "mse" if self.task == "denoise" else "cross_entropy"

    def data_descriptor(self, seed: int) -> str:
        return self.descriptor.format(seed=seed)

    def rounds(self, seconds: float) -> int:
        """Rounds per run: fixed by the run length alone, so that parent and
        child commits measure the same work."""
        return max(1, int(seconds // self.round_s))


WORKLOADS = {
    "vgg_classify": Workload(
        "vgg_classify", VGG_SPEC, "shapes:n_train=512,n_test=128,size=16,seed={seed}",
        probe=256, round_s=7.5, flops_target=0.5,
        base=dict(epochs=12, batch_size=32, lr=0.05, lr_milestones=(8, 10),
                  lr_decay=0.2, momentum=0.9, weight_decay=1e-4, eval_every=12),
        tune=dict(epochs=6, batch_size=32, lr=0.005, lr_milestones=(4,),
                  lr_decay=0.2, momentum=0.9, weight_decay=1e-4, eval_every=6)),
    "dncnn_denoise": Workload(
        "dncnn_denoise", DNCNN_SPEC,
        "denoise:n_train=256,n_test=96,size=12,sigma=50,seed={seed}",
        probe=32, round_s=25.0, flops_target=0.7,
        base=dict(epochs=8, batch_size=16, lr=3e-3, lr_milestones=(6,), lr_decay=0.3,
                  optimizer="adam", loss="mse", eval_every=8),
        tune=dict(epochs=3, batch_size=16, lr=1e-3, optimizer="adam", loss="mse",
                  eval_every=3)),
    "resnet_sweep": Workload(
        "resnet_sweep", RES_SPEC, "shapes:n_train=384,n_test=96,size=12,seed={seed}",
        probe=64, round_s=17.0,
        cli=dict(train_epochs=8, batch_size=32, lr=0.05, tau=0.3, tune_epochs=4,
                 sweep_tau=0.2, sweep_epochs=2)),
}


def n_train(wl: Workload) -> int:
    return int(wl.descriptor.split("n_train=")[1].split(",")[0])


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    data: object
    spec: object
    net: object
    probe: tuple


def setup(wl: Workload, seed: int) -> Setup:
    """What a fresh process does before the pipeline: generate the
    datasets, parse the spec, build the initial network."""
    data = open_dataset(wl.data_descriptor(seed))
    spec = parse_spec(wl.spec_text)
    net = build_network(spec, seed=seed)
    return Setup(data, spec, net, data.capture_batch(wl.probe))


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Round:
    attempted: int
    failed: int = 0
    pipeline_s: float = 0.0
    train_samples: int = 0
    train_s: float = 0.0  # CLI: wall clock of the train and finetune commands
    epoch_s: dict = field(default_factory=dict)  # in-process: "base"/"tune" -> epoch times
    oracle_groups: int = 0
    oracle_s: float = 0.0
    base_metric: float = float("nan")
    final_metric: float = float("nan")
    peak_rss_mb: float = 0.0
    signature: tuple = ()
    state: dict = field(default_factory=dict)
    cli_s: dict = field(default_factory=dict)
    trace_dumps: list = field(default_factory=list)

    @property
    def quality(self) -> float:
        return self.final_metric / self.base_metric


def epoch_seconds(history) -> list[float]:
    """Per-epoch time of the training loop, evaluation left out."""
    ends = [m.seconds for m in history if m.split == "train"]
    return [b - a for a, b in zip([0.0] + ends, ends)]


def plan_for_flops(net, records, target: float, lam: float):
    """Densest plan on the tau grid whose FLOPs ratio is at most ``target``."""
    best = None
    for tau in TAU_GRID:
        plan = plan_prune(net, records, PruneConfig(lam=lam, tau=tau))
        if plan.flops_ratio <= target and (best is None or plan.flops_ratio > best.flops_ratio):
            best = plan
    if best is None:
        raise RuntimeError(f"no plan reaches a FLOPs ratio <= {target}")
    report = validate_plan(net, best)
    if not report.ok:
        raise RuntimeError("plan failed validation: " + "; ".join(report.violations))
    return best


def inprocess_round(wl: Workload, st: Setup) -> Round:
    r = Round(attempted=len(PHASES))
    net = st.net.clone()
    x, y = st.probe
    done = 0
    t0 = time.perf_counter()
    try:
        history = train(net, st.data, TrainConfig(**wl.base))
        r.epoch_s["base"] = epoch_seconds(history)
        r.base_metric = history[-1].metric
        done += 1
        records = saliency_records(net, x, y, wl.loss_kind,
                                   PruneConfig(lam=wl.lam, batch_size=wl.probe))
        done += 1
        t = time.perf_counter()
        oracle = oracle_delta_loss(net, x, y, wl.loss_kind)
        r.oracle_s = time.perf_counter() - t
        r.oracle_groups = len(oracle)
        done += 1
        plan = plan_for_flops(net, records, wl.flops_target, wl.lam)
        done += 1
        pruned = apply_prune(net, plan)
        done += 1
        t = time.perf_counter()
        surgery = pruned.clone()  # kept for the checks; not pipeline work
        skipped = time.perf_counter() - t
        r.epoch_s["tune"] = epoch_seconds(finetune(pruned, st.data, TrainConfig(**wl.tune)))
        done += 1
        r.final_metric = evaluate(pruned, st.data).metric
        done += 1
        r.pipeline_s = time.perf_counter() - t0 - skipped
    except Exception as exc:  # one failed phase fails the rest of its round
        print(f"{wl.name}: phase {PHASES[done]} failed: {exc!r}", file=sys.stderr)
        r.failed = len(PHASES) - done
        return r
    r.signature = (r.base_metric, r.final_metric, tuple(plan.removed),
                   tuple(o.delta_loss for o in oracle), tuple(s.score for s in records))
    r.state = dict(base=net, records=records, oracle=oracle, plan=plan,
                   surgery=surgery, final=pruned)
    return r


def _wait(argv: list[str], env: dict, log) -> tuple[int, float]:
    """Run one command to its end; exit code and its peak RSS in MB."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=log)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def cli_commands(wl: Workload, seed: int, run: Path) -> list[tuple[str, list[str]]]:
    c = wl.cli
    data = wl.data_descriptor(seed)
    base = str(run / "train" / "baseline.ckpt")
    csv = str(run / "saliency" / "saliency.csv")
    s = str(seed)
    return [
        ("train", ["train", "--spec", str(run / "net.spec"), "--data", data,
                   "--epochs", str(c["train_epochs"]), "--batch-size", str(c["batch_size"]),
                   "--lr", str(c["lr"]), "--seed", s, "--out", str(run / "train")]),
        ("saliency", ["saliency", "--ckpt", base, "--data", data, "--lambda", str(wl.lam),
                      "--batch-size", str(wl.probe), "--seed", s,
                      "--out", str(run / "saliency")]),
        ("oracle", ["oracle", "--ckpt", base, "--data", data, "--saliency", csv,
                    "--batch-size", str(wl.probe), "--seed", s, "--out", str(run / "oracle")]),
        ("prune", ["prune", "--ckpt", base, "--saliency", csv, "--tau", str(c["tau"]),
                   "--lambda", str(wl.lam), "--seed", s, "--out", str(run / "prune")]),
        ("finetune", ["finetune", "--ckpt", str(run / "prune" / "pruned.ckpt"), "--data", data,
                      "--epochs", str(c["tune_epochs"]), "--seed", s,
                      "--out", str(run / "finetune")]),
        ("eval", ["eval", "--ckpt", str(run / "finetune" / "finetuned.ckpt"), "--data", data,
                  "--out", str(run / "eval")]),
        ("report", ["report", "--sweep-lambda", "--ckpt", base, "--data", data,
                    "--tau", str(c["sweep_tau"]), "--probe-batch", str(wl.probe),
                    "--epochs", str(c["sweep_epochs"]), "--seed", s,
                    "--out", str(run / "sweep")]),
    ]


def cli_round(wl: Workload, seed: int, run: Path, traced: bool = False) -> Round:
    r = Round(attempted=len(COMMANDS))
    run.mkdir(parents=True)
    (run / "net.spec").write_text(wl.spec_text)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(run / "commands.log", "w") as log:
        t0 = time.perf_counter()
        for name, args in cli_commands(wl, seed, run):
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"),
                        str(run / f"trace_{name}.json")] + args
            else:
                argv = [sys.executable, "-m", "gfbs.cli"] + args
            t = time.perf_counter()
            code, rss = _wait(argv, env, log)
            r.cli_s[name] = time.perf_counter() - t
            r.peak_rss_mb = max(r.peak_rss_mb, rss)
            if code != 0:
                print(f"{wl.name}: gfbs {name} exited {code}", file=sys.stderr)
                r.failed += 1
        r.pipeline_s = time.perf_counter() - t0
    if r.failed:
        return r
    c = wl.cli
    r.train_samples = (c["train_epochs"] + c["tune_epochs"]) * n_train(wl)
    r.train_s = r.cli_s["train"] + r.cli_s["finetune"]
    r.oracle_s = r.cli_s["oracle"]
    r.oracle_groups = len({line.split(",")[2] for line in
                           (run / "oracle" / "oracle.csv").read_text().splitlines()[1:]})
    r.base_metric = max(float(line.split(",")[3]) for line in
                        (run / "train" / "metrics.csv").read_text().splitlines()[1:]
                        if line.split(",")[1] == "test")
    r.final_metric = json.loads((run / "eval" / "eval.json").read_text())["metric"]
    r.signature = tuple((run / p).read_bytes() for p in (
        "saliency/saliency.csv", "oracle/oracle.csv", "prune/plan.json", "eval/eval.json",
        "sweep/report.md"))
    if traced:
        r.trace_dumps = [json.loads((run / f"trace_{name}.json").read_text())
                         for name in COMMANDS]
    r.state = dict(run=run)
    return r


# ---------------------------------------------------------------------------
# inference throughput


INFER_CHUNK_S = 0.25


def infer_rates(net, xs, seconds: float) -> list[float]:
    """Samples/s of eval-mode passes over the test inputs ``xs``, repeated
    for at least ``seconds`` and at least twice."""
    rates = []
    end = time.perf_counter() + seconds
    while len(rates) < 2 or time.perf_counter() < end:
        t = time.perf_counter()
        for start in range(0, len(xs), 256):
            forward_full(net, Tensor(xs[start:start + 256], dtype=net.dtype), "eval")
        rates.append(len(xs) / (time.perf_counter() - t))
    return rates
