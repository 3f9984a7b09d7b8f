"""One benchmark run: timed rounds of a workload with their checks, or a
traced run that yields the per-layer metrics. ``run.py`` is the entry point."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference as ref
import tracer as T
import workloads as W

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench_runs"
SETUP_REPEATS = 9  # half before the rounds, half after the checks
MODULES = ("autograd", "netgraph", "data", "trainer", "saliency", "oracle", "surgeon", "cli")
CRITERIA = ("gfbs", "gamma_only", "beta_only", "l1_filter")


def setup_seconds(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall clock of fresh processes that import, generate the data, parse
    the spec and build the network."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t)
    return times


def one_round(wl, seed, st, run_dir: Path, traced: bool = False):
    if wl.cli:
        return W.cli_round(wl, seed, run_dir, traced=traced)
    return W.inprocess_round(wl, st)


def artifacts(wl, seed, st, rounds):
    build = checks.from_cli if wl.cli else checks.from_inprocess
    return build(wl, seed, st, rounds)


def report_checks(results: dict) -> bool:
    for name, (ok, detail) in results.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})", file=sys.stderr)
    return all(ok for ok, _ in results.values())


def checks_and_inference(art) -> tuple[bool, float]:
    """Runs every check, and eval-mode passes of the final network between
    them, so that the passes sample a longer stretch of the machine's time
    than one block would. Returns (all checks passed, median samples/s)."""
    art.compute_outputs()
    net = art.nets["final"]
    W.infer_rates(net, art.test_x, W.INFER_CHUNK_S)  # warm-up, not counted
    rates = []
    results = {}
    for name, fn in checks.checks_for(art).items():
        rates += W.infer_rates(net, art.test_x, W.INFER_CHUNK_S)
        results[name] = fn(art)
    rates += W.infer_rates(net, art.test_x, W.INFER_CHUNK_S)
    return report_checks(results), statistics.median(rates)


def timed_run(wl, seed, st, seconds: float, run_root: Path) -> dict:
    setup = setup_seconds(wl.name, seed, SETUP_REPEATS // 2)
    rounds = []
    for k in range(wl.rounds(seconds)):
        rounds.append(one_round(wl, seed, st, run_root / f"round{k}"))
    good = [r for r in rounds if not r.failed]
    if not good:
        raise RuntimeError("no round of the pipeline completed")
    if wl.cli:
        peak = max(r.peak_rss_mb for r in good)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct, infer = checks_and_inference(artifacts(wl, seed, st, good))
    setup += setup_seconds(wl.name, seed, SETUP_REPEATS - len(setup))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pipeline_s": (statistics.median(r.pipeline_s for r in good), "s"),
        "train_samples_per_s": (train_rate(wl, W.n_train(wl), good), "samples/s"),
        "oracle_groups_per_s": (statistics.median(r.oracle_groups / r.oracle_s for r in good),
                                "groups/s"),
        "infer_samples_per_s": (infer, "samples/s"),
        "peak_rss_mb": (peak, "MB"),
        "quality_retained": (statistics.median(r.quality for r in good), "ratio"),
    }
    return dict(correct=correct, attempted=sum(r.attempted for r in rounds),
                failed=sum(r.failed for r in rounds), metrics=metrics)


def train_rate(wl, n_train: int, rounds) -> float:
    """Samples through baseline training and finetuning per second of
    their loops. In-process, each epoch counts at its phase's median epoch
    time over the run, so a passing stall of the machine does not count."""
    if wl.cli:
        return sum(r.train_samples for r in rounds) / sum(r.train_s for r in rounds)
    seconds = 0.0
    for phase, cfg in (("base", wl.base), ("tune", wl.tune)):
        epoch = statistics.median(d for r in rounds for d in r.epoch_s[phase])
        seconds += cfg["epochs"] * epoch
    return (wl.base["epochs"] + wl.tune["epochs"]) * n_train / seconds


def criterion_agreement(a) -> dict:
    """Spearman rho and bottom-20% overlap of each criterion's group scores
    with the oracle's loss deltas."""
    relu = {i for i, b in enumerate(a.spec.blocks) if b.kind == "conv_bn_relu"}
    by_ref = {(r["layer"], r["channel"]): r for r in a.records}
    score = {
        "gfbs": lambda r: abs(r["grad_gamma_n"] * r["gamma_n"])
        + (a.lam * r["beta_n"] if r["layer"] in relu else 0.0),
        "gamma_only": lambda r: abs(r["grad_gamma_n"] * r["gamma_n"]),
        "beta_only": lambda r: r["beta_n"],
        "l1_filter": lambda r: r["weight_l1_n"],
    }
    deltas = [g["delta"] for g in a.oracle]
    rows = {}
    for crit in CRITERIA:
        groups = [sum(score[crit](by_ref[tuple(m)]) for m in g["members"]) / len(g["members"])
                  for g in a.oracle]
        rows[f"spearman.{crit}"] = ref.spearman(groups, deltas)
        rows[f"bottom20_overlap.{crit}"] = ref.bottom_overlap(groups, deltas)
    return rows


def traced_run(wl, seed, st, run_root: Path) -> dict:
    first = one_round(wl, seed, st, run_root / "first")
    tr = T.Tracer()
    tr.install()
    try:
        st_traced = st if wl.cli else W.setup(wl, seed)
        traced = one_round(wl, seed, st_traced, run_root / "traced", traced=True)
    finally:
        tr.uninstall()
    rounds = [first, traced]
    plain = first
    if not wl.cli:
        # the first round in a process runs cold; compare with a warm one
        plain = one_round(wl, seed, st, run_root / "plain")
        rounds.append(plain)
    failed = sum(r.failed for r in rounds)
    if failed:
        raise RuntimeError("a traced or untraced round failed")
    art = artifacts(wl, seed, st, rounds)
    correct = report_checks(checks.run_checks(art))

    profile = T.Profile()
    profile.add(tr.dump())
    for dump in traced.trace_dumps:
        profile.add(dump)
    artifact_bytes = 0
    if wl.cli:
        artifact_bytes = sum(p.stat().st_size for p in (run_root / "traced").rglob("*")
                             if p.is_file() and not p.name.startswith("trace_")
                             and p.name != "commands.log")
    lines = {m: len((ROOT / "src" / "gfbs" / f"{m}.py").read_text().splitlines())
             for m in MODULES}
    metrics = T.layer_metrics(profile, traced.cli_s, artifact_bytes, lines,
                              criterion_agreement(art))
    overhead = traced.pipeline_s - plain.pipeline_s
    metrics["trace.pipeline_s"] = (traced.pipeline_s, "s")
    metrics["trace.untraced_pipeline_s"] = (plain.pipeline_s, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / plain.pipeline_s, "%")
    # host noise can exceed the measured difference; spans times the cost
    # of one traced call bounds the overhead from below
    cost = T.span_cost_s()
    metrics["trace.span_cost_us"] = (1e6 * cost, "us")
    metrics["trace.estimated_overhead_s"] = (profile.spans * cost, "s")

    trace_dir = RUNS_DIR / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    T.write_trace(trace_dir / f"{wl.name}-s{seed}.json",
                  [tr.dump()] + traced.trace_dumps,
                  {k: v for k, (v, _) in metrics.items()})
    return dict(correct=correct, attempted=sum(r.attempted for r in rounds),
                failed=failed, metrics=metrics)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Result of one run: correct, attempted, failed and {metric: (value, unit)}."""
    wl = W.WORKLOADS[workload]
    st = W.setup(wl, seed)
    run_root = RUNS_DIR / f"{wl.name}-s{seed}-p{os.getpid()}"
    try:
        if trace:
            return traced_run(wl, seed, st, run_root)
        return timed_run(wl, seed, st, seconds, run_root)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
