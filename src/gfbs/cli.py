"""Command-line pipeline: train, saliency, oracle, prune, finetune, eval,
and report. Every artifact-producing command writes a manifest.json next
to its outputs so a run can be reproduced from the directory alone.

Exit codes: 0 success, 2 configuration problems (running out of memory
included), 3 numeric failures, 4 malformed files. A nonzero exit prints
one ``error:`` line on stderr, and each warning one ``warning:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime as _dt
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

from .data import open_dataset
from .errors import ConfigError, FormatError, GfbsError, open_text, write_json
from .netgraph import (
    build_network,
    count_flops,
    load_checkpoint,
    parse_spec,
    save_checkpoint,
)
from .oracle import (
    bottom_fraction_overlap,
    oracle_delta_loss,
    spearman,
    spot_check_zero_equivalence,
    write_oracle_csv,
)
from .saliency import (
    CRITERIA,
    PruneConfig,
    capture,
    group_scores,
    normalize_layerwise,
    read_saliency_csv,
    saliency_records,
    score,
    write_saliency_csv,
)
from .surgeon import apply_prune, plan_prune, write_plan
from .trainer import (
    TrainConfig,
    check_trainable,
    classify_finetune_config,
    classify_train_config,
    denoise_finetune_config,
    denoise_train_config,
    evaluate,
    finetune as run_finetune,
    read_metrics,
    train as run_train,
    write_metrics,
)

DEFAULT_LAMBDAS = (0.0, 0.005, 0.05, 0.5)


def _timestamp() -> str:
    return _dt.datetime.now().strftime("%Y%m%d-%H%M%S")


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _outdir(args) -> Path:
    """--out or runs/<timestamp>, made by the caller once every input passed."""
    return Path(args.out) if args.out else Path("runs") / _timestamp()


def _write_manifest(out: Path, command: str, args, extra: dict | None = None) -> None:
    doc = {
        "command": command,
        "argv": sys.argv[1:] if sys.argv[0].endswith(("gfbs", "cli.py")) else None,
        "args": {k: (str(v) if isinstance(v, Path) else v)
                 for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "git_describe": _git_describe(),
        "out_dir": str(out),
        "written_at": _dt.datetime.now().isoformat(timespec="seconds"),
    }
    if extra:
        doc.update(extra)
    write_json(out / "manifest.json", doc)


def _train_config(args, data, finetune: bool) -> TrainConfig:
    """The task's train or finetune preset, with --config and flag overrides."""
    presets = {"classify": (classify_train_config, classify_finetune_config),
               "denoise": (denoise_train_config, denoise_finetune_config)}
    cfg = presets[data.task][finetune](seed=args.seed)
    overrides = _read_json(args.config, ConfigError) if args.config else {}
    for field_name in ("epochs", "batch_size", "lr"):
        value = getattr(args, field_name, None)
        if value is not None:
            overrides[field_name] = value
    bad = set(overrides) - set(TrainConfig.__dataclass_fields__)
    if bad:
        raise ConfigError(f"unknown train config fields: {sorted(bad)}")
    merged = {**vars(cfg), **overrides}
    if isinstance(merged["lr_milestones"], list):  # JSON has no tuples
        merged["lr_milestones"] = tuple(merged["lr_milestones"])
    if "lr_milestones" not in overrides and isinstance(merged["epochs"], int):
        # a shortened run keeps only the preset milestones it can still reach;
        # an epochs of another type is left for TrainConfig to refuse
        merged["lr_milestones"] = tuple(m for m in cfg.lr_milestones if m < merged["epochs"])
    cfg = TrainConfig(**merged)
    check_trainable(cfg.batch_size, len(data.x_train))
    return cfg


def _read_json(path, error) -> dict:
    """The JSON object in ``path``; anything else raises ``error``
    (ConfigError for a --config file, FormatError for an artifact)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise error(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object")
    return doc


@contextlib.contextmanager
def _malformed(path):
    """Turn a missing key or a value of the wrong type in an artifact
    into a FormatError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed artifact: {type(exc).__name__} {exc}") from exc


def _add_train_flags(sp) -> None:
    sp.add_argument("--config", help="JSON file of training-config overrides")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch-size", type=int, dest="batch_size")
    sp.add_argument("--lr", type=float)


# ---------------------------------------------------------------------------
# subcommands


def _fit(args, net, data, finetune: bool) -> int:
    """Train or finetune ``net`` with the task's preset: the best checkpoint,
    metrics.csv, one printed line and the manifest. ``out`` is made only
    once training ends, so a run that diverges leaves none behind."""
    fit = run_finetune if finetune else run_train
    cfg = _train_config(args, data, finetune)
    out = _outdir(args)
    history = fit(net, data, cfg,
                  ckpt_path=out / ("finetuned.ckpt" if finetune else "baseline.ckpt"))
    out.mkdir(parents=True, exist_ok=True)
    write_metrics(history, out / "metrics.csv")
    final = history[-1]  # train ends with a test pass over the final weights
    label = "finetuned" if finetune else f"trained {net.spec.name}"
    print(f"{label}: test loss {final.loss:.4f} metric {final.metric:.4f}")
    _write_manifest(out, args.command, args, {"final_metric": final.metric})
    return 0


def cmd_train(args) -> int:
    with open_text(args.spec) as fh:
        spec = parse_spec(fh.read())
    data = open_dataset(args.data)
    return _fit(args, build_network(spec, seed=args.seed), data, False)


def cmd_saliency(args) -> int:
    net = load_checkpoint(args.ckpt)
    data = open_dataset(args.data)
    cfg = PruneConfig(lam=args.lam, criterion=args.criterion, batch_size=args.batch_size)
    x, y = data.capture_batch(cfg.batch_size)
    records = saliency_records(net, x, y, data.loss_kind, cfg)
    out = _outdir(args)
    out.mkdir(parents=True, exist_ok=True)
    write_saliency_csv(records, out / "saliency.csv")
    write_json(out / "records.json", [dataclasses.asdict(r) for r in records])
    prunable = sum(1 for r in records if r.group >= 0)
    print(f"scored {len(records)} channels ({prunable} prunable) "
          f"with {cfg.criterion}, lambda={cfg.lam}")
    _write_manifest(out, "saliency", args, {"channels": len(records)})
    return 0


def cmd_oracle(args) -> int:
    net = load_checkpoint(args.ckpt)
    data = open_dataset(args.data)
    # a bad CSV fails before the probes; oracle records follow spec.groups
    scores = group_scores(read_saliency_csv(args.saliency, net.spec), net.spec.groups) \
        if args.saliency else None
    x, y = data.capture_batch(args.batch_size)
    records = oracle_delta_loss(net, x, y, data.loss_kind)
    summary: dict = {"groups": len(records)}

    rng = np.random.default_rng(args.seed)
    refs = [g.members[0] for g in net.spec.groups]
    if refs:
        picks = [refs[i] for i in rng.choice(len(refs), min(5, len(refs)), replace=False)]
        summary["zero_equivalence_max_diff"] = spot_check_zero_equivalence(
            net, x, y, data.loss_kind, picks)

    if scores is not None:
        deltas = [r.delta_loss for r in records]
        rho = spearman(scores, deltas)
        overlap, k, expect = bottom_fraction_overlap(scores, deltas, 0.2)
        summary.update({"spearman": rho, "bottom20_overlap": overlap,
                        "bottom20_size": k, "bottom20_random_expectation": expect})
        print(f"oracle vs saliency: spearman {rho:.3f}, "
              f"bottom-20% overlap {overlap}/{k} (random {expect:.2f})")
    else:
        print(f"oracle: {len(records)} groups probed")
    out = _outdir(args)  # made only now, so a refused run leaves none behind
    out.mkdir(parents=True, exist_ok=True)
    write_oracle_csv(records, out / "oracle.csv")
    write_json(out / "summary.json", summary)
    _write_manifest(out, "oracle", args, summary)
    return 0


def cmd_prune(args) -> int:
    net = load_checkpoint(args.ckpt)
    cfg = PruneConfig(lam=args.lam, tau=args.tau, criterion=args.criterion,
                      min_keep=args.min_keep)
    # rank by the flags' criterion and lambda, so plan.json names what was used
    records = score(read_saliency_csv(args.saliency, net.spec), cfg)
    out = _outdir(args)
    plan, pruned = _prune(net, records, cfg, out)
    save_checkpoint(pruned, out / "pruned.ckpt")
    note = " (shortfall: budget unreachable)" if plan.shortfall else ""
    print(f"pruned {len(plan.removed)} channels, achieved {plan.achieved_ratio:.3f} "
          f"of tau {plan.tau}, flops ratio {plan.flops_ratio:.3f}{note}")
    _write_manifest(out, "prune", args, {
        "achieved_ratio": plan.achieved_ratio, "flops_ratio": plan.flops_ratio,
        "removed": len(plan.removed), "shortfall": plan.shortfall})
    return 0


def _prune(net, records, cfg: PruneConfig, out: Path):
    """Plan and apply one prune, then make ``out`` for plan.json and flops.txt.
    ``plan_prune`` meets every plan invariant by construction."""
    plan = plan_prune(net, records, cfg)
    pruned = apply_prune(net, plan)
    out.mkdir(parents=True, exist_ok=True)
    write_plan(plan, out / "plan.json")
    lines = [f"baseline total {count_flops(net.spec).total}",
             f"pruned   total {count_flops(pruned.spec).total}",
             f"ratio {plan.flops_ratio:.6f}",
             *(f"  block {n.index:2d} {n.block.kind:14s} {n.flops:12d}  {n.detail}"
               for n in pruned.spec.nodes)]
    (out / "flops.txt").write_text("\n".join(lines) + "\n")
    return plan, pruned


def cmd_finetune(args) -> int:
    net = load_checkpoint(args.ckpt)
    return _fit(args, net, open_dataset(args.data), True)


def cmd_eval(args) -> int:
    net = load_checkpoint(args.ckpt)
    data = open_dataset(args.data)
    m = evaluate(net, data)
    metric_name = "psnr_db" if data.task == "denoise" else "accuracy"
    print(f"eval: loss {m.loss:.6f} {metric_name} {m.metric:.4f}")
    if args.out:
        out = _outdir(args)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "eval.json",
                   {"loss": m.loss, "metric": m.metric, "metric_name": metric_name})
        _write_manifest(out, "eval", args, {"metric": m.metric})
    return 0


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    if args.sweep_lambda:
        return _sweep_lambda(args, _outdir(args))
    root = Path(args.dir)
    if not root.is_dir():
        raise ConfigError(f"--dir {root}: not a directory")
    sections: list[str] = ["# Pruning run report", ""]
    for plan_path in sorted(root.glob("**/plan.json")):
        doc = _read_json(plan_path, FormatError)
        with _malformed(plan_path):
            sections += [
                f"## Plan `{plan_path.relative_to(root)}`", "",
                f"spec `{doc['spec_name']}`, criterion {doc['criterion']}, "
                f"lambda {doc['lambda']}, tau {doc['tau']}, "
                f"achieved {doc['achieved_ratio']:.3f}, "
                f"flops ratio {doc['flops_ratio']:.3f}", "",
                "| layer slot | kept channels |", "|---|---|",
                *(f"| {idx} | {len(kept)} |" for idx, kept in enumerate(doc["kept_per_layer"])),
                ""]
    metrics = sorted(root.glob("**/metrics.csv"))
    if metrics:
        sections += ["## Final metrics", "", "| run | split | loss | metric |", "|---|---|---|---|"]
        for mpath in metrics:
            last_test = [m for m in read_metrics(mpath) if m.split == "test"]
            if last_test:
                m = last_test[-1]
                sections.append(f"| {mpath.parent.relative_to(root)} | {m.split} "
                                f"| {m.loss:.4f} | {m.metric:.4f} |")
        sections.append("")
    for spath in sorted(root.glob("**/summary.json")):
        doc = _read_json(spath, FormatError)
        if "spearman" in doc:
            with _malformed(spath):
                sections += [
                    f"## Oracle agreement `{spath.parent.relative_to(root)}`", "",
                    f"Spearman rho {doc['spearman']:.3f}; bottom-20% overlap "
                    f"{doc['bottom20_overlap']}/{doc['bottom20_size']} "
                    f"(random {doc['bottom20_random_expectation']:.2f})", ""]
    out = _outdir(args)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.md").write_text("\n".join(sections) + "\n")
    print(f"report written to {out / 'report.md'}")
    _write_manifest(out, "report", args)
    return 0


def _sweep_lambda(args, out: Path) -> int:
    """Score/prune/finetune/eval once per lambda with a shared budget."""
    try:
        cfgs = [PruneConfig(lam=float(lam), tau=args.tau, min_keep=args.min_keep,
                            batch_size=args.probe_batch)
                for lam in (args.lambdas.split(",") if args.lambdas else DEFAULT_LAMBDAS)]
    except ValueError as exc:
        raise ConfigError(f"--lambdas: {exc}") from exc
    net = load_checkpoint(args.ckpt)
    data = open_dataset(args.data)
    ft_cfg = _train_config(args, data, True)
    # the captured and normalized columns do not depend on lambda: probe once
    x, y = data.capture_batch(args.probe_batch)
    captured = normalize_layerwise(capture(net, x, y, data.loss_kind))
    rows = []
    for cfg in cfgs:
        sub = out / f"lambda_{cfg.lam:g}"  # _prune makes it, and out with it
        records = score([dataclasses.replace(r) for r in captured], cfg)
        plan, pruned = _prune(net, records, cfg, sub)
        write_saliency_csv(records, sub / "saliency.csv")
        metric = run_finetune(pruned, data, ft_cfg)[-1].metric  # the final test pass
        save_checkpoint(pruned, sub / "finetuned.ckpt")
        rows.append((cfg.lam, plan.achieved_ratio, plan.flops_ratio, metric))
    lines = ["# Lambda sweep", "",
             f"tau {args.tau}, finetune epochs {ft_cfg.epochs}", "",
             "| lambda | achieved ratio | flops ratio | final metric |",
             "|---|---|---|---|"]
    for lam, ach, fr, metric in rows:
        lines.append(f"| {lam:g} | {ach:.3f} | {fr:.3f} | {metric:.4f} |")
    (out / "report.md").write_text("\n".join(lines) + "\n")
    best = max(rows, key=lambda r: r[3])
    print(f"lambda sweep done; best metric {best[3]:.4f} at lambda={best[0]:g}")
    _write_manifest(out, "report", args, {"sweep": [list(r) for r in rows]})
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfbs",
        description="Channel pruning by norm-parameter saliency: train, score, "
                    "prune, finetune, and report on desk-scale networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seeds="nothing; only recorded in manifest.json"):
        sp.add_argument("--out", help="output directory (default runs/<timestamp>)")
        if seeds:
            sp.add_argument("--seed", type=int, default=0, help=f"seeds {seeds}")

    sp = sub.add_parser("train", help="train a baseline network")
    sp.add_argument("--spec", required=True, help="network spec file")
    sp.add_argument("--data", required=True, help="dataset descriptor")
    _add_train_flags(sp)
    common(sp, seeds="the initial weights")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("saliency", help="score channels on a probe batch")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=PruneConfig.lam)
    sp.add_argument("--criterion", default=PruneConfig.criterion, choices=CRITERIA)
    sp.add_argument("--batch-size", dest="batch_size", type=int, default=PruneConfig.batch_size)
    common(sp)
    sp.set_defaults(func=cmd_saliency)

    sp = sub.add_parser("oracle", help="brute-force loss deltas per group")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--saliency", help="saliency CSV to correlate against")
    sp.add_argument("--batch-size", dest="batch_size", type=int, default=PruneConfig.batch_size)
    common(sp, seeds="the channels the zero-equivalence spot check picks")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("prune", help="plan and apply surgery")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--saliency", required=True, help="saliency CSV")
    sp.add_argument("--tau", type=float, default=PruneConfig.tau)
    sp.add_argument("--min-keep", dest="min_keep", type=int, default=PruneConfig.min_keep)
    sp.add_argument("--lambda", dest="lam", type=float, default=PruneConfig.lam)
    sp.add_argument("--criterion", default=PruneConfig.criterion, choices=CRITERIA)
    common(sp)
    sp.set_defaults(func=cmd_prune)

    sp = sub.add_parser("finetune", help="retrain a pruned checkpoint")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True)
    _add_train_flags(sp)
    common(sp)
    sp.set_defaults(func=cmd_finetune)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True)
    common(sp, seeds=None)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("report", help="aggregate artifacts or run a lambda sweep")
    sp.add_argument("--dir", help="directory of existing run artifacts")
    sp.add_argument("--sweep-lambda", action="store_true", dest="sweep_lambda")
    sp.add_argument("--ckpt", help="baseline checkpoint (sweep mode)")
    sp.add_argument("--data", help="dataset descriptor (sweep mode)")
    sp.add_argument("--lambdas", help="comma list, default 0,0.005,0.05,0.5")
    sp.add_argument("--tau", type=float, default=0.2)
    sp.add_argument("--min-keep", dest="min_keep", type=int, default=PruneConfig.min_keep)
    sp.add_argument("--probe-batch", dest="probe_batch", type=int, default=PruneConfig.batch_size,
                    help="batch size for the saliency capture")
    _add_train_flags(sp)
    common(sp)
    sp.set_defaults(func=cmd_report)

    return parser


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report" and args.sweep_lambda:
        if not args.ckpt or not args.data:
            parser.error("--sweep-lambda needs --ckpt and --data")
    if args.command == "report" and not args.sweep_lambda and not args.dir:
        parser.error("report needs --dir (or --sweep-lambda with --ckpt/--data)")
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning  # no source line, as errors print none
        try:
            return args.func(args)
        except GfbsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:  # a legal spec at a batch too large for this host
            print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
