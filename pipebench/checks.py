"""Checks of one workload's outputs against computations made apart from
the program (``reference``) and against properties the method must have.

Outputs of both kinds of workload are first gathered into ``Artifacts``:
in-process rounds hand over their objects, CLI rounds are read back from
disk. Every check takes the artifacts and returns (ok, detail).
Tolerances are fixed from the dtypes: the program computes in float32,
the reference in float64, and CSV files carry nine significant digits.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from gfbs.autograd import Tensor
from gfbs.netgraph import forward_full, load_checkpoint

FWD_TOL = 1e-4  # max |program - reference| over max |reference|
FD_STEP = 1e-7  # small enough that no ReLU input crosses zero in practice
# |finite difference - grad_gamma| over the layer's max |grad_gamma|. The
# captured gradient is float32: a ReLU input within float32 rounding of
# zero can take the other branch than in float64, which has moved early
# layers' gradients by up to 0.5 % of the layer's largest one.
FD_TOL = 5e-2
FD_CHANNELS = 4
ORACLE_GROUPS = 3
ORACLE_ATOL = 1e-5  # times the base loss
ORACLE_RTOL = 1e-3
PSNR_TOL_DB = 1e-3
NORM_TOL = 1e-9
SWEEP_LAMBDAS = (0.0, 0.005, 0.05, 0.5)
SHARED_COLUMNS = ("gamma", "grad_gamma", "beta", "gamma_n", "grad_gamma_n", "beta_n")


@dataclass
class Artifacts:
    spec: ref.Spec
    task: str
    loss_kind: str
    lam: float
    seed: int
    probe_x: np.ndarray
    probe_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    nets: dict  # program Networks: base, surgery (before finetuning), final
    params: dict  # the same networks as float arrays, for the reference
    records: list[dict]
    oracle: list[dict]  # members, delta, rank
    plan: dict  # removed, kept, achieved, flops_ratio, tau, min_keep
    base_metric: float
    final_metric: float
    flops_target: float | None = None
    value_tol: float = 1e-12  # scores and normalized values
    sweep: dict = field(default_factory=dict)  # lambda -> saliency rows
    sweep_plans: dict = field(default_factory=dict)  # lambda -> (plan, widths)
    sweep_report_rows: int = 0
    signatures: list = field(default_factory=list)
    out: dict = field(default_factory=dict)  # (net, mode) -> program output

    def compute_outputs(self) -> None:
        """Program forwards of every kept network, without stat updates."""
        for name, net in self.nets.items():
            for mode, x in (("eval", self.test_x), ("train", self.probe_x)):
                self.out[(name, mode)] = forward_full(
                    net, Tensor(x, dtype=net.dtype), mode, update_stats=False).data


def _arrays(net) -> dict:
    return {k: t.data.copy() for k, t in net.named_tensors().items()}


def _record_dict(r) -> dict:
    return {k: getattr(r, k) for k in (
        "layer", "channel", "gamma", "grad_gamma", "beta", "weight_l1", "gamma_n",
        "grad_gamma_n", "beta_n", "weight_l1_n", "score", "group", "rank")}


def _plan_dict(plan) -> dict:
    return dict(removed=[(c.layer, c.channel) for c in plan.removed],
                kept={k: list(v) for k, v in plan.kept_per_layer.items()},
                achieved=plan.achieved_ratio, flops_ratio=plan.flops_ratio,
                tau=plan.tau, min_keep=plan.min_keep)


def from_inprocess(wl, seed: int, st, rounds) -> Artifacts:
    s = rounds[0].state
    nets = {"base": s["base"], "surgery": s["surgery"], "final": s["final"]}
    return Artifacts(
        spec=ref.parse_spec(wl.spec_text), task=wl.task, loss_kind=wl.loss_kind,
        lam=wl.lam, seed=seed, probe_x=st.probe[0], probe_y=st.probe[1],
        test_x=st.data.x_test, test_y=st.data.y_test,
        nets=nets, params={k: _arrays(v) for k, v in nets.items()},
        records=[_record_dict(r) for r in s["records"]],
        oracle=[dict(members=[(m.layer, m.channel) for m in o.members],
                     delta=o.delta_loss, rank=o.rank) for o in s["oracle"]],
        plan=_plan_dict(s["plan"]), base_metric=rounds[0].base_metric,
        final_metric=rounds[0].final_metric, flops_target=wl.flops_target,
        signatures=[r.signature for r in rounds])


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_plan(path: Path, spec: ref.Spec) -> dict:
    doc = json.loads(path.read_text())
    layers = [i for i, b in enumerate(spec.blocks) if b.kind in ref.CONV_KINDS]
    return dict(removed=[(r["layer"], r["channel"]) for r in doc["removed"]],
                kept=dict(zip(layers, doc["kept_per_layer"])),
                achieved=doc["achieved_ratio"], flops_ratio=doc["flops_ratio"],
                tau=doc["tau"], min_keep=doc["min_keep"])


def from_cli(wl, seed: int, st, rounds) -> Artifacts:
    run = rounds[0].state["run"]
    spec = ref.parse_spec(wl.spec_text)
    paths = {"base": run / "train" / "baseline.ckpt", "surgery": run / "prune" / "pruned.ckpt",
             "final": run / "finetune" / "finetuned.ckpt"}
    oracle: dict = {}
    for row in _read_csv(run / "oracle" / "oracle.csv"):
        g = oracle.setdefault(row["group"], dict(members=[], delta=float(row["delta_loss"]),
                                                 rank=int(row["rank"])))
        g["members"].append((int(row["layer"]), int(row["channel"])))
    art = Artifacts(
        spec=spec, task=wl.task, loss_kind=wl.loss_kind, lam=wl.lam, seed=seed,
        probe_x=st.probe[0], probe_y=st.probe[1],
        test_x=st.data.x_test, test_y=st.data.y_test,
        nets={k: load_checkpoint(p) for k, p in paths.items()},
        params={k: ref.read_checkpoint(p)[1] for k, p in paths.items()},
        records=json.loads((run / "saliency" / "records.json").read_text()),
        oracle=list(oracle.values()), plan=_read_plan(run / "prune" / "plan.json", spec),
        base_metric=rounds[0].base_metric, final_metric=rounds[0].final_metric,
        signatures=[r.signature for r in rounds])
    for lam in SWEEP_LAMBDAS:
        sub = run / "sweep" / f"lambda_{lam:g}"
        art.sweep[lam] = _read_csv(sub / "saliency.csv")
        widths = ref.widths(spec, ref.read_checkpoint(sub / "finetuned.ckpt")[1])
        art.sweep_plans[lam] = (_read_plan(sub / "plan.json", spec), widths)
    art.sweep_report_rows = sum(1 for line in (run / "sweep" / "report.md").read_text()
                                .splitlines() if line.startswith("| 0"))
    return art


# ---------------------------------------------------------------------------
# checks against the reference


def _rel_err(got, want) -> float:
    return float(np.max(np.abs(got - want)) / (np.max(np.abs(want)) + 1e-12))


def check_forward_baseline(a: Artifacts):
    """forward_full on the trained baseline, eval and train mode."""
    errs = [_rel_err(a.out[("base", mode)], ref.forward(a.spec, a.params["base"], x, mode))
            for mode, x in (("eval", a.test_x), ("train", a.probe_x))]
    return max(errs) <= FWD_TOL, f"max rel err {max(errs):.2e}"


def check_forward_pruned(a: Artifacts):
    """The cut network against the original with the removed channels'
    W, b, gamma and beta zeroed."""
    zeroed = ref.zero_channels(a.params["base"], a.plan["removed"])
    errs = [_rel_err(a.out[("surgery", mode)], ref.forward(a.spec, zeroed, x, mode))
            for mode, x in (("eval", a.test_x), ("train", a.probe_x))]
    return max(errs) <= FWD_TOL, f"max rel err {max(errs):.2e}"


def _probe_loss(a: Artifacts, params: dict) -> float:
    return ref.batch_loss(ref.forward(a.spec, params, a.probe_x, "train"), a.probe_y,
                          a.loss_kind)


def fd_picks(a: Artifacts) -> list[int]:
    rng = np.random.default_rng(a.seed)
    return sorted(rng.choice(len(a.records), FD_CHANNELS, replace=False).tolist())


def check_fd_grad_gamma(a: Artifacts):
    """Central differences of the probe loss in gamma against grad_gamma."""
    p = {k: np.array(v, dtype=np.float64) for k, v in a.params["base"].items()}
    worst = 0.0
    for i in fd_picks(a):
        rec = a.records[i]
        scale = max(abs(r["grad_gamma"]) for r in a.records if r["layer"] == rec["layer"])
        gamma = p[f"b{rec['layer']}.gamma"]
        g0 = gamma[rec["channel"]]
        gamma[rec["channel"]] = g0 + FD_STEP
        up = _probe_loss(a, p)
        gamma[rec["channel"]] = g0 - FD_STEP
        down = _probe_loss(a, p)
        gamma[rec["channel"]] = g0
        fd = (up - down) / (2 * FD_STEP)
        worst = max(worst, abs(fd - rec["grad_gamma"]) / (scale + 1e-6))
    return worst <= FD_TOL, f"worst err {worst:.2e} of the layer scale"


def oracle_picks(a: Artifacts) -> list[int]:
    rng = np.random.default_rng(a.seed + 1)
    return sorted(rng.choice(len(a.oracle), ORACLE_GROUPS, replace=False).tolist())


def check_oracle_recount(a: Artifacts):
    """Loss deltas of sampled groups, recounted with the reference."""
    p = {k: np.array(v, dtype=np.float64) for k, v in a.params["base"].items()}
    base = _probe_loss(a, p)
    worst = 0.0
    for i in oracle_picks(a):
        g = a.oracle[i]
        saved = [(layer, ch, p[f"b{layer}.gamma"][ch]) for layer, ch in g["members"]]
        for layer, ch, _ in saved:
            p[f"b{layer}.gamma"][ch] = 0.0
        delta = abs(_probe_loss(a, p) - base)
        for layer, ch, value in saved:
            p[f"b{layer}.gamma"][ch] = value
        err = abs(delta - g["delta"]) / (ORACLE_ATOL * base + ORACLE_RTOL * delta)
        worst = max(worst, err)
    return worst <= 1.0, f"worst err {worst:.2f} of tolerance"


def check_flops(a: Artifacts):
    """FLOPs by the formula of docs/formats.md against flops_ratio."""
    base = ref.flops(a.spec, ref.widths(a.spec, a.params["base"]))
    cut = ref.flops(a.spec, ref.widths(a.spec, a.params["surgery"]))
    ratio = cut / base
    ok = ratio == a.plan["flops_ratio"]
    if a.flops_target is not None:
        ok = ok and ratio <= a.flops_target
    return ok, f"recount {ratio:.6f}, plan {a.plan['flops_ratio']:.6f}"


def check_metrics(a: Artifacts):
    """Accuracy or PSNR recomputed from reference outputs."""
    tol = 1.0 / len(a.test_y) + 1e-12 if a.task == "classify" else PSNR_TOL_DB
    got = []
    for name, metric in (("base", a.base_metric), ("final", a.final_metric)):
        want = ref.task_metric(a.task, ref.forward(a.spec, a.params[name], a.test_x, "eval"),
                               a.test_y)
        got.append((metric, want))
    ok = all(abs(m - w) <= tol for m, w in got)
    return ok, ", ".join(f"{m:.4f} vs {w:.4f}" for m, w in got)


def check_beats_noisy(a: Artifacts):
    """Denoiser baseline and pruned PSNR above the noisy input's."""
    noisy = ref.psnr_db(a.test_x, a.test_y)
    ok = a.base_metric > noisy and a.final_metric > noisy
    return ok, f"noisy {noisy:.2f}, baseline {a.base_metric:.2f}, pruned {a.final_metric:.2f} dB"


# ---------------------------------------------------------------------------
# properties of the method


def check_normalized(a: Artifacts):
    """Every layer's normalized columns have unit norm or are zero, and
    equal the raw column over its norm."""
    width = ref.widths(a.spec, a.params["base"])
    bn = [i for i, b in enumerate(a.spec.blocks) if b.kind in ref.BN_KINDS]
    want_refs = {(i, c) for i in bn for c in range(width[i])}
    if {(r["layer"], r["channel"]) for r in a.records} != want_refs:
        return False, "records do not cover the norm-carrying channels"
    columns = ["gamma", "grad_gamma", "beta"]
    if a.records[0].get("weight_l1_n") is not None:
        columns.append("weight_l1")
    worst = 0.0
    for layer in bn:
        rows = [r for r in a.records if r["layer"] == layer]
        for col in columns:
            raw = np.array([r[col] for r in rows], dtype=np.float64)
            nrm = np.array([r[col + "_n"] for r in rows], dtype=np.float64)
            if np.any(nrm) and abs(np.linalg.norm(nrm) - 1.0) > NORM_TOL:
                return False, f"layer {layer} {col}_n norm {float(np.linalg.norm(nrm)):.12g}"
            norm = np.linalg.norm(raw)
            want = raw / norm if norm > 0 else raw
            worst = max(worst, float(np.max(np.abs(nrm - want))))
    return worst <= max(a.value_tol, NORM_TOL), f"worst deviation {worst:.2e}"


def _relu_layers(spec: ref.Spec) -> set:
    return {i for i, b in enumerate(spec.blocks) if b.kind == "conv_bn_relu"}


def _ranked(rows, key, tiebreak) -> bool:
    """Ranks are a permutation, ordered by ``key`` with ``tiebreak`` on exact ties."""
    ranks = sorted(int(r["rank"]) for r in rows)
    if ranks != list(range(len(rows))):
        return False
    by_rank = sorted(rows, key=lambda r: int(r["rank"]))
    return all(key(x) < key(y) or (key(x) == key(y) and tiebreak(x) < tiebreak(y))
               for x, y in zip(by_rank, by_rank[1:]))


def check_scores(a: Artifacts):
    """score = |grad_gamma_n * gamma_n| + lambda * beta_n, the shift only
    where a ReLU follows; ranks a permutation in score order."""
    relu = _relu_layers(a.spec)
    worst = max(abs(r["score"] - (abs(r["grad_gamma_n"] * r["gamma_n"])
                                  + (a.lam * r["beta_n"] if r["layer"] in relu else 0.0)))
                for r in a.records)
    ranked = _ranked(a.records, lambda r: r["score"], lambda r: (r["layer"], r["channel"]))
    return worst <= a.value_tol and ranked, f"worst deviation {worst:.2e}, ranks ok {ranked}"


def check_oracle(a: Artifacts):
    """Every prunable group probed once; deltas finite and >= 0; ranks in
    delta order."""
    groups = set(ref.coupling_groups(a.spec, ref.widths(a.spec, a.params["base"])))
    probed = [frozenset(g["members"]) for g in a.oracle]
    ok = set(probed) == groups and len(probed) == len(groups)
    ok = ok and all(np.isfinite(g["delta"]) and g["delta"] >= 0 for g in a.oracle)
    ranked = _ranked(a.oracle, lambda g: g["delta"], lambda g: min(g["members"]))
    return ok and ranked, f"{len(probed)} of {len(groups)} groups, ranks ok {ranked}"


def _plan_violations(a: Artifacts, plan: dict, cut_width: dict) -> list[str]:
    width = ref.widths(a.spec, a.params["base"])
    groups = ref.coupling_groups(a.spec, width)
    removed = set(map(tuple, plan["removed"]))
    bad = []
    for layer, n in width.items():
        kept = set(plan["kept"][layer])
        gone = {c for (lay, c) in removed if lay == layer}
        if kept & gone or kept | gone != set(range(n)):
            bad.append(f"layer {layer}: kept and removed do not partition {n}")
        if a.spec.blocks[layer].kind in ref.BN_KINDS and len(kept) < plan["min_keep"]:
            bad.append(f"layer {layer}: {len(kept)} kept < min_keep")
        if cut_width[layer] != len(kept):
            bad.append(f"layer {layer}: network width {cut_width[layer]} != {len(kept)} kept")
    for g in groups:
        if 0 < len(g & removed) < len(g):
            bad.append(f"group {sorted(g)[0]} split")
    total = sum(len(g) for g in groups)
    if plan["achieved"] != len(removed) / total or plan["achieved"] > plan["tau"]:
        bad.append(f"achieved {plan['achieved']} vs {len(removed)}/{total}, tau {plan['tau']}")
    return bad


def check_plan(a: Artifacts):
    """tau and min_keep respected, groups removed whole, widths as planned."""
    bad = _plan_violations(a, a.plan, ref.widths(a.spec, a.params["surgery"]))
    for lam, (plan, widths) in a.sweep_plans.items():
        bad += [f"lambda {lam:g}: {v}" for v in _plan_violations(a, plan, widths)]
    return not bad, "; ".join(bad[:3]) or f"{len(a.plan['removed'])} channels removed"


def check_sweep(a: Artifacts):
    """Captured columns identical across lambda; each score moves by
    exactly lambda * beta_n where a ReLU follows."""
    relu = _relu_layers(a.spec)
    base = {(r["layer"], r["channel"]): r for r in a.sweep[0.0]}
    worst = 0.0
    same = a.sweep_report_rows == len(SWEEP_LAMBDAS)
    for lam in SWEEP_LAMBDAS[1:]:
        for r in a.sweep[lam]:
            b = base[(r["layer"], r["channel"])]
            same = same and all(float(r[c]) == float(b[c]) for c in SHARED_COLUMNS)
            shift = lam * float(r["beta_n"]) if int(r["layer"]) in relu else 0.0
            want = float(b["score"]) + shift
            worst = max(worst, abs(float(r["score"]) - want) / max(1.0, abs(want)))
    return same and worst <= 2e-8, f"columns identical {same}, worst score err {worst:.1e}"


def check_repeatable(a: Artifacts):
    """Every round of the run produced the same outputs."""
    ok = all(s == a.signatures[0] for s in a.signatures)
    return ok, f"{len(a.signatures)} rounds"


def checks_for(a: Artifacts) -> dict:
    checks = {
        "forward_baseline": check_forward_baseline,
        "forward_pruned": check_forward_pruned,
        "fd_grad_gamma": check_fd_grad_gamma,
        "oracle_recount": check_oracle_recount,
        "flops": check_flops,
        "metrics": check_metrics,
        "normalized": check_normalized,
        "scores": check_scores,
        "oracle": check_oracle,
        "plan": check_plan,
        "repeatable": check_repeatable,
    }
    if a.task == "denoise":
        checks["beats_noisy"] = check_beats_noisy
    if a.sweep:
        checks["sweep"] = check_sweep
    return checks


def run_checks(a: Artifacts) -> dict[str, tuple[bool, str]]:
    a.compute_outputs()
    return {name: fn(a) for name, fn in checks_for(a).items()}
