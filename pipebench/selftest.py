"""Shows that every check of the benchmark fails when it should.

For each workload, one round runs and all checks must pass on its
outputs. Then each check runs again on a copy of the outputs corrupted
in one place (a perturbed pruned weight, a swapped oracle delta, ...),
and must fail. Run from the repository root:

    python3 pipebench/selftest.py [WORKLOAD ...]

Exits 0 only when every clean check passed and every corrupted one failed.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys


def corruptions(checks, ref):
    """Check name -> function that corrupts the artifacts in one place."""

    def wrong_output(a):
        out = a.out[("base", "eval")]
        out.flat[0] += 0.01 * abs(out).max()

    def perturbed_pruned_weight(a):
        layer = next(i for i, b in enumerate(a.spec.blocks) if b.kind in ref.BN_KINDS)
        a.nets["surgery"].params[layer].weight.data[0, 0, 1, 1] += 0.05
        a.compute_outputs()

    def wrong_gradient(a):
        rec = a.records[checks.fd_picks(a)[0]]
        scale = max(abs(r["grad_gamma"]) for r in a.records if r["layer"] == rec["layer"])
        rec["grad_gamma"] += 0.2 * scale

    def swapped_oracle_delta(a):
        i = checks.oracle_picks(a)[0]
        j = max(range(len(a.oracle)), key=lambda k: abs(a.oracle[k]["delta"] - a.oracle[i]["delta"]))
        a.oracle[i]["delta"], a.oracle[j]["delta"] = a.oracle[j]["delta"], a.oracle[i]["delta"]

    def wrong_flops_ratio(a):
        a.plan["flops_ratio"] += 1e-3

    def wrong_metric(a):
        a.final_metric += 2.0 / len(a.test_y) if a.task == "classify" else 0.01

    def unnormalized(a):
        a.records[0]["gamma_n"] *= 1.01

    def wrong_score(a):
        a.records[0]["score"] += 1e-6

    def kept_and_removed(a):
        layer, kept = next(iter(a.plan["kept"].items()))
        a.plan["removed"] = list(a.plan["removed"]) + [(layer, kept[0])]

    def differing_round(a):
        a.signatures = a.signatures + [("a round with other outputs",)]

    def below_noisy(a):
        a.final_metric = ref.psnr_db(a.test_x, a.test_y) - 0.1

    def shifted_sweep_column(a):
        row = a.sweep[0.05][0]
        row["beta_n"] = repr(float(row["beta_n"]) + 1e-3)

    return {
        "forward_baseline": wrong_output,
        "forward_pruned": perturbed_pruned_weight,
        "fd_grad_gamma": wrong_gradient,
        "oracle_recount": swapped_oracle_delta,
        "flops": wrong_flops_ratio,
        "metrics": wrong_metric,
        "normalized": unnormalized,
        "scores": wrong_score,
        "oracle": swapped_oracle_delta,
        "plan": kept_and_removed,
        "repeatable": differing_round,
        "beats_noisy": below_noisy,
        "sweep": shifted_sweep_column,
    }


def main(argv) -> int:
    import run

    run.prepare()
    import bench
    import checks
    import reference as ref
    import workloads as W

    table = corruptions(checks, ref)
    names = argv or list(W.WORKLOADS)
    bad = 0
    for name in names:
        wl = W.WORKLOADS[name]
        seed = 1
        st = W.setup(wl, seed)
        run_dir = bench.RUNS_DIR / f"selftest-{name}-p{os.getpid()}"
        try:
            clean = bench.artifacts(wl, seed, st, [bench.one_round(wl, seed, st, run_dir)])
            clean.compute_outputs()
            for check, fn in checks.checks_for(clean).items():
                ok, detail = fn(clean)
                bad += not ok
                a = copy.deepcopy(clean)
                table[check](a)
                caught, cdetail = fn(a)
                caught = not caught
                bad += not caught
                print(f"{name:14s} {check:17s} clean {'pass' if ok else 'FAIL'} ({detail}); "
                      f"corrupted by {table[check].__name__}: "
                      f"{'fails as it should' if caught else 'NOT CAUGHT'} ({cdetail})")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    print("selftest", "passed" if not bad else f"FAILED ({bad} problems)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
