"""Benchmark of the gfbs pruning pipeline. Run from the repository root:

    python3 pipebench/run.py --workload vgg_classify --seed 1 --seconds 24 --trace 0

``--trace 0`` runs whole rounds of the pipeline for about ``--seconds``
seconds, checks the outputs and prints the end-to-end metrics. ``--trace 1``
runs untraced and traced rounds and prints the per-layer metrics, with the
tracing overhead as the difference of their pipeline times. The last line
of standard output is the JSON result; the exit code is 0 only when every
check passed, and 2 when the checkout holds no ``src/gfbs``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("vgg_classify", "dncnn_denoise", "resnet_sweep")
# One BLAS thread: on two CPUs the small matmuls of these nets run faster
# and far steadier single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin the thread settings and put the checkout's src/ first on the
    path; must run before NumPy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GFBS_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gfbs" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/gfbs to benchmark", file=sys.stderr)
        return 2
    prepare()
    import bench

    result = bench.run(args.workload, args.seed % 2 ** 31, args.seconds, bool(args.trace))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
