"""Fresh-process set-up of one workload, timed from outside by run.py:

    python3 pipebench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import workloads

    workloads.setup(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))


if __name__ == "__main__":
    main()
