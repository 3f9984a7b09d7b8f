"""One gfbs command with the benchmark's tracer installed; the spans and
counts go to TRACE_OUT when the command ends:

    python3 pipebench/traced_cli.py TRACE_OUT <gfbs arguments>
"""

import json
import sys
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from gfbs import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
