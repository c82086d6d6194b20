"""Run one ``mblab`` CLI call with the benchmark's span wrappers installed.

    PERFBENCH_SPANS=out.npz python3 perfbench/launcher.py <mblab arguments>

Behaves like ``python -m mblab``: same stdout, stderr and exit code.  When
the call returns, the spans and counters are written to $PERFBENCH_SPANS.
"""

import os
import sys
from pathlib import Path

from tracer import Tracer, install, save


def main() -> int:
    tracer = Tracer()
    install(tracer)
    from mblab import cli

    try:
        return cli.run(sys.argv[1:])
    finally:
        sys.stdout.flush()
        tracer.finish()
        save(tracer.spans(), Path(os.environ["PERFBENCH_SPANS"]))


if __name__ == "__main__":
    sys.exit(main())
