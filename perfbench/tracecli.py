"""``python -m curvadapt.cli`` with the public functions traced.

    python3 perfbench/tracecli.py SPANS.npz ARGV...

Installs the tracer, runs ``cli.main(ARGV)`` and, on the way out, saves the
spans recorded in this process to SPANS.npz for the worker to collect.
"""

import sys

import numpy as np

import layertrace
from curvadapt import cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        np.savez(spans_path, **tracer.spans())


if __name__ == "__main__":
    sys.exit(main())
