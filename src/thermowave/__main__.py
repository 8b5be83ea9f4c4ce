"""The command line's entry: ``python -m thermowave`` and the ``thermowave``
console script.

It gives OpenBLAS, OpenMP and MKL one thread each before NumPy loads,
unless the environment already names a count: a job is a sequence of
small solves that a BLAS thread pool only slows, and a running pool keeps
``convergence.usable_cpus()`` at 1, so that a sweep would not split.  A
library caller's environment is its own; only this entry sets the
variables.
"""

import os
import sys


def main():
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from . import cli
    sys.exit(cli.main())


if __name__ == "__main__":
    main()
