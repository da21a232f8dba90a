"""The ``mopsched`` command: ``python -m mopsched`` or the installed script.

The last bits of a solve depend on the BLAS thread count, and a horizon run
forks one worker per CPU only while BLAS runs one thread
(``mission._share_count``).  So the command pins OpenBLAS, OpenMP and MKL to
one thread before numpy loads, unless the variable is already set.  Importing
``mopsched`` as a library sets nothing.
"""

import os

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main():
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from mopsched.cli import main as cli_main

    cli_main()


if __name__ == "__main__":
    main()
