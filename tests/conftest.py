"""Pin BLAS to one thread before numpy is first imported.

The suite's matrices are at most a few hundred rows wide, where threaded
BLAS only adds synchronisation; unpinned, the suite's run time also depends
on what else the host is running.  A value already set in the environment
is kept.
"""
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
