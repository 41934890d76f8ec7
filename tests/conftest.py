"""One BLAS thread per test process, set before numpy is first imported.

The runner applies small matrices step by step; a multi-threaded BLAS spins
its threads on every product and slows many times over when another process
shares the CPUs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
