"""Pin the BLAS and OpenMP pools to one thread.

Import this before numpy.  Child processes inherit the setting.
"""

import os

PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINS)
