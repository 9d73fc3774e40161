"""Pytest root configuration.

Pins BLAS/OpenMP threading to one thread before anything imports numpy:
the repo's bit-identity contract (golden fixtures, ``==`` across
backends) is conditional on the BLAS reduction order, which changes with
the thread count — unpinned, ``tests/test_golden_regression.py`` is off
by 1e-7 Ha on a 2-thread host.  ``setdefault`` keeps an explicit choice
made in the environment, and worker subprocesses inherit the pins; a
BLAS some plugin already loaded is clamped through ``threadpoolctl``
when that is importable.

Also ensures the ``src`` layout is importable even when the package has
not been pip-installed (useful on offline machines where editable
installs via PEP 660 are unavailable); an installed ``repro`` takes
precedence.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # the environment pins above are the fallback
    pass
else:
    threadpool_limits(1)

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
