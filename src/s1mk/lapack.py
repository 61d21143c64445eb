"""Float64 LAPACK routines by name, bound on first use.

``import s1mk`` does not load scipy.linalg, whose import takes about 0.14 s on
a 2-core x86_64: the first dense Newton step, GMRES cycle or barrier Newton
solve that needs a routine imports it here, and later calls return the same
f2py object.
"""

from functools import cache

import numpy as np


@cache
def lapack(name: str):
    """scipy's f2py routine for the float64 LAPACK ``name``: dgetrf for "getrf"."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(name, (np.empty((2, 2)),))
