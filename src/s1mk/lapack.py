"""Float64 LAPACK routines by name, bound on first use from scipy's compiled f2py module
``scipy.linalg._flapack`` by its file location: importing ``scipy.linalg`` would add 0.19 s
(2-core x86_64) of package ``__init__`` that s1mk does not use.  ``import scipy`` stays: its
distributor init locates the bundled OpenBLAS.  An extension is initialised once per process,
so ``get_lapack_funcs`` returns these very objects."""

import importlib.machinery
import importlib.util
from functools import cache


@cache
def _flapack():
    import scipy
    dirs = [d + "/linalg" for d in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", dirs)
    if spec is None:
        raise ImportError(f"scipy.linalg._flapack not found in {dirs}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@cache
def lapack(name: str):
    """scipy's f2py routine for the float64 LAPACK ``name``: dgetrf for "getrf"."""
    return getattr(_flapack(), "d" + name)
