"""``import s1mk`` loads no scipy: LAPACK routines bind on first use, from
scipy's compiled ``scipy.linalg._flapack`` alone, and the benchmark's
``s1mk.john.ConvexHull`` hook imports scipy.spatial only when it is read.
pytest's own configuration imports scipy.linalg (its filterwarnings names a
scipy warning class), so the checks run in one fresh interpreter, which
reports what it saw as JSON on its last line; the in-process test covers the
other import order."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.linalg import get_lapack_funcs

from s1mk.lapack import _flapack, lapack

SRC = Path(__file__).resolve().parent.parent / "src"

ROUTINES = ("gecon", "getrf", "getrs", "lange", "posv", "trtrs")

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {}
import s1mk
seen["import s1mk"] = scipy_modules()
import s1mk.cli
seen["import s1mk.cli"] = scipy_modules()

import numpy as np
from s1mk import Grid, ProblemParams, gen_f, to_json
from s1mk.lapack import lapack

body = out + "/body.json"
with open(body, "w") as fh:
    json.dump(to_json(s1mk.ellipse_body(Grid(64), 2.0, 1.0)), fh)
with contextlib.redirect_stdout(io.StringIO()):
    seen["measures code"] = s1mk.cli.main(["measures", body, "--out", out])
    seen["verify-variational code"] = s1mk.cli.main(
        ["verify-variational", "--grid", "64", "--out", out])
seen["after measures and verify-variational"] = scipy_modules()

# the n = 64 dense steps use gecon, getrf, getrs and lange; the fit uses posv
rep = s1mk.solve(ProblemParams(0.5, 3.0, gen_f("trig", 2.0, 1, Grid(64)), lam=2.0))
s1mk.john(s1mk.random_convex_body(np.random.default_rng(0), Grid(64)))
seen["n = 64 converged"] = rep.converged
seen["lookups after n = 64 solve and john"] = lapack.cache_info().currsize
# this n = 256 polish takes GMRES steps, which use trtrs
rep = s1mk.solve(ProblemParams(0.5, 3.0, gen_f("bump", 2.0, 1, Grid(256)), lam=2.0))
seen["n = 256 converged by GMRES"] = rep.converged and rep.krylov_iterations > 0
seen["lookups after n = 256 solve"] = lapack.cache_info().currsize
with contextlib.redirect_stdout(io.StringIO()):
    seen["solve code"] = s1mk.cli.main(["solve", "--p", "0.5", "--q", "3", "--grid", "64",
                                        "--f-kind", "trig", "--seed", "1", "--out", out])
seen["scipy.linalg loaded by the solves and the fit"] = sorted(
    m for m in sys.modules if m.startswith("scipy.linalg"))
seen["scipy.spatial loaded by the fits"] = "scipy.spatial" in sys.modules

from scipy.linalg import get_lapack_funcs
seen["same routine"] = {
    name: lapack(name) is get_lapack_funcs((name,), (np.empty((2, 2)),))[0]
    for name in sys.argv[3:]}
seen["lookups at the end"] = lapack.cache_info().currsize

import scipy.spatial
john_module = sys.modules["s1mk.john"]
seen["hook is ConvexHull"] = getattr(john_module, "ConvexHull", None) is scipy.spatial.ConvexHull
try:
    john_module.NoSuchName
except AttributeError as exc:
    seen["unknown name"] = [type(exc).__name__, str(exc)]
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    out = tmp_path_factory.mktemp("imports")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC), str(out), *ROUTINES],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy(seen):
    assert seen["import s1mk"] == []
    assert seen["import s1mk.cli"] == []


def test_commands_without_lapack_load_no_scipy(seen):
    assert seen["measures code"] == 0
    assert seen["verify-variational code"] == 0
    assert seen["after measures and verify-variational"] == []


def test_lapack_binds_scipys_routines_on_first_use(seen):
    assert seen["n = 64 converged"] and seen["n = 256 converged by GMRES"]
    assert seen["lookups after n = 64 solve and john"] == len(ROUTINES) - 1
    assert seen["lookups after n = 256 solve"] == len(ROUTINES)
    assert seen["same routine"] == {name: True for name in ROUTINES}
    assert seen["lookups at the end"] == len(ROUTINES)  # no routine beyond these


def test_convex_hull_hook_imports_qhull_when_read(seen):
    assert seen["scipy.spatial loaded by the fits"] is False
    assert seen["hook is ConvexHull"] is True
    assert seen["unknown name"] == [
        "AttributeError", "module 's1mk.john' has no attribute 'NoSuchName'"]


def test_lapack_loads_only_the_extension(seen):
    assert seen["solve code"] == 0
    assert seen["scipy.linalg loaded by the solves and the fit"] == ["scipy.linalg._flapack"]


@pytest.mark.parametrize("name", ROUTINES)
def test_same_routine_when_scipy_linalg_came_first(name):
    # here scipy.linalg was imported by pytest's configuration before any lookup
    assert lapack(name) is get_lapack_funcs((name,), (np.empty((2, 2)),))[0]


def test_missing_extension_names_where_it_looked(monkeypatch, tmp_path):
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    _flapack.cache_clear()
    try:
        with pytest.raises(ImportError, match=re.escape(
                f"scipy.linalg._flapack not found in {[str(tmp_path / 'linalg')]}")):
            _flapack()
    finally:
        _flapack.cache_clear()  # the next lookup finds the real extension again
