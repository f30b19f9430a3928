"""Start-up cost of the command line: scipy stays unloaded until needed.

Only the damped Newton direction uses scipy, for LAPACK's Cholesky
(``dpotrf``/``dpotrs``).  Importing ``scipy.linalg`` takes about a quarter
of a second and 28 MB, more than the rest of the package, so a ``pdnr``
fit loads only ``scipy`` itself and the compiled extension that holds the
two routines, ``scipy.linalg._flapack`` (about 15 ms and 4 MB), and no
other command loads scipy at all.  The checks run in a fresh interpreter,
since this test process has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json
import sys
from pathlib import Path

workdir = Path(sys.argv[1])
loaded = []


def check(stage):
    loaded.append([stage, [name for name in
                           ("scipy", "scipy.linalg", "scipy.linalg._flapack")
                           if name in sys.modules]])


def factorize(method):
    fac = workdir / f"{method}.json"
    fac.write_text(json.dumps({"tensor": str(data / "tensor.coo"),
                               "method": method, "rank": 3, "outer_max": 5}))
    assert main(["factorize", "--config", str(fac),
                 "--output-dir", str(workdir / method)]) == 0
    check(f"factorize {method}")


import poissoncp.cli
check("import poissoncp.cli")

from poissoncp.cli import main
from poissoncp.driver import FitConfig

gen = workdir / "gen.json"
gen.write_text(json.dumps({"dims": [6, 7, 8], "rank": 3, "samples": 2000,
                           "seed": 11}))
data = workdir / "data"
assert main(["generate", "--config", str(gen), "--output-dir", str(data)]) == 0
check("generate")
factorize("mu")
factorize("pqnr")
assert main(["evaluate", "--model", str(workdir / "mu" / "model.json"),
             "--truth", str(data / "truth_model.json"),
             "--tensor", str(data / "tensor.coo"),
             "--output", str(workdir / "report.json")]) == 0
check("evaluate")
FitConfig(method="pdnr", rank=2)
check("FitConfig(method='pdnr')")
factorize("pdnr")
print(json.dumps(loaded))
"""

# Loads LAPACK after the named preparation and prints whether the public
# ``scipy.linalg`` package was loaded by then, and whether the routines are
# the objects ``scipy.linalg.lapack`` exports.
ORDER_SCRIPT = r"""
import importlib.machinery
import json
import sys

order = sys.argv[1]
if order == "scipy.linalg first":
    import scipy.linalg
elif order == "no extension file":
    importlib.machinery.EXTENSION_SUFFIXES = []

from poissoncp.row_solver import lapack_cholesky

dpotrf, dpotrs = lapack_cholesky()
public = "scipy.linalg" in sys.modules
import scipy.linalg.lapack as lapack

print(json.dumps([public, dpotrf is lapack.dpotrf, dpotrs is lapack.dpotrs,
                  sys.modules["scipy.linalg._flapack"] is lapack._flapack]))
"""


def run_fresh(*args):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", *args], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_scipy_loads_only_once_a_pdnr_fit_is_configured(tmp_path):
    loaded = dict(run_fresh(SCRIPT, str(tmp_path)))
    lapack_only = ["scipy", "scipy.linalg._flapack"]
    assert loaded == {
        "import poissoncp.cli": [],
        "generate": [],
        "factorize mu": [],
        "factorize pqnr": [],
        "evaluate": [],
        "FitConfig(method='pdnr')": lapack_only,
        "factorize pdnr": lapack_only,
    }


@pytest.mark.parametrize("order, public", [
    ("direct load first", False),
    ("scipy.linalg first", True),
    ("no extension file", True),
])
def test_lapack_routines_are_the_ones_scipy_linalg_exports(order, public):
    # With no extension file found, the public import is the fallback, so
    # scipy.linalg is loaded by then.
    assert run_fresh(ORDER_SCRIPT, order) == [public, True, True, True]
