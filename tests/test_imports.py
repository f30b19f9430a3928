"""Start-up cost of the command line: scipy stays unloaded until needed.

Only the damped Newton direction uses scipy (LAPACK's Cholesky), and
importing ``scipy.linalg`` takes about a quarter of a second, more than the
rest of the package.  The checks run in a fresh interpreter, since this
test process has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json
import sys
from pathlib import Path

workdir = Path(sys.argv[1])
loaded = []


def check(stage):
    loaded.append([stage, "scipy.linalg" in sys.modules])


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
for method in ("mu", "pqnr"):
    fac = workdir / f"{method}.json"
    fac.write_text(json.dumps({"tensor": str(data / "tensor.coo"),
                               "method": method, "rank": 3, "outer_max": 5}))
    assert main(["factorize", "--config", str(fac),
                 "--output-dir", str(workdir / method)]) == 0
    check(f"factorize {method}")
assert main(["evaluate", "--model", str(workdir / "mu" / "model.json"),
             "--truth", str(data / "truth_model.json"),
             "--tensor", str(data / "tensor.coo"),
             "--output", str(workdir / "report.json")]) == 0
check("evaluate")
FitConfig(method="pdnr", rank=2)
check("FitConfig(method='pdnr')")
print(json.dumps(loaded))
"""


def test_scipy_loads_only_once_a_pdnr_fit_is_configured(tmp_path):
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    loaded = dict(json.loads(out.stdout.splitlines()[-1]))
    assert loaded == {
        "import poissoncp.cli": False,
        "generate": False,
        "factorize mu": False,
        "factorize pqnr": False,
        "evaluate": False,
        "FitConfig(method='pdnr')": True,
    }
