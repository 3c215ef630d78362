"""``import fluidnet`` loads no scipy; the first LP loads scipy.optimize.

A process that solves no LP (a CLI ``simulate``, ``stability`` or
``gfn-check`` run, say) should not pay for scipy's LP stack at start.  Each
check runs in a fresh interpreter, where nothing has been imported or solved
yet.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

from fluidnet import fixtures
from fluidnet.lyapunov import linear_certificate_search, piecewise_linear_check
from fluidnet.skorokhod import is_completely_s, is_s_matrix

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# row sums -1 and 1: the row-sum witness fails on the whole matrix, so the LP runs
NO_WITNESS = [[1.0, -2.0], [0.0, 1.0]]


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports fluidnet from this checkout; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_import_loads_no_scipy():
    out = fresh("import fluidnet, fluidnet.cli, sys\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


ENTRY_POINTS = {
    "linear_certificate_search": (
        "linear_certificate_search(fixtures.tandem()).to_report()",
        lambda: linear_certificate_search(fixtures.tandem()).to_report()),
    "piecewise_linear_check": (
        "piecewise_linear_check(fixtures.tandem(), [[1.0, 2.0], [2.0, 1.0]]).to_report()",
        lambda: piecewise_linear_check(fixtures.tandem(), [[1.0, 2.0], [2.0, 1.0]]).to_report()),
    "is_s_matrix": (f"is_s_matrix({NO_WITNESS})", lambda: is_s_matrix(NO_WITNESS)),
    "is_completely_s": (f"is_completely_s({NO_WITNESS})", lambda: is_completely_s(NO_WITNESS)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_first_lp_in_a_fresh_process_gives_the_same_answer(entry):
    code, here = ENTRY_POINTS[entry]
    out = fresh(
        "import json, sys\n"
        "from fluidnet import fixtures\n"
        "from fluidnet.lyapunov import linear_certificate_search, piecewise_linear_check\n"
        "from fluidnet.skorokhod import is_completely_s, is_s_matrix\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        f"print(json.dumps({code}, sort_keys=True))\n"
        "assert 'scipy.optimize' in sys.modules\n")
    assert out == json.dumps(here(), sort_keys=True) + "\n"
