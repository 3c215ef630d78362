"""The benchmark harness still runs against the library.

``perfbench/`` resolves names in ``fluidnet`` (the tracer wraps
``fluidnet.model.enumerate_polytope_vertices``, the certificate check calls
``work_conserving_constraints`` and ``priority_constraints``, the Skorokhod
check calls ``solution_csv``, ``solution_residual`` and
``complementarity_residual`` and reads ``LspSolution.states`` and
``.pushing``), so a library change that drops one of them breaks the
benchmark.  ``test_perfbench_names.py`` lists every such name with the line
that reads it and fails at once when one is gone.  The smoke check runs
every workload at tiny sizes with and without the tracer and writes only to
the git-ignored ``.perfbench_run/``.
"""
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_perfbench_smoke_exits_zero():
    run = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
