"""Every ``fluidnet`` name the benchmark harness reads still exists.

``perfbench/`` is fixed between declared benchmark changes, so a library
change must keep each name it resolves.  Each entry below pairs a name with
the perfbench line that reads it; a removal fails here at once, with the
name, instead of deep inside ``perfbench/run.py --smoke``.  A benchmark
change that stops reading a name drops its entry in the same change.
"""
import importlib
import pathlib

import pytest

from fluidnet import fixtures
from fluidnet.skorokhod import solve_lsp

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (module, attribute, "perfbench file:line" that reads it)
MODULE_NAMES = [
    # the tracer's targets (tracing.TARGETS) and the selector base it walks
    ("model", "enumerate_polytope_vertices", "tracing.py:28"),
    ("dynamics", "simulate", "tracing.py:29"),
    ("stability", "draining_time", "tracing.py:30"),
    ("stability", "instability_witness", "tracing.py:31"),
    ("lyapunov", "linear_certificate_search", "tracing.py:32"),
    ("lyapunov", "approximate_V", "tracing.py:33"),
    ("gfn", "scale", "tracing.py:34"),
    ("gfn", "shift", "tracing.py:35"),
    ("gfn", "concatenate", "tracing.py:36"),
    ("fluidlimit", "simulate_queueing", "tracing.py:37"),
    ("fluidlimit", "distance_to_fluid", "tracing.py:38"),
    ("skorokhod", "solve_lsp", "tracing.py:39"),
    ("specfile", "parse_spec_file", "tracing.py:40"),
    ("cli", "atomic_write_text", "tracing.py:41"),
    ("dynamics", "ControlSelector", "tracing.py:226"),
    # the workloads and their checks
    ("fixtures", "stable_fixture_set", "workloads.py:132"),
    ("fixtures", "lu_kumar", "workloads.py:133"),
    ("specfile", "network_to_yaml", "workloads.py:210"),
    ("cli", "main", "workloads.py:219"),
    ("dynamics", "FirstVertex", "workloads.py:254"),
    ("dynamics", "MaxDrain", "workloads.py:254"),
    ("dynamics", "MinDrain", "workloads.py:254"),
    ("model", "validate", "workloads.py:261"),
    ("dynamics", "trajectory_csv", "workloads.py:270"),
    ("dynamics", "check_trajectory", "workloads.py:271"),
    ("model", "work_conserving_constraints", "workloads.py:300"),
    ("model", "priority_constraints", "workloads.py:302"),
    ("fluidlimit", "distance_table_csv", "workloads.py:366"),
    ("skorokhod", "solution_csv", "workloads.py:378"),
    ("skorokhod", "solution_residual", "workloads.py:380"),
    ("skorokhod", "complementarity_residual", "workloads.py:384"),
    ("skorokhod", "LspInstance", "workloads.py:400"),
    ("fixtures", "queueing_two_class_priority", "workloads.py:406"),
    ("fixtures", "two_class_priority", "workloads.py:406"),
    ("fixtures", "reentrant_line", "workloads.py:407"),
    ("fluidlimit", "queueing_spec", "workloads.py:407"),
    ("fluidlimit", "fluid_limit_compare", "workloads.py:420"),
    ("fixtures", "lsp_chattering", "workloads.py:424"),
    ("fixtures", "lsp_decoupled", "workloads.py:424"),
    ("errors", "StepTooLarge", "make_catalogue.py:23"),
]

# attributes read on the result of skorokhod.solve_lsp
SOLUTION_NAMES = [
    ("grid", "tracing.py:189"),
    ("states", "workloads.py:387"),
    ("pushing", "workloads.py:387"),
]


def perfbench_line(where: str) -> str:
    name, line = where.split(":")
    return (ROOT / "perfbench" / name).read_text().splitlines()[int(line) - 1]


@pytest.mark.parametrize("module,attr,where", MODULE_NAMES,
                         ids=[f"{m}.{a}" for m, a, _ in MODULE_NAMES])
def test_module_attribute_exists(module, attr, where):
    assert attr in perfbench_line(where), f"perfbench/{where} no longer reads {attr}"
    assert hasattr(importlib.import_module(f"fluidnet.{module}"), attr), (
        f"fluidnet.{module}.{attr} is gone, but perfbench/{where} reads it")


@pytest.mark.parametrize("attr,where", SOLUTION_NAMES, ids=[a for a, _ in SOLUTION_NAMES])
def test_solution_attribute_exists(attr, where):
    assert attr in perfbench_line(where), f"perfbench/{where} no longer reads {attr}"
    sol = solve_lsp(fixtures.lsp_one_dimensional(), 0.5, 0.1)
    assert hasattr(sol, attr), f"LspSolution.{attr} is gone, but perfbench/{where} reads it"


def test_solution_aliases_are_z_and_y():
    sol = solve_lsp(fixtures.lsp_decoupled(), 1.5, 0.1)
    assert sol.states is sol.levels and sol.pushing is sol.allocation
