"""The benchmark calls the library in-process; its call sites must keep working."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload,item", [
    ("identity-sweep", ("algebra", "b", 5)),
    ("identity-sweep", ("space", "A3II", "a", 6, (2, 3))),
    ("identity-sweep", ("space", "A3III", "b", 5, (4,))),
    ("analyze-irreducible", ("analyze", "g", 2, "--nodes", "1")),
    ("identity-sweep", ("space", "A3III", "e", 7, (2,))),    # dm 84, the heaviest min-connection
])
def test_workload_item_passes(workloads, workload, item):
    """One item of each kind the identity-sweep and analyze-irreducible
    workloads run: a signature change at a call site shows as a failure."""
    assert workloads.run_item(workload, item, seed=1) == []
