"""The traced benchmark run wraps library functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_layer_resolves(monkeypatch):
    """A rename in nk_triad would otherwise break `bench/run.py --trace 1` only."""
    monkeypatch.syspath_prepend(str(BENCH))             # layers imports spans
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.WRAPPED
    for module, path, span in layers.WRAPPED:
        owner = importlib.import_module(f"nk_triad.{module}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{span}: nk_triad.{module}.{path} is gone"
            owner = getattr(owner, attr)
        assert callable(owner), span
    # install() also counts tensor builds and wraps every table function
    assert callable(importlib.import_module("nk_triad.automorph")._build_tensors)
    assert importlib.import_module("nk_triad.tables").TABLES
