"""Loading ``bench/`` modules read-only, for tests that check the benchmark's inputs."""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(monkeypatch, stem):
    """``bench/<stem>.py``, loaded from its file under the name its neighbours import."""
    spec = importlib.util.spec_from_file_location(stem, BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, stem, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module
