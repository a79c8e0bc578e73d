import importlib
import importlib.util
from pathlib import Path

import eocount

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_all_names_resolve():
    # a stale export would break only `from eocount import *`
    missing = [name for name in eocount.__all__ if not hasattr(eocount, name)]
    assert missing == []
    assert len(set(eocount.__all__)) == len(eocount.__all__)


def test_traced_names_resolve():
    # the benchmark's tracer looks every (layer, name) up with getattr, so a
    # renamed or deleted function would crash a traced run
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(
            getattr(importlib.import_module(f"eocount.{layer}"), name, None)
        )
    ]
    assert missing == []
