"""Every name the per-layer tracer of perfbench wraps must exist in its ddcp
module: a traced benchmark run fails on a missing one, so a rename is caught
here first."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        "%s.%s" % (layer, name)
        for layer, names in tracing.LAYERS.items()
        for name in names
        if getattr(importlib.import_module("ddcp." + layer), name, None) is None
    ]
    assert tracing.LAYERS
    assert missing == []
