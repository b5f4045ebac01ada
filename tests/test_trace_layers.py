"""Every name the per-layer tracer of perfbench wraps must exist in its ddcp
module, and `import ddcp` must load that module: a traced benchmark run fails
on a missing one, so a rename or a dropped import is caught here first."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import ddcp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = load_tracing()
    missing = [
        "%s.%s" % (layer, name)
        for layer, names in tracing.LAYERS.items()
        for name in names
        if getattr(importlib.import_module("ddcp." + layer), name, None) is None
    ]
    assert tracing.LAYERS
    assert missing == []


def test_import_ddcp_loads_every_traced_module():
    """The tracer looks each layer up in sys.modules, so `import ddcp` alone,
    in a fresh interpreter, must load every one of them."""
    src = Path(ddcp.__file__).resolve().parents[1]
    code = "import json, sys, ddcp; print(json.dumps(sorted(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        check=True,
        cwd=src,
        env=dict(os.environ, PYTHONPATH=str(src)),
        text=True,
    )
    loaded = set(json.loads(run.stdout))
    layers = ["ddcp." + layer for layer in load_tracing().LAYERS]
    assert [name for name in layers if name not in loaded] == []
