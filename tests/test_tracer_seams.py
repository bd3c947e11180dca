"""The names perfbench's tracer wraps must stay importable from the package.

perfbench/tracing.py replaces each (module, attribute) of its SITES list with
a timing wrapper. Loading that file here, unchanged, makes a renamed or
deleted seam fail the regular suite, not only the benchmark's own tests.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = _load_tracing()
    assert tracing.SITES
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.SITES
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
    assert {name for _, _, name in tracing.SITES} <= set(tracing.LAYERS)
