"""The names perfbench's tracer wraps must stay importable from the package.

perfbench/tracing.py replaces each (module, attribute) of its SITES list with
a timing wrapper. Loading that file here, unchanged, makes a renamed or
deleted seam fail the regular suite, not only the benchmark's own tests.
"""

import importlib.util
import sys
from pathlib import Path

from rlseg import decode, read_rle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # harness's dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("tracing")


def test_traced_visits_match_work_counter_on_every_workload(tmp_path):
    # The tracer counts the runs of each projected row as the rows list them;
    # WorkCounter counts them from the image's flat spans. Both must agree,
    # and the crops the tracer charges must still go through crop_columns.
    tracing, harness = _load_tracing(), _load("harness")
    for workload in harness.WORKLOADS.values():
        corpus = harness.build_corpus(workload, 3, 1, tmp_path / workload.name)
        images = [read_rle(path) for _, path in corpus.entries]
        bitmaps = [decode(image) for image in images]
        tracer = tracing.Tracer()
        with tracer.installed():
            assert harness.counter_crosscheck(tracer, images, bitmaps) == [], workload.name
        assert any(span[0] == "rle.crop_columns" for span in tracer.spans), workload.name


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
