"""The benchmark's trace mode wraps package functions by name.

``perfbench/tracing.py`` lists them in ``LAYERS`` and reads ``cache_info``
from the ``CACHED`` ones; a refactor that renames, removes or uncaches one
breaks ``perfbench/run.py --trace 1``.  The module is loaded by path, as
it is, without importing the rest of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_callable():
    tracing = _tracing()
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module("typeseq." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_every_cached_function_keeps_cache_info():
    tracing = _tracing()
    for dotted in tracing.CACHED:
        layer, name = dotted.split(".")
        fn = getattr(importlib.import_module("typeseq." + layer), name)
        assert callable(getattr(fn, "cache_info", None)), dotted
