"""The per-layer metric names in BENCHMARK.json name real public functions.

The traced benchmark run looks each ``<module>.<function>.<stat>`` name
up among the public functions of ``score_lab.<module>``; a renamed or
deleted function would leave it without a result line.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_metrics_name_public_functions():
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    layers = [name for name in names if not name.startswith("trace.")]
    assert layers
    for name in layers:
        module_name, function, _stat = name.split(".")
        module = importlib.import_module(f"score_lab.{module_name}")
        value = getattr(module, function, None)
        target = getattr(value, "__wrapped__", value)  # see through lru_cache
        assert not function.startswith("_"), name
        assert inspect.isfunction(target), name
        assert target.__module__ == module.__name__, name
