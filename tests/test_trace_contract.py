"""The benchmark's tracer wraps afcore functions by name; every name must resolve.

``perfbench/spans.py`` lists the traced ``(module, attribute)`` pairs and the
by-name imports it re-points.  ``perfbench/run.py --trace 1`` looks each one
up with ``getattr``, so a renamed or deleted function breaks the traced run.
The ``spans`` fixture reads the file without importing ``perfbench``.
"""

import importlib


def test_traced_names_resolve(spans):
    modules = {layer: importlib.import_module(f"afcore.{layer}") for layer in spans["LAYERS"]}
    missing = []
    for layer, attrs in spans["TRACED"].items():
        for attr in attrs:
            target = modules[layer]
            for part in attr.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{layer}.{attr}")
    assert missing == []


def test_reimported_names_are_the_originals(spans):
    for where, layer, attr in spans["REIMPORTS"]:
        here = getattr(importlib.import_module(f"afcore.{where}"), attr)
        assert here is getattr(importlib.import_module(f"afcore.{layer}"), attr)
