"""The benchmark tracer names wgk functions by string; each must still resolve.

A rename in wgk then fails here, not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    for _, target, _ in targets:
        modname, attr = target.split(":")
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{target}: no attribute {part!r}"
            obj = getattr(obj, part)
        assert callable(obj), target
