"""The benchmark's tracer still fits the package: every name it wraps resolves."""

import importlib.util
import sys
from pathlib import Path

import qbell.cli  # noqa: F401  (loads every qbell module that the tracer wraps)

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(targets):
    """(owner, attribute) of every traced name, in its own module or class."""
    for _, module_name, paths in targets:
        module = sys.modules[module_name]
        for path in paths:
            if "." in path:
                cls_name, attr = path.split(".")
                yield getattr(module, cls_name), attr
            else:
                yield module, path


def _qbell_namespaces():
    """Every attribute of every loaded qbell module and of its classes, by identity."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "qbell" or name.startswith("qbell."):
            for attr, value in vars(module).items():
                snapshot[name, attr] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cls_attr, raw in vars(value).items():
                        snapshot[name, f"{attr}.{cls_attr}"] = raw
    return snapshot


def test_tracer_wraps_every_target_and_restores_the_originals():
    tracer_module = _load_tracer()
    before = _qbell_namespaces()
    targets = _targets(tracer_module.TARGETS)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in targets]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # raises on a name that no longer resolves
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} is not wrapped"
    finally:
        tracer.uninstall()
    after = _qbell_namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before), [
        key for key in before if after[key] is not before[key]
    ]
