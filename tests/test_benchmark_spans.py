"""The benchmark names traced package functions by `<module>.<function>`; a
span whose function is renamed or deleted would read 0 without any error."""

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module(name):
    try:
        return importlib.import_module(f"stegokit.{name}")
    except ModuleNotFoundError:
        return None


def test_traced_function_spans_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layer_report = importlib.import_module("layer_report")
    spans = {source[1] for _, _, _, source in layer_report.PER_LAYER
             if source[0] in ("total", "self", "calls", "bytes")}
    checked = []
    for span in sorted(spans):
        if span.endswith("."):  # a prefix: every span of one module
            assert _module(span[:-1]) is not None, span
            continue
        head, name = span.rsplit(".", 1)
        module = _module(head)
        if module is None or hasattr(module, "__path__"):
            # micronet layer and model methods: "micronet.<layer>.fwd",
            # "micronet.forward"
            assert span.startswith("micronet."), span
            continue
        fn = getattr(module, name, None)
        assert not name.startswith("_") and inspect.isfunction(fn), span
        assert fn.__module__ == module.__name__, span
        checked.append(span)
    assert "residual.convolve_batch" in checked
    assert "residual.front_stage_batch" in checked
