"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps the htpriv
functions named in ``perfbench/spans.py``; a deleted or renamed one would
crash it when the tracer installs, so every name must still resolve."""

import importlib
import importlib.util
import os
import sys

import htpriv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spans(monkeypatch):
    """spans.py loaded by path, without writing a bytecode cache beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    assert spans.TARGETS
    for home, fname in spans.TARGETS:
        assert home in spans.MODULES
        module = importlib.import_module(f"htpriv.{home}")
        assert getattr(htpriv, home) is module
        assert callable(getattr(module, fname, None)), f"htpriv.{home}.{fname} is gone"
