"""The benchmark's tracer finds every entry point it wraps.

perfbench/tracer.py looks each (owner, attribute) up in the owner's
__dict__ when it installs, so a dropped import (say geometry.linprog_exact)
breaks only a traced benchmark run.  The tracer module is loaded from its
file and not installed.
"""
import importlib.util
import sys
from pathlib import Path

import signalcap

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_entry_points_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)   # for its dataclasses
    spec.loader.exec_module(tracer)
    for owner, _, _ in tracer.ENTRY_POINTS:
        importlib.import_module("signalcap." + owner.split(".")[0])
    missing = [(owner, attr) for owner, attr, _ in tracer.ENTRY_POINTS
               if attr not in tracer._resolve(signalcap, owner).__dict__]
    assert tracer.ENTRY_POINTS
    assert missing == []
