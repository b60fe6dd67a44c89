"""Every per-layer metric of BENCHMARK.json names a function that exists.

The benchmark's tracer wraps ``steerdist.<module>.<attr>[.<attr>]`` by name;
a renamed or removed function would make its ``self_pct``/``calls``
metric read 0 instead of failing.  BENCHMARK.json is only read here.
"""
import functools
import importlib
import json
import re
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
TRACED = re.compile(r"(\w+)\.(\w+(?:\.\w+)?)\.(self_pct|calls|evaluations|trials)")
# Counters of numpy calls and of the tracer itself; they name no steerdist function.
COUNTERS = ("linalg.eigvalsh_mats", "linalg.eigh_mats", "trace.")


def test_every_traced_name_resolves_to_a_callable():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    checked = 0
    for name in names:
        if name.startswith(COUNTERS):
            continue
        match = TRACED.fullmatch(name)
        assert match, f"per-layer metric {name!r} has no recognised form"
        module, attrs, _ = match.groups()
        owner = importlib.import_module(f"steerdist.{module}")
        target = functools.reduce(getattr, attrs.split("."), owner)
        assert callable(target), name
        checked += 1
    assert checked >= 30
