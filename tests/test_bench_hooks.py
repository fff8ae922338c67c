"""Every babelkit name the benchmark harness wraps or starts at must exist.

``perfbench/layers.py`` wraps module attributes by name and each workload
names the attribute its CLI command calls first; a renamed or deleted
function would otherwise surface only as an AttributeError in a traced run.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import workloads

    yield layers, workloads
    for name, module in list(sys.modules.items()):
        if os.path.dirname(getattr(module, "__file__", None) or "") == PERFBENCH:
            del sys.modules[name]


def _hooks(layers, workloads):
    for table in (layers.SPANS, layers.COUNTERS):
        for metric, targets in table.items():
            for module, attr in targets:
                yield metric, module, attr
    for name, workload in workloads.WORKLOADS.items():
        module, attr = workload.first_work.split(".", 1)
        yield name, module, attr


def test_every_hook_resolves(perfbench):
    layers, workloads = perfbench
    hooks = list(_hooks(layers, workloads))
    assert len(hooks) > len(workloads.WORKLOADS)
    for where, module, attr in hooks:
        owner, name = layers._resolve(module, attr)
        assert callable(getattr(owner, name, None)), f"{where}: babelkit.{module}.{attr}"
