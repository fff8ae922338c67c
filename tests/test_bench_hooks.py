"""Every babelkit name the benchmark harness wraps or starts at must exist,
and the checks that run from ``perfbench/`` pass.

``perfbench/layers.py`` wraps module attributes by name and each workload
names the attribute its CLI command calls first; a renamed or deleted
function would otherwise surface only as an AttributeError in a traced run.
The gradlab workload's fp16 run must raise no RuntimeWarning, and the AP
oracle self-test must pass.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


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


def _python(*args, cwd):
    """``python *args`` in a fresh process that imports babelkit from src/."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_fp16_gradlab_run_raises_no_runtime_warning(perfbench, tmp_path):
    # late/fp16 overflows: a rounding or a grad-norm outside an errstate
    # would warn there, and -W error turns the warning into a failed run
    _, workloads = perfbench
    config = tmp_path / "gradlab.json"
    config.write_text(json.dumps(workloads.gradlab_config(0)), encoding="utf-8")
    run = _python("-W", "error::RuntimeWarning", "-m", "babelkit.cli", "gradlab",
                  "--config", str(config), "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    with open(tmp_path / "out" / "stability_table.csv", encoding="utf-8") as fh:
        assert any(row.startswith("late,fp16,diverged,") for row in fh)


def test_ap_oracle_selftest_passes():
    run = _python(os.path.join("perfbench", "selftest.py"), cwd=ROOT)
    assert run.returncode == 0, run.stdout + run.stderr
