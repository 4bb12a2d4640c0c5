"""Every call of the benchmark's workloads succeeds with the pinned answer.

The benchmark counts a call whose answer ``perfbench/check.py`` rejects as a
failed operation.  This runs one iteration of each workload through
``cli.main`` in process and applies the same check, loading both perfbench
modules by path.
"""

from __future__ import annotations

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from subsetspace.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_workload_call_passes_the_benchmark_check(tmp_path):
    workloads, check = _load("workloads"), _load("check")
    table = check.load_table()
    for name, make_calls in workloads.WORKLOADS.items():
        for call in make_calls(0, tmp_path / name):
            out = io.StringIO()
            with redirect_stdout(out):
                rc = main(list(call.argv))
            assert check.check(call, rc, out.getvalue(), table) is None, \
                call.argv
