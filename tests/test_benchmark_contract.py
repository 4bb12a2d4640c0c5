"""Every call of the benchmark's workloads succeeds with the pinned answer.

The benchmark counts a call whose answer ``perfbench/check.py`` rejects as a
failed operation.  This runs one iteration of each workload through
``cli.main`` in process and applies the same check, loading both perfbench
modules by path.  It also runs the benchmark's entry point as a child
process, and pins the names of ``src/`` that ``perfbench/tracer.py`` reads
and wraps.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from subsetspace.cli import cmd_verify, main
from subsetspace.expk import build_expk
from subsetspace.homology import ChainComplex, SparseIntMatrix
from subsetspace.spaces import parse_space

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_the_cli_module_entry_point_prints_the_recorded_output():
    """perfbench/run.py starts every call as ``python -m subsetspace.cli``,
    which runs cli.py's ``sys.exit(run())``."""
    argv = ["homology", "--space", "s1", "--k", "2"]
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text())
    case = next(c for c in golden["cases"] if c["argv"] == argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "subsetspace.cli", *argv, "--seed", "0"],
        capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (0, case["stdout"])


def test_the_names_the_tracer_reads_are_there():
    """The tracer names a cmd_verify span verify.<which> from its first
    argument, reads cells_enumerated and result.n_generators of every
    build_expk return (a ChainComplex at every k, k = 1 included), and
    nnz() of a matrix."""
    assert next(iter(inspect.signature(cmd_verify).parameters)) == "which"
    args = argparse.Namespace(k=2, level=None, seed=0, max_cells=200_000)
    for which, space, cells in [("theorem1", "s2", 43), ("tuffley", "s1", 10),
                                ("lemma1", "s1", 0), ("invariance", "s1", 10),
                                ("oracle", "s1", 10)]:
        record = cmd_verify(which, args, parse_space(space)[1])
        assert record.verdict == "pass", which
        assert (record.homology is None) == (which in ("lemma1", "oracle"))
        assert record.cells_enumerated == cells, which
    for k, cells, generators in [(1, 3, 2), (2, 10, 4)]:
        space = build_expk(parse_space("s1")[1], k)
        assert space.cells_enumerated == cells
        assert space.result.n_generators == generators
        assert type(space.result) is ChainComplex
    assert isinstance(ChainComplex.n_generators, property)
    assert callable(SparseIntMatrix.nnz)


# traced by perfbench/tracer.py, but deleted from src/: reported as absent
DELETED = {("expk", "colimit_level_oracle"), ("expk", "degeneracy_set"),
           ("expk", "strip_degeneracies"), ("homology", "restricted_chains"),
           ("homology", "space_homology")}


def test_every_function_the_tracer_wraps_is_there():
    """The tracer reports a target it cannot find as ``absent:`` and its
    metrics then read 0, so a rename would pass unseen: every (module,
    attribute) of its SPANS and COUNTS resolves to a callable of the
    package, except those in DELETED.  The tracer may drop targets."""
    tracer = _load("tracer")
    for module, attr in set(tracer.SPANS + tracer.COUNTS) - DELETED:
        target = importlib.import_module(f"subsetspace.{module}")
        for name in attr.split("."):
            target = getattr(target, name, None)
        assert callable(target), (module, attr)
