#!/usr/bin/env python3
"""Benchmark of the subsetspace CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all     # every workload, both modes

Run from the root of a source checkout; the CLI runs from ``src/``.  One
client runs each workload as a closed loop, one CLI child process at a time,
repeating the workload's iteration for ``--seconds``, and checks every answer
(check.py).

--trace 0 reports the end-to-end metrics, each the median over the run's
iterations (setup_s: over the run's import spawns), rescaled to a reference
machine speed by a gauge kernel timed through the run (see reference_speed);
the measured medians and quartiles are printed too.  --trace 1 runs the
iteration in-process instead: a warm-up, once under span wrappers, once under
counting wrappers (tracer.py), then untraced while time is left, and reports
the per-layer metrics.  Neither mode starts a pass that would end more than
--seconds after the run began, but each makes at least one.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from check import check, load_table
from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]
SETUP = [sys.executable, "-c", "import subsetspace.cli"]
CLI = [sys.executable, "-m", "subsetspace.cli"]
SETUP_SPAWNS_PER_ITERATION = 2
GAUGE_SAMPLES_PER_ITERATION = 10
GAUGE_REF_S = 0.0165  # the gauge kernel's time on the quiet reference machine


class SetupError(Exception):
    """The checkout cannot run the CLI at all."""


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(),
            "git_commit": git_commit(ROOT)}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# -- untraced: CLI child processes ------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SUBSETSPACE_MAX_CELLS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child(NamedTuple):
    """One child process, run to its exit."""
    rc: int
    stdout: str
    stderr: str
    started: float
    ended: float
    cpu_s: float         # user + system, from os.wait4
    maxrss_kib: int


def spawn(argv: list[str], env: dict) -> Child:
    with tempfile.TemporaryFile(dir=OUT) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, ru = os.wait4(proc.pid, 0)
        ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(proc.returncode, out.decode(errors="replace"), stderr,
                 started, ended, ru.ru_utime + ru.ru_stime, ru.ru_maxrss)


def setup_time(env: dict) -> float:
    child = spawn(SETUP, env)
    if child.rc != 0:
        raise SetupError(f"importing subsetspace.cli failed:\n{child.stderr}")
    return child.ended - child.started


def _gauge_kernel() -> int:
    total = 0
    for i in range(300_000):
        total += i * i
    return total


def gauge_time() -> float:
    """Time of a fixed pure-Python kernel in this process: how fast the
    machine runs at the moment."""
    started = time.perf_counter()
    _gauge_kernel()
    return time.perf_counter() - started


def _out_of_time(start: float, begun: float, seconds: float) -> bool:
    """True if another pass, as long as the one begun at `begun`, would end
    more than `seconds` after `start`."""
    now = time.perf_counter()
    return now - start + (now - begun) > seconds


def run_untraced(calls, seconds: float, table: dict) -> tuple:
    env = child_env()
    setup_time(env)  # fills the bytecode cache, which users keep warm too
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": [],
               "gauge_s": []}
    attempted, failures = 0, []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        for _ in range(SETUP_SPAWNS_PER_ITERATION):
            samples["setup_s"].append(setup_time(env))
        for _ in range(GAUGE_SAMPLES_PER_ITERATION):
            samples["gauge_s"].append(gauge_time())
        children = [spawn(CLI + list(call.argv), env) for call in calls]
        samples["wall_s"].append(children[-1].ended - children[0].started)
        samples["cpu_s"].append(sum(c.cpu_s for c in children))
        samples["peak_rss_mb"].append(
            max(c.maxrss_kib for c in children) / 1024)
        for call, child in zip(calls, children):
            attempted += 1
            reason = check(call, child.rc, child.stdout, table)
            if reason:
                failures.append({"argv": call.argv, "reason": reason,
                                 "stderr": child.stderr[-2000:]})
        if _out_of_time(start, begun, seconds):
            return samples, attempted, failures


# -- traced: the same calls in-process --------------------------------------

def import_cli():
    sys.path.insert(0, str(SRC))
    import subsetspace.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"subsetspace imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def run_inprocess(cli, calls) -> tuple[float, list]:
    """Wall time of cli.main over the calls, and (call, rc, stdout) each."""
    results = []
    started = time.perf_counter()
    for call in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(list(call.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a traceback is a failed invocation
                rc = f"{type(exc).__name__}: {exc}"
        results.append((call, rc, out.getvalue()))
    return time.perf_counter() - started, results


def run_traced(calls, seconds: float, table: dict) -> tuple:
    cli = import_cli()
    os.environ.pop("SUBSETSPACE_MAX_CELLS", None)
    start = time.perf_counter()
    passes = [run_inprocess(cli, calls)[1]]  # warm-up, not timed
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.spans_installed():
        traced_wall, results = run_inprocess(cli, calls)
    passes.append(results)
    with tracer.counts_installed():
        passes.append(run_inprocess(cli, calls)[1])
    untraced = []
    while True:
        begun = time.perf_counter()
        wall, results = run_inprocess(cli, calls)
        untraced.append(wall)
        passes.append(results)
        if _out_of_time(start, begun, seconds):
            break
    metrics = tracer.metrics(traced_wall, untraced)
    attempted, failures = 0, []
    for results in passes:
        for call, rc, out in results:
            attempted += 1
            reason = check(call, rc, out, table)
            if reason:
                failures.append({"argv": call.argv, "reason": reason})
    extra = {"absent": sorted(tracer.absent), "traced_wall_s": traced_wall,
             "untraced_wall_s": untraced, "spans": tracer.dump(t0)}
    return metrics, attempted, failures, extra


# -- command line -----------------------------------------------------------

def reference_speed(medians: dict) -> dict:
    """The end-to-end metrics: the time medians rescaled to the speed at
    which the gauge kernel takes GAUGE_REF_S.

    The machine's single-core speed drifts by tens of percent over minutes,
    and the CLI's times drift with it; the gauge, sampled through the whole
    run, moves in proportion.  Memory is not rescaled."""
    scale = GAUGE_REF_S / medians["gauge_s"]
    return {"wall_s": medians["wall_s"] * scale,
            "cpu_s": medians["cpu_s"] * scale,
            "setup_s": medians["setup_s"] * scale,
            "peak_rss_mb": medians["peak_rss_mb"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "subsetspace" / "cli.py").is_file():
        raise SetupError(f"no subsetspace sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    env = environment()
    calls = WORKLOADS[workload](seed, OUT / "inputs")
    table = load_table()
    if trace:
        values, attempted, failures, extra = run_traced(calls, seconds, table)
        units = dict(PER_LAYER)
        stats = {}
    else:
        samples, attempted, failures = run_untraced(calls, seconds, table)
        stats = {name: quartiles(v) for name, v in samples.items()}
        values = reference_speed(
            {name: s["median"] for name, s in stats.items()})
        units = dict(END_TO_END)
        extra = {"samples": samples}
    env["loadavg_end"] = os.getloadavg()
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": env, "result": result,
              "quartiles": stats, "failed_ratio": len(failures) / attempted,
              "failures": failures[:20], **extra}
    (OUT / f"{workload}.trace{int(trace)}.json").write_text(json.dumps(record))
    return record


def report(record: dict) -> None:
    print(f"# {record['workload']} trace={record['trace']} "
          f"seed={record['seed']} environment={json.dumps(record['environment'])}")
    for name, s in record["quartiles"].items():
        print(f"#   measured {name}: median {s['median']:.6g} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}")
    print(f"#   failed_ratio: {record['failed_ratio']:.6g} "
          f"({record['result']['failed']}/{record['result']['attempted']})")
    for name in record.get("absent", []):
        print(f"#   absent: {name} (not in this version of the package)")
    for failure in record["failures"][:5]:
        print(f"#   FAILED {' '.join(failure['argv'])}: {failure['reason']}")
    print(json.dumps(record["result"]), flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    plan = ([(w, t) for w in WORKLOADS for t in (False, True)]
            if args.workload == "all" else [(args.workload, bool(args.trace))])
    for workload, trace in plan:
        try:
            record = run(workload, args.seed, args.seconds, trace)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
