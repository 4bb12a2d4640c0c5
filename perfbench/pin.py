#!/usr/bin/env python3
"""Regenerate expected.json, the pinned answers check.py compares against,
from the CLI in this checkout.

    python3 perfbench/pin.py

Run it only when a workload's set of calls changes, and review the diff: the
table is meant to hold the answers of a known-good version of the engine.
"""

import json

from check import EXPECTED, FIELDS, parse_output
from run import CLI, OUT, child_env, spawn
from workloads import WORKLOADS


def main() -> None:
    OUT.mkdir(exist_ok=True)
    env = child_env()
    table = {}
    for build in WORKLOADS.values():
        for call in build(0, OUT / "inputs"):
            if call.key in table:
                continue
            child = spawn(CLI + list(call.argv), env)
            if child.rc != 0:
                raise SystemExit(f"{' '.join(call.argv)} exited {child.rc}:\n"
                                 f"{child.stderr}")
            got = parse_output(call.fmt, child.stdout)
            table[call.key] = {f: got[f] for f in FIELDS}
            print(call.key, table[call.key])
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
