"""The benchmark's workloads: the CLI calls one iteration of each makes.

Every call runs the CLI as a user does: the default cell cap, no ``--jobs``,
no ``SUBSETSPACE_MAX_CELLS``, and the workload seed passed as ``--seed``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path


@dataclass(frozen=True)
class Call:
    """One CLI invocation: the arguments after ``subsetspace`` and the space
    descriptor whose ``exp_k`` it computes (for ``--file`` calls, the space
    the generated file is isomorphic to)."""
    argv: tuple[str, ...]
    model: str

    def option(self, flag: str) -> str | None:
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return None

    @property
    def command(self) -> str:
        return " ".join(self.argv[:2] if self.argv[0] == "verify"
                        else self.argv[:1])

    @property
    def k(self) -> int:
        return int(self.option("--k"))

    @property
    def fmt(self) -> str:
        return self.option("--format") or "json"

    @property
    def key(self) -> str:
        """Entry of the pinned table that this call's answer must match."""
        key = f"{self.command} {self.model} k={self.k}"
        if "--reduced" in self.argv:
            key += " reduced"
        if self.option("--level") is not None:
            key += f" level={self.option('--level')}"
        return key


def _call(seed: int, model: str, *argv: str) -> Call:
    return Call(tuple(argv) + ("--seed", str(seed)), model)


# -- generated --file inputs, in the face-table format the README documents

def polygon_file(v: int, rng: random.Random) -> dict:
    """A v-gon circle (isomorphic to circle:v) with shuffled names and
    generator order."""
    names = [f"p{i}" for i in rng.sample(range(v), v)]
    edges = [f"e{i}" for i in rng.sample(range(v), v)]
    faces = {edges[i]: [names[(i + 1) % v], names[i]] for i in range(v)}
    return {"generators": [rng.sample(names, v), rng.sample(edges, v)],
            "faces": faces}


def wedge_file(dims: tuple[int, ...], rng: random.Random) -> dict:
    """A wedge of minimal spheres (isomorphic to wedge:<dims>, or to s<n>
    for one summand) with shuffled cell names."""
    v = f"v{rng.randrange(1000)}"
    gens: list[list[str]] = [[v]] + [[] for _ in range(max(dims))]
    faces = {}
    for idx, m in enumerate(dims):
        cell = f"c{idx}_{rng.randrange(1000)}"
        gens[m].append(cell)
        word = " ".join(f"s_{i}" for i in range(m - 2, -1, -1))
        faces[cell] = [f"{word} {v}".strip()] * (m + 1)
    return {"generators": gens, "faces": faces}


def _write_inputs(seed: int, out: Path) -> dict[str, str]:
    rng = random.Random(seed)
    docs = {"polygon4.json": polygon_file(4, rng),
            "polygon5.json": polygon_file(5, rng),
            "polygon6.json": polygon_file(6, rng),
            "sphere2.json": wedge_file((2,), rng),
            "wedge11.json": wedge_file((1, 1), rng)}
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        path = out / name
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def verify_sweep(seed: int, out: Path) -> list[Call]:
    # The multiset of (command, space, k) is fixed so that an iteration's cost
    # does not depend on the seed, and run-to-run spread measures noise.  The
    # seed draws the call order, the --seed of every call (lemma1 covers and
    # oracle arrow samples) and the names and order in the --file inputs.
    f = _write_inputs(seed, out)
    c = partial(_call, seed)
    calls = [
        # homology, json
        c("s1", "homology", "--space", "s1", "--k", "5", "--reduced"),
        c("s2", "homology", "--space", "s2", "--k", "3"),
        c("wedge:1,1", "homology", "--space", "wedge:1,1", "--k", "3",
          "--reduced"),
        c("wedge:1,1,1", "homology", "--space", "wedge:1,1,1", "--k", "4"),
        c("circle:4", "homology", "--space", "circle:4", "--k", "3",
          "--reduced"),
        c("circle:5", "homology", "--space", "circle:5", "--k", "3"),
        c("wedge:2,2", "homology", "--space", "wedge:2,2", "--k", "3"),
        c("wedge:1,2", "homology", "--space", "wedge:1,2", "--k", "3",
          "--reduced"),
        # homology, csv
        c("s2", "homology", "--space", "s2", "--k", "2", "--format", "csv"),
        c("wedge:1,1,1", "homology", "--space", "wedge:1,1,1", "--k", "3",
          "--reduced", "--format", "csv"),
        c("circle:3", "homology", "--space", "circle:3", "--k", "3",
          "--format", "csv"),
        c("s3", "homology", "--space", "s3", "--k", "2", "--reduced",
          "--format", "csv"),
        # homology, text
        c("s1", "homology", "--space", "s1", "--k", "4", "--format", "text"),
        c("wedge:1,1", "homology", "--space", "wedge:1,1", "--k", "4",
          "--reduced", "--format", "text"),
        c("circle:6", "homology", "--space", "circle:6", "--k", "3",
          "--format", "text"),
        c("wedge:2,2", "homology", "--space", "wedge:2,2", "--k", "2",
          "--format", "text"),
        # homology, --file
        c("circle:4", "homology", "--file", f["polygon4.json"], "--k", "3",
          "--reduced"),
        c("circle:5", "homology", "--file", f["polygon5.json"], "--k", "3",
          "--format", "csv"),
        c("s2", "homology", "--file", f["sphere2.json"], "--k", "3",
          "--reduced"),
        c("wedge:1,1", "homology", "--file", f["wedge11.json"], "--k", "3",
          "--format", "text"),
        # the five verify checks
        c("wedge:1,1", "verify", "theorem1", "--space", "wedge:1,1", "--k", "3"),
        c("s2", "verify", "theorem1", "--space", "s2", "--k", "3"),
        c("wedge:2,2", "verify", "theorem1", "--space", "wedge:2,2", "--k", "2"),
        c("wedge:1,1,1", "verify", "theorem1", "--space", "wedge:1,1,1",
          "--k", "2"),
        c("wedge:1,1", "verify", "tuffley", "--space", "wedge:1,1", "--k", "2"),
        c("s1", "verify", "tuffley", "--space", "s1", "--k", "3"),
        c("wedge:1,1,1", "verify", "tuffley", "--space", "wedge:1,1,1",
          "--k", "3"),
        c("wedge:1,1", "verify", "tuffley", "--space", "wedge:1,1", "--k", "4"),
        c("wedge:1,1", "verify", "lemma1", "--space", "wedge:1,1", "--k", "2"),
        c("s2", "verify", "lemma1", "--space", "s2", "--k", "2"),
        c("circle:4", "verify", "lemma1", "--space", "circle:4", "--k", "2"),
        c("circle:6", "verify", "lemma1", "--file", f["polygon6.json"],
          "--k", "2"),
        c("s1", "verify", "invariance", "--space", "s1", "--k", "2"),
        c("s1", "verify", "invariance", "--space", "s1", "--k", "3"),
        c("circle:4", "verify", "invariance", "--space", "circle:4", "--k", "2"),
        c("circle:3", "verify", "invariance", "--space", "circle:3", "--k", "3"),
        c("s1", "verify", "oracle", "--space", "s1", "--k", "2", "--level", "1"),
        c("circle:4", "verify", "oracle", "--space", "circle:4", "--k", "2",
          "--level", "1"),
        c("wedge:1,1", "verify", "oracle", "--space", "wedge:1,1", "--k", "3",
          "--level", "2"),
        c("s2", "verify", "oracle", "--file", f["sphere2.json"], "--k", "2",
          "--level", "2"),
    ]
    random.Random(seed).shuffle(calls)
    return calls


def build_s3k3(seed: int, out: Path) -> list[Call]:
    return [_call(seed, "s3", "homology", "--space", "s3", "--k", "3",
                  "--reduced")]


def snf_circle5k4(seed: int, out: Path) -> list[Call]:
    return [_call(seed, "circle:5", "homology", "--space", "circle:5",
                  "--k", "4", "--reduced")]


# name -> function making one iteration's calls from (seed, input directory)
WORKLOADS = {
    # construction is about 75% of the work; the degeneracy sets dominate
    "build-s3k3": build_s3k3,
    # SNF is about 89% of the work; the build is about 11%
    "snf-circle5k4": snf_circle5k4,
    # ~40 short calls: start-up, import, verify orchestration, tiny SNFs
    "verify-sweep": verify_sweep,
}
