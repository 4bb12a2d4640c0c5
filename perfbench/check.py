"""Checks on every CLI answer, built from oracles that share no code with
the engine:

- ``f_vector``, ``betti``, ``torsion`` and ``verdict`` equal the table in
  ``expected.json``, pinned from the engine's own output when the benchmark
  was defined;
- the Euler characteristic of the f-vector equals
  ``sum_{j=1..k} C(chi(X), j)`` (``exp_k X`` is stratified by unordered
  configuration spaces with ``chi_c(B_j X) = C(chi(X), j)``), and the Betti
  numbers give the same Euler characteristic;
- for ``s1`` and ``circle:V`` the reduced homology is Z in degree
  ``2*ceil(k/2) - 1`` and zero elsewhere (Tuffley 2002).
"""

from __future__ import annotations

import json
from math import factorial
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"
FIELDS = ("f_vector", "betti", "torsion", "verdict")


def load_table(path: Path = EXPECTED) -> dict:
    return json.loads(path.read_text())


# -- output parsing ---------------------------------------------------------

def _parse_csv(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "degree,f,betti,torsion":
        raise ValueError("missing csv header")
    out = {"f_vector": [], "betti": [], "torsion": [], "verdict": None}
    for line in lines[1:]:
        degree, f, betti, torsion = line.split(",")
        if degree == "verdict":
            out["verdict"] = betti
            continue
        if int(degree) != len(out["f_vector"]):
            raise ValueError(f"csv degree {degree} out of order")
        out["f_vector"].append(int(f))
        out["betti"].append(int(betti))
        out["torsion"].append([int(d) for d in torsion.split(";") if d])
    return out


_TEXT_FIELDS = {"f-vector:": "f_vector", "betti:": "betti",
                "torsion:": "torsion"}


def _parse_text(text: str) -> dict:
    out = {"f_vector": None, "betti": None, "torsion": None, "verdict": None}
    for line in text.strip().splitlines():
        head, _, rest = line.partition(" ")
        if head in _TEXT_FIELDS:
            out[_TEXT_FIELDS[head]] = json.loads(rest)
        elif head == "verdict:":
            out["verdict"] = rest.strip()
    if out["f_vector"] is None and out["verdict"] is None:
        raise ValueError("no result in text output")
    return out


def parse_output(fmt: str, text: str) -> dict:
    """The answer fields of one CLI output; raises ValueError if unparsable."""
    if fmt == "json":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("json output is not an object")
        return {f: payload.get(f) for f in FIELDS}
    if fmt == "csv":
        return _parse_csv(text)
    return _parse_text(text)


# -- oracles ----------------------------------------------------------------

def binomial(x: int, j: int) -> int:
    """Generalised binomial coefficient C(x, j) for any integer x."""
    num = 1
    for i in range(j):
        num *= x - i
    return num // factorial(j)


def space_euler(model: str) -> int:
    """Euler characteristic of a space descriptor: sN, wedge:d1,...,
    circle:V."""
    if model.startswith("wedge:"):
        return 1 + sum((-1) ** int(d) for d in model[len("wedge:"):].split(","))
    if model.startswith("circle:"):
        return 0
    if model.startswith("s") and model[1:].isdigit():
        return 1 + (-1) ** int(model[1:])
    raise ValueError(f"no Euler characteristic for {model!r}")


def euler_oracle(model: str, k: int) -> int:
    """chi(exp_k X) = sum_{j=1..k} C(chi(X), j)."""
    chi = space_euler(model)
    return sum(binomial(chi, j) for j in range(1, k + 1))


def _alternating(values: list[int]) -> int:
    return sum(v if n % 2 == 0 else -v for n, v in enumerate(values))


def check(call, rc, stdout: str, table: dict) -> str | None:
    """None if the call's answer is right, else the reason it is wrong."""
    if rc != 0:
        return f"exit {rc}"
    try:
        got = parse_output(call.fmt, stdout)
    except (ValueError, TypeError, KeyError) as exc:
        return f"unparsable output: {exc}"
    want = table.get(call.key)
    if want is None:
        return f"no pinned answer for {call.key!r}"
    for field in FIELDS:
        if got[field] != want[field]:
            return f"{field} {got[field]} != pinned {want[field]}"
    fvec, betti = got["f_vector"], got["betti"]
    if fvec is None:
        return None
    chi = _alternating(fvec)
    if chi != euler_oracle(call.model, call.k):
        return f"euler {chi} != oracle {euler_oracle(call.model, call.k)}"
    # theorem1 and tuffley report reduced homology whatever the flags say
    reduced = ("--reduced" in call.argv
               or call.command in ("verify theorem1", "verify tuffley"))
    if _alternating(betti) + reduced != chi:
        return "betti numbers disagree with the f-vector's Euler characteristic"
    if call.model == "s1" or call.model.startswith("circle:"):
        top = 2 * ((call.k + 1) // 2) - 1
        reduced_betti = [b - (n == 0 and not reduced)
                         for n, b in enumerate(betti)]
        if (reduced_betti != [int(n == top) for n in range(len(betti))]
                or any(got["torsion"])):
            return f"not a homology {top}-sphere, as Tuffley's theorem gives"
    return None
