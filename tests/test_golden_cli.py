"""Replay of seeded CLI calls against recorded output.

``golden_cli.json`` holds in-process ``cli.main`` calls with their exit
code, stdout and stderr.  An argument ``@name`` stands for a fixture file
written from the JSON's ``files`` table.  Every call passes ``--seed``, so
``elapsed_ms`` is 0 and the output is byte-deterministic.  Regenerate the
file, only when a change of output is intended, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")

FILES = {
    "circle.json": {"generators": [["v"], ["e"]], "faces": {"e": ["v", "v"]}},
    "sphere2.json": {"generators": [["v"], [], ["c"]],
                     "faces": {"c": ["s_0 v", "s_0 v", "s_0 v"]}},
    "no_faces.json": {"generators": [["v"], ["e"]]},
    # d_0 d_1 t = u but d_0 d_0 t = v: breaks d_0 d_1 = d_0 d_0
    "broken.json": {"generators": [["u", "v"], ["a", "b"], ["t"]],
                    "faces": {"a": ["u", "u"], "b": ["v", "v"],
                              "t": ["a", "b", "a"]}},
    "point.json": {"generators": [["v"]]},
}


def _homology(space, k, *extra):
    return ["homology", "--space", space, "--k", str(k), *extra]


def _verify(which, space, k, *extra):
    return ["verify", which, "--space", space, "--k", str(k), *extra]


CSV, TEXT = ("--format", "csv"), ("--format", "text")

CASES = [
    _homology("s1", 1), _homology("s1", 2), _homology("s1", 3),
    _homology("s1", 3, "--reduced"), _homology("s1", 2, *CSV),
    _homology("s1", 2, "--reduced", *TEXT),
    _homology("s2", 1), _homology("s2", 2, "--reduced"),
    _homology("s2", 3, *CSV), _homology("s2", 2, *TEXT),
    _homology("s3", 2), _homology("s3", 3, "--reduced"),
    _homology("wedge:1,2", 2), _homology("wedge:1,2", 3, "--reduced", *CSV),
    _homology("wedge:1,2", 2, *TEXT),
    _homology("circle:4", 1), _homology("circle:4", 2, "--reduced"),
    _homology("circle:4", 3, *TEXT), _homology("circle:4", 2, "--reduced",
                                               *CSV),
    _verify("theorem1", "wedge:1,1", 2), _verify("theorem1", "s2", 2, *CSV),
    _verify("theorem1", "wedge:2,2", 2, *TEXT),
    _verify("tuffley", "s1", 3), _verify("tuffley", "wedge:1,1", 2, *CSV),
    _verify("tuffley", "s1", 2, *TEXT),
    _verify("lemma1", "s1", 2), _verify("lemma1", "circle:4", 2, *CSV),
    _verify("lemma1", "s2", 2, *TEXT),
    _verify("invariance", "s1", 2), _verify("invariance", "circle:4", 2,
                                            *CSV),
    _verify("invariance", "s1", 3, *TEXT),
    _verify("oracle", "s1", 2, "--level", "1"),
    _verify("oracle", "circle:4", 2, "--level", "1", *CSV),
    _verify("oracle", "s2", 2, "--level", "2", *TEXT),
    ["homology", "--file", "@circle.json", "--k", "2"],
    ["homology", "--file", "@sphere2.json", "--k", "2", "--reduced", *TEXT],
    ["verify", "oracle", "--file", "@circle.json", "--k", "2", "--level",
     "1", *CSV],
    # exit 2: the two file messages name a generator by its JSON name
    ["homology", "--file", "@no_faces.json", "--k", "1"],
    ["homology", "--file", "@broken.json", "--k", "1"],
    _homology("bogus", 2), _verify("theorem1", "wedge:1,x", 2),
    _homology("s1", 0), ["homology", "--k", "2"],
    _verify("oracle", "s1", 2), _verify("theorem1", "circle:4", 2),
    _verify("invariance", "s3", 1), _homology("s1", 1, "--max-cells", "0"),
    # exit 3 reports whose projected count is the level's last partial sum
    _homology("circle:7", 1, "--max-cells", "6"),
    _homology("circle:300000", 1),
    # the space's own cap test, each check's own refusal of a space of the
    # wrong structure, and the refusal of a file that breaks the simplicial
    # identities, from a descriptor or a file alike and for every check
    _verify("tuffley", "wedge:1,2", 2), _verify("tuffley", "s2", 2),
    _verify("theorem1", "wedge:1,2", 2),
    _verify("theorem1", "circle:300000", 1),
    ["verify", "theorem1", "--file", "@sphere2.json", "--k", "2"],
    ["verify", "tuffley", "--file", "@circle.json", "--k", "2"],
    ["verify", "invariance", "--file", "@broken.json", "--k", "1"],
    _verify("oracle", "bogus", 2),
    _verify("theorem1", "s2", 3, "--max-cells", "6"),
    _verify("tuffley", "circle:4", 2), _verify("theorem1", "bogus", 2),
    ["verify", "tuffley", "--file", "@sphere2.json", "--k", "2"],
    # the oracle at a huge k on a one-level space, over the cap, above the
    # top level of the build, and at a negative level
    ["verify", "oracle", "--file", "@point.json", "--k", "1000000000",
     "--level", "0"],
    _verify("oracle", "wedge:1,1,1", 4, "--level", "4", "--max-cells", "100"),
    _verify("oracle", "s2", 2, "--level", "400"),
    _verify("oracle", "s1", 2, "--level", "-1"),
    # invariance on files and on descriptors beyond s1 and circle:V, under
    # the partner's cap and under the default cap at a high dimension
    ["verify", "invariance", "--file", "@sphere2.json", "--k", "2"],
    ["verify", "invariance", "--file", "@circle.json", "--k", "3", *CSV],
    _verify("invariance", "wedge:1,2", 2, *TEXT),
    _verify("invariance", "s2", 3, "--max-cells", "1000"),
    _verify("invariance", "s20", 1),
]


def _run(argv: list[str], fixtures: Path) -> dict:
    from subsetspace.cli import main
    argv = [str(fixtures / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--seed", "0"])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_fixtures(files: dict, where: Path) -> None:
    for name, doc in files.items():
        (where / name).write_text(json.dumps(doc))


def test_seeded_cli_output_matches_the_recording(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    _write_fixtures(golden["files"], tmp_path)
    for case in golden["cases"]:
        expected = {key: case[key] for key in ("code", "stdout", "stderr")}
        assert _run(case["argv"], tmp_path) == expected, case["argv"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        _write_fixtures(FILES, Path(tmp))
        cases = [{"argv": argv, **_run(argv, Path(tmp))} for argv in CASES]
    GOLDEN.write_text(json.dumps({"files": FILES, "cases": cases}, indent=1)
                      + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
