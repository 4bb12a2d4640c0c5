import gc
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from subsetspace import cli
from subsetspace.cli import main
from subsetspace.expk import ResourceCapError, build_expk
from subsetspace.spaces import parse_space, subdivided_circle, wedge

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_child(*argv, stdout=subprocess.PIPE, timeout=30, **env_vars):
    """``python -m subsetspace.cli`` on this checkout's src/, in a child
    process with ``env_vars`` added to its environment; its stdout goes to
    ``stdout`` (captured by default) and its stderr is captured.  A child
    still running after ``timeout`` seconds is killed, and TimeoutExpired
    fails the caller."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "subsetspace.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=timeout, env=env)


def test_homology_moebius(capsys):
    code, out, _ = run_cli(capsys, "homology", "--space", "s1", "--k", "2",
                           "--reduced", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [1, 2, 1]
    assert payload["betti"] == [0, 1, 0]
    assert payload["torsion"] == [[], [], []]
    assert payload["euler"] == 0
    assert payload["reduced"] is True


def test_homology_strips_and_lower_cases_the_space(capsys):
    args = ["--k", "2", "--seed", "0"]
    code, out, _ = run_cli(capsys, "homology", "--space", " S2 ", *args)
    assert code == 0
    assert json.loads(out)["space"] == "s2"
    assert out == run_cli(capsys, "homology", "--space", "s2", *args)[1]


def test_homology_figure_eight(capsys):
    code, out, _ = run_cli(capsys, "homology", "--space", "wedge:1,1",
                           "--k", "1")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 2]


def test_homology_two_sphere(capsys):
    code, out, _ = run_cli(capsys, "homology", "--space", "s2", "--k", "1")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 0, 1]


def homology_cells(capsys, space, k):
    code, out, _ = run_cli(capsys, "homology", "--space", space, "--k",
                           str(k))
    assert code == 0
    return json.loads(out)["cells_enumerated"]


def test_verify_theorem1(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem1", "--space",
                           "wedge:1,1", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["cells_enumerated"] == homology_cells(capsys,
                                                         "wedge:1,1", 3)


def test_verify_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify", "oracle", "--space", "s1",
                           "--k", "2", "--level", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    # the count of the exp_k build, as for the other checks
    assert payload["cells_enumerated"] == homology_cells(capsys, "s1",
                                                         2) == 10


def test_verify_tuffley(capsys):
    code, out, _ = run_cli(capsys, "verify", "tuffley", "--space", "s1",
                           "--k", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["cells_enumerated"] == homology_cells(capsys, "s1", 4)


def test_verify_invariance(capsys):
    code, out, _ = run_cli(capsys, "verify", "invariance", "--space", "s1",
                           "--k", "2")
    assert code == 0
    # the count of the exp_k S build, not of its subdivision's
    assert json.loads(out)["cells_enumerated"] == homology_cells(capsys,
                                                                 "s1", 2)


def test_verify_invariance_can_fail(monkeypatch, capsys):
    # a partner of another homotopy type than the space's
    monkeypatch.setattr(cli, "edgewise_subdivision",
                        lambda S, max_cells: wedge((1, 1)))
    code, out, _ = run_cli(capsys, "verify", "invariance", "--space", "s1",
                           "--k", "2")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_verify_invariance_refuses_an_over_cap_subdivision_quickly(capsys):
    # every level of esd s20 is tested before any is built: level 13 alone
    # has 888,031 simplices
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "invariance", "--space",
                             "s20", "--k", "1")
    assert time.perf_counter() - started < 1
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "resource-cap", "level": 13,
                               "level_size": 888_031,
                               "projected_cells": 888_031, "cap": 200_000}


def test_verify_lemma1(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma1", "--space",
                           "wedge:1,1", "--k", "2", "--seed", "5")
    assert code == 0


def test_reduced_is_a_homology_flag(capsys):
    # verify's checks fix their own reduction, so verify has no --reduced
    for which in ("theorem1", "tuffley", "lemma1", "invariance", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", which, "--space", "s1", "--k", "2",
                  "--level", "1", "--reduced"])
        assert exc.value.code == 2
        assert "--reduced" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "verify", "oracle", "--space", "s1",
                           "--k", "2", "--level", "1")
    assert code == 0 and json.loads(out)["reduced"] is False


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "homology", "--space", "bogus",
                             "--k", "2")
    assert code == 2
    assert out == ""  # no partial JSON on error paths
    assert "bogus" in err
    code, out, err = run_cli(capsys, "verify", "theorem1", "--space",
                             "wedge:1,x", "--k", "2")
    assert code == 2
    assert out == ""
    assert "bad wedge descriptor" in err


def test_level_is_refused_outside_the_oracle(capsys):
    # only the oracle counts a level; the other checks would ignore it
    for which in ("theorem1", "tuffley", "lemma1", "invariance"):
        for level in ("5", "-3"):
            code, out, err = run_cli(capsys, "verify", which, "--space",
                                     "s1", "--k", "2", "--level", level)
            assert (code, out, err) == (
                2, "", "error: --level applies only to verify oracle\n")


def _seeded_payload(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--seed", "0")
    assert code == 0, argv
    return json.loads(out)


def _wedge_doc(dims):
    """The JSON face table of the wedge of spheres of the given dimensions:
    every face of a d-sphere's generator is s_{d-2} ... s_0 v."""
    names = [f"g{i}" for i in range(len(dims))]
    return {"generators": [["v"]] + [[n for n, d in zip(names, dims)
                                      if d == level]
                                     for level in range(1, max(dims) + 1)],
            "faces": {n: [" ".join([f"s_{i}" for i in range(d - 2, -1, -1)]
                                   + ["v"])] * (d + 1)
                      for n, d in zip(names, dims)}}


def test_a_file_stands_for_its_own_content(capsys, tmp_path):
    # a file named like a descriptor stands for the space it holds: s2
    # holding a one-vertex circle verifies as s1 does
    path = tmp_path / "s2"
    path.write_text(json.dumps({"generators": [["v"], ["e"]],
                                "faces": {"e": ["v", "v"]}}))
    for which in ("theorem1", "tuffley"):
        by_file = _seeded_payload(capsys, "verify", which, "--file",
                                  str(path), "--k", "2")
        by_space = _seeded_payload(capsys, "verify", which, "--space", "s1",
                                   "--k", "2")
        assert by_file.pop("space") == "s2"
        by_space.pop("space")
        assert by_file == by_space
    # a 3-gon is a circle, but not a wedge of one-vertex spheres
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({
        "generators": [["a", "b", "c"], ["x", "y", "z"]],
        "faces": {"x": ["b", "a"], "y": ["c", "b"], "z": ["a", "c"]}}))
    refusals = {"theorem1": "theorem1_check needs a homogeneous wedge",
                "tuffley": "tuffley_check needs a wedge of circles"}
    for which, refusal in refusals.items():
        code, out, err = run_cli(capsys, "verify", which, "--file",
                                 str(path), "--k", "2")
        assert (code, out, err) == (2, "", f"error: {refusal}\n")
    # invariance derives its partner from the content: a file named s1
    # holding the minimal 2-sphere verifies as s2 does
    path = tmp_path / "s1"
    path.write_text(json.dumps({"generators": [["v"], [], ["c"]],
                                "faces": {"c": ["s_0 v"] * 3}}))
    by_file = _seeded_payload(capsys, "verify", "invariance", "--file",
                              str(path), "--k", "2")
    by_space = _seeded_payload(capsys, "verify", "invariance", "--space",
                               "s2", "--k", "2")
    assert by_file.pop("space") == "s1"
    by_space.pop("space")
    assert by_file == by_space


def test_file_and_descriptor_routes_agree(capsys, tmp_path):
    """verify theorem1/tuffley --file on a wedge's face table prints what
    --space prints for its descriptor, apart from the space's name."""
    for desc, dims in [("s1", (1,)), ("s2", (2,)), ("wedge:1,1", (1, 1)),
                       ("wedge:2,2", (2, 2)), ("wedge:1,1,1", (1, 1, 1))]:
        path = tmp_path / f"{desc.replace(':', '_')}.json"
        path.write_text(json.dumps(_wedge_doc(dims)))
        checks = ("theorem1", "tuffley") if max(dims) == 1 else ("theorem1",)
        for which in checks:
            for k in (1, 2, 3):
                by_file = _seeded_payload(capsys, "verify", which, "--file",
                                          str(path), "--k", str(k))
                by_space = _seeded_payload(capsys, "verify", which,
                                           "--space", desc, "--k", str(k))
                by_file.pop("space"), by_space.pop("space")
                assert by_file == by_space, (which, desc, k)


def test_missing_space_is_parse_error(capsys):
    code, _, _ = run_cli(capsys, "homology", "--k", "2")
    assert code == 2
    for argv in (["homology"], ["verify", "lemma1"], ["verify", "theorem1"]):
        code, out, err = run_cli(capsys, *argv, "--file", "", "--k", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def _readme_block(after: str, fence: str) -> str:
    """The first code block opened by ``fence`` after the line ``after``."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rest = text[text.index(after + "\n"):]
    start = rest.index(fence + "\n") + len(fence) + 1
    return rest[start:rest.index("```", start)]


def test_the_readmes_cli_block_runs(capsys, tmp_path, monkeypatch):
    """Every line of the README's CLI block, seeded, with its JSON example
    as my_space.json, exits 0 with output in its --format; --space and
    --file together are refused."""
    doc = _readme_block("### Custom simplicial sets (`--file`)", "```json")
    (tmp_path / "my_space.json").write_text(doc)
    monkeypatch.chdir(tmp_path)
    lines = _readme_block("## CLI", "```").splitlines()
    assert len(lines) == 8
    for line in lines:
        prog, *argv = line.split()
        assert prog == "subsetspace"
        code, out, err = run_cli(capsys, *argv, "--seed", "0")
        assert code == 0 and err == "", line
        if "text" in argv:
            assert out.startswith("space: ") and "elapsed:  0 ms" in out
        else:
            assert json.loads(out)["elapsed_ms"] == 0, line
    code, out, err = run_cli(capsys, "homology", "--space", "s1", "--file",
                             "my_space.json", "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_resource_cap_exit_code(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "homology", "--space", "s1", "--k", "3",
                             "--max-cells", "4")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "resource-cap"


def test_huge_k_is_refused_at_the_first_level_over_the_cap():
    """The projected count sums C(m, j) for j <= min(k, m) up to its first
    partial sum over the cap, so k = 10^9 is refused at once: at level 17
    of s1 with C(18, 1) + ... + C(18, 6) = 230,963, and at level 0 of
    circle:15000 with 15000 + C(15000, 2), a count whose full sum 2^15000
    has more digits than int -> str converts.  verify oracle builds exp_k S
    first, so it is refused where homology is."""
    for args, level, level_size, projected in [
            (["homology", "--space", "s1"], 17, 18, 230_963),
            (["homology", "--space", "circle:15000"], 0, 15_000,
             112_507_500),
            (["verify", "oracle", "--space", "s1", "--level", "1"], 17, 18,
             230_963)]:
        proc = run_cli_child(*args, "--k", "1000000000")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": "resource-cap", "level": level, "level_size": level_size,
            "projected_cells": projected, "cap": 200_000}


def test_the_cap_is_tested_on_the_base_before_it_is_reduced(capsys):
    """circle:6 reduces to s1, whose exp_5 is small, but the cap reads
    circle:6's levels: the refusal is the one it had before reduction."""
    code, out, err = run_cli(capsys, "homology", "--space", "circle:6",
                             "--k", "5")
    assert (code, out) == (3, "")
    assert err == ('{"error": "resource-cap", "level": 5, "level_size": 36, '
                   '"projected_cells": 443703, "cap": 200000}\n')


def test_malformed_counts_are_refused_whatever_the_int_digit_limit(capsys):
    """A count has at most 639 digits, so it and its successor convert
    under 640, the least limit CPython lets PYTHONINTMAXSTRDIGITS set, and a
    5,000-digit count gets the same exit code and message here as in a
    child process whose PYTHONINTMAXSTRDIGITS=0 lifts the limit."""
    for space, refusal in [("s", "unrecognized space descriptor"),
                           ("wedge:1,", "bad wedge descriptor"),
                           ("circle:", "bad circle descriptor")]:
        args = ["homology", "--space", space + "9" * 5000, "--k", "1"]
        proc = run_cli_child(*args, PYTHONINTMAXSTRDIGITS="0")
        code, out, err = run_cli(capsys, *args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {refusal} ")


def test_the_longest_count_is_read_alike_under_the_least_int_digit_limit(
        capsys):
    """Under PYTHONINTMAXSTRDIGITS=640, CPython's least limit, a child
    process refuses a sphere summand of the longest count, 639 digits, over
    the cap (its report's m + 1 has 640 digits), and a 640-digit count as a
    descriptor, with the same exit code and message as here."""
    for digits, exit_code in ((639, 3), (640, 2)):
        args = ["homology", "--space", "s" + "9" * digits, "--k", "1"]
        proc = run_cli_child(*args, PYTHONINTMAXSTRDIGITS="640")
        code, out, err = run_cli(capsys, *args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert (code, out) == (exit_code, "")


def test_oracle_on_a_vertex_file_at_a_huge_k_is_quick(capsys, tmp_path):
    """exp_k of a vertex-only file is its one level at every k, and the
    oracle's subset count at a level of m simplices stops at min(k, m), so
    k = 10^9 passes at once."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"generators": [["v"]]}))
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "oracle", "--file", str(path),
                           "--k", "1000000000")
    assert time.perf_counter() - started < 0.5
    assert code == 0
    payload = json.loads(out)
    assert (payload["verdict"], payload["cells_enumerated"]) == ("pass", 1)


def test_homology_on_a_vertex_file_at_a_huge_k_is_quick(tmp_path):
    """homology's f-vector of exp_k S sums C(m, j) over j <= min(k, m) at a
    level of m simplices, so on a vertex-only file k = 10^12 returns at
    once: the discrete points' nonempty subsets.  A sum over every j <= k
    took about 4 s per 10^7 of k, and the child's timeout stops it."""
    for names, count in [(["v"], 1), (["a", "b", "c"], 7)]:
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"generators": [names]}))
        proc = run_cli_child("homology", "--file", str(path),
                             "--k", str(10 ** 12), "--seed", "0", timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        payload = json.loads(proc.stdout)
        assert (payload["f_vector"], payload["betti"], payload["euler"],
                payload["cells_enumerated"]) == ([count], [count], count,
                                                 count)


def test_circle_over_the_cap_is_refused_before_it_is_built(capsys):
    """A circle:V whose V vertices alone exceed the cap gets build_expk's
    level-0 sizing report without being built, from every subcommand that
    takes --space; circle:300000 used to spend about 3 s in the parser
    first, and verify lemma1 minutes in its covers.  parse_space itself
    applies the same default cap."""
    report = {"level": 0, "level_size": 300_000, "projected_cells": 300_000,
              "cap": 200_000}
    # first: without the parser's cap, the CLI calls below differ only in
    # time, and verify lemma1 runs for minutes once the others beat 0.5 s
    with pytest.raises(ResourceCapError) as parsed:
        parse_space("circle:300000")
    assert parsed.value.report == report
    for argv in (["homology"], ["verify", "oracle", "--level", "0"],
                 ["verify", "lemma1"]):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--space", "circle:300000",
                                 "--k", "1")
        assert time.perf_counter() - started < 0.5, argv
        assert (code, out) == (3, ""), argv
        assert json.loads(err) == {"error": "resource-cap", **report}
    for k in (1, 2, 3):
        with pytest.raises(ResourceCapError) as built:
            build_expk(subdivided_circle(7), k, max_cells=6)
        for argv in (["homology"], ["verify", "invariance"]):
            code, out, err = run_cli(capsys, *argv, "--space", "circle:7",
                                     "--k", str(k), "--max-cells", "6")
            assert (code, out) == (3, "")
            assert json.loads(err) == {"error": "resource-cap",
                                       **built.value.report}


def test_sphere_summand_over_the_cap_is_refused_before_it_is_built(capsys):
    """An m-sphere summand whose m + 1 faces exceed the cap is refused
    unbuilt with a level-m sizing report; s99999999999 used to end in a
    MemoryError traceback while its faces were built."""
    m = 99_999_999_999
    for argv in (["homology", "--space", f"s{m}"],
                 ["verify", "theorem1", "--space", f"wedge:1,{m}"]):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--k", "1")
        assert time.perf_counter() - started < 0.5, argv
        assert (code, out) == (3, ""), argv
        assert json.loads(err) == {
            "error": "resource-cap", "level": m, "level_size": m + 1,
            "projected_cells": m + 1, "cap": 200_000}
    code, out, err = run_cli(capsys, "homology", "--space", "wedge:1,2",
                             "--k", "1", "--max-cells", "2")
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "resource-cap", "level": 2,
                               "level_size": 3, "projected_cells": 3,
                               "cap": 2}
    code, out, _ = run_cli(capsys, "homology", "--space", "s2", "--k", "1",
                           "--max-cells", "3")
    assert code == 0 and json.loads(out)["f_vector"] == [1, 0, 1]


def test_a_summand_too_large_to_build_exits_3(capsys, monkeypatch):
    """A summand under a cap raised past its size can still be too large
    to build: its face word 1 << (m - 1) overflows, or memory runs out.
    Either ends in exit 3 with one line on stderr, not a traceback."""
    code, out, err = run_cli(capsys, "homology", "--space",
                             "s100000000000000000000", "--k", "1",
                             "--max-cells", "1" + "0" * 30)
    assert (code, out, err) == (3, "", "error: out of memory\n")

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "expk_homology", exhausted)
    code, out, err = run_cli(capsys, "homology", "--space", "s1", "--k", "2")
    assert (code, out, err) == (3, "", "error: out of memory\n")


@pytest.mark.parametrize("unbuffered", ["1", ""],
                         ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_141_in_silence(unbuffered):
    """A reader that closed stdout before the CLI writes is no parse error:
    the CLI exits 141, a shell's status for a writer that SIGPIPE ends,
    with nothing on stderr, whether its stdout is buffered or not (an
    empty PYTHONUNBUFFERED leaves it buffered)."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_cli_child("homology", "--space", "s2", "--k", "3",
                             stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_env_var_does_not_set_the_cap(capsys, monkeypatch):
    # the cap comes only from --max-cells (test_resource_cap_exit_code)
    monkeypatch.setenv("SUBSETSPACE_MAX_CELLS", "4")
    code, _, _ = run_cli(capsys, "homology", "--space", "s1", "--k", "3")
    assert code == 0


@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch,
                                                  collecting):
    # main pauses the cyclic collector for the call, on every way out
    monkeypatch.setattr(cli, "edgewise_subdivision",
                        lambda S, max_cells: wedge((1, 1)))
    calls = [(0, ["homology", "--space", "s1", "--k", "2"]),
             (1, ["verify", "invariance", "--space", "s1", "--k", "2"]),
             (2, ["homology", "--space", "bogus", "--k", "2"]),
             (3, ["homology", "--space", "s1", "--k", "3",
                  "--max-cells", "4"])]
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        (gc.enable if collecting else gc.disable)()
        for code, argv in calls:
            assert run_cli(capsys, *argv)[0] == code
            assert gc.isenabled() is collecting
            assert gc.get_freeze_count() == frozen
        with pytest.raises(SystemExit):
            main(["homology", "--k", "two"])
        assert gc.isenabled() is collecting
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


def test_run_freezes_start_up_and_is_the_installed_script(capsys):
    """cli.run, the process entry, is main on sys.argv after gc.freeze(),
    so the collection at interpreter exit skips what start-up made; main
    itself freezes nothing (test_main_leaves_the_collector_as_it_found_it).
    pyproject.toml installs run as the subsetspace command."""
    argv = ["homology", "--space", "s1", "--k", "2", "--seed", "0"]
    code = ("import gc, sys; from subsetspace import cli; "
            f"sys.argv = ['subsetspace', *{argv!r}]; status = cli.run(); "
            "print(status, gc.get_freeze_count() > 0)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    *out, last = proc.stdout.splitlines()
    assert last == "0 True"
    assert run_cli(capsys, *argv)[1].splitlines() == out
    scripts = re.search(r"^\[project\.scripts\]\n(.*)$",
                        (ROOT / "pyproject.toml").read_text(), re.M)
    assert scripts.group(1) == 'subsetspace = "subsetspace.cli:run"'


def test_seeded_runs_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "theorem1", "--space",
                               "wedge:1,1", "--k", "2", "--seed", "42")
        assert code == 0
        outs.append(out.encode())
    assert outs[0] == outs[1]


def test_csv_and_text_formats(capsys):
    code, out, _ = run_cli(capsys, "homology", "--space", "s2", "--k", "1",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "degree,f,betti,torsion"
    code, out, _ = run_cli(capsys, "homology", "--space", "s2", "--k", "1",
                           "--format", "text")
    assert code == 0
    assert "betti" in out


def test_file_ingestion(capsys, tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({
        "generators": [["v"], ["e"]],
        "faces": {"e": ["v", "v"]},
    }))
    code, out, _ = run_cli(capsys, "homology", "--file", str(path),
                           "--k", "2")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 1, 0]


def test_file_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, _ = run_cli(capsys, "homology", "--file", str(path),
                           "--k", "1")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("data", [
    {"generators": [[1]]},
    {"generators": "vv"},
    {"generators": [[], []]},
    {"generators": [["v"], ["e"]], "faces": []},
    {"generators": [["v"], ["e"]], "faces": {"e": "vv"}},
    # d_0 d_1 t = u but d_0 d_0 t = v: breaks d_0 d_1 = d_0 d_0
    {"generators": [["u", "v"], ["a", "b"], ["t"]],
     "faces": {"a": ["u", "u"], "b": ["v", "v"], "t": ["a", "b", "a"]}},
    # nested past the decoder's recursion limit
    "[" * 100_000,
], ids=["non-string-name", "string-generators", "no-generators",
        "list-faces", "string-face-list", "broken-identity", "deep-nesting"])
def test_malformed_file_is_parse_error(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, out, err = run_cli(capsys, "homology", "--file", str(path),
                             "--k", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("data, message", [
    ({"generators": [["a", "b"], ["e"]], "faces": {"e": ["a"]}},
     "generator 'e': dimension 1 needs 2 faces"),
    ({"generators": [["v"], [], ["c"]],
      "faces": {"c": ["v", "s_0 v", "s_0 v"]}},
     "generator 'c': face dimension mismatch"),
    ({"generators": [["v"], ["e"]], "faces": {"v": ["e"], "e": ["v", "v"]}},
     "generator 'v': vertices have no faces"),
    ({"generators": [["v"], ["x y"], ["t"]],
      "faces": {"x y": ["v", "v"], "t": ["x y", "x y", "x y"]}},
     "generator name 'x y' is not one token"),
    ({"generators": [["v"], [""], ["t"]],
      "faces": {"": ["v", "v"], "t": ["", "", ""]}},
     "generator name '' is not one token"),
    ({"generators": [["v"], [" v"], ["t"]],
      "faces": {" v": ["v", "v"], "t": [" v", " v", " v"]}},
     "generator name ' v' is not one token"),
    ({"generators": [["v", "x y"]]}, "generator name 'x y' is not one token"),
], ids=["face-count", "face-dimension", "vertex-faces", "spaced-name",
        "empty-name", "leading-space-name", "unreferenced-spaced-name"])
def test_a_refused_face_table_names_its_generator(capsys, tmp_path, data,
                                                  message):
    """A face table that set_faces refuses is named by its name in the
    file, never by the generator's internal id.  A face expression splits
    on whitespace, so a name that is empty or holds whitespace could never
    be spelled in one: it is refused where it is declared, even when no
    face table refers to it."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "homology", "--file", str(path),
                             "--k", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Well-formed face tables the fuzzer mutates: a point, a circle, the minimal
# 2-sphere, a two-vertex circle and the standard 2-simplex.
_FUZZ_SEEDS = [
    {"generators": [["v"]]},
    {"generators": [["v"], ["e"]], "faces": {"e": ["v", "v"]}},
    {"generators": [["v"], [], ["c"]],
     "faces": {"c": ["s_0 v", "s_0 v", "s_0 v"]}},
    {"generators": [["a", "b"], ["x", "y"]],
     "faces": {"x": ["b", "a"], "y": ["a", "b"]}},
    {"generators": [["p", "q", "r"], ["pq", "pr", "qr"], ["t"]],
     "faces": {"pq": ["q", "p"], "pr": ["r", "p"], "qr": ["r", "q"],
               "t": ["qr", "pr", "pq"]}},
]
_JUNK = [None, 0, -1, 2.5, True, "", "v", [], [[]], [1], {}, {"v": "v"}]
_BAD_WORDS = ["s_0 s_0 v", "s_0 s_1 v", "s_9 v", "s_-1 v", "s0 v", "s_x v",
              "s_0", "", "  ", "nobody", "s_1 s_0 p", "s_0 e", "s_0 pq"]


def _mutate(doc, rng):
    """One random malformation: a wrong type, a missing key, a bad
    degeneracy word, a face list of the wrong length, a face table for a
    vertex or an unknown name, or a face that breaks the simplicial
    identities."""
    if not isinstance(doc, dict) or rng.random() < 0.05:
        return rng.choice(_JUNK)
    doc = dict(doc)
    gens, faces = doc.get("generators"), doc.get("faces")
    names = [n for level in gens if isinstance(level, list)
             for n in level if isinstance(n, str)] \
        if isinstance(gens, list) else []
    kind = rng.randrange(6)
    if kind == 0:
        if rng.random() < 0.5:
            doc.pop(rng.choice(["generators", "faces"]), None)
        else:
            doc[rng.choice(["generators", "faces"])] = rng.choice(_JUNK)
    elif kind == 1 and isinstance(gens, list) and gens:
        gens = list(gens)
        i = rng.randrange(len(gens))
        gens[i] = rng.choice([rng.choice(_JUNK), gens[i] + gens[i],
                              [rng.choice(_JUNK)], []])
        doc["generators"] = gens
    elif isinstance(faces, dict) and faces:
        faces = dict(faces)
        name = rng.choice(sorted(faces))
        if kind == 3:  # the longest face list has identities to break
            name = max(sorted(faces), key=lambda n: len(faces[n])
                       if isinstance(faces[n], list) else 0)
        exprs = list(faces[name]) if isinstance(faces[name], list) else []
        if kind == 2 and exprs:
            exprs[rng.randrange(len(exprs))] = rng.choice(_BAD_WORDS)
        elif kind == 3 and len(exprs) > 1:
            # swapped faces keep dimensions but break d_i d_j identities
            i, j = rng.sample(range(len(exprs)), 2)
            exprs[i], exprs[j] = exprs[j], exprs[i]
        elif kind == 4 and exprs and names:
            exprs[rng.randrange(len(exprs))] = rng.choice(names)
        elif kind == 5:
            exprs = exprs[:-1] if rng.random() < 0.5 else exprs + exprs[:1]
        faces[name] = exprs
        if names and rng.random() < 0.1:
            faces[rng.choice(names + ["nobody"])] = exprs
        doc["faces"] = faces
    return doc


def test_file_fuzz_never_tracebacks(capsys, tmp_path):
    """Seeded malformed --file inputs end in a result or a clean exit 2/3."""
    rng = random.Random(4242)
    path = tmp_path / "fuzz.json"
    commands = [["homology"], ["verify", "lemma1"],
                ["verify", "oracle", "--level", "1"], ["verify", "oracle"],
                ["verify", "invariance"]]
    for _ in range(300):
        doc = rng.choice(_FUZZ_SEEDS)
        for _ in range(rng.randint(1, 2)):
            doc = _mutate(doc, rng)
        path.write_text(json.dumps(doc))
        argv = rng.choice(commands) + [
            "--file", str(path), "--k", str(rng.randint(1, 3)),
            "--max-cells", "5000"]
        try:
            code, _, err = run_cli(capsys, *argv)
        except Exception as exc:  # the CLI would print a traceback
            pytest.fail(f"{argv[:2]} on {doc!r} raised {exc!r}")
        assert code in (0, 2, 3), (argv[:2], doc)
        assert "Traceback" not in err
