import json

import pytest

from subsetspace.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_homology_figure_eight(capsys):
    code, out, _ = run_cli(capsys, "homology", "--space", "wedge:1,1",
                           "--k", "1")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 2]


def test_homology_two_sphere(capsys):
    code, out, _ = run_cli(capsys, "homology", "--space", "s2", "--k", "1")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 0, 1]


def test_verify_theorem1(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem1", "--space",
                           "wedge:1,1", "--k", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify", "oracle", "--space", "s1",
                           "--k", "2", "--level", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["cells_enumerated"] == 3


def test_verify_tuffley(capsys):
    code, out, _ = run_cli(capsys, "verify", "tuffley", "--space", "s1",
                           "--k", "4")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_invariance(capsys):
    code, out, _ = run_cli(capsys, "verify", "invariance", "--space", "s1",
                           "--k", "2")
    assert code == 0


def test_verify_lemma1(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma1", "--space",
                           "wedge:1,1", "--k", "2", "--seed", "5")
    assert code == 0


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "homology", "--space", "bogus",
                             "--k", "2")
    assert code == 2
    assert out == ""  # no partial JSON on error paths
    assert "bogus" in err


def test_missing_space_is_parse_error(capsys):
    code, _, _ = run_cli(capsys, "homology", "--k", "2")
    assert code == 2


def test_resource_cap_exit_code(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "homology", "--space", "s1", "--k", "3",
                             "--max-cells", "4")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "resource-cap"


def test_env_var_overrides_cap(capsys, monkeypatch):
    monkeypatch.setenv("SUBSETSPACE_MAX_CELLS", "4")
    code, _, err = run_cli(capsys, "homology", "--space", "s1", "--k", "3")
    assert code == 3
    monkeypatch.setenv("SUBSETSPACE_MAX_CELLS", "100000")
    code, _, _ = run_cli(capsys, "homology", "--space", "s1", "--k", "3")
    assert code == 0


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
    {"generators": [["v"], ["e"]], "faces": []},
    {"generators": [["v"], ["e"]], "faces": {"e": "vv"}},
    # d_0 d_1 t = u but d_0 d_0 t = v: breaks d_0 d_1 = d_0 d_0
    {"generators": [["u", "v"], ["a", "b"], ["t"]],
     "faces": {"a": ["u", "u"], "b": ["v", "v"], "t": ["a", "b", "a"]}},
], ids=["non-string-name", "string-generators", "list-faces",
        "string-face-list", "broken-identity"])
def test_malformed_file_is_parse_error(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "homology", "--file", str(path),
                             "--k", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
