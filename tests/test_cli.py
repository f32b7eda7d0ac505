import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubiclat
from cubiclat.cli import main

A_EXE_TEXT = "[[3,1,4],[1,3,4],[4,4,12]]"
MARKED_369 = json.dumps(
    {"gram": [[3, 1, 4], [1, 3, 2], [4, 2, 10]], "h2": [1, 0, 0], "p": [0, 1, 0]}
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_disc_human(capsys):
    code, out, err = run(capsys, "lat", "disc", "--gram", "[[0,1],[1,0]]")
    assert code == 0
    assert out.strip() == "-1"
    assert err == ""


def test_disc_json_envelope(capsys):
    code, out, _ = run(
        capsys, "lat", "disc", "--gram", A_EXE_TEXT, "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "inputs", "result", "citations"}
    assert payload["command"] == "lat disc"
    assert payload["result"] == 32
    assert payload["citations"]


def test_file_and_inline_agree(tmp_path, capsys):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"gram": [[3, 1, 4], [1, 3, 4], [4, 4, 12]]}))
    code1, out1, _ = run(capsys, "lat", "discgroup", "--gram", A_EXE_TEXT)
    code2, out2, _ = run(capsys, "lat", "discgroup", "--file", str(path))
    assert code1 == code2 == 0
    assert out1 == out2


def test_both_inputs_rejected(tmp_path, capsys):
    path = tmp_path / "lat.json"
    path.write_text(A_EXE_TEXT)
    code, out, err = run(
        capsys, "lat", "disc", "--gram", A_EXE_TEXT, "--file", str(path)
    )
    assert code == 2
    assert "exactly one" in err


def test_missing_input_rejected(capsys):
    code, _, err = run(capsys, "lat", "disc")
    assert code == 2
    assert err


def test_precondition_exit_code(capsys):
    code, _, err = run(capsys, "lat", "disc", "--gram", "[[0,1],[2,0]]")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "lat", "milgram", "--gram", "[[3]]")
    assert code == 2


def test_bad_json_exit_code(capsys):
    code, _, err = run(capsys, "lat", "disc", "--gram", "oops")
    assert code == 2


def test_complement_command(capsys):
    code, out, _ = run(
        capsys,
        "lat",
        "complement",
        "--gram",
        A_EXE_TEXT,
        "--vectors",
        "[[1,0,0]]",
        "--output",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["gram"] == [[24, -24], [-24, 28]]


def test_milgram_command(capsys):
    code, out, _ = run(
        capsys, "lat", "milgram", "--gram", "[[2,0],[0,6]]", "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["result"]["residue"] == 2


def test_enum_norm_and_jsonl(capsys):
    code, out, _ = run(
        capsys, "enum", "norm", "--gram", "[[2,1],[1,2]]", "--norm", "2"
    )
    assert code == 0
    assert out.splitlines()[0] == "3 vector(s)"
    code, out, _ = run(
        capsys, "enum", "norm", "--gram", "[[2,1],[1,2]]", "--norm", "2", "--jsonl"
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [[0, 1], [1, -1], [1, 0]]
    # a large norm on a rank-2 form stays within the node budget
    code, out, _ = run(capsys, "enum", "norm", "--gram", "[[1,0],[0,1]]", "--norm", "100000000")
    assert code == 0
    assert out.splitlines()[0] == "18 vector(s)"


def test_enum_isotropic(capsys):
    code, out, _ = run(
        capsys, "enum", "isotropic", "--gram", "[[0,3],[3,4]]", "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["result"] == {"exists": True, "witness": [1, 0]}


def test_fourfold_commands(capsys):
    code, out, _ = run(
        capsys, "fourfold", "trivrat", "--marked", MARKED_369, "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["result"] is False

    code, out, _ = run(
        capsys, "fourfold", "delta", "--marked", MARKED_369, "--t", "[0,0,1]"
    )
    assert code == 0
    assert out.strip() == "2"

    code, out, _ = run(capsys, "fourfold", "formula", "-a", "1", "-b", "2", "-c", "3")
    assert code == 0
    assert "odd" in out

    code, out, _ = run(
        capsys, "fourfold", "nsax", "--dns", "-9", "--epsilon", "2"
    )
    assert code == 0
    assert out.strip() == "36"

    code, out, _ = run(capsys, "fourfold", "family", "-d", "0", "-c", "1")
    assert code == 2

    code, out, _ = run(
        capsys,
        "fourfold",
        "mayanskiy",
        "--gram",
        A_EXE_TEXT,
        "--a",
        "[1,0,0]",
        "--output",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["all_pass"] is True
    assert payload["inputs"]["variant"] == "against-A0"

    code, out, _ = run(
        capsys, "fourfold", "pfaffian", "--marked", MARKED_369, "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["result"]["obstructed"] is False


def test_detrep_pipeline(capsys):
    matrix = json.dumps(
        {
            "size": 4,
            "field": "Q",
            "entries": [
                ["X0", "0", "0", "0"],
                ["0", "X1", "0", "0"],
                ["0", "0", "X2", "0"],
                ["0", "0", "0", "X0^3"],
            ],
        }
    )
    code, out, _ = run(capsys, "detrep", "det", "--matrix", matrix)
    assert code == 0
    assert out.strip() == "X0^4*X1*X2"

    code, out, _ = run(capsys, "detrep", "build", "--matrix", matrix)
    assert code == 0
    cubic = out.strip()
    assert cubic == "Z1^2*X0+Z2^2*X1+Z3^2*X2+X0^3"

    code, out, _ = run(
        capsys, "detrep", "gram", "--cubic", cubic, "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["result"]["entries"][0][0] == "X0"

    code, out, _ = run(capsys, "detrep", "disccurve", "--matrix", matrix)
    assert code == 0
    assert out.strip() == "X0^4*X1*X2"

    code, out, _ = run(
        capsys,
        "detrep",
        "smoothcurve",
        "--form",
        "X0^2*X1^2*X2^2",
        "-p",
        "7",
        "--output",
        "json",
    )
    assert code == 0
    assert json.loads(out)["result"]["witness"] == [1, 0, 0]

    code, _, err = run(
        capsys, "detrep", "smoothfourfold", "--cubic", "Z1^3", "-p", "11"
    )
    assert code == 2
    assert "cap" in err


def test_repro_suites_pass_and_are_deterministic(capsys):
    for name in ("exe", "p369", "mainteo"):
        code, out1, _ = run(capsys, "repro", name, "--output", "json")
        assert code == 0
        code, out2, _ = run(capsys, "repro", name, "--output", "json")
        assert code == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["result"]["all_pass"] is True
        assert payload["citations"]


MARKED_FLOAT_H2 = json.dumps(
    {"gram": [[3, 1, 4], [1, 3, 2], [4, 2, 10]], "h2": [1.5, 0, 0], "p": [0, 1, 0]}
)


@pytest.mark.parametrize(
    "argv",
    [
        ["detrep", "gram", "--cubic", "Z1^2*X0", "--field", "Fp:abc"],
        ["detrep", "gram", "--cubic", "Z1^2*X0", "--field", "GF7"],
        ["lat", "disc", "--gram", "[[1.5,0],[0,1]]"],
        ["lat", "disc", "--gram", '[["a"]]'],
        ["lat", "disc", "--gram", "[1,2]"],
        ["lat", "complement", "--gram", "[[2,0],[0,2]]", "--vectors", "[[0.5,0]]"],
        ["lat", "index", "--gram", "[[2,0],[0,2]]", "--basis", "5"],
        ["fourfold", "trivrat", "--marked", MARKED_FLOAT_H2],
        ["fourfold", "mayanskiy", "--gram", A_EXE_TEXT, "--a", "[1.5,0,0]"],
        ["fourfold", "mayanskiy", "--gram", A_EXE_TEXT, "--a", "[true,0,0]"],
        ["fourfold", "delta", "--marked", MARKED_369, "--t", "[1.9,0,0]"],
        ["fourfold", "delta", "--marked", MARKED_369, "--t", '["x"]'],
        ["detrep", "det", "--matrix", '{"size":4,"field":"Q"}'],
        ["detrep", "disccurve", "--matrix", "{}"],
        ["detrep", "det", "--matrix", '{"size":"1","field":"Q","entries":[["X0^3"]]}'],
        ["detrep", "det", "--matrix", '{"size":1,"field":"Q","entries":[[7]]}'],
        ["detrep", "det", "--matrix", '{"size":1,"field":"GF7","entries":[["X0^3"]]}'],
        ["enum", "norm", "--gram", "[[1,0,0],[0,1,0],[0,0,1]]", "--norm", "1000000000000"],
    ],
)
def test_bad_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_console_script_entry_point():
    # the child imports the same cubiclat as this test, installed or not
    package_root = str(Path(cubiclat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cubiclat", "lat", "disc", "--gram", "[[0,1],[1,0]]"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-1"


def test_no_subcommand_usage_error(capsys):
    code, _, err = run(capsys, "lat")
    assert code == 2
