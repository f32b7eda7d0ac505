import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cubiclat
from cubiclat.cli import main

import oracles

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


@pytest.mark.parametrize("seed, n", [(220, 20), (324, 24)])
def test_discgroup_with_huge_smith_transform(capsys, seed, n):
    # these Gram matrices once made `lat discgroup` print a generator
    # numerator past Python's 4,300-digit str limit and crash with exit 1
    gram = json.dumps(oracles.seeded_even_gram(seed, n))
    code, out, err = run(capsys, "lat", "discgroup", "--gram", gram, "--output", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["orders"]


def test_milgram_command(capsys):
    code, out, _ = run(
        capsys, "lat", "milgram", "--gram", "[[2,0],[0,6]]", "--output", "json"
    )
    assert code == 0
    assert json.loads(out)["result"]["residue"] == 2


def test_milgram_command_cross_checks_the_signature(capsys, monkeypatch):
    monkeypatch.setattr(cubiclat.discgroup, "milgram_signature", lambda form: 3)
    code, out, err = run(capsys, "lat", "milgram", "--gram", "[[2,0],[0,6]]")
    assert code == 1
    assert out == ""
    assert err == "internal error: Milgram residue 3 but signature 2 - 0\n"


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
        ["detrep", "det", "--matrix", json.dumps({"size": 8, "field": "Q", "entries": [["0"] * 8] * 8})],
    ],
)
def test_bad_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# JSON arguments for the fuzz test: well-formed symmetric Gram matrices of
# rank <= 3 with |entries| <= 20 (so every Gauss sum stays small), integer
# vectors, and arbitrary JSON of mixed types and shapes in their place
INT = st.integers(-20, 20)
JUNK = st.recursive(
    st.one_of(INT, st.floats(-20, 20), st.booleans(), st.text(max_size=3), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["gram", "h2", "p", "x"]), inner, max_size=3)
    ),
    max_leaves=8,
)


@st.composite
def grams(draw):
    n = draw(st.integers(1, 3))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(INT)
    return g


# the two frozen lattices and a marking reach the deeper code paths
GRAM = st.one_of(
    grams(),
    st.sampled_from([json.loads(A_EXE_TEXT), json.loads(MARKED_369)["gram"]]),
    grams().map(lambda g: {"gram": g}),
    JUNK,
)
VECTOR = st.one_of(st.lists(INT, min_size=1, max_size=3), st.just([1, 0, 0]), JUNK)
VECTORS = st.one_of(st.lists(st.lists(INT, min_size=1, max_size=3), max_size=3), JUNK)
MARKED = st.one_of(
    st.fixed_dictionaries({"gram": GRAM, "h2": VECTOR, "p": VECTOR}), st.just(json.loads(MARKED_369)), JUNK
)


def _flag(name, values):
    return values.map(lambda v: [f"--{name}={json.dumps(v)}"])


LAT = ("disc", "sig", "even", "discgroup", "milgram")
ARGV = st.one_of(
    st.tuples(st.just(["lat"]), st.sampled_from(LAT).map(lambda c: [c]), _flag("gram", GRAM)),
    st.tuples(st.just(["lat", "complement"]), _flag("gram", GRAM), _flag("vectors", VECTORS)),
    st.tuples(st.just(["lat", "index"]), _flag("gram", GRAM), _flag("basis", VECTORS)),
    st.tuples(st.just(["enum", "norm"]), _flag("gram", GRAM), _flag("norm", st.integers(-5, 40))),
    st.tuples(st.just(["fourfold", "mayanskiy"]), _flag("gram", GRAM), _flag("a", VECTOR)),
    st.tuples(st.just(["fourfold", "pfaffian"]), _flag("marked", MARKED)),
    st.tuples(st.just(["fourfold", "delta"]), _flag("marked", MARKED), _flag("t", VECTOR)),
    st.tuples(
        st.just(["detrep", "smoothcurve"]),
        st.text("X012^*+-/ 56789", max_size=12).map(lambda t: [f"--form={t}"]),
        st.one_of(st.integers(-2, 12), st.sampled_from([317, 2**31 - 1])).map(lambda p: [f"-p={p}"]),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(ARGV)
def test_cli_fuzz_exits_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


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
