import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import quiddity
from quiddity import surgery
from quiddity.cli import EXIT_CLOSED_STDOUT, main
from quiddity.dissection import faces, from_certificate
from quiddity.frieze import frieze, render_text
from quiddity.matrices import IDENTITY, NEG_IDENTITY, Mat2
from quiddity.psl2 import element_index, element_quiddity, reduced_decomposition
from quiddity.surgery import ReductionCertificate, classify, reduce_word


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_solution(capsys):
    code, out, _ = run(capsys, "verify", "1,1,2,1,1")
    assert code == 0
    assert "Problem III" in out
    assert "rotation index: 3/2" in out


def test_verify_non_solution(capsys):
    code, out, _ = run(capsys, "verify", "2,2")
    assert code == 1
    assert "not a solution" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "II"
    assert doc["S"] == 0 and doc["R"] == 0
    assert doc["sum"] == doc["sum_expected"] == 3
    # the sum falls 6 below the sum bound per type-2 step, in every class
    for word, cls in (("1,1,1,1,1,1", "I"), ("1,1,2,1,1", "III"), ("1,1,1,1,1,1,1,1,1", "II")):
        doc = json.loads(run(capsys, "--format", "json", "verify", word)[1])
        assert (doc["class"], doc["sum"]) == (cls, doc["sum_expected"])
        assert doc["R"] >= 1


def test_verify_bad_word(capsys):
    code, _, err = run(capsys, "verify", "1,x,3")
    assert code == 2
    assert "cannot parse" in err


@pytest.mark.parametrize("argv", [
    ["verify", "1,0,3"],
    ["dissect", "1,-2,3"],
    ["frieze", "1,0,3"],
], ids=["verify-zero", "dissect-negative", "frieze-zero"])
def test_entries_below_one_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "positive integers" in err


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--problem", "1", "--n", "8", "--count")
    assert (code, out.strip()) == (0, "34")


def test_enumerate_words(capsys):
    code, out, _ = run(capsys, "enumerate", "--problem", "II", "--n", "4")
    assert code == 0
    assert sorted(out.split()) == ["1,2,1,2", "2,1,2,1"]


def test_enumerate_engines_agree(capsys):
    code, out, _ = run(capsys, "enumerate", "--problem", "3", "--n", "5",
                       "--count", "--engine", "both")
    assert (code, out.strip()) == (0, "75")


def test_enumerate_orbits(capsys):
    code, out, _ = run(capsys, "enumerate", "--problem", "I", "--n", "7",
                       "--count", "--orbits", "dihedral")
    assert (code, out.strip()) == (0, "1")


def test_enumerate_budget_exceeded(capsys):
    code, _, err = run(capsys, "enumerate", "--problem", "2", "--n", "20", "--count")
    assert code == 3
    assert "budget" in err.lower() or "ceiling" in err.lower()


def test_enumerate_bad_budget_variable(capsys, monkeypatch):
    monkeypatch.setenv("QUIDDITY_BUDGET", "abc")
    code, out, err = run(capsys, "enumerate", "--problem", "II", "--n", "5", "--count")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "QUIDDITY_BUDGET" in lines[0] and "'abc'" in lines[0]


def test_dissect_json(capsys):
    code, out, _ = run(capsys, "dissect", "1,3,1,2,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["quiddity"] == [1, 3, 1, 2, 2]
    assert sorted(map(tuple, doc["diagonals"])) == [(1, 3), (1, 4)]


@pytest.mark.parametrize("word, line", [
    # Problem I; its third step splits (2, 2) at a vertex with two diagonals
    ('1,2,1,2,1,2,2,1,3',
     '{"diagonals": [[1, 8], [3, 5], [6, 8]], "faces": [[0, 1, 8], [1, 2, 3, 5, 6, 8], [3, 4, 5], [6, 7, 8]], "n": 9, "quiddity": [1, 2, 1, 2, 1, 2, 2, 1, 3]}'),
    # the first word reflected and rotated; its certificate shifts otherwise
    ('2,1,3,1,2,2,1,2,1',
     '{"diagonals": [[0, 2], [2, 4], [5, 7]], "faces": [[0, 1, 2], [0, 2, 4, 5, 7, 8], [2, 3, 4], [5, 6, 7]], "n": 9, "quiddity": [2, 1, 3, 1, 2, 2, 1, 2, 1]}'),
    # Problem II; splits (2, 2) and then (3, 1) at vertices with diagonals
    ('1,1,1,1,2,1,2,1,2,2,1,3',
     '{"diagonals": [[4, 11], [6, 8], [9, 11]], "faces": [[0, 1, 2, 3, 4, 11], [4, 5, 6, 8, 9, 11], [6, 7, 8], [9, 10, 11]], "n": 12, "quiddity": [1, 1, 1, 1, 2, 1, 2, 1, 2, 2, 1, 3]}'),
    # Problem III: the first split moves the diameter of the base (2, 1)
    ('2,1,2,1,2,1',
     '{"diagonals": [[0, 2], [4, 10], [6, 8]], "faces": [[0, 1, 2], [0, 2, 3, 4, 10, 11], [4, 5, 6, 8, 9, 10], [6, 7, 8]], "n": 12, "quiddity": [2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1]}'),
    # Problem III from the other base
    ('1,2,1,2,1,2',
     '{"diagonals": [[1, 11], [3, 9], [5, 7]], "faces": [[0, 1, 11], [1, 2, 3, 9, 10, 11], [3, 4, 5, 7, 8, 9], [5, 6, 7]], "n": 12, "quiddity": [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]}'),
])
def test_dissect_json_bytes(capsys, word, line):
    # each word has more than one dissection (3 centrally symmetric ones
    # for the Problem III words); the bytes pin the one that replaying
    # the word's reduction certificate builds
    code, out, _ = run(capsys, "--format", "json", "dissect", word)
    assert code == 0
    assert out == line + "\n"


def test_dissect_all(capsys):
    code, out, _ = run(capsys, "dissect", "2,1,2,1,2,1,2,1", "--all")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


@pytest.mark.parametrize("word, diagonal_sets", [
    ("1,2", [[[1, 3]]]),
    ("1,2,3", [[[1, 5], [2, 4], [2, 5]]]),
    # 5 dissections of the 12-gon have quiddity w + w; 3 are centrally symmetric
    ("1,2,1,2,1,2", [[[1, 11], [3, 9], [5, 7]], [[1, 3], [5, 11], [7, 9]],
                     [[1, 7], [3, 5], [9, 11]]]),
])
def test_dissect_all_trace_zero(capsys, word, diagonal_sets):
    # a Problem III word is carried by centrally symmetric 2n-gon dissections
    code, out, _ = run(capsys, "dissect", word, "--all")
    assert code == 0
    n = 2 * len(word.split(","))
    assert [json.loads(line) for line in out.splitlines()] == [
        {"n": n, "diagonals": diagonals} for diagonals in diagonal_sets]


def test_dissect_all_trace_zero_budget(capsys):
    # the budget is checked against the 2n-gon that is searched
    code, _, err = run(capsys, "dissect", "1,1,2,1,1,1,1,1", "--all", "--budget", "15")
    assert code == 3
    assert err.startswith("error:")


def test_dissect_render_dot(capsys):
    code, out, _ = run(capsys, "dissect", "1,3,1,2,2", "--render", "dot")
    assert code == 0
    assert out.startswith("graph")


def test_dissect_render_svg(capsys):
    code, out, _ = run(capsys, "dissect", "1,3,1,2,2", "--render", "svg")
    assert code == 0
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400"')
    assert out.endswith("</svg>\n")
    # the pentagon and its two diagonals (1, 3) and (1, 4)
    assert out.count("<polygon ") == 1
    assert out.count("<line ") == 2
    assert out.count("<text ") == 5


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("render", ["dot", "svg"])
def test_dissect_all_refuses_a_drawing(capsys, monkeypatch, fmt, render):
    # --all lists dissections as JSON, so --render dot|svg is refused
    # before the word is classified or searched
    def unreachable(*args):
        raise AssertionError("classified")

    monkeypatch.setattr("quiddity.cli.classify", unreachable)
    code, out, err = run(capsys, "--format", fmt, "dissect", "1,1,1", "--all", "--render", render)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"--render {render}" in err


def test_dissect_non_solution(capsys):
    code, _, _ = run(capsys, "dissect", "3,3,3")
    assert code == 1


def test_frieze_text(capsys):
    code, out, _ = run(capsys, "frieze", "1,1,2,1,1")
    assert code == 0
    assert "tame: True" in out
    assert "glide symmetric: True" in out
    assert len(out.strip().splitlines()) == 11  # 9 rows + 2 diagnostics


def test_frieze_text_is_render_text(capsys):
    for word, tail in (("1,1,2,1,1", "tame: True\nglide symmetric: True\n"),
                       ("1,3,1,2,2", "tame: True\n")):
        code, out, _ = run(capsys, "frieze", word)
        assert code == 0
        f = frieze(tuple(int(x) for x in word.split(",")))
        assert out == render_text(f) + "\n" + tail


def test_frieze_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "frieze", "1,3,1,2,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][2] == [2, 2, 1, 3, 1]
    assert doc["tame"] is True
    # rows past 2n - 2 only repeat with a sign flip: refused at once
    code, out, err = run(capsys, "--format", "json", "frieze", "1,2", "--rows", "100000000000")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("word, cls, reason", [
    # M = Id: a solution, but friezes come from Problems II and III
    ("1,1,1,1,1,1", "I", "a Problem I solution; friezes are built from Problem II or III solutions"),
    ("3,3,3", "none", "not a solution"),
])
def test_frieze_refused(capsys, word, cls, reason):
    entries = [int(x) for x in word.split(",")]
    code, out, _ = run(capsys, "frieze", word)
    assert (code, out) == (1, f"{tuple(entries)}: {reason}\n")
    code, out, _ = run(capsys, "--format", "json", "frieze", word)
    assert (code, out) == (1, json.dumps({"word": entries, "class": cls}, sort_keys=True) + "\n")


@pytest.mark.parametrize("argv, classifications, replays", [
    (["verify", "1,1,2,1,1"], 2, 1),
    (["verify", "2,1,2,1,1,1,1"], 2, 1),
    (["verify", "2,2"], 1, 0),
    (["dissect", "1,1,2,1,1"], 1, 1),
    (["dissect", "2,1,2,1,1,1,1"], 1, 1),
    (["dissect", "--all", "1,1,1,1,2"], 1, 1),
    (["dissect", "--all", "2,1,2,1,1,1,1"], 1, 1),
    (["decompose", "2,1,1,1"], 2, 1),
    (["frieze", "1,1,2,1,1"], 1, 0),
    (["farey", "5"], 1, 0),
], ids=["verify-III", "verify-I", "verify-none", "dissect-III", "dissect-I", "dissect-all-III",
        "dissect-all-I", "decompose", "frieze", "farey"])
def test_one_verdict_per_query(capsys, monkeypatch, argv, classifications, replays):
    # verify: reduce_word and rotation_index classify; dissect: reduce_word
    # only, also for --all, whose search of a Problem III word skips
    # symmetric_dissections' class check; decompose: rotation_index and
    # reduce_word, since the two product checks of element_quiddity's
    # decompositions already make the combined word a Problem I or II
    # solution; frieze: frieze() only; farey: cmd_farey classifies the word
    # once and hands the class to is_totally_positive's core.  The one
    # replay is reduce_word's check: classify reads the class from the
    # certificate, and from_certificate checks each step as it builds.
    calls = []
    solution_class_of = surgery.solution_class
    replay = ReductionCertificate.replay

    def counted(w):
        calls.append("solution_class")
        return solution_class_of(w)

    def counted_replay(cert):
        calls.append("replay")
        return replay(cert)

    for name, module in list(sys.modules.items()):
        in_package = name == "quiddity" or name.startswith("quiddity.")
        if in_package and getattr(module, "solution_class", None) is solution_class_of:
            monkeypatch.setattr(module, "solution_class", counted)
    monkeypatch.setattr(ReductionCertificate, "replay", counted_replay)
    code, _, _ = run(capsys, *argv)
    assert code == (1 if argv[1] == "2,2" else 0)
    assert (calls.count("solution_class"), calls.count("replay")) == (classifications, replays)


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "2,1,1,1")
    assert code == 0
    assert "reduced word: 1,1,2,2" in out
    assert "index: 1" in out


def _random_sl2(rng):
    """A product of a few S = [[0,-1],[1,0]] and T^k factors, k in -3..3."""
    m = IDENTITY
    for _ in range(rng.randint(1, 6)):
        factor = Mat2(0, -1, 1, 0) if rng.random() < 0.4 else Mat2(1, rng.randint(-3, 3), 0, 1)
        m = m * factor
    return -m if rng.random() < 0.5 else m


def test_decompose_matches_library(capsys):
    rng = random.Random(7)
    matrices = [IDENTITY, NEG_IDENTITY] + [_random_sl2(rng) for _ in range(48)]
    assert any(min(m.rows()[0] + m.rows()[1]) < 0 for m in matrices)
    for m in matrices:
        text = ",".join(str(x) for row in m.rows() for x in row)
        code, out, _ = run(capsys, "--format", "json", "decompose", "--", text)
        assert code == 0
        left, right = element_quiddity(m)
        d = from_certificate(reduce_word(left + right))
        assert json.loads(out) == {
            "matrix": m.rows(),
            "reduced": list(reduced_decomposition(m)),
            "quiddity": list(left + right),
            "index_twice": int(element_index(m) * 2),
            "dissection": d.to_json(),
            "faces": sorted(len(f) for f in faces(d)),
        }


def test_decompose_bad_det(capsys):
    code, _, err = run(capsys, "decompose", "1,2,3,4")
    assert code == 2
    assert "determinant" in err


def test_decompose_negative_first_entry(capsys):
    # argparse takes -1,0,0,-1 for an option; the error says to use --
    code, out, err = run(capsys, "decompose", "-1,0,0,-1")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "after --" in err
    code, out, _ = run(capsys, "--format", "json", "decompose", "--", "-1,0,0,-1")
    assert code == 0
    assert json.loads(out)["reduced"] == [1, 1, 1]


def test_farey(capsys):
    code, out, _ = run(capsys, "farey", "5")
    assert code == 0
    assert "4,1,2,3,1,5,1,3,2,1,4" in out
    assert "Problem II" in out
    for order in range(2, 31):
        code, out, _ = run(capsys, "--format", "json", "farey", str(order))
        doc = json.loads(out)
        assert code == 0
        assert doc["class"] == classify(tuple(doc["word"]))[0].value
    # total positivity by the sum bound keeps a 27,399-gon fast
    code, out, _ = run(capsys, "--format", "json", "farey", "300")
    doc = json.loads(out)
    assert code == 0
    assert (len(doc["word"]), doc["class"], doc["totally_positive"]) == (27399, "II", True)
    assert doc["sum"] == doc["sum_expected"] == 3 * 27399 - 6


def test_farey_bad_order(capsys):
    code, _, _ = run(capsys, "farey", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["verify"],
    ["--format", "xml", "verify", "1,1,1"],
    ["enumerate", "--problem", "IV", "--n", "3"],
], ids=["unknown-command", "missing-word", "bad-format", "bad-problem"])
def test_usage_error_from_argparse(capsys, argv):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["--format", "json", "farey", "300"],
    ["verify", "1,1,1"],
    ["--help"],
], ids=["write-fails", "flush-fails", "help"])
def test_closed_stdout_exits_quietly(argv):
    # the read end of stdout's pipe is closed before the CLI starts: farey
    # 300 prints 83 kB and fails in print; verify's few lines, and the
    # help that argparse prints, stay buffered until main flushes them
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(quiddity.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered
    try:
        r = subprocess.run([sys.executable, "-m", "quiddity.cli", *argv], stdout=write_end,
                           stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert r.returncode == EXIT_CLOSED_STDOUT == 141
    assert "Traceback" not in r.stderr
    assert r.stderr == ""
