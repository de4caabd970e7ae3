import json
import os
import pathlib
import subprocess
import sys

import pytest

from vnh.cli import main
from vnh.io import element_from_json, element_to_json
from vnh.elements import compose, equal_elements, identity_element, invert, reduce_element
from vnh.perms import Subgroup
from vnh.rewriting import CochainError

IDENT = '{"n": 2, "H": [], "domain": "*", "range": "*", "tau": [1], "labels": [[1, 2]]}'
SWAP = '{"n": 2, "H": [], "domain": "(* *)", "range": "(* *)", "tau": [2, 1], "labels": [[1, 2], [1, 2]]}'
GLOBAL_SWAP = '{"n": 2, "H": [[2, 1]], "domain": "*", "range": "*", "tau": [1], "labels": [[2, 1]]}'
CARET_SWAP_Z2 = '{"n": 2, "H": [[2, 1]], "domain": "(* *)", "range": "(* *)", "tau": [2, 1], "labels": [[1, 2], [1, 2]]}'
# A V4(S4) element whose free loops a 6,000-state search could not normalize.
V4_S4_LOOPS = '{"n": 4, "H": [[2, 1, 3, 4], [2, 3, 4, 1]], "domain": "(* (* * * *) * *)", "range": "(* * (* * * *) *)", "tau": [3, 7, 6, 1, 4, 2, 5], "labels": [[4, 1, 2, 3], [3, 4, 1, 2], [1, 3, 2, 4], [3, 4, 2, 1], [3, 4, 2, 1], [4, 2, 3, 1], [2, 3, 1, 4]]}'
V4_S4_CONJUGATOR = '{"n": 4, "H": [[2, 1, 3, 4], [2, 3, 4, 1]], "domain": "(* * * (* * * *))", "range": "(* * * (* * * *))", "tau": [1, 2, 5, 3, 6, 7, 4], "labels": [[4, 2, 3, 1], [3, 4, 2, 1], [4, 1, 3, 2], [3, 4, 1, 2], [1, 2, 4, 3], [4, 1, 3, 2], [1, 2, 4, 3]]}'

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _run_cli(*args, input=None):
    """`python -m vnh.cli args` in a subprocess that imports vnh from this
    checkout's src/, put before any inherited PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "vnh.cli", *args],
        input=input,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("id", IDENT),
        ("swap", SWAP),
        ("glob", GLOBAL_SWAP),
        ("caret_z2", CARET_SWAP_Z2),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run_cli(args, stdin=None, capsys=None):
    return main(args)


def test_parse_round_trip(files, capsys):
    assert main(["parse", files["id"]]) == 0
    out = capsys.readouterr().out
    assert element_from_json(out).key() == element_from_json(IDENT).key()


def test_parse_error_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "H": []}')
    assert main(["parse", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "domain" in err


def test_conjugate_id_id(files, capsys):
    assert main(["conjugate", files["id"], files["id"]]) == 0
    assert capsys.readouterr().out.strip() == "conjugate: true"


def test_conjugate_id_swap(files, capsys):
    assert main(["conjugate", files["id"], files["swap"]]) == 0
    assert capsys.readouterr().out.strip() == "conjugate: false"


def test_conjugate_global_vs_caret_z2(files, capsys):
    assert main(["conjugate", files["glob"], files["caret_z2"]]) == 0
    assert capsys.readouterr().out.strip() == "conjugate: true"


def test_conjugate_v4_s4_loops_need_no_search_bound(tmp_path, capsys):
    g = element_from_json(V4_S4_LOOPS)
    h = element_from_json(V4_S4_CONJUGATOR)
    paths = []
    for name, elem in [("g", g), ("hgh", compose(compose(h, g), invert(h)))]:
        p = tmp_path / f"{name}.json"
        p.write_text(element_to_json(elem))
        paths.append(str(p))
    assert main(["conjugate", *paths]) == 0
    assert capsys.readouterr().out.strip() == "conjugate: true"


def test_conjugate_mismatch_exit2(files, capsys):
    assert main(["conjugate", files["id"], files["glob"]]) == 2


def test_compose_reduce_pipeline(files, capsys, monkeypatch, tmp_path):
    assert main(["compose", files["swap"], files["swap"]]) == 0
    composed = capsys.readouterr().out
    p = tmp_path / "composed.json"
    p.write_text(composed)
    assert main(["reduce", str(p)]) == 0
    reduced = capsys.readouterr().out
    want = reduce_element(element_from_json(composed))
    assert element_from_json(reduced).key() == want.key()
    assert want.key() == identity_element(2, Subgroup.trivial(2)).key()
    # Byte-stable canonical output: reduce of reduce prints identically.
    p2 = tmp_path / "reduced.json"
    p2.write_text(reduced)
    assert main(["reduce", str(p2)]) == 0
    assert capsys.readouterr().out == reduced


def test_invert_cli(files, capsys):
    assert main(["invert", files["swap"]]) == 0
    out = capsys.readouterr().out
    g = element_from_json(out)
    assert equal_elements(g, element_from_json(SWAP))  # an involution


def test_diagram_dot(files, capsys):
    assert main(["diagram", "--dot", files["swap"]]) == 0
    dot1 = capsys.readouterr().out
    assert dot1.startswith("digraph strand {")
    assert main(["diagram", "--dot", files["swap"]]) == 0
    assert capsys.readouterr().out == dot1


def test_close_dot_and_trace(files, capsys):
    assert main(["close", "--dot", "--trace", files["swap"]]) == 0
    out = capsys.readouterr().out
    assert "digraph strand" in out
    assert "winding=2" in out


def test_cochain_error_exits_4(files, capsys, monkeypatch):
    def corrupt(*_args, **_kwargs):
        raise CochainError("winding must be positive on every oriented loop")

    monkeypatch.setattr("vnh.cli.reduced_closure", corrupt)
    assert main(["close", files["swap"]]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: winding must be positive")


def test_order_and_torsion(files, capsys):
    assert main(["order", files["swap"]]) == 0
    assert capsys.readouterr().out.strip() == "order: 2"
    assert main(["torsion", files["swap"]]) == 0
    assert capsys.readouterr().out.strip() == "torsion: true"


def test_order_cap(files, capsys):
    nontorsion = json.dumps(
        {
            "n": 2,
            "H": [],
            "domain": "((* *) *)",
            "range": "(* (* *))",
            "tau": [1, 2, 3],
            "labels": [[1, 2], [1, 2], [1, 2]],
        }
    )
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".json")
    os.write(fd, nontorsion.encode())
    os.close(fd)
    try:
        assert main(["order", "--cap", "20", path]) == 0
        assert capsys.readouterr().out.strip() == "order: exceeds cap"
        assert main(["torsion", path]) == 0
        assert capsys.readouterr().out.strip() == "torsion: false"
    finally:
        os.unlink(path)


def test_census_congruence_mode(capsys):
    assert main(["census", "--n", "2", "--H", "id", "--p", "3"]) == 0
    assert capsys.readouterr().out.strip() == "classes=2 expected=2"


def test_census_enumeration_mode(capsys):
    assert main(["census", "--n", "2", "--H", "id", "--p", "3", "--max-leaves", "4"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "classes=2 expected=2"
    assert out.startswith("class 1: representative = ")


def test_census_enumeration_mode_rejects_composite_p(capsys):
    args = ["census", "--n", "2", "--H", "id", "--p", "4", "--max-leaves", "4"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p = 4 is not prime" in captured.err


@pytest.mark.parametrize("n", ["0", "1"])
@pytest.mark.parametrize("leaves", [[], ["--max-leaves", "3"]], ids=["congruence", "enumeration"])
def test_census_rejects_arity_below_two(capsys, n, leaves):
    assert main(["census", "--n", n, "--H", "id", "--p", "2", *leaves]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "arity must be >= 2" in captured.err


def test_oracle_exit_codes(files, capsys):
    assert main(["oracle", files["id"], files["id"], "--oracle-bound", "1"]) == 0
    assert capsys.readouterr().out.startswith("oracle: yes")
    assert main(["oracle", files["id"], files["swap"], "--oracle-bound", "2"]) == 3
    assert capsys.readouterr().out.strip() == "oracle: inconclusive"


@pytest.mark.parametrize(
    "args",
    [
        ["census", "--n", "2", "--H", "id", "--p", "3", "--max-leaves", "0"],
        ["census", "--n", "2", "--H", "id", "--p", "3", "--max-leaves", "-4"],
        ["oracle", "{id}", "{swap}", "--oracle-bound", "0"],
    ],
    ids=["census-0", "census-neg", "oracle-0"],
)
def test_leaf_bounds_below_one_exit_2(files, capsys, args):
    # An empty search is not an answer: no "classes=0" or "inconclusive".
    assert main([a.format(**files) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: leaf bound must be >= 1, got " + args[-1] + "\n"


def test_cli_entrypoint_runs():
    proc = _run_cli("census", "--n", "3", "--H", "id", "--p", "5")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "classes=3 expected=3"


def test_stdin_input(files, capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(IDENT))
    assert main(["reduce", "-"]) == 0
    out = capsys.readouterr().out
    assert element_from_json(out).key() == element_from_json(IDENT).key()


_BAD_ELEMENT = {"n": 2, "H": [], "domain": "*", "range": "*", "tau": [1], "labels": [[1, 2]]}


@pytest.mark.parametrize(
    "args, element",
    [
        (["census", "--n", "2", "--H", "5", "--p", "3"], None),
        (["census", "--n", "2", "--H", "[1]", "--p", "3"], None),
        (["parse", "-"], {**_BAD_ELEMENT, "tau": 5}),
        (["parse", "-"], {**_BAD_ELEMENT, "labels": [5]}),
        (["parse", "-"], {**_BAD_ELEMENT, "domain": 5}),
    ],
    ids=["H-int", "H-int-list", "tau-int", "labels-int-list", "domain-int"],
)
def test_mistyped_json_fields_exit_2_without_traceback(args, element):
    proc = _run_cli(*args, input="" if element is None else json.dumps(element))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def _comb(depth, right):
    """Text form of the V2 comb of the given depth, growing to the right or
    to the left."""
    text = "*"
    for _ in range(depth):
        text = f"(* {text})" if right else f"({text} *)"
    return text


def test_deep_trees_parse_and_invert_round_trip():
    # Trees are read, checked, rebuilt and printed without recursion: a
    # 2,001-leaf comb is far deeper than the interpreter's recursion limit.
    k = 2001
    element = {
        "n": 2,
        "H": [],
        "domain": _comb(k - 1, True),
        "range": _comb(k - 1, False),
        "tau": list(range(k, 0, -1)),
        "labels": [[1, 2]] * k,
    }

    def run(command, text):
        proc = _run_cli(command, "-", input=text)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stderr == ""
        return proc.stdout

    parsed = run("parse", json.dumps(element))
    assert json.loads(parsed) == element
    inverse = run("invert", parsed)
    assert json.loads(inverse)["domain"] == element["range"]
    assert run("invert", inverse) == parsed


_CLOSE_DATA = pathlib.Path(__file__).parent / "data" / "close"


@pytest.mark.parametrize("name", sorted(p.stem for p in _CLOSE_DATA.glob("*.json")))
def test_close_dot_trace_matches_golden(name, capsys):
    # Guards the closed canonical vertex order and the DOT output.
    assert main(["close", "--dot", "--trace", str(_CLOSE_DATA / f"{name}.json")]) == 0
    assert capsys.readouterr().out == (_CLOSE_DATA / f"{name}.txt").read_text()


_ORACLE_DATA = pathlib.Path(__file__).parent / "data" / "oracle"


@pytest.mark.parametrize(
    "name", sorted(p.name[: -len(".f.json")] for p in _ORACLE_DATA.glob("*.f.json"))
)
def test_oracle_and_order_match_golden(name, capsys):
    # Guards oracle witnesses, inconclusive misses, element orders and the
    # conjugacy verdict: the golden file is the output of `vnh oracle
    # --oracle-bound 4 F G`, then `vnh order --cap 12` of F and of G, then
    # `vnh conjugate F G` (true for planted pairs, false for separated ones).
    first, second = (str(_ORACLE_DATA / f"{name}.{side}.json") for side in "fg")
    assert main(["oracle", "--oracle-bound", "4", first, second]) in (0, 3)
    assert main(["order", "--cap", "12", first]) == 0
    assert main(["order", "--cap", "12", second]) == 0
    assert main(["conjugate", first, second]) == 0
    assert capsys.readouterr().out == (_ORACLE_DATA / f"{name}.txt").read_text()
