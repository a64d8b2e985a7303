import hashlib
import json
import os
import subprocess
import sys

import pytest

import afcore
from afcore import catalog
from afcore.cli import jsonable, main
from afcore.graphs import parse_graph, serialize_graph
from afcore.leavitt import MAX_NESTING
from afcore.linalg import Matrix
from afcore.report import CheckReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out else None, err


# -- jsonable -------------------------------------------------------------------------


def test_jsonable_scalars_and_containers(penrose):
    from fractions import Fraction

    assert jsonable(None) is None
    assert jsonable(True) is True
    assert jsonable(Fraction(1, 3)) == "1/3"
    assert jsonable(Matrix([[1, 2]])) == [[1, 2]]
    assert jsonable((1, 2)) == [1, 2]
    assert jsonable({2: "a"}) == {"2": "a"}
    # bool keys stringify as booleans, not as the integers they subclass
    assert jsonable({True: 1}) == {"true": 1}
    assert jsonable({False: 0, 1: "x"}) == {"false": 0, "1": "x"}
    g = jsonable(penrose)
    assert g["name"] == "penrose" and ["a", "1", "1"] in g["edges"]
    rep = CheckReport("t")
    rep.add("x", True, "detail")
    assert jsonable(rep) == {
        "title": "t",
        "ok": True,
        "items": [{"label": "x", "ok": True, "detail": "detail"}],
    }
    with pytest.raises(TypeError):
        jsonable(object())


# -- analyze -----------------------------------------------------------------------


def test_analyze_json(capsys):
    code, data, err = run_json(capsys, "analyze", "penrose")
    assert code == 0 and err == ""
    assert data["name"] == "penrose"
    assert data["adjacency"] == [[1, 1], [1, 0]]
    assert data["det"] == -1
    assert data["directed_cycle_count"] == 2
    assert data["is_cycle_graph"] is False


def test_analyze_text(capsys):
    code, out, err = run(capsys, "analyze", "tadpole")
    assert code == 0
    assert "graph tadpole: 2 vertices, 2 edges" in out
    assert "sources: 1" in out
    assert "det: 0" in out


def test_analyze_reads_files(capsys, tmp_path, penrose):
    path = tmp_path / "g.graph"
    path.write_text(serialize_graph(penrose))
    code, data, err = run_json(capsys, "analyze", str(path))
    assert code == 0 and data["name"] == "penrose"


# -- graph-producing commands ---------------------------------------------------------


def test_product_output_round_trip(capsys, tmp_path):
    out_file = tmp_path / "prod.graph"
    code, out, err = run(capsys, "product", "penrose", "sigma:2", "-o", str(out_file))
    assert code == 0
    g = parse_graph(out_file.read_text())
    assert g.name == "penrose_x_sigma2"
    assert g.n_vertices == 4 and g.n_edges == 9


def test_linegraph_stdout(capsys):
    code, out, err = run(capsys, "linegraph", "penrose")
    assert code == 0
    g = parse_graph(out)
    assert g.name == "line_penrose" and g.n_vertices == 3


def test_catalog_build_matches_library(capsys, sigma3):
    code, out, err = run(capsys, "catalog", "build", "sigma:3")
    assert code == 0
    assert parse_graph(out) == sigma3


# -- morphism checking ------------------------------------------------------------------


ADMISSIBLE_DOC = """\
graph dom
vertex v
edge x : v -> v
graph cod
vertex w
edge y : w -> w
morphism f : dom -> cod
vmap v => w
emap x => y
"""

NON_ADMISSIBLE_DOC = """\
graph dom
vertex v
edge x : v -> v
graph cod
vertex w
edge y : w -> w
edge z : w -> w
morphism f : dom -> cod
vmap v => w
emap x => y
"""


def test_check_morphism_admissible(capsys, tmp_path):
    path = tmp_path / "m.morphism"
    path.write_text(ADMISSIBLE_DOC)
    code, data, err = run_json(capsys, "check-morphism", str(path))
    assert code == 0
    assert data["admissible"] is True


def test_check_morphism_witnesses(capsys, tmp_path):
    path = tmp_path / "m.morphism"
    path.write_text(NON_ADMISSIBLE_DOC)
    code, data, err = run_json(capsys, "check-morphism", str(path))
    assert code == 1
    assert data["admissible"] is False
    assert data["range_closed"] is False
    assert data["range_witnesses"] == ["z"]
    assert data["injective"] is True


def test_check_morphism_invalid_is_an_error(capsys, tmp_path):
    path = tmp_path / "m.morphism"
    path.write_text(ADMISSIBLE_DOC.replace("vmap v => w", ""))
    code, out, err = run(capsys, "check-morphism", str(path))
    assert code == 2
    assert "error:" in err and "no image" in err


# -- embeddings ---------------------------------------------------------------------------


def test_embeddings_default_codomain_is_square(capsys):
    code, data, err = run_json(capsys, "embeddings", "sigma:2")
    assert code == 0
    assert data["codomain"] == "sigma2_x_sigma2"
    assert data["count"] == 2
    images = [sorted(m["vmap"].values()) for m in data["embeddings"]]
    assert sorted(images) == [["1_1", "1_2"], ["1_1", "2_1"]]


def test_embeddings_guard_error(capsys):
    code, out, err = run(capsys, "embeddings", "penrose", "--guard", "1")
    assert code == 2
    assert "exceed the guard" in err


# -- bratteli ---------------------------------------------------------------------------


def test_bratteli_text(capsys):
    code, out, err = run(capsys, "bratteli", "penrose", "--levels", "6")
    assert code == 0
    assert "level 6: 1:13 2:8" in out


def test_bratteli_dot(capsys):
    code, out, err = run(capsys, "bratteli", "penrose", "--levels", "3", "--dot")
    assert code == 0
    assert out.startswith("digraph bratteli {\n")
    assert out.endswith("}\n")


def test_bratteli_json(capsys):
    code, data, err = run_json(capsys, "bratteli", "cuntz:2", "--levels", "3")
    assert code == 0
    assert data["levels"] == [[["1", 1]], [["1", 2]], [["1", 4]]]


def test_bratteli_sink_is_an_error(capsys):
    code, data, err = run_json(capsys, "bratteli", "chambers:2", "--levels", "3")
    assert code == 2 and data is None
    payload = json.loads(err)
    assert payload["error"]["type"] == "SinkError"


# -- ktheory ----------------------------------------------------------------------------


def test_ktheory_json_penrose(capsys):
    code, data, err = run_json(capsys, "ktheory", "penrose")
    assert code == 0
    assert data["det"] == -1
    assert data["charpoly_reversed"] == [1, -1, -1]
    assert set(data["m_table"]) == {str(k) for k in range(-3, 4)}
    assert data["k0"]["kind"] == "free"
    assert data["kk"] == {"checks_pass": True, "matrix": [[0, 1], [1, -1]]}


def test_ktheory_range(capsys):
    code, data, err = run_json(capsys, "ktheory", "penrose", "--range", "0..2")
    assert code == 0
    assert set(data["m_table"].keys()) == {"0", "1", "2"}


def test_ktheory_bad_range(capsys):
    code, out, err = run(capsys, "ktheory", "penrose", "--range", "3..-3")
    assert code == 2
    assert "error:" in err


def test_ktheory_text_mode_renders(capsys):
    code, out, err = run(capsys, "ktheory", "cuntz:2")
    assert code == 0
    assert "scaled_dimension_values" in out


def test_ktheory_refuses_the_empty_graph(capsys, tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text("graph empty\n")
    code, out, err = run(capsys, "ktheory", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "no vertices" in err
    code, out, err = run(capsys, "ktheory", str(path), "--json")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "ValueError"
    assert "no vertices" in json.loads(err)["error"]["message"]
    # the tower diagram of the empty graph is still an answer: empty levels
    code, data, err = run_json(capsys, "bratteli", str(path), "--levels", "3")
    assert code == 0 and data["levels"] == [[], [], []]


# sha256 of "<exit code>\n<stdout>" for ``ktheory <token> [range] --json``,
# recorded before the per-graph Tower refactor: the report must not move
PINNED_KTHEORY_JSON = {
    ("penrose", ""): "50ffc786cd1af13ba27b2d01414b6e8c57268fec91d74f2ef20beed9196ef4e1",
    ("penrose", "--range=-8..8"): "c5a0f4c55e0baf8e7433291528aa155970d0fd5d2b834204320a233a2c3f9168",
    ("cycle:6", ""): "16631da3581cac6e214fe3738e6ed92fc6dcc8fa810272b2d6c8f59a325347b0",
    ("cycle:6", "--range=-8..8"): "423e96e19cad76dd6f33eb6cde21f44f39ac6343298d149bd02831864b983638",
    ("sigma:5", ""): "f9dc8f31325ca02a1b84d47ceb35f0daaa9ced2ba3fdcc417784902e50fdbf95",
    ("sigma:5", "--range=-8..8"): "4987ca8d81226170ecb98f2ba463c1426870a7b852e739d5afaea2b1a8b39b03",
    ("lens:4", ""): "229ca8484390aab522804c473bf435e60d8f9654579ee39981c41dff57199ef4",
    ("lens:4", "--range=-8..8"): "eececfedff3a03bb29f3268cff9b0dc6283afb1f11a32e2b414eb07465925c80",
    ("full:3", ""): "abb130581bf693138e9f54accaa015f9b06ce4aef946aab01da63988e1f23d08",
    ("full:3", "--range=-8..8"): "760090a9ffb6de18ae002ca66adc2080592dbc2ff90cdbc64e367777acff33b2",
    ("cuntz:2", ""): "40c6ad3845d77526ef33273b1e3e39590ae91beed17187792641d6bee56358ba",
    ("cuntz:2", "--range=-8..8"): "73e00750def90f981f387a98659880e43b3da73440f557e91cd19c1de3cce689",
    ("tadpole", ""): "b0ee1900c7a78655e0997fbbfd13b89027c9af6bbf812e997f1ca671b3d07df5",
    ("tadpole", "--range=-8..8"): "321974ae9ff6f681967201bad4fb2a24ecfcaa7596852344a6236b2b9ec66f2c",
    ("chambers:2", ""): "9ec68d55eeb90942a0ed2d21e3393b293ae1f17de0dc547098cf44099910e285",
    ("chambers:2", "--range=-8..8"): "e406b9f986fa721bfb18b5de87e96eeee7418bce40b679451f3e191da0e1c239",
}


def test_ktheory_json_output_is_pinned(capsys):
    got = {}
    for token, window in PINNED_KTHEORY_JSON:
        code, out, err = run(capsys, "ktheory", token, *([window] if window else []), "--json")
        got[(token, window)] = hashlib.sha256(f"{code}\n".encode() + out.encode()).hexdigest()
    assert got == PINNED_KTHEORY_JSON


# sha256 of "<exit code>\n<stdout>" for ``catalog suite <name> [--json]``, recorded
# before the K0 presentations were merged into one (``symbolic`` and ``embeddings``
# before the Leavitt carriers shared one ring base): the suites must not move
PINNED_SUITES = {
    ("penrose", ""): "a37fc67b490f59a7190722c54e2b34681a218e7c1931ea4f2b1110bd687cc0cd",
    ("penrose", "--json"): "6f9a4ec5781f8ea7acdd908621518a6841c0f019010c83f97a592c19f512337e",
    ("cpq", ""): "09b90eba6d20c8357e9e68fe26c2ae6677c7d44a04e438fc5fb63387468070e1",
    ("cpq", "--json"): "456678be07076587838b9a9d511feb68bb17bb34a3ecf2746e15645f8c90638c",
    ("uhf", ""): "52ad03aeb5e3929cfa8e74e75233659f5794161ed8ca30e4659bd15d80ccd7a3",
    ("uhf", "--json"): "7325ce86a59895bb42f64399a809ddf07bb01ee92afcebd6e8605a9d82c9004c",
    ("k0", ""): "913c65809786bb64fab0df4c0816bb7de57faa2123ef776c64f3761b4a146f68",
    ("k0", "--json"): "9daf23122f95f98011a3899182b141a9304116a4b4066e25108c0ffe11c488a3",
    ("kk", ""): "0a3f361764be0c7e96c5b602c3cc308644882af0845e508c2f819fdc23222f82",
    ("kk", "--json"): "8917c8b7d416e6562b0c80aaf48cfc52f2a91d99410222d25a9d3dc069fc167b",
    ("negative_controls", ""): "a61499aaafdd16f230d5d5f12ba75f43a3fad6132fc4d826646e63f72bd5f9e3",
    ("negative_controls", "--json"): "6d0c67742cd80b64b9975ea3947f4d75a0a064d4935e6f6bff5cc7dc5def4cce",
    ("symbolic", ""): "73272548e467f24b653b80894075e1e26952767637607072dd0270598f39b503",
    ("symbolic", "--json"): "f7866f7ff9375c322fcf168f5101dae70c3faa02752ebfb8e6f86530eb1ee97e",
    ("embeddings", ""): "292c83f199b5c3fa83a4be8f6e04d34edc368ee2db1ca7b2c965041eaf13fc96",
    ("embeddings", "--json"): "2a4dd6f8f912a508a38b878b8f7f9187be3cc058b122bfd269b221b15bf60a5f",
}


def test_suite_output_is_pinned(capsys):
    got = {}
    for name, flag in PINNED_SUITES:
        code, out, err = run(capsys, "catalog", "suite", name, *([flag] if flag else []))
        got[(name, flag)] = hashlib.sha256(f"{code}\n".encode() + out.encode()).hexdigest()
    assert got == PINNED_SUITES


# -- the parser --------------------------------------------------------------------------


def test_parser_is_built_once(capsys, monkeypatch):
    import argparse

    first = [run(capsys, *argv) for argv in ([], ["bogus"], ["ktheory"])]
    assert [code for code, _, _ in first] == [2, 2, 2]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    again = [run(capsys, *argv) for argv in ([], ["bogus"], ["ktheory"])]
    assert built == []
    assert again == first


# -- leavitt ----------------------------------------------------------------------------


def test_leavitt_eval(capsys):
    code, data, err = run_json(
        capsys, "leavitt", "penrose", "eval", "S(a)^* P(1) S(a) + 2 P(2)"
    )
    assert code == 0
    assert data["normal"] == "P(1) + 2P(2)"
    assert data["is_zero"] is False


def test_leavitt_equals_exit_codes(capsys):
    code, data, err = run_json(
        capsys, "leavitt", "penrose", "equals",
        "P(1)", "S(a)S(a)^* + S(b)S(b)^*",
    )
    assert code == 0 and data["equal"] is True
    code, data, err = run_json(capsys, "leavitt", "penrose", "equals", "P(1)", "P(2)")
    assert code == 1 and data["equal"] is False


def test_leavitt_parse_error(capsys):
    code, data, err = run_json(capsys, "leavitt", "penrose", "eval", "S(a) +")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "ParseError"
    assert "position" in payload["error"]["message"]


def test_leavitt_nesting_limit():
    # past the limit a typed refusal, not a RecursionError traceback
    deep = "(" * 2000 + "P(1)" + ")" * 2000
    src = os.path.dirname(os.path.dirname(afcore.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "afcore", "leavitt", "penrose", "eval", deep, "--json"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"]["type"] == "ParseError"


def test_leavitt_nesting_at_the_limit_evaluates(capsys):
    text = "(" * MAX_NESTING + "P(1)" + ")" * MAX_NESTING
    code, data, err = run_json(capsys, "leavitt", "penrose", "eval", text)
    assert code == 0 and data["normal"] == "P(1)"


# -- picard -----------------------------------------------------------------------------


def test_picard_order(capsys):
    code, data, err = run_json(capsys, "picard", "--dims", "1,2,3")
    assert code == 0
    assert data["order"] == 6
    assert len(data["elements"]) == 6
    assert data["elements"][0] == [0, 1, 2]


def test_picard_bad_dims(capsys):
    code, out, err = run(capsys, "picard", "--dims", "1,x")
    assert code == 2
    assert "comma-separated block sizes" in err


# -- catalog ----------------------------------------------------------------------------


def test_catalog_list(capsys):
    code, data, err = run_json(capsys, "catalog", "list")
    assert code == 0
    names = [entry["name"] for entry in data]
    assert "penrose" in names and "tadpole" in names


def test_catalog_suite_pass_and_params(capsys):
    code, out, err = run(capsys, "catalog", "suite", "cpq", "n=3")
    assert code == 0
    assert "PASS" in out


def test_catalog_suite_bad_param_shape(capsys):
    code, out, err = run(capsys, "catalog", "suite", "cpq", "n:3")
    assert code == 2
    assert "k=v" in err


def test_catalog_suite_unknown(capsys):
    code, out, err = run(capsys, "catalog", "suite", "mystery")
    assert code == 2
    assert "unknown suite" in err


# -- plumbing ---------------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["bratteli", "penrose"]) == 2  # missing required --levels
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "analyze" in out and "ktheory" in out


def test_unknown_graph_token_is_a_data_error(capsys):
    code, out, err = run(capsys, "analyze", "not-a-graph")
    assert code == 2
    assert "unknown catalog graph" in err


def test_json_output_is_deterministic(capsys):
    first = run(capsys, "ktheory", "penrose", "--json")
    second = run(capsys, "ktheory", "penrose", "--json")
    assert first == second
    third = run(capsys, "bratteli", "penrose", "--levels", "6", "--dot")
    fourth = run(capsys, "bratteli", "penrose", "--levels", "6", "--dot")
    assert third == fourth
