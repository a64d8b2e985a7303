import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import afcore
from afcore import catalog, cli, ops
from afcore.cli import jsonable, main
from afcore.errors import ArtifactError
from afcore.graphs import Edge, parse_graph, serialize_graph
from afcore.ktheory import K0Class
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


# -- the JSON writer ---------------------------------------------------------------------

_TRICKY_CHARS = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "é", "\U0001f600"])
_TEXT = st.text(st.one_of(st.characters(), _TRICKY_CHARS), max_size=6)
_MATRICES = st.integers(0, 3).flatmap(
    lambda c: st.lists(st.lists(st.integers(-5, 5), min_size=c, max_size=c), max_size=3)
).map(Matrix)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**200), 2**200), _TEXT,
    st.fractions(), _MATRICES, st.just(Matrix([])),
)
# int keys whose string order is not their numeric order (2 < 10 but "10" < "2";
# "-1" < "-2"), bool keys, and strings, which may collide with them after conversion
_KEYS = st.one_of(st.integers(-12, 12), st.booleans(), _TEXT, st.sampled_from(["2", "true"]))
_DATA = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_KEYS, kids, max_size=4),
    ),
    max_leaves=24,
)


def _one_line(x) -> str:
    out = []
    cli._put(x, out, "")
    return "".join(out)


@settings(max_examples=200, deadline=None)
@given(_DATA)
def test_json_writer_matches_json_dumps(x):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(x)
    assert out.getvalue() == json.dumps(jsonable(x), indent=2, sort_keys=True) + "\n"
    # the one-line form is how the plain renderer prints a flat value
    assert _one_line(x) == json.dumps(jsonable(x), sort_keys=True)


def test_json_writer_package_values_and_refusals(penrose):
    rep = CheckReport("t")
    rep.add("x", False, "d\u00e9tail")
    for x in (
        {-1: [1], -2: [2], 0: [3], 10: [4], 2: [5], True: "t", False: Fraction(-3, 4)},
        [penrose, rep, Matrix([]), Matrix([[], []]), (), {}, [[]], 2**100, -(2**100)],
    ):
        assert cli._json_text(x) == json.dumps(jsonable(x), indent=2, sort_keys=True)
        assert _one_line(x) == json.dumps(jsonable(x), sort_keys=True)
    assert _one_line({-1: 0, -2: 0, 0: 0}) == '{"-1": 0, "-2": 0, "0": 0}'
    for bad in (object(), 1.5, {"k": [1, 2.0]}):
        with pytest.raises(TypeError):
            cli._json_text(bad)
    # a record is a tuple subclass, but no payload carries one: the writer
    # refuses it instead of printing its fields as an array
    for record in (K0Class((1,), 0), [Edge("e", "v", "v")]):
        with pytest.raises(TypeError, match="cannot convert (K0Class|Edge) to JSON data"):
            cli._json_text(record)
        with pytest.raises(TypeError):
            jsonable(record)


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


class _HashingSink(io.TextIOBase):
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)


def _traced_run(*argv):
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(list(argv)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.digest.hexdigest()


def test_json_graph_output_needs_no_more_memory_than_the_plain_output():
    # --json is written in bounded chunks, so the text of the whole payload
    # and the list of its pieces are never held at once
    plain_peak, _ = _traced_run("catalog", "build", "full:200")
    json_peak, digest = _traced_run("catalog", "build", "full:200", "--json")
    g = catalog.build_token("full:200")
    text = json.dumps(jsonable({"graph": g, "serialized": serialize_graph(g)}), indent=2, sort_keys=True)
    assert digest == hashlib.sha256((text + "\n").encode()).hexdigest()
    assert json_peak <= 1.25 * plain_peak, (json_peak, plain_peak)


@pytest.mark.parametrize("token", ["sigma:3,4", "sigma:n=3,4", "sigma:3,n=4", "cuntz:2,5"])
def test_catalog_build_refuses_a_parameter_given_twice(capsys, token):
    code, out, err = run(capsys, "catalog", "build", token)
    assert code == 2 and out == ""
    assert f"'{token.partition(':')[0]}' parameter 'n' is given more than once" in err


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


NON_INJECTIVE_DOC = """\
graph dom
vertex v
vertex u
edge x : v -> v
edge y : u -> u
graph cod
vertex w
edge z : w -> w
morphism f : dom -> cod
vmap v => w
vmap u => w
emap x => z
emap y => z
"""


def test_check_morphism_names_injectivity_witnesses_in_both_modes(capsys, tmp_path):
    # each witness is a (first, later) pair of preimages of one image
    path = tmp_path / "m.morphism"
    path.write_text(NON_INJECTIVE_DOC)
    code, out, err = run(capsys, "check-morphism", str(path))
    assert (code, err) == (1, "")
    assert out == ("morphism f: dom -> cod\n"
                   "injective: no (witnesses: v/u x/y)\n"
                   "range-closed: yes\n"
                   "emission-covered: yes\n"
                   "admissible: no\n")
    code, data, err = run_json(capsys, "check-morphism", str(path))
    assert code == 1
    assert data["injective"] is False and data["admissible"] is False
    assert data["injectivity_witnesses"] == [["v", "u"], ["x", "y"]]


def test_check_morphism_invalid_is_an_error(capsys, tmp_path):
    path = tmp_path / "m.morphism"
    path.write_text(ADMISSIBLE_DOC.replace("vmap v => w", ""))
    code, out, err = run(capsys, "check-morphism", str(path))
    assert code == 2
    assert "error:" in err and "no image" in err


STRAY_DOC = """\
graph d
vertex 1
edge a : 1 -> 1
graph c
vertex x y
edge p : x -> x
edge q : y -> x
morphism f : d -> c
vmap 1 => x
emap a => p
"""


@pytest.mark.parametrize("stray, message", [
    ("emap zz => q", "the edge map has an entry for 'zz', not an edge of 'd'"),
    ("vmap 7 => y", "the vertex map has an entry for '7', not a vertex of 'd'"),
])
def test_check_morphism_refuses_a_stray_map_entry(capsys, tmp_path, stray, message):
    # without the stray entry the morphism is not range-closed; with it, the
    # document is refused instead of answered from the extra entry
    path = tmp_path / "m.morphism"
    path.write_text(STRAY_DOC)
    code, out, err = run(capsys, "check-morphism", str(path))
    assert (code, err) == (1, "")
    assert "range-closed: no (witnesses: q)\n" in out
    path.write_text(STRAY_DOC + stray + "\n")
    assert run(capsys, "check-morphism", str(path)) == (2, "", f"error: {message}\n")
    code, data, err = run_json(capsys, "check-morphism", str(path))
    assert (code, data) == (2, None)
    assert json.loads(err) == {"error": {"type": "MorphismError", "message": message}}

@pytest.mark.parametrize("error", ArtifactError.__subclasses__(), ids=lambda cls: cls.__name__)
def test_every_artifact_error_from_a_handler_is_a_typed_refusal(capsys, monkeypatch, error):
    def refuse():
        raise error("refused")

    monkeypatch.setattr(catalog, "list_entries", refuse)  # called by the `catalog list` handler
    code, out, err = run(capsys, "catalog", "list", "--json")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"type": error.__name__, "message": str(error("refused"))}}


# -- embeddings ---------------------------------------------------------------------------


def test_embeddings_default_codomain_is_square(capsys):
    code, data, err = run_json(capsys, "embeddings", "sigma:2")
    assert code == 0
    assert data["codomain"] == "sigma2_x_sigma2"
    assert data["count"] == 2
    images = [sorted(m["vmap"].values()) for m in data["embeddings"]]
    assert sorted(images) == [["1_1", "1_2"], ["1_1", "2_1"]]


def test_embeddings_guard_error(capsys, monkeypatch):
    monkeypatch.setattr(ops, "MAX_ASSIGNMENTS", 1)
    code, out, err = run(capsys, "embeddings", "penrose")
    assert (code, out) == (2, "")
    assert err == "error: 2 vertex and edge assignments exceed the guard of 1\n"


@pytest.mark.parametrize("argv", [["embeddings", "penrose"], ["picard", "--dims", "2,2"]])
def test_negative_guard_is_a_usage_error(capsys, argv):
    # the search bounds are fixed: --guard, of any value, is not an option
    for value in ("-1", "11"):
        code, out, err = run(capsys, *argv, "--guard", value)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: afcore {argv[0]} ")
        assert err.endswith(f"afcore {argv[0]}: error: unrecognized arguments: --guard {value}\n")
    code, out, err = run(capsys, *argv[:1], "--help")
    assert code == 0 and "--guard" not in out


def test_embeddings_sigma6_answers(capsys):
    # the brute force refused: 36P6 injective vertex maps exceed the guard
    code, out, err = run(capsys, "embeddings", "sigma:6")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "2 admissible embedding(s) of sigma6 into sigma6_x_sigma6"


# sha256 of "<exit code>\n<stdout>" for ``embeddings <token> [--json]``, recorded
# with the brute-force enumeration: the search must list the same embeddings in
# the same order
PINNED_EMBEDDINGS = {
    ("sigma:2", ""): "d6b957f03c3e10a5b655fcabf727605c6c69a55a8e060cbb12eb01f3e567e6f6",
    ("sigma:2", "--json"): "68adc8dd702e7b46468be7927f7fdf7428fabcb09c6419436868ae6c2dbf0b15",
    ("penrose", ""): "cdf07c18f1a72cb3007029344004641b3b8e55b800f91fe71c513cfd57c2957a",
    ("penrose", "--json"): "f1930199476bc469401accfa4943963d9413d7d420b9877f86460f2c08bcea22",
    ("lens:2", ""): "1421e3a7922a6c5fdfde8ca65ce7c504d21322238f900b5a24fed5dafa995705",
    ("lens:2", "--json"): "e88f1676944a0c1bdd3235573fe429df5ad5b3d0ab83cf4c3e1c6b209802d914",
    ("cycle:4", ""): "8643d7c312f19c84622ef6245aa4232bf26163a2652da0631169deb5d6c4c425",
    ("cycle:4", "--json"): "21db93151a6380410eb1fc105b66fa3d6bf2647bd5d00fef096427d843e23447",
    ("lens:3", ""): "8a1f4af716761b1c9c7f93f4588e999a9325d6d40efcf3faaab116184540a807",
    ("lens:3", "--json"): "e670cdb0a778ddf64a7ca4e1e34ce4a3da46af7140d1a10e92a74ddaa6988838",
    ("sigma:3", ""): "aa114d8a9069934c0133fdd713fce71e379944472cdfc3d16486d051fdb6c190",
    ("sigma:3", "--json"): "34149c0ccaae0ef4cea6c95bb7932a1c17686047213b44e6063ab8d33858c75a",
}


def test_embeddings_output_is_pinned(capsys):
    got = {}
    for token, flag in PINNED_EMBEDDINGS:
        code, out, err = run(capsys, "embeddings", token, *([flag] if flag else []))
        got[(token, flag)] = hashlib.sha256(f"{code}\n".encode() + out.encode()).hexdigest()
    assert got == PINNED_EMBEDDINGS


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


def test_bratteli_levels_guard(capsys):
    # refused before the graph is resolved: an unknown token is never looked up
    code, out, err = run(capsys, "bratteli", "no_such_graph", "--levels", "1001")
    assert (code, out) == (2, "")
    assert err == "error: --levels 1001 exceeds the guard of 1000\n"
    code, data, err = run_json(capsys, "bratteli", "penrose", "--levels", "1000")
    assert code == 0 and len(data["levels"]) == 1000
    a, b = 1, 1  # the level-k sizes are F(k+1) and F(k)
    for _ in range(999):
        a, b = a + b, a
    assert data["levels"][-1] == [["1", a], ["2", b]]


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


@pytest.mark.parametrize("window", ["-1001..0", "0..1001", "-2000..2000"])
def test_ktheory_range_guard(capsys, window):
    code, out, err = run(capsys, "ktheory", "no_such_graph", f"--range={window}")
    assert (code, out) == (2, "")
    assert err == f"error: --range {window} leaves the guard window +-1000\n"


def test_ktheory_largest_admitted_range(capsys):
    code, data, err = run_json(capsys, "ktheory", "penrose", "--range=-1000..1000")
    assert code == 0 and len(data["m_table"]) == 2001
    assert all(c["matches_power"] for c in data["phi_checks"])


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
    # recorded before the Krylov characteristic polynomial; full:30 and lens:12
    # are derogatory, so e_0 is not cyclic and charpoly branches on further
    # unit vectors
    ("cycle:40", ""): "9800f736b0506ffcc176d6888e483cf9daf281949f2f4519ad9ce0d2508cc6e5",
    ("sigma:20", ""): "58217658a7d0933ff2df3cf3d90c0a1da8e60e3d3b7f491cf2207bf6ccb41c79",
    ("lens:12", ""): "50cad5609abccb7e70ce5d05a726a7ecfb352e04575903a4577dc45c4b2a9662",
    ("full:30", ""): "245beea3f127ec4469acb96d4503942aec628b9eb0ce00002428de4c8a792c40",
}


def test_ktheory_json_output_is_pinned(capsys):
    got = {}
    for token, window in PINNED_KTHEORY_JSON:
        code, out, err = run(capsys, "ktheory", token, *([window] if window else []), "--json")
        got[(token, window)] = hashlib.sha256(f"{code}\n".encode() + out.encode()).hexdigest()
    assert got == PINNED_KTHEORY_JSON


# sha256 of "<exit code>\n<stdout>" for ``picard --dims <dims> [--json]``, recorded
# while the CLI imported picard at start-up, before it loaded it on first use
PINNED_PICARD = {
    ("1,2,3", ""): "b155077fa47346b3c5d2781670f25e9a9e237c0cd432d889902e2ba7213cf238",
    ("2,2", "--json"): "53cc073901945838614952e1d3b9b3f41f6f3729e30af0ad2d905d19f7a3e51d",
}


def test_picard_output_is_pinned(capsys):
    got = {}
    for dims, flag in PINNED_PICARD:
        code, out, err = run(capsys, "picard", "--dims", dims, *([flag] if flag else []))
        got[(dims, flag)] = hashlib.sha256(f"{code}\n".encode() + out.encode()).hexdigest()
    assert got == PINNED_PICARD


# -- rendered output --------------------------------------------------------------------

# sha256 of "<exit code>\n<stdout>\0<stderr>" for every output path of ``ktheory``
# (plain text), ``bratteli`` (plain, --json, --dot, --dot --json), ``analyze`` (text and
# --json), ``leavitt eval --json``, the --json error payload and eight ``catalog suite``
# runs (plain and --json each), recorded before the one-pass output writer: rendering
# must not move a byte
PINNED_OUTPUTS = {
    ("ktheory", "cycle:1"): "013f732839c75c66a59ee65f14142f7d20fc0a4132e8ba0c763003775c184e2e",
    ("ktheory", "cycle:1", "--range=-8..8"): "df87ee11eb76cd41fef7b145e0d1ef512fc0e44130bb26c56d6309254f179d81",
    ("ktheory", "cycle:5"): "ccca964cfbb383afed440492da840020df7d98190a243a201c780d6fa12a8490",
    ("ktheory", "cycle:5", "--range=-8..8"): "2425e81102d894a77747070e1eb816f18f6ffd753ba1c675830b4d5f50f7e57f",
    ("ktheory", "cycle:24"): "32f4c2b1455d4a550f19af2d61a8167e01dc2ed31004bf5bd3321406f88c1bc8",
    ("ktheory", "cycle:24", "--range=-8..8"): "23602f5b3c578f22a14051a3a0f2b22933b4e6e78eb3d8c973b0442bda797011",
    ("ktheory", "sigma:3"): "1fda693552723d90f7bd8714ca563bba3db7e5c969eff6e56928e75002b3159d",
    ("ktheory", "sigma:3", "--range=-8..8"): "aa524fc833338082bf18064f16e11e7d1b4d64dce913f4d7196d30a64ceb163c",
    ("ktheory", "sigma:12"): "bc52e038c4554a6a85cb0659c84d08a27b429776f7ea8cc8e5b6dee80bb44dfc",
    ("ktheory", "sigma:12", "--range=-8..8"): "68d87828a6c366ba9663ad03679aa17fb6ea2ce2982a460f48c91bddeb1c0da3",
    ("ktheory", "lens:0"): "e3ec8182a766d619b21b1e05e3ab158005ff44db5160515a8d92816f88878ec4",
    ("ktheory", "lens:0", "--range=-8..8"): "cd07da4306ffda140424805c6ad6ff680eee1d43d59b30c9183bb13416d72866",
    ("ktheory", "lens:2"): "6b0a2a8277e3f98bafaf96f9b1e4dc22d11701ff63de7795863732d402ca9f1a",
    ("ktheory", "lens:2", "--range=-8..8"): "719066770743096615b3564f6fcb353296720ad095472c1414dc39d18969d476",
    ("ktheory", "lens:8"): "369400ebe5094d7a5b54041c2648780f9396efa611107215ace34d7ef6325329",
    ("ktheory", "lens:8", "--range=-8..8"): "f696170d69216b89ee4cd5903116b358125441c993e913fe2496513a03d53ed6",
    ("ktheory", "full:2"): "eec84384366ad63f8ef2ef0a434850f5c4c86860d51fe1c236858235c2437b94",
    ("ktheory", "full:2", "--range=-8..8"): "5446701b075624601fd903ed9e004133167911568949ce684bdcfc7868633964",
    ("ktheory", "full:5"): "c0bf133ef75fed8c7f36871a130ea72cd2c51b70d0d34b78440e24eebad3a4b6",
    ("ktheory", "full:5", "--range=-8..8"): "f2ebfe03ef0e314bd3e71b68cae08908975ba711f0ff57e7f442c90f2fb859df",
    ("ktheory", "full:16"): "7e4cb47c2b8cb4c6feb6adf3d8a64bcc1cead5ebf77ad2be992dc4dd5f1d86a6",
    ("ktheory", "full:16", "--range=-8..8"): "bcd80a49363adb6a5a7c089a18bb375e7d2b8406bab9252d48f5f8aa80e02242",
    ("ktheory", "cuntz:2"): "02f6ffc6b8191734273c17f2a49c5e259a6c3df7405d31c6cfbb5b9b82fa900a",
    ("ktheory", "cuntz:2", "--range=-8..8"): "746b28e19a867aa19b8b5c2838b24b19edaa60f4bcb85c08f6e8f292a3059a15",
    ("ktheory", "chambers:2"): "a83276bb9cb98c271b10b69be36c1babbffc85f36e260942ca50595cdb454dae",
    ("ktheory", "chambers:2", "--range=-8..8"): "608e7c566d2925b62b0f6966e1f0482fac9a330799de4531251eaa1a2986148f",
    ("ktheory", "penrose"): "0a97483a3640d6c770e86839f787878a462ec23358d139b905136370d90ecded",
    ("ktheory", "penrose", "--range=-8..8"): "959c30192d562980a191e42fb191792a8dcb825f6d9b31ae2d4a3386c4186b19",
    ("ktheory", "tadpole"): "b9542b40c88f7df0dcf828acaf2105ef96a0b3ed50463baa3651f08ff1189287",
    ("ktheory", "tadpole", "--range=-8..8"): "28fceaceb548cccf31ba9c30f578cef850c7b0cf070ce9f9aefb51eb8ce2c409",
    # wide windows pin the far powers of x that phi is checked against
    ("ktheory", "sigma:12", "--range=-40..40", "--json"): "e813ad8ce9347067fcc21556f2997731cc330a7e2237070f3b54afb55b951cab",
    ("ktheory", "penrose", "--range=-200..200"): "8ab062bb0276df005599daface98e713d4d8bb41cfdeaa15e8fe45db4a6eeaa1",
    ("bratteli", "cycle:1", "--levels", "8"): "d8cfa6c12827ccbdf05d4f9433f9854cf39d8220170e28b57f925c6554f43ffc",
    ("bratteli", "cycle:1", "--levels", "8", "--json"): "efe19c34913923808ca9401eb928795e4f4935dbd9791718fb615d89adb53572",
    ("bratteli", "cycle:1", "--levels", "8", "--dot"): "6979c262caee746d6e7f3e723eb0e25697995c991a6eaddec2c09dfe7e0178dc",
    ("bratteli", "cycle:1", "--levels", "8", "--dot", "--json"): "e9b844532cb35fb6afcb08067a1e031bc478bdf47dbbda7b68d34fa61bf82ca7",
    ("bratteli", "cycle:5", "--levels", "8"): "3e395f417ab066fc4f5ac58451c431a202f0644b21988952aac9feb3fb526a9b",
    ("bratteli", "cycle:5", "--levels", "8", "--json"): "a88091d7eb0cca6973edd2a8cf10f94ea5f98f8c86e853aeaaffd8ffb7ff8517",
    ("bratteli", "cycle:5", "--levels", "8", "--dot"): "303329d4a7f6a250c048d9bb0a663e8ca1355e723c616d26e109b5e6f2f722c3",
    ("bratteli", "cycle:5", "--levels", "8", "--dot", "--json"): "98d7a713c9afc9e7bdad70ccf2dff13fab102c1995d32219668f06a226ef11c1",
    ("bratteli", "cycle:24", "--levels", "8"): "745f5764891822afe9f6b74166b8c0b137cd220968c20dcc396a270ba9153a62",
    ("bratteli", "cycle:24", "--levels", "8", "--json"): "2531e217a1df7396df97db78eb26486084c4451692e2587644c3c9e065163c84",
    ("bratteli", "cycle:24", "--levels", "8", "--dot"): "419ea7175c25e1d136b51d9b20e373c15bf07842c6a3c2acb76f7e2332aae8bc",
    ("bratteli", "cycle:24", "--levels", "8", "--dot", "--json"): "9fcbaaf37f412c716d455bb6c9b7d0ee4d291494d00a346317231daf22e5cd56",
    ("bratteli", "sigma:3", "--levels", "8"): "5487b6732b337c97539cdd5d83004da86f67e68f8bd7575d095518cc9532ca2b",
    ("bratteli", "sigma:3", "--levels", "8", "--json"): "f9fb8d65606c7e40b858d7ae1c28d3833b5b86d26c67eca474dad6ad8796f7c2",
    ("bratteli", "sigma:3", "--levels", "8", "--dot"): "522934334f0703c76c5b74d971700f3e465bff9a66c48d5e8974766e4cdc5ebd",
    ("bratteli", "sigma:3", "--levels", "8", "--dot", "--json"): "2a7f0ea2bca102f46ee2471ae57fb3aae65a9f53c4f64f66faf772485751a8cb",
    ("bratteli", "sigma:12", "--levels", "8"): "e3595a27e18181375fcf1ea887dfb2e1434a250469c7bd3b438260de49476c86",
    ("bratteli", "sigma:12", "--levels", "8", "--json"): "7f87c4e6225517202cdca06ed085109975364d2a742b11def00850782414e1a0",
    ("bratteli", "sigma:12", "--levels", "8", "--dot"): "a5c5fab2276fedc1ff0350a40c4459ecf22624834d57b9c1a7f21816acf276fa",
    ("bratteli", "sigma:12", "--levels", "8", "--dot", "--json"): "6f63893caa6b3e10c0347ca142878bb059dc7da966a2714ad63b9932bdb88b8b",
    ("bratteli", "lens:0", "--levels", "8"): "dd98d141b84b451526f85b0b2213b9912c37e062ffb2e9339bfaf58569549188",
    ("bratteli", "lens:0", "--levels", "8", "--json"): "c69b2f0dd02f0b1d8a8433e978d69843f5b142ea581b97de8223be2a9dff8492",
    ("bratteli", "lens:0", "--levels", "8", "--dot"): "95017d8606a8443efb7a86ec88e4cdfb80ec17570762bfb76169ec6a2ba6e314",
    ("bratteli", "lens:0", "--levels", "8", "--dot", "--json"): "7649d5d4b14e688d210ec56017ff364cf2ad8a54098b06c70d7ce243e7a2cce5",
    ("bratteli", "lens:2", "--levels", "8"): "07fb6db66af5a3a74bc991308f35f724d133e3cba00e11d9cc1d8567f48b3749",
    ("bratteli", "lens:2", "--levels", "8", "--json"): "1350780d19d258a6b3f7b80b2aa89e5272687ce6d0e686cf95c5c698257e698d",
    ("bratteli", "lens:2", "--levels", "8", "--dot"): "00512ff8e4b4a657abb75984b65ae33525b4fc9ea477478b360f5066ffbc58b0",
    ("bratteli", "lens:2", "--levels", "8", "--dot", "--json"): "b966fd76e748ae79f08f84d47d839415efa1aeda4113e5242b61bd825145f350",
    ("bratteli", "lens:8", "--levels", "8"): "b40c304a29af6079db6c8a0834431435cda24c437d9a80aeafc60130826a6bde",
    ("bratteli", "lens:8", "--levels", "8", "--json"): "4cbacbc64bc5aafcd17b454e24d284dd6743dbe2f9696f16603b60a53755b07d",
    ("bratteli", "lens:8", "--levels", "8", "--dot"): "98360178ff01e212c047df368eb20456332b1dc2ba47d763ae9ef932a80902b4",
    ("bratteli", "lens:8", "--levels", "8", "--dot", "--json"): "714c84874deb5c7cc9ceb405fb3fa5718273b3d83f2a5690dd7eee6092a12e7b",
    ("bratteli", "full:2", "--levels", "8"): "ed8edba64fd3c349cbb35d8f1cb3ac3ce232a78ee3e27cda97a313e9bba71da4",
    ("bratteli", "full:2", "--levels", "8", "--json"): "a5fc2d5648ee4daa84933dc094ac4e08f0034f1a15d7086a7fc81a599b04df5c",
    ("bratteli", "full:2", "--levels", "8", "--dot"): "b3bf3a3ce6f8b275d1d0592ff245cd979164ec7b434d3a0dbdafa01ace8c9cb3",
    ("bratteli", "full:2", "--levels", "8", "--dot", "--json"): "4d09b032842cdecfe69de0ef05232bb76e5f7ea14a27d1f25e053377b41e2998",
    ("bratteli", "full:5", "--levels", "8"): "613bb1c54a2ea0b7cab4c5a5e0d368c63fe117496fea80abb94f62f5ae82168c",
    ("bratteli", "full:5", "--levels", "8", "--json"): "982eb26c440d0fe83eccb59ffdc66d0f25838c3c67401a1edadda1651345927e",
    ("bratteli", "full:5", "--levels", "8", "--dot"): "7c627bb9481d0451cc88fb4ae4c024e818b7f1ae5a6f499cfd8bf6734ec99bcc",
    ("bratteli", "full:5", "--levels", "8", "--dot", "--json"): "0198f1e36153c352b3ab7c0a5462c87f7903204045b1125e5044fae8fcab2019",
    ("bratteli", "full:16", "--levels", "8"): "f2553a114cbcd44e67483c357c473cd680e3f66a1b6bbe2a4304a50e2aee10a4",
    ("bratteli", "full:16", "--levels", "8", "--json"): "0daad68e731cfd496144ae8f85da89c11f5f7289152d95025894e3f4216f5c5a",
    ("bratteli", "full:16", "--levels", "8", "--dot"): "557b199d97215f071fa139dd181faa89d7e129e2fc8e2f68236735e7072a7392",
    ("bratteli", "full:16", "--levels", "8", "--dot", "--json"): "10d4616f30da53aad61e5122f5904a187fdfe5d819015d6f9cfead29a3b5d2d8",
    ("bratteli", "cuntz:2", "--levels", "8"): "ed3b9737360e23857b88395e1d432eba0f5c40bd1b1e6b74e26f7c95beef3ef6",
    ("bratteli", "cuntz:2", "--levels", "8", "--json"): "bc427a4642effb6eb9f6b3a86239f44bf6cc0289f34756ce234442b834797c21",
    ("bratteli", "cuntz:2", "--levels", "8", "--dot"): "853f62b4ef95fde6dfd39e3762f2e424b4047ded5acae2986a36a415475f14a5",
    ("bratteli", "cuntz:2", "--levels", "8", "--dot", "--json"): "99d9cbae46e7b47c0631cd5aeefeb8e3484fa22570cdb38b203af170328c3438",
    ("bratteli", "chambers:2", "--levels", "8"): "ccc3b4c19511df1be757e3499ebe885032197f591f6a24faaa3480c966cc65b1",
    ("bratteli", "chambers:2", "--levels", "8", "--json"): "b57690e345e294512240622c7b2febf77dbca77addf129313e53a75664a7b6cb",
    ("bratteli", "chambers:2", "--levels", "8", "--dot"): "ccc3b4c19511df1be757e3499ebe885032197f591f6a24faaa3480c966cc65b1",
    ("bratteli", "chambers:2", "--levels", "8", "--dot", "--json"): "b57690e345e294512240622c7b2febf77dbca77addf129313e53a75664a7b6cb",
    ("bratteli", "penrose", "--levels", "8"): "1ab21596b461ed403e354e6cbf020495870cfefb9a0cc512e56876edd8da9149",
    ("bratteli", "penrose", "--levels", "8", "--json"): "b6feb1de0cceba4745076016c84d02dc86f9d5de5d949f7237f1cdbbab59ff61",
    ("bratteli", "penrose", "--levels", "8", "--dot"): "0e1f9fd3aa2a08001020d49111ff3ff1f11f2e4ea121cc6f4a93e453005f1d6f",
    ("bratteli", "penrose", "--levels", "8", "--dot", "--json"): "e5eb716ff7e5bf8abfb1ab3dc2b99c9a7e831cea2a615e3445725cafe6b6d285",
    ("bratteli", "tadpole", "--levels", "8"): "0e3a74673360fd05267f00bceea21ff32cecef9940dcf39dfb6e7dd4611abf0f",
    ("bratteli", "tadpole", "--levels", "8", "--json"): "32d8f1f940ddf1be8f851d9fc09e3582c927320da6f2694ba7dabaea0b49ee65",
    ("bratteli", "tadpole", "--levels", "8", "--dot"): "4700a7b0979fa6cb5a5019394bf985cf6cd6827e2bbd7a6dbb8d325a979a037d",
    ("bratteli", "tadpole", "--levels", "8", "--dot", "--json"): "a6f01691de24ce1cdebe1f6d1f7b702c55e17272e5f055eb891b5b0dcfdcbae6",
    ("analyze", "cycle:1"): "e12861ac08f1a492f7dda83f3be4552247754e6ea40d0c642fac3a75d5db0985",
    ("analyze", "cycle:1", "--json"): "a58577a8b2146f7c990960cc1faf209f2fb19b227609126a36d6111336f74262",
    ("analyze", "cycle:5"): "a93143827ea495eada444df5ff03fe2682144bfbe4d573f9dc70d41d7b823a47",
    ("analyze", "cycle:5", "--json"): "62be55b9f0f147915f8ea9d2b3b3e9728b3b41a9de2957a5b67df9736b006a9c",
    ("analyze", "cycle:24"): "f0511dea0cd1370ee3ee2d1c1410f3b9a098fafd1b89a978af642020f4b27d7c",
    ("analyze", "cycle:24", "--json"): "001c70eb5c7a7904cadaf21aaa781c0c2bbdd40759ba268f3d0a9a15af74d9a9",
    ("analyze", "sigma:3"): "fc40b99e17c0037f64e047aa7f03172bb99d2de049b5540eab4eee43e11478d3",
    ("analyze", "sigma:3", "--json"): "61aa240e6a38ae7a5e3451dad20b1e751bf87e6d11423c430afee00a67b4bf09",
    ("analyze", "sigma:12"): "c181c765971bb944a7bf974d586b2d8d48086e517ef0d7efc650fa45d1d2fe9d",
    ("analyze", "sigma:12", "--json"): "9925e25bddd2b4d1d36bdc8dd3fe77b4749bfc6f2bb37c18897336ad7e1c6124",
    ("analyze", "lens:0"): "1df62b6d64e11556554ed94b4be1c0229ab6a90cfcd33660b5b8b6500f270ef7",
    ("analyze", "lens:0", "--json"): "1c23b808569d6d8a2af81da4f02f592f90f9a1edeee1ea0220f705123a36bae2",
    ("analyze", "lens:2"): "e9fe7a8c4e99f5b02fbedbcbab617e6508e56daa0cfdff577c2445c43eef3d09",
    ("analyze", "lens:2", "--json"): "7ab7c210a39f3c12bd514298f978bb7f73894e7b4130a7d34df8fc34c83e8ab0",
    ("analyze", "lens:8"): "80390eb174a74841d0ae460abfc4a36fc3fc80f7ff002164d7fdd25d3e60d436",
    ("analyze", "lens:8", "--json"): "0d84af66ea4fb31eecba026da545a2bcf5d8e8db99780c8fd50467d7691c2f33",
    ("analyze", "full:2"): "932f07f857fd8884ddddda2470a2283000bdae3c71cfa30f9435a8b08c6759af",
    ("analyze", "full:2", "--json"): "bd14ad0516cdc5b484776212d7b0b5f682122bbeab9314aea3e57799c450c927",
    ("analyze", "full:5"): "72fabdec327f480d3c638e890dffa7e9c53d83df1bc07affa328f6b3ea63d325",
    ("analyze", "full:5", "--json"): "6f358489edc72c4a5c5161e905daad4b1c26bd4dc8cf70dbb13eae884fee5893",
    ("analyze", "cuntz:2"): "5f8c66b2081b55eb4e22e8876739aa8549f748344f1d05ee198a37800e8db8ed",
    ("analyze", "cuntz:2", "--json"): "931557b9ddce622cae822a424b817755f2bc1fe6cfec41128d04d807e871f9f5",
    ("analyze", "chambers:2"): "a07acf40495a8035d5c65cb418d325bccad73fe36f9229794b133e2fa66e4ff3",
    ("analyze", "chambers:2", "--json"): "c1e35be1d8e857b9984fc8923c1dc66646a0d2648a7b848d4feddbea853d87b8",
    ("analyze", "penrose"): "0a00700e67d4c3f73b9c975068d64e5c9d39cb791d88d4d4673af92bd8d3a7e3",
    ("analyze", "penrose", "--json"): "2ae3aa63b6ea4d326c4f3ec76749355dc068f128ff3834462f34745d7dfba095",
    ("analyze", "tadpole"): "cf824ed37a74bda83d646ef32d1dac6eb0c60048cd384cd93979bf213389dbb0",
    ("analyze", "tadpole", "--json"): "e8a82ad1213530a59e33404b2800f077312e253d2f2674f1f7a4b1671cf95cfb",
    ("analyze", "cycle:60"): "4eefa20c14eef939606bc3e1a405105a64546846b14055c5e9b3e5b9d1c5a6b8",
    ("analyze", "cycle:60", "--json"): "1101d91a2ae4397d08dfbb9dbdb9750a4372275c9b2c594a4f9773336fe22b8e",
    ("analyze", "sigma:18"): "9a7d2c0c42073c4309fb303e7dc91a076fd2871ac5c3c6afde9a45a2582b9a34",
    ("analyze", "sigma:18", "--json"): "daae3637e784b4447196197c509964afe33dd260e800110c8be3b3276d664396",
    ("leavitt", "penrose", "eval", "S(a)^* P(1) S(a) + 2 P(2)", "--json"): "60641dd10b59a33e91cbe391b39b6fdd51dc761822fa8b8088b9c776e3af77a9",
    ("leavitt", "penrose", "eval", "P(1)\u3000+ P(2)", "--json"): "29167461540cf3de13d41178fad1cc3c2b83ab40abc3ced7d38acee0e02f620e",
    ("leavitt", "penrose", "eval", "P(é)", "--json"): "21116089f507e24eedc6015e14f4780a29be09c2c5b8bbd41f1c4d2b3ddd2259",
    ("leavitt", "penrose", "eval", 'P(\x07)\t"\\', "--json"): "68a1a0956300a1d434a4ec5fd5f2468f07079705e043921df8fef44cec01017c",
    ("leavitt", "cuntz:2", "eval", "S(g1)^* S(g1) - P(1)", "--json"): "8c9bdadf49555489a48bfb4c862e96ad0e4c2888bb4bbb6ce192340174e47e52",
    ("leavitt", "sigma:3", "eval", "0", "--json"): "e7802507c9b80fe8e20b7128db716e823c96989e755d1a19b340d703de4027dd",
    ("ktheory", "nosuch:1", "--json"): "95e1e8ebf5f7523e06e42ffe098b5b1c7569c568a4a480d22aa7b0bff903566d",
    ("ktheory", "nosuch:1"): "721cfc3cb28208f486b08e5bf871770a80ffb4fb1e6335daaec90d5f9601b4fc",
    ("ktheory", "penrose", "--range=1..é", "--json"): "8e3eb492175e5b8bcf6db98dcd79a288a6e60b604a60c43522b32ad4edd6bf5f",
    # re-recorded when a non-integer catalog parameter got the message naming family and parameter
    ("analyze", "cycle:é", "--json"): "5e87f1d22da89ca9fbb063c5499354f96631b8668e8583d1ddd41403a512d105",
    ("catalog", "suite", "kk"): "9512338d3242216783497973e6175c78d898581e0c0f5b9a538377dc61f7ed5c",
    ("catalog", "suite", "kk", "--json"): "54f9a2745cc2c128b0630ba79bf29eb6935fb0c8ccfce3ca520cbc51c34d9ede",
    ("catalog", "suite", "k0"): "40c925222d11c031269b7a07fe347392ea258b44c700cec73b0d0ac4b42c40af",
    ("catalog", "suite", "k0", "--json"): "acc17de8d4f415c924ab94284f37effce05207d78bc3bfcbdea080d87ce0a9c7",
    ("catalog", "suite", "negative_controls"): "024357799f37364b3059dc2c067fee8f8310bc12947b6db901e5807622646547",
    ("catalog", "suite", "negative_controls", "--json"): "3fd00cdc409f71dc44636f8d7fb8c2e74001309b43dac845e8334f4931b95f0f",
    ("catalog", "suite", "symbolic"): "9663f42bb04ee8acc2c507da1fc9156ec0d731198fcf759e24eb6a7f05448acc",
    ("catalog", "suite", "symbolic", "--json"): "0fe0cd111c9f3d61ec6bf472d71aab7cf1966ac1ae7da3a4f1ec158180ca1afd",
    ("catalog", "suite", "penrose"): "c02cd40bd0aea8eacec451bc0ae7d4f02d7d7a6061d6831294384fe4af97259d",
    ("catalog", "suite", "penrose", "--json"): "2de5f54882ef4e9f45f7a694ba5672eb7433587ff51621208e81c35014001276",
    ("catalog", "suite", "cpq"): "92c18510feeb0854fb7cc66653b5bf389603168f6e5609d9f3ed45da36b065d1",
    ("catalog", "suite", "cpq", "--json"): "f49c2fa47215192d657f700458272e07e13aa41fd1d3efa6376f798cf394b32c",
    ("catalog", "suite", "uhf"): "57310b55444f8c97d0b6900bd37a762d673db0d1cdce9e2d80f09982495c13b2",
    ("catalog", "suite", "uhf", "--json"): "53960f3e1a92be59841e588868b6069ddfc8acccf126ee6affd8a78144e273b6",
    ("catalog", "suite", "embeddings"): "e16687f81285328b2c9a525cf95edf3f81381af0e282e189a00a46e948eb291f",
    ("catalog", "suite", "embeddings", "--json"): "6c070793bd5009541b1222fdfed5b0dd3004c56d901a413b192f96cd998fff99",
}


def _digest(code, out, err) -> str:
    return hashlib.sha256(f"{code}\n{out}\0{err}".encode()).hexdigest()


@pytest.mark.parametrize("command", ["ktheory", "bratteli", "analyze", "leavitt", "catalog"])
def test_rendered_output_is_pinned(capsys, command):
    pinned = {argv: h for argv, h in PINNED_OUTPUTS.items() if argv[0] == command}
    assert {argv: _digest(*run(capsys, *argv)) for argv in pinned} == pinned


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


def test_leavitt_coefficients_are_decimal_digits(capsys):
    # '²' is str.isdigit() but no decimal digit, so int() would refuse it
    for text, message in (
        ("²P(1)", "position 0: expected 'P', 'S', or '(', found '²'"),
        ("1²", "position 1: unexpected trailing input '²'"),
    ):
        code, data, err = run_json(capsys, "leavitt", "penrose", "eval", text)
        assert (code, data) == (2, None)
        assert json.loads(err)["error"] == {"type": "ParseError", "message": message}
    code, data, err = run_json(capsys, "leavitt", "penrose", "eval", "٣P(1)")  # Arabic-Indic 3
    assert code == 0 and data["normal"] == "3P(1)"


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


# -- integers longer than Python's int <-> str digit limit ------------------------------


def test_integers_past_the_digit_limit_are_read_and_printed_whole(capsys):
    # a fresh process with the least digit limit (640) gives the in-process answers
    coeff = "7" * 700
    cases = [
        (("bratteli", "cuntz:10", "--levels", "700"), "1" + "0" * 698),
        (("bratteli", "cuntz:10", "--levels", "700", "--json"), "1" + "0" * 698),
        (("ktheory", "cuntz:10", "--range=0..700", "--json"), "1" + "0" * 700),
        (("leavitt", "penrose", "eval", coeff + "P(1)"), coeff + "P(1)"),
    ]
    src = os.path.dirname(os.path.dirname(afcore.__file__))
    for argv, digits in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "afcore", *argv],
            env=dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS="640"),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert digits in proc.stdout
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="Python before 3.10.7 has no digit limit"
)
def test_main_restores_the_callers_digit_limit(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        for argv in (["ktheory", "penrose"], ["ktheory", "nosuch:1"], ["--help"], ["nosuch"]):
            main(argv)
            capsys.readouterr()
            assert sys.get_int_max_str_digits() == 1000, argv
    finally:
        sys.set_int_max_str_digits(before)


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


def test_catalog_suite_refuses_a_parameter_given_twice(capsys):
    code, out, err = run(capsys, "catalog", "suite", "cpq", "n=2", "n=3")
    assert (code, out) == (2, "")
    assert err == "error: suite 'cpq' parameter 'n' is given more than once\n"


def test_catalog_suite_undeclared_or_non_int_param(capsys):
    for argv, message in (
        (("penrose", "foo=1"), "suite 'penrose' takes parameters (), got unexpected 'foo'"),
        (("cpq", "m=3"), "suite 'cpq' takes parameters (n:int=None), got unexpected 'm'"),
        (("cpq", "n=abc"), "suite 'cpq' parameter 'n' must be an int, got 'abc'"),
    ):
        code, out, err = run(capsys, "catalog", "suite", *argv)
        assert (code, out) == (2, "")
        assert message in err


def test_catalog_suite_unknown(capsys):
    code, out, err = run(capsys, "catalog", "suite", "mystery")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize(
    "argv, family, count",
    [
        (("catalog", "build", "full:5000"), "full", 25_000_000),
        (("catalog", "suite", "cpq", "n=2000"), "sigma", 2_001_000),
    ],
)
def test_a_catalog_graph_above_the_edge_guard_exits_2_at_once(capsys, argv, family, count):
    message = f"catalog graph {family!r} would have {count} edges, more than the guard of 1000000"
    start = time.perf_counter()
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"type": "GuardError", "message": message}}
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "argv, message",
    [
        (("product", "full:100", "full:100"),
         "the product of 'full100' and 'full100' would have 100000000 edges"),
        (("linegraph", "full:300"), "the line graph of 'full300' would have 27000000 edges"),
        (("embeddings", "full:40"),  # the default codomain is the square
         "the product of 'full40' and 'full40' would have 2560000 edges"),
    ],
)
def test_a_derived_graph_above_the_edge_guard_exits_2_at_once(capsys, argv, message):
    message += ", more than the guard of 1000000"
    start = time.perf_counter()
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"type": "GuardError", "message": message}}
    assert time.perf_counter() - start < 1.5


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


# -- the exit-code contract under random command lines -----------------------------------

_FAMILIES = ["penrose", "sigma", "cuntz", "bouquet", "chambers", "lens", "cycle", "full",
             "tadpole", "mystery"]
_JUNK_SIZES = ["x", "1.5", "", "n=3", "k=2", "labels=01", "n=2,n=3", "-"]


def _tokens(largest: int):
    """Catalog tokens with sizes -2..largest, non-integer sizes and bare names."""
    size = st.integers(-2, largest).map(str) | st.sampled_from(_JUNK_SIZES)
    sized = st.tuples(st.sampled_from(_FAMILIES), size).map(":".join)
    return sized | st.sampled_from(_FAMILIES)


_ATOMS = ["P(1)", "P(2)", "P(v0)", "S(a)", "S(b)", "S(c1)", "S(e1_1)", "S(e1_2)", "S(g1)",
          "S(ell)", "S(d1)", "^*", "+", "-", ".", "(", ")", "2", "0", " ", "P", "S(", "^",
          "#", "é", "\t", "x", "**", "P()", "S(zz)"]
_EXPRS = st.lists(st.sampled_from(_ATOMS), max_size=8).map("".join)
_LEVELS = st.integers(-2, 40).map(str) | st.sampled_from(["x", "", "1001"])
_RANGES = st.sampled_from(["-3..3", "0..5", "-2..0", "5..-5", "x", "1..", "-1001..0", "3"])
_DIMS = st.lists(st.integers(-1, 4).map(str), max_size=9).map(",".join) | st.sampled_from(
    ["x", "1,,2", "", "1,1,1,1,1,1,1,1,1,1,1"])
_FLAGS = st.sampled_from([["--json"], ["--dot"], ["-h"]]) | st.tuples(
    st.sampled_from(["--levels", "--range", "--guard"]),
    _LEVELS | _RANGES).map(list)


@st.composite
def _command_lines(draw):
    """One command with arguments that may be refused; sizes stay small where the
    work grows fast: two-graph commands take sizes up to 12, and ``analyze`` no
    ``full:n`` past 8, whose cycle count is exponential in n."""
    pick = draw(st.integers(0, 11))
    one, small = _tokens(40), _tokens(12)
    if pick == 0:
        token = draw(one)
        argv = ["analyze", token if not token.startswith("full:") else draw(_tokens(8))]
    elif pick == 1:
        argv = ["product", *draw(st.tuples(small, small) | st.just(("full:100", "full:100")))]
    elif pick == 2:
        argv = ["linegraph", draw(one | st.just("full:101"))]
    elif pick == 3:
        argv = ["embeddings", *draw(st.lists(small, min_size=1, max_size=2)
                                    | st.just(["full:40"]))]
    elif pick == 4:
        argv = ["bratteli", draw(one), "--levels", draw(_LEVELS)]
    elif pick == 5:
        argv = ["ktheory", draw(one), "--range", draw(_RANGES)]
    elif pick == 6:
        argv = ["leavitt", draw(one), "eval", draw(_EXPRS)]
    elif pick == 7:
        argv = ["leavitt", draw(one), "equals", draw(_EXPRS), draw(_EXPRS)]
    elif pick == 8:
        argv = ["picard", "--dims", draw(_DIMS)]
    elif pick == 9:
        argv = ["catalog", draw(st.sampled_from(["list", "build"])), draw(one)]
    elif pick == 10:
        argv = ["catalog", "suite", draw(st.sampled_from(
            ["cpq", "uhf", "penrose", "kk", "embeddings", "symbolic", "mystery"])),
            *draw(st.lists(st.sampled_from(["n=2", "n=12", "n=x", "n", "=3", "m=2", "n=-2"]),
                           max_size=2))]
    else:
        argv = ["check-morphism", draw(st.sampled_from(["no-such.doc", ".", "penrose"]))]
    for flag in draw(st.lists(_FLAGS, max_size=2)):
        argv += flag
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_command_lines())
def test_random_command_lines_exit_0_1_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
