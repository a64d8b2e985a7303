"""The command-line parser against the argparse tree it replaced, its help
text, and what importing and running the CLI loads."""

import argparse
import contextlib
import functools
import hashlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import afcore
from afcore import cli


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    """The argparse tree the command table replaced, kept as a reference: the same
    subparsers, options and defaults, with handlers from ``afcore.cli``.  One
    deliberate change: the hidden ``--guard`` options are gone, as from the table."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument(
        "-o", "--output", metavar="FILE", help="write the graph file here"
    )

    parser = argparse.ArgumentParser(
        prog="afcore",
        description="Exact invariants of finite directed graphs and their towers.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser(
        "analyze", parents=[common], help="classify a graph and print basics"
    )
    p.add_argument("graph", help="graph file or catalog token")
    p.set_defaults(func=cli._cmd_analyze)

    p = sub.add_parser(
        "product", parents=[common, out], help="categorical product of two graphs"
    )
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cli._cmd_product)

    p = sub.add_parser("linegraph", parents=[common, out], help="the line graph")
    p.add_argument("graph")
    p.set_defaults(func=cli._cmd_linegraph)

    p = sub.add_parser(
        "check-morphism",
        parents=[common],
        help="validate a morphism document and test admissibility",
    )
    p.add_argument("file", help="morphism document path")
    p.set_defaults(func=cli._cmd_check_morphism)

    p = sub.add_parser(
        "embeddings",
        parents=[common],
        help="enumerate admissible embeddings (default codomain: the square)",
    )
    p.add_argument("domain")
    p.add_argument("codomain", nargs="?", default=None)
    p.set_defaults(func=cli._cmd_embeddings)

    p = sub.add_parser(
        "bratteli", parents=[common], help="tower sizes level by level"
    )
    p.add_argument("graph")
    p.add_argument("--levels", type=int, required=True, metavar="K")
    p.add_argument("--dot", action="store_true", help="emit Graphviz instead")
    p.set_defaults(func=cli._cmd_bratteli)

    p = sub.add_parser(
        "ktheory", parents=[common], help="all computable invariants of a graph"
    )
    p.add_argument("graph")
    p.add_argument(
        "--range",
        default="-3..3",
        metavar="A..B",
        help="degree window (default -3..3)",
    )
    p.set_defaults(func=cli._cmd_ktheory)

    p = sub.add_parser(
        "leavitt", parents=[], help="evaluate or compare algebra expressions"
    )
    p.add_argument("graph")
    leav_sub = p.add_subparsers(dest="leavitt_command", metavar="ACTION")
    pe = leav_sub.add_parser("eval", parents=[common], help="normal form of an expression")
    pe.add_argument("expr")
    pe.set_defaults(func=cli._cmd_leavitt_eval)
    pq = leav_sub.add_parser("equals", parents=[common], help="algebra equality")
    pq.add_argument("left")
    pq.add_argument("right")
    pq.set_defaults(func=cli._cmd_leavitt_equals)

    p = sub.add_parser(
        "picard", parents=[common], help="Picard group of a finite-dimensional algebra"
    )
    p.add_argument(
        "--dims", required=True, metavar="D1,D2,...", help="matrix block sizes"
    )
    p.set_defaults(func=cli._cmd_picard)

    p = sub.add_parser("catalog", help="named graph families and suites")
    cat_sub = p.add_subparsers(dest="catalog_command", metavar="ACTION")
    pc = cat_sub.add_parser("list", parents=[common], help="list known families")
    pc.set_defaults(func=cli._cmd_catalog_list)
    pc = cat_sub.add_parser("build", parents=[common, out], help="emit a graph file")
    pc.add_argument("token", help="family token, e.g. sigma:3")
    pc.set_defaults(func=cli._cmd_catalog_build)
    pc = cat_sub.add_parser("suite", parents=[common], help="run a verification suite")
    pc.add_argument("suite", help="suite name (see the package docs)")
    pc.add_argument("params", nargs="*", help="suite parameters as k=v")
    pc.set_defaults(func=cli._cmd_catalog_suite)

    return parser



def reference(argv):
    """What the argparse tree made of ``argv``: its values, or the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = reference_parser().parse_args(argv)
        except SystemExit as stop:
            return stop.code
    if not hasattr(ns, "func"):  # no command or action: usage, exit 2
        return 2
    return {k: v for k, v in vars(ns).items()
            if k not in ("command", "leavitt_command", "catalog_command")}


def table(argv):
    """What the command table makes of ``argv``: its values, or the exit code."""
    try:
        return vars(cli.parse_args(argv))
    except cli._Exit as stop:
        return stop.args[0]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- the same values as argparse ---------------------------------------------------------

ACCEPTED = [
    ["bratteli", "penrose", "--levels", "3"],
    ["bratteli", "penrose", "--levels=3", "--dot"],
    ["bratteli", "--lev", "3", "penrose", "--js"],  # unique prefixes, interleaved
    ["bratteli", "penrose", "--l=2", "--d", "--levels", "4"],  # the last --levels wins
    ["bratteli", "penrose", "--levels", "-5"],  # a negative number is a value
    ["product", "penrose", "-oFILE", "sigma:2"],
    ["product", "-o", "a", "penrose", "sigma:2", "-o=b"],
    ["linegraph", "--output", "-", "cycle:3"],
    ["ktheory", "penrose", "--range=-3..3", "--json"],
    ["ktheory", "--range", "-.5", "penrose"],
    ["leavitt", "penrose", "eval", "--json", "--", "-P(1)"],
    ["leavitt", "penrose", "eval", "-P(1) + P(2)"],  # starts with - and holds a space
    ["leavitt", "--", "penrose", "equals", "P(1)", "-5"],
    ["embeddings", "--json", "sigma:2", "sigma:3"],
    ["catalog", "suite", "cpq", "n=2", "--json"],
    ["catalog", "suite", "cpq", "--", "--json", "-x"],
    ["catalog", "list", "--j"],
    ["catalog", "build", "sigma:3", "--ou=x.graph"],
]

REJECTED = [
    [],
    ["bogus"],
    ["--json", "analyze", "penrose"],
    ["leavitt", "penrose"],
    ["leavitt", "penrose", "--json", "eval", "P(1)"],
    ["leavitt", "penrose", "eval", "-P(1)"],
    ["leavitt", "penrose", "--", "eval", "-P(1)"],
    ["catalog", "--json", "list"],
    ["ktheory", "penrose", "--range", "-3..3"],
    ["bratteli", "penrose"],
    ["bratteli", "penrose", "--levels", "x"],
    ["bratteli", "penrose", "--dot=yes", "--levels", "3"],
    ["embeddings", "penrose", "--json", "sigma:2"],  # argparse closes [codomain] at --json
    ["embeddings", "penrose", "--guard", "-5"],  # no search bound is an option
    ["embeddings", "sigma:2", "--guard", "0"],
    ["embeddings", "--json", "sigma:2", "sigma:3", "--g=7"],
    ["picard", "--dims", "2,2", "--guard", "-1"],
    ["picard", "--dims", "1,2", "--guard", "3"],
    ["analyze", "penrose", "--json", "--"],
    ["analyze", "penrose", "extra"],
    ["analyze", "--=x", "penrose"],  # ambiguous
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_accepted_forms_give_the_values_argparse_gave(argv):
    got = table(argv)
    assert isinstance(got, dict) and got == reference(argv)


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_rejected_forms_exit_2_with_usage(argv):
    assert reference(argv) == 2
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: afcore") and ": error: " in error


def test_refusals_name_the_reason():
    for argv, reason in (
        ([], "afcore: error: the following arguments are required: COMMAND"),
        (["leavitt", "penrose"],
         "afcore leavitt: error: the following arguments are required: ACTION"),
        (["leavitt", "penrose", "evil"], "afcore leavitt: error: argument ACTION: "
         "invalid choice: 'evil' (choose from 'eval', 'equals')"),
        (["bratteli", "penrose"],
         "afcore bratteli: error: the following arguments are required: --levels"),
        (["ktheory", "g", "--range", "-3..3"],
         "afcore ktheory: error: argument --range: expected one argument"),
        (["catalog", "--json", "list"],
         "afcore catalog list: error: unrecognized arguments: --json"),
        (["leavitt", "g", "eval", "--js=1", "x"],
         "afcore leavitt graph eval: error: argument --json: ignored explicit argument '1'"),
    ):
        code, out, err = run(argv)
        assert (code, out, err.splitlines()[-1]) == (2, "", reason)


# every leaf command: the words before its own arguments, the fewest and most
# values its positionals take, and its options as (flag, takes a value, required)
_JSON = ("--json", False, False)
_OUT = [("--output", True, False), ("-o", True, False)]
LEAVES = {
    "analyze": (["analyze"], (1, 1), [_JSON]),
    "product": (["product"], (2, 2), [_JSON, *_OUT]),
    "linegraph": (["linegraph"], (1, 1), [_JSON, *_OUT]),
    "check-morphism": (["check-morphism"], (1, 1), [_JSON]),
    "embeddings": (["embeddings"], (1, 2), [_JSON]),
    "bratteli": (["bratteli"], (1, 1),
                 [_JSON, ("--levels", True, True), ("--dot", False, False)]),
    "ktheory": (["ktheory"], (1, 1), [_JSON, ("--range", True, False)]),
    "leavitt eval": (["leavitt", "penrose", "eval"], (1, 1), [_JSON]),
    "leavitt equals": (["leavitt", "penrose", "equals"], (2, 2), [_JSON]),
    "picard": (["picard"], (0, 0), [_JSON, ("--dims", True, True)]),
    "catalog list": (["catalog", "list"], (0, 0), [_JSON]),
    "catalog build": (["catalog", "build"], (1, 1), [_JSON, *_OUT]),
    "catalog suite": (["catalog", "suite"], (1, 3), [_JSON]),
}
# values as they come, and ones that look like options: negative numbers and
# tokens with a space are values, ``-1..2`` and ``-P(1)`` are unknown options
VALUES = st.sampled_from(["penrose", "x", "n=2", "3", "", "-"]) | st.sampled_from(
    ["-5", "-.5", "-P(1) + 1", "S(a)^* S(a)", "-1..2", "-P(1)"])
OPTION_VALUES = st.sampled_from(["3", "0", "12", "-3..3", "1,2"]) | st.sampled_from(
    ["-5", "-.5", "x", "", "-a b", "-1..2"])
STRAYS = ["--bogus", "-x", "-P(1)", "--json=x", "--=3", "-h", "--help", "--he", "x", "--json"]


def test_leaves_cover_the_table():
    assert set(LEAVES) == {path for path, entry in cli.COMMANDS.items() if entry[0]}


class _LookupsOnly:
    """A stand-in for ``cli.COMMANDS`` that refuses to be listed, and with
    ``lookups=False`` refuses lookups too."""

    def __init__(self, table, lookups):
        self.table, self.lookups = table, lookups

    def __getitem__(self, path):
        assert self.lookups, f"a parse looked up COMMANDS[{path!r}]"
        return self.table[path]

    def __iter__(self):
        raise AssertionError("a parse listed COMMANDS")


def test_parse_reads_the_tables_made_at_import(monkeypatch):
    # a command line that parses reads only the per-path tables; help and a
    # refusal look entries up, and nothing lists the whole table on a call
    leaves = [head + ["x"] * fewest + [t for flag, _, required in options if required
                                         for t in (flag, "1")]
              for head, (fewest, _), options in LEAVES.values()]
    others = [["leavitt", "penrose", "evil"], ["leavitt", "penrose", "eval", "--help"]]
    expected = [table(argv) for argv in leaves], [run(argv) for argv in others]
    assert all(isinstance(values, dict) for values in expected[0])
    assert [code for code, _, _ in expected[1]] == [2, 0]
    monkeypatch.setattr(cli, "COMMANDS", _LookupsOnly(cli.COMMANDS, lookups=False))
    got = [table(argv) for argv in leaves]
    monkeypatch.setattr(cli, "COMMANDS", _LookupsOnly(cli.COMMANDS.table, lookups=True))
    assert (got, [run(argv) for argv in others]) == expected


def _option(flag, takes_value):
    names = st.sampled_from([flag] if len(flag) == 2 else [flag, flag[:3], flag[:4]])
    if not takes_value:
        return names.map(lambda name: [name])
    pair = st.tuples(names, OPTION_VALUES)
    forms = [pair.map(list), pair.map(lambda nv: [nv[0] + "=" + nv[1]])]
    if len(flag) == 2:  # -oFILE
        forms.append(pair.map(lambda nv: ["".join(nv)]))
    return st.one_of(forms)


@st.composite
def command_lines(draw, path):
    """An argv for ``path``: its values and options in every form and order, a
    ``--`` now and then, and in half of them one fault: a value too few or too
    many, an option without its value, a stray token, or a bad path."""
    head, (fewest, most), options = LEAVES[path]
    fault = draw(st.integers(0, 13))
    n_values = draw(st.integers(fewest, most) if fault != 0 else
                    st.sampled_from([n for n in (fewest - 1, most + 1) if n >= 0]))
    pieces = [[draw(VALUES)] for _ in range(n_values)]
    for flag, takes_value, required in options:
        pieces += draw(st.lists(_option(flag, takes_value), min_size=required and fault != 1,
                                max_size=2))
    if fault == 2:
        pieces.append([draw(st.sampled_from([flag for flag, takes, _ in options if takes]
                                            or ["--json=x"]))])
    if fault == 3:
        pieces.append([draw(st.sampled_from(STRAYS))])
    argv = list(head) + [t for piece in draw(st.permutations(pieces)) for t in piece]
    if fault == 4:
        del argv[len(head) - 1]  # the last path word missing
    elif fault == 5:
        argv[0] = "bogus"
    elif fault == 6:
        argv.insert(draw(st.integers(0, len(head) - 1)), draw(st.sampled_from(STRAYS)))
    if draw(st.integers(0, 2)) == 0:
        low = 0 if fault == 7 else min(len(head), len(argv))
        argv.insert(draw(st.integers(low, len(argv))), "--")
    return argv


@pytest.mark.parametrize("path", sorted(LEAVES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_table_agrees_with_argparse(path, data):
    argv = data.draw(command_lines(path), label="argv")
    expected = reference(argv)
    assert table(argv) == expected
    if expected == 2:
        code, out, err = run(argv)
        assert (code, out) == (2, "") and err.startswith("usage: afcore")
        assert ": error: " in err.splitlines()[-1]


# -- help -------------------------------------------------------------------------------

TOP_HELP = """\
usage: afcore [-h] COMMAND ...

Exact invariants of finite directed graphs and their towers.
A graph is a graph file or a catalog token.

  analyze             classify a graph and print basics
  product             categorical product of two graphs
  linegraph           the line graph
  check-morphism      validate a morphism document and test admissibility
  embeddings          enumerate admissible embeddings (default codomain: the square)
  bratteli            tower sizes level by level
  ktheory             all computable invariants of a graph
  leavitt             evaluate or compare algebra expressions
  picard              Picard group of a finite-dimensional algebra
  catalog             named graph families and suites

  -h, --help          show this help and exit
"""

# sha256 of the stdout of ``afcore ... --help`` for the top level and every path
PINNED_HELP = {
    ("--help",): "2b48ef9a295e84f994ee17743a3dffc4302438e1637da08937b398e6e2f5401e",
    ("analyze", "--help"): "cb144b7b7ba9017e6fa102737da0cf91ec273e5a362798e131acd7ba58bb17ae",
    ("product", "--help"): "f05de0df1de624219bfe89492a1582d71670b1dedd28009c793fe2df3ff87156",
    ("linegraph", "--help"): "4afce66ad497538d088cd4bb482791072a2b154109b7accba642d32d76c154cc",
    ("check-morphism", "--help"): "6282de95d708efdd5646e3ca8e071888ab43261283f687fd40c5938340ba3eb5",
    ("embeddings", "--help"): "e4464c6b40f71ea19456abb25bd170b7bb8e85c465f2bbf4a8411f4abd862dca",
    ("bratteli", "--help"): "1123fc8243df1a667da30353738e2c165be54993553ce41d6cb64c2d07fbca2c",
    ("ktheory", "--help"): "27c926a2e02b136d5c4c422623a388f9be80f238fa25fb1577f5674de7014ecc",
    ("leavitt", "--help"): "c1137703224a90e352ee2f1f74fd295c94792f923ae4481e6501d3377b464c1b",
    ("picard", "--help"): "81d22deb85c0e9cb2e688b5abb6e14d1e41ed2d2c31a4570c131f65a13146766",
    ("catalog", "--help"): "0664b763e4e5484f3ff9e130fb978e4332c8ed91a32caa9c7818225e5e3c4ac6",
    ("catalog", "list", "--help"): "8fcb34bfdbf1f072b021fb0237663e45b4e7e108b9238c82af87d6a0326fa9df",
    ("catalog", "build", "--help"): "297980c8486d0ab0a7d523ae47d01f9e246e5b7166bf5be70bb7dc8107c1cb91",
    ("catalog", "suite", "--help"): "6358e546483cc2c8826f10697614050d34e052e5078c78be12d1521e1155558d",
    ("leavitt", "penrose", "eval", "--help"): "076c8c76fb32a8b1537401f17247fb9fb9758375b70535c974e8ce593873dca1",
    ("leavitt", "penrose", "equals", "--help"): "f7190507e92ce8fe7d58579c7e99caa5a818e12a31627ad25a09f482ace16836",
}


def test_top_level_help():
    for flag in ("-h", "--help", "--he"):
        assert run([flag]) == (0, TOP_HELP, "")


@pytest.mark.parametrize("columns", ["30", "250"])
def test_help_is_pinned_whatever_the_terminal_width(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    got = {}
    for argv in PINNED_HELP:
        code, out, err = run(list(argv))
        assert (code, err) == (0, "")
        got[argv] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_HELP


def test_help_wins_over_errors_found_later():
    assert run(["analyze", "a", "b", "--bogus", "-h"])[0] == 0
    assert run(["bratteli", "penrose", "--levels", "x", "-h"])[0] == 2


# -- what the CLI loads ------------------------------------------------------------------


def test_import_and_run_leave_argparse_unloaded():
    src = os.path.dirname(os.path.dirname(afcore.__file__))
    script = (
        "import sys, afcore.cli\n"
        "loaded = 'argparse' in sys.modules\n"
        "codes = [afcore.cli.main(argv) for argv in (['leavitt', 'penrose', 'eval', 'P(1)'],\n"
        "         ['ktheory', 'penrose', '--json'], ['--help'], ['bogus'])]\n"
        "print(loaded, 'argparse' in sys.modules, codes)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "False False [0, 0, 0, 2]"
