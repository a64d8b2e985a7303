"""Command-line interface.

The command line is read against one table, ``COMMANDS``, one entry per command
path, from which each path's flags, positionals and action words are derived
once, at import; the parser reads argv once and as argparse did
(``--opt=value``, unique prefixes of long options, ``-oFILE``, ``--`` ending
the options).  A refused
command line exits 2 with ``usage: ...`` and ``afcore ...: error: <reason>`` on
stderr; ``-h``/``--help`` prints help from the table on stdout.

Every subcommand takes graphs either as a path to a graph file or as a
catalog token (``penrose``, ``sigma:3``, ``cuntz:n=2`` ...).  ``--json``
switches any subcommand to machine-readable output: exactly the text of
``json.dumps(jsonable(x), indent=2, sort_keys=True)`` and a newline, i.e. a
two-space indent, keys sorted as strings after conversion (degree keys come
out ``"-1" < "-2" < "0"``), non-ASCII and control characters as ``\\uXXXX``
escapes, and exact integers.  One writer renders every payload, the error
payload on stderr included.

Exit codes: 0 success; 1 a verification answered "no" (non-admissible
morphism, unequal elements, failed suite); 2 usage, parse, or data errors.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import catalog, graphs, ktheory, leavitt, linalg, ops
from .errors import ArtifactError, GuardError
from .graphs import Graph
from .report import CheckReport


# -- plain-data conversion ----------------------------------------------------


def _key_str(k) -> str:
    if isinstance(k, bool):  # bool first: bool is an int subclass
        return "true" if k else "false"
    return k if isinstance(k, str) else str(k)


def jsonable(x):
    """Recursively convert package values to JSON-serializable data."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, linalg.Matrix):
        return [list(r) for r in x.rows]
    if isinstance(x, CheckReport):
        return {
            "title": x.title,
            "ok": x.ok,
            "items": [
                {"label": i.label, "ok": i.ok, "detail": i.detail} for i in x.items
            ],
        }
    if isinstance(x, Graph):
        return {
            "name": x.name,
            "vertices": list(x.vertices),
            "edges": [[e.eid, e.src, e.dst] for e in x.edges],
        }
    # exact types: a record (a NamedTuple) that reaches the writer is refused
    if type(x) is dict:
        return {_key_str(k): jsonable(v) for k, v in x.items()}
    if type(x) in (list, tuple):
        return [jsonable(v) for v in x]
    raise TypeError(f"cannot convert {type(x).__name__} to JSON data")


_escape = json.encoder.encode_basestring_ascii
_CHUNK = 1 << 14  # pieces of ``--json`` text held before they are written out


def _put(x, out: list, nl: str, spill=None) -> None:
    """Append the JSON text of ``x`` to ``out``, converting package values on
    the way.  ``nl`` is a newline and the current indent, or ``""`` for one
    line with ``", "`` separators.  ``spill``, if given, is called with
    ``out`` whenever it holds more than ``_CHUNK`` pieces."""
    if spill and len(out) > _CHUNK:
        spill(out)
    if isinstance(x, str):
        out.append(_escape(x))
    elif x is None or isinstance(x, bool):
        out.append("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif type(x) in (list, tuple, dict):  # exact types, as in ``jsonable``
        if not x:
            out.append("{}" if type(x) is dict else "[]")
            return
        inner = nl and nl + "  "
        sep = "," + inner if nl else ", "
        if type(x) is dict:
            out.append("{" + inner)
            for i, (k, v) in enumerate(sorted({_key_str(k): v for k, v in x.items()}.items())):
                out.append(f"{sep if i else ''}{_escape(k)}: ")
                _put(v, out, inner, spill)
            out.append(nl + "}")
            return
        kinds = set(map(type, x))
        if kinds <= {int, str}:  # a row of numbers and names: one piece
            items = map(str, x) if str not in kinds else [
                _escape(v) if type(v) is str else str(v) for v in x]
            out.append(f"[{inner}{sep.join(items)}{nl}]")
            return
        out.append("[" + inner)
        for i, v in enumerate(x):
            if i:
                out.append(sep)
            _put(v, out, inner, spill)
        out.append(nl + "]")
    else:
        _put(jsonable(x), out, nl, spill)


def _json_text(x) -> str:
    """``json.dumps(jsonable(x), indent=2, sort_keys=True)`` in one walk and one join."""
    out: list = []
    _put(x, out, "\n")
    return "".join(out)


def _emit_json(payload) -> None:
    """Write ``_json_text(payload)`` and a newline to stdout: in one write for a
    small payload, in chunks of ``_CHUNK`` pieces for a large one."""
    out: list = []
    _put(payload, out, "\n", _spill)
    out.append("\n")
    _spill(out)


def _spill(out: list) -> None:
    sys.stdout.write("".join(out))
    out.clear()


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# -- graph argument resolution --------------------------------------------------


def resolve_graph(token: str) -> Graph:
    """A file path if one exists at ``token``, else a catalog token."""
    if os.path.isfile(token):
        with open(token, "r", encoding="utf-8") as fh:
            return graphs.parse_graph(fh.read())
    return catalog.build_token(token)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_analyze(args) -> int:
    g = resolve_graph(args.graph)
    info = graphs.classify(g)
    gamma = graphs.adjacency(g)
    if args.json:
        _emit_json(
            {
                "name": g.name,
                "vertices": list(g.vertices),
                "edges": [[e.eid, e.src, e.dst] for e in g.edges],
                "sinks": list(info.sinks),
                "sources": list(info.sources),
                "regular": list(info.regular),
                "is_functional": info.is_functional,
                "is_transposed_functional": info.is_transposed_functional,
                "is_connected": info.is_connected,
                "directed_cycle_count": info.directed_cycle_count,
                "is_cycle_graph": info.is_cycle_graph,
                "adjacency": gamma,
                "det": linalg.det(gamma),
            }
        )
        return 0
    none = "(none)"
    print(f"graph {g.name}: {g.n_vertices} vertices, {g.n_edges} edges")
    print(f"vertices: {' '.join(g.vertices)}")
    print(f"sinks: {' '.join(info.sinks) or none}")
    print(f"sources: {' '.join(info.sources) or none}")
    print(f"regular vertices: {' '.join(info.regular) or none}")
    print(f"functional (out-degree <= 1): {_yesno(info.is_functional)}")
    print(
        f"transposed functional (in-degree <= 1): "
        f"{_yesno(info.is_transposed_functional)}"
    )
    print(f"connected: {_yesno(info.is_connected)}")
    print(f"directed cycles: {info.directed_cycle_count}")
    print(f"cycle graph: {_yesno(info.is_cycle_graph)}")
    for i, row in enumerate(gamma.rows):
        label = "adjacency" if i == 0 else " " * len("adjacency")
        print(f"{label}  [{' '.join(map(str, row))}]")
    print(f"det: {linalg.det(gamma)}")
    return 0


def _graph_out(g: Graph, args) -> int:
    text = graphs.serialize_graph(g)
    if args.json:
        _emit_json({"graph": g, "serialized": text})
    elif args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_product(args) -> int:
    return _graph_out(ops.product(resolve_graph(args.left), resolve_graph(args.right)), args)


def _cmd_linegraph(args) -> int:
    return _graph_out(ops.line_graph(resolve_graph(args.graph)), args)


def _cmd_check_morphism(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    m = ops.parse_morphism_document(text, graph_resolver=resolve_graph)
    verdict = ops.check_morphism(m)
    if args.json:
        _emit_json({"name": m.name, "domain": m.domain.name, "codomain": m.codomain.name,
                    "injective": verdict.injective, "range_closed": verdict.range_closed,
                    "emission_covered": verdict.emission_covered,
                    "injectivity_witnesses": list(verdict.injectivity_witnesses),
                    "range_witnesses": list(verdict.range_witnesses),
                    "emission_witnesses": list(verdict.emission_witnesses),
                    "admissible": verdict.admissible})
        return 0 if verdict.admissible else 1
    print(f"morphism {m.name}: {m.domain.name} -> {m.codomain.name}")

    def _with_witnesses(flag: bool, witnesses) -> str:
        if flag or not witnesses:
            return _yesno(flag)
        return f"no (witnesses: {' '.join(witnesses)})"

    # an injectivity witness is a (first, later) pair of preimages, shown "first/later"
    pairs = ["/".join(pair) for pair in verdict.injectivity_witnesses]
    print(f"injective: {_with_witnesses(verdict.injective, pairs)}")
    print(f"range-closed: {_with_witnesses(verdict.range_closed, verdict.range_witnesses)}")
    print(f"emission-covered: "
          f"{_with_witnesses(verdict.emission_covered, verdict.emission_witnesses)}")
    print(f"admissible: {_yesno(verdict.admissible)}")
    return 0 if verdict.admissible else 1


def _cmd_embeddings(args) -> int:
    dom = resolve_graph(args.domain)
    cod = resolve_graph(args.codomain) if args.codomain else ops.product(dom, dom)
    found = ops.enumerate_admissible_embeddings(dom, cod)
    if args.json:
        _emit_json({"domain": dom.name, "codomain": cod.name, "count": len(found),
                    "embeddings": [{"vmap": dict(m.vmap), "emap": dict(m.emap)} for m in found]})
        return 0
    print(f"{len(found)} admissible embedding(s) of {dom.name} into {cod.name}")
    for i, m in enumerate(found, start=1):
        vparts = " ".join(f"{v}->{m.vmap[v]}" for v in dom.vertices)
        eparts = " ".join(f"{e.eid}->{m.emap[e.eid]}" for e in dom.edges)
        print(f"embedding {i}:")
        print(f"  vertices: {vparts}")
        print(f"  edges: {eparts}")
    return 0


_DEPTH_GUARD = 1000  # the deepest level and farthest degree one command computes


def _cmd_bratteli(args) -> int:
    if args.levels > _DEPTH_GUARD:
        raise GuardError(f"--levels {args.levels} exceeds the guard of {_DEPTH_GUARD}")
    g = resolve_graph(args.graph)
    diagram = ktheory.bratteli(g, args.levels)
    if args.dot:
        dot = ktheory.emit_dot(diagram)
        if args.json:
            _emit_json({"graph": g.name, "depth": diagram.depth, "dot": dot})
        else:
            sys.stdout.write(dot)
        return 0
    if args.json:
        _emit_json({"graph": g.name, "depth": diagram.depth,
                    "levels": [[[v, size] for v, size in level] for level in diagram.levels]})
        return 0
    for k, level in enumerate(diagram.levels, start=1):
        cells = " ".join(f"{v}:{size}" for v, size in level)
        print(f"level {k}: {cells}")
    return 0


def _parse_range(text: str) -> tuple:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"expected a range like -3..3, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"expected a range like -3..3, got {text!r}") from None


def _render_plain(value, out: list, indent: str = "") -> None:
    """Append an indented outline of a dict or list; flat values go on one line."""
    if isinstance(value, dict):
        entries = ((f"{_key_str(k)}:", v) for k, v in value.items())
    else:
        entries = (("-", v) for v in value)
    for head, v in entries:
        if isinstance(v, (dict, list)) and v and not _is_flat(v):
            out.append(f"{indent}{head}\n")
            _render_plain(v, out, indent + "  ")
        else:
            out.append(f"{indent}{head} ")
            _put(v, out, "")
            out.append("\n")


def _is_flat(v) -> bool:
    kinds = set(map(type, v.values() if isinstance(v, dict) else v))
    return not any(issubclass(t, (dict, list)) for t in kinds)


def _cmd_ktheory(args) -> int:
    k_min, k_max = _parse_range(args.range)
    if max(-k_min, k_max) > _DEPTH_GUARD:
        raise GuardError(f"--range {args.range} leaves the guard window +-{_DEPTH_GUARD}")
    g = resolve_graph(args.graph)
    rep = ktheory.invariants_report(g, k_min, k_max)
    if args.json:
        _emit_json(rep)
        return 0
    out: list = []
    _render_plain(rep, out)
    sys.stdout.write("".join(out))
    return 0


def _cmd_leavitt_eval(args) -> int:
    g = resolve_graph(args.graph)
    x = leavitt.parse_elem(g, args.expr)
    nf = leavitt.normal_form(x)
    if args.json:
        _emit_json(
            {
                "graph": g.name,
                "input": args.expr,
                "raw": leavitt.to_string(x),
                "normal": leavitt.to_string(nf),
                "is_zero": not nf.terms,
            }
        )
        return 0
    print(f"raw: {leavitt.to_string(x)}")
    print(f"normal: {leavitt.to_string(nf)}")
    print(f"zero: {_yesno(not nf.terms)}")
    return 0


def _cmd_leavitt_equals(args) -> int:
    g = resolve_graph(args.graph)
    x = leavitt.parse_elem(g, args.left)
    y = leavitt.parse_elem(g, args.right)
    equal = leavitt.equals(x, y)
    if args.json:
        _emit_json(
            {
                "graph": g.name,
                "left": leavitt.to_string(x),
                "right": leavitt.to_string(y),
                "equal": equal,
            }
        )
    else:
        print(f"equal: {_yesno(equal)}")
    return 0 if equal else 1


def _cmd_picard(args) -> int:
    from . import picard

    try:
        dims = tuple(int(p) for p in args.dims.split(","))
    except ValueError:
        raise ValueError(
            f"expected comma-separated block sizes like 1,2,3, got {args.dims!r}"
        ) from None
    algebra = picard.FinDimCStar(dims)
    elements = picard.pic_elements(algebra)
    listing = [list(x.tau) for x in elements] if len(elements) <= 720 else None
    if args.json:
        payload = {
            "dims": list(dims),
            "n_blocks": algebra.n_blocks,
            "order": len(elements),
        }
        if listing is not None:
            payload["elements"] = listing
        _emit_json(payload)
        return 0
    print(f"block sizes: {' '.join(str(d) for d in dims)}")
    print(f"picard group order: {len(elements)}")
    if listing is not None:
        for i, tau in enumerate(listing):
            print(f"element {i}: ({' '.join(str(t) for t in tau)})")
    else:
        print("(element list suppressed beyond order 720)")
    return 0


def _cmd_catalog_list(args) -> int:
    entries = catalog.list_entries()
    if args.json:
        _emit_json([{"name": e.name, "params": e.param_help(), "aliases": list(e.aliases),
                     "summary": e.summary} for e in entries])
        return 0
    for e in entries:
        params = f" [{e.param_help()}]" if e.params else ""
        aliases = f" (alias: {', '.join(e.aliases)})" if e.aliases else ""
        print(f"{e.name}{params}{aliases}: {e.summary}")
    return 0


def _cmd_catalog_build(args) -> int:
    return _graph_out(catalog.build_token(args.token), args)


def _cmd_catalog_suite(args) -> int:
    from . import suites

    params: dict = {}
    for piece in args.params:
        key, sep, value = piece.partition("=")
        if not sep or not key:
            raise ValueError(f"suite parameters look like k=v, got {piece!r}")
        if key in params:
            raise ValueError(f"suite {args.suite!r} parameter {key!r} is given more than once")
        params[key] = value
    rep = suites.run_suite(args.suite, **params)
    if args.json:
        _emit_json(rep)
    else:
        print(rep.render())
    return 0 if rep.ok else 1


# -- the command table ----------------------------------------------------------


# An option: flags and metavar, destination, converter (None for a flag),
# default, required, help line.
_HELP = ("-h/--help", None, None, None, False, "show this help and exit")
_JSON = ("--json", "json", None, False, False, "emit machine-readable JSON")
_OUTPUT = ("-o/--output FILE", "output", str, None, False, "write the graph file here")

# One entry per command path: handler, help line, positionals ("name" required,
# "name?" optional, "name*" the rest, "NAME+" an action word: the next word of
# a longer path, read with everything after it) and options.
COMMANDS = {
    "": (None, "Exact invariants of finite directed graphs and their towers.\n"
               "A graph is a graph file or a catalog token.", ("COMMAND+",), ()),
    "analyze": (_cmd_analyze, "classify a graph and print basics", ("graph",), (_JSON,)),
    "product": (_cmd_product, "categorical product of two graphs", ("left", "right"),
                (_JSON, _OUTPUT)),
    "linegraph": (_cmd_linegraph, "the line graph", ("graph",), (_JSON, _OUTPUT)),
    "check-morphism": (_cmd_check_morphism, "validate a morphism document and test "
                       "admissibility", ("file",), (_JSON,)),
    "embeddings": (_cmd_embeddings, "enumerate admissible embeddings (default codomain: the "
                   "square)", ("domain", "codomain?"), (_JSON,)),
    "bratteli": (_cmd_bratteli, "tower sizes level by level", ("graph",),
                 (_JSON, ("--levels K", "levels", int, None, True, "number of levels to list"),
                  ("--dot", "dot", None, False, False, "emit Graphviz instead"))),
    "ktheory": (_cmd_ktheory, "all computable invariants of a graph", ("graph",), (_JSON, (
        "--range A..B", "range", str, "-3..3", False, "degree window (default -3..3)"))),
    "leavitt": (None, "evaluate or compare algebra expressions", ("graph", "ACTION+"), ()),
    "leavitt eval": (_cmd_leavitt_eval, "normal form of an expression", ("expr",), (_JSON,)),
    "leavitt equals": (_cmd_leavitt_equals, "algebra equality", ("left", "right"), (_JSON,)),
    "picard": (_cmd_picard, "Picard group of a finite-dimensional algebra", (),
               (_JSON, ("--dims D1,D2,...", "dims", str, None, True, "matrix block sizes"))),
    "catalog": (None, "named graph families and suites", ("ACTION+",), ()),
    "catalog list": (_cmd_catalog_list, "list known families", (), (_JSON,)),
    "catalog build": (_cmd_catalog_build, "emit a graph file", ("token",), (_JSON, _OUTPUT)),
    "catalog suite": (_cmd_catalog_suite, "run a verification suite", ("suite", "params*"),
                      (_JSON,)),
}


# -- the parser ----------------------------------------------------------------------

_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")
# what a positional takes from the token kinds: A a value, O an option, - the ``--``
_NARGS = {"1": re.compile("-*A-*"), "?": re.compile("-*A?-*"), "*": re.compile("[-A]*"),
          "+": re.compile("-*A.*")}


class _Exit(Exception):
    """``(code, text)``: help for stdout with code 0, or a usage error for stderr with 2."""


def _table(path: str) -> tuple:
    """All the parser reads ``path`` by: its handler and options, its flags
    (``-h/--help`` among them) mapped to their options, its positionals as
    ``(name, nargs)`` and its action words mapped to the paths they lead to."""
    func, _, positionals, options = COMMANDS[path]
    flags = {f: o for o in (_HELP, *options) for f in o[0].partition(" ")[0].split("/")}
    specs = tuple((p.rstrip("?*+"), p[-1] if p[-1] in "?*+" else "1") for p in positionals)
    actions = {k.rpartition(" ")[2]: k for k in COMMANDS if k and k.rpartition(" ")[0] == path}
    return func, options, flags, specs, actions


# every path's table, derived from COMMANDS once: a command line that parses
# reads these alone, and only help and refusals read COMMANDS itself
_TABLES = {path: _table(path) for path in COMMANDS}


def _prog(path: str) -> str:
    words, prefix = ["afcore"], ""
    for word in path.split():
        words += [*COMMANDS[prefix][2][:-1], word]
        prefix = f"{prefix} {word}".lstrip()
    return " ".join(words)


def _usage(path: str) -> str:
    words = [_prog(path), "[-h]"]
    for flags, _, _, _, required, _ in COMMANDS[path][3]:
        flag = re.sub("/[^ ]*", "", flags)
        words.append(flag if required else f"[{flag}]")
    words += [{"?": "[{}]", "*": "[{} ...]", "+": "{} ..."}.get(p[-1], "{}").format(
        p.rstrip("?*+")) for p in COMMANDS[path][2]]
    return f"usage: {' '.join(words)}\n"


def _error(path: str, message: str) -> _Exit:
    return _Exit(2, f"{_usage(path)}{_prog(path)}: error: {message}\n")


def _help(path: str) -> str:
    func, summary, _, options = COMMANDS[path]
    blocks = [[(o[0].replace("/", ", "), o[5]) for o in (_HELP, *options)]]
    if func is None:
        blocks.insert(0, [(word, COMMANDS[key][1]) for word, key in _TABLES[path][4].items()])
    return f"{_usage(path)}\n{summary}\n" + "".join(
        "\n" + "".join(f"  {a:<20}{b}\n" for a, b in rows) for rows in blocks)


def _option(path: str, token: str, flags: dict):
    """None for a value, else (the option, or None if unknown; its attached value)."""
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return flags[token], None
    head, eq, value = token.partition("=")
    if eq and head in flags:
        return flags[head], value
    if token[1] == "-":
        hits = [flag for flag in flags if flag.startswith(head)]
        if len(hits) > 1:
            raise _error(path, f"ambiguous option: {token} could match {', '.join(hits)}")
        if hits:
            return flags[hits[0]], value if eq else None
    elif token[:2] in flags:
        return flags[token[:2]], token[2:]
    return None if _NEGATIVE.match(token) or " " in token else (None, None)


def _read(path: str, tokens: list, ns, extras: list):
    """Read the options and positionals of ``path`` into ``ns``; return the tokens
    from the action word on if ``path`` reads one.  Unknown options and surplus
    values go to ``extras``."""
    _, options, flags, specs, _ = _TABLES[path]
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    found = [_option(path, token, flags) for token in tokens[:cut]]
    kinds = "".join("A" if f is None else "O" for f in found)
    kinds += "-" * (cut < len(tokens)) + "A" * (len(tokens) - cut - 1)
    pending = list(specs)
    for _, dest, _, default, *_ in options:
        setattr(ns, dest, default)
    i = 0
    while i < len(tokens):
        if kinds[i] == "O":
            (opt, value), i = found[i], i + 1
            if opt is None:
                extras.append(tokens[i - 1])
                continue
            name, dest, convert = opt[0].partition(" ")[0], opt[1], opt[2]
            if value is not None and convert is None:
                raise _error(path, f"argument {name}: ignored explicit argument {value!r}")
            if opt is _HELP:
                raise _Exit(0, _help(path))
            if value is None and convert:
                if kinds[i:i + 1] != "A":
                    raise _error(path, f"argument {name}: expected one argument")
                value, i = tokens[i], i + 1
            try:
                setattr(ns, dest, convert(value) if convert else True)
            except ValueError:
                raise _error(path, f"argument {name}: invalid "
                             f"{convert.__name__} value: {value!r}") from None
            continue
        start = i
        while pending and (m := _NARGS[pending[0][1]].match(kinds, i)):
            (name, nargs), end = pending.pop(0), m.end()
            if nargs == "+":
                return tokens[i:]
            values = [t for t, k in zip(tokens[i:end], kinds[i:end]) if k == "A"]
            setattr(ns, name, values if nargs == "*" else values[0] if values else None)
            i = end
        if i == start:  # no positional takes these values
            while i < len(tokens) and kinds[i] != "O":
                extras.append(tokens[i])
                i += 1
    missing = [name for name, nargs in pending if nargs in "1+"]
    missing += [o[0].partition(" ")[0] for o in options if o[4] and getattr(ns, o[1]) is None]
    if missing:
        raise _error(path, f"the following arguments are required: {', '.join(missing)}")
    return None


def parse_args(argv) -> SimpleNamespace:
    """The values of a command line's options and positionals, and its handler as
    ``func``.  Raises ``_Exit`` for help and for usage errors."""
    ns, extras, path, tokens = SimpleNamespace(), [], "", list(argv)
    while (rest := _read(path, tokens, ns, extras)) is not None:
        actions = _TABLES[path][4]
        if rest[0] not in actions:
            raise _error(path, f"argument {COMMANDS[path][2][-1][:-1]}: invalid choice: "
                         f"{rest[0]!r} (choose from {', '.join(map(repr, actions))})")
        path, tokens = actions[rest[0]], rest[1:]
    if extras:
        raise _error(path, f"unrecognized arguments: {' '.join(extras)}")
    ns.func = _TABLES[path][0]
    return ns


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except _Exit as stop:
        code, text = stop.args
        (sys.stderr if code else sys.stdout).write(text)
        return code
    try:
        return args.func(args)
    except (ArtifactError, ValueError, OSError) as err:
        if args.json:
            payload = {"error": {"type": type(err).__name__, "message": str(err)}}
            sys.stderr.write(_json_text(payload) + "\n")
        else:
            sys.stderr.write(f"error: {err}\n")
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
