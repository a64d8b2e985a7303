"""Command-line interface.

Every subcommand takes graphs either as a path to a graph file or as a
catalog token (``penrose``, ``sigma:3``, ``cuntz:n=2`` ...).  ``--json``
switches any subcommand to machine-readable output with sorted keys.

Exit codes: 0 success; 1 a verification answered "no" (non-admissible
morphism, unequal elements, failed suite); 2 usage, parse, or data errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import catalog, graphs, ktheory, leavitt, linalg, ops, picard
from .errors import (
    ArtifactError,
    GuardError,
    MorphismError,
    NotUnimodular,
    ParseError,
    SinkError,
    SourceError,
)
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
    if isinstance(x, dict):
        return {_key_str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    raise TypeError(f"cannot convert {type(x).__name__} to JSON data")


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n")


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# -- graph argument resolution --------------------------------------------------


def resolve_graph(token: str) -> Graph:
    """A file path if one exists at ``token``, else a catalog token."""
    if os.path.isfile(token):
        with open(token, "r", encoding="utf-8") as fh:
            return graphs.parse_graph(fh.read())
    return catalog.build_token(token)


def _write_or_print(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        print(f"{label}  [{' '.join(str(x) for x in row)}]")
    print(f"det: {linalg.det(gamma)}")
    return 0


def _graph_out(g: Graph, args) -> int:
    text = graphs.serialize_graph(g)
    if args.json:
        _emit_json({"graph": jsonable(g), "serialized": text})
        return 0
    _write_or_print(text, args.output)
    return 0


def _cmd_product(args) -> int:
    left = resolve_graph(args.left)
    right = resolve_graph(args.right)
    return _graph_out(ops.product(left, right), args)


def _cmd_linegraph(args) -> int:
    return _graph_out(ops.line_graph(resolve_graph(args.graph)), args)


def _cmd_check_morphism(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    m = ops.parse_morphism_document(text, graph_resolver=resolve_graph)
    verdict = ops.check_morphism(m)
    if args.json:
        _emit_json(
            {
                "name": m.name,
                "domain": m.domain.name,
                "codomain": m.codomain.name,
                "injective": verdict.injective,
                "range_closed": verdict.range_closed,
                "emission_covered": verdict.emission_covered,
                "injectivity_witnesses": list(verdict.injectivity_witnesses),
                "range_witnesses": list(verdict.range_witnesses),
                "emission_witnesses": list(verdict.emission_witnesses),
                "admissible": verdict.admissible,
            }
        )
        return 0 if verdict.admissible else 1
    print(f"morphism {m.name}: {m.domain.name} -> {m.codomain.name}")

    def _with_witnesses(flag: bool, witnesses) -> str:
        if flag or not witnesses:
            return _yesno(flag)
        return f"no (witnesses: {' '.join(witnesses)})"

    print(f"injective: {_with_witnesses(verdict.injective, verdict.injectivity_witnesses)}")
    print(f"range-closed: {_with_witnesses(verdict.range_closed, verdict.range_witnesses)}")
    print(
        f"emission-covered: "
        f"{_with_witnesses(verdict.emission_covered, verdict.emission_witnesses)}"
    )
    print(f"admissible: {_yesno(verdict.admissible)}")
    return 0 if verdict.admissible else 1


def _cmd_embeddings(args) -> int:
    dom = resolve_graph(args.domain)
    cod = resolve_graph(args.codomain) if args.codomain else ops.product(dom, dom)
    found = ops.enumerate_admissible_embeddings(dom, cod, guard=args.guard)
    if args.json:
        _emit_json(
            {
                "domain": dom.name,
                "codomain": cod.name,
                "count": len(found),
                "embeddings": [
                    {"vmap": dict(m.vmap), "emap": dict(m.emap)} for m in found
                ],
            }
        )
        return 0
    print(
        f"{len(found)} admissible embedding(s) of {dom.name} into {cod.name}"
    )
    for i, m in enumerate(found, start=1):
        vparts = " ".join(f"{v}->{m.vmap[v]}" for v in dom.vertices)
        eparts = " ".join(f"{e.eid}->{m.emap[e.eid]}" for e in dom.edges)
        print(f"embedding {i}:")
        print(f"  vertices: {vparts}")
        print(f"  edges: {eparts}")
    return 0


def _cmd_bratteli(args) -> int:
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
        _emit_json(
            {
                "graph": g.name,
                "depth": diagram.depth,
                "levels": [
                    [[v, size] for v, size in level] for level in diagram.levels
                ],
            }
        )
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


def _render_plain(value, indent: str = "") -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{indent}{_key_str(k)}:")
                _render_plain(v, indent + "  ")
            else:
                print(f"{indent}{_key_str(k)}: {_flat_str(v)}")
        return
    if isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{indent}-")
                _render_plain(v, indent + "  ")
            else:
                print(f"{indent}- {_flat_str(v)}")
        return
    print(f"{indent}{_flat_str(value)}")


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    if isinstance(v, dict):
        return all(not isinstance(x, (dict, list)) for x in v.values())
    return True


def _flat_str(v) -> str:
    return json.dumps(jsonable(v), sort_keys=True)


def _cmd_ktheory(args) -> int:
    g = resolve_graph(args.graph)
    k_min, k_max = _parse_range(args.range)
    rep = ktheory.invariants_report(g, k_min, k_max)
    if args.json:
        _emit_json(rep)
        return 0
    _render_plain(rep)
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
    try:
        dims = tuple(int(p) for p in args.dims.split(","))
    except ValueError:
        raise ValueError(
            f"expected comma-separated block sizes like 1,2,3, got {args.dims!r}"
        ) from None
    algebra = picard.FinDimCStar(dims)
    elements = picard.pic_elements(algebra, guard=args.guard)
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
        _emit_json(
            [
                {
                    "name": e.name,
                    "params": e.param_help(),
                    "aliases": list(e.aliases),
                    "summary": e.summary,
                }
                for e in entries
            ]
        )
        return 0
    for e in entries:
        params = f" [{e.param_help()}]" if e.params else ""
        aliases = f" (alias: {', '.join(e.aliases)})" if e.aliases else ""
        print(f"{e.name}{params}{aliases}: {e.summary}")
    return 0


def _cmd_catalog_build(args) -> int:
    return _graph_out(catalog.build_token(args.token), args)


def _cmd_catalog_suite(args) -> int:
    params: dict = {}
    for piece in args.params:
        key, sep, value = piece.partition("=")
        if not sep or not key:
            raise ValueError(f"suite parameters look like k=v, got {piece!r}")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    rep = catalog.run_suite(args.suite, **params)
    if args.json:
        _emit_json(rep)
    else:
        print(rep.render())
    return 0 if rep.ok else 1


# -- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "product", parents=[common, out], help="categorical product of two graphs"
    )
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("linegraph", parents=[common, out], help="the line graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_linegraph)

    p = sub.add_parser(
        "check-morphism",
        parents=[common],
        help="validate a morphism document and test admissibility",
    )
    p.add_argument("file", help="morphism document path")
    p.set_defaults(func=_cmd_check_morphism)

    p = sub.add_parser(
        "embeddings",
        parents=[common],
        help="enumerate admissible embeddings (default codomain: the square)",
    )
    p.add_argument("domain")
    p.add_argument("codomain", nargs="?", default=None)
    p.add_argument("--guard", type=int, default=200_000, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_embeddings)

    p = sub.add_parser(
        "bratteli", parents=[common], help="tower sizes level by level"
    )
    p.add_argument("graph")
    p.add_argument("--levels", type=int, required=True, metavar="K")
    p.add_argument("--dot", action="store_true", help="emit Graphviz instead")
    p.set_defaults(func=_cmd_bratteli)

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
    p.set_defaults(func=_cmd_ktheory)

    p = sub.add_parser(
        "leavitt", parents=[], help="evaluate or compare algebra expressions"
    )
    p.add_argument("graph")
    leav_sub = p.add_subparsers(dest="leavitt_command", metavar="ACTION")
    pe = leav_sub.add_parser("eval", parents=[common], help="normal form of an expression")
    pe.add_argument("expr")
    pe.set_defaults(func=_cmd_leavitt_eval)
    pq = leav_sub.add_parser("equals", parents=[common], help="algebra equality")
    pq.add_argument("left")
    pq.add_argument("right")
    pq.set_defaults(func=_cmd_leavitt_equals)

    p = sub.add_parser(
        "picard", parents=[common], help="Picard group of a finite-dimensional algebra"
    )
    p.add_argument(
        "--dims", required=True, metavar="D1,D2,...", help="matrix block sizes"
    )
    p.add_argument("--guard", type=int, default=8, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_picard)

    p = sub.add_parser("catalog", help="named graph families and suites")
    cat_sub = p.add_subparsers(dest="catalog_command", metavar="ACTION")
    pc = cat_sub.add_parser("list", parents=[common], help="list known families")
    pc.set_defaults(func=_cmd_catalog_list)
    pc = cat_sub.add_parser("build", parents=[common, out], help="emit a graph file")
    pc.add_argument("token", help="family token, e.g. sigma:3")
    pc.set_defaults(func=_cmd_catalog_build)
    pc = cat_sub.add_parser("suite", parents=[common], help="run a verification suite")
    pc.add_argument("suite", help="suite name (see the package docs)")
    pc.add_argument("params", nargs="*", help="suite parameters as k=v")
    pc.set_defaults(func=_cmd_catalog_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (
        ParseError,
        NotUnimodular,
        SinkError,
        SourceError,
        MorphismError,
        GuardError,
        ArtifactError,
        ValueError,
        OSError,
    ) as err:
        if getattr(args, "json", False):
            payload = {"error": {"type": type(err).__name__, "message": str(err)}}
            sys.stderr.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            sys.stderr.write(f"error: {err}\n")
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
