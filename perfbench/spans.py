"""Outside-in spans around afcore's public functions.

The tracer replaces module attributes with wrappers (``setattr``), so
calls made through a module, including calls inside that module, are
caught.  ``Graph.__init__`` and ``Matrix.__mul__`` are wrapped on their
classes, and ``leavitt``'s by-name imports of ``check_morphism`` and
``line_graph`` are wrapped there too.

Every span records its name, start, end, parent span and op id in
in-memory columns; ``write`` saves them when the run ends.  Self time is
the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import time
from array import array

LAYERS = ("cli", "catalog", "graphs", "ops", "linalg", "ktheory", "leavitt")

# (module, attribute) -> span name; the order is the order of the report
TRACED = {
    "cli": ("main",),
    "catalog": ("build_token", "small_graph_universe"),
    "graphs": ("Graph.__init__", "parse_graph", "serialize_graph", "classify",
               "directed_cycle_count", "adjacency"),
    "ops": ("product", "check_morphism", "enumerate_admissible_embeddings", "line_graph",
            "quotient_graph", "hereditary_saturated"),
    "linalg": ("det", "inv_unimodular", "power", "rank_Q", "charpoly", "rev_charpoly",
               "is_non_derogatory", "row_vec_mul", "Matrix.__mul__"),
    "ktheory": ("invariants_report", "walk_counts", "k0", "colimit_presentation", "line_class",
                "line_class_matrix", "atiyah_todd", "phi", "kk_report", "bratteli", "emit_dot"),
    "leavitt": ("is_zero", "equals", "parse_elem", "normal_form", "to_string"),
}
GENERATORS = {("catalog", "small_graph_universe")}
# names leavitt imported from ops before any wrapper existed
REIMPORTS = (("leavitt", "ops", "check_morphism"), ("leavitt", "ops", "line_graph"))


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.replace('__init__', 'init').replace('__mul__', 'mul')}"


SPAN_NAMES = tuple(span_name(layer, a) for layer, attrs in TRACED.items() for a in attrs)
# the spans a full set-up spends its time in, reported from a traced set-up
# as ``setup.<name>``
SETUP_SPANS = ("catalog.build_token", "catalog.small_graph_universe", "graphs.Graph.init",
               "graphs.parse_graph", "leavitt.parse_elem")


class Tracer:
    def __init__(self, typed_errors: tuple):
        self.typed = typed_errors
        self.op = -1
        self.names = list(SPAN_NAMES)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.layer_of = [n.split(".", 1)[0] for n in self.names]
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.op_of = array("i"), array("i"), array("i")
        self.stack = []  # [span id, time covered by children]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.refusals = dict.fromkeys(LAYERS, 0)
        self.crashes = dict.fromkeys(LAYERS, 0)
        self.nf_terms = 0

    # -- spans -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op_of.append(self.op)
        self.stack.append([sid, 0.0])
        self.calls[nid] += 1
        return sid

    def _close(self, nid: int, exc=None) -> None:
        sid, covered = self.stack.pop()
        t = time.perf_counter()
        self.end[sid] = t
        dur = t - self.start[sid]
        self.self_s[nid] += dur - covered
        if self.stack:
            self.stack[-1][1] += dur
        if exc is not None:
            layer = self.layer_of[nid]
            outer = self.layer_of[self.name[self.stack[-1][0]]] if self.stack else None
            if outer != layer:  # the error leaves the layer here
                counts = self.refusals if isinstance(exc, self.typed) else self.crashes
                counts[layer] += 1

    def wrap(self, nid: int, fn):
        def traced(*args, **kwargs):
            self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(nid, exc)
                raise
            self._close(nid)
            return out

        return traced

    def wrap_generator(self, nid: int, fn):
        """Each ``next`` is one span, so the time is per graph yielded."""

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    self.calls[nid] -= 1  # the exhausted call yields nothing
                    self._close(nid)
                    return
                except BaseException as exc:
                    self._close(nid, exc)
                    raise
                self._close(nid)
                yield item

        return traced

    def wrap_normal_form(self, nid: int, fn):
        inner = self.wrap(nid, fn)

        def counted(x):
            out = inner(x)
            self.nf_terms += len(out.terms)
            return out

        return counted

    # -- installation ----------------------------------------------------

    def install(self, modules: dict) -> None:
        for layer, attrs in TRACED.items():
            module = modules[layer]
            for attr in attrs:
                nid = self.name_id[span_name(layer, attr)]
                owner, _, member = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                fn = getattr(target, member)
                if (layer, attr) in GENERATORS:
                    wrapped = self.wrap_generator(nid, fn)
                elif (layer, attr) == ("leavitt", "normal_form"):
                    wrapped = self.wrap_normal_form(nid, fn)
                else:
                    wrapped = self.wrap(nid, fn)
                setattr(target, member, wrapped)
        for where, layer, attr in REIMPORTS:
            setattr(modules[where], attr, getattr(modules[layer], attr))

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = self.calls[i]
            out[f"{n}.self_s"] = self.self_s[i]
        for layer in LAYERS:
            out[f"{layer}.refusals"] = self.refusals[layer]
            out[f"{layer}.crashes"] = self.crashes[layer]
        out["leavitt.nf_terms"] = self.nf_terms
        return out

    def write(self, path: str) -> int:
        """Save the spans as gzip'd tab-separated lines; returns their number."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            t0 = self.start[0] if self.start else 0.0
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.names[self.name[sid]]}\t{self.start[sid] - t0:.9f}\t"
                    f"{self.end[sid] - t0:.9f}\t{self.parent[sid]}\t{self.op_of[sid]}\n"
                )
        return len(self.start)
