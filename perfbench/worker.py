"""One fresh process: import afcore, then set up or run the op list.

Usage: ``python3 worker.py OPS_JSON RESULT_JSON MODE SECONDS`` where MODE
is ``setup``, ``run`` or ``trace``.

``setup`` times a full set-up: from just before ``import afcore`` to the
end of building every graph and parsed input of the op list.  It runs the
calibration kernel (``calibrate.py``) several times before and after, and
reports those times too.

``run`` imports afcore and builds only the graphs the battery ops are
given, nothing the CLI ops resolve themselves, so nothing a command could
cache is warm.  Then rounds run for SECONDS: at least three, and after
those none that would end past that time.  Each round is a child forked
from this process, so nothing it caches survives into the next round.
Between rounds, fresh ``setup`` processes run, spread evenly over the time,
so that the set-up times sample the same stretch of time as the rounds.
A round drives the op list with one closed-loop client: the next op starts
when the previous one has returned.  The calibration kernel runs once
before each op and once after the last, outside the op's timing.  CLI ops call ``afcore.cli.main(argv)``
with stdout and stderr captured; battery ops call the library functions
directly.

``trace`` forks one child that installs the tracer and does a full set-up,
then alternates untraced and traced rounds for SECONDS, at least three of
each; a traced round installs the tracer in its own child, so its counts
hold only the timed ops, and the parent stays untraced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

# every op gets a median of at least three rounds, however long rounds take
MIN_ROUNDS = 3
# fresh set-up processes per run, the median of which is setup_s
SETUPS = 15
SETUP_TIMEOUT_S = 60
# kernel runs on each side of a set-up, the machine's speed around it
SETUP_SAMPLES = 6

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from checks import check_cli, match  # noqa: E402


def import_afcore():
    sys.path.insert(0, SRC)
    from afcore import catalog, cli, errors, graphs, ktheory, leavitt, linalg, ops

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"afcore was imported from {cli.__file__}, not from {SRC}")
    return {"cli": cli, "catalog": catalog, "graphs": graphs, "ops": ops, "linalg": linalg,
            "ktheory": ktheory, "leavitt": leavitt, "errors": errors}


def build_batteries(af, ops):
    """The graphs the battery ops are given, built through afcore."""
    catalog, graphs = af["catalog"], af["graphs"]
    batteries = {}
    wanted = {op["index"]: op["id"] for op in ops
              if op["kind"] == "battery" and op["source"] == "universe"}
    if wanted:
        last = max(wanted)
        for i, g in enumerate(catalog.small_graph_universe(), start=1):
            if i in wanted:
                batteries[wanted[i]] = g
            if i == last:
                break
    for op in ops:
        if op["kind"] == "battery" and op["source"] != "universe":
            batteries[op["id"]] = graphs.Graph(op["name"], op["vertices"], op["edges"])
    return batteries


def build_inputs(af, ops):
    """A full set-up: the battery graphs, and every graph and parsed
    expression of the CLI ops, which each command resolves again, as a
    user's would."""
    catalog, graphs, leavitt = af["catalog"], af["graphs"], af["leavitt"]
    build_batteries(af, ops)
    built = {}

    def graph_of(arg):
        if arg not in built:
            if os.path.isfile(arg):
                with open(arg, encoding="utf-8") as fh:
                    built[arg] = graphs.parse_graph(fh.read())
            else:
                built[arg] = catalog.build_token(arg)
        return built[arg]

    for op in ops:
        if op["kind"] in ("eval", "equals"):
            g = graph_of(op["argv"][1])
            if not op["defect"]:
                for text in op["exprs"]:
                    leavitt.parse_elem(g, text)
        elif op["kind"] != "battery":
            graph_of(op["argv"][1])


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # an untyped crash is an outcome to report
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def battery(af, g, hs, enumerate_embeddings):
    """The checks of one ``graph-universe`` op, as plain data."""
    graphs, ops = af["graphs"], af["ops"]
    info = graphs.classify(g)
    prod = ops.product(g, g)
    diag = ops.diagonal_embedding(g, within=prod)
    got = {
        "classify": {
            "sinks": list(info.sinks), "sources": list(info.sources),
            "regular": list(info.regular), "is_functional": info.is_functional,
            "is_transposed_functional": info.is_transposed_functional,
            "is_connected": info.is_connected,
            "directed_cycle_count": info.directed_cycle_count,
            "is_cycle_graph": info.is_cycle_graph,
        },
        "product": [prod.n_vertices, prod.n_edges],
        "diagonal": ops.check_morphism(diag).admissible,
        "loops": [
            ops.check_morphism(ops.vertical_embedding(g, g, e.eid, within=prod)).admissible
            for e in g.edges if e.src == e.dst
        ],
        "round_trip": graphs.parse_graph(graphs.serialize_graph(g)) == g,
    }
    line = ops.line_graph(g)
    got["line"] = [line.n_vertices, line.n_edges]
    verdict = ops.hereditary_saturated(g, hs)
    got["hereditary_saturated"] = [verdict.hereditary, verdict.saturated]
    quotient = ops.quotient_graph(g, hs)
    got["quotient"] = [list(quotient.vertices), quotient.n_edges]
    tried = found = 0
    if enumerate_embeddings:
        embeddings = ops.enumerate_admissible_embeddings(g, prod)
        got["diagonal_enumerated"] = any(
            m.vmap == diag.vmap and m.emap == diag.emap for m in embeddings
        )
        found = len(embeddings)
        tried = 1
        for i in range(g.n_vertices):  # injective vertex maps into the square
            tried *= prod.n_vertices - i
    return got, found, tried


def run_ops(af, ops, batteries, tracer=None):
    cli = af["cli"]
    typed = (af["errors"].ArtifactError, ValueError, OSError)
    digest = hashlib.sha256()
    lat_ms, cal_s, failures = [], [], []
    found = tried = 0
    for op in ops:
        cal_s.append(calibrate.sample())
        if tracer is not None:
            tracer.op = op["id"]
        if op["kind"] == "battery":
            t0 = time.perf_counter()
            try:
                got, f, t = battery(af, batteries[op["id"]], op["hs"], op["enumerate"])
                code = 0
            except typed as exc:
                got, f, t, code = None, 0, 0, 2
                failures.append([op["id"], f"refused: {type(exc).__name__}: {exc}"])
            except Exception as exc:  # an untyped crash is an outcome to report
                got, f, t, code = None, 0, 0, type(exc).__name__
                failures.append([op["id"], f"crash: {code}"])
            lat_ms.append((time.perf_counter() - t0) * 1e3)
            found, tried = found + f, tried + t
            out = json.dumps(got, sort_keys=True)
            if got is not None and not match(got, op["expect"]):
                failures.append([op["id"], "battery disagrees with the known answer"])
        else:
            t0 = time.perf_counter()
            code, out, err = run_cli(cli, op["argv"])
            lat_ms.append((time.perf_counter() - t0) * 1e3)
            reason = check_cli(op, code, out, err)
            if reason is not None:
                failures.append([op["id"], reason])
        digest.update(f"{op['id']}\0{code}\0".encode())
        digest.update(out.encode())
        digest.update(b"\0")
    cal_s.append(calibrate.sample())
    if tracer is not None:
        tracer.op = -1
    return {"lat_ms": lat_ms, "cal_s": cal_s, "failures": failures, "digest": digest.hexdigest(),
            "embeddings": [found, tried]}


def new_tracer(af):
    from spans import Tracer

    errors = af["errors"]
    tracer = Tracer((errors.ArtifactError, ValueError, OSError))
    tracer.install(af)
    return tracer


def in_child(path, body):
    """Run ``body()`` in a forked child; its JSON result comes back through
    ``path``."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            result = body()
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"child process ended with status {status}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_round(af, ops, batteries, path, traced=False):
    """One round in a forked child, with the tracer installed there if
    ``traced``."""

    def body():
        tracer = new_tracer(af) if traced else None
        result = run_ops(af, ops, batteries, tracer)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["traced"] = traced
        if traced:
            result["per_layer"] = tracer.metrics()
            result["spans"] = tracer.write(path + ".spans.tsv.gz")
        return result

    return in_child(path, body)


def traced_setup(af, ops, path):
    """A full set-up in a forked child with the tracer installed."""

    def body():
        tracer = new_tracer(af)
        build_inputs(af, ops)
        return {"per_layer": tracer.metrics(), "spans": tracer.write(path + ".spans.tsv.gz")}

    return in_child(path, body)


def fresh_setup(ops_path, path):
    """The set-up time of a fresh ``setup`` process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), ops_path, path, "setup", "0"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=SETUP_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_rounds(af, ops, batteries, ops_path, result_path, seconds):
    rounds, setups = [], []
    t0, last = time.perf_counter(), 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 + last < seconds:
        t1 = time.perf_counter()
        rounds.append(run_round(af, ops, batteries, f"{result_path}.{len(rounds)}"))
        share = min(1.0, (time.perf_counter() - t0) / seconds) if seconds > 0 else 1.0
        while len(setups) < SETUPS * share:
            setups.append(fresh_setup(ops_path, f"{result_path}.setup"))
        last = time.perf_counter() - t1
    while len(setups) < SETUPS:
        setups.append(fresh_setup(ops_path, f"{result_path}.setup"))
    return {"setups": setups, "rounds": rounds}


def trace_rounds(af, ops, batteries, result_path, seconds):
    setup = traced_setup(af, ops, f"{result_path}.setup")
    rounds, t0, last = [], time.perf_counter(), 0.0
    while len(rounds) < 2 * MIN_ROUNDS or time.perf_counter() - t0 + last < seconds:
        t1 = time.perf_counter()
        for traced in (False, True):
            rounds.append(run_round(af, ops, batteries, f"{result_path}.{len(rounds)}", traced))
        last = time.perf_counter() - t1
    return {"setup_trace": setup, "rounds": rounds}


def main(argv) -> int:
    ops_path, result_path, mode, seconds = argv
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    if mode == "setup":
        before = [calibrate.sample() for _ in range(SETUP_SAMPLES)]
        t0 = time.perf_counter()
        build_inputs(import_afcore(), ops)
        setup_s = time.perf_counter() - t0
        after = [calibrate.sample() for _ in range(SETUP_SAMPLES)]
        result = {"setup_s": setup_s, "cal_s": before[1:] + after}
    else:
        af = import_afcore()
        batteries = build_batteries(af, ops)
        if mode == "run":
            result = run_rounds(af, ops, batteries, ops_path, result_path, float(seconds))
        else:
            result = trace_rounds(af, ops, batteries, result_path, float(seconds))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
