"""afcore benchmark: one seeded workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ktheory-ladder, leavitt-algebra, graph-universe (see README.md
next to this file), or ``all`` for the three in turn, each with its own
report.  The seed fixes the op list and its known answers.

``--trace 0`` measures end to end.  One process imports afcore, builds the
graphs the battery ops are given, and runs rounds for ``--seconds``: each
round is a child forked from it that runs the whole op list with one
closed-loop client, so nothing cached in one round helps the next.
Between rounds, fresh processes do a full set-up (import afcore and build
every input) and time it.
Every time is scaled to the machine's reference speed: before each op, and
before and after each set-up, the process runs a fixed calibration kernel
(``calibrate.py``), and a time is multiplied by ``REFERENCE_S`` over the
kernel's median time around it.  Other tenants of the shared machine slow
the kernel and afcore alike, so this takes out most of the drift between
runs.  Each op's latency is its median over the rounds; ``wall_s`` is the
sum of those latencies, ``op_p50_ms``/``op_p90_ms`` their percentiles;
``setup_s`` is the median set-up and ``peak_rss_mb`` the median over
rounds.

``--trace 1`` traces one full set-up and alternates untraced and traced
rounds for ``--seconds``, at least three of each; it reports the per-layer counts and self times of
the first traced round, those of the set-up as ``setup.<name>``, and the
tracing overhead (traced ``wall_s`` minus untraced); the spans
are saved under ``perfbench/_work/trace/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  An op fails when its exit code, verdict or
refusal type disagrees with the known answer, or when it crashes with an
untyped exception.  ``correct`` is false when any op outside the
known-defect list fails, or when two rounds printed different bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, SETUP_SPANS, SPAN_NAMES  # noqa: E402

WORKER_TIMEOUT_S = 110  # beyond the seconds its rounds are given
OP_KINDS = ("ktheory", "bratteli", "eval", "equals", "analyze", "battery")


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def spawn(ops_path, workdir, mode, tag, seconds):
    """Run ``worker.py`` in a session of its own; on a timeout, a signal or
    any error, every process of that session is killed."""
    result_path = os.path.join(workdir, f"{tag}.json")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), ops_path, result_path, mode,
         str(seconds)],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=seconds + WORKER_TIMEOUT_S)
    finally:
        if proc.returncode != 0:  # still running, or failed with children left
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{err[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(ops, rounds):
    """Failure accounting over every round run."""
    defects = {op["id"] for op in ops if op["defect"]}
    failed = [(f[0], f[1]) for r in rounds for f in r["failures"]]
    unexpected = sorted({(i, why) for i, why in failed if i not in defects})
    digests = {r["digest"] for r in rounds}
    correct = not unexpected and len(digests) == 1
    n_failed = len({(k, i) for k, r in enumerate(rounds) for i, _ in r["failures"]})
    return correct, len(ops) * len(rounds), n_failed, unexpected, digests


def report_failures(ops, rounds, unexpected, digests):
    by_id = {op["id"]: op for op in ops}
    for i, why in sorted({(f[0], f[1]) for f in rounds[0]["failures"]}):
        tag = "known defect" if by_id[i]["defect"] else "UNEXPECTED"
        print(f"failed op {i} [{tag}] {' '.join(by_id[i].get('argv', [by_id[i]['kind']]))[:80]}: {why}")
    if unexpected:
        print(f"{len(unexpected)} unexpected failure(s)")
    if len(digests) > 1:
        print(f"rounds printed different bytes: {sorted(digests)}")


def scaled(seconds, cal_s):
    """``seconds`` at the machine's reference speed, given the calibration
    kernel's times around them."""
    return seconds * calibrate.REFERENCE_S / statistics.median(cal_s)


def round_latencies(r):
    """A round's op latencies in ms at reference speed: each op is scaled by
    the kernel's runs nearest it, two before and two after."""
    cal = r["cal_s"]
    return [scaled(lat, cal[max(0, i - 1):i + 3]) for i, lat in enumerate(r["lat_ms"])]


def op_latencies(rounds):
    """Each op's median latency over the rounds, in ms at reference speed."""
    return [statistics.median(lat) for lat in zip(*map(round_latencies, rounds))]


def end_to_end(ops, workdir, ops_path, seconds):
    run = spawn(ops_path, workdir, "run", "rounds", seconds)
    rounds, setups = run["rounds"], run["setups"]
    lat = op_latencies(rounds)
    per_op = f"{len(lat)} ops, median of {len(rounds)} rounds"
    metrics = {
        "wall_s": (sum(lat) / 1e3, "s", per_op),
        "op_p50_ms": (percentile(lat, 50), "ms", per_op),
        "op_p90_ms": (percentile(lat, 90), "ms", per_op),
        "setup_s": (statistics.median(scaled(x["setup_s"], x["cal_s"]) for x in setups), "s",
                    f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB",
                        f"median of {len(rounds)} rounds"),
    }
    return rounds, metrics


def traced(ops, workdir, ops_path, trace_dir, workload, seed, seconds):
    run = spawn(ops_path, workdir, "trace", "traced", seconds)
    plain = [r for r in run["rounds"] if not r["traced"]]
    spans = [r for r in run["rounds"] if r["traced"]]
    os.makedirs(trace_dir, exist_ok=True)
    saved = os.path.join(trace_dir, f"{workload}-seed{seed}.spans.tsv.gz")
    saved_setup = os.path.join(trace_dir, f"{workload}-seed{seed}.setup.spans.tsv.gz")
    shutil.move(os.path.join(workdir, "traced.json.1.spans.tsv.gz"), saved)
    shutil.move(os.path.join(workdir, "traced.json.setup.spans.tsv.gz"), saved_setup)
    plain_wall = sum(op_latencies(plain)) / 1e3
    traced_wall = sum(op_latencies(spans)) / 1e3
    metrics = traced_metrics(ops, op_latencies(plain), plain[0]["embeddings"], spans[0],
                             run["setup_trace"])
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    print(f"trace: {spans[0]['spans']} spans saved to {os.path.relpath(saved, ROOT)}, "
          f"{run['setup_trace']['spans']} set-up spans to {os.path.relpath(saved_setup, ROOT)}")
    print(f"trace: untraced wall_s {plain_wall:.4f} s, traced wall_s {traced_wall:.4f} s, "
          f"overhead {metrics['trace.overhead_s'][0]:.4f} s (medians of {len(plain)} and "
          f"{len(spans)} alternating rounds)")
    return plain + spans, metrics


def traced_metrics(ops, lat, embeddings, spans, setup):
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (spans["per_layer"][f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = (spans["per_layer"][f"{name}.self_s"], "s")
    for name in SETUP_SPANS:
        metrics[f"setup.{name}.calls"] = (setup["per_layer"][f"{name}.calls"], "count")
        metrics[f"setup.{name}.self_s"] = (setup["per_layer"][f"{name}.self_s"], "s")
    kinds = [op["kind"] for op in ops]
    for kind in OP_KINDS:
        kind_lat = [x for k, x in zip(kinds, lat) if k == kind]
        metrics[f"op.{kind}.p50_ms"] = (percentile(kind_lat, 50) if kind_lat else 0.0, "ms")
    metrics["leavitt.nf_terms"] = (spans["per_layer"]["leavitt.nf_terms"], "count")
    found, tried = embeddings
    metrics["ops.embeddings.yield"] = (found / tried if tried else 0.0, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.refusals"] = (spans["per_layer"][f"{layer}.refusals"], "count")
        metrics[f"{layer}.crashes"] = (spans["per_layer"][f"{layer}.crashes"], "count")
    return metrics


def run_workload(workload, seed, seconds, trace) -> int:
    workdir = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = workloads.generate(workload, seed, workdir)
        ops_path = os.path.join(workdir, "ops.json")
        with open(ops_path, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        if trace:
            trace_dir = os.path.join(HERE, "_work", "trace")
            rounds, metrics = traced(ops, workdir, ops_path, trace_dir, workload, seed, seconds)
        else:
            rounds, metrics = end_to_end(ops, workdir, ops_path, seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, attempted, failed, unexpected, digests = summarize(ops, rounds)
    print(f"workload {workload} seed {seed}: {len(ops)} ops per round, "
          f"{len(rounds)} round(s), one closed-loop client")
    print(f"digest sha256 {rounds[0]['digest']}")
    report_failures(ops, rounds, unexpected, digests)
    for name, (value, unit, *n) in metrics.items():
        samples = f"  ({n[0]})" if n else ""
        print(f"{name} {value:.6g} {unit}{samples}")
    print(f"fail_share {failed / attempted:.6g} -  ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: spawn kills its worker's session and the work
    # directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "afcore", "cli.py")):
        print(f"error: no afcore source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        code = run_workload(name, args.seed, args.seconds, args.trace)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
