"""The benchmark's own tests: op lists and traced counts repeat exactly.

    python3 perfbench/selftest.py

Checks that one seed always gives the same op list and graph files, that
two seeds give different op lists, and that two traced runs of one seed
give identical call counters, ``leavitt.nf_terms``,
``ops.embeddings.yield`` and output digest on every workload.  The traced
runs take a few minutes in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEED = 7


def traced_run(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("digest sha256 "))
    return digest, json.loads(lines[-1])


class OpLists(unittest.TestCase):
    def setUp(self):
        self.workdir = os.path.join(HERE, "_work", f"selftest-{os.getpid()}")
        os.makedirs(self.workdir)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def files(self):
        out = {}
        for name in sorted(os.listdir(self.workdir)):
            with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
                out[name] = fh.read()
        return out

    def test_same_seed_same_ops(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = workloads.generate(workload, SEED, self.workdir)
                first_files = self.files()
                second = workloads.generate(workload, SEED, self.workdir)
                self.assertEqual(first, second)
                self.assertEqual(first_files, self.files())

    def test_different_seeds_differ(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a = workloads.generate(workload, SEED, self.workdir)
                b = workloads.generate(workload, SEED + 1, self.workdir)
                self.assertNotEqual(a, b)


class TracedRepeat(unittest.TestCase):
    def test_two_traced_runs_agree(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                (d1, r1), (d2, r2) = traced_run(workload, SEED), traced_run(workload, SEED)
                self.assertTrue(r1["correct"] and r2["correct"])
                self.assertEqual(d1, d2)
                exact = [k for k in r1["metrics"] if k.endswith(".calls")]
                exact += ["leavitt.nf_terms", "ops.embeddings.yield"]
                for key in exact:
                    self.assertEqual(r1["metrics"][key], r2["metrics"][key], key)
                self.assertGreater(sum(r1["metrics"][k]["value"] for k in exact[:-2]), 0)


if __name__ == "__main__":
    unittest.main()
