"""End-to-end acceptance run: eleven numbered criteria, one test each.

Each test prints a single ``[ok] criterion N: ...`` line on success, so
``pytest -v -s tests/test_acceptance.py`` doubles as a human-readable
acceptance protocol.  Every check is exact -- integer and rational
arithmetic throughout, no tolerances anywhere.
"""

import os
import subprocess
import sys

import afcore
from afcore import suites


def _run_suite_criterion(number: int, summary: str, name: str, **params) -> None:
    rep = suites.run_suite(name, **params)
    assert rep.ok, f"criterion {number} failed:\n{rep.render()}"
    print(f"[ok] criterion {number}: {summary}")


def test_criterion_01_penrose():
    _run_suite_criterion(
        1,
        "golden-ratio graph: inverse, ideal, Fibonacci classes, phi-law",
        "penrose",
    )


def test_criterion_02_triangular_family():
    _run_suite_criterion(
        2,
        "triangular family n=2..8: binomial walk counts and class identities",
        "cpq",
    )


def test_criterion_03_uhf():
    _run_suite_criterion(
        3,
        "single-vertex multi-loop n=2..5: rank-1 colimit and scaled dimensions",
        "uhf",
    )


def test_criterion_04_admissibility_exhaustive():
    rep = suites.run_suite("admissibility")
    assert rep.ok, f"criterion 4 failed:\n{rep.render()}"
    details = {item.label: item.detail for item in rep.items}
    assert details["universe size is 19767"] == "19767 graphs"
    assert (
        details["diagonal embedding admissible iff no vertex receives two edges"]
        == "19767 graphs, 0 disagreements"
    )
    assert (
        details["loop embedding admissible iff the loop is its vertex's only incoming edge"]
        == "59214 loop instances, 0 disagreements"
    )
    print(
        "[ok] criterion 4: admissibility criteria match the brute-force "
        "definition on all 19767 small multigraphs"
    )


def test_criterion_05_embedding_enumeration():
    rep = suites.run_suite("embeddings")
    assert rep.ok, f"criterion 5 failed:\n{rep.render()}"
    details = {item.label: item.detail for item in rep.items}
    assert details["exactly two admissible embeddings"] == "found 2"
    assert details["vertex images are the expected axis copies"] == "1_1,1_2; 1_1,2_1"
    print(
        "[ok] criterion 5: exactly two admissible embeddings of the "
        "2-triangular graph into its square, with the expected images"
    )


def test_criterion_06_structure_theorems():
    rep = suites.run_suite("structure")
    assert rep.ok, f"criterion 6 failed:\n{rep.render()}"
    details = {item.label: item.detail for item in rep.items}
    assert details["universe size is 19767"] == "19767 graphs"
    for label in (
        "connected + (out- or in-)degree <= 1 forces at most one cycle",
        "connected + sink-free + in-degree <= 1 forces a cycle graph",
    ):
        assert details[label].endswith("0 counterexamples")
    print(
        "[ok] criterion 6: structure theorems verified exhaustively "
        "over the 19767-graph universe"
    )


def test_criterion_07_symbolic():
    _run_suite_criterion(
        7,
        "symbolic relation checks: tensor families, matrix models, "
        "walk-unit identity, isometries",
        "symbolic",
    )


def test_criterion_08_k0_cross_oracles():
    _run_suite_criterion(
        8,
        "K0 cross-oracles: free vs colimit equality, class recursions, "
        "chooser invariance, collapsing examples",
        "k0",
    )


def test_criterion_09_kk():
    _run_suite_criterion(
        9,
        "shift matrix: inverse-adjacency action on line classes, "
        "non-derogatory checks",
        "kk",
    )


def test_criterion_10_picard():
    _run_suite_criterion(
        10,
        "Picard group: order n!, exhaustive group laws, centre action, "
        "end_check oracle",
        "picard",
    )


def test_criterion_11_cli_determinism():
    invocations = (
        [sys.executable, "-m", "afcore", "ktheory", "penrose", "--json"],
        [sys.executable, "-m", "afcore", "bratteli", "penrose", "--levels", "6", "--dot"],
        [sys.executable, "-m", "afcore", "analyze", "sigma:4", "--json"],
        [sys.executable, "-m", "afcore", "catalog", "build", "lens:2"],
        [sys.executable, "-m", "afcore", "embeddings", "sigma:2", "--json"],
        [sys.executable, "-m", "afcore", "picard", "--dims", "1,2,3", "--json"],
    )
    # the child imports the package from the same tree as this process
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(afcore.__file__)))
    for argv in invocations:
        outputs = set()
        for _ in range(3):
            proc = subprocess.run(argv, env=env, capture_output=True, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1, f"nondeterministic output from {argv!r}"
    print(
        "[ok] criterion 11: byte-identical output across 3 runs of "
        f"{len(invocations)} CLI invocations"
    )
