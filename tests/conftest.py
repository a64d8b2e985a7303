import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import afcore
from afcore import catalog
from afcore.graphs import Graph

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="session")
def spans() -> dict:
    """The namespace of ``perfbench/spans.py``, the benchmark's traced names.

    The file is read and executed into a plain namespace: nothing is imported
    from ``perfbench`` and no bytecode is written there.
    """
    ns = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), ns)
    return ns


@pytest.fixture(scope="session")
def penrose() -> Graph:
    return catalog.build("penrose")


@pytest.fixture(scope="session")
def sigma2() -> Graph:
    return catalog.build("sigma", n=2)


@pytest.fixture(scope="session")
def sigma3() -> Graph:
    return catalog.build("sigma", n=3)


@pytest.fixture(scope="session")
def tadpole() -> Graph:
    return catalog.build("tadpole")


@pytest.fixture(scope="session")
def universe_sample() -> list:
    """Every 97th graph of the exhaustive small-graph universe (204 graphs).

    Unit tests cross-check against oracles on this sample; the acceptance
    suite sweeps the full universe.
    """
    return [g for i, g in enumerate(catalog.small_graph_universe()) if i % 97 == 0]


@pytest.fixture(scope="session")
def trusted_sample() -> list:
    """Every universe graph on at most 2 vertices (84), plus 60 seeded ones on 3."""
    picked = set(random.Random(10).sample(range(84, 19767), 60))
    return [
        g
        for i, g in enumerate(catalog.small_graph_universe())
        if i < 84 or i in picked
    ]


@pytest.fixture(scope="session")
def assert_validated_twin():
    """Check that a graph equals its rebuild by ``Graph(...)``, index by index.

    Both graphs build their indices through ``_index()``, as every reader does.
    """

    def check(g: Graph) -> None:
        twin = Graph(g.name, g.vertices, [tuple(e) for e in g.edges])
        assert twin == g
        for index in ("_vindex", "_eindex", "_out", "_in"):
            assert list(getattr(twin._index(), index).items()) == list(
                getattr(g._index(), index).items()
            )

    return check


@pytest.fixture(scope="session")
def run_python_O():
    """Run a script under ``python -O``, which strips asserts, and require exit 0."""
    src = os.path.dirname(os.path.dirname(afcore.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(script: str) -> None:
        proc = subprocess.run(
            [sys.executable, "-O", "-c", textwrap.dedent(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    return run
