"""Invariants of the fixed-point (gauge-invariant) subalgebra tower.

Everything is read off one per-graph object, :class:`Tower`, built from
the vertex adjacency matrix ``Gamma`` alone, in exact integer arithmetic.
Each field is computed on first use and kept for the life of the tower:
``det(t Gamma - 1)`` (its top coefficient is ``det Gamma``), ``Gamma^-1``,
the line-class matrix and its inverse, the colimit data, and the powers
of ``x`` that ``phi`` is checked against.  The module functions are thin
wrappers that build a fresh tower, so no state lives between calls; they
stay only because ``perfbench/spans.py`` traces them.

Walk counts and line classes are two views of one vector orbit,
``orbit(k) = 1 Gamma^k`` (column sums of ``Gamma^k``; ``k < 0`` needs a
unimodular ``Gamma``), extended one vector-matrix product at a time:
``walk_counts(g, k)`` is ``orbit(k)``; ``line_class(g, k)`` is
``orbit(-k)`` when ``k <= 0`` or ``Gamma`` is unimodular, and a support
indicator in the colimit otherwise; row ``k`` of ``line_class_matrix``
is ``orbit(-k)``.  Built on these: ``bratteli``/``emit_dot`` (the
multiplicity diagram, with an edge per nonzero entry of ``Gamma``),
``k0`` (the colimit of integer lattices along ``Gamma^T``, supported at
level ``k`` where ``orbit(k)`` is nonzero, and free on the vertex
projections exactly when ``|det Gamma| = 1``), ``atiyah_todd`` (the
exact class recursions), ``phi`` (the ring identification with
``Z[x]/(p)`` for ``p = det(t Gamma - 1)``, sending ``[L_k]`` to ``x^k``),
and ``Tower.gamma_inv`` (the degree shift ``Gamma^-1``).  The powers
``x_power(k) = x^k`` form the tower's second per-degree sequence, kept
like the orbit and extended one step by ``x`` or ``x^-1`` at a time.

Coordinate convention: all class vectors are *row* vectors in vertex
declaration order, and matrices act on the right.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import graphs, linalg
from .errors import CertificateError, NotUnimodular, SinkError, SourceError
from .graphs import Graph
from .linalg import Matrix
from .report import CheckReport


class Tower:
    """The per-graph data of the tower, each field computed on first use."""

    def __init__(self, g: Graph):
        self.graph = g
        self.n = g.n_vertices
        self.gamma = graphs.adjacency(g)
        # orbit(k) sits at index k of _up for k >= 0, at index -k of _down for k <= 0
        self._up = [(1,) * self.n]
        self._down = [(1,) * self.n]

    @cached_property
    def sinks(self) -> tuple:
        """The vertices whose row of ``Gamma`` is zero, in vertex order."""
        return tuple(v for v, row in zip(self.graph.vertices, self.gamma.rows) if not any(row))

    def require_sink_free(self, why: str) -> None:
        if self.sinks:
            raise SinkError(f"graph {self.graph.name!r} has sinks {list(self.sinks)}; {why}")

    @cached_property
    def det(self) -> int:
        # c_n of det(t Gamma - 1), which charpoly checks against det(Gamma)
        return self.rev_charpoly[self.n]

    @property
    def unimodular(self) -> bool:
        return self.det in (1, -1)

    def require_unimodular(self) -> None:
        if not self.unimodular:
            raise NotUnimodular(self.det)

    @cached_property
    def gamma_inv(self) -> Matrix:
        return linalg.inv_unimodular(self.gamma)

    @cached_property
    def rev_charpoly(self) -> tuple:
        return linalg.rev_charpoly(self.gamma)

    def orbit(self, k: int) -> tuple:
        """``1 Gamma^k``, the column sums of ``Gamma^k``."""
        side, step = (self._up, self.gamma) if k >= 0 else (self._down, self.gamma_inv)
        while len(side) <= abs(k):
            side.append(linalg.row_vec_mul(side[-1], step))
        return side[abs(k)]

    @cached_property
    def colimit(self) -> ColimitK0:
        """The supports of the tower, where each ``orbit(k)`` is nonzero, and
        the rank of K0: the eventual rank of ``Gamma``, the degree of the
        tower's ``det(t Gamma - 1)``.  No edge leaves the stable support and
        ``Gamma`` is nilpotent off it, so this is also the eventual rank of
        the stable connecting map.  It is free on the vertex projections
        exactly when ``Gamma`` is unimodular: then every support is full,
        ``stable_level == 0`` and ``rank == n``."""
        g = self.graph
        self.require_sink_free("K0 of the tower is computed for emission-complete graphs only")
        supports = [tuple(range(self.n))]
        while True:
            nxt = tuple(i for i, c in enumerate(self.orbit(len(supports))) if c)
            if nxt == supports[-1]:
                break
            supports.append(nxt)
            if len(supports) > self.n + 1:
                raise CertificateError(f"supports of {g.name!r} did not stabilize within n steps")
        return ColimitK0(graph=g, supports=tuple(supports), stable_level=len(supports) - 1,
                         rank=len(linalg.poly_trim(self.rev_charpoly)) - 1)

    def q_class(self, v: str, k: int) -> K0Class:
        """The class of the distinguished projection built from a length-``k``
        walk into ``v``: the indicator of ``v`` at level ``k``, or the zero
        class when no such walk exists.  :meth:`to_free` turns it into
        ``e_v Gamma^-k`` when ``Gamma`` is unimodular."""
        i = self.graph.vertex_index(v)
        if k < 0:
            raise ValueError("walk length must be nonnegative")
        supported = i in self.colimit.support(k)
        return K0Class(tuple(int(j == i and supported) for j in range(self.n)), k)

    def line_class(self, k: int) -> K0Class:
        """Coordinates of the canonical class ``[L_k]`` of degree ``k``.

        * ``k = 0``: the unit, i.e. the all-ones vector at level 0.
        * ``k < 0``: column sums of ``Gamma^|k|`` at level 0 (any sink-free
          graph).
        * ``k > 0`` with unimodular ``Gamma``: column sums of ``Gamma^-k`` at
          level 0.
        * ``k > 0`` otherwise: requires a source-free graph; the class is the
          sum of the level-``k`` distinguished projections, i.e. the support
          indicator at level ``k`` in the colimit.
        """
        g = self.graph
        self.require_sink_free("line classes live over emission-complete graphs")
        if k <= 0 or self.unimodular:
            return K0Class(self.orbit(-k), 0)
        # orbit(1) holds the column sums of Gamma, zero at exactly the sources
        sources = [v for v, into in zip(g.vertices, self.orbit(1)) if not into]
        if sources:
            raise SourceError(
                f"graph {g.name!r} has sources {sources} and a singular "
                f"adjacency matrix; positive-degree classes are not available"
            )
        supp = set(self.colimit.support(k))
        return K0Class(tuple(int(i in supp) for i in range(self.n)), k)

    @cached_property
    def line_class_matrix(self) -> Matrix:
        """The n x n matrix whose row ``k`` (0-based) is the vector of ``[L_k]``.

        Row ``k`` holds the column sums of ``Gamma^-k`` for ``k = 0..n-1``;
        requires a unimodular adjacency matrix.
        """
        self.require_unimodular()
        return Matrix([self.orbit(-k) for k in range(self.n)])

    @cached_property
    def line_class_inv(self) -> Matrix:
        """The one place that decides whether ``[L_0] .. [L_(n-1)]`` form a
        basis.  The determinant decides it: on graphs without a line basis
        one elimination is cheaper than attempting the inverse."""
        d = linalg.det(self.line_class_matrix)
        if d not in (1, -1):
            raise NotUnimodular(d, what="line-class matrix")
        return linalg.inv_unimodular(self.line_class_matrix)

    def atiyah_todd(self, k: int) -> ATIdentity:
        """Derive and verify the degree-``k`` class recursion.

        Both directions come from ``sum_i c_i Gamma^-i = 0`` where
        ``(c_0..c_n) = rev_charpoly(Gamma)``: shifting by ``s`` gives
        ``sum_i c_i [L_(i+s)] = 0``.  For ``k >= n`` solve for the top term
        (degree-lowering); for ``k <= -1`` solve for the bottom term
        (degree-raising).  Degrees ``0 <= k < n`` are the base window and are
        rejected.  Requires a unimodular adjacency matrix.
        """
        self.require_unimodular()
        n, c = self.n, self.rev_charpoly
        if 0 <= k < n:
            raise ValueError(
                f"degree {k} lies in the base window 0..{n - 1}; "
                f"no recursion is needed there"
            )
        if k >= n:
            s = -c[n]  # c_n = det = +-1
            coeffs = {i + (k - n): s * c[i] for i in range(n) if c[i]}
        else:
            s = -c[0]  # c_0 = (-1)^n
            coeffs = {i + k: s * c[i] for i in range(1, n + 1) if c[i]}
        rhs = [0] * n
        for j, coeff in coeffs.items():
            for i, x in enumerate(self.line_class(j).vector):
                rhs[i] += coeff * x
        verified = self.line_class(k).vector == tuple(rhs)
        return ATIdentity(k=k, coeffs=tuple(sorted(coeffs.items())), verified=verified)

    def phi(self, cls: K0Class) -> linalg.QuotElem:
        """The ring identification: class coordinates -> ``Z[x]/(p)``.

        ``p = det(t Gamma - 1)``; the class vector is solved against the rows
        of :attr:`line_class_matrix` (which must be unimodular as well), so
        ``phi([L_k]) = x^k`` by construction on the base window.
        """
        if cls.level != 0:
            raise ValueError("phi takes level-0 coordinate vectors")
        y = linalg.row_vec_mul(cls.vector, self.line_class_inv)
        return linalg.quot_make(self.rev_charpoly, y)

    @cached_property
    def _x_sides(self) -> tuple:
        """The lists of ``x^k`` and of ``x^-k`` so far, ``k >= 0``, each from ``1``."""
        self.require_unimodular()
        one = linalg.quot_make(self.rev_charpoly, (1,))
        return [one], [one]

    def x_power(self, k: int) -> linalg.QuotElem:
        """``x^k`` in ``Z[x]/(det(t Gamma - 1))``, which :meth:`phi` should
        send ``[L_k]`` to.

        Kept like :meth:`orbit`: each side is extended by ``x`` or ``x^-1``
        one step at a time, modulo ``c = det(t Gamma - 1)`` normalized once
        per tower.  A step is a shift and one multiple of ``c``: ``x r`` is
        ``r`` shifted up less ``r_(n-1) c``, and ``x^-1 r`` is ``r`` less
        ``r_0 c_0 c`` shifted down, since ``c`` is monic with ``c_0 = +-1``.
        The ring needs ``det Gamma = +-1``; otherwise :class:`NotUnimodular`
        is raised.
        """
        powers = self._x_sides[k < 0]
        c = powers[0].modulus
        n = len(c) - 1
        while len(powers) <= abs(k):
            r = powers[-1].residue
            r = [*r, *(0,) * (n - len(r))]
            if k >= 0:
                top = r[-1]
                r = [a - top * b for a, b in zip([0, *r], c)]
            else:
                low = r[0] * c[0]
                r = [a - low * b for a, b in zip([*r[1:], 0], c[1:])]
            powers.append(linalg.QuotElem(c, linalg.poly_trim(r)))
        return powers[abs(k)]

    def verify_phi(self, depth: int) -> CheckReport:
        """Check ``phi([L_k]) = x^k`` for ``|k| <= depth``."""
        rep = CheckReport(f"phi on powers of the line class of {self.graph.name!r}")
        for k in range(-depth, depth + 1):
            got = self.phi(self.line_class(k))
            rep.add(f"phi([L_{k}]) = x^{k}", got == self.x_power(k))
        return rep

    def semiring_check(self, depth: int) -> CheckReport:
        """Check multiplicativity ``phi(L_j) phi(L_k) = phi(L_(j+k))``, honestly
        evaluating each side from computed classes."""
        rep = CheckReport(f"multiplicativity of phi on {self.graph.name!r}")
        values = {k: self.phi(self.line_class(k)) for k in range(-2 * depth, 2 * depth + 1)}
        for j in range(-depth, depth + 1):
            for k in range(-depth, depth + 1):
                rep.add(
                    f"phi(L_{j}) phi(L_{k}) = phi(L_{j + k})",
                    values[j] * values[k] == values[j + k],
                )
        return rep

    def kk_report(self, depth: int) -> CheckReport:
        """Check the shift matrix ``Gamma^-1`` on the line classes.

        Row convention: ``line_class(k) Gamma^-1 = line_class(k+1)``.
        The report needs the line-class matrix, whose rows are
        ``1 Gamma^-k``, to be a basis.  Then the all-ones vector is cyclic
        for ``Gamma^-1``, and so for ``Gamma``: both minimal polynomials,
        which :func:`linalg.is_non_derogatory` computes, have degree n.
        The two "non-derogatory" items are therefore certified by the line
        basis, not independent evidence.
        """
        self.line_class_inv  # refuses unless the line classes form a basis
        rep = CheckReport(f"shift matrix checks on {self.graph.name!r}")
        kkm = self.gamma_inv
        rep.add("shift matrix inverts the adjacency", kkm * self.gamma == Matrix.identity(self.n))
        for k in range(-depth, depth):
            lhs = linalg.row_vec_mul(self.line_class(k).vector, kkm)
            rep.add(f"[L_{k}] shifted = [L_{k + 1}]", lhs == self.line_class(k + 1).vector)
        rep.add("adjacency is non-derogatory", linalg.is_non_derogatory(self.gamma))
        rep.add("shift matrix is non-derogatory", linalg.is_non_derogatory(kkm))
        return rep

    def verify_q_recursion(self, depth: int) -> CheckReport:
        """Check ``[Q_(v,k)] = sum_w Gamma[v][w] [Q_(w,k+1)]`` for ``k <= depth``.

        Verified for every vertex ``v`` with at least one length-``k`` walk
        into it; the right side adds classes at level ``k+1``.
        """
        g = self.graph
        rep = CheckReport(f"projection class recursion on {g.name!r}")
        for k in range(depth + 1):
            for i, v in enumerate(g.vertices):
                if self.orbit(k)[i] == 0:
                    continue
                total = K0Class((0,) * self.n, k + 1)
                for j, w in enumerate(g.vertices):
                    mult = self.gamma[(i, j)]
                    if mult:
                        total = total.add(self.q_class(w, k + 1).scale(mult))
                rep.add(f"recursion at ({v}, {k})", self.k0_equal(self.q_class(v, k), total))
        return rep

    def bratteli(self, depth: int) -> BratteliDiagram:
        """Levels 1..``depth`` of the multiplicity diagram; see :class:`BratteliDiagram`."""
        if depth < 1:
            raise ValueError(f"depth must be at least 1, got {depth}")
        self.require_sink_free("the tower sizes assume every vertex emits an edge")
        g = self.graph
        levels = tuple(
            tuple((v, size) for v, size in zip(g.vertices, self.orbit(k)) if size > 0)
            for k in range(depth)
        )
        return BratteliDiagram(g, depth, levels, self.gamma)

    def push(self, cls: K0Class) -> K0Class:
        """One connecting step of the colimit: ``x -> x Gamma`` read as columns.

        Coordinates move along ``new[w] = sum_v Gamma[v][w] x[v]``; the result
        automatically vanishes outside the next support.
        """
        return K0Class(linalg.row_vec_mul(cls.vector, self.gamma), cls.level + 1)

    def k0_equal(self, a: K0Class, b: K0Class) -> bool:
        """Exact equality of classes in the colimit.

        Bring both to a common level and push the difference; classes agree
        iff the difference dies within ``2n + 1`` further steps (supports
        stabilize within ``n`` steps and the kernel chain of the stable map
        within ``n`` more).
        """
        self.colimit.check(a)
        self.colimit.check(b)
        while a.level < b.level:
            a = self.push(a)
        while b.level < a.level:
            b = self.push(b)
        diff = tuple(x - y for x, y in zip(a.vector, b.vector))
        for _ in range(2 * self.n + 2):
            if all(x == 0 for x in diff):
                return True
            diff = linalg.row_vec_mul(diff, self.gamma)
        return all(x == 0 for x in diff)

    def to_free(self, cls: K0Class) -> K0Class:
        """Transport a level-``k`` class to level-0 coordinates.

        Only meaningful when ``Gamma`` is unimodular (the colimit is then
        free on the vertex projections); used as a cross-oracle.
        """
        vec = cls.vector
        for _ in range(cls.level):
            vec = linalg.row_vec_mul(vec, self.gamma_inv)
        return K0Class(vec, 0)


def walk_counts(g: Graph, k: int) -> tuple:
    """Entry per vertex: number of length-``k`` walks ending there.

    For ``k < 0`` these are the alternating-sign entries coming from
    ``Gamma^k``; that requires ``Gamma`` unimodular.
    """
    return Tower(g).orbit(k)


# -- Bratteli diagram of the tower ------------------------------------------


class BratteliDiagram(NamedTuple):
    """Levels 1..depth of the tower; the root (level 0) is implicit.

    ``levels[k-1]`` lists ``(vertex, size)`` pairs at level ``k`` in vertex
    order, omitting zero sizes; the size at level ``k`` over vertex ``v``
    is the number of length-``k-1`` walks ending at ``v``.  The diagram
    carries the tower's ``gamma``: edges go from level ``k`` at ``v`` to
    level ``k+1`` at ``w`` with multiplicity ``Gamma[v][w]``.
    """

    graph: Graph
    depth: int
    levels: tuple
    gamma: Matrix


def bratteli(g: Graph, depth: int) -> BratteliDiagram:
    return Tower(g).bratteli(depth)


def emit_dot(d: BratteliDiagram) -> str:
    """Graphviz rendering; deterministic node and edge order.

    Node labels are the matrix orders; the edges out of ``v`` are the nonzero
    entries of its row of ``Gamma``, multiplicities above 1 labelled ``xM``.
    """
    vs = d.graph.vertices
    succ = {
        v: [(w, f' [label="x{m}"]' if m > 1 else "") for w, m in zip(vs, row) if m]
        for v, row in zip(vs, d.gamma.rows)
    }
    lines = ["digraph bratteli {", "  rankdir=LR;", '  root [label="1"];']
    for k, level in enumerate(d.levels, start=1):
        lines.extend(f'  v{v}_{k} [label="{size}"];' for v, size in level)
    lines.extend(f"  root -> v{v}_1;" for v, _ in d.levels[0])
    # Gamma >= 0, so orbit(k)[w] >= orbit(k-1)[v] * Gamma[v][w] > 0: every successor is present
    for k in range(1, d.depth):
        tail = f"_{k + 1}"
        for v, _ in d.levels[k - 1]:
            head = f"  v{v}_{k} -> v"
            lines.extend(f"{head}{w}{tail}{label};" for w, label in succ[v])
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- the K0 presentation ------------------------------------------------------


class K0Class(NamedTuple):
    """A class given by a row vector of vertex coordinates at a tower level.

    The vector lists coordinates over *all* vertices, with zeros outside
    the supported set at that level.  Level-0 vectors are coordinates on
    the vertex projections, which form a basis when ``Gamma`` is
    unimodular.
    """

    vector: tuple
    level: int = 0

    def scale(self, c: int) -> "K0Class":
        return K0Class(tuple(c * x for x in self.vector), self.level)

    def add(self, other: "K0Class") -> "K0Class":
        if self.level != other.level:
            raise ValueError("can only add classes at equal levels")
        return K0Class(
            tuple(a + b for a, b in zip(self.vector, other.vector)), self.level
        )


class ColimitK0(NamedTuple):
    """K0 as a colimit of integer lattices along the transposed adjacency.

    ``supports[k]`` lists the vertex indices carrying level-``k`` summands
    (vertices reached by some length-``k`` walk); supports shrink with
    ``k`` and stabilize after at most ``n`` steps at ``stable_level``.
    ``rank`` is the eventual rank of the stable connecting map, ``n`` less
    the multiplicity of 0 as an eigenvalue of ``Gamma``.  When ``Gamma`` is
    unimodular every support is full, ``stable_level`` is 0 and ``rank`` is
    ``n``: K0 is free on the vertex projections.
    """

    graph: Graph
    supports: tuple
    stable_level: int
    rank: int

    def support(self, k: int) -> tuple:
        return self.supports[min(k, self.stable_level)]

    def check(self, cls: K0Class) -> None:
        """Refuse a class of the wrong length, a negative level, or weight
        outside the support at its level."""
        n = self.graph.n_vertices
        if len(cls.vector) != n:
            raise ValueError(f"class vector has length {len(cls.vector)}, expected {n}")
        if cls.level < 0:
            raise ValueError("class level must be nonnegative")
        supp = set(self.support(cls.level))
        bad = [i for i, c in enumerate(cls.vector) if c != 0 and i not in supp]
        if bad:
            raise ValueError(
                f"class has weight at unsupported vertex indices {bad} "
                f"for level {cls.level}"
            )


def colimit_presentation(g: Graph) -> ColimitK0:
    """The same presentation as :func:`k0`, available for any sink-free graph."""
    return Tower(g).colimit


def k0(g: Graph) -> ColimitK0:
    """The K0 presentation; free on the vertex projections when ``|det Gamma| = 1``."""
    return Tower(g).colimit


def class_of_unit(g: Graph) -> K0Class:
    return K0Class((1,) * g.n_vertices, 0)


def line_class(g: Graph, k: int) -> K0Class:
    """:meth:`Tower.line_class` of a fresh tower; ``perfbench/spans.py`` traces it."""
    return Tower(g).line_class(k)


# -- exact class recursions ----------------------------------------------------


class ATIdentity(NamedTuple):
    """``[L_k] = sum_j coeff_j [L_j]`` over the adjacent degree window
    (``k-n..k-1`` when lowering, ``k+1..k+n`` when raising).

    ``coeffs`` is a tuple of ``(j, coeff)`` pairs in ascending ``j``;
    ``verified`` reports the exact coordinate-vector substitution check.
    """

    k: int
    coeffs: tuple
    verified: bool


def atiyah_todd(g: Graph, k: int) -> ATIdentity:
    """:meth:`Tower.atiyah_todd` of a fresh tower; ``perfbench/spans.py`` traces it."""
    return Tower(g).atiyah_todd(k)


def line_class_matrix(g: Graph) -> Matrix:
    """:attr:`Tower.line_class_matrix` of a fresh tower; ``perfbench/spans.py`` traces it."""
    return Tower(g).line_class_matrix


def phi(g: Graph, cls: K0Class) -> linalg.QuotElem:
    """:meth:`Tower.phi` of a fresh tower; ``perfbench/spans.py`` traces it."""
    return Tower(g).phi(cls)


# -- the shift matrix ----------------------------------------------------------


def kk_report(g: Graph, depth: int = 6) -> CheckReport:
    return Tower(g).kk_report(depth)


# -- single-vertex colimit embedding -------------------------------------------


def uhf_embed(n: int, cls: K0Class) -> Fraction:
    """Value of a single-vertex colimit class in the scaled rationals.

    For the one-vertex graph with ``n`` loops the level-``k`` lattice
    embeds by ``x -> x / n^k``; the minimal level-``k`` projection maps to
    ``n^-k``.
    """
    if n < 2:
        raise ValueError(f"need at least two loops, got n = {n}")
    if len(cls.vector) != 1:
        raise ValueError(
            "this embedding applies to single-vertex presentations only"
        )
    return Fraction(cls.vector[0], n ** cls.level)


# -- aggregate report for the CLI ----------------------------------------------


def invariants_report(g: Graph, k_min: int = -3, k_max: int = 3) -> dict:
    """All computable invariants in plain data (ints, tuples, Fractions).

    Entries that need stronger hypotheses than the graph satisfies are
    replaced by a ``{"available": False, "reason": ...}`` marker rather
    than raising, so the report is total for any graph with a vertex.
    """
    if k_min > k_max:
        raise ValueError(f"empty degree range {k_min}..{k_max}")
    if not g.n_vertices:
        raise ValueError(f"graph {g.name!r} has no vertices, so its tower has no invariants")
    t = Tower(g)
    ks = range(k_min, k_max + 1)
    out: dict = {
        "graph": g.name,
        "vertices": list(g.vertices),
        "gamma": [list(r) for r in t.gamma.rows],
        "det": t.det,
        "charpoly_reversed": list(t.rev_charpoly),
        "m_table": {k: list(t.orbit(k)) for k in ks if k >= 0 or t.unimodular},
    }

    sink_free = not t.sinks
    if not sink_free:
        out["k0"] = {"available": False, "reason": f"graph has sinks {list(t.sinks)}"}
    elif t.unimodular:
        out["k0"] = {"kind": "free", "rank": t.n, "basis": list(g.vertices)}
    else:
        pres = t.colimit
        out["k0"] = {
            "kind": "colimit",
            "rank": pres.rank,
            "stable_level": pres.stable_level,
            "supports": [list(s) for s in pres.supports],
        }

    line_classes = []
    for k in ks:
        if not sink_free:
            line_classes.append({"k": k, "available": False, "reason": "graph has sinks"})
            continue
        try:
            cls = t.line_class(k)
            line_classes.append({"k": k, "vector": list(cls.vector), "level": cls.level})
        except SourceError as err:
            line_classes.append({"k": k, "available": False, "reason": str(err)})
    out["line_classes"] = line_classes

    if t.unimodular and sink_free:
        out["class_recursions"] = [
            {"k": ident.k, "coeffs": [[j, c] for j, c in ident.coeffs], "verified": ident.verified}
            for ident in (t.atiyah_todd(k) for k in ks if not 0 <= k < t.n)
        ]
        out["line_class_matrix"] = [list(r) for r in t.line_class_matrix.rows]
        try:
            phis = {k: t.phi(t.line_class(k)) for k in ks}
        except NotUnimodular:
            unavailable = {"available": False, "reason": "line-class matrix is not unimodular"}
            out["phi_checks"] = out["kk"] = unavailable
        else:
            out["phi_modulus"] = list(t.x_power(0).modulus)
            out["phi_checks"] = [
                {
                    "k": k,
                    "residue": list(phis[k].residue),
                    "matches_power": phis[k] == t.x_power(k),
                }
                for k in ks
            ]
            out["kk"] = {
                "matrix": [list(r) for r in t.gamma_inv.rows],
                "checks_pass": t.kk_report(min(6, max(abs(k_min), abs(k_max)))).ok,
            }
    elif sink_free and t.n == 1 and t.gamma[(0, 0)] >= 2:
        out["scaled_dimension_values"] = [
            {"k": k, "value": uhf_embed(t.gamma[(0, 0)], t.line_class(k))} for k in ks
        ]
    return out
