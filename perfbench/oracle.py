"""Known answers computed without afcore.

Everything here is plain integer and ``Fraction`` arithmetic on small
graphs given as ``(vertices, edges)`` with ``edges`` a list of
``(eid, src, dst)``.  The benchmark compares afcore's answers with these,
so none of this code may import afcore.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


def adjacency(vertices, edges) -> list:
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    rows = [[0] * n for _ in range(n)]
    for _, s, d in edges:
        rows[index[s]][index[d]] += 1
    return rows


def vec_mat(vec, rows) -> list:
    n_cols = len(rows[0]) if rows else 0
    return [sum(vec[i] * rows[i][j] for i in range(len(rows))) for j in range(n_cols)]


def det(rows) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return int(result)


def inverse(rows) -> list:
    """Inverse of an integer matrix with determinant +-1, as integers."""
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [[int(x) for x in r[n:]] for r in aug]


def rank(rows) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    n_cols = len(a[0]) if a else 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col] / a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def walk_counts(rows, k_min: int, k_max: int) -> dict:
    """``{k: 1 * Gamma^k}`` for ``k`` in the window; negative ``k`` only when
    ``Gamma`` is unimodular (the caller checks)."""
    n = len(rows)
    out = {}
    vec = [1] * n
    for k in range(0, max(k_max, 0) + 1):
        if k >= k_min:
            out[k] = list(vec)
        vec = vec_mat(vec, rows)
    if k_min < 0:
        inv = inverse(rows)
        vec = vec_mat([1] * n, inv)
        for k in range(-1, k_min - 1, -1):
            if k <= k_max:
                out[k] = list(vec)
            vec = vec_mat(vec, inv)
    return out


def supports(vertices, edges) -> list:
    """Vertex-index sets reached by walks of length 0, 1, ... until stable."""
    index = {v: i for i, v in enumerate(vertices)}
    out_of = {i: set() for i in range(len(vertices))}
    for _, s, d in edges:
        out_of[index[s]].add(index[d])
    seq = [tuple(range(len(vertices)))]
    while True:
        nxt = tuple(sorted({j for i in seq[-1] for j in out_of[i]}))
        if nxt == seq[-1]:
            return seq
        seq.append(nxt)


def colimit_rank(rows, stable) -> int:
    """Rank of the transposed adjacency on the stable vertices, raised to
    the size of that set (where its image has saturated)."""
    block = [[rows[i][j] for i in stable] for j in stable]
    p = [[int(i == j) for j in range(len(block))] for i in range(len(block))]
    for _ in block:
        p = [vec_mat(r, block) for r in p]
    return rank(p)


# -- structural facts ---------------------------------------------------------


def degrees(vertices, edges):
    out_deg = {v: 0 for v in vertices}
    in_deg = {v: 0 for v in vertices}
    for _, s, d in edges:
        out_deg[s] += 1
        in_deg[d] += 1
    return out_deg, in_deg


def connected(vertices, edges) -> bool:
    if not vertices:
        return False
    nbr = {v: set() for v in vertices}
    for _, s, d in edges:
        nbr[s].add(d)
        nbr[d].add(s)
    seen, todo = {vertices[0]}, [vertices[0]]
    while todo:
        for w in nbr[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == len(vertices)


def simple_cycles(vertices, edges) -> int:
    """Simple directed cycles up to rotation, parallel edges counted apart.

    Brute force over vertex sequences led by their smallest member; meant
    for graphs of at most four vertices.
    """
    mult = {}
    for _, s, d in edges:
        mult[(s, d)] = mult.get((s, d), 0) + 1
    total = 0
    for size in range(1, len(vertices) + 1):
        for seq in permutations(range(len(vertices)), size):
            if seq[0] != min(seq):
                continue
            ways = 1
            for a, b in zip(seq, seq[1:] + seq[:1]):
                ways *= mult.get((vertices[a], vertices[b]), 0)
            total += ways
    return total


def facts(vertices, edges) -> dict:
    """What ``graphs.classify`` should report."""
    out_deg, in_deg = degrees(vertices, edges)
    conn = connected(vertices, edges)
    return {
        "sinks": [v for v in vertices if not out_deg[v]],
        "sources": [v for v in vertices if not in_deg[v]],
        "regular": [v for v in vertices if out_deg[v]],
        "is_functional": all(out_deg[v] <= 1 for v in vertices),
        "is_transposed_functional": all(in_deg[v] <= 1 for v in vertices),
        "is_connected": conn,
        "directed_cycle_count": simple_cycles(vertices, edges),
        "is_cycle_graph": conn and bool(vertices)
        and all(out_deg[v] == 1 and in_deg[v] == 1 for v in vertices),
    }


def hereditary_saturated_closure(vertices, edges, seed_vertex) -> list:
    """Smallest hereditary saturated set holding ``seed_vertex``, in order."""
    out_of = {v: [] for v in vertices}
    for _, s, d in edges:
        out_of[s].append(d)
    h, todo = {seed_vertex}, [seed_vertex]
    while True:
        while todo:
            for w in out_of[todo.pop()]:
                if w not in h:
                    h.add(w)
                    todo.append(w)
        forced = [v for v in vertices
                  if v not in h and out_of[v] and all(w in h for w in out_of[v])]
        if not forced:
            return [v for v in vertices if v in h]
        h.update(forced)
        todo.extend(forced)
