import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from afcore import catalog, graphs, linalg
from afcore.errors import NotUnimodular
from afcore.linalg import (
    Matrix,
    QuotElem,
    charpoly,
    det,
    inv_unimodular,
    is_non_derogatory,
    lambda_pow,
    poly_add,
    poly_deg,
    poly_mod_monic,
    poly_mul,
    poly_str,
    power,
    quot_make,
    quot_one,
    rank_Q,
    rev_charpoly,
    row_vec_mul,
    trace,
)

# -- independent oracles -------------------------------------------------------


def det_by_cofactors(rows) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_by_cofactors(minor)
    return total


def charpoly_by_laplace(m: Matrix) -> tuple:
    """Coefficients of det(tI - m), via Laplace expansion over Z[t].

    Entries of tI - m are degree-<=1 polynomials (coefficient tuples);
    the recursion mirrors det_by_cofactors with polynomial arithmetic.
    """

    def pdet(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = (0,)
        for j in range(n):
            if not any(rows[0][j]):
                continue
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            term = poly_mul(rows[0][j], pdet(minor))
            if j % 2:
                term = tuple(-c for c in term)
            total = poly_add(total, term)
        return total

    n = m.n_rows
    if n == 0:
        return (1,)
    rows = [
        [((-m[(i, j)], 1) if i == j else (-m[(i, j)],)) for j in range(n)]
        for i in range(n)
    ]
    p = pdet(rows)
    return tuple(p) + (0,) * (n + 1 - len(p))


def rank_by_minors(rows) -> int:
    """Rank over Q as the largest r with a nonzero r x r minor."""
    import itertools

    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    for r in range(min(n_rows, n_cols), 0, -1):
        for ris in itertools.combinations(range(n_rows), r):
            for cjs in itertools.combinations(range(n_cols), r):
                sub = [[rows[i][j] for j in cjs] for i in ris]
                if det_by_cofactors(sub) != 0:
                    return r
    return 0


def inverse_by_adjugate(rows):
    """Inverse of a determinant +-1 matrix as det * adjugate, by cofactors."""
    n = len(rows)
    d = det_by_cofactors(rows)
    return [
        [
            d * (-1) ** (i + j)
            * det_by_cofactors([r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def random_matrix(rng, n, lo=-4, hi=4):
    return Matrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


# -- Matrix basics --------------------------------------------------------------


def test_matrix_construction_and_access():
    m = Matrix([[1, 2], [3, 4]])
    assert m.rows == ((1, 2), (3, 4))
    assert m[(1, 0)] == 3
    assert trace(m) == 5
    with pytest.raises(ValueError, match="ragged"):
        Matrix([[1, 2], [3]])
    assert (m * Matrix([[0, 1], [1, 0]])).rows == ((2, 1), (4, 3))
    assert m * Matrix.identity(2) == m
    assert row_vec_mul((1, 0), m) == (1, 2)
    with pytest.raises(ValueError, match="shape mismatch"):
        m * Matrix.identity(3)


def product_by_triple_loop(a_rows, b_rows, n_cols):
    return [
        [sum(a[k] * b_rows[k][j] for k in range(len(b_rows))) for j in range(n_cols)]
        for a in a_rows
    ]


def sparse_rows(rng, n_rows, n_cols, density):
    entries = [-(2**70), -7, -1, 1, 3, 2**70]
    return [
        [rng.choice(entries) if rng.random() < density else 0 for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


@pytest.mark.parametrize("density", [0.0, 0.1, 0.3, 0.7, 1.0])
def test_products_match_a_triple_loop(density):
    rng = random.Random(f"products-{density}")
    shapes = [(0, 0, 0), (1, 6, 6), (1, 6, 1), (6, 1, 6), (3, 5, 2), (2, 5, 3)]
    shapes += [(n, n, n) for n in (1, 2, 4, 9)]
    for n_rows, inner, n_cols in shapes:
        for _ in range(4):
            a_rows = sparse_rows(rng, n_rows, inner, density)
            b_rows = sparse_rows(rng, inner, n_cols, density)
            a, b = Matrix(a_rows), Matrix(b_rows)
            expected = product_by_triple_loop(a_rows, b_rows, n_cols)
            assert (a * b).rows == tuple(map(tuple, expected))
            for vec, row in zip(a_rows, expected):
                assert row_vec_mul(vec, b) == tuple(row)


def test_products_build_their_result_without_revalidation(monkeypatch):
    # a product of valid matrices has equal-width rows of ints, so it skips
    # the converting constructor; the result equals its rebuild by Matrix(...)
    rng = random.Random("trusted-products")
    shapes = ((0, 0, 0), (2, 3, 0), (3, 3, 3), (4, 2, 5))
    pairs = [
        (Matrix(sparse_rows(rng, r, k, 0.5)), Matrix(sparse_rows(rng, k, c, 0.5)))
        for r, k, c in shapes
    ]
    calls = []
    real_init = Matrix.__init__
    monkeypatch.setattr(Matrix, "__init__", lambda *args: calls.append(args) or real_init(*args))
    products = [a * b for a, b in pairs]
    assert calls == []
    monkeypatch.undo()
    for p in products:
        assert Matrix(p.rows) == p
        assert all(type(x) is int for row in p.rows for x in row)


def test_being_a_right_factor_leaves_eq_hash_and_repr_unchanged():
    rows = [[0, 2, 0], [-1, 0, 2**70], [0, 0, 0]]
    m = Matrix(rows)
    before = (hash(m), repr(m))
    # the nonzero view is built by the first product, not by det or the constructor
    assert det(m) == 0 and not hasattr(m, "_nonzero")
    assert row_vec_mul((1, 1, 1), m) == (-1, 2, 2**70)
    assert m * m == Matrix(product_by_triple_loop(rows, rows, 3))
    assert (hash(m), repr(m)) == before
    assert m == Matrix(rows) and Matrix(rows) == m
    assert {m: 1}[Matrix(rows)] == 1


class CountingInt(int):
    """An int that counts the multiplications it takes part in."""

    products = 0

    def __mul__(self, other):
        CountingInt.products += 1
        return int(self) * other

    __rmul__ = __mul__


def test_a_vector_product_multiplies_only_nonzero_entry_pairs():
    n = 50
    # 1 times the cycle's adjacency meets n nonzero entries, one per row;
    # e_0 times full:n meets the n entries of the first row
    cycle = graphs.adjacency(catalog.build_token(f"cycle:{n}"))
    CountingInt.products = 0
    assert row_vec_mul(tuple(CountingInt(1) for _ in range(n)), cycle) == (1,) * n
    assert CountingInt.products == n
    full = graphs.adjacency(catalog.build_token(f"full:{n}"))
    CountingInt.products = 0
    e_0 = tuple(CountingInt(int(i == 0)) for i in range(n))
    assert row_vec_mul(e_0, full) == (1,) * n
    assert CountingInt.products == n


# -- determinants and inverses ----------------------------------------------------


def test_det_small_frozen():
    assert det(Matrix([[1, 1], [1, 0]])) == -1
    assert det(Matrix.identity(4)) == 1
    assert det(Matrix([[2, 0], [0, 3]])) == 6


def test_det_against_cofactor_oracle():
    rng = random.Random("det-oracle")
    for n in range(1, 6):
        for _ in range(40):
            m = random_matrix(rng, n)
            assert det(m) == det_by_cofactors([list(r) for r in m.rows])


@given(
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_det_oracle_property(rows):
    assert det(Matrix(rows)) == det_by_cofactors(rows)


@st.composite
def sparse_matrices(draw):
    """At least 60% zeros, so Bareiss meets zeros in the pivot column both
    when the pivot equals the previous one (row skipped) and when not."""
    n = draw(st.integers(min_value=1, max_value=7))
    cells = draw(
        st.lists(st.integers(0, n * n - 1), unique=True, max_size=(2 * n * n) // 5)
    )
    rows = [[0] * n for _ in range(n)]
    for c in cells:
        rows[c // n][c % n] = draw(st.sampled_from((-2, -1, 1, 2)))
    return rows


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # pivot == prev: rows skipped
@example([[2, 1, 0], [0, 1, 1], [1, 0, 1]])  # pivot != prev: zero rows scaled
def test_det_sparse_oracle_property(rows):
    assert det(Matrix(rows)) == det_by_cofactors(rows)


def test_det_of_long_cycle_is_the_cycle_sign():
    assert det(graphs.adjacency(catalog.build_token("cycle:300"))) == (-1) ** 299


def test_inv_unimodular_round_trip():
    m = Matrix([[1, 1], [1, 0]])
    inv = inv_unimodular(m)
    assert inv.rows == ((0, 1), (1, -1))
    assert inv * m == Matrix.identity(2) == m * inv


def test_inv_unimodular_rejects_and_reports_det():
    with pytest.raises(NotUnimodular) as exc:
        inv_unimodular(Matrix([[2, 0], [0, 1]]))
    assert exc.value.det == 2
    with pytest.raises(NotUnimodular) as exc:
        inv_unimodular(Matrix([[1, 1], [1, 1]]))
    assert exc.value.det == 0
    # the rows are swapped before the first pivot; the sign must survive
    with pytest.raises(NotUnimodular) as exc:
        inv_unimodular(Matrix([[0, 2], [1, 0]]))
    assert exc.value.det == -2


def test_certificates_survive_python_O(run_python_O):
    # under -O an assert is skipped; the certificates must still refuse a
    # result built from a wrong matrix or vector product, whether charpoly
    # needs one Krylov block or several
    run_python_O(
        """
        from afcore import linalg
        from afcore.errors import CertificateError
        from afcore.linalg import Matrix, charpoly, inv_unimodular

        real_mul = Matrix.__mul__
        Matrix.__mul__ = lambda a, b: Matrix([[0] * b.n_cols] * a.n_rows)
        try:
            inv_unimodular(Matrix([[2, 1], [1, 1]]))
            raise SystemExit("inverse certificate skipped")
        except CertificateError:
            pass
        Matrix.__mul__ = real_mul

        # e_0 is cyclic for [[2, 1], [1, 1]]: charpoly reduces one Krylov
        # block, which never multiplies matrices.  With every vector product
        # off by one it would return x^2 - 3x: the trace agrees, the
        # determinant not.
        real_row_vec_mul = linalg.row_vec_mul
        linalg.row_vec_mul = lambda v, m: tuple(x + 1 for x in real_row_vec_mul(v, m))
        try:
            charpoly(Matrix([[2, 1], [1, 1]]))
            raise SystemExit("one-block charpoly certificate skipped")
        except CertificateError:
            pass

        # 2I is derogatory: e_0 is not cyclic, so charpoly reduces several
        # blocks.  Taking every vector product with diag(-1, -1, 8) instead gives
        # (x + 1)^2 (x - 8): trace 6 and determinant 8 agree with 2I, and only
        # the Cayley-Hamilton check on e_0 sees the fault.
        fake = Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, 8]])
        linalg.row_vec_mul = lambda v, m: real_row_vec_mul(v, fake)
        try:
            charpoly(Matrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
            raise SystemExit("several-block charpoly certificate skipped")
        except CertificateError as err:
            if "annihilate" not in str(err):
                raise SystemExit(f"several-block fault caught by the wrong check: {err}")
        linalg.row_vec_mul = real_row_vec_mul

        from afcore import catalog, graphs
        graphs.directed_cycle_count = lambda g: 2
        try:
            graphs.classify(catalog.build_token("cycle:3"))
            raise SystemExit("cycle-graph cross-check skipped")
        except CertificateError:
            pass
        """
    )


def test_poly_mod_monic_refuses_a_non_monic_modulus_under_python_O(run_python_O):
    # the long division assumes a leading 1; 2x - 1 would leave a wrong remainder
    run_python_O(
        """
        from afcore.linalg import poly_mod_monic

        for modulus in ((-1, 2), (), (1, 0, -1)):
            try:
                poly_mod_monic((1, 0, 1), modulus)
                raise SystemExit(f"non-monic modulus {modulus} accepted")
            except ValueError as err:
                if "monic" not in str(err):
                    raise
        """
    )


def test_power_negative_exponents():
    m = Matrix([[1, 1], [1, 0]])
    assert power(m, 0) == Matrix.identity(2)
    assert power(m, 3) == m * m * m
    assert power(m, -2) == inv_unimodular(m) * inv_unimodular(m)
    assert power(m, -2) * power(m, 2) == Matrix.identity(2)
    with pytest.raises(NotUnimodular):
        power(Matrix([[2]]), -1)


def test_rank_against_minor_oracle():
    rng = random.Random("rank-oracle")
    for _ in range(60):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, lo=-2, hi=2)
        assert rank_Q(m) == rank_by_minors([list(r) for r in m.rows])
    assert rank_Q(Matrix([[0] * 3] * 3)) == 0
    assert rank_Q(Matrix([[1, 2], [2, 4]])) == 1


# -- sympy as an independent oracle -------------------------------------------------


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def square_matrices(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def unimodular_matrices(draw):
    """Products of elementary integer matrices: row additions, swaps, negations."""
    n = draw(st.integers(min_value=1, max_value=4))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add" and i != j:
            c = draw(st.integers(min_value=-3, max_value=3))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-a for a in rows[i]]
    return rows


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_det_and_charpoly_match_sympy(sympy, rows):
    m = sympy.Matrix(rows)
    assert det(Matrix(rows)) == m.det()
    x = sympy.Symbol("x")
    assert list(charpoly(Matrix(rows))) == m.charpoly(x).all_coeffs()[::-1]


@st.composite
def permuted_unitriangular_matrices(draw):
    """A row permutation of an upper unitriangular matrix: zeros reach the
    diagonal, so Gauss-Jordan has to swap rows to find its pivots."""
    n = draw(st.integers(min_value=2, max_value=5))
    u = [[1 if i == j else draw(small_ints) if j > i else 0 for j in range(n)] for i in range(n)]
    return [u[i] for i in draw(st.permutations(range(n)))]


@st.composite
def shaped_matrices(draw):
    """Tall, wide or square, dense or mostly zero, so that some columns
    have no pivot and elimination has to skip them."""
    n_rows = draw(st.integers(min_value=1, max_value=6))
    n_cols = draw(st.integers(min_value=1, max_value=6))
    entries = draw(st.sampled_from((small_ints, st.sampled_from((0, 0, 0, 0, -1, 1, 2)))))
    row = st.lists(entries, min_size=n_cols, max_size=n_cols)
    return draw(st.lists(row, min_size=n_rows, max_size=n_rows))


@settings(max_examples=60, deadline=None)
@given(unimodular_matrices())
def test_inv_unimodular_matches_sympy(sympy, rows):
    inverse = inv_unimodular(Matrix(rows))
    assert [list(r) for r in inverse.rows] == sympy.Matrix(rows).inv().tolist()


@settings(max_examples=100, deadline=None)
@given(permuted_unitriangular_matrices())
@example([[0, 1, 2], [0, 0, 1], [1, 3, -1]])
def test_inv_unimodular_after_row_swaps_matches_adjugate(rows):
    assert [list(r) for r in inv_unimodular(Matrix(rows)).rows] == inverse_by_adjugate(rows)


@settings(max_examples=100, deadline=None)
@given(shaped_matrices())
@example([[0, 0, 1, 2], [0, 0, 2, 4], [0, 0, 0, 1]])  # columns 0, 1 and 3 lack a pivot
@example([[0, 1], [0, 2], [0, 0], [1, 0], [0, 3]])  # tall, pivot found by a swap
def test_rank_on_shaped_matrices_matches_minors(rows):
    assert rank_Q(Matrix(rows)) == rank_by_minors(rows)


@settings(max_examples=60, deadline=None)
@given(shaped_matrices())
def test_rank_matches_sympy(sympy, rows):
    assert rank_Q(Matrix(rows)) == sympy.Matrix(rows).rank()


def test_rank_of_non_derogatory_test_matrices_matches_sympy(sympy):
    # the n x n^2 matrix whose rows are I, m, ..., m^(n-1) flattened
    tokens = [f"sigma:{n}" for n in range(1, 7)] + [f"cycle:{n}" for n in range(1, 9)]
    for token in tokens:
        m = graphs.adjacency(catalog.build_token(token))
        rows = [[x for r in power(m, k).rows for x in r] for k in range(m.n_rows)]
        assert rank_Q(Matrix(rows)) == sympy.Matrix(rows).rank(), token


# -- characteristic polynomials ----------------------------------------------------


def test_charpoly_against_laplace_oracle():
    rng = random.Random("charpoly-oracle")
    for n in range(1, 5):
        for _ in range(25):
            m = random_matrix(rng, n)
            assert charpoly(m) == charpoly_by_laplace(m)


def test_charpoly_frozen_examples():
    # ascending coefficients of det(tI - m)
    assert charpoly(Matrix([[1, 1], [1, 0]])) == (-1, -1, 1)
    assert charpoly(Matrix.identity(3)) == (-1, 3, -3, 1)


def test_rev_charpoly_endpoints():
    rng = random.Random("rev-endpoints")
    for n in range(1, 5):
        m = random_matrix(rng, n)
        p = rev_charpoly(m)
        assert p[0] == (-1) ** n
        assert p[-1] == det(m)
        assert len(p) == n + 1


def test_rev_charpoly_penrose_and_cp():
    assert rev_charpoly(Matrix([[1, 1], [1, 0]])) == (1, -1, -1)
    # upper-triangular all-ones: coefficients (-1)^(n-j) * C(n, j)
    from math import comb

    for n in range(1, 6):
        m = Matrix([[1 if j >= i else 0 for j in range(n)] for i in range(n)])
        assert rev_charpoly(m) == tuple(
            (-1) ** (n - j) * comb(n, j) for j in range(n + 1)
        )


def test_is_non_derogatory():
    assert is_non_derogatory(Matrix([[1, 1], [1, 0]]))
    assert not is_non_derogatory(Matrix.identity(2))
    assert is_non_derogatory(Matrix([[5]]))


def non_derogatory_by_power_rank(m: Matrix) -> bool:
    """The definition: I, m, ..., m^(n-1), flattened, have rank n."""
    n = m.n_rows
    rows, p = [], Matrix.identity(n)
    for _ in range(n):
        rows.append([x for r in p.rows for x in r])
        p = p * m
    return rank_Q(Matrix(rows)) == n


def adjacency_rows(token: str) -> list:
    return [list(r) for r in graphs.adjacency(catalog.build_token(token)).rows]


def block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, r in enumerate(b):
            rows[at + i][at : at + len(r)] = r
        at += len(b)
    return rows


def conjugate(rows, rng):
    """u^-1 * rows * u for u a random row permutation of a unitriangular
    matrix, so that no seed vector lines up with the block structure."""
    n = len(rows)
    upper = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    u = Matrix(upper[i] for i in rng.sample(range(n), n))
    return [list(r) for r in (inv_unimodular(u) * Matrix(rows) * u).rows]


def derogatory_inputs():
    rng = random.Random("derogatory")
    out = [
        [[2, 0], [0, 2]],
        [[3, 0, 0], [0, -1, 0], [0, 0, 3]],
        block_diagonal([[1, 1], [1, 0]], [[1, 1], [1, 0]]),
        block_diagonal([[0, 1], [-1, 2]], [[0, 1], [-1, 2]], [[5]]),
    ]
    out += [adjacency_rows(token) for token in ("full:3", "full:4", "full:6", "lens:2", "lens:3", "lens:4")]
    for _ in range(6):
        d = [rng.choice((-1, 0, 2)) for _ in range(rng.randint(2, 4))]
        d.append(d[0])  # a repeated eigenvalue with two eigenvectors
        out.append(conjugate([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))], rng))
        b = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        out.append(conjugate(block_diagonal(b, b), rng))
    return out


def non_derogatory_inputs():
    rng = random.Random("non-derogatory")
    out = [adjacency_rows(token) for token in ("cycle:1", "cycle:2", "cycle:5", "cycle:9", "sigma:3", "sigma:6")]
    for n in range(1, 6):  # companion matrices of random monic polynomials
        c = [rng.randint(-3, 3) for _ in range(n)]
        out.append([[int(j == i + 1) for j in range(n)] for i in range(n - 1)] + [[-x for x in c]])
    return out


# Left eigenvectors e_0, 1 and e_2 (resp. (1, 2, 3)) of eigenvalues 1, 2, 3:
# e_0 and 1 are not cyclic, so only the third seed (resp. no seed) is.
_P3 = Matrix([[1, 0, 0], [1, 1, 1], [0, 0, 1]])
_P_ALL = Matrix([[1, 0, 0], [1, 1, 1], [1, 2, 3]])
_D = Matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
THIRD_SEED_ONLY = inv_unimodular(_P3) * _D * _P3
NO_SEED_CYCLIC = inv_unimodular(_P_ALL) * _D * _P_ALL


def test_charpoly_on_derogatory_and_non_derogatory_inputs_matches_sympy(sympy):
    x = sympy.Symbol("x")
    for rows, expected in [(r, False) for r in derogatory_inputs()] + [
        (r, True) for r in non_derogatory_inputs()
    ]:
        m = Matrix(rows)
        assert list(charpoly(m)) == sympy.Matrix(rows).charpoly(x).all_coeffs()[::-1], rows
        assert is_non_derogatory(m) is expected, rows


def test_charpoly_does_not_depend_on_which_seed_is_cyclic(monkeypatch):
    products = []
    real_mul = Matrix.__mul__

    def counting_mul(a, b):
        if isinstance(b, Matrix):
            products.append(b)
        return real_mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    # the seeds e_0 and 1 are eigenvectors of both matrices, (1, 2, 3) of the
    # second; charpoly branches from e_0 on both, with vector products only
    for m in (THIRD_SEED_ONLY, NO_SEED_CYCLIC):
        assert row_vec_mul((1, 0, 0), m) == (1, 0, 0)
        assert row_vec_mul((1, 1, 1), m) == (2, 2, 2)
        products.clear()
        assert charpoly(m) == (-6, 11, -6, 1)  # (x - 1)(x - 2)(x - 3)
        assert products == []
        assert is_non_derogatory(m)
    assert row_vec_mul((1, 2, 3), NO_SEED_CYCLIC) == (3, 6, 9)


def test_krylov_rows_are_computed_only_until_the_first_dependent_one(monkeypatch):
    products = []
    real_row_vec_mul = linalg.row_vec_mul
    monkeypatch.setattr(
        linalg, "row_vec_mul", lambda v, m: products.append(v) or real_row_vec_mul(v, m)
    )
    # e_0 is not cyclic for full:n or lens:k.  A block's first row is its seed
    # and each later row costs one vector product; every block stops at its
    # first dependent row, so charpoly makes one product per independent row.
    # is_non_derogatory(full:n) reads the minimal polynomial x^2 - n x off the
    # block of e_0 in two products; e_j p(m) = 0 for every later unit vector.
    for token in [f"full:{n}" for n in range(4, 17)] + [f"lens:{k}" for k in range(3, 16)]:
        m = graphs.adjacency(catalog.build_token(token))
        products.clear()
        charpoly(m)
        assert len(products) == m.n_rows, token
        if token.startswith("full:"):
            products.clear()
            assert not is_non_derogatory(m)
            assert len(products) <= 5, token


def test_is_non_derogatory_makes_no_matrix_product_and_no_rank(monkeypatch):
    # the minimal polynomial comes from vector products alone; the power-rank
    # definition takes n - 1 matrix products and an n x n^2 rank
    calls = []
    real_mul, real_rank = Matrix.__mul__, linalg.rank_Q
    cases = [Matrix(rows) for rows in derogatory_inputs()] + [
        graphs.adjacency(catalog.build_token(token))
        for token in [f"full:{n}" for n in range(4, 17)] + [f"lens:{k}" for k in range(3, 16)]
    ]
    monkeypatch.setattr(Matrix, "__mul__", lambda a, b: calls.append("mul") or real_mul(a, b))
    monkeypatch.setattr(linalg, "rank_Q", lambda m: calls.append("rank") or real_rank(m))
    for m in cases:
        assert not is_non_derogatory(m), m
    assert calls == []


def jordan_block(eigenvalue, k):
    return [[eigenvalue if i == j else int(j == i + 1) for j in range(k)] for i in range(k)]


def branching_inputs():
    """Seeded matrices up to 8 x 8 on which e_0 is not cyclic.

    The dense ones stop at 7 x 7, where Laplace expansion is still quick.
    """
    rng = random.Random("branching")
    out = [[list(r) for r in m.rows] for m in (THIRD_SEED_ONLY, NO_SEED_CYCLIC)]
    for n in range(2, 9):  # scalar matrices
        c = rng.randint(-3, 3)
        out.append([[c * (i == j) for j in range(n)] for i in range(n)])
    for n in range(3, 8):  # the rank-1 all-ones matrix J_n
        out.append([[1] * n for _ in range(n)])
    for k, copies in ((2, 2), (2, 3), (3, 2), (4, 2), (2, 4)):  # repeated Jordan blocks
        eigenvalue = rng.randint(-2, 2)
        out.append(block_diagonal(*[jordan_block(eigenvalue, k)] * copies))
    out.append(block_diagonal(jordan_block(1, 3), jordan_block(1, 2), jordan_block(1, 3)))
    for k in (2, 3, 3):  # block-diagonal repeats, conjugated
        b = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        out.append(conjugate(block_diagonal(b, b), rng))
    out.append(block_diagonal(*[[[1, 1], [1, 0]]] * 4))
    out += [adjacency_rows(f"lens:{k}") for k in range(2, 8)]
    return out


def test_branching_charpoly_against_laplace_oracle():
    for rows in branching_inputs():
        m = Matrix(rows)
        # e_0 is not cyclic, so charpoly needs more than one Krylov block
        krylov = [(1,) + (0,) * (m.n_rows - 1)]
        while len(krylov) < m.n_rows:
            krylov.append(row_vec_mul(krylov[-1], m))
        assert rank_Q(Matrix(krylov)) < m.n_rows, rows
        assert charpoly(m) == charpoly_by_laplace(m), rows


def test_branching_charpoly_matches_sympy(sympy):
    x = sympy.Symbol("x")
    for rows in branching_inputs():
        assert list(charpoly(Matrix(rows))) == sympy.Matrix(rows).charpoly(x).all_coeffs()[::-1], rows


def test_is_non_derogatory_matches_the_power_rank_definition():
    rng = random.Random("non-derogatory-definition")
    cases = derogatory_inputs() + non_derogatory_inputs() + branching_inputs()
    cases += [adjacency_rows("full:8"), adjacency_rows("lens:6")]
    for _ in range(150):
        n = rng.randint(1, 5)
        cases.append([[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)])
    for rows in cases:
        m = Matrix(rows)
        assert is_non_derogatory(m) == non_derogatory_by_power_rank(m), rows


# -- polynomial quotient ring -------------------------------------------------------


def test_poly_helpers():
    assert poly_deg(()) == -1  # zero polynomial trims to the empty tuple
    assert poly_deg((1, 0, 2)) == 2
    assert poly_add((1, 2), (-1, -2)) == ()
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
    assert poly_mod_monic((0, 0, 1), (-1, 0, 1)) == (1,)
    assert poly_str((1, -1, -1)) == "1 - x - x^2"
    assert poly_str(()) == "0"


def test_quot_ring_laws():
    p = (1, -1, -1)  # penrose reversed charpoly, monic after normalization
    one = quot_one(p)
    lam = lambda_pow(p, 1)
    x = quot_make(p, (2, 3))
    y = quot_make(p, (-1, 4))
    z = quot_make(p, (5, -2))
    assert (x + y) - y == x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x * one == x
    assert (x * y) * z == x * (y * z)
    assert lam * lam == lambda_pow(p, 2)


def test_lambda_pow_additivity():
    p = (1, -1, -1)
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert lambda_pow(p, a) * lambda_pow(p, b) == lambda_pow(p, a + b)
    assert lambda_pow(p, 0) == quot_one(p)


def test_lambda_inverse_penrose():
    # for the golden-ratio polynomial, 1/lambda = 1 + lambda
    p = (1, -1, -1)
    assert lambda_pow(p, -1).residue == (1, 1)


def test_lambda_pow_requires_invertible_constant_term():
    # constant term 0 (or any non-unit) means lambda is not invertible
    with pytest.raises(ValueError, match="not invertible"):
        lambda_pow((0, -1, 1), -1)
    with pytest.raises(ValueError, match="not invertible"):
        lambda_pow((2, -1), -1)


def lambda_pow_by_products(p, k):
    """x^k as |k| products of x, or of x^-1 = -c_0 (c_1 + ... + c_n x^(n-1))."""
    modulus = quot_one(p).modulus
    x = quot_make(p, (0, 1) if k >= 0 else [-modulus[0] * c for c in modulus[1:]])
    out = quot_one(p)
    for _ in range(abs(k)):
        out = out * x
    return out


@pytest.mark.parametrize(
    "p", [(1, -1, -1), (-1, 1, 1), (1, 0, 1), (-1, 3, 0, 1), (1, 2, -2, -1), (1, -1), (3, -1, 1)]
)
def test_lambda_pow_matches_repeated_products(p):
    for k in range(-60, 61):
        if k < 0 and quot_one(p).modulus[0] not in (1, -1):
            with pytest.raises(ValueError, match="x is not invertible modulo"):
                lambda_pow(p, k)
        else:
            assert lambda_pow(p, k) == lambda_pow_by_products(p, k)


def test_lambda_pow_takes_logarithmically_many_products(monkeypatch):
    calls = []
    mul = QuotElem.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(QuotElem, "__mul__", counting_mul)
    got = lambda_pow((1, -1, -1), -1000)
    assert len(calls) <= 2 * math.ceil(math.log2(1000)) + 2
    monkeypatch.undo()
    assert got == lambda_pow_by_products((1, -1, -1), -1000)


def test_quot_positive_powers_cuntz():
    # single vertex, n loops: modulus x - n, so lambda^k reduces to n^k
    for n in (2, 3, 5):
        p = (n, -1)
        for k in range(0, 5):
            assert lambda_pow(p, k).residue == (n**k,)
