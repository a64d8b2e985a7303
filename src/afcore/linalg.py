"""Exact integer matrix arithmetic and polynomial quotient rings.

Everything here is exact: integer matrices with arbitrary-precision
entries, which offer indexing and products and no other arithmetic, the
products walking only the nonzero entries of the right factor, listed
once per matrix on first use; determinants, ranks and
unimodular inverses from one fraction-free (Bareiss) elimination, so no
fraction ever arises, with each inverse checked against the identity
before it is returned; characteristic polynomials in O(n^3) from Krylov
blocks v, v m, v m^2, ..., each row computed on demand and reduced modulo
the span so far up to the first dependent one, with v = e_0 and then each
unit vector not yet in the span (Keller-Gehrig); the non-derogatory test,
whether the minimal polynomial of m, grown from the Krylov blocks of the
unit vectors, has degree n; and arithmetic in Z[x]/(p) for a
monic-up-to-sign integer polynomial p.

Polynomials are tuples of integer coefficients in ascending order with
trailing zeros trimmed; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, NamedTuple, Sequence

from .errors import CertificateError, NotUnimodular

IntPoly = tuple  # ascending integer coefficients, trailing zeros trimmed


class Matrix:
    """Immutable matrix of Python integers."""

    # _nonzero: each row's (column, entry) pairs with a nonzero entry, set by
    # the first product with this matrix on the right (:func:`_vec_mat`)
    __slots__ = ("rows", "_nonzero")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rs = tuple(tuple(map(int, row)) for row in rows)
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged rows in matrix")
        self.rows = rs

    @classmethod
    def _trusted(cls, rows: tuple) -> "Matrix":
        """A matrix from a tuple of equal-width tuples of ints, as products of
        valid matrices make them; ``Matrix(...)`` converts and checks."""
        m = cls.__new__(cls)
        m.rows = rows
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __getitem__(self, ij: tuple) -> int:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"shape mismatch: ({self.n_rows}x{self.n_cols}) * "
                f"({other.n_rows}x{other.n_cols})"
            )
        return Matrix._trusted(tuple(tuple(_vec_mat(r, other)) for r in self.rows))


def trace(m: Matrix) -> int:
    if not m.is_square:
        raise ValueError("trace requires a square matrix")
    return sum(m.rows[i][i] for i in range(m.n_rows))


def _vec_mat(vec: Sequence[int], m: Matrix) -> list:
    """``vec`` times ``m``: ``a * b`` for each nonzero entry ``a`` of ``vec``
    and each nonzero ``b`` of its row of ``m``, added in place."""
    try:
        nonzero = m._nonzero
    except AttributeError:
        nonzero = m._nonzero = tuple(
            tuple((j, b) for j, b in enumerate(row) if b) for row in m.rows
        )
    out = [0] * m.n_cols
    for a, row in zip(vec, nonzero):
        if a:
            for j, b in row:
                out[j] += a * b
    return out


def row_vec_mul(vec: Sequence[int], m: Matrix) -> tuple:
    """Row vector times matrix."""
    if len(vec) != m.n_rows:
        raise ValueError(f"vector length {len(vec)} does not match {m.n_rows} rows")
    return tuple(_vec_mat(vec, m))


def _eliminate(a: list, n_cols: int, reduce: bool = False) -> tuple:
    """Fraction-free (Bareiss) elimination of the integer rows ``a``, in place.

    Pivots come from the first ``n_cols`` columns in order: the entry in
    row ``rank``, or else the first nonzero entry below it, whose row is
    swapped up; a column with neither is skipped.  Each pivot clears its
    column in every later row (and, with ``reduce``, in every earlier row:
    Gauss-Jordan) over the full row width, by
    ``(a[i][j] * pivot - a[i][k] * a[rank][j]) // prev``, where ``prev``
    is the previous pivot.  Every entry stays a minor of the input up to
    sign, so the division is exact.  A row with a zero in the pivot column
    is skipped when ``pivot == prev``: its update would return it
    unchanged, so a permutation-like matrix such as the adjacency of
    ``cycle:n`` costs O(n^2) instead of O(n^3).

    Returns ``(rank, sign, pivot)``: the number of pivots, the sign of the
    row permutation, and the last pivot (1 if there is none).  For a square
    matrix of full rank ``sign * pivot`` is the determinant.  After
    ``reduce`` each of the first ``rank`` rows is ``pivot`` times its row
    of the reduced echelon form, except at its own pivot entry, which is
    left as it was.
    """
    n_rows = len(a)
    width = len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for k in range(n_cols):
        if rank == n_rows:
            break
        if a[rank][k] == 0:
            for i in range(rank + 1, n_rows):
                if a[i][k] != 0:
                    a[rank], a[i] = a[i], a[rank]
                    sign = -sign
                    break
            else:
                continue
        top = a[rank]
        pivot = top[k]
        for row in a[:rank] + a[rank + 1 :] if reduce else a[rank + 1 :]:
            if row[k] == 0 and pivot == prev:
                continue
            f = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - f * top[j]) // prev
            row[k] = 0
        prev = pivot
        rank += 1
    return rank, sign, prev


def det(m: Matrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination; 0x0 gives 1."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    rank, sign, pivot = _eliminate([list(r) for r in m.rows], m.n_cols)
    return sign * pivot if rank == m.n_rows else 0


def inv_unimodular(m: Matrix) -> Matrix:
    """Inverse of an integer matrix with det = +-1.

    Raises :class:`NotUnimodular` (carrying the determinant) otherwise.
    One fraction-free Gauss-Jordan pass takes ``[m | I]`` to
    ``[p*I | p*m^-1]`` with ``p = +-det m``.  The result is checked to
    invert ``m``, and :class:`CertificateError` is raised if it does not.
    """
    if not m.is_square:
        raise ValueError("inverse requires a square matrix")
    n = m.n_rows
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m.rows)]
    rank, sign, pivot = _eliminate(a, n, reduce=True)
    d = sign * pivot if rank == n else 0
    if d not in (1, -1):
        raise NotUnimodular(d)
    result = Matrix([[pivot * x for x in row[n:]] for row in a])
    if result * m != Matrix.identity(n):
        raise CertificateError("the computed inverse times the matrix is not the identity")
    return result


def power(m: Matrix, k: int) -> Matrix:
    """Exact matrix power; negative exponents require a unimodular matrix."""
    if not m.is_square:
        raise ValueError("power requires a square matrix")
    if k < 0:
        return power(inv_unimodular(m), -k)
    result = Matrix.identity(m.n_rows)
    base = m
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def rank_Q(m: Matrix) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    return _eliminate([list(r) for r in m.rows], m.n_cols)[0]


def _exact_quotients(values: Iterable[int], d: int) -> tuple:
    """Each of ``values`` divided by ``d``; a remainder raises :class:`CertificateError`."""
    out = []
    for c in values:
        q, rem = divmod(c, d)
        if rem:
            raise CertificateError(f"Krylov coefficient {c}/{d} is not an integer")
        out.append(q)
    return tuple(out)


def _block(m: Matrix, seed: tuple, basis: list) -> IntPoly:
    """The Krylov block of ``seed`` modulo the span of ``basis`` (Keller-Gehrig 1985).

    The rows seed, seed m, seed m^2, ... are computed one at a time and
    reduced modulo the span so far by fraction-free steps, each row carrying
    its coefficients on its own block's rows; each independent row is
    appended to ``basis`` as (pivot column, reduced row + coefficients).  The
    first row that reduces to zero ends the block: its coefficients are the
    characteristic polynomial of m on the quotient by the span before the
    block, which is returned.
    """
    n = m.n_rows
    width = n + 1 - len(basis)  # at most width - 1 rows of the block are independent
    # rows of earlier blocks have no coefficients on this block's rows
    basis[:] = [(k, row[:n] + [0] * width) for k, row in basis]
    w = seed
    for i in count():
        r, prev = [*w, *(0,) * i, 1, *(0,) * (width - i - 1)], 1
        for k, row in basis:  # Bareiss steps: entries stay minors, divisions are exact
            pivot, f = row[k], r[k]
            if f or pivot != prev:
                r = [(x * pivot - f * y) // prev for x, y in zip(r, row)]
            prev = pivot
        k = next(k for k, x in enumerate(r) if x)
        if k >= n:
            return _exact_quotients(r[n : n + i + 1], r[n + i])
        basis.append((k, r))
        w = row_vec_mul(w, m)


def charpoly(m: Matrix) -> tuple:
    """Coefficients of det(x*I - m), ascending, leading coefficient 1, in O(n^3).

    The product of the polynomials of the Krylov blocks (:func:`_block`) of
    e_0, then of each unit vector not yet in their span; the spans are
    invariant under m.  When e_0 is cyclic there is one block; with more
    than one (always so when m is derogatory) the result must also
    annihilate the column vector e_0.  Every result is checked against
    c_(n-1) = -trace(m) and c_0 = (-1)^n det(m).
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.n_rows
    if n == 0:
        return (1,)
    basis: list = []
    coeffs: IntPoly = (1,)
    while len(basis) < n:
        start = min(set(range(n)).difference(k for k, _ in basis))
        coeffs = poly_mul(coeffs, _block(m, tuple(int(i == start) for i in range(n)), basis))
    if start:  # the last block did not start at e_0, so there was more than one
        # Cayley-Hamilton on e_0 by Horner's rule, m acting on columns through
        # the nonzero entries of its rows: no Krylov (row) product is involved
        rows = [[(j, a) for j, a in enumerate(r) if a] for r in m.rows]
        acc = [0] * n
        for c in reversed(coeffs):
            acc = [sum(a * acc[j] for j, a in row) for row in rows]
            acc[0] += c
        if any(acc):
            raise CertificateError("characteristic polynomial does not annihilate e_0")
    if coeffs[n - 1] != -trace(m) or coeffs[0] != (-1) ** n * det(m):
        raise CertificateError("characteristic polynomial disagrees with trace or determinant")
    return coeffs


def rev_charpoly(m: Matrix) -> IntPoly:
    """Coefficients (c_0, ..., c_n) of det(t*m - 1) in ascending order.

    If det(x*I - m) = sum a_k x^k then det(t*m - 1) = sum_j (-1)^n a_{n-j} t^j,
    so c_0 = (-1)^n and c_n = det(m), as :func:`charpoly` checks.
    """
    a = charpoly(m)
    n = m.n_rows
    sign = (-1) ** n
    return tuple(sign * a[n - j] for j in range(n + 1))


def is_non_derogatory(m: Matrix) -> bool:
    """True iff I, m, ..., m^(n-1) are linearly independent over Q, i.e. iff
    the minimal polynomial p of m has degree n.  p grows over the unit
    vectors, until deg p = n, as p <- p * ann(e_j p(m)) = lcm(p, ann(e_j)):
    e_j p(m) by Horner's rule, its annihilator from its Krylov block."""
    if not m.is_square:
        raise ValueError("non-derogatory test requires a square matrix")
    n = m.n_rows
    p: IntPoly = (1,)
    for j in range(n):
        if len(p) > n:
            break
        v = [0] * n
        for c in reversed(p):
            v = _vec_mat(v, m)
            v[j] += c
        p = poly_mul(p, _block(m, tuple(v), []))
    return len(p) > n


# -- integer polynomials ---------------------------------------------------


def poly_trim(coeffs: Iterable[int]) -> IntPoly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_deg(p: IntPoly) -> int:
    """Degree; the zero polynomial has degree -1."""
    return len(p) - 1


def poly_add(p: IntPoly, q: IntPoly) -> IntPoly:
    n = max(len(p), len(q))
    return poly_trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def poly_neg(p: IntPoly) -> IntPoly:
    return tuple(-c for c in p)


def poly_sub(p: IntPoly, q: IntPoly) -> IntPoly:
    return poly_add(p, poly_neg(q))


def poly_mul(p: IntPoly, q: IntPoly) -> IntPoly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_scale(c: int, p: IntPoly) -> IntPoly:
    return poly_trim(c * a for a in p)


def poly_mod_monic(p: IntPoly, modulus: IntPoly) -> IntPoly:
    """Remainder of p modulo a monic modulus (integer long division)."""
    if not modulus or modulus[-1] != 1:
        raise ValueError(f"modulus must be monic, got {modulus!r}")
    d = poly_deg(modulus)
    rem = list(p)
    while len(rem) - 1 >= d and len(rem) > 0:
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - d
            for i, c in enumerate(modulus):
                rem[shift + i] -= lead * c
        rem.pop()
    return poly_trim(rem)


def poly_str(p: IntPoly) -> str:
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else str(abs(c)) + "*"
            sign = "-" if c < 0 else ""
            pow_part = "x" if i == 1 else f"x^{i}"
            term = f"{sign}{mag}{pow_part}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" + {term}" if not term.startswith("-") else f" - {term[1:]}"
    return out


# -- quotient ring Z[x]/(p) ------------------------------------------------


def _normalize_modulus(p: IntPoly) -> IntPoly:
    p = poly_trim(p)
    if poly_deg(p) < 1:
        raise ValueError(f"quotient modulus must have degree >= 1, got {p!r}")
    if abs(p[-1]) != 1:
        raise ValueError(f"quotient modulus must have leading coefficient +-1, got {p!r}")
    if p[-1] == -1:
        p = poly_neg(p)
    return p


class QuotElem(NamedTuple):
    """An element of Z[x]/(modulus); residue degree < deg(modulus)."""

    modulus: IntPoly
    residue: IntPoly

    def _binop_check(self, other: "QuotElem") -> None:
        if not isinstance(other, QuotElem):
            raise TypeError(f"cannot combine QuotElem with {type(other).__name__}")
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus!r} vs {other.modulus!r}"
            )

    def __add__(self, other: "QuotElem") -> "QuotElem":
        self._binop_check(other)
        return QuotElem(self.modulus, poly_add(self.residue, other.residue))

    def __sub__(self, other: "QuotElem") -> "QuotElem":
        self._binop_check(other)
        return QuotElem(self.modulus, poly_sub(self.residue, other.residue))

    def __neg__(self) -> "QuotElem":
        return QuotElem(self.modulus, poly_neg(self.residue))

    def __mul__(self, other):
        if isinstance(other, int):
            return QuotElem(self.modulus, poly_scale(other, self.residue))
        self._binop_check(other)
        return QuotElem(
            self.modulus,
            poly_mod_monic(poly_mul(self.residue, other.residue), self.modulus),
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.residue

    def __repr__(self) -> str:
        return f"({poly_str(self.residue)}) mod ({poly_str(self.modulus)})"


def quot_make(p: IntPoly, residue: Iterable[int]) -> QuotElem:
    """Reduce ``residue`` into Z[x]/(p); ``p`` is normalized to be monic."""
    modulus = _normalize_modulus(tuple(p))
    return QuotElem(modulus, poly_mod_monic(poly_trim(residue), modulus))


def quot_one(p: IntPoly) -> QuotElem:
    return quot_make(p, (1,))


def lambda_pow(p: IntPoly, k: int) -> QuotElem:
    """The class of x^k in Z[x]/(p), for any integer k, by repeated squaring.

    Negative powers exist iff the constant term of the normalized modulus
    is +-1; then x^-1 = -c_0 * (c_1 + c_2 x + ... + c_n x^(n-1)).
    """
    modulus = _normalize_modulus(tuple(p))
    c0 = modulus[0]
    if k < 0 and c0 not in (1, -1):
        raise ValueError(
            f"x is not invertible modulo {poly_str(modulus)} (constant term {c0})"
        )
    base = poly_trim(-c0 * c for c in modulus[1:]) if k < 0 else (0, 1)
    x = QuotElem(modulus, poly_mod_monic(base, modulus))
    out = quot_one(modulus)
    for bit in f"{abs(k):b}":
        out = out * out
        if bit == "1":
            out = out * x
    return out
