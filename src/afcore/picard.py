"""The Picard group of a finite-dimensional algebra, combinatorially.

A finite-dimensional algebra is a direct sum of matrix blocks, recorded
by its tuple of block sizes.  Invertible bimodules over it are, up to
isomorphism, given by a permutation of the block positions: block ``i``
contributes a ``d_i x d_tau(i)`` rectangle.  Tensor product composes the
permutations, and the induced map on the centre is index substitution, so
the Picard group is the full symmetric group on block positions, listed for
at most a fixed 8 blocks (``MAX_BLOCKS``).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import CertificateError, GuardError


class FinDimCStar(NamedTuple("FinDimCStar", [("dims", tuple)])):
    """A finite multi-matrix algebra: ordered tuple of block sizes."""

    __slots__ = ()

    def __new__(cls, dims: tuple):
        if not dims:
            raise ValueError("need at least one matrix block")
        if any((not isinstance(d, int)) or d < 1 for d in dims):
            raise ValueError(f"block sizes must be positive integers, got {dims}")
        return super().__new__(cls, dims)

    @property
    def n_blocks(self) -> int:
        return len(self.dims)


class PermBimodule(NamedTuple("PermBimodule", [("dims", tuple), ("tau", tuple)])):
    """The invertible bimodule attached to a block permutation ``tau``.

    ``tau`` is 0-indexed: block ``i`` of the left action meets block
    ``tau[i]`` of the right action, in a rectangle of shape
    ``(dims[i], dims[tau[i]])``.
    """

    __slots__ = ()

    def __new__(cls, dims: tuple, tau: tuple):
        if sorted(tau) != list(range(len(dims))):
            raise ValueError(f"tau = {tau} is not a permutation of the blocks")
        return super().__new__(cls, dims, tau)

    @property
    def shapes(self) -> tuple:
        return tuple((self.dims[i], self.dims[self.tau[i]]) for i in range(len(self.dims)))


def pic_identity(a: FinDimCStar) -> PermBimodule:
    return PermBimodule(a.dims, tuple(range(a.n_blocks)))


MAX_BLOCKS = 8  # the most blocks whose bimodules pic_elements lists


def pic_elements(a: FinDimCStar) -> tuple:
    """All invertible bimodules, in lexicographic ``tau`` order.

    There are ``n!`` of them; refuses more than ``MAX_BLOCKS`` (a fixed 8)
    blocks with :class:`GuardError`.
    """
    if a.n_blocks > MAX_BLOCKS:
        raise GuardError(
            f"{a.n_blocks} blocks would enumerate {a.n_blocks}! bimodules; "
            f"the guard is {MAX_BLOCKS}"
        )
    return tuple(
        PermBimodule(a.dims, tau)
        for tau in itertools.permutations(range(a.n_blocks))
    )


def pic_tensor(x: PermBimodule, y: PermBimodule) -> PermBimodule:
    """Balanced tensor product; the permutations compose.

    Block ``i`` of the result has shape ``(d_i, d_(y.tau[x.tau[i]]))``;
    the inner dimensions of the composed rectangles are checked to match.
    """
    if x.dims != y.dims:
        raise ValueError("bimodules live over different algebras")
    n = len(x.dims)
    tau = tuple(y.tau[x.tau[i]] for i in range(n))
    for i in range(n):
        # (d_i x d_x(i)) tensor (d_x(i) x d_yx(i)): inner sizes must agree
        if x.shapes[i][1] != y.shapes[x.tau[i]][0]:
            raise CertificateError(f"inner sizes of block {i} do not agree")
    return PermBimodule(x.dims, tau)


def pic_inverse(x: PermBimodule) -> PermBimodule:
    inv = [0] * len(x.tau)
    for i, j in enumerate(x.tau):
        inv[j] = i
    return PermBimodule(x.dims, tuple(inv))


def sigma_of(x: PermBimodule) -> tuple:
    """The induced automorphism of the centre, as a permutation.

    It acts on centre coordinates by index substitution (see
    :func:`center_act`); for these bimodules it is the defining
    permutation itself.
    """
    return x.tau


def center_act(tau: tuple, lam: tuple) -> tuple:
    """Index substitution on a centre coordinate tuple."""
    if len(tau) != len(lam):
        raise ValueError(f"length mismatch: {len(tau)} vs {len(lam)}")
    return tuple(lam[tau[i]] for i in range(len(tau)))


def end_check(a: FinDimCStar, multiplicities) -> bool:
    """Can a bimodule with these left multiplicities be invertible?

    The candidate assigns multiplicity ``m_i`` to block ``i``;
    invertibility forces the multiset of multiplicities to coincide with
    the multiset of block sizes.
    """
    mult = tuple(multiplicities)
    if len(mult) != a.n_blocks:
        raise ValueError(
            f"expected {a.n_blocks} multiplicities, got {len(mult)}"
        )
    if any((not isinstance(m, int)) or m < 1 for m in mult):
        raise ValueError(f"multiplicities must be positive integers, got {mult}")
    return sorted(mult) == sorted(a.dims)
