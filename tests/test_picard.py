import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from afcore.errors import GuardError
from afcore.picard import (
    FinDimCStar,
    PermBimodule,
    center_act,
    end_check,
    pic_elements,
    pic_identity,
    pic_inverse,
    pic_tensor,
    sigma_of,
)


def invertible_by_permutation_matching(dims, multiplicities) -> bool:
    """Brute-force oracle: some permutation lines the multiplicities up
    with the block sizes."""
    return any(
        tuple(multiplicities) == tuple(dims[p[i]] for i in range(len(dims)))
        for p in itertools.permutations(range(len(dims)))
    )


def test_findim_validation():
    assert FinDimCStar((1, 2, 3)).n_blocks == 3
    with pytest.raises(ValueError, match="at least one"):
        FinDimCStar(())
    with pytest.raises(ValueError, match="positive integers"):
        FinDimCStar((1, 0))
    with pytest.raises(ValueError, match="positive integers"):
        FinDimCStar((1, "2"))


def test_bimodule_validation():
    with pytest.raises(ValueError, match="not a permutation"):
        PermBimodule((1, 2), (0, 0))
    x = PermBimodule((2, 5), (1, 0))
    assert x.shapes == ((2, 5), (5, 2))


def test_pic_order_is_factorial():
    for n in range(1, 6):
        for dims in ((1,) * n, tuple(range(1, n + 1))):
            a = FinDimCStar(dims)
            assert len(pic_elements(a)) == math.factorial(n)
    with pytest.raises(GuardError, match="guard"):
        pic_elements(FinDimCStar((1,) * 9))
    assert len(pic_elements(FinDimCStar((1,) * 4), guard=4)) == 24


def test_pic_elements_order_deterministic():
    a = FinDimCStar((1, 2, 3))
    taus = [x.tau for x in pic_elements(a)]
    assert taus == sorted(taus)
    assert taus[0] == (0, 1, 2)


def test_group_laws_exhaustive():
    a = FinDimCStar((1, 2, 2, 3))
    elements = pic_elements(a)
    e = pic_identity(a)
    for x in elements:
        assert pic_tensor(x, pic_inverse(x)) == e
        assert pic_tensor(pic_inverse(x), x) == e
        assert pic_tensor(x, e) == x
        assert pic_tensor(e, x) == x
    rng = random.Random("picard-assoc")
    for _ in range(200):
        x, y, z = (rng.choice(elements) for _ in range(3))
        assert pic_tensor(pic_tensor(x, y), z) == pic_tensor(x, pic_tensor(y, z))


def test_tensor_requires_same_algebra():
    x = PermBimodule((1, 2), (0, 1))
    y = PermBimodule((2, 1), (0, 1))
    with pytest.raises(ValueError, match="different algebras"):
        pic_tensor(x, y)


def test_shapes_compose_like_rectangles():
    dims = (2, 3, 5)
    x = PermBimodule(dims, (1, 2, 0))
    y = PermBimodule(dims, (2, 0, 1))
    z = pic_tensor(x, y)
    # block i: (d_i x d_x(i)) . (d_x(i) x d_z(i))
    for i in range(3):
        assert x.shapes[i][1] == y.shapes[x.tau[i]][0]
        assert z.shapes[i] == (dims[i], dims[z.tau[i]])


def test_sigma_is_injective_up_to_tau():
    # two bimodules with the same induced centre action are the same element
    a = FinDimCStar((1, 2, 3))
    seen = {}
    for x in pic_elements(a):
        key = sigma_of(x)
        assert key not in seen
        seen[key] = x


def test_center_action_respects_tensor():
    dims = (1, 2, 2, 3)
    probe = (10, 20, 30, 40)
    elements = pic_elements(FinDimCStar(dims))
    for x in elements[::5]:
        for y in elements[::7]:
            xy = pic_tensor(x, y)
            assert center_act(sigma_of(xy), probe) == center_act(
                sigma_of(x), center_act(sigma_of(y), probe)
            )


def test_center_act_validates():
    with pytest.raises(ValueError, match="length mismatch"):
        center_act((0, 1), (5,))


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5).map(tuple)
)
def test_identity_fixes_center(dims):
    a = FinDimCStar(dims)
    e = pic_identity(a)
    probe = tuple(range(100, 100 + len(dims)))
    assert center_act(sigma_of(e), probe) == probe
    assert e.shapes == tuple((d, d) for d in dims)


# -- invertibility of candidate bimodules -----------------------------------------


def test_end_check_against_permutation_oracle():
    rng = random.Random("picard-end-check")
    for _ in range(200):
        n = rng.randint(1, 5)
        dims = tuple(rng.randint(1, 4) for _ in range(n))
        a = FinDimCStar(dims)
        mult = tuple(rng.randint(1, 4) for _ in range(n))
        assert end_check(a, mult) == invertible_by_permutation_matching(dims, mult)


def test_end_check_accepts_all_actual_elements():
    a = FinDimCStar((1, 2, 2, 4))
    for x in pic_elements(a):
        left_multiplicities = tuple(a.dims[j] for j in x.tau)
        assert end_check(a, left_multiplicities)


def test_end_check_validation():
    a = FinDimCStar((1, 2))
    with pytest.raises(ValueError, match="expected 2 multiplicities"):
        end_check(a, (1,))
    with pytest.raises(ValueError, match="positive integers"):
        end_check(a, (1, 0))
    assert not end_check(a, (1, 3))
    assert end_check(a, (2, 1))


def test_pic_tensor_refuses_mismatched_inner_sizes_under_python_O(run_python_O):
    # the inner sizes of composed rectangles always agree for honest shapes;
    # a fault that reports every rectangle as square must still be refused
    run_python_O(
        """
        from afcore.errors import CertificateError
        from afcore.picard import PermBimodule, pic_tensor

        x = PermBimodule((1, 2), (1, 0))
        PermBimodule.shapes = property(lambda self: tuple((d, d) for d in self.dims))
        try:
            pic_tensor(x, x)
            raise SystemExit("inner-size check skipped")
        except CertificateError:
            pass
        """
    )
