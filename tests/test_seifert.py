from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotfloer import table
from knotfloer.fox import alexander
from knotfloer.laurent import LaurentPolynomial as L
from knotfloer.linalg import det
from knotfloer.seifert import _interpolate, alexander_via_seifert, braid_form, seifert_circles


def test_seifert_circles_trefoil(trefoil):
    circles, circle_of, strands = seifert_circles(trefoil)
    assert len(circles) == 2


def test_braid_form_is_braided(figure8):
    bd = braid_form(figure8)
    from knotfloer.seifert import _braided_structure

    order, pos, gaps, walks, links = _braided_structure(bd)
    assert all(gaps)


@pytest.mark.parametrize("name", ["3_1", "4_1", "5_2", "6_2", "7_4", "8_19", "8_5"])
def test_two_oracles_agree(name):
    d = table.lookup(name)
    assert alexander_via_seifert(d) == alexander(d)
    assert alexander_via_seifert(d.mirror()) == alexander(d)


def test_oracle_on_connected_sum(trefoil, figure8):
    s = trefoil.connected_sum(figure8)
    assert alexander_via_seifert(s) == alexander(s)


def leibniz(m):
    n = len(m)
    total = L.zero()
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = L.t(0, -1 if inversions % 2 else 1)
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + term
    return total


square_int_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=150, deadline=None)
@given(square_int_matrices)
def test_interpolated_seifert_determinant_matches_leibniz(V):
    n = len(V)
    vals = [
        det([[V[i][j] - t0 * V[j][i] for j in range(n)] for i in range(n)])
        for t0 in range(n + 1)
    ]
    expected = leibniz([[L.t(0, V[i][j]) - L.t(1, V[j][i]) for j in range(n)] for i in range(n)])
    assert L(dict(enumerate(_interpolate(vals)))) == expected


def test_interpolation_rejects_non_integral_values():
    assert _interpolate([0, 1, 0]) == [0, 2, -1]
    with pytest.raises(ArithmeticError):
        _interpolate([0, 0, 1])  # t(t - 1)/2
