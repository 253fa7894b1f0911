import os
import subprocess
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotfloer import table
from knotfloer._constructions import _Builder
from knotfloer.fox import alexander
from knotfloer.laurent import LaurentPolynomial as L
from knotfloer.diagrams import PDValidationError, _is_arrival_slot
from knotfloer.linalg import det, interpolate, poly_det, signature
from knotfloer.seifert import (
    MAX_VOGEL_MOVES,
    BraidingError,
    _find_vogel_pair,
    _r2_push,
    alexander_via_seifert,
    braid_form,
    seifert_circles,
    seifert_matrix,
)
from knotfloer.signature import determinant
from knotfloer.signature import signature as goeritz_signature


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


def test_gordon_litherland_checks():
    """Gordon-Litherland: sigma(V + V^T) = -sigma(Goeritz) and
    |det(V + V^T)| = the Goeritz determinant, on every table diagram and
    its mirror; neither check goes through the Fox route."""
    for name in table.names():
        d = table.lookup(name)
        for diagram in (d, d.mirror()):
            V = seifert_matrix(diagram)
            sym = [[x + V[j][i] for j, x in enumerate(row)] for i, row in enumerate(V)]
            assert signature(sym) == -goeritz_signature(diagram), name
            assert abs(det(sym)) == determinant(diagram), name


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


def square_int_matrices(n):
    return st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )


# one size n <= 5 for V and for the coefficients M_0, M_1, M_2 of a matrix
# M_0 + t M_1 + t^2 M_2 of degree <= 2
sized_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.tuples(
        square_int_matrices(n), st.lists(square_int_matrices(n), min_size=1, max_size=3)
    )
)


@settings(max_examples=150, deadline=None)
@given(sized_matrices)
def test_interpolated_seifert_determinant_matches_leibniz(matrices):
    V, mats = matrices
    n = len(V)
    vals = [
        det([[V[i][j] - t0 * V[j][i] for j in range(n)] for i in range(n)])
        for t0 in range(n + 1)
    ]
    expected = leibniz([[L.t(0, V[i][j]) - L.t(1, V[j][i]) for j in range(n)] for i in range(n)])
    assert L(dict(enumerate(interpolate(vals)))) == expected
    pencil = [[{0: V[i][j], 1: -V[j][i]} for j in range(n)] for i in range(n)]
    assert L(poly_det(pencil)) == expected
    entry = [[{k: m[i][j] for k, m in enumerate(mats)} for j in range(n)] for i in range(n)]
    assert L(poly_det(entry)) == leibniz([[L(p) for p in row] for row in entry])


def test_interpolation_rejects_non_integral_values():
    assert interpolate([0, 1, 0]) == [0, 2, -1]
    with pytest.raises(ArithmeticError):
        interpolate([0, 0, 1])  # t(t - 1)/2


def braid_form_trying_both_sides(d):
    """The Vogel moves braid_form replaced, kept as a reference: push from
    the unmirrored side, and from the mirrored one when that is not planar."""
    cur = d
    while True:
        pair = _find_vogel_pair(cur)
        if pair is None:
            return cur
        e, ep, _ = pair
        try:
            cur = _r2_push(cur, e, ep, False)
        except PDValidationError:
            cur = _r2_push(cur, e, ep, True)


@pytest.mark.parametrize("mirror", [False, True])
def test_braid_form_builds_only_the_planar_side(mirror):
    for name in table.names():
        d = table.lookup(name)
        if mirror:
            d = d.mirror()
        assert braid_form(d).crossings == braid_form_trying_both_sides(d).crossings


@pytest.mark.parametrize("name", ["5_2", "6_1"])
def test_vogel_move_on_the_wrong_side_is_a_braiding_error(monkeypatch, name):
    import knotfloer.seifert as seifert

    def flipped(d):
        pair = _find_vogel_pair(d)
        return pair and (pair[0], pair[1], not pair[2])

    monkeypatch.setattr(seifert, "_find_vogel_pair", flipped)
    with pytest.raises(BraidingError, match="Vogel move of edge"):
        braid_form(table.lookup(name))


def _r2_push_by_builder(d, e, ep, mirrored):
    """The Vogel move as segments of a _Builder, which traverses the knot
    again to label them: the reference for seifert._r2_push's arithmetic."""
    b = _Builder()
    for k in range(1, d.n_edges + 1):
        b._parent[k] = k
    b._next = d.n_edges + 1
    e_t, e_b = b.seg(), b.seg()
    ep_m, ep_b = b.seg(), b.seg()
    for i, x in enumerate(d.crossings):
        ends = list(x.ends())
        for s in range(4):
            val = ends[s]
            if val == e:
                ends[s] = e_b if _is_arrival_slot(d, i, s) else e
            elif val == ep:
                ends[s] = ep_b if _is_arrival_slot(d, i, s) else ep
        b.add_crossing(ends, 0)
    if not mirrored:
        b.add_crossing((ep_m, e, ep_b, e_t), 0)
        b.add_crossing((ep, e_b, ep_m, e_t), 0)
    else:
        b.add_crossing((ep_m, e_t, ep_b, e), 0)
        b.add_crossing((ep, e_t, ep_m, e_b), 0)
    return b.finish(d.name)


def braid_form_by_builder(d):
    cur = d
    for _ in range(MAX_VOGEL_MOVES):
        pair = _find_vogel_pair(cur)
        if pair is None:
            return cur
        e, ep, with_walk = pair
        cur = _r2_push_by_builder(cur, e, ep, not with_walk)
    raise AssertionError("reference braiding did not terminate")


@pytest.mark.parametrize("mirror", [False, True])
def test_braid_form_matches_the_builder_reference(mirror):
    for name in table.names():
        d = table.lookup(name)
        if mirror:
            d = d.mirror()
        assert braid_form(d).crossings == braid_form_by_builder(d).crossings, name


def test_seifert_route_imports_neither_fox_nor_the_builders():
    script = (
        "import sys\n"
        "from knotfloer import table\n"
        "from knotfloer.seifert import alexander_via_seifert\n"
        "for name in table.names():\n"
        "    alexander_via_seifert(table.lookup(name))\n"
        "print(sorted(m for m in ('knotfloer._constructions', 'knotfloer.fox') if m in sys.modules))\n"
    )
    import knotfloer

    # the package this suite imports, first on the child's path
    src = os.path.dirname(os.path.dirname(os.path.abspath(knotfloer.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
