import copy
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotfloer import table
from knotfloer.filtered import FieldF2, FieldQ
from knotfloer.fox import fox_matrix, wirtinger
from knotfloer.laurent import LaurentPolynomial as L
from knotfloer.linalg import det, entries, interpolate, nullspace, poly_det, rank, signature
from knotfloer.seifert import seifert_matrix


def matrices(elements, max_rows=6, max_cols=6, square=False):
    dims = st.tuples(
        st.integers(min_value=0, max_value=max_rows),
        st.integers(min_value=0, max_value=max_cols),
    )
    if square:
        dims = st.integers(min_value=0, max_value=max_rows).map(lambda n: (n, n))
    return dims.flatmap(
        lambda rc: st.lists(
            st.lists(elements, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        )
    )


def transpose(m, ncols):
    return [[row[j] for row in m] for j in range(ncols)]


def inversions(perm):
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])


def leibniz(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        term = -1 if inversions(perm) % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


small_ints = st.integers(min_value=-5, max_value=5)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(matrices(small_ints, square=True))
@settings(max_examples=200, deadline=None)
def test_det_is_the_leibniz_expansion(m):
    assert det(m) == leibniz(m)


def test_det_needs_row_swaps():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 2], [0, 3]]) == 0
    assert det([]) == 1


@given(matrices(rationals))
@settings(max_examples=200, deadline=None)
def test_q_nullspace_is_annihilated_and_complete(m):
    ncols = len(m[0]) if m else 0
    cols = transpose(m, ncols)
    kernel = nullspace(cols, FieldQ)
    for vec in kernel:
        total = [Fraction(0)] * len(m)
        for j, c in entries(vec):
            for i in range(len(m)):
                total[i] += c * m[i][j]
        assert vec and all(x == 0 for x in total)
    assert len(kernel) == ncols - rank(m, FieldQ)


@given(matrices(st.integers(min_value=0, max_value=1)), st.sampled_from([FieldF2, FieldQ]))
@settings(max_examples=200, deadline=None)
def test_row_rank_is_column_rank(m, field):
    ncols = len(m[0]) if m else 0
    assert rank(m, field) == rank(transpose(m, ncols), field)


@given(matrices(st.integers(min_value=0, max_value=1), max_rows=8, max_cols=7))
@settings(max_examples=200, deadline=None)
def test_f2_rank_counts_the_row_span(m):
    span = set()
    for picks in product((0, 1), repeat=len(m)):
        vec = [0] * (len(m[0]) if m else 0)
        for pick, row in zip(picks, m):
            if pick:
                vec = [(a + b) % 2 for a, b in zip(vec, row)]
        span.add(tuple(vec))
    assert 2 ** rank(m, FieldF2) == len(span)


@given(matrices(st.integers(min_value=0, max_value=3)))
@settings(max_examples=200, deadline=None)
def test_f2_rank_reduces_entries_mod_2(m):
    assert rank(m, FieldF2) == rank([[x % 2 for x in row] for row in m], FieldF2)


def test_f2_nullspace_over_the_columns():
    cols = [[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 0]]
    kernel = [sorted(j for j, _ in entries(v)) for v in nullspace(cols, FieldF2)]
    assert sorted(kernel) == [[0, 1, 2], [3]]


def congruence_signature(m):
    """The Fraction congruence diagonalization linalg.signature replaced,
    kept as a reference: pivot on a nonzero diagonal entry, or first add a
    row and column with a nonzero off-diagonal entry onto another."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sig = 0
    rows = list(range(n))
    while rows:
        piv = next((i for i in rows if a[i][i] != 0), None)
        if piv is None:
            off = next(((i, j) for i in rows for j in rows if i != j and a[i][j] != 0), None)
            if off is None:
                break  # zero block contributes nothing
            i, j = off
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            continue
        p = a[piv][piv]
        sig += 1 if p > 0 else -1
        rows.remove(piv)
        for j in rows:
            if a[j][piv] != 0:
                f = a[j][piv] / p
                for k in range(n):
                    a[j][k] -= f * a[piv][k]
                for k in range(n):
                    a[k][j] -= f * a[k][piv]
    return sig


@st.composite
def symmetric_matrices(draw, max_n=6):
    """Symmetric integer matrices up to max_n x max_n; some with a zero
    diagonal, some singular by construction (B^T D B with B of rank < n)."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    kind = draw(st.sampled_from(["any", "zero diagonal", "singular"]))
    if kind == "singular" and n:
        k = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=k, max_size=k))
        dg = draw(st.lists(small_ints, min_size=k, max_size=k))
        return [
            [sum(b[r][i] * dg[r] * b[r][j] for r in range(k)) for j in range(n)]
            for i in range(n)
        ]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or kind != "zero diagonal":
                m[i][j] = m[j][i] = draw(small_ints)
    return m


@given(symmetric_matrices())
@settings(max_examples=300, deadline=None)
def test_signature_matches_congruence_diagonalization(m):
    assert signature(m) == congruence_signature(m)


@st.composite
def unimodular(draw, n):
    """A product of elementary integer row operations: adding a multiple of
    one row to another, swapping two rows, negating a row."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 0:
        return p
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            c = draw(st.integers(min_value=-3, max_value=3))
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        elif op == "swap":
            p[i], p[j] = p[j], p[i]
        else:
            p[i] = [-x for x in p[i]]
    return p


@given(symmetric_matrices().flatmap(lambda m: st.tuples(st.just(m), unimodular(len(m)))))
@settings(max_examples=200, deadline=None)
def test_signature_is_a_congruence_invariant(pair):
    m, p = pair
    n = len(m)
    assert abs(det(p)) == 1
    pt_m_p = [
        [sum(p[k][i] * m[k][l] * p[l][j] for k in range(n) for l in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert signature(pt_m_p) == signature(m)


# -- determinants over Z[t, t^-1] ---------------------------------------------
#
# poly_det is exact, not "up to +-t^k": every comparison below is of the
# coefficient dicts themselves, never of normalized polynomials, which would
# hide a sign or a power of t.


def laurent_leibniz(m):
    n = len(m)
    total = L.zero()
    for perm in permutations(range(n)):
        term = L.t(0, -1 if inversions(perm) % 2 else 1)
        for i in range(n):
            if not any(m[i][perm[i]].values()):
                break
            term = term * L(m[i][perm[i]])
        else:
            total = total + term
    return total.coeffs()


exponents = st.integers(min_value=-3, max_value=3)
nonzero = st.integers(min_value=-3, max_value=3).filter(bool)
units = st.builds(lambda k, s: {k: s}, exponents, st.sampled_from([1, -1]))
any_entries = st.dictionaries(exponents, st.integers(min_value=-3, max_value=3), max_size=3)
# zero, one term with |coefficient| >= 2, or at least two terms
non_units = st.one_of(
    st.just({}),
    st.builds(lambda k, c: {k: c}, exponents, st.sampled_from([2, -2, 3, -3])),
    st.dictionaries(exponents, nonzero, min_size=2, max_size=3),
)


@st.composite
def laurent_matrices(draw, max_n=6):
    """Square matrices of Laurent dicts up to max_n x max_n: rich in unit
    entries +-t^k, free of them (the core is the whole matrix), or singular
    (one row a Laurent combination of the others, or zero)."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    kind = draw(st.sampled_from(["units", "no units", "singular"]))
    cell = non_units if kind == "no units" else st.one_of(units, units, any_entries)
    m = [[draw(cell) for _ in range(n)] for _ in range(n)]
    if kind == "singular" and n:
        r = draw(st.integers(min_value=0, max_value=n - 1))
        row = [L.zero()] * n
        for i in range(n):
            if i != r:
                f = L(draw(any_entries))
                row = [a + f * L(p) for a, p in zip(row, m[i])]
        m[r] = [p.coeffs() for p in row]
    return m


@given(laurent_matrices())
@settings(max_examples=300, deadline=None)
def test_poly_det_is_the_laurent_leibniz_expansion(m):
    before = copy.deepcopy(m)
    assert poly_det(m) == laurent_leibniz(m)
    assert m == before


def test_poly_det_edge_cases():
    assert poly_det([]) == {0: 1}
    assert poly_det([[{-2: -1}]]) == {-2: -1}
    assert poly_det([[{0: 1, 1: 2}, {0: 0}], [{}, {3: 0}]]) == {}  # zero row
    assert poly_det([[{0: 2}, {}], [{1: 3}, {}]]) == {}  # zero column
    # the unit t at (0, 1), an odd position, then the 1 x 1 core 1
    assert poly_det([[{0: 2, 1: 1}, {1: 1}], [{-1: -1}, {0: 5}]]) == {0: 11, 1: 5}


def poly_det_every_point(mats, degree):
    """The evaluate-every-point poly_det that unit pivoting replaced, kept
    as a reference: the coefficients, lowest first, of
    det(M_0 + t M_1 + ...) from Bareiss at t = 0..degree and interpolation."""
    *low, top = mats
    vals = []
    for t in range(degree + 1):
        m = []
        for i, row in enumerate(top):
            for mat in reversed(low):
                row = [t * x + y for x, y in zip(row, mat[i])]
            m.append(row)
        vals.append(det(m))
    return interpolate(vals)


def laurent_det_every_point(m):
    """Exact det of a Laurent matrix the way the Fox route took it before:
    shift each row to start at t^0, bound the degree by the sum of the row
    spans, evaluate at every point, and shift back."""
    lows, spans = [], []
    for row in m:
        support = [e for p in row for e, c in p.items() if c]
        lows.append(min(support, default=0))
        spans.append(max(support, default=0) - lows[-1])
    mats = [
        [[p.get(low + k, 0) for p in row] for row, low in zip(m, lows)]
        for k in range(max(spans, default=0) + 1)
    ]
    coeffs = poly_det_every_point(mats, sum(spans))
    return {e + sum(lows): c for e, c in enumerate(coeffs) if c}


@pytest.mark.parametrize("mirror", [False, True])
def test_poly_det_matches_every_point_evaluation_on_the_table(mirror):
    for name in table.names():
        d = table.lookup(name)
        if mirror:
            d = d.mirror()
        V = seifert_matrix(d)
        pencil = [[{0: x, 1: -V[j][i]} for j, x in enumerate(row)] for i, row in enumerate(V)]
        fox = [[entry.coeffs() for entry in row] for row in fox_matrix(wirtinger(d))]
        for m in (pencil, fox):
            got = poly_det(m)
            assert got and got == laurent_det_every_point(m)
