from fractions import Fraction
from itertools import permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from knotfloer.filtered import FieldF2, FieldQ
from knotfloer.linalg import det, entries, nullspace, rank


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


def leibniz(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
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
