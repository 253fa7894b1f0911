from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from knotfloer import table
from knotfloer.fox import (
    FormalSum,
    abelianize,
    alexander,
    expand_letters,
    fox_derivative,
    fox_matrix,
    free_reduce,
    generator_spectrum,
    wirtinger,
    word_mul,
)
from knotfloer.laurent import LaurentPolynomial as L
from knotfloer.seifert import alexander_via_seifert


def test_fox_axioms():
    assert dict(fox_derivative(((0, 1),), 0)) == {(): 1}
    assert dict(fox_derivative(((0, -1),), 0)) == {((0, -1),): -1}


def test_fox_example_prefixes():
    w = ((0, 1), (1, 1), (0, -1), (2, -1))
    d = fox_derivative(w, 0)
    assert dict(d) == {(): 1, ((0, 1), (1, 1), (0, -1)): -1}


letters = st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from([1, -1]))
words = st.lists(letters, max_size=8).map(tuple)


@given(words, words, st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None)
def test_fox_product_rule(u, v, i):
    lhs = fox_derivative(free_reduce(u + v), i)
    rhs = fox_derivative(u, i) + fox_derivative(v, i).left_mul(u)
    assert abelianize(lhs) == abelianize(rhs)


def test_abelianize():
    assert abelianize(((0, 1), (1, 1), (0, -1))) == L.t(1)
    s = FormalSum({(): 1}).add(((0, 1), (1, 1), (0, -1)), -1)
    assert abelianize(s) == L.one() - L.t(1)
    assert abelianize(()) == L.one()


def test_wirtinger_shape(trefoil, figure8):
    p = wirtinger(trefoil)
    assert p.g == 3 and len(p.relators) == 2
    p.validate_wirtinger_shape()
    p8 = wirtinger(figure8)
    assert p8.g == 4 and len(p8.relators) == 3
    p8.validate_wirtinger_shape()


def test_alexander_values(trefoil, figure8):
    assert alexander(trefoil).to_text() == "t^-1 - 1 + t"
    assert sorted(alexander(figure8).coeffs().items()) == [(-1, -1), (0, 3), (1, -1)]


def test_alexander_normalized_everywhere():
    for name in table.names():
        delta = alexander(table.lookup(name))
        assert delta(1) == 1
        assert delta == delta.reverse()


def test_spectrum_signed_sum(trefoil, figure8):
    for d in (trefoil, figure8):
        spec, delta = generator_spectrum(wirtinger(d))
        total = L()
        for e, s in spec:
            total = total + L({e: s})
        assert total == delta
    spec8, _ = generator_spectrum(wirtinger(figure8))
    assert len(spec8) >= 5


def test_two_generator_trefoil_spectrum():
    # presentation <x1, x2 | x1 x2 x1 x2^-1 x1^-1 x2^-1> after eliminating
    # the third Wirtinger generator
    from knotfloer.fox import Presentation

    rel = ((0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1))
    p = Presentation(2, (rel,))
    spec, delta = generator_spectrum(p)
    assert sorted(spec) == [(-1, 1), (0, -1), (1, 1)]
    assert delta.to_text() == "t^-1 - 1 + t"


def test_fox_matrix_is_the_abelianized_free_derivative():
    """fox_matrix sums prefix exponent sums; fox_derivative with abelianize
    is the free-word reference."""
    for name in table.names():
        d = table.lookup(name)
        for diagram in (d, d.mirror()):
            p = wirtinger(diagram)
            m = fox_matrix(p)
            assert len(m) == len(p.relators)
            for rel, row in zip(p.relators, m):
                assert row == [abelianize(fox_derivative(rel, i)) for i in range(p.g - 1)]


def test_alexander_multiplicative(trefoil, figure8):
    s = trefoil.connected_sum(figure8)
    assert alexander(s) == alexander(trefoil) * alexander(figure8)
    # 8_18 # 8_18 # 8_18 and the 4-fold sum: 24 and 32 crossings, where a
    # permutation expansion of the Fox determinant no longer stays small;
    # the 3-fold sum also through the Seifert route
    d = table.lookup("8_18")
    s, power = d.connected_sum(d), alexander(d) * alexander(d)
    for k in (3, 4):
        s, power = s.connected_sum(d), power * alexander(d)
        assert s.n == 8 * k
        assert alexander(s) == power
        if k == 3:
            assert alexander_via_seifert(s) == power


def test_spectrum_term_cap():
    import pytest

    from knotfloer.fox import SpectrumResourceError

    d = table.lookup("8_12")
    with pytest.raises(SpectrumResourceError):
        generator_spectrum(wirtinger(d), term_cap=3)


def letter_rows(max_n=6):
    """n rows of (column, exponent, sign) letters over n columns; a row may
    repeat a column, as a Fox derivative row can."""
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=max(n - 1, 0)),
                    st.integers(min_value=-2, max_value=2),
                    st.sampled_from([1, -1]),
                ),
                max_size=3,
            ),
            min_size=n,
            max_size=n,
        )
    )


@settings(max_examples=150, deadline=None)
@given(letter_rows())
def test_expansion_sums_to_leibniz_determinant(rows):
    n = len(rows)
    entry = [[L.zero() for _ in range(n)] for _ in range(n)]
    for j, row in enumerate(rows):
        for col, e, s in row:
            entry[j][col] = entry[j][col] + L.t(e, s)
    det = L.zero()
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = L.t(0, -1 if inversions % 2 else 1)
        for j in range(n):
            term = term * entry[j][perm[j]]
        det = det + term
    leaves = expand_letters(rows)
    total = L.zero()
    for picks, e, s in leaves:
        cols = [rows[j][k][0] for j, k in enumerate(picks)]
        assert len(set(cols)) == n
        assert e == sum(rows[j][k][1] for j, k in enumerate(picks))
        total = total + L.t(e, s)
    assert total == det
