import random

import pytest

from conftest import random_filtered_complex

from knotfloer.filtered import FilteredComplex, FilteredComplexError


def test_basic_invariants_checked():
    with pytest.raises(FilteredComplexError):
        FilteredComplex([("a", 0, 0), ("b", 0, 0)], {("a", "b"): 1})  # gr drop
    with pytest.raises(FilteredComplexError):
        FilteredComplex([("a", 0, 1), ("b", 1, 0)], {("a", "b"): 1})  # A increases


def test_cancel_two_generator():
    c = FilteredComplex([("x", 0, 1), ("y", 0, 0)], {("x", "y"): 1})
    assert len(c.cancel("x", "y").generators) == 0


def test_cancel_correction_formula():
    c = FilteredComplex(
        [("x", 0, 1), ("y", 0, 0), ("z", 0, 0)],
        {("x", "y"): 1, ("x", "z"): 1},
    )
    out = c.cancel("x", "y")
    assert [g.id for g in out.generators] == ["z"]
    assert out.differential == {}


def test_cancel_requires_same_filtration_level():
    c = FilteredComplex([("x", 1, 1), ("y", 0, 0)], {("x", "y"): 1})
    with pytest.raises(FilteredComplexError):
        c.cancel("x", "y")


def test_cancel_sign_over_q():
    c = FilteredComplex(
        [("u", 0, 1), ("x", 0, 1), ("y", 0, 0), ("v", 0, 0)],
        {("x", "y"): 1, ("u", "y"): 2, ("x", "v"): 3},
        "Q",
    )
    out = c.cancel("x", "y")
    assert out.d("u", "v") == -6
    assert out.homology_ranks() == c.homology_ranks()


def test_reduce_random_preserves_homology():
    rng = random.Random(11)
    for field in ("F2", "Q"):
        for _ in range(25):
            c, expected = random_filtered_complex(rng, field)
            h = c.homology_ranks()
            assert h == expected
            r = c.reduce()
            assert r.is_reduced()
            assert r.homology_ranks() == h
            assert r.reduce() == r  # idempotent


def test_reduced_sequence_lemma():
    # a filtration-compatible subcomplex: homology of the quotient is the
    # same computed before and after reducing the ambient complex
    rng = random.Random(5)
    for _ in range(20):
        c, _ = random_filtered_complex(rng, "F2")
        cutoff = 0
        sub_ids = [g.id for g in c.generators if g.A <= cutoff]
        quo_ids = [g.id for g in c.generators if g.A > cutoff]
        before = c.subquotient(quo_ids).homology_ranks()
        r = c.reduce()
        after = r.subquotient([g.id for g in r.generators if g.A > cutoff]).homology_ranks()
        assert before == after


def test_dual():
    c = FilteredComplex([("x", 1, 1), ("y", 0, 0)], {("x", "y"): 1})
    d = c.dual()
    assert d.dual().homology_ranks() == c.homology_ranks()
    h = c.homology_ranks()
    hd = d.homology_ranks()
    assert hd == {-g: r for g, r in h.items()}


def test_tensor_unit_and_squares():
    c = FilteredComplex([("x", 1, 1), ("y", 0, 0), ("v", 0, 0)], {("x", "y"): 1})
    unit = FilteredComplex([("e", 0, 0)], {})
    t = c.tensor(unit)
    assert t.homology_ranks() == c.homology_ranks()


def test_tensor_d_squared_over_q():
    rng = random.Random(7)
    for _ in range(10):
        c1, _ = random_filtered_complex(rng, "Q", pairs=3, singles=1, churn=15)
        c2, _ = random_filtered_complex(rng, "Q", pairs=3, singles=1, churn=15)
        c1.tensor(c2)  # constructor checks d^2 = 0 and gradings


def test_trefoil_tensor_ranks():
    c = FilteredComplex(
        [("y1", 1, 1), ("y0", 0, 0), ("ym", -1, -1)], {("y0", "ym"): 1}
    )
    t = c.tensor(c)
    counts = {}
    for g in t.reduce().generators:
        counts[g.A] = counts.get(g.A, 0) + 1
    assert counts == {2: 1, 1: 2, 0: 3, -1: 2, -2: 1}


def test_json_roundtrip():
    c = FilteredComplex(
        [("a", 1, 1), ("b", 0, 0)], {("a", "b"): 1}, "F2"
    )
    assert FilteredComplex.from_json(c.to_json()) == c
    from fractions import Fraction

    cq = FilteredComplex(
        [("a", 1, 1), ("b", 0, 0)], {("a", "b"): Fraction(1, 2)}, "Q"
    )
    assert FilteredComplex.from_json(cq.to_json()) == cq


def test_conjugation_population_symmetry(figure8):
    from knotfloer.surgery import input_from_alternating

    inp = input_from_alternating(figure8)
    counts = {}
    for g in inp.cfr.generators:
        key = (g.A, g.gr - g.A)
        counts[key] = counts.get(key, 0) + 1
    for (j, l), n in counts.items():
        assert counts.get((-j, l), 0) == n
