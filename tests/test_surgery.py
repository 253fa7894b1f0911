import pytest

from fractions import Fraction

from conftest import right_handed

from knotfloer import table
from knotfloer.laurent import LaurentPolynomial as L
from knotfloer.surgery import (
    SurgeryInputError,
    UModel,
    big_surgery_homology,
    c_subcomplex,
    chi_formula,
    euler_c_subcomplex,
    h_invariant,
    h_perfect_closed_form,
    input_from_alternating,
    input_from_tensor,
    integer_surgery,
    perfect_closed_form,
    perfect_input,
    thin_model,
    zero_surgery_betti,
)


def unknot_input():
    return perfect_input({0: 1}, 0, L.one())


def rh(name):
    return input_from_alternating(right_handed(name))


def test_unknot_everything():
    inp = unknot_input()
    for k in range(4):
        assert len(c_subcomplex(inp, k).generators) == 0
        desc = big_surgery_homology(inp, k)
        assert desc.tower_bottom == 0 and desc.reduced_total() == 0
        assert h_invariant(inp, k) == 0


def test_trefoil_subquotients():
    inp = rh("3_1")
    assert inp.s == 1
    c0 = c_subcomplex(inp, 0)
    assert [(g.A, g.gr) for g in c0.generators] == [(-1, -1)]
    assert len(c_subcomplex(inp, 1).generators) == 0
    assert zero_surgery_betti(inp, 1) == {"k": 1, "betti": {}, "twisted": False}


def test_trefoil_towers_and_h():
    inp = rh("3_1")
    assert big_surgery_homology(inp, 0).tower_bottom == -1
    assert big_surgery_homology(inp, 1).tower_bottom == 1
    assert [h_invariant(inp, k) for k in range(4)] == [1, 0, 0, 0]
    # lens-space formula for a positive torus knot
    lens = [sum(i * inp.delta.coeff(k + i) for i in range(1, 8)) for k in range(4)]
    assert lens == [1, 0, 0, 0]


def test_figure8():
    inp = rh("4_1")
    assert inp.s == 0
    d0 = big_surgery_homology(inp, 0)
    assert d0.tower_bottom == 0
    assert d0.reduced_ranks_by_grading() == {-1: 1}
    assert zero_surgery_betti(inp, 0)["betti"] == {-1: 1}
    assert all(h_invariant(inp, k) == 0 for k in range(4))


def test_left_trefoil_all_h_vanish():
    inp = input_from_alternating(table.lookup("3_1").mirror())
    assert inp.s == -1
    assert all(h_invariant(inp, k) == 0 for k in range(4))
    assert big_surgery_homology(inp, 0).reduced_total() == 1


def test_closed_form_agrees():
    for name in ("3_1", "4_1", "5_1", "5_2", "6_2"):
        inp = rh(name)
        for k in range(4):
            desc = perfect_closed_form(inp.delta, inp.s, k)  # self-cross-checks
            direct = big_surgery_homology(inp, k)
            assert desc.tower_bottom == direct.tower_bottom
            assert desc.reduced_total() == direct.reduced_total()


def test_h_conjugation_and_bounds():
    inp = rh("7_1")  # s = 3
    hs = {k: h_invariant(inp, k) for k in range(-3, 8)}
    assert all(hs[k] == hs[-k] for k in range(0, 4))
    assert all(hs[k] + 1 >= hs[k - 1] >= hs[k] for k in range(1, 8))
    assert all(hs[k] > 0 for k in range(0, inp.s))
    assert all(hs[k] == 0 for k in range(inp.delta.max_exp, 8))


def test_integer_surgery_trefoil():
    inp = rh("3_1")
    one = integer_surgery(inp, 1, 0)
    assert (one.h, one.d_shift, one.reduced_total) == (1, -2, 0)
    big = integer_surgery(inp, 40, 0)
    assert big.reduced_total == big_surgery_homology(inp, 0).reduced_total()
    with pytest.raises(SurgeryInputError):
        integer_surgery(inp, 0, 0)


def test_negative_surgery_via_mirror():
    # -1 surgery on the right trefoil = +1 surgery on the left trefoil
    inp_mirror = input_from_alternating(right_handed("3_1").mirror())
    ans = integer_surgery(inp_mirror, -1, 0)
    assert ans.h == 0 and ans.reduced_total == 1


def test_chi_bookkeeping():
    for name in ("3_1", "4_1", "5_1", "6_3", "7_4"):
        inp = rh(name)
        for k in range(5):
            assert euler_c_subcomplex(inp, k) == chi_formula(inp, k)


def test_connected_sum_additivity():
    t = rh("3_1")
    f = rh("4_1")
    g = input_from_tensor(t, f)
    assert g.s == t.s + f.s
    assert g.delta == t.delta * f.delta
    assert g.cfr.total_homology_rank() == 1
    assert [h_invariant(g, k) for k in range(3)] == [
        h_perfect_closed_form(g.s, k) for k in range(3)
    ]


def test_granny_tensor_matches_closed_form():
    t = rh("3_1")
    g = input_from_tensor(t, t)
    assert g.s == 2
    assert [h_invariant(g, k) for k in range(4)] == [1, 1, 0, 0]
    d0 = big_surgery_homology(g, 0)
    cf = perfect_closed_form(g.delta, 2, 0)
    assert d0.tower_bottom == cf.tower_bottom == 0
    assert d0.reduced_ranks_by_grading() == {-1: 1}


def test_thin_model_structure():
    m = thin_model({1: 1, 0: 3, -1: 1}, 0)
    assert len(m.generators) == 5
    assert m.hat().total_homology_rank() == 1
    with pytest.raises(SurgeryInputError):
        thin_model({1: 1, 0: 1, -1: 1}, 0)  # survivor at 0 leaves no pairing


def test_umodel_validation():
    with pytest.raises(SurgeryInputError):
        UModel([("a", 0, 0), ("b", 0, 0)], {("a", "b", 0): 1})


def test_umodel_rejects_nonzero_d_squared():
    # a -> b -> c respects both gradings, but d^2 a = c
    gens = [("a", 0, 2), ("b", 0, 1), ("c", 0, 0)]
    with pytest.raises(SurgeryInputError, match="d\\^2"):
        UModel(gens, {("a", "b", 0): 1, ("b", "c", 0): 1}, "Q")
    # two paths a -> b -> c and a -> b' -> c cancel over Q, not with equal signs
    gens.append(("b'", 0, 1))
    paths = {("a", "b", 0): 1, ("b", "c", 0): 1, ("a", "b'", 0): 1}
    UModel(gens, {**paths, ("b'", "c", 0): -1}, "Q")
    with pytest.raises(SurgeryInputError, match="d\\^2"):
        UModel(gens, {**paths, ("b'", "c", 0): 1}, "Q")
    UModel(gens, {**paths, ("b'", "c", 0): 1}, "F2")


def all_pairs_tensor_arrows(m1, m2):
    """Leibniz rule d(x|y) = dx|y + (-1)^gr(x) x|dy, over every pair."""
    out = {}
    for x in m1.generators:
        for y in m2.generators:
            for (a, b, m), c in m1.arrows.items():
                if a == x.id:
                    key = ("%s|%s" % (x.id, y.id), "%s|%s" % (b, y.id), m)
                    out[key] = out.get(key, 0) + c
            for (a, b, m), c in m2.arrows.items():
                if a == y.id:
                    key = ("%s|%s" % (x.id, y.id), "%s|%s" % (x.id, b), m)
                    out[key] = out.get(key, 0) + (-1) ** (x.gr % 2) * c
    return out


@pytest.mark.parametrize("field", ["F2", "Q"])
def test_tensor_arrows_match_all_pairs_leibniz_rule(field):
    models = [
        thin_model({1: 1, 0: 1, -1: 1}, 1, field),
        thin_model({1: 1, 0: 1, -1: 1}, -1, field),
        thin_model({1: 1, 0: 3, -1: 1}, 0, field),
        thin_model({1: 2, 0: 3, -1: 2}, -1, field),
        thin_model({2: 1, 1: 1, 0: 1, -1: 1, -2: 1}, -2, field),
    ]
    for m1 in models:
        for m2 in models:
            t = m1.tensor(m2)
            expected = {}
            for key, c in all_pairs_tensor_arrows(m1, m2).items():
                c = t.field.coerce(Fraction(c))
                if c != t.field.zero:
                    expected[key] = c
            assert t.arrows == expected
            assert len(t.generators) == len(m1.generators) * len(m2.generators)


def test_torsion_towers_on_negative_levels():
    # left-handed (2,7) and (2,9) torus knots carry genuine length-two
    # torsion summands in their k=0 large-surgery homology
    inp7 = input_from_alternating(table.lookup("7_1").mirror())
    assert inp7.s == -3
    d0 = big_surgery_homology(inp7, 0)
    assert d0.tower_bottom == -3 and d0.torsion == ((2, -1),) and d0.free == {}
    inp9 = input_from_alternating(table.lookup("9_1").mirror())
    assert big_surgery_homology(inp9, 0).torsion == ((2, -2),)
    assert big_surgery_homology(inp9, 1).torsion == ((2, 0),)
    # closed form matches by grading (the hard check inside raises otherwise)
    for k in range(4):
        perfect_closed_form(inp9.delta, inp9.s, k)


def test_triple_tensor():
    t = rh("3_1")
    g3 = input_from_tensor(input_from_tensor(t, t), t)
    assert g3.s == 3
    assert g3.cfr.homology_ranks() == {3: 1}
    assert [h_invariant(g3, k) for k in range(5)] == [
        h_perfect_closed_form(3, k) for k in range(5)
    ]


def test_large_surgery_agrees_over_f2_and_q():
    # mirrors have s < 0, so the sum's large surgeries carry torsion
    f2 = [input_from_alternating(table.lookup(n).mirror()) for n in ("7_1", "3_1")]
    q = [
        perfect_input({e: abs(c) for e, c in i.delta.coeffs().items()}, i.s, i.delta, "Q")
        for i in f2
    ]
    f2, q = input_from_tensor(*f2), input_from_tensor(*q)
    answers = [big_surgery_homology(f2, k) for k in range(4)]
    assert answers == [big_surgery_homology(q, k) for k in range(4)]
    assert any(a.torsion for a in answers)
