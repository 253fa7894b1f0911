import gc

import pytest

from knotfloer import altgen, fox, surgery, table
from knotfloer.diagrams import parse_pd
from knotfloer.fox import alexander
from knotfloer.laurent import LaurentPolynomial as L


def signed_sum(mprs):
    total = L()
    for m in mprs:
        total = total + L({m.alexander_exponent: m.sign})
    return total


def test_trefoil_mprs(trefoil):
    for c1 in range(3):
        ms = altgen.enumerate_mprs(trefoil, c1)
        assert len(ms) == 5
        assert signed_sum(ms) == alexander(trefoil)
        bases = [m for m in ms if m.is_base()]
        assert len(bases) == 4  # 2^(3-1)


def test_trefoil_grading_set(trefoil):
    ms = altgen.enumerate_mprs(trefoil, 2)
    cert = altgen.certify_small(trefoil)
    ranks = altgen.reduced_ranks(trefoil, cert)
    assert ranks == {1: 1, 0: 1, -1: 1}


def test_base_generator_count(figure8):
    for c1 in range(4):
        bases = [m for m in altgen.enumerate_mprs(figure8, c1) if m.is_base()]
        assert len(bases) == 8  # 2^(4-1)


def test_mpr_a_grading_matches_base(figure8):
    # classes over one base generator share the Alexander grading
    ms = altgen.enumerate_mprs(figure8, 0)
    by_base = {}
    for m in ms:
        by_base.setdefault(m.base_assignment(), set()).add(m.alexander_exponent)
    assert all(len(es) == 1 for es in by_base.values())


def test_power_set_identity(figure8):
    for c1 in range(4):
        ms = altgen.enumerate_mprs(figure8, c1)
        groups = altgen.pools(figure8, c1, ms)  # raises unless |class| = 2^|C(y)|
        assert sum(2 ** len(comps) for _, comps, _ in groups.values()) == len(ms)


def test_unknot_mprs():
    unk = parse_pd("X(1,2,2,3) X(3,4,4,1)")
    ms = altgen.enumerate_mprs(unk, 1)
    assert signed_sum(ms) == L.one()
    assert altgen.reduced_ranks(unk) == {0: 1}


def test_non_alternating_rejected():
    d = table.lookup("8_19")
    with pytest.raises(altgen.NotAlternatingError):
        altgen.enumerate_mprs(d, 0)


def test_two_bridge_small(trefoil, figure8):
    assert altgen.certify_small(trefoil).verdict
    assert altgen.certify_small(figure8).verdict
    assert altgen.certify_small(table.lookup("5_2")).verdict


def test_pretzel_small():
    assert altgen.certify_small(table.lookup("9_35")).verdict  # (3,3,3) pretzel


def test_10_123_not_small():
    cert = altgen.certify_small(table.lookup("10_123"))
    assert not cert.verdict
    assert cert.witness is not None
    mpr, comp = cert.witness
    assert comp in mpr.marked_components


def test_ranks_symmetric_and_odd(figure8):
    ranks = altgen.reduced_ranks(figure8)
    assert ranks == {1: 1, 0: 3, -1: 1}
    assert all(ranks[j] == ranks[-j] for j in ranks)
    assert sum(ranks.values()) % 2 == 1


def test_granny_diagram_small_with_product_ranks(trefoil):
    g = trefoil.connected_sum(trefoil)
    ranks = altgen.reduced_ranks(g)
    sq = alexander(trefoil) * alexander(trefoil)
    assert ranks == {e: abs(c) for e, c in sq.coeffs().items()}


@pytest.mark.parametrize("call", ["enumerate_mprs", "generator_spectrum", "_sparse_determinant"])
def test_enumerations_leave_no_reference_cycles(call):
    d = table.lookup("9_2")
    p = fox.wirtinger(d)
    run = {
        "enumerate_mprs": lambda: altgen.enumerate_mprs(d, 0),
        "generator_spectrum": lambda: fox.generator_spectrum(p),
        "_sparse_determinant": lambda: fox._sparse_determinant(fox.fox_matrix(p)),
    }[call]
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_mprs_enumerated_once_per_c1_tried(monkeypatch):
    d = table.lookup("7_4")
    cert = altgen.certify_small(d)
    calls = []
    enumerate_mprs = altgen.enumerate_mprs

    def counted(d, c1):
        calls.append(c1)
        return enumerate_mprs(d, c1)

    monkeypatch.setattr(altgen, "enumerate_mprs", counted)
    inp = surgery.input_from_alternating(d)
    assert calls == list(range(cert.c1 + 1))
    assert surgery.input_from_alternating(d, certificate=cert).cfr == inp.cfr
    assert altgen.reduced_ranks(d, cert) == cert.ranks
    assert calls == list(range(cert.c1 + 1))
