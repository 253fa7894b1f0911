import dataclasses
import gc

import pytest

from knotfloer import altgen, fox, surgery, table
from knotfloer._constructions import pretzel_knot
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


@pytest.mark.parametrize("call", ["enumerate_mprs", "generator_spectrum"])
def test_enumerations_leave_no_reference_cycles(call):
    d = table.lookup("9_2")
    p = fox.wirtinger(d)
    run = {
        "enumerate_mprs": lambda: altgen.enumerate_mprs(d, 0),
        "generator_spectrum": lambda: fox.generator_spectrum(p),
    }[call]
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_certification_enumerates_no_mprs(monkeypatch):
    d = table.lookup("7_4")
    cert = altgen.certify_small(d)
    calls = []
    certify_at = altgen._certify_at

    def counted(d, c1, prep, cache):
        calls.append(c1)
        return certify_at(d, c1, prep, cache)

    def forbidden(*args):
        raise AssertionError("certification built MPRs")

    monkeypatch.setattr(altgen, "_certify_at", counted)
    monkeypatch.setattr(altgen, "enumerate_mprs", forbidden)
    monkeypatch.setattr(altgen, "pools", forbidden)
    inp = surgery.input_from_alternating(d)
    assert calls == list(range(cert.c1 + 1))
    assert surgery.input_from_alternating(d, certificate=cert).cfr == inp.cfr
    assert altgen.reduced_ranks(d, cert) == cert.ranks
    assert calls == list(range(cert.c1 + 1))
    assert not altgen.certify_small(table.lookup("10_123")).verdict


def reference_mprs(d, c1):
    """The per-leaf construction enumerate_mprs replaced, kept as a reference:
    the full column -> row walk over every row and the tag map read per MPR.
    Returns (assignment, exponent, sign, components, base, is_base) per leaf."""
    arc_of = d.arc_of_edge()
    over = [arc_of[d.over_in_out(i)[0]] for i in range(d.n)]
    rows, _ = altgen._letters(d, c1, arc_of, over)
    order = [i for i in range(d.n) if i != c1]
    leaves = fox.expand_letters([[opt[1:] for opt in rows[i]] for i in order])
    total = {}
    for _, e, s in leaves:
        total[e] = total.get(e, 0) + s
    _, shift, flip = L(total).normalize_alexander()
    out = []
    for picks, e, s in leaves:
        tags = [None] * d.n
        row_of_col = {}
        for i, k in zip(order, picks):
            tag, col, _, _ = rows[i][k]
            tags[i] = tag
            row_of_col[col] = i
        resolved = [i for i, t in enumerate(tags) if t in ("in", "out")]
        comps, seen = [], set()
        for start in resolved:
            if start in seen:
                continue
            cyc, cur = [], start
            while cur not in seen:
                seen.add(cur)
                cyc.append(cur)
                cur = row_of_col[over[cur]]
            comps.append(
                frozenset(d.crossings[i].a if tags[i] == "in" else d.crossings[i].c for i in cyc)
            )
        base = tuple(None if t is None else {"in": "-", "out": "+"}.get(t, t) for t in tags)
        out.append(
            (tuple(tags), e + shift, s * flip, tuple(sorted(comps, key=sorted)), base, not resolved)
        )
    return out


@pytest.mark.parametrize("name", table.alternating_names())
def test_mprs_match_reference_construction(name):
    d = table.lookup(name)
    for c1 in sorted({0, altgen.certify_small(d).c1}):
        got = [
            (m.assignment, m.alexander_exponent, m.sign, m.marked_components,
             m.base_assignment(), m.is_base())
            for m in altgen.enumerate_mprs(d, c1)
        ]
        assert got == reference_mprs(d, c1)


def test_marked_component_walk_leaving_resolved_crossings_raises(trefoil):
    # crossing 0 resolved alone: no resolved crossing takes the arc over it
    arc_of = trefoil.arc_of_edge()
    over = [arc_of[trefoil.over_in_out(i)[0]] for i in range(trefoil.n)]
    for code in (1, 1 | 1 << trefoil.n):
        with pytest.raises(altgen.ConsistencyError):
            altgen._marked_components(trefoil, arc_of, over, code)


def test_mpr_fields_and_pool_checks(figure8):
    ms = altgen.enumerate_mprs(figure8, 0)
    for m in ms:
        assert m.resolved == tuple(i for i, t in enumerate(m.assignment) if t in ("in", "out"))
        assert m == altgen.MPR(*m) and hash(m) == hash(altgen.MPR(*m))
    groups = altgen.pools(figure8, 0, ms)
    assert set(groups) == {m.base for m in ms}
    with pytest.raises(altgen.ConsistencyError, match="lacks its base"):
        altgen.pools(figure8, 0, [m for m in ms if m.resolved])
    with pytest.raises(altgen.ConsistencyError, match="class size"):
        altgen.pools(figure8, 0, [m for m in ms if m.resolved] + [m for m in ms if not m.resolved] * 2)
    # the two components of figure8 at c1 = 0 share crossings 2 and 3
    first, second = sorted({c for m in ms for c in m.marked_components}, key=sorted)
    m = next(m for m in ms if m.marked_components == (first,))
    with pytest.raises(altgen.ConsistencyError, match="share a crossing"):
        altgen.pools(figure8, 0, ms + [m._replace(marked_components=(second,))])


@pytest.mark.parametrize("name", ["7_4", "10_123"])
def test_one_alexander_per_certificate(monkeypatch, name):
    """certify_small takes the Fox determinant once, however many c1 it
    tries (10_123 tries all 10), and keeps it as the certificate's Delta,
    so reading the ranks takes none more."""
    d = table.lookup(name)
    calls = []

    def counted(d):
        calls.append(d)
        return alexander(d)

    monkeypatch.setattr(altgen, "alexander", counted)
    cert = altgen.certify_small(d)
    assert len(calls) == 1
    if not cert.verdict:
        assert cert.c1 == d.n - 1
        return
    assert cert.delta == alexander(d)
    assert altgen.reduced_ranks(d, cert) == cert.ranks
    assert len(calls) == 1
    tampered = dict(cert.ranks)
    tampered[max(tampered)] += 1
    with pytest.raises(altgen.ConsistencyError):
        altgen.reduced_ranks(d, dataclasses.replace(cert, ranks=tampered))
    with pytest.raises(ValueError):
        dataclasses.replace(cert, delta=None)


# -- the certificate against enumerate_mprs and pools -------------------------


def reference_certificate(d, c1):
    """The certificate at c1 read off every MPR, as certify_small did before
    it derived certificates from resolved sub-assignments: components
    checked in MPR order, survivors counted over pools, Delta summed over
    the MPRs."""
    mprs = altgen.enumerate_mprs(d, c1)
    checked, small = set(), {}
    for m in mprs:
        if not m.marked_components or m.marked_components in checked:
            continue
        for comp in m.marked_components:
            if not altgen.component_is_small(d, comp, small):
                return altgen.SmallnessCertificate(c1=c1, verdict=False, witness=(m, comp))
        checked.add(m.marked_components)
    ranks, delta = {}, {}
    for base, comps, _ in altgen.pools(d, c1, mprs).values():
        if not comps:
            ranks[base.alexander_exponent] = ranks.get(base.alexander_exponent, 0) + 1
    for m in mprs:
        delta[m.alexander_exponent] = delta.get(m.alexander_exponent, 0) + m.sign
    return altgen.SmallnessCertificate(c1=c1, verdict=True, ranks=ranks, delta=L(delta))


@pytest.mark.parametrize("name", table.alternating_names())
def test_certificate_matches_reference_at_every_c1(name):
    d = table.lookup(name)
    for c1 in range(d.n):
        assert altgen.certify_at(d, c1) == reference_certificate(d, c1)
    mirror = d.mirror()
    cert = altgen.certify_small(mirror)
    assert cert == reference_certificate(mirror, cert.c1)


@pytest.mark.parametrize("ps", [(3, 3, 3), (3, 5, 7), (5, 5, 5)], ids=str)
def test_pretzel_certificate_matches_reference(ps):
    d = pretzel_knot(list(ps))
    cert = altgen.certify_small(d)
    assert cert.verdict
    assert cert == reference_certificate(d, cert.c1)
    assert altgen.reduced_ranks(d, cert) == {e: abs(a) for e, a in alexander(d).coeffs().items()}


@pytest.mark.parametrize("field", [1, 2])  # exponent, sign
def test_wrong_merged_letter_raises(monkeypatch, figure8, field):
    """An 'in' letter with a wrong exponent or sign breaks the spectrum."""
    letters = altgen._letters

    def tampered(*args):
        rows, dropped = letters(*args)
        for row in rows:
            for k, opt in enumerate(row or ()):
                if opt[0] == "in":
                    opt = list(opt)
                    opt[field + 1] = opt[field + 1] + 1 if field == 1 else -opt[field + 1]
                    row[k] = tuple(opt)
        return rows, dropped

    monkeypatch.setattr(altgen, "_letters", tampered)
    for c1 in range(figure8.n):
        with pytest.raises(altgen.ConsistencyError):
            altgen.certify_at(figure8, c1)


def test_cycle_pool_checks(monkeypatch):
    """Two one-cycle R that meet must cover disjoint bases, and every
    component of an R with more cycles must be a one-cycle R alone."""
    d = table.lookup("5_2")  # at c1 = 2 one base pools two components
    crossings = altgen._component_crossings
    with monkeypatch.context() as m:
        # every pair of components now meets, at the crossing -1
        m.setattr(altgen, "_component_crossings", lambda d, comp: crossings(d, comp) | {-1})
        with pytest.raises(altgen.ConsistencyError, match="share a crossing"):
            altgen.certify_at(d, 2)
    comp = next(
        m.marked_components[0]
        for m in altgen.enumerate_mprs(d, 2)
        if len(m.marked_components) > 1
    )
    marked = altgen._marked_components

    def hidden(*args):
        resolved, comps = marked(*args)
        return resolved, (() if comps == (comp,) else comps)

    monkeypatch.setattr(altgen, "_marked_components", hidden)
    with pytest.raises(altgen.ConsistencyError, match="not a resolved sub-assignment alone"):
        altgen.certify_at(d, 2)


def test_certification_caps(monkeypatch):
    d = table.lookup("7_4")

    def forbidden(d):
        raise AssertionError("the crossing cap is checked before any work")

    with monkeypatch.context() as m:
        m.setattr(altgen, "MAX_CERTIFY_CROSSINGS", 6)
        m.setattr(altgen, "alexander", forbidden)
        with pytest.raises(altgen.CertificationResourceError, match="MAX_CERTIFY_CROSSINGS"):
            altgen.certify_small(d)
    monkeypatch.setattr(altgen, "MAX_RESOLVED", 2)
    with pytest.raises(altgen.CertificationResourceError, match="MAX_RESOLVED") as err:
        altgen.certify_small(d)
    assert isinstance(err.value, fox.SpectrumResourceError)
    assert not isinstance(err.value, altgen.ConsistencyError)
    with pytest.raises(altgen.CertificationResourceError):
        surgery.input_from_alternating(d)
