import pytest

from knotfloer import table
from knotfloer.diagrams import (
    KnotDiagram,
    PDSyntaxError,
    PDValidationError,
    parse_pd,
    serialize_pd,
)
from knotfloer.fox import alexander
from knotfloer.signature import signature

TREFOIL = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
UNKNOT2 = "X(1,2,2,3) X(3,4,4,1)"


def test_parse_roundtrip():
    d = parse_pd(TREFOIL)
    assert parse_pd(serialize_pd(d)).crossings == d.crossings


def test_parse_comments_and_whitespace():
    d = parse_pd("# a trefoil\nX(1,4,2,5)\n X(3,6,4,1)  X(5,2,6,3)\n")
    assert d.n == 3


def test_single_crossing_rejected():
    with pytest.raises(PDValidationError):
        parse_pd("X(1,2,3,4)")


def test_bad_token_rejected():
    with pytest.raises(PDSyntaxError):
        parse_pd("X(1,4,2,5) Y(3,6,4,1)")


def test_two_crossing_unknot():
    d = parse_pd(UNKNOT2)
    assert d.n == 2
    assert d.is_alternating()
    assert alexander(d).to_text() == "1"


def test_trefoil_alternating_and_faces():
    d = parse_pd(TREFOIL)
    assert d.is_alternating()
    assert sorted(len(f) for f in d.faces()) == [2, 2, 2, 3, 3]


def test_mirror_involution(trefoil, figure8):
    assert trefoil.mirror().mirror() == trefoil
    assert figure8.mirror().mirror() == figure8


def test_mirror_negates_signature(trefoil, figure8):
    assert signature(trefoil.mirror()) == -signature(trefoil)
    assert signature(figure8) == 0
    assert signature(figure8.mirror()) == 0


def test_mirror_preserves_alexander(trefoil, figure8):
    assert alexander(trefoil.mirror()) == alexander(trefoil)
    assert alexander(figure8.mirror()) == alexander(figure8)


def test_connected_sum_counts_and_signature(trefoil, figure8):
    s = trefoil.connected_sum(figure8)
    assert s.n == trefoil.n + figure8.n
    assert signature(s) == signature(trefoil) + signature(figure8)
    assert alexander(s) == alexander(trefoil) * alexander(figure8)


def test_connected_sum_with_unknot(trefoil):
    unk = parse_pd(UNKNOT2)
    s = trefoil.connected_sum(unk)
    assert alexander(s) == alexander(trefoil)


def test_connected_sum_alternating(trefoil):
    g = trefoil.connected_sum(trefoil)
    assert g.is_alternating()


def test_table_entries_validate():
    for name in table.names():
        d = table.lookup(name)
        assert d.n >= 3
        assert table.entry(name)["alternating"] == d.is_alternating()


def test_prime_diagram_flags(trefoil):
    assert trefoil.is_prime_diagram()
    assert not trefoil.connected_sum(trefoil).is_prime_diagram()
    assert not parse_pd(UNKNOT2).is_prime_diagram()  # kinks


def test_cached_views_are_read_only_and_keep_equality():
    d = table.lookup("8_12")
    twin = KnotDiagram(d.crossings, "another name")
    before = hash(d)
    assert d == twin and hash(twin) == before
    faces, corner_face = d.faces(), d.face_of_corner()
    arcs, arc_of = d.arcs(), d.arc_of_edge()
    assert isinstance(faces, tuple) and isinstance(arcs, tuple)
    with pytest.raises(TypeError):
        corner_face[(0, 0)] = -1
    with pytest.raises(TypeError):
        arc_of[1] = -1
    with pytest.raises(TypeError):
        d._arrivals[1] = (0, "under")
    walks = d.face_edge_walks()
    d.is_alternating(), d.departure(1), d.over_in_out(0)
    # repeated calls hand out the same objects, unchanged
    assert d.faces() is faces and d.arc_of_edge() is arc_of
    assert hash(d) == before and d == twin and twin == d
    assert faces == KnotDiagram(d.crossings).faces()
    # faces() and face_edge_walks() share one walk; neither call changes the other
    assert d.face_edge_walks() == walks
    fresh = KnotDiagram(d.crossings)
    assert fresh.face_edge_walks() == walks and fresh.faces() == faces
    with pytest.raises(KeyError):
        d.arrival(d.n_edges + 1)
    with pytest.raises(KeyError):
        d.departure(0)

