"""Alexander polynomial via Seifert matrices.

This is the second, independent route to the Alexander polynomial: braid the
diagram by Vogel moves (type-II moves across incoherent face pairs), read a
Seifert matrix off the braided diagram's nested Seifert circles, and return
the normalized det(V - t V^T) from linalg.poly_det, which pivots away the
unit entries of the pencil (most of them, since Vogel's moves add many
+-1 bands) before it interpolates the small core left.  Each Vogel move
is arithmetic on the PD labels and validates one new diagram.  Nothing
here touches the Fox-calculus path or the table's diagram builders.
"""

from __future__ import annotations

from .diagrams import KnotDiagram, PDValidationError
from .laurent import LaurentPolynomial
from .linalg import poly_det


class BraidingError(RuntimeError):
    pass


MAX_VOGEL_MOVES = 1000


# -- Seifert circles -----------------------------------------------------------


def seifert_circles(d):
    """Oriented-smoothing circles as tuples of edges, in traversal order.

    Also returns strand data: for each crossing, the pair of (in-edge,
    out-edge) strands after smoothing.
    """
    m = d.n_edges
    succ = {}
    strands = []  # per crossing: ((in1, out1), (in2, out2))
    for i, x in enumerate(d.crossings):
        oi, oo = d.over_in_out(i)
        if oi == x.b:
            # over enters at b: smoothing joins a->d, b->c
            succ[x.a] = x.d
            succ[x.b] = x.c
            strands.append(((x.a, x.d), (x.b, x.c)))
        else:
            # over enters at d: smoothing joins a->b, d->c
            succ[x.a] = x.b
            succ[x.d] = x.c
            strands.append(((x.a, x.b), (x.d, x.c)))
    circles = []
    circle_of_edge = {}
    seen = set()
    for e0 in range(1, m + 1):
        if e0 in seen:
            continue
        circle = []
        e = e0
        while e not in seen:
            seen.add(e)
            circle.append(e)
            e = succ[e]
        idx = len(circles)
        circles.append(tuple(circle))
        for e in circle:
            circle_of_edge[e] = idx
    return circles, circle_of_edge, strands


# -- Vogel moves ----------------------------------------------------------------


def _find_vogel_pair(d):
    """An (edge, edge, with_walk) triple: two edges on one face and on
    distinct Seifert circles, both traversed with (with_walk True) or both
    against the face walk."""
    _, circle_of, _ = seifert_circles(d)
    for walk in d.face_edge_walks():
        for k1 in range(len(walk)):
            e1, w1 = walk[k1]
            for k2 in range(k1 + 1, len(walk)):
                e2, w2 = walk[k2]
                if w1 == w2 and circle_of[e1] != circle_of[e2]:
                    return e1, e2, w1
    return None


def _r2_push(d, e, ep, mirrored):
    """Push edge e over edge ep (anti-parallel chords of a shared face).

    Each of e and ep becomes three consecutive segments, so every later
    label moves up by 2 per split edge, and the arrival end of each split
    edge (slot 0 or the over-in slot) takes its last segment.  The poke can
    enter from either side of ep; mirrored picks the side.  Only one side
    keeps the diagram planar, and validation rejects the other.
    """

    def first(k):  # label of the first segment of old edge k
        return k + 2 * ((e < k) + (ep < k))

    e1, ep1 = first(e), first(ep)
    last = {e: e1 + 2, ep: ep1 + 2}
    tuples = []
    for i, x in enumerate(d.crossings):
        ends = x.ends()
        new = [first(k) for k in ends]
        for s in (0, 1 if d.over_in_out(i)[0] == x.b else 3):
            if ends[s] in last:
                new[s] = last[ends[s]]
        tuples.append(new)
    # the two new crossings, each from its under-in end ccw: P, where e's
    # segments 1 -> 2 pass over ep's 2 -> 3, and Q, where e's 2 -> 3 pass
    # over ep's 1 -> 2
    if not mirrored:
        tuples += [(ep1 + 1, e1, ep1 + 2, e1 + 1), (ep1, e1 + 2, ep1 + 1, e1 + 1)]
    else:
        tuples += [(ep1 + 1, e1 + 1, ep1 + 2, e1), (ep1, e1 + 1, ep1 + 1, e1 + 2)]
    # rotate so that crossing 0's incoming under-edge is 1
    m, start = d.n_edges + 4, tuples[0][0]
    return KnotDiagram.from_tuples([[(k - start) % m + 1 for k in t] for t in tuples], d.name)


def braid_form(d):
    """Apply Vogel moves until the Seifert circles are coherently nested.

    A pair that runs with the face walk is pushed from the unmirrored side,
    one that runs against it from the mirrored side; that side is the
    planar one, so each move builds one diagram.
    """
    cur = d
    for _ in range(MAX_VOGEL_MOVES):
        pair = _find_vogel_pair(cur)
        if pair is None:
            return cur
        e, ep, with_walk = pair
        try:
            cur = _r2_push(cur, e, ep, not with_walk)
        except PDValidationError as exc:
            raise BraidingError(
                "Vogel move of edge %d over edge %d fails on PD %s: %s"
                % (e, ep, [x.ends() for x in cur.crossings], exc)
            ) from exc
    raise BraidingError("braiding did not terminate within %d moves" % MAX_VOGEL_MOVES)


# -- Seifert matrix from a braided diagram ---------------------------------------


def _braided_structure(d):
    """(ordered circles, per-gap crossing cycles, walk orders) of a braided
    diagram."""
    circles, circle_of, strands = seifert_circles(d)
    s = len(circles)
    # crossing connects two circles
    links = {}
    for i in range(d.n):
        (in1, _), (in2, _) = strands[i]
        c1, c2 = circle_of[in1], circle_of[in2]
        if c1 == c2:
            raise BraidingError("crossing %d has both strands on one circle" % i)
        links[i] = (c1, c2)
    # adjacency must form a path
    adj = {k: set() for k in range(s)}
    for c1, c2 in links.values():
        adj[c1].add(c2)
        adj[c2].add(c1)
    ends = [k for k in adj if len(adj[k]) == 1]
    if s == 1:
        order = [0]
    else:
        if len(ends) != 2:
            raise BraidingError("Seifert circles are not coherently nested")
        order = [ends[0]]
        while len(order) < s:
            nxt = [k for k in adj[order[-1]] if k not in order]
            if len(nxt) != 1:
                raise BraidingError("Seifert circle adjacency is not a path")
            order.append(nxt[0])
    pos = {c: k for k, c in enumerate(order)}
    # cyclic order of crossings around each circle (walk order)
    walk_order = [tuple(d.arrival(e)[0] for e in circle) for circle in circles]
    # per gap (between order[g], order[g+1]) crossing list in the walk order
    # of the outer circle of the gap
    gaps = []
    for g in range(s - 1):
        ca, cb = order[g], order[g + 1]
        members = {i for i in range(d.n) if set(links[i]) == {ca, cb}}
        ring = [i for i in walk_order[cb] if i in members]
        gaps.append(ring)
        if not ring:
            raise BraidingError("empty gap between nested circles")
    return order, pos, gaps, walk_order, links


def seifert_matrix(d):
    """Seifert matrix of the knot from a braided form of the diagram.

    Basis: one generator per consecutive pair of crossings in each gap
    between adjacent nested circles (one wrap-around pair dropped per gap).
    Entries: a pair of bands with signs (s1, s2) self-links -(s1+s2)/2;
    consecutive pairs sharing a positive band give V[x][y] = 1, sharing a
    negative band V[y][x] = -1; interleaved pairs in adjacent gaps give +-1
    according to the phase of the interleaving.  These placements are frozen
    by agreement with the Fox-determinant route across the knot table.
    """
    bd = braid_form(d)
    order, pos, gaps, walk_order, links = _braided_structure(bd)
    signs = bd.signs()
    basis = []  # (gap index, crossing r, crossing r+1)
    for g, ring in enumerate(gaps):
        for r in range(len(ring) - 1):
            basis.append((g, ring[r], ring[r + 1]))
    nb = len(basis)
    V = [[0] * nb for _ in range(nb)]
    for aidx, (g1, c1, c2) in enumerate(basis):
        V[aidx][aidx] = -(signs[c1] + signs[c2]) // 2
        for bidx, (g2, d1, d2) in enumerate(basis):
            if bidx == aidx:
                continue
            if g1 == g2:
                if c2 == d1:  # consecutive pairs share band c2
                    if signs[c2] > 0:
                        V[aidx][bidx] += 1
                    else:
                        V[bidx][aidx] += -1
            elif g2 == g1 + 1:
                shared = order[g2]
                members = {c1, c2, d1, d2}
                ring = [i for i in walk_order[shared] if i in members]
                if len(ring) == 4:
                    k = ring.index(c1)
                    ring = ring[k:] + ring[:k]
                    if ring == [c1, d1, c2, d2]:
                        V[aidx][bidx] += 1
                    elif ring == [c1, d2, c2, d1]:
                        V[aidx][bidx] += -1
    return V


def alexander_via_seifert(d):
    """Normalized Alexander polynomial from det(V - t V^T)."""
    V = seifert_matrix(d)
    pencil = [[{0: x, 1: -V[j][i]} for j, x in enumerate(row)] for i, row in enumerate(V)]
    q, _, _ = LaurentPolynomial(poly_det(pencil)).normalize_alexander()
    return q
