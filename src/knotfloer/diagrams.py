"""Planar knot diagrams as PD codes.

A diagram is a list of crossings ``X(a,b,c,d)``: the four edge labels around
the crossing in counterclockwise order, starting with the incoming
under-strand ``a``.  Edge labels run 1..2n and increase along the knot, so the
under-strand at each crossing is a -> c with c = a+1 (mod 2n), and the
over-strand is b -> d or d -> b, whichever direction ascends.

All values are immutable after construction; every operation returns a new
diagram.  Derived data (over-strands, arrival and departure maps, dart
partners, faces, arcs) is computed once per diagram and handed out as tuples
or read-only mappings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType


class PDSyntaxError(ValueError):
    """Malformed PD text."""


class PDValidationError(ValueError):
    """Structurally invalid PD code."""


def _wrap(k, m):
    """Map k to the representative of k mod m in 1..m."""
    return (k - 1) % m + 1


@dataclass(frozen=True)
class Crossing:
    a: int  # incoming under-strand
    b: int
    c: int  # outgoing under-strand
    d: int

    def ends(self):
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class KnotDiagram:
    crossings: tuple
    name: str = field(default="", compare=False)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_tuples(tuples, name=""):
        crossings = tuple(Crossing(*map(int, t)) for t in tuples)
        d = KnotDiagram(crossings, name)
        d.validate()
        return d

    def validate(self):
        n = len(self.crossings)
        if n == 0:
            raise PDValidationError("empty diagram (use the explicit unknot elsewhere)")
        counts = {}
        for x in self.crossings:
            for e in x.ends():
                counts[e] = counts.get(e, 0) + 1
        m = 2 * n
        expected = set(range(1, m + 1))
        if set(counts) != expected:
            raise PDValidationError(
                "edge labels must be exactly 1..%d, got %s" % (m, sorted(counts))
            )
        bad = [e for e, k in counts.items() if k != 2]
        if bad:
            raise PDValidationError("labels appearing != 2 times: %s" % sorted(bad))
        arrivals = {}
        departures = {}
        for i, x in enumerate(self.crossings):
            if _wrap(x.a + 1, m) != x.c:
                raise PDValidationError(
                    "crossing %d: under-strand %d -> %d is not consecutive" % (i, x.a, x.c)
                )
            if _wrap(x.b + 1, m) == x.d:
                oi, oo = x.b, x.d
            elif _wrap(x.d + 1, m) == x.b:
                oi, oo = x.d, x.b
            else:
                raise PDValidationError(
                    "crossing %d: over-strand {%d,%d} is not consecutive" % (i, x.b, x.d)
                )
            for e, table in ((x.a, arrivals), (oi, arrivals), (x.c, departures), (oo, departures)):
                if e in table:
                    raise PDValidationError("edge %d has two %s" %
                                            (e, "arrivals" if table is arrivals else "departures"))
                table[e] = i
        # labels consecutive along a single strand => connected by construction,
        # but the embedding must still be spherical:
        f = len(self.faces())
        if len(self.crossings) - m + f != 2:
            raise PDValidationError("PD code is not realizable in the plane (V-E+F != 2)")

    # -- basic data --------------------------------------------------------

    @property
    def n(self):
        return len(self.crossings)

    @property
    def n_edges(self):
        return 2 * len(self.crossings)

    @cached_property
    def _over(self):
        """Per crossing, (over-in edge, over-out edge)."""
        m = self.n_edges
        return tuple(
            (x.b, x.d) if _wrap(x.b + 1, m) == x.d else (x.d, x.b) for x in self.crossings
        )

    def over_in_out(self, i):
        """(over-in edge, over-out edge) at crossing i."""
        return self._over[i]

    def sign(self, i):
        """+1 when the over-strand runs b -> d, else -1.

        With ends in counterclockwise order and the under tangent pointing
        from a to c, the (under, over) frame is positively oriented exactly
        when the over-strand enters at b.
        """
        return 1 if self._over[i][0] == self.crossings[i].b else -1

    def signs(self):
        return tuple(self.sign(i) for i in range(self.n))

    @cached_property
    def _arrivals(self):
        out = {}
        for i, (x, (oi, _)) in enumerate(zip(self.crossings, self._over)):
            out.setdefault(x.a, (i, "under"))
            out.setdefault(oi, (i, "over"))
        return MappingProxyType(out)

    @cached_property
    def _departures(self):
        out = {}
        for i, (x, (_, oo)) in enumerate(zip(self.crossings, self._over)):
            out.setdefault(x.c, (i, "under"))
            out.setdefault(oo, (i, "over"))
        return MappingProxyType(out)

    def arrival(self, e):
        """(crossing index, role) where edge e arrives; role in {'under','over'}."""
        return self._arrivals[e]

    def departure(self, e):
        return self._departures[e]

    def is_alternating(self):
        roles = [self.arrival(e)[1] for e in range(1, self.n_edges + 1)]
        return all(roles[k] != roles[(k + 1) % len(roles)] for k in range(len(roles)))

    # -- arcs (over-strands) ------------------------------------------------

    @cached_property
    def _arcs(self):
        m = self.n_edges
        cut_after = {e for e in range(1, m + 1) if self.arrival(e)[1] == "under"}
        arcs = []
        # start arcs just after each cut
        for s in sorted(_wrap(e + 1, m) for e in cut_after):
            arc = [s]
            e = s
            while e not in cut_after:
                e = _wrap(e + 1, m)
                arc.append(e)
            arcs.append(tuple(arc))
        return tuple(arcs)

    def arcs(self):
        """Partition of edges into arcs: maximal runs without an under-pass.

        Returns a tuple of tuples of edge labels, each tuple in traversal
        order. An arc ends exactly where its last edge arrives as the
        under-strand.
        """
        return self._arcs

    @cached_property
    def _arc_of_edge(self):
        return MappingProxyType({e: idx for idx, arc in enumerate(self._arcs) for e in arc})

    def arc_of_edge(self):
        """Map edge label -> arc index (into self.arcs())."""
        return self._arc_of_edge

    # -- faces ---------------------------------------------------------------

    def darts(self):
        """All (crossing, slot) pairs; slot 0..3 corresponds to (a,b,c,d)."""
        return [(i, s) for i in range(self.n) for s in range(4)]

    @cached_property
    def _partner(self):
        """Dart -> the dart at the other end of its edge."""
        ends = {}
        for i, x in enumerate(self.crossings):
            for s, e in enumerate(x.ends()):
                ends.setdefault(e, []).append((i, s))
        out = {}
        for darts in ends.values():
            if len(darts) > 1:
                for dart in darts:
                    out[dart] = darts[1] if dart == darts[0] else darts[0]
        return MappingProxyType(out)

    @cached_property
    def _walks(self):
        """Per face, the tuple of its leaving darts, in face order; faces()
        and face_edge_walks() both read this one walk."""
        partner = self._partner
        visited = set()
        walks = []
        for start in self.darts():
            if start in visited:
                continue
            walk = []
            cur = start
            while cur not in visited:
                visited.add(cur)
                walk.append(cur)
                j, t = partner[cur]
                cur = (j, (t + 1) % 4)
            walks.append(tuple(walk))
        return tuple(walks)

    @cached_property
    def _faces(self):
        partner = self._partner
        return tuple(tuple(partner[dart] for dart in walk) for walk in self._walks)

    def faces(self):
        """Faces of the underlying 4-valent planar map.

        Each face is a tuple of corners (crossing, slot), where corner
        (i, s) is the quadrant between slots s and s+1 (ccw) at crossing i.
        A face is traversed by leaving a vertex through an edge-end, arriving
        at the end (j, t) on the far side, recording corner (j, t), and
        leaving again through slot t+1.  Returns a tuple of faces.
        """
        return self._faces

    @cached_property
    def _face_of_corner(self):
        return MappingProxyType(
            {corner: idx for idx, f in enumerate(self._faces) for corner in f}
        )

    def face_of_corner(self):
        """Map corner (crossing, slot) -> face index."""
        return self._face_of_corner

    def face_edge_walks(self):
        """Boundary walk of every face as a list of (edge, with_knot).

        Mirrors the traversal of faces(): each step leaves a vertex through
        an edge-end; with_knot records whether that step runs along the
        knot's orientation of the edge.
        """
        return [
            tuple(
                (self.crossings[i].ends()[s], not _is_arrival_slot(self, i, s))
                for i, s in walk
            )
            for walk in self._walks
        ]

    def is_prime_diagram(self):
        """No kinks, no removable bigons, and no 2-edge cut.

        A 2-edge cut separating two crossing-bearing pieces marks a
        connected-sum presentation.
        """
        n = self.n
        if n <= 1:
            return True
        incident = {}
        for i, x in enumerate(self.crossings):
            for e in x.ends():
                incident.setdefault(e, []).append(i)
        for e, cr in incident.items():
            if len(set(cr)) == 1 and len(cr) == 2:
                return False  # kink
        # removable bigon: a size-2 face one of whose side edges passes over
        # at both of its crossings
        for face in self.faces():
            if len(face) == 2:
                (i, _), (j, _) = face
                if i == j:
                    continue
                over_i = set(self.over_in_out(i))
                over_j = set(self.over_in_out(j))
                shared = set(self.crossings[i].ends()) & set(self.crossings[j].ends())
                if any(e in over_i and e in over_j for e in shared):
                    return False
        # 2-edge cuts
        edges = list(range(1, self.n_edges + 1))
        for a in range(len(edges)):
            for b in range(a + 1, len(edges)):
                cut = {edges[a], edges[b]}
                seen = {0}
                stack = [0]
                while stack:
                    i = stack.pop()
                    for e in self.crossings[i].ends():
                        if e in cut:
                            continue
                        for j in incident[e]:
                            if j not in seen:
                                seen.add(j)
                                stack.append(j)
                if len(seen) < n:
                    return False
        return True

    # -- operations ----------------------------------------------------------

    def mirror(self):
        """Switch every crossing (reflection through the diagram plane)."""
        m = self.n_edges
        out = []
        for i, x in enumerate(self.crossings):
            oi, oo = self.over_in_out(i)
            # the old over-strand becomes the under-strand; keep ccw order
            if oi == x.b:
                out.append((x.b, x.c, x.d, x.a))
            else:
                out.append((x.d, x.a, x.b, x.c))
        name = self.name + "*" if self.name else ""
        return KnotDiagram.from_tuples(out, name)

    def relabel_cyclic(self, shift):
        """Shift all edge labels by `shift` along the knot."""
        m = self.n_edges
        out = [tuple(_wrap(e + shift, m) for e in x.ends()) for x in self.crossings]
        return KnotDiagram.from_tuples(out, self.name)

    def connected_sum(self, other):
        """Splice `other` into this diagram along the wrap-around edges."""
        d2 = other
        if self.is_alternating() and other.is_alternating():
            r1 = self.arrival(self.n_edges)[1]
            r2 = other.arrival(other.n_edges)[1]
            if r1 != r2:
                d2 = other.relabel_cyclic(1)
        m1, m2 = self.n_edges, d2.n_edges
        a1, _ = self.arrival(m1)
        out = []
        for i, x in enumerate(self.crossings):
            ends = list(x.ends())
            if i == a1:
                # only the arrival occurrence changes; it is slot 0 (a) or the
                # over-in slot
                for s, e in enumerate(ends):
                    if e == m1 and _is_arrival_slot(self, i, s):
                        ends[s] = m1 + m2
                        break
            out.append(tuple(ends))
        for j, x in enumerate(d2.crossings):
            ends = list(x.ends())
            for s, e in enumerate(ends):
                if e == m2:
                    if _is_arrival_slot(d2, j, s):
                        ends[s] = m1
                    else:
                        ends[s] = m1 + m2
                else:
                    ends[s] = m1 + e
            out.append(tuple(ends))
        name = ""
        if self.name and other.name:
            name = "%s#%s" % (self.name, other.name)
        return KnotDiagram.from_tuples(out, name)


def _is_arrival_slot(d, i, s):
    """True when slot s of crossing i is where its edge label arrives."""
    if s == 0:
        return True  # a = under-in always arrives
    if s == 2:
        return False  # c = under-out departs
    x = d.crossings[i]
    oi, _ = d.over_in_out(i)
    return (s == 1 and oi == x.b) or (s == 3 and oi == x.d)


# -- PD text format ----------------------------------------------------------

_X_RE = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text, name=""):
    """Parse whitespace-separated X(a,b,c,d) tokens; # starts a comment."""
    lines = []
    for line in text.splitlines():
        if "#" in line:
            line = line[: line.index("#")]
        lines.append(line)
    body = " ".join(lines).strip()
    if not body:
        raise PDSyntaxError("no crossings in PD text")
    tuples = []
    pos = 0
    for m in _X_RE.finditer(body):
        if body[pos : m.start()].strip():
            raise PDSyntaxError("unexpected token: %r" % body[pos : m.start()].strip())
        tuples.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    if body[pos:].strip():
        raise PDSyntaxError("unexpected trailing text: %r" % body[pos:].strip())
    return KnotDiagram.from_tuples(tuples, name)


def serialize_pd(d):
    return " ".join("X(%d,%d,%d,%d)" % x.ends() for x in d.crossings)
