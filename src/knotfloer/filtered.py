"""Filtered chain complexes over a field, with cancellation and reduction.

Generators carry an Alexander grading A (the filtration) and a homological
grading gr; differentials drop gr by one and never increase A.  Reduction
cancels every A-preserving differential, leaving a complex whose generator
counts per (A, gr) are the second-page ranks of the filtration spectral
sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .linalg import rank as _matrix_rank  # floerbench traces this name


class FilteredComplexError(ValueError):
    pass


class FieldQ:
    name = "Q"

    @staticmethod
    def coerce(x):
        return Fraction(x)

    zero = Fraction(0)


class FieldF2:
    name = "F2"

    @staticmethod
    def coerce(x):
        if isinstance(x, Fraction):
            if x.denominator % 2 == 0:
                raise ZeroDivisionError("1/2 has no meaning mod 2")
            return (x.numerator * pow(x.denominator, -1, 2)) % 2
        return int(x) % 2

    zero = 0


FIELDS = {"Q": FieldQ, "F2": FieldF2}


@dataclass(frozen=True)
class Generator:
    id: str
    A: int
    gr: int


class FilteredComplex:
    """Immutable filtered complex; operations return new complexes."""

    def __init__(self, generators, differential, field="F2", check=True):
        if isinstance(field, str):
            field = FIELDS[field]
        self.field = field
        gens = []
        for g in generators:
            if isinstance(g, Generator):
                gens.append(g)
            else:
                gid, A, gr = g
                gens.append(Generator(str(gid), int(A), int(gr)))
        self.generators = tuple(gens)
        self._by_id = {g.id: g for g in self.generators}
        if len(self._by_id) != len(self.generators):
            raise FilteredComplexError("duplicate generator ids")
        d = {}
        for (src, tgt), coeff in dict(differential).items():
            c = field.coerce(coeff)
            if c != field.zero:
                d[(str(src), str(tgt))] = c
        self.differential = d
        if check:
            self._check()

    # -- structure ----------------------------------------------------------

    def _check(self):
        for (src, tgt), c in self.differential.items():
            if src not in self._by_id or tgt not in self._by_id:
                raise FilteredComplexError("differential references unknown id")
            gs, gt = self._by_id[src], self._by_id[tgt]
            if gs.gr - gt.gr != 1:
                raise FilteredComplexError(
                    "differential %s->%s does not drop gr by 1" % (src, tgt)
                )
            if gs.A < gt.A:
                raise FilteredComplexError(
                    "differential %s->%s increases the Alexander grading" % (src, tgt)
                )
        # d o d = 0
        by_src = {}
        for (src, tgt), c in self.differential.items():
            by_src.setdefault(src, []).append((tgt, c))
        for src in by_src:
            acc = {}
            for mid, c1 in by_src[src]:
                for tgt, c2 in by_src.get(mid, []):
                    acc[tgt] = acc.get(tgt, self.field.zero) + c1 * c2
            for tgt, v in acc.items():
                if self.field.coerce(v) != self.field.zero:
                    raise FilteredComplexError("d^2 != 0 at %s -> %s" % (src, tgt))

    def gen(self, gid):
        return self._by_id[gid]

    def d(self, src, tgt):
        return self.differential.get((str(src), str(tgt)), self.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, FilteredComplex)
            and self.field is other.field
            and self.generators == other.generators
            and self.differential == other.differential
        )

    # -- cancellation and reduction ------------------------------------------

    def cancel(self, x, y):
        """Cancel the pair x -> y with invertible coefficient.

        The corrected differential is d'(u, v) = d(u, v) - d(u, y) c^-1 d(x, v)
        with c = d(x, y); the result is chain homotopy equivalent and keeps
        the filtration because A(x) = A(y) is required.
        """
        x, y = str(x), str(y)
        c = self.d(x, y)
        if c == self.field.zero:
            raise FilteredComplexError("d(%s, %s) is not invertible" % (x, y))
        gx, gy = self._by_id[x], self._by_id[y]
        if gx.A != gy.A:
            raise FilteredComplexError(
                "cancelling %s, %s would break the filtration (A %d != %d)"
                % (x, y, gx.A, gy.A)
            )
        keep = [g for g in self.generators if g.id not in (x, y)]
        if self.field is FieldF2:
            cinv = 1
        else:
            cinv = 1 / c
        d = {}
        for g in keep:
            for h in keep:
                v = self.d(g.id, h.id) - self.d(g.id, y) * cinv * self.d(x, h.id)
                v = self.field.coerce(v)
                if v != self.field.zero:
                    d[(g.id, h.id)] = v
        return FilteredComplex(keep, d, self.field, check=False)

    def reduce(self):
        """Cancel A-preserving differentials until none remain."""
        cur = self
        while True:
            candidates = sorted(
                (src, tgt)
                for (src, tgt), c in cur.differential.items()
                if cur._by_id[src].A == cur._by_id[tgt].A
            )
            if not candidates:
                return cur
            src, tgt = candidates[0]
            cur = cur.cancel(src, tgt)

    def is_reduced(self):
        return all(
            self._by_id[s].A != self._by_id[t].A for (s, t) in self.differential
        )

    # -- homology --------------------------------------------------------------

    def homology_ranks(self):
        """Rank of homology per homological grading."""
        by_gr = {}
        for g in self.generators:
            by_gr.setdefault(g.gr, []).append(g.id)
        index = {gid: k for ids in by_gr.values() for k, gid in enumerate(ids)}
        images = {g.id: {} for g in self.generators}
        for (src, tgt), c in self.differential.items():
            images[src][index[tgt]] = c
        d_rank = {
            gr: _matrix_rank([images[src] for src in ids], self.field)
            for gr, ids in by_gr.items()
        }
        ranks = {}
        for gr, ids in by_gr.items():
            r = len(ids) - d_rank[gr] - d_rank.get(gr + 1, 0)
            if r:
                ranks[gr] = r
        return ranks

    def total_homology_rank(self):
        return sum(self.homology_ranks().values())

    # -- duality and products -----------------------------------------------------

    def dual(self):
        """Arrows reversed, both gradings negated."""
        gens = [Generator(g.id + "*", -g.A, -g.gr) for g in self.generators]
        d = {
            (tgt + "*", src + "*"): c for (src, tgt), c in self.differential.items()
        }
        return FilteredComplex(gens, d, self.field)

    def tensor(self, other):
        """Tensor product with additive gradings and Koszul signs over Q."""
        if self.field is not other.field:
            raise FilteredComplexError("tensor factors must share the field")
        gens = []
        for g in self.generators:
            for h in other.generators:
                gens.append(
                    Generator("%s|%s" % (g.id, h.id), g.A + h.A, g.gr + h.gr)
                )
        d = {}
        for g in self.generators:
            for h in other.generators:
                src = "%s|%s" % (g.id, h.id)
                for (a, b), c in self.differential.items():
                    if a == g.id:
                        d[(src, "%s|%s" % (b, h.id))] = c
                for (a, b), c in other.differential.items():
                    if a == h.id:
                        sign = 1 if (self.field is FieldF2 or g.gr % 2 == 0) else -1
                        d[(src, "%s|%s" % (g.id, b))] = c * sign
        return FilteredComplex(gens, d, self.field)

    def subquotient(self, keep_ids):
        """Complex on a subset of generators with the induced differential."""
        keep = set(map(str, keep_ids))
        gens = [g for g in self.generators if g.id in keep]
        d = {
            (s, t): c
            for (s, t), c in self.differential.items()
            if s in keep and t in keep
        }
        return FilteredComplex(gens, d, self.field, check=False)

    # -- serialization --------------------------------------------------------------

    def to_json_obj(self):
        def enc(c):
            if self.field is FieldF2:
                return int(c)
            f = Fraction(c)
            return int(f) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)

        return {
            "field": self.field.name,
            "gens": [{"id": g.id, "A": g.A, "gr": g.gr} for g in self.generators],
            "d": [[s, t, enc(c)] for (s, t), c in sorted(self.differential.items())],
        }

    def to_json(self):
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj):
        field = FIELDS[obj["field"]]

        def dec(v):
            if isinstance(v, str) and "/" in v:
                num, den = v.split("/")
                return Fraction(int(num), int(den))
            return v

        gens = [(g["id"], g["A"], g["gr"]) for g in obj["gens"]]
        d = {(s, t): dec(c) for s, t, c in obj["d"]}
        return cls(gens, d, field)

    @classmethod
    def from_json(cls, s):
        return cls.from_json_obj(json.loads(s))

    def __repr__(self):
        return "FilteredComplex(%d gens, %d arrows, %s)" % (
            len(self.generators),
            len(self.differential),
            self.field.name,
        )
