"""Marked partial resolutions of alternating diagrams.

Generators of the twisted-up splitting of an alternating diagram (crossing
c1 distinguished) correspond to marked partial resolutions: every other
crossing carries either a sign or a resolution, marked components cover the
resolved crossings, and the signed Alexander spectrum of the full set equals
the normalized Alexander polynomial.  The generator set is enumerated as the
uncombined expansion of the Fox determinant that drops c1's relator and the
column of the arc passing over c1; the letter dictionary below converts each
monomial choice into its diagram presentation.

enumerate_mprs and pools build every MPR and are the reference.  Smallness
is certified without them: an MPR is a resolved sub-assignment R (a disjoint
union of cycles of 'in'/'out' letters) with a free sign on every other
crossing, so certify_small expands only the R and reads the spectrum, the
verdict, the pools and the survivor ranks off them and off bitsets over the
2^(n-1) base generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from operator import getitem
from typing import NamedTuple

from .fox import SpectrumResourceError, alexander, expand_letters
from .laurent import LaurentPolynomial, NormalizationError

# Size caps of certify_small.  A certificate keeps one bitset of 2^(n-1)
# bits, one bit per base generator, per crossing (256 KiB each at the cap
# of 22 crossings), and expands at most MAX_RESOLVED resolved
# sub-assignments at one c1; the table's most is 34 (9_1), a 17-crossing
# pretzel's about 1,060.
MAX_CERTIFY_CROSSINGS = 22
MAX_RESOLVED = 100_000


class NotAlternatingError(ValueError):
    pass


class SmallnessError(ValueError):
    pass


class ConsistencyError(RuntimeError):
    """Signed spectrum fails to reproduce the Alexander polynomial."""


class CertificationResourceError(SpectrumResourceError):
    """certify_small past MAX_CERTIFY_CROSSINGS or MAX_RESOLVED."""


TAGS = ("+", "-", "in", "out")
BASE_TAG = {"+": "+", "-": "-", "in": "-", "out": "+"}  # tag over the base generator


class MPR(NamedTuple):
    """One marked partial resolution.

    assignment[i] is '+', '-', 'in' or 'out' per crossing (None at c1);
    'in'/'out' mean the crossing is resolved with the marked component
    through its incoming/outgoing under-edge.  alexander_exponent and sign
    give the generator's monomial in the normalized spectrum.  base is the
    assignment of the base generator the MPR lies over ('in' read as '-',
    'out' as '+') and resolved the crossings tagged 'in' or 'out', in
    increasing order; enumerate_mprs sets both with the rest.
    """

    assignment: tuple
    alexander_exponent: int
    sign: int
    marked_components: tuple  # of frozensets of edges
    base: tuple
    resolved: tuple

    def base_assignment(self):
        return self.base

    def is_base(self):
        return not self.resolved


def _letters(d, c1, arc_of, over):
    """Per-crossing letter options: (tag, column arc, exponent delta, sign)."""
    dropped = over[c1]
    rows = []
    for i, x in enumerate(d.crossings):
        if i == c1:
            rows.append(None)
            continue
        o, a, b = over[i], arc_of[x.a], arc_of[x.c]
        if d.sign(i) > 0:
            opts = [("+", o, 0, 1), ("-", o, 1, -1), ("in", a, 1, 1), ("out", b, 0, -1)]
        else:
            opts = [("+", o, 0, 1), ("-", o, -1, -1), ("in", a, -1, 1), ("out", b, 0, -1)]
        rows.append([opt for opt in opts if opt[1] != dropped])
    return rows, dropped


def enumerate_mprs(d, c1):
    """All marked partial resolutions of (d, c1), with gradings.

    The signed sum of the spectrum is checked against the Alexander
    polynomial of the diagram; a mismatch means the letter dictionary went
    inconsistent and raises ConsistencyError.  Each MPR is built once, with
    its base and resolved crossings, at its leaf of the expansion, from
    per-crossing tables of tags, base tags and resolved codes; the MPRs with
    one resolved sub-assignment share its resolved tuple and marked
    components, derived once.
    """
    if not d.is_alternating():
        raise NotAlternatingError("MPR enumeration needs an alternating diagram")
    if not 0 <= c1 < d.n:
        raise ValueError("invalid distinguished crossing %r" % (c1,))
    arc_of = d.arc_of_edge()
    over = [arc_of[d.over_in_out(i)[0]] for i in range(d.n)]  # arc over each crossing
    rows, dropped = _letters(d, c1, arc_of, over)
    order = [i for i in range(d.n) if i != c1]
    leaves = expand_letters([[opt[1:] for opt in rows[i]] for i in order])

    total = {}
    for _, e, s in leaves:
        total[e] = total.get(e, 0) + s
    _, shift, flip = _check_spectrum(total, alexander(d))
    # per crossing, per option: tag, base tag and resolved code; c1 has the
    # one option None
    tags = [(None,) if row is None else tuple(opt[0] for opt in row) for row in rows]
    bases = [tuple(BASE_TAG.get(t) for t in row) for row in tags]
    codes = _resolved_codes(tags)
    components = {}  # resolved code -> (resolved crossings, marked components)
    out = []
    for picks, e, s in leaves:
        picks = picks[:c1] + (0,) + picks[c1:]  # c1 takes its one option
        code = sum(map(getitem, codes, picks))
        found = components.get(code)
        if found is None:
            found = components[code] = _marked_components(d, arc_of, over, code)
        out.append(
            MPR(
                tuple(map(getitem, tags, picks)),
                e + shift,
                s * flip,
                found[1],
                tuple(map(getitem, bases, picks)),
                found[0],
            )
        )
    return out


def _check_spectrum(total, delta):
    """(Delta, shift, sign flip) normalizing the signed spectrum {e: sum}.

    Raises ConsistencyError unless it normalizes to delta.
    """
    try:
        check, shift, flip = LaurentPolynomial(total).normalize_alexander()
    except NormalizationError as exc:
        raise ConsistencyError("spectrum does not normalize: %s" % exc) from exc
    if check != delta:
        raise ConsistencyError(
            "signed MPR spectrum %s != Alexander polynomial %s"
            % (check.to_text(), delta.to_text())
        )
    return check, shift, flip


def _resolved_codes(tags):
    """Per crossing, per tag: bit i for crossing i resolved, bit n + i more
    when it is resolved 'out'; the code of a resolved sub-assignment is the
    sum over crossings."""
    n = len(tags)
    return [
        tuple((1 << i | 1 << (n + i)) if t == "out" else (1 << i) if t == "in" else 0 for t in row)
        for i, row in enumerate(tags)
    ]


def _marked_components(d, arc_of, over, code):
    """(resolved crossings, marked components) of one resolved sub-assignment.

    Bit i of code marks crossing i resolved and bit n + i marks it resolved
    'out'.  A resolved crossing takes the column of the arc of its marked
    under-edge (incoming for 'in', outgoing for 'out'); the walk from a
    resolved crossing to the resolved crossing whose column is the arc over
    it closes into a cycle, whose under-edges form one marked component,
    given as a frozenset of diagram edges.  A walk that reaches an arc no
    resolved crossing takes raises ConsistencyError.
    """
    n = d.n
    resolved = tuple(i for i in range(n) if code >> i & 1)
    edge = {}
    for i in resolved:
        x = d.crossings[i]
        edge[i] = x.c if code >> (n + i) & 1 else x.a
    row_of_col = {arc_of[e]: i for i, e in edge.items()}
    comps = []
    seen = set()
    for start in resolved:
        if start in seen:
            continue
        edges = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            edges.append(edge[cur])
            cur = row_of_col.get(over[cur])
            if cur is None:
                raise ConsistencyError(
                    "marked component from crossing %d leaves the resolved crossings %s"
                    % (start, resolved)
                )
        comps.append(frozenset(edges))
    return resolved, tuple(sorted(comps, key=sorted))


def pools(d, c1, mprs=None):
    """Map base assignment -> (base MPR, set of marked components C(y)).

    Components pooled over all MPRs lying over the base generator; the
    pool is checked to be pairwise crossing-disjoint.
    """
    if mprs is None:
        mprs = enumerate_mprs(d, c1)
    groups = {}
    for m in mprs:
        group = groups.get(m.base)
        if group is None:
            group = groups[m.base] = [None, set(), 0]
        if not m.resolved:
            group[0] = m
        group[1].update(m.marked_components)
        group[2] += 1
    crossings = {}  # component -> crossings on it
    for key, (base, comps, count) in groups.items():
        if base is None:
            raise ConsistencyError("an MPR class lacks its base generator")
        crossings_used = set()
        for comp in comps:
            cs = crossings.get(comp)
            if cs is None:
                cs = crossings[comp] = _component_crossings(d, comp)
            if crossings_used & cs:
                raise ConsistencyError("pool components share a crossing")
            crossings_used |= cs
        if count != 2 ** len(comps):
            raise ConsistencyError(
                "class size %d != 2^%d over base %s" % (count, len(comps), key)
            )
    return groups


def _component_crossings(d, comp):
    out = set()
    for e in comp:
        i, _ = d.arrival(e)
        j, _ = d.departure(e)
        out.add(i)
        out.add(j)
    return out


# -- smallness --------------------------------------------------------------


def component_is_small(d, comp, _cache=None):
    """True when one side of the component contains no crossings.

    The component is a closed curve through its resolved crossings; faces
    are flooded across edges not on the curve, and a side is empty when no
    crossing lies strictly inside it.
    """
    if _cache is not None and comp in _cache:
        return _cache[comp]
    on_curve = _component_crossings(d, comp)
    corner_face = d.face_of_corner()
    nf = len(d.faces())
    parent = list(range(nf))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for i, x in enumerate(d.crossings):
        for s in range(4):
            e = x.ends()[s]
            if e in comp:
                continue
            # faces flanking the edge-end at slot s: corners s-1 and s
            f1 = corner_face[(i, (s - 1) % 4)]
            f2 = corner_face[(i, s)]
            union(f1, f2)
    sides = {}
    for f in range(nf):
        sides.setdefault(find(f), set()).add(f)
    if len(sides) != 2:
        raise ConsistencyError(
            "component does not split the sphere into two sides (%d)" % len(sides)
        )
    side_list = list(sides.values())
    for side in side_list:
        crossings_inside = 0
        for i in range(d.n):
            if i in on_curve:
                continue
            if corner_face[(i, 0)] in side:
                crossings_inside += 1
        if crossings_inside == 0:
            if _cache is not None:
                _cache[comp] = True
            return True
    if _cache is not None:
        _cache[comp] = False
    return False


@dataclass(frozen=True)
class SmallnessCertificate:
    c1: int
    verdict: bool
    witness: tuple = None  # (MPR, component) when not small
    ranks: dict = field(default=None, hash=False)  # A -> survivors, when small
    delta: LaurentPolynomial = None  # sum of the MPRs' sign t^exponent, when small

    def __post_init__(self):
        if self.verdict and (self.ranks is None or self.delta is None):
            raise ValueError("a small verdict carries its ranks and Delta")


def certify_small(d):
    """Try each crossing as c1; certify with the first all-small choice.

    The Fox determinant is taken once per call and every c1 tried is checked
    against it by certify_at.  The witness of a diagram that is not small
    comes from the last c1 tried.
    """
    prep = _prepare(d)
    cache = {}
    for c1 in range(d.n):
        cert = _certify_at(d, c1, prep, cache)
        if cert.verdict:
            return cert
    return cert


def certify_at(d, c1):
    """The smallness certificate of (d, c1) alone.

    Small: every marked component at c1 is small; the certificate carries
    the survivor ranks and Delta.  Not small: it carries the first MPR, in
    enumerate_mprs order, having a non-small marked component, with that
    component.
    """
    if not 0 <= c1 < d.n:
        raise ValueError("invalid distinguished crossing %r" % (c1,))
    return _certify_at(d, c1, _prepare(d), {})


def _prepare(d):
    """(arc_of, over, Delta, minus bitsets) shared by every c1 of d.

    The base generators at c1 are the 2^(n-1) sign choices on the other
    crossings; bit b of a base bitset stands for the base whose k-th other
    crossing is '-' exactly when b has bit k.  minus[k] is the bitset of the
    bases with '-' at the k-th other crossing.  The crossing cap is checked
    before anything is built.
    """
    if not d.is_alternating():
        raise NotAlternatingError("smallness is defined for alternating diagrams")
    if d.n > MAX_CERTIFY_CROSSINGS:
        raise CertificationResourceError(
            "%d crossings exceed MAX_CERTIFY_CROSSINGS = %d" % (d.n, MAX_CERTIFY_CROSSINGS)
        )
    arc_of = d.arc_of_edge()
    over = [arc_of[d.over_in_out(i)[0]] for i in range(d.n)]
    size = 1 << (d.n - 1)
    minus = []
    for k in range(d.n - 1):
        width = 1 << k
        mask = ((1 << width) - 1) << width  # one period: width '+' bases, width '-'
        period = 2 * width
        while period < size:
            mask |= mask << period
            period *= 2
        minus.append(mask)
    return arc_of, over, alexander(d), minus


def _certify_at(d, c1, prep, cache):
    """certify_at from the resolved sub-assignments R of (d, c1).

    An MPR is R with a free sign on every other crossing, '+' or '-' in the
    over-arc's column, so expand_letters runs on rows whose one 'free'
    letter is the '+' letter; its leaves are the R, in the order of each R's
    first MPR in enumerate_mprs.  From them:

    - Delta: sum over R of sign t^e prod over free i of (1 - t^delta_i),
      delta_i the exponent of crossing i's '-' letter, must normalize to
      the Alexander polynomial;
    - verdict: the marked components of each R are checked small in leaf
      order; the witness is R with '+' on its free crossings;
    - pools: every component of an R is itself a one-cycle R, and two
      one-cycle R whose components share a crossing cover disjoint bases;
    - ranks: the bases covered by no one-cycle R survive, counted per
      Alexander grading.
    """
    arc_of, over, delta, minus = prep
    n = d.n
    rows, _ = _letters(d, c1, arc_of, over)
    order = [i for i in range(n) if i != c1]
    merged = [[opt for opt in rows[i] if opt[0] != "-"] for i in order]
    try:
        leaves = expand_letters([[opt[1:] for opt in row] for row in merged], MAX_RESOLVED)
    except SpectrumResourceError as exc:
        raise CertificationResourceError(
            "more than MAX_RESOLVED = %d resolved sub-assignments at c1 = %d"
            % (MAX_RESOLVED, c1)
        ) from exc
    # per row: the exponent of its '-' letter, and whether each letter is free
    drops = [next((opt[2] for opt in rows[i] if opt[0] == "-"), 0) for i in order]
    frees = [tuple(opt[0] == "+" for opt in row) for row in merged]
    if any(abs(x) != 1 for x in drops):
        raise ConsistencyError("a '-' letter moves the Alexander grading by %s" % (drops,))

    total = {}
    for picks, e, s in leaves:
        # prod (1 - t^delta_i) = (-1)^q t^-q (1 - t)^m over m free rows, q with delta_i = -1
        m = q = 0
        for k, pick in enumerate(picks):
            if frees[k][pick]:
                m += 1
                q += drops[k] < 0
        s = -s if q & 1 else s
        for j in range(m + 1):
            total[e - q + j] = total.get(e - q + j, 0) + (-s if j & 1 else s) * comb(m, j)
    check, shift, flip = _check_spectrum(total, delta)

    # per crossing, per merged letter: tag and resolved code; c1 has the one
    # option None
    tags = [(None,)] * n
    for i, row in zip(order, merged):
        tags[i] = tuple(opt[0] for opt in row)
    codes = _resolved_codes(tags)
    bit = {i: k for k, i in enumerate(order)}
    full = (1 << (1 << (n - 1))) - 1
    singles = {}  # one-cycle component -> (crossings on it, bases it covers)
    many = []  # components of the R with two cycles or more
    checked = set()  # component tuples found all small
    for picks, e, s in leaves:
        picks = picks[:c1] + (0,) + picks[c1:]  # c1 takes its one option
        code = sum(map(getitem, codes, picks))
        resolved, comps = _marked_components(d, arc_of, over, code)
        if comps and comps not in checked:
            for comp in comps:
                if not component_is_small(d, comp, cache):
                    assignment = tuple(map(getitem, tags, picks))
                    base = tuple(BASE_TAG.get(t) for t in assignment)
                    mpr = MPR(assignment, e + shift, s * flip, comps, base, resolved)
                    return SmallnessCertificate(c1=c1, verdict=False, witness=(mpr, comp))
            checked.add(comps)
        if len(comps) == 1:
            covered = full
            for i in resolved:
                covered &= minus[bit[i]] if code >> (n + i) & 1 == 0 else full ^ minus[bit[i]]
            singles[comps[0]] = (_component_crossings(d, comps[0]), covered)
        elif comps:
            many.append(comps)

    if any(comp not in singles for comps in many for comp in comps):
        raise ConsistencyError("a marked component is not a resolved sub-assignment alone")
    covered = 0
    cycles = list(singles.values())
    for k, (crossings, bases) in enumerate(cycles):
        for other, other_bases in cycles[k + 1 :]:
            if crossings & other and bases & other_bases:
                raise ConsistencyError("pool components share a crossing")
        covered |= bases
    # survivors per grading: split by each crossing's sign, '-' moving A by delta_i
    classes = {shift: full ^ covered}
    for k, mask in enumerate(minus):
        split = {}
        for a, bases in classes.items():
            for key, part in ((a, bases & ~mask), (a + drops[k], bases & mask)):
                if part:
                    split[key] = split.get(key, 0) | part
        classes = split
    ranks = {a: bases.bit_count() for a, bases in classes.items() if bases}
    return SmallnessCertificate(c1=c1, verdict=True, ranks=ranks, delta=check)


def reduced_ranks(d, certificate=None):
    """Alexander-graded ranks of the reduced complex of a small diagram.

    Survivors are base generators with empty pools, counted by
    certify_small; the ranks must agree with the unsigned coefficients of
    the certificate's Alexander polynomial.
    """
    if certificate is None:
        certificate = certify_small(d)
    if not certificate.verdict:
        raise SmallnessError("diagram is not certified small")
    ranks = certificate.ranks
    expected = {e: abs(a) for e, a in certificate.delta.coeffs().items()}
    if ranks != expected:
        raise ConsistencyError(
            "reduced ranks %s != |Alexander coefficients| %s" % (ranks, expected)
        )
    return dict(ranks)
