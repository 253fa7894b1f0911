"""Free-group Fox calculus over the meridian abelianization.

Wirtinger presentations read off a diagram, free derivatives, abelianized
Fox matrices, the Alexander polynomial as the Fox determinant (exact over
Z[t, t^-1], by linalg.poly_det), and the signed generator spectrum obtained
by expanding that determinant without ever combining terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentPolynomial, NormalizationError
from .linalg import poly_det


class SpectrumResourceError(RuntimeError):
    """Raised when the uncombined expansion exceeds the term cap."""


# -- free words ---------------------------------------------------------------


def free_reduce(word):
    """Cancel adjacent x x^-1 pairs; word is a tuple of (gen, +-1)."""
    out = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_mul(u, v):
    return free_reduce(tuple(u) + tuple(v))


def word_inv(u):
    return tuple((g, -e) for g, e in reversed(u))


def exponent_sum(word):
    return sum(e for _, e in word)


class FormalSum(dict):
    """Finitely supported integer combination of free words."""

    def add(self, word, coeff=1):
        w = free_reduce(tuple(word))
        c = self.get(w, 0) + coeff
        if c:
            self[w] = c
        else:
            self.pop(w, None)
        return self

    def __add__(self, other):
        out = FormalSum(self)
        for w, c in other.items():
            out.add(w, c)
        return out

    def left_mul(self, word):
        out = FormalSum()
        for w, c in self.items():
            out.add(word_mul(word, w), c)
        return out


def fox_derivative(word, gen):
    """d/dx_gen of a free word: one term per appearance of x_gen^+-1.

    Satisfies d(x) = 1, d(x^-1) = -x^-1, and d(uv) = d(u) + u d(v).
    """
    out = FormalSum()
    prefix = ()
    for g, e in word:
        if g == gen:
            if e == 1:
                out.add(prefix, 1)
            else:
                out.add(word_mul(prefix, ((g, -1),)), -1)
        prefix = word_mul(prefix, ((g, e),))
    return out


def abelianize(term):
    """Send each word to t^(exponent sum); extend linearly.

    Accepts a FormalSum or a bare word tuple.
    """
    if isinstance(term, dict):
        out = {}
        for w, c in term.items():
            e = exponent_sum(w)
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)
    return LaurentPolynomial({exponent_sum(tuple(term)): 1})


# -- presentations -------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    g: int
    relators: tuple  # tuples of (gen, +-1); generators numbered 0..g-1

    def validate_wirtinger_shape(self):
        """Every relator must be a cyclic rotation of x_i w x_j^-1 w^-1."""
        for r in self.relators:
            if not _is_conjugation_shape(r):
                raise ValueError("relator %s is not of conjugation shape" % (r,))


def _is_conjugation_shape(rel):
    n = len(rel)
    if n < 2 or n % 2 != 0:
        return False
    half = (n - 2) // 2
    for shift in range(n):
        w = rel[shift:] + rel[:shift]
        if w[0][1] != 1:
            continue
        mid = w[1 : 1 + half]
        if w[1 + half][1] != -1:
            continue
        if w[2 + half :] == word_inv(mid):
            return True
    return False


def wirtinger(d):
    """Wirtinger presentation of the knot group from a diagram.

    One generator per arc (over-strand), one relator per crossing; the last
    relator is dropped.  At a positive crossing with over-arc o, incoming
    under-arc a, outgoing under-arc b the relator is x_o x_a x_o^-1 x_b^-1;
    at a negative crossing x_o^-1 x_a x_o x_b^-1.
    """
    arc_of = d.arc_of_edge()
    relators = []
    for i, x in enumerate(d.crossings):
        oi, _ = d.over_in_out(i)
        o = arc_of[oi]
        a = arc_of[x.a]
        b = arc_of[x.c]
        if d.sign(i) > 0:
            rel = ((o, 1), (a, 1), (o, -1), (b, -1))
        else:
            rel = ((o, -1), (a, 1), (o, 1), (b, -1))
        relators.append(free_reduce(rel))
    p = Presentation(d.n, tuple(relators[:-1]))
    return p


def _fox_letters(p):
    """Per relator, its Fox letters (column, exponent, sign) in word order.

    d/dx_i of a relator has one term per appearance of x_i^+-1 (i < g-1;
    the last generator's column is dropped): the prefix before x_i, or the
    prefix through x_i^-1 with sign -1.  Abelianized, a prefix is t to its
    exponent sum, so a letter is read from the running exponent sum alone.
    """
    letters = []
    for rel in p.relators:
        row = []
        prefix_exp = 0
        for g, e in rel:
            if g < p.g - 1:
                if e == 1:
                    row.append((g, prefix_exp, 1))
                else:
                    row.append((g, prefix_exp + e, -1))
            prefix_exp += e
        letters.append(row)
    return letters


def _fox_entries(p):
    """Abelianized Fox matrix as rows of sparse {exponent: int} entries."""
    rows = []
    for letters in _fox_letters(p):
        row = [{} for _ in range(p.g - 1)]
        for col, e, s in letters:
            entry = row[col]
            c = entry.get(e, 0) + s
            if c:
                entry[e] = c
            else:
                del entry[e]
        rows.append(row)
    return rows


def fox_matrix(p):
    """Abelianized Fox matrix, dropping the last generator column.

    Entry [j][i] is the Laurent polynomial of d_{x_i} w_j for i < g-1, summed
    from the relator's Fox letters; it equals abelianize(fox_derivative(w_j,
    x_i)).
    """
    return [[LaurentPolynomial(entry) for entry in row] for row in _fox_entries(p)]


def alexander_from_presentation(p):
    """Normalized Alexander polynomial from the Fox determinant.

    linalg.poly_det takes the abelianized Fox matrix as it is, pivots away
    its unit entries and evaluates and interpolates the small core left.
    """
    if len(p.relators) != p.g - 1:
        raise ValueError("presentation must have g-1 relators")
    delta = LaurentPolynomial(poly_det(_fox_entries(p)))
    q, _, _ = normalize_or_raise(delta)
    return q


def normalize_or_raise(poly):
    try:
        return poly.normalize_alexander()
    except NormalizationError as e:
        raise NormalizationError(
            "Fox determinant does not normalize (%s); upstream bug" % e
        ) from e


def alexander(d):
    """Normalized Alexander polynomial of a diagram via Fox calculus."""
    return alexander_from_presentation(wirtinger(d))


# -- generator spectrum ---------------------------------------------------------


def expand_letters(rows, term_cap=10**8, out=None, j=0, used=0, picks=(), exp=0, sign=1):
    """Leaves of the uncombined permutation expansion of a letter matrix.

    rows[j] lists the letters (column, exponent, sign) of row j; a leaf picks
    one letter per row, in pairwise distinct columns.  Returns the list of
    (picks, exponent, sign) per leaf in lexicographic depth-first order:
    picks[j] indexes the letter taken from row j, exponent is the sum of the
    picked exponents and sign the product of the picked signs with the sign
    of the column permutation.  The remaining arguments carry the partial
    leaf down the recursion; used is the bitmask of the columns taken.
    """
    if out is None:
        out = []
    if j == len(rows):
        if len(out) >= term_cap:
            raise SpectrumResourceError("expansion exceeds %d terms" % term_cap)
        out.append((picks, exp, sign))
        return out
    for k, (col, de, ds) in enumerate(rows[j]):
        bit = 1 << col
        if used & bit:
            continue
        # every used column to the right of col is one inversion
        flip = -1 if (used >> col).bit_count() & 1 else 1
        expand_letters(
            rows, term_cap, out, j + 1, used | bit, picks + (k,), exp + de, sign * ds * flip
        )
    return out


def generator_spectrum(p, term_cap=10**8):
    """Monomials of the uncombined Fox determinant, shifted to match Delta.

    Returns (spectrum, delta): spectrum is a list of (exponent, sign) pairs,
    one per surviving monomial choice, whose signed sum is exactly the
    normalized Alexander polynomial delta.
    """
    if len(p.relators) != p.g - 1:
        raise ValueError("presentation must have g-1 relators")
    spectrum = [(e, s) for _, e, s in expand_letters(_fox_letters(p), term_cap)]
    raw = {}
    for e, s in spectrum:
        raw[e] = raw.get(e, 0) + s
    delta, shift, flip = normalize_or_raise(LaurentPolynomial(raw))
    spectrum = [(e + shift, s * flip) for e, s in spectrum]
    return spectrum, delta
