"""Exact linear algebra: echelon bases, rank, nullspace, determinants and
the signature.

This is the only module that eliminates rows.  The field picks the row
format: over F2 a row is a Python int whose bit j is the entry in column j,
and elimination is one XOR per step (the bitset rows of M4RI, in pure
Python); over Q a row is a sparse dict {column: Fraction}.  Determinants of
integer matrices are fraction-free (Bareiss 1968).  A determinant over
Z[t, t^-1] first pivots away every unit entry +-t^k symbolically, then
evaluates the small core left by Bareiss at t = 0, 1, ... and interpolates
it exactly; the signature of a symmetric matrix is read off its
characteristic polynomial.

Vectors handed to this module are either dense sequences or sparse dicts
{index: coefficient}; each entry is coerced into the field once, when the
row is built.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _pairs(vec):
    return vec.items() if isinstance(vec, dict) else enumerate(vec)


def entries(row):
    """(index, coefficient) pairs of a row in either format."""
    if isinstance(row, dict):
        return list(row.items())
    return [(j, 1) for j, bit in enumerate(reversed(bin(row)[2:])) if bit == "1"]


class _Echelon:
    """Independent rows keyed by their pivots.  Each row carries a tag,
    reduced alongside it, that records which inputs it combines."""

    def __init__(self, coerce):
        self.coerce = coerce
        self.pivots = {}  # pivot -> (row, tag)

    def copy(self):
        """The same basis without tags."""
        out = type(self)(self.coerce)
        out.pivots = {p: (row, self.no_tag) for p, (row, _) in self.pivots.items()}
        return out

    def __len__(self):
        return len(self.pivots)


class EchelonF2(_Echelon):
    """Bitset rows keyed by their highest set bit: XOR with a stored row
    clears that bit and touches only lower ones, so adding a row takes at
    most one step per stored row."""

    no_tag = 0

    def row(self, vec):
        v = 0
        for j, c in _pairs(vec):
            if self.coerce(c):
                v ^= 1 << j
        return v

    def unit(self, i):
        return 1 << i

    def add(self, row, tag=0):
        """Insert row when it is independent of the basis and return None;
        otherwise return the reduced tag, a relation among the inputs."""
        pivots = self.pivots
        while row:
            hit = pivots.get(row.bit_length())
            if hit is None:
                pivots[row.bit_length()] = (row, tag)
                return None
            row ^= hit[0]
            tag ^= hit[1]
        return tag


class EchelonQ(_Echelon):
    """Sparse rows keyed by their largest column, scaled to 1 there."""

    no_tag = {}  # never modified: add copies the tags it reduces

    def row(self, vec):
        v = {}
        for j, c in _pairs(vec):
            v[j] = v.get(j, 0) + self.coerce(c)
        return {j: c for j, c in v.items() if c}

    def unit(self, i):
        return {i: Fraction(1)}

    def add(self, row, tag=no_tag):
        """As EchelonF2.add; the arguments are not modified."""
        row, tag = dict(row), dict(tag)
        pivots = self.pivots
        while row:
            p = max(row)
            hit = pivots.get(p)
            if hit is None:
                inv = 1 / row[p]
                pivots[p] = (
                    {j: c * inv for j, c in row.items()},
                    {j: c * inv for j, c in tag.items()},
                )
                return None
            c = -row[p]
            _axpy(row, c, hit[0])
            _axpy(tag, c, hit[1])
        return tag


def _axpy(v, c, w):
    """v += c * w in place, dropping zeros."""
    for j, x in w.items():
        y = v.get(j, 0) + c * x
        if y:
            v[j] = y
        else:
            del v[j]


def echelon(field):
    """An empty echelon basis in the row format of field (F2 or Q)."""
    if field.name == "F2":
        return EchelonF2(field.coerce)
    return EchelonQ(field.coerce)


def span_and_kernel(vectors, field):
    """(echelon basis of the span of vectors, basis of the relations
    sum_i x_i vectors[i] = 0 as rows indexed by i), in one pass."""
    basis = echelon(field)
    kernel = []
    for i, vec in enumerate(vectors):
        rel = basis.add(basis.row(vec), basis.unit(i))
        if rel is not None:
            kernel.append(rel)
    return basis, kernel


def rank(vectors, field):
    """Rank of a list of vectors (the rows, or the columns, of a matrix)."""
    basis = echelon(field)
    for vec in vectors:
        basis.add(basis.row(vec))
    return len(basis)


def nullspace(vectors, field):
    """Basis of the relations among vectors: with the vectors as the
    columns of M, the right nullspace of M."""
    return span_and_kernel(vectors, field)[1]


def det(m):
    """Determinant of a square integer matrix by Bareiss elimination.

    Every division is exact, so all intermediate entries stay integers.
    """
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for row in a[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - f * top[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def interpolate(vals):
    """Coefficients, lowest first, of the integer polynomial p of degree
    < len(vals) with p(t) = vals[t] for t = 0, 1, ...

    Newton form on the nodes 0, 1, ...: the k-th forward difference at 0
    divided by k!, then Horner steps p <- p * (t - k) + c_k.
    """
    newton = []
    diffs = list(vals)
    for k in range(len(vals)):
        c, r = divmod(diffs[0], math.factorial(k))
        if r:
            raise ArithmeticError("interpolated determinant is not integral")
        newton.append(c)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs = []
    for k in range(len(newton) - 1, -1, -1):
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= k * coeffs[i + 1]
        coeffs[0] += newton[k]
    return coeffs


def _unit(p):
    """(k, s) when the Laurent polynomial p is s t^k with s = +-1, else None."""
    if len(p) == 1:
        ((k, s),) = p.items()
        if s == 1 or s == -1:
            return k, s
    return None


def poly_det(m):
    """Exact determinant of a square matrix of Laurent polynomials over
    Z[t, t^-1], each entry a dict {exponent: coefficient}.  Returns it as
    such a dict: {0: 1} for a 0 x 0 matrix, {} for a singular one.

    First every entry that is a unit +-t^k is pivoted away symbolically
    (Crowell-Fox): among the unit entries the one of least Markowitz cost
    (row nnz - 1)(col nnz - 1) is taken, the first in (row, column) index
    order on a tie; the other rows of its column are cleared by
    row -= (a +-t^-k) pivot_row, and the determinant gains the factor
    (-1)^(row position + column position) +-t^k of the Laplace expansion.
    No non-unit is ever divided by.  The core left has no unit entry: each
    of its rows is shifted to start at t^0, the sum of the row spans then
    bounds the degree of its determinant, which is evaluated by Bareiss at
    t = 0..bound and recovered by interpolate.
    """
    rows = {}  # row index -> {column: entry}, in index order
    cols = {j: set() for j in range(len(m))}  # column index -> its row indices
    units = {}  # (row, column) -> (k, s) of each unit entry s t^k
    for i, row in enumerate(m):
        r = rows[i] = {}
        for j, p in enumerate(row):
            p = {e: c for e, c in p.items() if c}
            if p:
                r[j] = p
                cols[j].add(i)
                if u := _unit(p):
                    units[i, j] = u
    # a zero row, given or made by elimination, means det 0; a zero column
    # needs no check: it stays zero into the core, whose det is then 0
    if not all(rows.values()):
        return {}
    sign, shift = 1, 0

    def markowitz(ij):
        return (len(rows[ij[0]]) - 1) * (len(cols[ij[1]]) - 1), ij

    while units:
        pi, pj = min(units, key=markowitz)
        k, s = units.pop((pi, pj))
        if (sum(i < pi for i in rows) + sum(j < pj for j in cols)) & 1:
            sign = -sign
        sign *= s
        shift += k
        prow = rows.pop(pi)
        del prow[pj]
        for j in prow:
            cols[j].discard(pi)
            units.pop((pi, j), None)
        for i in cols.pop(pj) - {pi}:
            r = rows[i]
            units.pop((i, pj), None)
            # r += f * prow with f = -a (s t^-k), which clears column pj
            f = [(e - k, -s * c) for e, c in r.pop(pj).items()]
            for j, q in prow.items():
                p = r.get(j)
                if p is None:
                    p = r[j] = {}
                    cols[j].add(i)
                for e2, c2 in q.items():
                    for e1, c1 in f:
                        e = e1 + e2
                        c = p.get(e, 0) + c1 * c2
                        if c:
                            p[e] = c
                        else:
                            del p[e]
                if u := _unit(p):
                    units[i, j] = u
                else:
                    units.pop((i, j), None)
                    if not p:
                        del r[j]
                        cols[j].discard(i)
            if not r:
                return {}
    order = sorted(cols)
    core, bound = [], 0
    for r in rows.values():
        low = min(min(p) for p in r.values())
        shift += low
        bound += max(max(p) for p in r.values()) - low
        core.append([[(e - low, c) for e, c in r[j].items()] if j in r else () for j in order])
    vals = [
        det([[sum(c * t**e for e, c in p) for p in row] for row in core])
        for t in range(bound + 1)
    ]
    return {e + shift: sign * c for e, c in enumerate(interpolate(vals)) if c}


def signature(m):
    """Signature of a symmetric integer matrix.

    Its characteristic polynomial p(x) = det(xI - m) has only real roots,
    so by Descartes' rule of signs the sign changes of its coefficients
    count the positive eigenvalues exactly, and those of p(-x) the negative
    ones.
    """
    p = sorted(
        poly_det([[{0: -x, 1: int(i == j)} for j, x in enumerate(row)] for i, row in enumerate(m)])
        .items()
    )

    def changes(coeffs):
        signs = [c > 0 for c in coeffs]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(c for _, c in p) - changes(-c if e & 1 else c for e, c in p)
