"""Exact linear algebra: echelon bases, rank, nullspace, determinants and
the signature.

This is the only module that eliminates rows.  The field picks the row
format: over F2 a row is a Python int whose bit j is the entry in column j,
and elimination is one XOR per step (the bitset rows of M4RI, in pure
Python); over Q a row is a sparse dict {column: Fraction}.  Determinants of
integer matrices are fraction-free (Bareiss 1968).  A determinant of a
matrix of integer polynomials is evaluated by Bareiss at t = 0, 1, ... and
interpolated exactly; the signature of a symmetric matrix is read off its
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


def poly_det(mats, degree):
    """Coefficients, lowest first, of det(M_0 + t M_1 + t^2 M_2 + ...) for
    square integer matrices mats = [M_0, M_1, ...] of one size, given a
    bound degree on the degree of the determinant.

    The matrix is evaluated at t = 0..degree one row at a time in Horner
    form, each value is a Bareiss determinant, and interpolation recovers
    the coefficients.
    """
    *low, top = mats
    vals = []
    for t in range(degree + 1):
        m = []
        for i, row in enumerate(top):
            for mat in reversed(low):
                row = [t * x + y for x, y in zip(row, mat[i])]
            m.append(row)
        vals.append(det(m))
    return interpolate(vals)


def signature(m):
    """Signature of a symmetric integer matrix.

    Its characteristic polynomial p(x) = det(xI - m) has only real roots,
    so by Descartes' rule of signs the sign changes of its coefficients
    count the positive eigenvalues exactly, and those of p(-x) the negative
    ones.
    """
    n = len(m)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    p = poly_det([[[-x for x in row] for row in m], unit], n)

    def changes(coeffs):
        signs = [c > 0 for c in coeffs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(p) - changes([c if k % 2 == 0 else -c for k, c in enumerate(p)])
