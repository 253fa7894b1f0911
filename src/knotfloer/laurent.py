"""Integer Laurent polynomials in one variable t.

Exact arithmetic over Z[t, t^-1], with the symmetric normalization used for
Alexander polynomials: a representative P with P(t) = P(1/t) and P(1) = 1.
"""

from __future__ import annotations

import json
import re


class NormalizationError(ValueError):
    """Raised when no symmetric unit-normalized representative exists."""


class LaurentPolynomial:
    """Finitely supported map exponent -> integer coefficient.

    Immutable; zero coefficients are never stored.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, a in dict(coeffs).items():
                if a:
                    c[int(e)] = int(a)
        self._c = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def t(cls, exponent=1, coeff=1):
        return cls({exponent: coeff})

    def coeff(self, e):
        return self._c.get(e, 0)

    def coeffs(self):
        return dict(self._c)

    def support(self):
        return sorted(self._c)

    def is_zero(self):
        return not self._c

    @property
    def min_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return min(self._c)

    @property
    def max_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return max(self._c)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other):
        c = dict(self._c)
        for e, a in other._c.items():
            c[e] = c.get(e, 0) + a
        return LaurentPolynomial(c)

    def __neg__(self):
        return LaurentPolynomial({e: -a for e, a in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPolynomial({e: a * other for e, a in self._c.items()})
        c = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + a1 * a2
        return LaurentPolynomial(c)

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentPolynomial({e + k: a for e, a in self._c.items()})

    def reverse(self):
        """Substitute t -> 1/t."""
        return LaurentPolynomial({-e: a for e, a in self._c.items()})

    def __call__(self, t):
        return sum(a * t**e for e, a in self._c.items())

    def is_symmetric(self):
        return self == self.reverse()

    def normalize_alexander(self):
        """Return the representative Q with Q(t) = Q(1/t) and Q(1) = 1.

        Also returns the shift k and sign s with Q = s * t^k * self.
        Raises NormalizationError when self is not +-t^k times a symmetric
        polynomial with value +-1 at t = 1.
        """
        if self.is_zero():
            raise NormalizationError("zero polynomial cannot represent an Alexander polynomial")
        total = self.max_exp + self.min_exp
        if total % 2 != 0:
            raise NormalizationError("support cannot be centred by an integer shift")
        k = -total // 2
        q = self.shift(k)
        if not q.is_symmetric():
            raise NormalizationError("no symmetric representative: %s" % q)
        v = q(1)
        if v == 1:
            return q, k, 1
        if v == -1:
            return -q, k, -1
        raise NormalizationError("value at t=1 is %d, expected +-1" % v)

    # -- serialization ----------------------------------------------------

    def to_text(self):
        """Canonical ascending-exponent text, e.g. 't^-1 - 1 + t'."""
        if self.is_zero():
            return "0"
        parts = []
        for e in self.support():
            a = self._c[e]
            sign = "-" if a < 0 else "+"
            mag = abs(a)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else "t^%d" % e
                body = var if mag == 1 else "%d*%s" % (mag, var)
            if not parts:
                parts.append(body if a > 0 else "-" + body)
            else:
                parts.append("%s %s" % (sign, body))
        return " ".join(parts)

    _TERM_RE = re.compile(
        r"^\s*(?P<coeff>\d+)?\s*(?:\*\s*)?(?P<var>t(?:\^(?P<exp>-?\d+))?)?\s*$"
    )

    @classmethod
    def from_text(cls, text):
        text = text.strip()
        if text == "0":
            return cls.zero()
        # split into signed terms; exponent signs after '^' stay attached
        chunks = re.split(r"(?<!\^)(?=[+-])", text.replace(" ", ""))
        c = {}
        for chunk in chunks:
            if not chunk:
                continue
            sign = 1
            if chunk[0] == "+":
                chunk = chunk[1:]
            elif chunk[0] == "-":
                sign = -1
                chunk = chunk[1:]
            m = cls._TERM_RE.match(chunk)
            if not m or (m.group("coeff") is None and m.group("var") is None):
                raise ValueError("bad Laurent term: %r" % chunk)
            a = int(m.group("coeff") or 1) * sign
            if m.group("var") is None:
                e = 0
            elif m.group("exp") is None:
                e = 1
            else:
                e = int(m.group("exp"))
            c[e] = c.get(e, 0) + a
        return cls(c)

    def to_json_obj(self):
        return {str(e): a for e, a in sorted(self._c.items())}

    def to_json(self):
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj):
        return cls({int(e): int(a) for e, a in obj.items()})

    @classmethod
    def from_json(cls, s):
        return cls.from_json_obj(json.loads(s))

    def __repr__(self):
        return "LaurentPolynomial(%s)" % self.to_text()
