"""Answers computed apart from knotfloer, and the checks that use them.

Nothing here imports knotfloer: polynomials are plain {exponent: coefficient}
dicts and every formula is evaluated from the Alexander polynomial Delta and
the level s alone, so a fault in the program cannot also hide in its check.

Formulas for a perfect (thin) knot with Delta = sum a_i t^i and level s, for a
spin-c level k (only |k| matters):

  h_k                  = max(ceil((s - |k|) / 2), 0)
  n_k                  = max(ceil((|s| - |k|) / 2), 0)
  chi tail             = sum_{i > |k|} (i - |k|) a_i
  reduced rank         = |chi tail - n_k|           (the u-free part)
  large-surgery total  = reduced rank, plus n_k when s < 0 (one u-torsion
                         summand of length n_k; length one counts as free)
  tower bottom         = s - 2 h_k when s >= 0, and s when s < 0
  chi(C_{s_k})         = (-1)^s * chi tail
  rank H_*(C_{s_k})    = reduced rank + n_k
"""

from __future__ import annotations

from .published import ALEXANDER


class Checks:
    """Counts the checks made and keeps the first failures."""

    def __init__(self, keep=20):
        self.made = 0
        self.failed = 0
        self.failures = []
        self._keep = keep

    def expect(self, ok, what, *detail):
        self.made += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self._keep:
                self.failures.append(what % detail if detail else what)

    @property
    def ok(self):
        return self.failed == 0


# -- polynomials -----------------------------------------------------------------


def clean(a):
    return {e: c for e, c in a.items() if c}


def poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return clean(out)


def at_one(a):
    return sum(a.values())


def determinant(a):
    """|Delta(-1)|."""
    return abs(sum(c if e % 2 == 0 else -c for e, c in a.items()))


def is_symmetric(a):
    return all(a.get(-e, 0) == c for e, c in a.items())


def degree(a):
    return max(a) if a else 0


def spectrum_sum(spectrum):
    total = {}
    for e, sign in spectrum:
        total[e] = total.get(e, 0) + sign
    return clean(total)


# -- surgery formulas ------------------------------------------------------------


def _half_up(n):
    """max(ceil(n / 2), 0)."""
    return (n + 1) // 2 if n > 0 else 0


def h_value(s, k):
    return _half_up(s - abs(k))


def n_value(s, k):
    return _half_up(abs(s) - abs(k))


def chi_tail(a, k):
    k = abs(k)
    return sum((i - k) * c for i, c in a.items() if i > k)


def reduced_rank(a, s, k):
    return abs(chi_tail(a, k) - n_value(s, k))


def large_surgery(a, s, k):
    """(tower bottom, torsion lengths > 1, reduced total) of a large surgery."""
    n = n_value(s, k)
    total = reduced_rank(a, s, k)
    if s >= 0:
        return s - 2 * h_value(s, k), [], total
    return s, [n] if n > 1 else [], total + n


def c_euler(a, s, k):
    return (-1 if s % 2 else 1) * chi_tail(a, k)


def c_rank(a, s, k):
    return reduced_rank(a, s, k) + n_value(s, k)


def integer_surgery(a, s, m, k):
    """(h, d shift, reduced total) of m-surgery in spin-c level k, m != 0.

    Negative m is the mirror's |m|-surgery in level -k.  The reduced total is
    the sum of rank H_*(C_{s_i}) over i = k mod m, less the h of the level of
    least |i|; C_{s_i} vanishes once |i| exceeds both deg Delta and |s|.
    """
    if m < 0:
        m, k = -m, -k
    reach = max(degree(a), abs(s)) + m + abs(k) + 1
    levels = [i for i in range(-reach, reach + 1) if (i - k) % m == 0]
    k0 = min(levels, key=lambda i: (abs(i), i))
    h = h_value(s, k0)
    return h, -2 * h, sum(c_rank(a, s, i) for i in levels) - h


# -- checks ----------------------------------------------------------------------


def check_alexander(checks, name, fox, seifert, det):
    """Two routes agree, Delta(1) = 1, symmetry, |Delta(-1)| = Goeritz det,
    and the published table where it has the knot."""
    checks.expect(fox == seifert, "%s: Fox %s != Seifert %s", name, fox, seifert)
    checks.expect(at_one(fox) == 1, "%s: Delta(1) = %d", name, at_one(fox))
    checks.expect(is_symmetric(fox), "%s: Delta %s is not symmetric", name, fox)
    checks.expect(
        determinant(fox) == det,
        "%s: |Delta(-1)| = %d but Goeritz determinant %d", name, determinant(fox), det,
    )
    if name in ALEXANDER:
        pub, pub_det = ALEXANDER[name]
        checks.expect(fox == pub, "%s: Delta %s != published %s", name, fox, pub)
        checks.expect(det == pub_det, "%s: det %d != published %d", name, det, pub_det)


def check_spectrum(checks, name, spectrum, delta, fox):
    checks.expect(delta == fox, "%s: spectrum Delta %s != Fox %s", name, delta, fox)
    total = spectrum_sum(spectrum)
    checks.expect(total == fox, "%s: signed spectrum sums to %s, not %s", name, total, fox)


def check_ranks(checks, name, ranks, fox):
    want = {e: abs(c) for e, c in fox.items()}
    checks.expect(ranks == want, "%s: reduced ranks %s != |a_j| %s", name, ranks, want)
    checks.expect(
        all(ranks.get(-j) == r for j, r in ranks.items()),
        "%s: reduced ranks %s are not symmetric", name, ranks,
    )


def check_h(checks, label, s, k, h):
    want = h_value(s, k)
    checks.expect(h == want, "%s: h_%d = %s, formula %d (s=%d)", label, k, h, want, s)


def check_h_laws(checks, label, hs, deg):
    """hs: {k: h_k} for the levels asked.  h_{-k} = h_k,
    h_k - 1 <= h_{k+1} <= h_k for k >= 0, and h_k = 0 for |k| >= deg."""
    for k, h in hs.items():
        if -k in hs:
            checks.expect(hs[-k] == h, "%s: h_%d = %d but h_%d = %d", label, k, h, -k, hs[-k])
        if abs(k) >= deg:
            checks.expect(h == 0, "%s: h_%d = %d beyond deg %d", label, k, h, deg)
        for nxt in (abs(k) + 1, -abs(k) - 1):
            if nxt in hs:
                checks.expect(
                    h - 1 <= hs[nxt] <= h,
                    "%s: h_%d = %d, h_%d = %d break h_k - 1 <= h_k+1 <= h_k",
                    label, k, h, nxt, hs[nxt],
                )


def check_large(checks, label, a, s, k, tower_bottom, torsion, total):
    """torsion: the lengths of the u-torsion summands longer than one."""
    want = large_surgery(a, s, k)
    got = (tower_bottom, sorted(torsion), total)
    checks.expect(got == want, "%s: large surgery k=%d gives %s, formula %s", label, k, got, want)


def check_integer(checks, label, a, s, m, k, h, d_shift, total):
    want = integer_surgery(a, s, m, k)
    got = (h, d_shift, total)
    checks.expect(got == want, "%s: %d-surgery k=%d gives %s, formula %s", label, m, k, got, want)


def check_zero(checks, label, a, s, k, betti):
    """betti: {grading: rank} of H_*(C_{s_|k|})."""
    chi = sum(r if g % 2 == 0 else -r for g, r in betti.items())
    checks.expect(chi == c_euler(a, s, k), "%s: chi(C_%d) = %d, formula %d", label, k, chi, c_euler(a, s, k))
    total = sum(betti.values())
    checks.expect(total == c_rank(a, s, k), "%s: rank H(C_%d) = %d, formula %d", label, k, total, c_rank(a, s, k))


def check_sum_ranks(checks, label, counts, a):
    """Generator counts per Alexander level of the reduced hat complex of a
    connected sum against |coefficients| of the product Delta."""
    want = {e: abs(c) for e, c in a.items()}
    checks.expect(counts == want, "%s: reduced hat ranks %s != |coeffs| %s", label, counts, want)
