#!/usr/bin/env python3
"""Census experiment: smallness of every alternating knot in the table.

    python3 scripts/smallness_census.py [--digest]

Prints, per knot, whether some distinguished crossing certifies every
marked component small, plus the reduced Alexander-graded ranks.  Exits 1
unless 10_123 is the one knot that is not small and every small knot's
ranks are the absolute values |a_j| of its Alexander polynomial.

With --digest it prints instead one SHA-256 per certificate: the
certificate at every c1, then certify_small with reduced_ranks, of every
alternating table knot, its mirror and the pretzels (3,3,3), (3,5,7) and
(5,5,5).  The script reads the knotfloer tree beside it; a copy run from
another checkout prints that tree's digests, so two trees can be compared
with diff.  On a tree whose altgen has no certify_at, the certificate at
each c1 is read off enumerate_mprs and pools, as certify_small did there.
"""

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from knotfloer import altgen, fox, table  # noqa: E402
from knotfloer._constructions import pretzel_knot  # noqa: E402
from knotfloer.laurent import LaurentPolynomial  # noqa: E402

PRETZELS = ((3, 3, 3), (3, 5, 7), (5, 5, 5))


def certificate_from_mprs(d, c1, cache):
    """The certificate at c1 read off every MPR and the pools."""
    mprs = altgen.enumerate_mprs(d, c1)
    checked = set()
    for m in mprs:
        if not m.marked_components or m.marked_components in checked:
            continue
        for comp in m.marked_components:
            if not altgen.component_is_small(d, comp, cache):
                return altgen.SmallnessCertificate(c1=c1, verdict=False, witness=(m, comp))
        checked.add(m.marked_components)
    ranks, delta = {}, {}
    for base, comps, _ in altgen.pools(d, c1, mprs).values():
        if not comps:
            ranks[base.alexander_exponent] = ranks.get(base.alexander_exponent, 0) + 1
    for m in mprs:
        delta[m.alexander_exponent] = delta.get(m.alexander_exponent, 0) + m.sign
    return altgen.SmallnessCertificate(
        c1=c1, verdict=True, ranks=ranks, delta=LaurentPolynomial(delta)
    )


def digest(cert, ranks=None):
    """SHA-256 of a certificate (and reduced ranks) in a canonical JSON form."""
    witness = None
    if cert.witness is not None:
        m, comp = cert.witness
        witness = [
            list(m.assignment), m.alexander_exponent, m.sign,
            [sorted(c) for c in m.marked_components], list(m.base), list(m.resolved),
            sorted(comp),
        ]
    form = [
        cert.c1,
        cert.verdict,
        witness,
        None if cert.ranks is None else sorted(cert.ranks.items()),
        None if cert.delta is None else sorted(cert.delta.coeffs().items()),
        None if ranks is None else sorted(ranks.items()),
    ]
    return hashlib.sha256(json.dumps(form).encode()).hexdigest()


def print_digests(diagrams):
    certify_at = getattr(altgen, "certify_at", None)
    for name, d in diagrams:
        cache = {}
        for c1 in range(d.n):
            if certify_at is None:
                cert = certificate_from_mprs(d, c1, cache)
            else:
                cert = certify_at(d, c1)
            print("%-14s c1=%-2d %s" % (name, c1, digest(cert)))
        cert = altgen.certify_small(d)
        ranks = altgen.reduced_ranks(d, cert) if cert.verdict else None
        print("%-14s certify_small %s" % (name, digest(cert, ranks)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digest", action="store_true", help="print certificate digests")
    args = parser.parse_args(argv)

    t0 = time.time()
    names = table.alternating_names()
    not_small, wrong_ranks = [], []
    for name in names:
        d = table.lookup(name)
        cert = altgen.certify_small(d)
        if cert.verdict:
            ranks = altgen.reduced_ranks(d, cert)
            if ranks != {e: abs(a) for e, a in fox.alexander(d).coeffs().items()}:
                wrong_ranks.append(name)
            line = "%-8s small (c1=%d)  ranks %s" % (
                name, cert.c1, " ".join("%d:%d" % kv for kv in sorted(ranks.items()))
            )
        else:
            not_small.append(name)
            comp = sorted(cert.witness[1]) if cert.witness else None
            line = "%-8s NOT small; witness component edges %s" % (name, comp)
        if not args.digest:
            print(line)
    if args.digest:
        diagrams = []
        for name in names:
            diagrams += [(name, table.lookup(name)), (name + "*", table.lookup(name).mirror())]
        diagrams += [("P" + ",".join(map(str, ps)), pretzel_knot(list(ps))) for ps in PRETZELS]
        print_digests(diagrams)
    else:
        print("\n%d alternating knots, not small: %s  (%.1fs)" % (
            len(names), not_small, time.time() - t0
        ))
    ok = not_small == ["10_123"] and not wrong_ranks
    if not ok:
        print("FAIL: not small %s (want ['10_123']); ranks != |a_j| on %s"
              % (not_small, wrong_ranks), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
