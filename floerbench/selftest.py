"""Tests of the benchmark's own checks: each must accept the program's real
answers and reject a wrong one (a perturbed Delta, an h off by one, a dropped
generator, a Q answer that differs from F2).

    python3 floerbench/selftest.py

Prints one line per case and exits non-zero if any check accepted a wrong
answer or rejected a right one.  Takes a few seconds.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
    p for p in sys.path if os.path.abspath(p or ".") != HERE
]

from knotfloer import fox, surgery, table  # noqa: E402

from floerbench import oracle, workloads  # noqa: E402

FAILURES = []


def case(name, accept, check):
    """Run check(checks) on fresh Checks; it must pass iff accept."""
    checks = oracle.Checks()
    check(checks)
    ok = checks.ok == accept
    print("%s  %-58s %s" % ("PASS" if ok else "FAIL", name, "accepted" if checks.ok else "rejected"))
    if not ok:
        FAILURES.append(name)


def bumped(d, key, by=1):
    out = dict(d)
    out[key] = out.get(key, 0) + by
    return oracle.clean(out)


def test_alexander():
    d = table.lookup("5_2")
    a = fox.alexander(d).coeffs()
    case("5_2 Alexander, two routes and published table", True, lambda c: oracle.check_alexander(c, "5_2", a, a, 7))
    wrong = bumped(bumped(a, 1), -1)  # still symmetric
    case("perturbed Delta (both routes agree, table differs)", False, lambda c: oracle.check_alexander(c, "5_2", wrong, wrong, 7))
    case("Seifert route off by one coefficient", False, lambda c: oracle.check_alexander(c, "5_2", a, bumped(a, 0), 7))
    case("determinant off by two", False, lambda c: oracle.check_alexander(c, "5_2", a, a, 9))
    spec, delta = fox.generator_spectrum(fox.wirtinger(d))
    case("5_2 spectrum sums to Delta", True, lambda c: oracle.check_spectrum(c, "5_2", spec, delta.coeffs(), a))
    case("spectrum with a dropped generator", False, lambda c: oracle.check_spectrum(c, "5_2", spec[1:], delta.coeffs(), a))
    ranks = {e: abs(x) for e, x in a.items()}
    case("5_2 reduced ranks", True, lambda c: oracle.check_ranks(c, "5_2", ranks, a))
    case("reduced ranks with a dropped generator", False, lambda c: oracle.check_ranks(c, "5_2", bumped(ranks, 1, -1), a))


def test_surgery_formulas():
    inp = surgery.input_from_alternating(table.lookup("7_1"))  # s = 3
    a = inp.delta.coeffs()
    h0 = surgery.h_invariant(inp, 0)
    case("7_1 h_0", True, lambda c: oracle.check_h(c, "7_1", inp.s, 0, h0))
    case("h_0 off by one", False, lambda c: oracle.check_h(c, "7_1", inp.s, 0, h0 + 1))
    case("h laws on h_0, h_1, h_-1", True, lambda c: oracle.check_h_laws(c, "7_1", {0: 2, 1: 1, -1: 1}, 3))
    case("h_1 two below h_0", False, lambda c: oracle.check_h_laws(c, "7_1", {0: 2, 1: 0}, 3))
    case("h_-1 != h_1", False, lambda c: oracle.check_h_laws(c, "7_1", {1: 1, -1: 0}, 3))
    case("h_3 nonzero at deg Delta", False, lambda c: oracle.check_h_laws(c, "7_1", {3: 1}, 3))
    big = workloads.large_tuple(surgery.big_surgery_homology(inp, 0))
    case("7_1 large surgery k=0", True, lambda c: oracle.check_large(c, "7_1", a, inp.s, 0, *big))
    case("large surgery with a dropped generator", False, lambda c: oracle.check_large(c, "7_1", a, inp.s, 0, big[0], big[1], big[2] - 1))
    mirror = workloads.mirror_input(inp)
    tb, torsion, total = workloads.large_tuple(surgery.big_surgery_homology(mirror, 0))
    case("7_1* large surgery carries u-torsion", True, lambda c: oracle.check_large(c, "7_1*", a, mirror.s, 0, tb, torsion, total))
    case("u-torsion read as free", False, lambda c: oracle.check_large(c, "7_1*", a, mirror.s, 0, tb, [], total))
    ans = surgery.integer_surgery(inp, 2, 1)
    case("7_1 2-surgery k=1", True, lambda c: oracle.check_integer(c, "7_1", a, inp.s, 2, 1, ans.h, ans.d_shift, ans.reduced_total))
    case("integral surgery with h off by one", False, lambda c: oracle.check_integer(c, "7_1", a, inp.s, 2, 1, ans.h + 1, ans.d_shift - 2, ans.reduced_total))
    betti = surgery.zero_surgery_betti(inp, 0)["betti"]
    case("7_1 zero-surgery Betti numbers", True, lambda c: oracle.check_zero(c, "7_1", a, inp.s, 0, betti))
    top = max(betti)
    case("zero surgery with a dropped generator", False, lambda c: oracle.check_zero(c, "7_1", a, inp.s, 0, bumped(betti, top, -1)))


def test_connected_sum():
    t = surgery.input_from_alternating(table.lookup("3_1"))
    f = surgery.input_from_alternating(table.lookup("5_2"))
    s = surgery.input_from_tensor(t, f)
    a = oracle.poly_mul(t.delta.coeffs(), f.delta.coeffs())
    counts = workloads.level_counts(s.cfr.reduce())
    case("3_1#5_2 reduced hat ranks", True, lambda c: oracle.check_sum_ranks(c, "3_1#5_2", counts, a))
    case("hat complex with a dropped generator", False, lambda c: oracle.check_sum_ranks(c, "3_1#5_2", bumped(counts, 0, -1), a))
    case("Delta product perturbed", False, lambda c: oracle.check_sum_ranks(c, "3_1#5_2", counts, bumped(a, 0, 2)))


def answers_of(wl):
    return [fn(*args) for _, fn, args, _ in wl.ops]


def test_workload_checks():
    """Run small workloads through their checks, then tamper with answers."""
    wl = workloads.Surgery(7)
    wl.build(["3_1", "4_1", "5_2"])
    answers = answers_of(wl)

    def verify(answers):
        return lambda c: (wl.check_inputs(c), wl.check_round(answers, c))

    def tampered(pick, change):
        out = list(answers)
        i = next(i for i, (op, ans) in enumerate(zip(wl.ops, out)) if pick(op, ans))
        out[i] = change(out[i])
        return out

    case("small surgery workload, untouched", True, verify(answers))
    is_h = lambda op, ans: op[0] == "h" and op[3][1] == "F2"  # noqa: E731
    case("an F2 h answer off by one", False, verify(tampered(is_h, lambda h: h + 1)))
    # shifting every grading by two keeps chi and the total rank, so only
    # the comparison with the F2 answer can notice
    is_q = lambda op, ans: op[0] == "zero" and op[3][1] == "Q" and ans["betti"]  # noqa: E731
    shifted = lambda z: dict(z, betti={g + 2: r for g, r in z["betti"].items()})  # noqa: E731
    case("a Q answer that differs from F2", False, verify(tampered(is_q, shifted)))

    cen = workloads.Census(7)
    cen.build(["3_1", "4_1", "6_2"])
    answers = answers_of(cen)
    case("small census, untouched", True, lambda c: cen.check_round(answers, c))
    wrong = [tuple([fox.alexander(table.lookup("5_2"))] + list(ans[1:])) for ans in answers]
    case("census with the wrong Fox Delta", False, lambda c: cen.check_round(wrong, c))
    cen.not_small = ["6_2"]
    case("census expecting a knot to be not small", False, lambda c: cen.check_round(answers, c))

    cs = workloads.ConnectedSum(7)
    cs.build([(("3_1",), 1, ("4_1",), 1, 2), (("3_1",), -1, ("5_2",), 1, 2)])
    answers = answers_of(cs)
    case("small connected-sum workload, untouched", True, lambda c: (cs.check_inputs(c), cs.check_round(answers, c)))
    label = next(iter(cs.products))
    cs.products[label] = bumped(cs.products[label], 0, 2)
    case("connected sum checked against a perturbed Delta product", False, lambda c: cs.check_inputs(c))


def main():
    test_alexander()
    test_surgery_formulas()
    test_connected_sum()
    test_workload_checks()
    if FAILURES:
        print("%d case(s) failed: %s" % (len(FAILURES), ", ".join(FAILURES)))
        return 1
    print("all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
