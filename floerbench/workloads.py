"""The workloads: inputs drawn from the seed, the operations of one round,
and the check of every answer against floerbench.oracle.

Each workload builds a fixed list of operations in `setup`; a run repeats
that list whole, so every run of a workload does the same work whatever its
seed; the seed only draws which levels are asked, which equal-shape knots
stand in a connected sum, and the order of the operations.  Operations are
(kind, callable, args, key) tuples.  `check_round` receives the answers of one
round in operation order (None where an operation raised); `check_inputs`
checks what setup built.
"""

from __future__ import annotations

import random

from knotfloer import altgen, fox, seifert, signature, surgery, table

from . import oracle


def level_counts(cfr):
    """Generators per Alexander level of a filtered complex."""
    out = {}
    for g in cfr.generators:
        out[g.A] = out.get(g.A, 0) + 1
    return out


def mirror_input(inp):
    """The mirror's input: the same reduced ranks at level -s."""
    return surgery.perfect_input(level_counts(inp.cfr), -inp.s, inp.delta)


def large_tuple(desc):
    return desc.tower_bottom, sorted(n for n, _ in desc.torsion), desc.reduced_total()


def plain(answer):
    """An answer as plain data, for comparing F2 with Q."""
    if isinstance(answer, surgery.HomologyDescription):
        return ("desc", answer.to_json_obj())
    if isinstance(answer, surgery.SurgeryAnswer):
        return ("surgery", answer.to_json_obj())
    return answer


def check_query(checks, label, a, s, kind, params, answer):
    """Check one surgery answer (kind h, big, closed, zero or int) against
    the formulas for (Delta = a, s)."""
    if kind == "h":
        oracle.check_h(checks, label, s, params[0], answer)
    elif kind in ("big", "closed"):
        oracle.check_large(checks, label, a, s, params[0], *large_tuple(answer))
    elif kind == "zero":
        k = params[0]
        checks.expect(
            answer["k"] == k and answer["twisted"] == (k == 0),
            "%s: zero-surgery labels %s for k=%d", label, answer, k,
        )
        oracle.check_zero(checks, label, a, s, k, answer["betti"])
    else:
        m, k = params
        oracle.check_integer(checks, label, a, s, m, k, answer.h, answer.d_shift, answer.reduced_total)
        if answer.description is not None:
            desc = answer.description
            checks.expect(
                desc.reduced_total() == answer.reduced_total,
                "%s: %d-surgery total %d != large-surgery total %d",
                label, m, answer.reduced_total, desc.reduced_total(),
            )
            oracle.check_large(checks, label, a, s, k, *large_tuple(desc))


# looked up at call time, so that a traced run calls the wrapped functions
SURGERY_CALLS = {
    "h": lambda inp, k: surgery.h_invariant(inp, k),
    "big": lambda inp, k: surgery.big_surgery_homology(inp, k, structure=True),
    "int": lambda inp, m, k: surgery.integer_surgery(inp, m, k),
    "zero": lambda inp, k: surgery.zero_surgery_betti(inp, k),
    "closed": lambda inp, k: surgery.perfect_closed_form(inp.delta, inp.s, k),
}


def query_op(label, field, inp, kind, params):
    return (kind, SURGERY_CALLS[kind], (inp,) + tuple(params), (label, field, kind, tuple(params)))


# -- census ----------------------------------------------------------------------


def census_knot(d):
    """Every census invariant of one diagram."""
    fox_delta = fox.alexander(d)
    seifert_delta = seifert.alexander_via_seifert(d)
    sig = signature.signature(d)
    det = signature.determinant(d)
    spectrum, spectrum_delta = fox.generator_spectrum(fox.wirtinger(d))
    cert = ranks = None
    if d.is_alternating():
        cert = altgen.certify_small(d)
        if cert.verdict:
            ranks = altgen.reduced_ranks(d, cert)
    return fox_delta, seifert_delta, sig, det, spectrum, spectrum_delta, cert, ranks


class Census:
    """Every table knot through both Alexander routes, signature and
    determinant, the generator spectrum, and for alternating knots the
    smallness certificate and reduced ranks.  One operation is one knot.

    The input is the whole table in table order, so the seed changes
    nothing: with the order drawn from the seed, peak memory moved by 4%
    between seeds.
    """

    name = "census"
    tail_percentile = 86
    NOT_SMALL = ("10_123",)  # the one alternating table knot that is not small

    def __init__(self, seed):
        pass

    def setup(self):
        self.build(table.names())

    def build(self, names):
        names = list(names)
        self.not_small = [n for n in names if n in self.NOT_SMALL]
        self.alternating = {n: table.entry(n)["alternating"] for n in names}
        self.ops = [("knot", census_knot, (table.lookup(n),), n) for n in names]

    def check_inputs(self, checks):
        pass

    def check_round(self, answers, checks):
        not_small = []
        for (_, _, _, name), ans in zip(self.ops, answers):
            if ans is None:
                continue
            fox_delta, seifert_delta, sig, det, spectrum, spectrum_delta, cert, ranks = ans
            a = fox_delta.coeffs()
            oracle.check_alexander(checks, name, a, seifert_delta.coeffs(), det)
            oracle.check_spectrum(checks, name, spectrum, spectrum_delta.coeffs(), a)
            checks.expect(sig % 2 == 0, "%s: odd signature %d", name, sig)
            checks.expect(
                (cert is not None) == self.alternating[name],
                "%s: diagram alternation disagrees with the table", name,
            )
            if cert is None:
                continue
            if cert.verdict:
                oracle.check_ranks(checks, name, ranks, a)
            else:
                not_small.append(name)
                checks.expect(
                    cert.witness is not None and cert.witness[1] in cert.witness[0].marked_components,
                    "%s: not small without a witness component", name,
                )
        if None not in answers:
            checks.expect(
                sorted(not_small) == sorted(self.not_small),
                "not small: %s, want %s", not_small, self.not_small,
            )


# -- surgery ---------------------------------------------------------------------


class Surgery:
    """Small queries on the small alternating knots and their mirrors.

    Every input gets two h-invariants (k, -k on even inputs; k, k+1 on odd
    ones), a zero-surgery Betti query, and one of a large surgery with its
    u-structure, a positive or a negative integral surgery, an integral
    surgery with m past the large-surgery range, or the closed form, by the
    input's position.  The knots of Q_KNOTS repeat their queries over Q.
    One operation is one query.
    """

    name = "surgery"
    tail_percentile = 99
    Q_KNOTS = ("3_1", "4_1", "5_2", "6_1", "6_2", "7_2", "7_4", "8_1")

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def _queries(self, j, inp):
        rng = self.rng
        g = inp.delta.max_exp
        k0 = rng.randint(0, g)
        out = [("h", (k0,)), ("h", (-k0,) if j % 2 == 0 else (k0 + 1,)), ("zero", (rng.randint(-g, g),))]
        kind = j % 5
        if kind == 0:
            out.append(("big", (rng.randint(0, g),)))
        elif kind in (1, 2):
            m = rng.choice((1, 2, 3))
            out.append(("int", (m if kind == 1 else -m, rng.randint(-1, 1))))
        elif kind == 3:
            k = rng.randint(0, g)
            span = abs(inp.a_max) + abs(inp.a_min) + 1
            out.append(("int", (2 * span + 2 * k + 3, k)))
        else:
            out.append(("closed", (rng.randint(0, g),)))
        return out

    def setup(self):
        self.build(table.alternating_names())

    def build(self, names):
        self.names = list(names)
        self.knots = []  # (name, diagram, input of the diagram)
        self.not_small = []
        self.ops = []
        self.inputs = {}  # (label, field) -> input
        for name in self.names:
            d = table.lookup(name)
            try:
                pos = surgery.input_from_alternating(d)
            except altgen.SmallnessError:
                self.not_small.append(name)
                continue
            self.knots.append((name, d, pos))
            for c, (label, inp) in enumerate(((name, pos), (name + "*", mirror_input(pos)))):
                queries = self._queries(2 * len(self.knots) - 2 + c, inp)
                self.inputs[label, "F2"] = inp
                fields = [("F2", inp)]
                if name in self.Q_KNOTS:
                    q_inp = surgery.perfect_input(level_counts(inp.cfr), inp.s, inp.delta, "Q")
                    self.inputs[label, "Q"] = q_inp
                    fields.append(("Q", q_inp))
                for field, x in fields:
                    for kind, params in queries:
                        self.ops.append(query_op(label, field, x, kind, params))
        self.rng.shuffle(self.ops)

    def check_inputs(self, checks):
        want = [n for n in self.names if n in Census.NOT_SMALL]
        checks.expect(self.not_small == want, "not small: %s, want %s", self.not_small, want)
        for name, d, pos in self.knots:
            a = pos.delta.coeffs()
            sig = signature.signature(d)
            checks.expect(sig == 2 * pos.s, "%s: s = %d but signature %d", name, pos.s, sig)
            mirror_sig = signature.signature(d.mirror())
            checks.expect(mirror_sig == -sig, "%s: mirror signature %d", name, mirror_sig)
            oracle.check_ranks(checks, name, level_counts(pos.cfr), a)

    def check_round(self, answers, checks):
        by_key = {}
        hs = {}
        for (kind, _, _, key), ans in zip(self.ops, answers):
            if ans is None:
                continue
            label, field, _, params = key
            inp = self.inputs[label, field]
            check_query(checks, "%s/%s" % (label, field), inp.delta.coeffs(), inp.s, kind, params, ans)
            by_key[key] = plain(ans)
            if kind == "h":
                hs.setdefault((label, field), {})[params[0]] = ans
        for (label, field), h in hs.items():
            oracle.check_h_laws(checks, "%s/%s" % (label, field), h, self.inputs[label, field].delta.max_exp)
        for (label, field, kind, params), ans in by_key.items():
            if field == "Q" and (label, "F2", kind, params) in by_key:
                f2 = by_key[label, "F2", kind, params]
                checks.expect(ans == f2, "%s %s%s: Q gives %s, F2 %s", label, kind, params, ans, f2)


# -- connected sums ----------------------------------------------------------------


class ConnectedSum:
    """A few large queries on tensor products of small alternating knots.

    Each slot is (knots, chirality, knots, chirality, queries).  Where a slot
    lists two knots, they have the same reduced ranks and level, hence the
    same u-model, and the seed draws one.  A slot's queries are pairs of h_k
    and a large surgery with its u-structure in level k, for |k| = 0, 1, 2 in
    turn; the seed draws the sign of k for h.  The levels are not drawn from
    the seed because a query's cost varies up to twofold with |k|, and the
    order of the factors is fixed because swapping it reorders the
    elimination and moves a query's cost by up to 40%: either would make the
    work of a run depend on its seed.  One operation is one query.
    """

    name = "connected_sum"
    tail_percentile = 86
    SLOTS = (
        (("3_1",), 1, ("7_4", "9_2"), 1, 10),  # 45 generators, s = 2
        (("5_2",), 1, ("6_1",), 1, 10),  # 63 generators, s = 1
        (("6_1",), 1, ("6_1",), 1, 8),  # 81 generators, s = 0
        (("5_2",), -1, ("6_2",), -1, 8),  # 77 generators, s = -2
    )

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def setup(self):
        self.build(self.SLOTS)

    def build(self, slots):
        rng = self.rng
        self.factors = {}  # (name, chirality) -> (diagram, input)
        for slot in slots:
            for name in slot[0] + slot[2]:
                if (name, 1) in self.factors:
                    continue
                d = table.lookup(name)
                inp = surgery.input_from_alternating(d)
                self.factors[name, 1] = (d, inp)
                self.factors[name, -1] = (d, mirror_input(inp))
        self.sums = {}  # label -> (factor key, factor key, input)
        self.ops = []
        for names1, chir1, names2, chir2, queries in slots:
            f1, f2 = (rng.choice(names1), chir1), (rng.choice(names2), chir2)
            label = "#".join(n + ("" if c > 0 else "*") for n, c in (f1, f2))
            inp = surgery.input_from_tensor(self.factors[f1][1], self.factors[f2][1])
            self.sums[label] = (f1, f2, inp)
            for i in range(queries):
                k = i // 2 % 3
                if i % 2 == 0:
                    self.ops.append(query_op(label, "F2", inp, "h", (rng.choice((-k, k)),)))
                else:
                    self.ops.append(query_op(label, "F2", inp, "big", (k,)))
        rng.shuffle(self.ops)
        self.products = {
            label: oracle.poly_mul(self.factors[f1][1].delta.coeffs(), self.factors[f2][1].delta.coeffs())
            for label, (f1, f2, _) in self.sums.items()
        }

    def check_inputs(self, checks):
        for label, (f1, f2, inp) in self.sums.items():
            a = self.products[label]
            checks.expect(inp.delta.coeffs() == a, "%s: Delta %s != product %s", label, inp.delta.coeffs(), a)
            checks.expect(
                inp.s == self.factors[f1][1].s + self.factors[f2][1].s,
                "%s: s = %d is not the sum of the factors' levels", label, inp.s,
            )
            diagram = [self.factors[f][0] if f[1] > 0 else self.factors[f][0].mirror() for f in (f1, f2)]
            sig = signature.signature(diagram[0].connected_sum(diagram[1]))
            checks.expect(sig == 2 * inp.s, "%s: s = %d but the summed diagram has signature %d", label, inp.s, sig)
            oracle.check_sum_ranks(checks, label, level_counts(inp.cfr.reduce()), a)

    def check_round(self, answers, checks):
        hs = {}
        for (kind, _, _, (label, _, _, params)), ans in zip(self.ops, answers):
            if ans is None:
                continue
            check_query(checks, label, self.products[label], self.sums[label][2].s, kind, params, ans)
            if kind == "h":
                hs.setdefault(label, {})[params[0]] = ans
        for label, h in hs.items():
            oracle.check_h_laws(checks, label, h, oracle.degree(self.products[label]))


WORKLOADS = {w.name: w for w in (Census, Surgery, ConnectedSum)}
