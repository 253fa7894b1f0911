"""Spans around the calls into each knotfloer layer, recorded from outside.

`Tracer.install` replaces the layer entry points listed in ENTRY_POINTS, in
every knotfloer module that holds a reference to them, with wrappers that
record (name, parent span, start, end).  Spans stay in memory; `write` saves
them when the run ends.  The self time of a span is its duration minus the
durations of its direct children (one thread, so children never overlap).
`laurent` is not wrapped: it is a leaf whose time falls inside the self time
of its callers in `fox` and `altgen`.  `maslov` and `cli` are not measured.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

# layer -> entry points; "Class.method" names patch the class attribute.
ENTRY_POINTS = {
    "table": ["lookup", "entry", "names", "alternating_names"],
    "diagrams": ["KnotDiagram.validate", "KnotDiagram.mirror", "KnotDiagram.connected_sum"],
    "fox": ["alexander", "wirtinger", "generator_spectrum"],
    "seifert": ["alexander_via_seifert", "seifert_matrix"],
    "signature": ["signature", "determinant"],
    "altgen": ["enumerate_mprs", "pools", "component_is_small", "certify_small", "reduced_ranks"],
    # _matrix_rank is private, but surgery's elimination imports and calls it
    # directly: without it, that time would count as surgery's own
    "filtered": ["FilteredComplex.homology_ranks", "FilteredComplex.reduce", "_matrix_rank"],
    "surgery": [
        "thin_model",
        "perfect_input",
        "input_from_alternating",
        "input_from_tensor",
        "c_subcomplex",
        "zero_surgery_betti",
        "big_surgery_homology",
        "h_invariant",
        "perfect_closed_form",
        "integer_surgery",
    ],
}

# surgery calls that answer a query; their input's u-model size is counted
QUERIES = (
    "surgery.h_invariant",
    "surgery.big_surgery_homology",
    "surgery.integer_surgery",
    "surgery.zero_surgery_betti",
)

OP_PREFIX = "op."


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = {}
        self.knots = set()  # (root span, diagram) pairs seen by enumerate_mprs
        self.active = False
        self._stack = []

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        idx = len(self.spans)
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _parent_is_op(self):
        parent = self._stack[-1] if self._stack else -1
        return parent >= 0 and self.spans[parent][0].startswith(OP_PREFIX)

    def _count(self, name, args, result):
        if name == "fox.generator_spectrum":
            self.add("fox.spectrum_terms", len(result[0]))
        elif name == "seifert.seifert_matrix":
            self.add("seifert.matrix_dim", len(result))
        elif name == "altgen.enumerate_mprs":
            self.add("altgen.mprs", len(result))
            self.knots.add((self._stack[0] if self._stack else -1, args[0].crossings))
        elif name == "surgery.c_subcomplex":
            self.add("surgery.c_subcomplex_generators", len(result.generators))
        if name in QUERIES and self._parent_is_op():
            model = args[0].model()
            self.add("surgery.queries")
            self.add("surgery.model_generators", len(model.generators))
            self.add("surgery.model_arrows", len(model.arrows))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer.span(name, fn, *args, **kwargs)
            tracer._count(name, args, result)
            return result

        return traced

    # -- installing ------------------------------------------------------------

    def install(self):
        """Wrap every entry point, wherever a knotfloer module refers to it."""
        replaced = {}
        for layer, names in ENTRY_POINTS.items():
            mod = importlib.import_module("knotfloer." + layer)
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = getattr(owner, attr)
                wrapped = self._wrap("%s.%s" % (layer, attr), original)
                setattr(owner, attr, wrapped)
                if not owner_name:
                    replaced[id(original)] = (original, wrapped)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("knotfloer.") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        self.active = True

    # -- reading -----------------------------------------------------------------

    def _tree(self):
        """Per span: the time its direct children cover, and whether it runs
        inside an operation span."""
        child = [0.0] * len(self.spans)
        in_op = [False] * len(self.spans)
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_op[i] = in_op[parent] or self.spans[parent][0].startswith(OP_PREFIX)
        return child, in_op

    def totals(self):
        """name -> [calls, total seconds, self seconds, calls inside ops]."""
        child, in_op = self._tree()
        out = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += in_op[i]
        return out

    def layer_shares(self):
        """Share of the time inside operation spans spent in each layer's own
        code (self time); "bench" is the operation spans' own self time."""
        child, in_op = self._tree()
        shares = {}
        op_time = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            if name.startswith(OP_PREFIX):
                layer = "bench"
                op_time += end - start
            elif in_op[i]:
                layer = name.split(".")[0]
            else:
                continue
            shares[layer] = shares.get(layer, 0.0) + end - start - child[i]
        if not op_time:
            return {}
        return {k: round(v / op_time, 4) for k, v in sorted(shares.items())}

    def write(self, path, extra):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = dict(extra)
        doc["names"] = names
        doc["spans"] = [
            [index[name], parent, round((start - t0) * 1e6), round((end - start) * 1e6)]
            for name, parent, start, end in self.spans
        ]
        doc["counts"] = self.counts
        with gzip.open(path, "wt") as f:
            json.dump(doc, f, separators=(",", ":"))


def layer_metrics(tracer, n_ops):
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0, 0])[0]

    def mean_ms(name, column=1):
        row = totals.get(name)
        return row[column] / row[0] * 1e3 if row and row[0] else 0.0

    def per(key, base):
        return counts.get(key, 0) / base if base else 0.0

    knots = len(tracer.knots)  # a knot is a diagram within one operation or setup
    queries = counts.get("surgery.queries", 0)
    out = {
        "table.lookup_ms": mean_ms("table.lookup"),
        "diagrams.validate_ms": mean_ms("diagrams.validate"),
        "fox.alexander_self_ms": mean_ms("fox.alexander", 2),
        "fox.spectrum_ms": mean_ms("fox.generator_spectrum"),
        "fox.spectrum_terms": per("fox.spectrum_terms", calls("fox.generator_spectrum")),
        "seifert.alexander_ms": mean_ms("seifert.alexander_via_seifert"),
        "seifert.matrix_dim": per("seifert.matrix_dim", calls("seifert.seifert_matrix")),
        "signature.signature_ms": mean_ms("signature.signature"),
        "altgen.certify_ms": mean_ms("altgen.certify_small"),
        "altgen.ranks_ms": mean_ms("altgen.reduced_ranks"),
        "altgen.enumerate_self_ms": mean_ms("altgen.enumerate_mprs", 2),
        "altgen.mprs_enumerated": per("altgen.mprs", knots),
        "altgen.component_checks": calls("altgen.component_is_small") / knots if knots else 0.0,
        "altgen.enumerations_per_knot": calls("altgen.enumerate_mprs") / knots if knots else 0.0,
        "filtered.homology_ranks_ms": mean_ms("filtered.homology_ranks"),
        "filtered.matrix_rank_calls": (
            totals.get("filtered._matrix_rank", [0, 0.0, 0.0, 0])[3] / n_ops if n_ops else 0.0
        ),
        "filtered.homology_ranks_calls": (
            totals.get("filtered.homology_ranks", [0, 0.0, 0.0, 0])[3] / n_ops if n_ops else 0.0
        ),
        "surgery.c_subcomplex_generators": per(
            "surgery.c_subcomplex_generators", calls("surgery.c_subcomplex")
        ),
        "surgery.input_ms": mean_ms("surgery.input_from_alternating"),
        "surgery.tensor_ms": mean_ms("surgery.input_from_tensor"),
        "surgery.h_ms": mean_ms("surgery.h_invariant"),
        "surgery.big_ms": mean_ms("surgery.big_surgery_homology"),
        "surgery.integer_ms": mean_ms("surgery.integer_surgery"),
        "surgery.closed_form_ms": mean_ms("surgery.perfect_closed_form"),
        "surgery.model_generators": per("surgery.model_generators", queries),
        "surgery.model_arrows": per("surgery.model_arrows", queries),
    }
    return out
