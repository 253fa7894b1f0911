"""Command-line front end.

Subcommands chain the pipeline: diagram -> Alexander/spectrum -> marked
partial resolutions and smallness -> reduced complex -> surgery invariants,
plus Maslov-index queries on cellulation fixtures.  Every subcommand has a
--json mode emitting exactly one JSON document on stdout, and accepts only
the options it reads.  Exit codes: 0 success, 1 domain error (bad input),
2 usage error, 3 program bug: a failed internal consistency check
(ConsistencyError, SurgeryConsistencyError, BraidingError), reported with
the check's message and, for diagram commands, the input PD.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

SCHEMA_VERSION = 1


class CliError(Exception):
    pass


def _load_diagram(args):
    from . import table
    from .diagrams import parse_pd

    if args.knot and args.pd:
        raise CliError("give either --knot or --pd, not both")
    if args.knot:
        args.diagram = table.lookup(args.knot)
    elif args.pd:
        if args.pd == "-":
            text = sys.stdin.read()
        else:
            with open(args.pd) as f:
                text = f.read()
        args.diagram = parse_pd(text)
    else:
        raise CliError("a diagram is required: --knot <name> or --pd <file|->")
    return args.diagram


def _emit(args, payload, plain):
    if args.json:
        payload = {"schema": SCHEMA_VERSION, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


def _trace(args, name, text):
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        with open(os.path.join(args.trace, name), "w") as f:
            f.write(text)


def cmd_alexander(args):
    from .fox import alexander

    d = _load_diagram(args)
    delta = alexander(d)
    _trace(args, "alexander.json", delta.to_json())
    _emit(args, {"alexander": delta.to_json_obj(), "text": delta.to_text()}, delta.to_text())


def cmd_signature(args):
    from .signature import signature

    d = _load_diagram(args)
    s = signature(d)
    _emit(args, {"signature": s}, str(s))


def cmd_spectrum(args):
    from .fox import generator_spectrum, wirtinger

    d = _load_diagram(args)
    p = wirtinger(d)
    _trace(
        args,
        "presentation.json",
        json.dumps({"generators": p.g, "relators": [list(r) for r in p.relators]}),
    )
    spec, delta = generator_spectrum(p)
    spec = sorted(spec)
    _trace(args, "spectrum.json", json.dumps(spec))
    plain = " ".join("%+d*t^%d" % (s, e) for e, s in spec)
    _emit(
        args,
        {"spectrum": [[e, s] for e, s in spec], "alexander": delta.to_json_obj()},
        plain,
    )


def cmd_mprs(args):
    from . import altgen

    d = _load_diagram(args)
    c1 = args.c1 if args.c1 is not None else 0
    ms = altgen.enumerate_mprs(d, c1)
    listing = [
        {
            "assignment": list(m.assignment),
            "exponent": m.alexander_exponent,
            "sign": m.sign,
            "components": [sorted(c) for c in m.marked_components],
        }
        for m in ms
    ]
    _emit(
        args,
        {"c1": c1, "count": len(ms), "mprs": listing},
        "\n".join(
            "%s  t^%d %+d" % (",".join(str(t) for t in m.assignment), m.alexander_exponent, m.sign)
            for m in ms
        ),
    )


def cmd_small(args):
    from . import altgen

    d = _load_diagram(args)
    cert = altgen.certify_small(d)
    payload = {"small": cert.verdict, "c1": cert.c1}
    if not cert.verdict and cert.witness:
        payload["witness_component"] = sorted(cert.witness[1])
    _emit(args, payload, "true" if cert.verdict else "false")


def cmd_cfr(args):
    from . import altgen
    from .surgery import input_from_alternating

    d = _load_diagram(args)
    cert = altgen.certify_small(d)
    if not cert.verdict:
        raise CliError("diagram is not certified small; no reduced complex")
    inp = input_from_alternating(d, args.field, cert)
    ranks = cert.ranks
    _trace(args, "cfr.json", inp.cfr.to_json())
    payload = {
        "ranks": {str(k): v for k, v in sorted(ranks.items())},
        "small": True,
        "c1": cert.c1,
        "s": inp.s,
        "complex": inp.cfr.to_json_obj(),
    }
    plain = "s=%d ranks=%s" % (
        inp.s,
        " ".join("%d:%d" % kv for kv in sorted(ranks.items())),
    )
    _emit(args, payload, plain)


def cmd_surgery(args):
    from .surgery import input_from_alternating, integer_surgery

    d = _load_diagram(args)
    if args.m is None:
        raise CliError("surgery needs --m")
    k = args.k or 0
    if args.m < 0:
        d = d.mirror()
    inp = input_from_alternating(d, args.field)
    ans = integer_surgery(inp, args.m, k)
    obj = ans.to_json_obj()
    _emit(
        args,
        obj,
        "m=%d k=%d h=%d d_shift=%d reduced_rank=%d"
        % (args.m, k, ans.h, ans.d_shift, ans.reduced_total),
    )


def cmd_hk(args):
    from .surgery import h_invariant, input_from_alternating

    d = _load_diagram(args)
    k = args.k or 0
    inp = input_from_alternating(d, args.field)
    h = h_invariant(inp, k)
    _emit(args, {"k": k, "h": h}, str(h))


def cmd_maslov(args):
    from .maslov import DomainChain, HeegaardCellulation, classify_differential, maslov_index

    if not args.cellulation or not args.domain:
        raise CliError("maslov needs --cellulation <file> and --domain <file>")
    cell = HeegaardCellulation.load(args.cellulation)
    with open(args.domain) as f:
        dom = DomainChain.from_json_obj(cell, json.load(f))
    mu = maslov_index(dom)
    verdict = classify_differential(dom)
    _emit(
        args,
        {"maslov": mu, "classification": str(verdict)},
        "mu=%d %s" % (mu, verdict),
    )


def cmd_table(args):
    from . import table

    names = table.names()
    rows = []
    for n in names:
        e = table.entry(n)
        rows.append({"name": n, "alternating": e["alternating"], "crossings": len(e["pd"])})
    _emit(
        args,
        {"knots": rows},
        "\n".join(
            "%-8s %2d crossings%s" % (r["name"], r["crossings"], " alternating" if r["alternating"] else "")
            for r in rows
        ),
    )


_OPTIONS = {
    "knot": {"help": "table lookup by name"},
    "pd": {"help": "PD text from a file or - for stdin"},
    "k": {"type": int, "help": "spin-c level"},
    "m": {"type": int, "help": "surgery coefficient"},
    "c1": {"type": int, "help": "distinguished crossing"},
    "field": {"choices": ["Q", "F2"], "default": "F2"},
    "trace": {"help": "directory for intermediate artifacts"},
    "cellulation": {"help": "cellulation JSON"},
    "domain": {"help": "domain JSON"},
}

# subcommand -> (function, the options it reads besides --json)
_COMMANDS = {
    "alexander": (cmd_alexander, ("knot", "pd", "trace")),
    "signature": (cmd_signature, ("knot", "pd")),
    "spectrum": (cmd_spectrum, ("knot", "pd", "trace")),
    "mprs": (cmd_mprs, ("knot", "pd", "c1")),
    "small": (cmd_small, ("knot", "pd")),
    "cfr": (cmd_cfr, ("knot", "pd", "field", "trace")),
    "surgery": (cmd_surgery, ("knot", "pd", "m", "k", "field")),
    "hk": (cmd_hk, ("knot", "pd", "k", "field")),
    "maslov": (cmd_maslov, ("cellulation", "domain")),
    "table": (cmd_table, ()),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="knotfloer",
        description="Knot invariants from planar diagrams",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, options) in _COMMANDS.items():
        p = sub.add_parser(name)
        for option in options:
            p.add_argument("--" + option, **_OPTIONS[option])
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        args.fn(args)
        return 0
    except CliError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:  # errors from the library
        from .altgen import ConsistencyError
        from .diagrams import serialize_pd
        from .seifert import BraidingError
        from .surgery import SurgeryConsistencyError

        if not isinstance(e, (ConsistencyError, SurgeryConsistencyError, BraidingError)):
            print("error: %s" % e, file=sys.stderr)
            return 1
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        if getattr(args, "diagram", None) is not None:
            print("PD: %s" % serialize_pd(args.diagram), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
