"""Command-line front end.

Every subcommand writes a single JSON document to stdout.  Exit codes:
0 success, 1 domain error (with a machine-readable error object), 2 usage
error (argparse).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .codes import (
    BudgetExceededError,
    LinearCodeView,
    MultiTwistedCode,
    TwistProfile,
    is_mds_bruteforce,
    min_distance_bruteforce,
)
from .criteria import (
    DOUBLE_TWIST,
    remark44_is_mds,
    subfield_chain_construct,
    theorem31_is_mds,
    theorem42_is_mds,
)
from .enumeration import EnumTask, _kernel, count_mds_double_twisted, search_mds
from .field import Field, FieldSpec, default_modulus
from .hull import construct_even, construct_odd, hull_report
from .profiles import load_profile, matrix_to_doc, profile_to_doc


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


def _field_from_args(args) -> Field:
    if args.q is not None:
        mod = _ints(args.modulus) if args.modulus else None
        return Field.of_order(args.q, mod)
    if args.p is None or args.m is None:
        raise ValueError("give either --q or --p/--m (optionally --modulus)")
    mod = _ints(args.modulus) if args.modulus else default_modulus(args.p, args.m)
    return Field(FieldSpec(args.p, args.m, mod))


def _code_from_args(args) -> MultiTwistedCode:
    if args.profile:
        return load_profile(args.profile)
    ctx = _field_from_args(args)
    if args.alpha is None or args.k is None:
        raise ValueError("without --profile, --alpha and --k are required")
    profile = TwistProfile(
        args.k,
        _ints(args.t) if args.t else (),
        _ints(args.h) if args.h else (),
        ctx.parse_vector(args.eta.split(",")) if args.eta else (),
    )
    return MultiTwistedCode(ctx, profile, ctx.parse_vector(args.alpha.split(",")))


def _add_field_flags(p):
    p.add_argument("--q", type=int, help="field order (uses the default modulus)")
    p.add_argument("--p", type=int, help="characteristic")
    p.add_argument("--m", type=int, help="extension degree")
    p.add_argument("--modulus", help="modulus coefficients c0,c1,...,cm (low to high)")


def _add_code_flags(p):
    p.add_argument("--profile", help="code profile JSON file")
    _add_field_flags(p)
    p.add_argument("--alpha", help="comma-separated evaluation points")
    p.add_argument("--k", type=int)
    p.add_argument("--t", help="comma-separated twists")
    p.add_argument("--h", help="comma-separated hooks")
    p.add_argument("--eta", help="comma-separated twist coefficients")


def _verdict_doc(verdict, seconds):
    return {
        "method": verdict.method,
        "is_mds": verdict.is_mds,
        "witness": list(verdict.witness) if verdict.witness is not None else None,
        "seconds": round(seconds, 6),
    }


def _cmd_check_mds(args) -> dict:
    code = _code_from_args(args)
    ctx, pr = code.ctx, code.profile
    special = (pr.t, pr.h) == DOUBLE_TWIST
    if args.method == "all":
        methods = ["theorem31"] + (["remark44", "theorem42"] if special else [])
    else:
        methods = [args.method]
    verdicts = []
    for method in methods:
        start = time.perf_counter()
        if method == "bruteforce":
            v = is_mds_bruteforce(LinearCodeView.of_code(code))
        elif method == "theorem31":
            v = theorem31_is_mds(code)
        elif method in ("remark44", "theorem42"):
            if not special:
                raise ValueError(f"{method} applies only to t=(1,2), h=(0,1)")
            eta1, eta2 = pr.eta
            fn = remark44_is_mds if method == "remark44" else theorem42_is_mds
            v = fn(ctx, code.alpha, pr.k, eta1, eta2)
        else:
            raise ValueError(f"unknown method {method!r}")
        verdicts.append(_verdict_doc(v, time.perf_counter() - start))
    return {
        "n": code.n,
        "k": code.dim,
        "verdicts": verdicts,
        "agree": len({v["is_mds"] for v in verdicts}) == 1,
    }


def _cmd_min_distance(args) -> dict:
    code = _code_from_args(args)
    view = LinearCodeView.of_code(code)
    d = min_distance_bruteforce(view, budget=args.budget)
    return {"n": view.n, "k": view.k, "d": d, "mds": d == view.n - view.k + 1}


def _cmd_hull(args) -> dict:
    code = _code_from_args(args)
    view = LinearCodeView.of_code(code)
    rep = hull_report(view)
    return {
        "n": view.n,
        "dim": rep.code_dim,
        "gram_rank": rep.gram_rank,
        "hull_dim": rep.hull_dim,
        "gram": matrix_to_doc(rep.gram),
        "hull_basis": matrix_to_doc(rep.hull_basis),
    }


def _cmd_construct(args) -> dict:
    ctx = _field_from_args(args)
    code = args.construct(ctx, args.k, _ints(args.t), _ints(args.h), ctx.parse_vector(args.eta.split(",")))
    view = LinearCodeView.of_code(code)
    rep = hull_report(view)
    doc = profile_to_doc(code)
    doc.update(
        {
            "n": view.n,
            "dim": view.k,
            "gram_rank": rep.gram_rank,
            "hull_dim": rep.hull_dim,
        }
    )
    return doc


def _cmd_subfield_construct(args) -> dict:
    ctx = _field_from_args(args)
    code = subfield_chain_construct(
        ctx,
        _ints(args.chain),
        ctx.parse_vector(args.alpha.split(",")),
        args.k,
        _ints(args.t),
        _ints(args.h),
        ctx.parse_vector(args.eta.split(",")),
    )
    doc = profile_to_doc(code)
    start = time.perf_counter()
    v = theorem31_is_mds(code)
    doc.update({"n": code.n, "dim": code.dim, "verdict": _verdict_doc(v, time.perf_counter() - start)})
    return doc


def _cmd_enumerate(args) -> dict:
    task = EnumTask(args.q, args.n, args.k, args.criterion)
    res = count_mds_double_twisted(task, histogram=args.histogram)
    doc = {
        "q": args.q,
        "n": args.n,
        "k": args.k,
        "criterion": res.criterion,
        "workers": 1,  # counts run in one process; the key keeps the document's shape
        "count": res.total_count,
        "elapsed": round(res.elapsed, 6),
    }
    if res.per_set is not None:
        ctx = _kernel(args.q).field  # built by the count
        doc["per_set"] = {
            ",".join(ctx.format(x) for x in key): val for key, val in res.per_set.items()
        }
    return doc


def _cmd_search(args) -> dict:
    if args.limit < 0:
        raise ValueError("--limit must be >= 0")
    ctx = _field_from_args(args)
    alpha = ctx.parse_vector(args.alpha.split(",")) if args.alpha else None
    hits = []
    stream = search_mds(
        ctx,
        args.n,
        args.k,
        _ints(args.t) if args.t else (1, 2),
        _ints(args.h) if args.h else (0, 1),
        strategy=args.strategy,
        alpha=alpha,
        seed=args.seed,
        trials=args.trials,
    )
    for hit in stream:
        hits.append(
            {
                "alpha": [ctx.format(x) for x in hit.alpha],
                "eta": [ctx.format(e) for e in hit.eta],
                "method": hit.method,
            }
        )
        if args.limit and len(hits) >= args.limit:
            break
    return {"count": len(hits), "hits": hits}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twistedrs",
        description="Multi-twisted Reed-Solomon codes: MDS checks, hulls, constructions, enumeration",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="compact single-line JSON output")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("check-mds", help="decide MDS-ness of a code")
    _add_code_flags(p)
    p.add_argument(
        "--method",
        default="all",
        choices=["all", "bruteforce", "theorem31", "remark44", "theorem42"],
    )
    p.set_defaults(fn=_cmd_check_mds)

    p = sub.add_parser("min-distance", help="exact minimum distance by line scan")
    _add_code_flags(p)
    p.add_argument("--budget", type=int, default=10**7)
    p.set_defaults(fn=_cmd_min_distance)

    p = sub.add_parser("hull", help="Gram rank and hull dimension")
    _add_code_flags(p)
    p.set_defaults(fn=_cmd_hull)

    for name, construct in (("construct-even", construct_even), ("construct-odd", construct_odd)):
        p = sub.add_parser(name, help=f"build the {name.split('-')[1]}-q small-hull family")
        _add_field_flags(p)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--t", required=True)
        p.add_argument("--h", required=True)
        p.add_argument("--eta", required=True)
        p.set_defaults(fn=_cmd_construct, construct=construct)

    p = sub.add_parser("subfield-construct", help="guaranteed-MDS subfield-chain code")
    _add_field_flags(p)
    p.add_argument("--chain", required=True, help="subfield orders q0,q1,...,q")
    p.add_argument("--alpha", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--eta", required=True)
    p.set_defaults(fn=_cmd_subfield_construct)

    p = sub.add_parser("enumerate", help="count MDS double-twisted codes")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--criterion", default="remark44", choices=["remark44", "bruteforce"])
    p.add_argument("--histogram", action="store_true", help="include per-evaluation-set counts")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("search", help="stream MDS (alpha, eta) parameters")
    _add_field_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", help="twists, default 1,2")
    p.add_argument("--h", help="hooks, default 0,1")
    p.add_argument("--alpha", help="fix the evaluation vector")
    p.add_argument("--strategy", default="exhaustive", choices=["exhaustive", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--limit", type=int, default=0, help="stop after this many hits (0 = all)")
    p.set_defaults(fn=_cmd_search)

    return ap


def cli_main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.fn(args)
    except (ValueError, ZeroDivisionError, BudgetExceededError, OSError, KeyError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, indent=None if args.json else 2))
        return 1
    print(json.dumps(doc, indent=None if args.json else 2))
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
