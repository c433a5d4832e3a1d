"""Command-line front end.

Every subcommand writes a single JSON document to stdout.  Exit codes:
0 success, 1 domain error (needs the field or a profile; a JSON error
object), 2 usage error (a malformed or missing flag; "" is an empty list).
`table1` regenerates the Table-1 golden files, one `table1_q{q}.json` per
field order, and prints their paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from math import comb

from .codes import (
    DEFAULT_SCAN_BUDGET,
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
from .enumeration import (
    ENUM_BUDGET,
    FIELD_ORDERS,
    EnumTask,
    _field,
    count_mds_double_twisted,
    regenerate_order,
    search_mds,
)
from .field import Field, FieldSpec
from .hull import construct_even, construct_odd, hull_report
from .profiles import load_profile, matrix_to_doc, profile_to_doc


def _items(text: str) -> tuple[str, ...]:
    """Comma-separated items; "" is no items."""
    return tuple(text.split(",")) if text else ()


def _ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers; anything else is a usage error."""
    try:
        return tuple(map(int, _items(text)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_ELEMENTS = "comma-separated polynomials in a with coefficients below p, e.g. 1,a,a^2+1"


def _field_from_args(args) -> Field:
    if args.q is None:
        raise ValueError("give --q (optionally --modulus)")
    return Field.of_order(args.q, args.modulus or None)


def _code_from_args(args) -> MultiTwistedCode:
    if args.profile:
        return load_profile(args.profile)
    ctx = _field_from_args(args)
    if args.alpha is None or args.k is None:
        raise ValueError("without --profile, --alpha and --k are required")
    profile = TwistProfile(args.k, args.t, args.h, ctx.parse_vector(args.eta))
    return MultiTwistedCode(ctx, profile, ctx.parse_vector(args.alpha))


def _add_field_flags(p, required=False):
    p.add_argument("--q", type=int, required=required, help="field order (default modulus unless --modulus is given)")
    p.add_argument("--modulus", type=_ints, help="modulus coefficients c0,c1,...,cm (low to high)")


def _add_twist_flags(p, required):
    p.add_argument("--k", type=int, required=required)
    p.add_argument("--t", type=_ints, default=(), required=required, help="comma-separated twists")
    p.add_argument("--h", type=_ints, default=(), required=required, help="comma-separated hooks")
    p.add_argument("--eta", type=_items, default=(), required=required, help=f"twist coefficients: {_ELEMENTS}")


def _add_code_flags(p):
    p.add_argument("--profile", help="code profile JSON file")
    _add_field_flags(p)
    p.add_argument("--alpha", type=_items, help=f"evaluation points: {_ELEMENTS}")
    _add_twist_flags(p, required=False)


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
        else:  # remark44 | theorem42: argparse lets no other method through
            if not special:
                raise ValueError(f"{method} applies only to t=(1,2), h=(0,1)")
            eta1, eta2 = pr.eta
            fn = remark44_is_mds if method == "remark44" else theorem42_is_mds
            v = fn(ctx, code.alpha, pr.k, eta1, eta2)
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
    code = args.construct(ctx, args.k, args.t, args.h, ctx.parse_vector(args.eta))
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
        ctx, args.chain, ctx.parse_vector(args.alpha), args.k, args.t, args.h, ctx.parse_vector(args.eta)
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
        ctx = _field(args.q)  # built by the count
        doc["per_set"] = {
            ",".join(ctx.format(x) for x in key): val for key, val in res.per_set.items()
        }
    return doc


def _orders(text: str) -> tuple[int, ...]:
    """Comma-separated field orders: prime powers whose cheapest cell,
    n = q and k = 2, fits ENUM_BUDGET (orders 2 and 3 have no cell)."""
    orders = _ints(text)
    try:
        if not orders:
            raise ValueError("give at least one field order")
        for q in orders:
            FieldSpec.of_order(q)
            if q >= 4 and EnumTask(q, q, 2).cost > ENUM_BUDGET:
                raise ValueError(
                    f"GF({q}) has no cell within ENUM_BUDGET = {ENUM_BUDGET}: "
                    f"the cheapest, n = {q}, k = 2, costs {EnumTask(q, q, 2).cost}"
                )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return orders


def _cmd_table1(args) -> dict:
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for q in args.orders:
        started = time.perf_counter()
        doc = regenerate_order(q)
        doc["elapsed"] = round(time.perf_counter() - started, 3)
        path = os.path.join(args.out, f"table1_q{q}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return {"paths": paths}


def _cmd_search(args) -> dict:
    if args.limit < 0:
        raise ValueError("--limit must be >= 0")
    ctx = _field_from_args(args)
    alpha = ctx.parse_vector(args.alpha) if args.alpha else None
    if not args.limit and args.strategy == "exhaustive" and args.n >= 0:  # the search refuses n < 0
        pairs = (comb(ctx.q, args.n) if alpha is None else 1) * (ctx.q - 1) ** len(args.t)
        if pairs > DEFAULT_SCAN_BUDGET:
            raise BudgetExceededError(f"{pairs} (alpha, eta) pairs exceed the scan budget {DEFAULT_SCAN_BUDGET}")
    hits = []
    stream = search_mds(
        ctx, args.n, args.k, args.t, args.h, strategy=args.strategy, alpha=alpha, seed=args.seed, trials=args.trials
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
    # no prefix matching: a removed flag such as --p is a usage error, not --profile
    sub = ap.add_subparsers(
        dest="command",
        required=True,
        parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], allow_abbrev=False, **kw),
    )

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
    p.add_argument("--budget", type=int, default=DEFAULT_SCAN_BUDGET)
    p.set_defaults(fn=_cmd_min_distance)

    p = sub.add_parser("hull", help="Gram rank and hull dimension")
    _add_code_flags(p)
    p.set_defaults(fn=_cmd_hull)

    for name, construct in (("construct-even", construct_even), ("construct-odd", construct_odd)):
        p = sub.add_parser(name, help=f"build the {name.split('-')[1]}-q small-hull family")
        _add_field_flags(p, required=True)
        _add_twist_flags(p, required=True)
        p.set_defaults(fn=_cmd_construct, construct=construct)

    p = sub.add_parser("subfield-construct", help="guaranteed-MDS subfield-chain code")
    _add_field_flags(p, required=True)
    p.add_argument("--chain", type=_ints, required=True, help="subfield orders q0,q1,...,q")
    p.add_argument("--alpha", type=_items, required=True, help=f"evaluation points: {_ELEMENTS}")
    _add_twist_flags(p, required=True)
    p.set_defaults(fn=_cmd_subfield_construct)

    p = sub.add_parser("enumerate", help="count MDS double-twisted codes")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--criterion", default="remark44", choices=["remark44", "bruteforce"])
    p.add_argument("--histogram", action="store_true", help="include per-evaluation-set counts")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("table1", help="regenerate the Table-1 golden files")
    p.add_argument("--out", default="goldens/table1", help="directory for the table1_q{q}.json files")
    p.add_argument("--orders", type=_orders, default=FIELD_ORDERS, help="comma-separated field orders")
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("search", help="stream MDS (alpha, eta) parameters")
    _add_field_flags(p, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=_ints, default="1,2", help="comma-separated twists (\"\" for none)")
    p.add_argument("--h", type=_ints, default="0,1", help="comma-separated hooks (\"\" for none)")
    p.add_argument("--alpha", type=_items, help=f"fix the evaluation vector: {_ELEMENTS}")
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
    except (ValueError, ZeroDivisionError, BudgetExceededError, OSError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, indent=None if args.json else 2))
        return 1
    print(json.dumps(doc, indent=None if args.json else 2))
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
