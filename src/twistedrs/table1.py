"""Regeneration of the MDS double-twisted code count table.

The published table exists only as an image, so the counts are recomputed
rather than transcribed: every valid (q, n, k) with q <= 17, k >= 2 and
k + 2 <= n <= q whose cost fits the enumeration budget gets a golden
entry, keyed explicitly by the triple.  Out-of-budget cells are listed
under "skipped" with their cost.

Run as a module:  python -m twistedrs.table1 --out goldens/table1
"""

from __future__ import annotations

import argparse
import json
import os
import time

from . import enumeration
from .enumeration import EnumTask, count_mds_double_twisted
from .field import FieldSpec

FIELD_ORDERS = (4, 5, 7, 8, 9, 11, 13, 16, 17)


def cells_for(q: int):
    """(in_budget, skipped) lists of (n, k[, cost]) for one field order,
    by the enumeration budget the count reads."""
    in_budget, skipped = [], []
    for n in range(4, q + 1):
        for k in range(2, n - 1):
            task = EnumTask(q, n, k)
            if task.cost <= enumeration.ENUM_BUDGET:
                in_budget.append((n, k))
            else:
                skipped.append((n, k, task.cost))
    return in_budget, skipped


def regenerate_order(q: int) -> dict:
    spec = FieldSpec.of_order(q)
    in_budget, skipped = cells_for(q)
    cells = []
    for n, k in in_budget:
        res = count_mds_double_twisted(EnumTask(q, n, k))
        cells.append({"n": n, "k": k, "count": res.total_count})
    return {
        "q": q,
        "field": {"p": spec.p, "m": spec.m, "modulus": list(spec.modulus)},
        "criterion": "remark44",
        "budget": enumeration.ENUM_BUDGET,
        "cells": cells,
        "skipped": [{"n": n, "k": k, "cost": c} for n, k, c in skipped],
    }


def write_goldens(out_dir: str, orders=FIELD_ORDERS):
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for q in orders:
        started = time.perf_counter()
        doc = regenerate_order(q)
        doc["elapsed"] = round(time.perf_counter() - started, 3)
        path = os.path.join(out_dir, f"table1_q{q}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def _orders(text: str) -> tuple[int, ...]:
    """Comma-separated field orders; anything but prime powers is a usage error."""
    try:
        return tuple(FieldSpec.of_order(int(x)).q for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="regenerate the MDS double-twisted count goldens")
    ap.add_argument("--out", default="goldens/table1")
    ap.add_argument("--orders", type=_orders, default=FIELD_ORDERS)
    args = ap.parse_args(argv)
    for path in write_goldens(args.out, args.orders):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
