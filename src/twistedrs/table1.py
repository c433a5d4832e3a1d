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

from .enumeration import ENUM_BUDGET, EnumTask, count_mds_double_twisted
from .field import FieldSpec

FIELD_ORDERS = (4, 5, 7, 8, 9, 11, 13, 16, 17)


def cells_for(q: int, budget: int = ENUM_BUDGET):
    """(in_budget, skipped) lists of (n, k[, cost]) for one field order."""
    in_budget, skipped = [], []
    for n in range(4, q + 1):
        for k in range(2, n - 1):
            task = EnumTask(q, n, k)
            if task.cost <= budget:
                in_budget.append((n, k))
            else:
                skipped.append((n, k, task.cost))
    return in_budget, skipped


def regenerate_order(q: int, budget: int = ENUM_BUDGET) -> dict:
    spec = FieldSpec.of_order(q)
    in_budget, skipped = cells_for(q, budget)
    cells = []
    for n, k in in_budget:
        res = count_mds_double_twisted(EnumTask(q, n, k), budget=budget)
        cells.append({"n": n, "k": k, "count": res.total_count})
    return {
        "q": q,
        "field": {"p": spec.p, "m": spec.m, "modulus": list(spec.modulus)},
        "criterion": "remark44",
        "budget": budget,
        "cells": cells,
        "skipped": [{"n": n, "k": k, "cost": c} for n, k, c in skipped],
    }


def write_goldens(out_dir: str, orders=FIELD_ORDERS, budget: int = ENUM_BUDGET):
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for q in orders:
        started = time.perf_counter()
        doc = regenerate_order(q, budget)
        doc["elapsed"] = round(time.perf_counter() - started, 3)
        path = os.path.join(out_dir, f"table1_q{q}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def load_golden(out_dir: str, q: int) -> dict:
    with open(os.path.join(out_dir, f"table1_q{q}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="regenerate the MDS double-twisted count goldens")
    ap.add_argument("--out", default="goldens/table1")
    ap.add_argument("--orders", default=",".join(str(q) for q in FIELD_ORDERS))
    args = ap.parse_args(argv)
    orders = tuple(int(x) for x in args.orders.split(","))
    for path in write_goldens(args.out, orders):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
