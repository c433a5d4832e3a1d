"""The three workloads: set-up, operations and output checks.

A workload exposes `import_package` and `build_contexts` (together its
set-up), `build(seed)` (inputs, untimed), `run_op(i, traced)` (one timed
operation, returning its raw output), `summarize(i, raw)` (raw output to a
comparable summary plus any spans a child process recorded, untimed) and
`check(i, summary)` (a list of problems, untimed).  Package modules are only
imported inside `import_package`, so that set-up timing includes the import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from math import comb

from bench_cores import unpinned

SPANS_TAG = "PERFBENCH_SPANS "


class Table1Cells:
    """count_mds_double_twisted, one worker, over a seeded Table-1 sample."""

    name = "table1-cells"
    in_process = True
    # p97.5 falls on the third costliest cell of a pass: ten samples lie
    # beyond it after five passes
    tail_pct = 97.5
    min_passes = 5
    ORDERS = (9, 11, 13, 16, 17)

    def __init__(self, root: str, out_dir: str):
        self.root, self.out_dir = root, out_dir

    def import_package(self):
        import twistedrs.enumeration

        self.enumeration = twistedrs.enumeration

    def build_contexts(self):
        # one single-set count per field order builds the kernel's tables
        for q in self.ORDERS:
            self.enumeration.count_mds_double_twisted(self.enumeration.EnumTask(q, q, q - 2))

    def build(self, seed: int):
        import bench_inputs

        goldens = bench_inputs.load_goldens(os.path.join(self.root, "goldens", "table1"))
        self.cells = bench_inputs.table1_cells(seed, goldens)
        self.n_ops = len(self.cells)
        return self.cells

    def run_op(self, i: int, traced: bool):
        c = self.cells[i]
        enum = self.enumeration
        task = enum.EnumTask(c["q"], c["n"], c["k"], "remark44", 1)
        return enum.count_mds_double_twisted(task).total_count

    def summarize(self, i, raw):
        return raw, None

    def check(self, i, count):
        want = self.cells[i]["count"]
        return [] if count == want else [f"count {count} != golden {want}"]

    def pairs(self, i) -> int:
        c = self.cells[i]
        return comb(c["q"], c["n"]) * (c["q"] - 1) ** 2


class CodeQueries:
    """A seeded in-process stream of single-code analyses."""

    name = "code-queries"
    in_process = True
    # p95 falls on the cheapest of the four hull queries over GF(243) with
    # n = 40, the costliest of a pass: ten samples lie beyond it after four
    # passes
    tail_pct = 95
    min_passes = 4

    def __init__(self, root: str, out_dir: str):
        self.root, self.out_dir = root, out_dir

    def import_package(self):
        import twistedrs.codes
        import twistedrs.criteria
        import twistedrs.enumeration
        import twistedrs.field
        import twistedrs.hull

        self.codes, self.criteria = twistedrs.codes, twistedrs.criteria
        self.enumeration, self.hull = twistedrs.enumeration, twistedrs.hull
        self.Field = twistedrs.field.Field

    def build_contexts(self):
        from bench_inputs import QUERY_FIELDS

        self.fields = {q: self.Field.of_order(q) for q in QUERY_FIELDS}
        f16 = self.fields[16]
        code = self.codes.MultiTwistedCode(
            f16, self.codes.TwistProfile(3, (1, 2), (0, 1), (3, 5)), (0, 1, 2, 4, 8, 9)
        )
        warm = [
            {"kind": "verdict", "q": 16, "code": code, "alpha": code.alpha, "k": 3, "eta": (3, 5),
             "t": (1, 2), "h": (0, 1)},
            {"kind": "distance", "q": 16, "code": code},
            {"kind": "hull", "q": 16, "code": code},
            {"kind": "construct", "q": 16, "layout": "even", "k": 3, "t": (2,), "h": (1,), "eta": (7,)},
            {"kind": "search", "q": 16, "n": 5, "k": 3, "alpha": (0, 1, 2, 4, 8)},
        ]
        for query in warm:
            self._run(query)

    def build(self, seed: int):
        import bench_inputs

        self.queries = bench_inputs.code_queries(seed, self.fields)
        self.n_ops = len(self.queries)
        return bench_inputs.describe_queries(self.queries)

    def _run(self, qr):
        codes, criteria, hull = self.codes, self.criteria, self.hull
        kind, ctx = qr["kind"], self.fields[qr["q"]]
        if kind == "verdict":
            code = qr["code"]
            verdicts = [
                codes.is_mds_bruteforce(codes.LinearCodeView.of_code(code)),
                criteria.theorem31_is_mds(code),
            ]
            if (qr["t"], qr["h"]) == criteria.DOUBLE_TWIST:
                eta1, eta2 = qr["eta"]
                verdicts.append(criteria.remark44_is_mds(ctx, qr["alpha"], qr["k"], eta1, eta2))
                verdicts.append(criteria.theorem42_is_mds(ctx, qr["alpha"], qr["k"], eta1, eta2))
            return tuple((v.method, v.is_mds, v.witness) for v in verdicts)
        if kind == "distance":
            return codes.min_distance_bruteforce(codes.LinearCodeView.of_code(qr["code"]))
        if kind == "hull":
            rep = hull.hull_report(codes.LinearCodeView.of_code(qr["code"]))
            return (rep.code_dim, rep.gram_rank, rep.hull_dim)
        if kind == "construct":
            build = hull.construct_even if qr["layout"] == "even" else hull.construct_odd
            code = build(ctx, qr["k"], qr["t"], qr["h"], qr["eta"])
            rep = hull.hull_report(codes.LinearCodeView.of_code(code))
            return (code.n, code.dim, rep.gram_rank, rep.hull_dim)
        if kind == "search":
            hits = self.enumeration.search_mds(ctx, qr["n"], qr["k"], alpha=qr["alpha"])
            return tuple((h.eta, h.method) for h in hits)
        raise ValueError(f"unknown query kind {kind!r}")

    def run_op(self, i: int, traced: bool):
        return self._run(self.queries[i])

    def summarize(self, i, raw):
        return raw, None

    def check(self, i, out):
        qr = self.queries[i]
        kind, ctx, crit = qr["kind"], self.fields[qr["q"]], self.criteria
        if kind == "verdict":
            answers = {is_mds for _, is_mds, _ in out}
            if len(answers) != 1:
                return [f"oracles disagree: {out}"]
            if qr["class"] == "mds" and answers != {True}:
                return [f"code drawn as MDS ({qr['layout']}) reported not MDS"]
            if qr["class"] == "random" and answers != {False}:
                return [f"code drawn as not MDS ({qr['layout']}) reported MDS"]
            return []
        if kind == "distance":
            code = qr["code"]
            n, k = code.n, code.dim
            mds = crit.theorem31_is_mds(code).is_mds
            if not 2 <= out <= n - k + 1:
                return [f"d = {out} outside [2, n-k+1]"]
            if (out == n - k + 1) != mds:
                return [f"d = {out} but theorem31 says is_mds = {mds}"]
            return []
        if kind == "hull":
            k, gram_rank, hull_dim = out
            n = qr["code"].n
            if not 0 <= hull_dim <= min(k, n - k) or gram_rank + hull_dim != k:
                return [f"hull dimension {hull_dim} (gram rank {gram_rank}) invalid for [{n},{k}]"]
            return []
        if kind == "construct":
            n, dim, gram_rank, hull_dim = out
            want_dim = qr["k"] if qr["layout"] == "even" else qr["k"] - 1
            if n != 2 * qr["k"] or dim != want_dim:
                return [f"construct gave [{n},{dim}], want [{2 * qr['k']},{want_dim}]"]
            if not 1 <= hull_dim <= min(dim, n - dim) or gram_rank + hull_dim != dim:
                return [f"construct hull dimension {hull_dim} outside [1, min(k, n-k)]"]
            return []
        if kind == "search":
            alpha, k = qr["alpha"], qr["k"]
            problems = [f"hit {eta} fails theorem42" for eta, _ in out
                        if not crit.theorem42_is_mds(ctx, alpha, k, *eta).is_mds]
            want = sum(crit.theorem42_is_mds(ctx, alpha, k, e1, e2).is_mds
                       for e1 in range(1, ctx.q) for e2 in range(1, ctx.q))
            if len(out) != want:
                problems.append(f"{len(out)} hits, theorem42 counts {want}")
            return problems
        return [f"unknown query kind {kind!r}"]

    def pairs(self, i) -> int:
        qr = self.queries[i]
        return (qr["q"] - 1) ** 2 if qr["kind"] == "search" else 0


def _strip_timing(doc):
    if isinstance(doc, dict):
        return {k: _strip_timing(v) for k, v in doc.items() if k not in ("seconds", "elapsed")}
    if isinstance(doc, list):
        return [_strip_timing(v) for v in doc]
    return doc


class CliCold:
    """One fresh `python -m twistedrs ...` process per request."""

    name = "cli-cold"
    in_process = False
    # p80 falls on the third costliest command of a rotation of eleven, the
    # 6561 or 4096 construct: ten samples lie beyond it after five rotations.
    # Six rotations give each command's best time six tries.
    tail_pct = 80
    min_passes = 6

    def __init__(self, root: str, out_dir: str):
        self.root, self.out_dir = root, out_dir
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.shim = os.path.join(root, "perfbench", "bench_cli_shim.py")

    def import_package(self):
        import twistedrs.field

        self.Field = twistedrs.field.Field

    def build_contexts(self):
        self.fields = {q: self.Field.of_order(q) for q in (16, 81)}
        self._call(["enumerate", "--q", "4", "--n", "4", "--k", "2"], traced=False)

    def _call(self, argv, traced: bool):
        head = [sys.executable, self.shim] if traced else [sys.executable, "-m", "twistedrs"]
        proc = subprocess.run(unpinned(head + argv), cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def build(self, seed: int):
        import bench_inputs

        os.makedirs(self.out_dir, exist_ok=True)
        self.goldens = bench_inputs.load_goldens(os.path.join(self.root, "goldens", "table1"))
        self.rotation, profiles = bench_inputs.cli_commands(seed, self.fields, self.goldens, self.out_dir)
        for name, doc in profiles.items():
            with open(os.path.join(self.out_dir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        self.n_ops = len(self.rotation)
        return {"rotation": [[os.path.basename(a) for a in argv] for argv in self.rotation],
                "profiles": profiles}

    def run_op(self, i: int, traced: bool):
        return self._call(self.rotation[i], traced)

    def summarize(self, i, raw):
        """((exit code, stdout document without timing fields), spans or None)."""
        code, out, err = raw
        spans = None
        for line in err.splitlines():
            if line.startswith(SPANS_TAG):
                spans = json.loads(line[len(SPANS_TAG):])
        try:
            doc = _strip_timing(json.loads(out))
        except json.JSONDecodeError:
            doc = {"unparsable stdout": out[-200:], "stderr": err[-400:]}
        return (code, doc), spans

    def expected(self, argv):
        """The document the command must print, from library calls."""
        from twistedrs import codes, criteria, enumeration, hull
        from twistedrs.field import Field
        from twistedrs.profiles import load_profile, matrix_to_doc, profile_to_doc

        opts = dict(zip(argv[1::2], argv[2::2]))
        cmd = argv[0]
        if cmd == "check-mds":
            code = load_profile(opts["--profile"])
            pr = code.profile
            verdicts = [criteria.theorem31_is_mds(code)]
            if (pr.t, pr.h) == criteria.DOUBLE_TWIST:
                verdicts += [f(code.ctx, code.alpha, pr.k, *pr.eta)
                             for f in (criteria.remark44_is_mds, criteria.theorem42_is_mds)]
            docs = [{"method": v.method, "is_mds": v.is_mds,
                     "witness": list(v.witness) if v.witness is not None else None} for v in verdicts]
            return {"n": code.n, "k": pr.k, "verdicts": docs,
                    "agree": len({v.is_mds for v in verdicts}) == 1}
        if cmd == "hull":
            view = codes.LinearCodeView.of_code(load_profile(opts["--profile"]))
            rep = hull.hull_report(view)
            return {"n": view.n, "dim": rep.code_dim, "gram_rank": rep.gram_rank,
                    "hull_dim": rep.hull_dim, "gram": matrix_to_doc(rep.gram),
                    "hull_basis": matrix_to_doc(rep.hull_basis)}
        if cmd == "min-distance":
            view = codes.LinearCodeView.of_code(load_profile(opts["--profile"]))
            d = codes.min_distance_bruteforce(view)
            return {"n": view.n, "k": view.k, "d": d, "mds": d == view.n - view.k + 1}
        if cmd.startswith("construct-"):
            ctx = Field.of_order(int(opts["--q"]))
            build = hull.construct_even if cmd == "construct-even" else hull.construct_odd
            ints = lambda s: tuple(int(x) for x in s.split(","))
            code = build(ctx, int(opts["--k"]), ints(opts["--t"]), ints(opts["--h"]),
                         ctx.parse_vector(opts["--eta"].split(",")))
            view = codes.LinearCodeView.of_code(code)
            rep = hull.hull_report(view)
            doc = profile_to_doc(code)
            doc.update({"n": view.n, "dim": view.k, "gram_rank": rep.gram_rank, "hull_dim": rep.hull_dim})
            return doc
        if cmd == "enumerate":
            q, n, k = int(opts["--q"]), int(opts["--n"]), int(opts["--k"])
            count = next(c["count"] for c in self.goldens[q]["cells"] if (c["n"], c["k"]) == (n, k))
            return {"q": q, "n": n, "k": k, "criterion": "remark44", "workers": 1, "count": count}
        if cmd == "search":
            ctx = Field.of_order(int(opts["--q"]))
            limit = int(opts["--limit"])
            hits = []
            for hit in enumeration.search_mds(ctx, int(opts["--n"]), int(opts["--k"])):
                hits.append({"alpha": [ctx.format(x) for x in hit.alpha],
                             "eta": [ctx.format(e) for e in hit.eta], "method": hit.method})
                if len(hits) >= limit:
                    break
            return {"count": len(hits), "hits": hits}
        raise ValueError(f"no reference for {cmd!r}")

    def check(self, i, summary):
        code, doc = summary
        argv = self.rotation[i]
        if code != 0:
            return [f"{argv[0]} exited {code}: {doc}"]
        want = self.expected(argv)
        problems = [] if doc == want else [f"{argv[0]} output differs from the library"]
        if argv[0].startswith("construct-") and not doc.get("hull_dim", 0) >= 1:
            problems.append(f"{argv[0]} hull dimension {doc.get('hull_dim')} < 1")
        if argv[0] == "search":
            from twistedrs.criteria import theorem42_is_mds
            from twistedrs.field import Field

            ctx = Field.of_order(7)
            for hit in doc["hits"]:
                alpha = ctx.parse_vector(hit["alpha"])
                if not theorem42_is_mds(ctx, alpha, 3, *ctx.parse_vector(hit["eta"])).is_mds:
                    problems.append(f"search hit {hit} fails theorem42")
        return problems

    def pairs(self, i) -> int:
        argv = self.rotation[i]
        if argv[0] != "enumerate":
            return 0
        opts = dict(zip(argv[1::2], argv[2::2]))
        q, n = int(opts["--q"]), int(opts["--n"])
        return comb(q, n) * (q - 1) ** 2


WORKLOADS = {w.name: w for w in (Table1Cells, CodeQueries, CliCold)}
