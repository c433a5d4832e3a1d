"""Span recorder, layer wrappers and the self-time reducer.

The wrappers live here, not in the package: `install` replaces each public
function at every module boundary where it is looked up at call time.  A
module-level function is replaced in every `twistedrs.*` module that holds
a reference to it (calls go through module globals, so `hull_direct` is
wrapped inside `twistedrs.hull`, where `hull_report` calls it); a method is
replaced on its class.  `Field.add` and `Field.mul` are deliberately not
wrapped: one span per scalar operation would cost more than the operation.

Each span is a list [name, start_ns, end_ns, parent_index, op_id, counts].
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import comb

MODULES = ("field", "linalg", "codes", "criteria", "hull", "enumeration", "profiles", "cli")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, counts=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        if counts is not None:
            span[5] = counts
        while self.stack and self.stack.pop() != idx:
            pass

    def extend(self, spans: list, op) -> None:
        """Append spans recorded in another process, re-based onto this list."""
        base = len(self.spans)
        for name, start, end, parent, _, counts in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, counts])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "counts": counts}) + "\n")


# -- counters computed from a wrapped call's arguments and result -------------


def lex_rank(combo, n: int) -> int:
    """Position of a sorted k-subset of range(n) in itertools.combinations order."""
    k, rank, prev = len(combo), 0, -1
    for i, c in enumerate(combo):
        for j in range(prev + 1, c):
            rank += comb(n - 1 - j, k - 1 - i)
        prev = c
    return rank


def _scanned(verdict, n: int, k: int) -> int:
    if verdict.witness is None:
        return comb(n, k)
    return lex_rank(verdict.witness, n) + 1


def _minors_count(args, kw, v):
    view = args[0]
    return {"subsets": _scanned(v, view.n, view.k)}


def _messages_count(args, kw, d):
    view = args[0]
    # the scan only stops early at d == 1; callers keep deg < n - 1 so d >= 2
    return {"messages": view.ctx.q ** view.k if d > 1 else -1}


def _theorem31_count(args, kw, v):
    code = args[0]
    if code.profile.ell == 0:
        return {"subsets": 0}
    return {"subsets": _scanned(v, code.n, code.profile.k)}


def _remark44_count(args, kw, v):
    alpha, k = args[1], args[2]
    return {"subsets": _scanned(v, len(alpha), k)}


def _theorem42_count(args, kw, v):
    alpha, k = tuple(args[1]), args[2]
    nz = [i for i, x in enumerate(alpha) if x != 0]
    has_zero = len(nz) < len(alpha)
    first = comb(len(nz), k)
    if v.witness is None:
        return {"subsets": first + (comb(len(nz), k - 1) if has_zero else 0)}
    pos = [nz.index(i) for i in v.witness]
    if len(pos) == k:
        return {"subsets": lex_rank(pos, len(nz)) + 1}
    return {"subsets": first + lex_rank(pos, len(nz)) + 1}


def _count_count(args, kw, res):
    task = args[0]
    sets = comb(task.q, task.n)
    return {"sets": sets, "pairs": sets * (task.q - 1) ** 2}


# (span name, module, attribute, counter); attributes of classes are "Class.method"
TARGETS = (
    ("field.construct", "twistedrs.field", "Field.__init__", None),
    ("field.construct", "twistedrs.field", "Field.of_order", None),
    ("linalg.elim", "twistedrs.linalg", "Matrix.rank", None),
    ("linalg.elim", "twistedrs.linalg", "Matrix.det", None),
    ("linalg.elim", "twistedrs.linalg", "Matrix.is_nonsingular", None),
    ("linalg.elim", "twistedrs.linalg", "Matrix.null_space", None),
    ("linalg.elim", "twistedrs.linalg", "Matrix.rref", None),
    ("linalg.elim", "twistedrs.linalg", "Matrix.row_space_basis", None),
    ("linalg.mat_mul", "twistedrs.linalg", "Matrix.mat_mul", None),
    ("codes.generator", "twistedrs.codes", "generator_matrix", None),
    ("codes.minors", "twistedrs.codes", "is_mds_bruteforce", _minors_count),
    ("codes.min_distance", "twistedrs.codes", "min_distance_bruteforce", _messages_count),
    ("criteria.theorem31", "twistedrs.criteria", "theorem31_is_mds", _theorem31_count),
    ("criteria.remark44", "twistedrs.criteria", "remark44_is_mds", _remark44_count),
    ("criteria.theorem42", "twistedrs.criteria", "theorem42_is_mds", _theorem42_count),
    ("criteria.forbidden_eta", "twistedrs.criteria", "forbidden_eta_sets", None),
    ("hull.report", "twistedrs.hull", "hull_report", None),
    ("hull.direct", "twistedrs.codes", "hull_direct", None),
    ("hull.construct", "twistedrs.hull", "construct_even", None),
    ("hull.construct", "twistedrs.hull", "construct_odd", None),
    ("enumeration.count", "twistedrs.enumeration", "count_mds_double_twisted", _count_count),
    ("enumeration.search", "twistedrs.enumeration", "search_mds", None),
    ("profiles.load", "twistedrs.profiles", "load_profile", None),
)


def _wrap(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kw):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kw)
        finally:
            rec.end(idx)
        if counter is not None:
            rec.spans[idx][5] = counter(args, kw, result)
        return result

    return wrapper


def _wrap_search(rec: Recorder, name: str, fn):
    """search_mds is a generator: its span stays open until the stream ends
    or the consumer closes it."""

    @functools.wraps(fn)
    def wrapper(*args, **kw):
        idx = rec.begin(name)
        hits = fast = 0
        try:
            for hit in fn(*args, **kw):
                hits += 1
                fast += hit.method == "forbidden_eta"
                yield hit
        finally:
            rec.end(idx, {"hits": hits, "fast_accepts": fast})

    return wrapper


class Tracer:
    """Installs the wrappers on an imported `twistedrs` and removes them again."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.saved: list[tuple] = []

    def install(self) -> None:
        if self.saved:
            return
        pkg_modules = [m for k, m in list(sys.modules.items())
                       if m is not None and (k == "twistedrs" or k.startswith("twistedrs."))]
        for name, modname, attr, counter in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(self.rec, name, raw.__func__, counter))
                else:
                    new = _wrap(self.rec, name, raw, counter)
                self.saved.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(owner, attr)
            if attr == "search_mds":
                new = _wrap_search(self.rec, name, orig)
            else:
                new = _wrap(self.rec, name, orig, counter)
            for mod in pkg_modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self.saved.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self.saved):
            setattr(obj, key, orig)
        self.saved.clear()


# -- reducer ------------------------------------------------------------------


def reduce_spans(spans: list) -> dict:
    """Per span name: outermost calls and their inclusive ns; per module:
    self ns (span duration minus the part its child spans cover); summed
    counters per name; and per search span the pairs it decided."""
    n = len(spans)
    child_ns = [0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = {}
    incl: dict[str, int] = {}
    self_ns = {m: 0 for m in MODULES}
    counts: dict[str, dict] = {}
    search_pairs = 0
    for i, (name, start, end, parent, _, cnt) in enumerate(spans):
        dur = end - start
        mod = name.split(".")[0]
        self_ns[mod] = self_ns.get(mod, 0) + dur - child_ns[i]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0) + dur
        if cnt:
            acc = counts.setdefault(name, {})
            for key, val in cnt.items():
                acc[key] = acc.get(key, 0) + val
        if parent >= 0 and spans[parent][0] == "enumeration.search" and name in (
            "criteria.remark44", "criteria.theorem31"
        ):
            search_pairs += 1
    return {"calls": calls, "incl_ns": incl, "self_ns": self_ns, "counts": counts,
            "search_pairs": search_pairs}
