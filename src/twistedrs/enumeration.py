"""Counting and searching MDS double-twisted codes.

The counting loop follows the reference semantics exactly: unordered
n-subsets of the whole field as evaluation sets, ordered pairs (eta1,
eta2) of nonzero elements, and a pair counts iff the closed-form
expression is nonzero on every k-subset of the evaluation set.  Counts
are invariant under criterion choice (closed form vs constructing each
code and brute-forcing it) for every in-budget task.

The closed-form path is vectorized with numpy lookup tables.  The
expression of one k-subset is 1 - u*eta1 + v*eta2 + u^2*eta1*eta2, so
its bad eta pairs depend only on its class (u, v) in GF(q)^2.  The bad
eta2 of every class and eta1 are tabulated once per field; each k-subset
of a set then marks the table row of its class, instead of testing all
(q-1)^2 pairs, and fills the whole eta2 row at eta1 = 1/u when
v = -u != 0, where the expression is 0 for every eta2.  The
k-subsets come in lexicographic chunks of 64, and after each chunk a set
whose (q-1)^2 pairs are all bad leaves the batch with tally 0, so a set
that counts 0 usually costs a fraction of its subsets.

It also runs once per orbit of evaluation sets under the group of maps
x -> c * x^(p^j) (c nonzero, 0 <= j < m).  Such a map scales the
coefficients (u, v) of every k-subset by (c^k, c^k) (after applying the
field automorphism), so it maps the bad eta pairs of a set one-to-one
onto those of its image and every set in an orbit has the same tally.
The representatives and orbit sizes of each (q, n) are built once per
process, and the total weights each representative's tally by its orbit
size.  Translations x -> x + b are not symmetries of the count.

numpy is imported inside the functions that use it, so importing this
module, as the package and the CLI do, does not load it.
"""

from __future__ import annotations

import itertools
import random
import time
from functools import cache
from math import comb
from typing import Iterator, NamedTuple, Optional

from . import codes
from .codes import (
    BudgetExceededError,
    LinearCodeView,
    MultiTwistedCode,
    TwistProfile,
    is_mds_bruteforce,
)
from .criteria import DOUBLE_TWIST, remark44_is_mds, remark44_mds_etas, theorem31_is_mds
from .field import Field, FieldSpec

ENUM_BUDGET = 10**9


class _EnumTask(NamedTuple):
    q: int
    n: int
    k: int
    criterion: str = "remark44"


class EnumTask(_EnumTask):
    """One count: GF(q), length n, dimension k and the criterion.

    Counts run in one process.  The trailing workers parameter is kept only
    because the benchmark builds EnumTask(q, n, k, "remark44", 1)
    positionally; any value but 1 is rejected, and it is not stored."""

    __slots__ = ()

    def __new__(cls, q: int, n: int, k: int, criterion: str = "remark44", workers: int = 1):
        _spec(q)  # q must be a prime power <= 2^16
        if criterion not in ("remark44", "bruteforce"):
            raise ValueError(f"unknown criterion {criterion!r}")
        if k < 2:
            raise ValueError("double-twist layout needs k >= 2 (hooks 0 and 1)")
        if n < k + 2:
            raise ValueError(
                f"invalid (n, k) = ({n}, {k}): the twisted degree "
                f"k+1 must stay below n, so n >= k + 2"
            )
        if n > q:
            raise ValueError("n cannot exceed the field size")
        if workers != 1:
            raise ValueError("counts run in one process: workers must be 1")
        return super().__new__(cls, q, n, k, criterion)

    @property
    def cost(self) -> int:
        return comb(self.q, self.n) * (self.q - 1) ** 2 * comb(self.n, self.k)


class EnumResult(NamedTuple):
    total_count: int
    criterion: str
    elapsed: float
    per_set: Optional[dict] = None


# The count's state per field order, built once per process (the spec too:
# every count validates a new EnumTask).  Every array is int16, so q > 2^15
# raises OverflowError; no in-budget count reaches it (the last is q = 211).
_spec = cache(FieldSpec.of_order)


@cache
def _field(q: int) -> Field:
    return Field(_spec(q))


@cache
def _tables(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense add, mul, neg and inv arrays indexed by element, read off
    _field(q); inv[0] is 0."""
    import numpy as np
    ctx, elems = _field(q), range(q)
    add = np.array([[ctx.add(x, y) for y in elems] for x in elems], np.int16)
    mul = np.array([[ctx.mul(x, y) for y in elems] for x in elems], np.int16)
    neg = np.array([ctx.neg(x) for x in elems], np.int16)
    inv = np.array([0] + [ctx.inv(x) for x in elems[1:]], np.int16)
    for arr in (add, mul, neg, inv):
        arr.setflags(write=False)  # every count of this order shares them
    return add, mul, neg, inv


@cache
def _classes(q: int) -> np.ndarray:
    """bad_eta2, the one bad eta2 of every (u, v) class and eta1.

    A k-subset's closed form is 1 - u*eta1 + v*eta2 + w*eta1*eta2 with
    w = e_k^2 = u^2, so its bad pairs depend on (u, v) alone.  The
    array has shape (q*q, q-1), row u*q + v and column eta1 - 1, and
    holds the one eta2 that zeroes the expression, or 0 when none does
    (eta2 = 0 lies outside the counted grid).  Where slope and constant
    are both 0 every eta2 is bad and the entry is 0; the count fills
    those whole rows itself."""
    import numpy as np
    add, mul, neg, inv = _tables(q)
    v, h1 = np.arange(q)[:, None], np.arange(1, q)
    bad_eta2 = np.empty((q, q, q - 1), np.int16)
    # one u at a time keeps the temporaries at q*(q-1) entries
    for u in range(q):
        slope = add[v, mul[mul[u, u], h1]]  # expr = const + eta2 * slope
        const = add[1, neg[mul[u, h1]]]
        bad_eta2[u] = mul[neg[const], inv[slope]]  # inv[0] = 0
    bad_eta2.setflags(write=False)  # shared like _tables; the reshaped view is read-only too
    return bad_eta2.reshape(q * q, q - 1)


def _all_sets(q: int, n: int) -> np.ndarray:
    """Every n-subset of GF(q), sorted rows in lexicographic order."""
    import numpy as np
    flat = itertools.chain.from_iterable(itertools.combinations(range(q), n))
    return np.fromiter(flat, np.int16, comb(q, n) * n).reshape(-1, n)


@cache
def _orbit_reps(q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(reps, sizes): one n-subset of GF(q) per orbit under the maps
    x -> c * x^(p^j), and the size of each orbit.  Built once per (q, n);
    neither array has C(q, n) rows, and both are read-only because every
    caller shares them.

    Sets are numbered by colex rank, a bijection onto [0, C(q, n)), so the
    key of a set, the least rank of its images, is an exact int64 for
    every q.  The generators x -> gamma * x and x -> x^p act on the ranks
    as two permutations built once; the key is then a running minimum over
    the group, one element at a time.  The representatives come in key
    order, each the lexicographically least set of its orbit."""
    import numpy as np
    sets = _all_sets(q, n)
    ctx = _field(q)
    total = comb(q, n)
    # binom[a, i] = C(a, i + 1); the entries a rank can use are below C(q, n)
    binom = np.array(
        [[min(comb(a, i + 1), total) for i in range(n)] for a in range(q)], np.int64
    )
    cols = np.arange(n)

    def ranks(image) -> np.ndarray:
        # image[x] is the image of element x; every map fixes 0
        img = np.array(image, np.int16)[sets]
        img.sort(axis=1)
        return binom[img, cols].sum(axis=1)

    rank = ranks(range(q))
    scale = np.empty(total, np.int64)
    scale[rank] = ranks([ctx.mul(ctx.gamma, x) for x in range(q)])
    frob = np.empty(total, np.int64)
    frob[rank] = ranks([ctx.pow(x, ctx.p) for x in range(q)])
    base = np.arange(total)
    least = base.copy()
    for _ in range(ctx.m):
        cur = base
        for _ in range(q - 2):
            cur = scale[cur]
            np.minimum(least, cur, out=least)
        base = frob[base]
        np.minimum(least, base, out=least)
    _, first, sizes = np.unique(least[rank], return_index=True, return_counts=True)
    reps = sets[first]
    reps.setflags(write=False)
    sizes.setflags(write=False)
    return reps, sizes


# k-subsets per step of the count: after each step a set whose bad grid is
# full leaves the batch.  Chunks of 64, 128 and 256 took 109, 135 and 277 ms
# at (19, 10, 5), 61, 80 and 160 ms at (19, 12, 6), and 11.8, 11.3 and
# 12.6 ms over a table1-cells pass (seed 7; one pinned core, best of 5).  A
# shuffled subset order was slower at q = 19.
_SUBSET_CHUNK = 64


def _remark44_set_counts(q: int, n: int, k: int, sets_arr: np.ndarray) -> np.ndarray:
    """Per-evaluation-set tally of eta pairs passing the closed form.

    sets_arr has shape (B, n); returns a (B,) int64 vector.  The k-subsets
    of the n positions come in lexicographic chunks of _SUBSET_CHUNK.
    After each chunk but the last, a set all of whose (q-1)^2 pairs are
    bad leaves the batch with tally 0, which is exact, since later subsets
    can only mark more pairs bad.
    """
    import numpy as np
    add, mul, neg, inv = _tables(q)
    classes = _classes(q)
    sign_k = _field(q).sign(k)
    n_sub = comb(n, k)
    cells = (q - 1) * q
    # bad (eta1, eta2) pairs of each live set, row eta1 - 1; column
    # eta2 = 0 lies outside the counted grid and starts bad, so a set's
    # grid is full exactly when all its cells are True
    grid = np.zeros((len(sets_arr), q - 1, q), bool)
    grid[:, :, 0] = True
    sets, live = sets_arr, np.arange(len(sets_arr))
    subsets = itertools.combinations(range(n), k)
    for start in range(0, n_sub, _SUBSET_CHUNK):
        size = min(_SUBSET_CHUNK, n_sub - start)
        idx = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(subsets, size)), np.intp, size * k
        ).reshape(size, k)
        vals = sets[:, idx]  # (B, size, k)

        # e_1, e_{m-1} and e_m of the first m values; appending a value x
        # makes them e_1 + x, e_m + x*e_{m-1} and e_m*x (from m = 1, where
        # e_0 = 1)
        e1 = ek = vals[:, :, 0]
        ekm1 = 1
        for j in range(1, k):
            x = vals[:, :, j]
            e1, ekm1, ek = add[e1, x], add[ek, mul[ekm1, x]], mul[ek, x]

        u = mul[sign_k][ek]  # coefficient of eta1
        v = mul[sign_k][add[mul[ekm1, e1], neg[ek]]]  # coefficient of eta2

        # every (set, subset) pair marks its class's bad eta2 in each eta1
        # row; two subsets of one class mark the same cells, and a cell
        # marked twice is still just bad, so no class is deduplicated
        bsz = len(sets)
        rows = (np.arange(bsz)[:, None] * (q - 1) + np.arange(q - 1)) * q
        grid.reshape(-1)[rows[:, None, :] + classes[u.astype(np.intp) * q + v]] = True
        # the whole eta2 row is bad, slope and constant both 0, exactly
        # where v = -u != 0 and eta1 = 1/u
        whole = (v == neg[u]) & (u != 0)
        grid[np.nonzero(whole)[0], inv[u[whole]] - 1, 1:] = True

        if start + size < n_sub:
            full = grid.reshape(bsz, cells).all(axis=1)
            if full.any():
                keep = ~full
                grid, sets, live = grid[keep], sets[keep], live[keep]
                if not len(live):
                    break
    tallies = np.zeros(len(sets_arr), np.int64)
    tallies[live] = cells - grid.reshape(-1, cells).sum(axis=1)
    return tallies


def _bruteforce_set_count(ctx: Field, k: int, subset) -> int:
    count = 0
    for eta1 in range(1, ctx.q):
        for eta2 in range(1, ctx.q):
            code = MultiTwistedCode(ctx, TwistProfile(k, *DOUBLE_TWIST, (eta1, eta2)), subset)
            if is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds:
                count += 1
    return count


def count_mds_double_twisted(task: EnumTask, histogram: bool = False) -> EnumResult:
    """Number of (evaluation set, eta pair) combinations giving an MDS
    double-twisted code with twists (1, 2) and hooks (0, 1).

    The closed form runs on one representative per orbit of evaluation
    sets (_orbit_reps) and weights each tally by its orbit's size; with
    histogram it tallies every set itself instead.  The brute-force
    oracle runs on every set, walking the k-column minors of each code,
    so its task.cost k-subsets are refused past codes.DEFAULT_SCAN_BUDGET
    like every other k-subset scan; a closed-form task whose cost exceeds
    ENUM_BUDGET is refused.  Both are read at call time."""
    if task.criterion == "bruteforce":
        if task.cost > codes.DEFAULT_SCAN_BUDGET:
            raise BudgetExceededError(
                f"{task.cost} k-subsets exceed the scan budget {codes.DEFAULT_SCAN_BUDGET}"
            )
    elif task.cost > ENUM_BUDGET:
        raise BudgetExceededError(
            f"task cost {task.cost} exceeds the enumeration budget {ENUM_BUDGET}"
        )
    import numpy as np
    start = time.perf_counter()
    q, n, k = task.q, task.n, task.k
    if histogram or task.criterion == "bruteforce":
        sets, sizes = _all_sets(q, n), None
    else:
        sets, sizes = _orbit_reps(q, n)
    if task.criterion == "bruteforce":
        tallies = np.array([_bruteforce_set_count(_field(q), k, s) for s in sets.tolist()], np.int64)
    else:
        sk = min(_SUBSET_CHUNK, comb(n, k))
        # keep the (B*S, q-1) scatter index small: the (B, q-1, q) grid stays under 7 MB
        batch = max(1, 1_000_000 // (sk * (q - 1)))
        tallies = np.concatenate(
            [_remark44_set_counts(q, n, k, sets[i : i + batch]) for i in range(0, len(sets), batch)]
        )
    total = int(tallies.sum() if sizes is None else tallies @ sizes)
    per_set = dict(zip(map(tuple, sets.tolist()), tallies.tolist())) if histogram else None
    assert total <= comb(q, n) * (q - 1) ** 2
    return EnumResult(
        total_count=total,
        criterion=task.criterion,
        elapsed=time.perf_counter() - start,
        per_set=per_set,
    )


# -- Table 1 goldens ------------------------------------------------------------
# The published table is an image, so the counts are recomputed: every valid
# (q, n, k) whose cost fits ENUM_BUDGET gets an entry keyed by the triple, and
# the others are listed under "skipped" with their cost (`twistedrs table1`).

FIELD_ORDERS = (4, 5, 7, 8, 9, 11, 13, 16, 17)


def cells_for(q: int):
    """(in_budget, skipped) lists of (n, k[, cost]) for one field order,
    by the enumeration budget the count reads."""
    in_budget, skipped = [], []
    for n in range(4, q + 1):
        for k in range(2, n - 1):
            task = EnumTask(q, n, k)
            if task.cost <= ENUM_BUDGET:
                in_budget.append((n, k))
            else:
                skipped.append((n, k, task.cost))
    return in_budget, skipped


def regenerate_order(q: int) -> dict:
    spec = _spec(q)
    in_budget, skipped = cells_for(q)
    cells = []
    for n, k in in_budget:
        res = count_mds_double_twisted(EnumTask(q, n, k))
        cells.append({"n": n, "k": k, "count": res.total_count})
    return {
        "q": q,
        "field": {"p": spec.p, "m": spec.m, "modulus": list(spec.modulus)},
        "criterion": "remark44",
        "budget": ENUM_BUDGET,
        "cells": cells,
        "skipped": [{"n": n, "k": k, "cost": c} for n, k, c in skipped],
    }


# -- parameter search ---------------------------------------------------------


class SearchHit(NamedTuple):
    alpha: tuple[int, ...]
    eta: tuple[int, ...]
    method: str


def search_mds(
    ctx: Field,
    n: int,
    k: int,
    t=(1, 2),
    h=(0, 1),
    strategy: str = "exhaustive",
    alpha: Optional[tuple] = None,
    seed: int = 0,
    trials: int = 1000,
) -> Iterator[SearchHit]:
    """Stream of (alpha, eta) pairs whose code is MDS.

    The exhaustive strategy walks evaluation vectors in lexicographic order
    and, for each, every eta tuple in lexicographic order; the random one
    draws seeded (alpha, eta) pairs.  Each pair of the double-twist layout
    is decided by the Remark 4.4 closed form, any other layout by the
    Theorem 3.1 subset system, and the hit carries that method's name.
    The exhaustive double-twist walk decides a whole eta2 row per eta1 from
    the (u, v) classes of each alpha (remark44_mds_etas); a random draw
    decides its one pair with remark44_is_mds.
    """
    t, h = tuple(t), tuple(h)
    ell = len(t)
    if alpha is not None:
        alpha = tuple(alpha)
        if len(alpha) != n:
            raise ValueError("fixed alpha must have length n")
    # range(n) stands in for the free points, so that the record checks
    # k < n <= q and the degree bound as it does for a fixed alpha
    MultiTwistedCode(ctx, TwistProfile(k, t, h, (ctx.one,) * ell), range(n) if alpha is None else alpha)
    special = (t, h) == DOUBLE_TWIST

    def check(al, eta):
        if special:
            return "remark44" if remark44_is_mds(ctx, al, k, eta[0], eta[1]).is_mds else None
        code = MultiTwistedCode(ctx, TwistProfile(k, t, h, eta), al)
        return "theorem31" if theorem31_is_mds(code).is_mds else None

    if strategy == "exhaustive":
        alphas = [alpha] if alpha is not None else itertools.combinations(range(ctx.q), n)
        for al in alphas:
            if special:
                for eta in remark44_mds_etas(ctx, al, k):
                    yield SearchHit(al, eta, "remark44")
                continue
            for eta in itertools.product(range(1, ctx.q), repeat=ell):
                method = check(al, eta)
                if method:
                    yield SearchHit(al, eta, method)
    elif strategy == "random":
        if trials < 1:
            raise ValueError("empty search space: trials must be >= 1")
        rng = random.Random(seed)
        for _ in range(trials):
            al = alpha if alpha is not None else tuple(sorted(rng.sample(range(ctx.q), n)))
            eta = tuple(rng.randrange(1, ctx.q) for _ in range(ell))
            method = check(al, eta)
            if method:
                yield SearchHit(al, eta, method)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
