"""Counting loop semantics and the parameter search."""

import itertools
import random
from math import comb
from pathlib import Path

import numpy as np
import pytest

from twistedrs.codes import (
    BudgetExceededError,
    LinearCodeView,
    MultiTwistedCode,
    TwistProfile,
    is_mds_bruteforce,
)
from twistedrs import table1
from twistedrs.criteria import (
    remark44_bad_eta2,
    remark44_class,
    remark44_is_mds,
    theorem42_is_mds,
)
from twistedrs.enumeration import (
    EnumTask,
    SearchHit,
    _SUBSET_CHUNK,
    _all_sets,
    _kernel,
    _orbit_reps,
    _remark44_set_counts,
    count_mds_double_twisted,
    search_mds,
)
from twistedrs.field import Field
from twistedrs.table1 import load_golden


def test_task_validation():
    with pytest.raises(ValueError, match="n >= k \\+ 2"):
        EnumTask(5, 3, 2)  # n = k + 1 breaks the degree bound
    with pytest.raises(ValueError, match="k >= 2"):
        EnumTask(5, 4, 1)
    with pytest.raises(ValueError, match="field size"):
        EnumTask(5, 6, 2)
    with pytest.raises(ValueError, match="criterion"):
        EnumTask(5, 4, 2, "magic")
    with pytest.raises(ValueError, match="prime power"):
        EnumTask(6, 4, 2)
    with pytest.raises(ValueError, match="2\\^16"):
        EnumTask(2**17, 4, 2)


def test_budget_guard():
    task = EnumTask(16, 10, 5)
    with pytest.raises(BudgetExceededError):
        count_mds_double_twisted(task, budget=10**6)


@pytest.mark.parametrize("q,n,k", [(5, 4, 2), (7, 4, 2)])
def test_counts_match_bruteforce_construction(q, n, k):
    fast = count_mds_double_twisted(EnumTask(q, n, k, "remark44"))
    slow = count_mds_double_twisted(EnumTask(q, n, k, "bruteforce"))
    assert fast.total_count == slow.total_count


def test_count_upper_bound_and_histogram():
    res = count_mds_double_twisted(EnumTask(5, 4, 2), histogram=True)
    assert res.per_set is not None
    assert len(res.per_set) == 5  # C(5, 4) evaluation sets
    assert sum(res.per_set.values()) == res.total_count
    assert all(0 <= c <= 16 for c in res.per_set.values())


def test_regenerate_order_passes_budget_to_counts(monkeypatch):
    seen = []
    real = table1.count_mds_double_twisted

    def spy(task, **kw):
        seen.append(kw.get("budget"))
        return real(task, **kw)

    monkeypatch.setattr(table1, "count_mds_double_twisted", spy)
    doc = table1.regenerate_order(5, budget=10**12)
    assert doc["budget"] == 10**12
    assert seen and set(seen) == {10**12}


# -- kernel context and orbit reduction ------------------------------------------


@pytest.mark.parametrize("q", [4, 9, 16, 17, 25, 64])
def test_kernel_tables_match_scalar_field(q):
    ctx = Field.of_order(q)
    add, mul, neg, inv = _kernel(q).tables
    for x in range(q):
        assert add[x].tolist() == [ctx.add(x, y) for y in range(q)]
        assert mul[x].tolist() == [ctx.mul(x, y) for y in range(q)]
    assert neg.tolist() == [ctx.neg(x) for x in range(q)]
    assert inv.tolist() == [0] + [ctx.inv(x) for x in range(1, q)]


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 17, 25, 27])
def test_class_table_matches_scalar_expression(q):
    # every (u, v) class and eta1: the nonzero eta2 the table marks bad, with
    # the whole rows the count fills at v = -u != 0 and eta1 = 1/u, are
    # exactly the zeros of 1 - u*eta1 + v*eta2 + u^2*eta1*eta2
    ctx = Field.of_order(q)
    bad_eta2 = _kernel(q).classes
    assert bad_eta2.shape == (q * q, q - 1)
    for u in range(q):
        for h1 in range(1, q):
            const = ctx.sub(ctx.one, ctx.mul(u, h1))
            cross = ctx.mul(ctx.mul(u, u), h1)
            for v in range(q):
                row, col = u * q + v, h1 - 1
                zeros = {
                    h2
                    for h2 in range(1, q)
                    if ctx.add(const, ctx.add(ctx.mul(v, h2), ctx.mul(cross, h2))) == 0
                }
                whole = u != 0 and v == ctx.neg(u) and h1 == ctx.inv(u)
                assert (zeros == set(range(1, q))) == whole
                marked = {int(bad_eta2[row, col])} | (set(range(1, q)) if whole else set())
                assert marked - {0} == zeros


@pytest.mark.parametrize("q", [4, 7, 8, 9, 16, 17])
def test_bad_eta2_rule_matches_class_table(q):
    # the scalar per-eta1 rule of each (u, v) class against the kernel's
    # table and its whole-row rule (v = -u != 0 at eta1 = 1/u)
    ctx = Field.of_order(q)
    kern = _kernel(q)
    _, _, neg, inv = kern.tables
    table = kern.classes
    every = set(range(1, q))
    for u in range(q):
        for v in range(q):
            whole_row = u != 0 and v == neg[u]
            for eta1 in range(1, q):
                expect = {int(table[u * q + v, eta1 - 1])} - {0}
                if whole_row and eta1 == inv[u]:
                    expect = every
                assert remark44_bad_eta2(ctx, [(u, v)], eta1) == expect


@pytest.mark.parametrize("q", [9, 25, 27, 49, 8, 16, 32])
def test_set_counts_match_scalar_oracle(q):
    # seeded random evaluation sets, one holding 0 at a middle position and
    # one without 0, against a count of the eta pairs the scalar closed form
    # calls MDS; the kernel takes a set's points in any order
    ctx = Field.of_order(q)
    rng = random.Random(q)
    for k in (2, 3, 4, 5, 6) if q <= 16 else (2, 3, 4):
        n = k + 2
        holding = sorted(rng.sample(range(1, q), n - 1))
        holding.insert(n // 2, 0)
        sets = [holding]
        if n < q:  # GF(8) has only 7 nonzero points
            sets.append(sorted(rng.sample(range(1, q), n)))
        tallies = _remark44_set_counts(_kernel(q), n, k, np.array(sets, _kernel(q).dtype))
        oracle = [
            sum(
                remark44_is_mds(ctx, alpha, k, eta1, eta2).is_mds
                for eta1 in range(1, q)
                for eta2 in range(1, q)
            )
            for alpha in sets
        ]
        assert tallies.tolist() == oracle


def _first_bad_ranks(ctx, alpha, k):
    """For each eta pair, the lexicographic rank among the k-subsets of
    positions of the first one the scalar closed form calls bad, or None
    when the code is MDS."""
    rank = {s: i for i, s in enumerate(itertools.combinations(range(len(alpha)), k))}
    return {
        (eta1, eta2): None if verdict.is_mds else rank[verdict.witness]
        for eta1 in range(1, ctx.q)
        for eta2 in range(1, ctx.q)
        for verdict in [remark44_is_mds(ctx, alpha, k, eta1, eta2)]
    }


@pytest.mark.parametrize(
    "q,n,k,sets",
    [
        (
            13, 9, 4,  # 2 chunks
            [
                (0, 1, 2, 3, 5, 8, 10, 11, 12),
                (1, 2, 3, 4, 0, 5, 9, 10, 11),
                (0, 1, 3, 4, 5, 6, 8, 9, 12),
            ],
        ),
        (
            16, 10, 5,  # 4 chunks
            [
                (1, 2, 3, 7, 8, 10, 11, 12, 13, 15),
                (2, 3, 4, 5, 6, 0, 7, 8, 12, 13),
                (1, 2, 4, 5, 7, 10, 12, 13, 14, 15),
            ],
        ),
    ],
)
def test_saturation_exit_matches_scalar_oracle(q, n, k, sets):
    # One batch over several subset chunks: a set with a nonzero tally and a
    # whole bad eta1 row after the first chunk, a tally-0 set (0 at a middle
    # position) whose grid is full after the first chunk and so leaves the
    # batch, and a tally-0 set that some pair keeps alive past that chunk.
    ctx = Field.of_order(q)
    assert comb(n, k) > _SUBSET_CHUNK
    ranks = [_first_bad_ranks(ctx, alpha, k) for alpha in sets]
    oracle = [sum(r is None for r in rk.values()) for rk in ranks]
    nonzero, full, late = ranks

    def bad_in_first_chunk(rk, pairs):
        return all(rk[p] is not None and rk[p] < _SUBSET_CHUNK for p in pairs)

    assert oracle[0] > 0 and any(
        bad_in_first_chunk(nonzero, [(eta1, eta2) for eta2 in range(1, q)]) for eta1 in range(1, q)
    )
    assert oracle[1] == 0 and bad_in_first_chunk(full, full)
    assert oracle[2] == 0 and not bad_in_first_chunk(late, late)
    tallies = _remark44_set_counts(_kernel(q), n, k, np.array(sets, _kernel(q).dtype))
    assert tallies.tolist() == oracle


@pytest.mark.parametrize(
    "q,n,k",
    [
        (7, 5, 3), (9, 6, 3), (8, 6, 2), (11, 6, 4), (13, 9, 4), (16, 7, 3), (16, 10, 5),
        (25, 4, 2), (27, 4, 2), (64, 63, 2),
    ],
)
def test_orbit_reduced_count_matches_every_set(q, n, k):
    kern = _kernel(q)
    sets = _all_sets(kern, n)
    unreduced = _remark44_set_counts(kern, n, k, sets)
    res = count_mds_double_twisted(EnumTask(q, n, k), histogram=True)
    assert res.per_set == dict(zip(map(tuple, sets.tolist()), unreduced.tolist()))
    assert res.total_count == int(unreduced.sum())
    # without the histogram each representative's tally is weighted by the
    # size of its orbit
    assert count_mds_double_twisted(EnumTask(q, n, k)).total_count == res.total_count


@pytest.mark.parametrize(
    "q,n,orbits",
    [(16, 7, 206), (17, 5, 389), (16, 5, 83), (9, 6, 8), (25, 4, 285), (27, 4, 234)],
)
def test_orbit_counts(q, n, orbits):
    kern = _kernel(q)
    sets = _all_sets(kern, n)
    first, inverse = kern.orbits(sets)
    assert len(first) == orbits
    assert (inverse[first] == range(orbits)).all()
    reps, sizes = cached = _orbit_reps(q, n)
    assert (reps == sets[first]).all()
    assert sizes.tolist() == np.bincount(inverse).tolist()
    assert int(sizes.sum()) == comb(q, n)
    assert all(a is b for a, b in zip(_orbit_reps(q, n), cached))
    # the cache keeps one row per orbit, never one per set
    assert all(len(a) == orbits < comb(q, n) and not a.flags.writeable for a in cached)


def test_translation_changes_tallies():
    # x -> x + 1 is not a symmetry of the count, so orbits must not use it
    per_set = count_mds_double_twisted(EnumTask(7, 5, 3), histogram=True).per_set
    shifted = {s: tuple(sorted((x + 1) % 7 for x in s)) for s in per_set}
    assert sum(per_set[s] != per_set[shifted[s]] for s in per_set) == 18


# -- search ---------------------------------------------------------------------


def test_search_pruned_equals_unpruned(f7):
    # The search decides every pair with the Remark 4.4 closed form and no
    # pruning; it must emit exactly what unpruned brute force calls MDS.
    hits = [(hit.alpha, hit.eta) for hit in search_mds(f7, 5, 3)]
    expect = []
    for alpha in itertools.combinations(range(7), 5):
        for eta in itertools.product(range(1, 7), repeat=2):
            code = MultiTwistedCode(f7, TwistProfile(3, (1, 2), (0, 1), eta), alpha)
            if (
                is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds
                and theorem42_is_mds(f7, alpha, 3, *eta).is_mds
            ):
                expect.append((alpha, eta))
    assert hits == expect
    golden = load_golden(str(Path(__file__).resolve().parent.parent / "goldens" / "table1"), 7)
    (cell,) = [c["count"] for c in golden["cells"] if (c["n"], c["k"]) == (5, 3)]
    assert len(hits) == cell == count_mds_double_twisted(EnumTask(7, 5, 3)).total_count == 186


def _with_whole_row_class(ctx, rng, n):
    """n distinct points holding a 3-subset x, y, -(x + y) of nonzero points,
    whose e_1 = 0 gives the class v = -u != 0."""
    while True:
        x, y = rng.sample(range(1, ctx.q), 2)
        z = ctx.neg(ctx.add(x, y))
        if z not in (0, x, y):
            break
    rest = [a for a in range(ctx.q) if a not in (x, y, z)]
    return tuple(rng.sample(rest, n - 3)) + (x, y, z)


@pytest.mark.parametrize("q", [8, 9, 16, 17, 25])
def test_fixed_alpha_search_matches_per_pair_verdicts(q):
    # the exhaustive search from each alpha's (u, v) classes yields exactly
    # the pairs remark44_is_mds calls MDS, in order, for alpha with 0, alpha
    # without 0 and alpha with a class whose whole eta2 row is bad
    ctx = Field.of_order(q)
    rng = random.Random(q)
    n, k = 6, 3
    with_zero = tuple(rng.sample(range(1, q), n - 1)) + (0,)
    without_zero = tuple(rng.sample(range(1, q), n))
    whole = _with_whole_row_class(ctx, rng, n)
    classes = {
        remark44_class(ctx, [whole[i] for i in s], k) for s in itertools.combinations(range(n), k)
    }
    row_eta1 = {ctx.inv(u) for u, v in classes if u and v == ctx.neg(u)}
    assert row_eta1
    for alpha in (with_zero, without_zero, whole):
        hits = list(search_mds(ctx, n, k, alpha=alpha))
        assert all(hit.alpha == alpha and hit.method == "remark44" for hit in hits)
        expect = [
            (eta1, eta2)
            for eta1 in range(1, q)
            for eta2 in range(1, q)
            if remark44_is_mds(ctx, alpha, k, eta1, eta2).is_mds
        ]
        assert [hit.eta for hit in hits] == expect
        if alpha == whole:
            assert not any(eta1 in row_eta1 for eta1, _ in expect)


def test_search_uses_both_methods(f7):
    double = {hit.method for hit in search_mds(f7, 5, 3)}
    general = {
        hit.method
        for hit in search_mds(f7, 6, 3, t=(2, 3), h=(1, 2), strategy="random", seed=1, trials=20)
    }
    assert double == {"remark44"}
    assert general == {"theorem31"}


def test_search_emits_example_4_3_pairs(f16):
    alpha = f16.parse_vector(("0", "a^3 + a^2", "a^3 + a^2 + a + 1", "a^3 + 1", "1"))
    hits = {hit.eta for hit in search_mds(f16, 5, 3, alpha=alpha)}
    eta1 = f16.parse("a^2 + a")
    for eta2s in ("1", "a", "a^2 + a", "a^3", "a^3 + a", "a^3 + a^2"):
        assert (eta1, f16.parse(eta2s)) in hits


def test_search_random_strategy_reproducible(f7):
    run1 = list(search_mds(f7, 5, 3, strategy="random", seed=42, trials=300))
    run2 = list(search_mds(f7, 5, 3, strategy="random", seed=42, trials=300))
    assert run1 == run2
    assert run1
    other = list(search_mds(f7, 5, 3, strategy="random", seed=43, trials=300))
    assert other != run1


def test_search_general_shape_uses_theorem31(f16):
    hits = list(
        itertools.islice(search_mds(f16, 6, 3, t=(2, 3), h=(1, 2), strategy="random", seed=1, trials=50), 5)
    )
    assert hits
    assert all(h.method == "theorem31" for h in hits)


def test_search_empty_space_errors(f7):
    with pytest.raises(ValueError, match="k < n <= q"):
        list(search_mds(f7, 9, 3))
    with pytest.raises(ValueError, match="trials"):
        list(search_mds(f7, 5, 3, strategy="random", trials=0))
    with pytest.raises(ValueError, match="strategy"):
        list(search_mds(f7, 5, 3, strategy="sideways"))


def test_search_rejects_repeated_fixed_points(f7):
    """A repeated column is never MDS, so a fixed alpha with one is refused
    for every layout and strategy."""
    for layout in ({}, {"t": (1,), "h": (0,)}):
        for strategy in ("exhaustive", "random"):
            with pytest.raises(ValueError, match="distinct"):
                list(search_mds(f7, 5, 3, alpha=(1, 1, 2, 3, 4), strategy=strategy, **layout))
    with pytest.raises(ValueError, match="outside the field"):
        list(search_mds(f7, 5, 3, alpha=(0, 1, 2, 3, 7)))

def test_search_hit_is_frozen(f7):
    hit = next(iter(search_mds(f7, 5, 3)))
    assert isinstance(hit, SearchHit)
    with pytest.raises(AttributeError):
        hit.alpha = ()
