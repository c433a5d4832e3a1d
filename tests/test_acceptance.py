"""Acceptance suite: one test per criterion, each with its runtime budget.

Run `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Everything is exact arithmetic; tolerances are zero.

Criterion 4's "[10,4,7] / MDS" sub-claim is checked as far as it can be
verified.  The odd-q worked example as printed is a [10,4,5] code: both
k-column oracles find witness columns (0,1,7,9) and a certificate message
encodes to a weight-5 codeword.  With eta2 = -a instead of a, the code has
the same G G^T entry for entry and is a [10,4,7] MDS code with
one-dimensional hull, and the test asserts both facts.

The full Table-1 regeneration job is tagged `table1` and deselected by
default; run `pytest -m table1` (budget: well under two hours).
"""

import functools
import itertools
import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from twistedrs.codes import (
    LinearCodeView,
    MultiTwistedCode,
    TwistProfile,
    encode,
    hull_direct,
    is_mds_bruteforce,
    min_distance_bruteforce,
)
from twistedrs.criteria import (
    appendix_a_determinants,
    remark44_is_mds,
    subfield_chain_construct,
    theorem31_is_mds,
    theorem42_is_mds,
)
from twistedrs.enumeration import FIELD_ORDERS, EnumTask, cells_for, count_mds_double_twisted, regenerate_order
from twistedrs.field import Field
from twistedrs.hull import (
    construct_even,
    construct_odd,
    gram_decomposition,
    hull_report,
    power_sum_theta,
    subgroup_eval,
)
from twistedrs.linalg import Matrix

from helpers import field_sum, load_golden

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens" / "table1"


def criterion(num, desc, limit_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds {limit_s}s"
            except BaseException:
                print(f"[criterion {num:>2}] FAIL  {desc}")
                raise
            print(f"[criterion {num:>2}] PASS  {desc}  ({elapsed:.2f}s)")

        return wrapper

    return deco


# -- criterion 1: published determinant listing ------------------------------------

EX32_ALPHA = ("0", "a^2", "a + 1", "a^2 + a", "a^3 + a + 1")
EX32_ETA1 = "a^3 + a^2"
APPENDIX_A = {
    "1": [
        "a^3 + a^2 + 1", "a^3 + a^2 + a", "a^3 + a + 1", "a^2", "a^3 + a^2 + a + 1",
        "a^3 + 1", "a", "a^3 + a", "a^3", "a^2",
    ],
    "a^2 + 1": [
        "a^2 + 1", "a^2 + a", "a + 1", "a^3 + a^2", "a^2 + a + 1",
        "1", "a^3 + a^2", "a^3 + 1", "a^2 + 1", "a^3 + a + 1",
    ],
    "a^2 + a + 1": [
        "a^3 + a^2 + a", "a^3 + a^2 + 1", "a^3", "a^2 + a + 1", "a^3 + a^2",
        "a^3 + a", "a^3 + a^2 + 1", "a^3 + a^2", "1", "a^3 + 1",
    ],
    "a^3": [
        "a^3 + a + 1", "a^3", "a^3 + a^2 + 1", "a", "a^3 + 1",
        "a^3 + a^2 + a + 1", "a^3 + a^2 + a + 1", "a^2 + a", "a^3 + 1", "a^3 + a^2 + 1",
    ],
    "a^3 + a^2": [
        "a^3 + a^2 + a + 1", "a^3 + a^2", "a^3 + 1", "a^2 + a", "a^3 + a^2 + 1",
        "a^3 + a + 1", "a^3", "a^3 + a^2 + a", "a^2 + a", "a + 1",
    ],
    "a^3 + a^2 + a": [
        "a^3 + a", "a^3 + 1", "a^3 + a^2", "a + 1", "a^3",
        "a^3 + a^2 + a", "a^3 + a", "a^2", "a^3 + a^2 + a", "a^2 + a + 1",
    ],
}


@criterion(1, "determinant listing reproduction (6 eta2, 60 nonzero values)", 1.0)
def test_criterion_01_appendix_a_reproduction():
    f16 = Field.of_order(16)
    total = 0
    for eta2s, expected in APPENDIX_A.items():
        profile = TwistProfile(3, (1, 2), (0, 1), (f16.parse(EX32_ETA1), f16.parse(eta2s)))
        code = MultiTwistedCode(f16, profile, f16.parse_vector(EX32_ALPHA))
        dets = appendix_a_determinants(code)
        assert all(d != 0 for d in dets)
        assert Counter(f16.format(d) for d in dets) == Counter(expected)
        total += len(dets)
    assert total == 60


# -- criterion 2: the double-twist worked example ------------------------------------


@criterion(2, "double-twist example: six eta pairs MDS by all three criteria, d = 3", 1.0)
def test_criterion_02_example_4_3():
    f16 = Field.of_order(16)
    alpha = f16.parse_vector(("0", "a^3 + a^2", "a^3 + a^2 + a + 1", "a^3 + 1", "1"))
    eta1 = f16.parse("a^2 + a")
    for eta2s in ("1", "a", "a^2 + a", "a^3", "a^3 + a", "a^3 + a^2"):
        eta2 = f16.parse(eta2s)
        code = MultiTwistedCode(f16, TwistProfile(3, (1, 2), (0, 1), (eta1, eta2)), alpha)
        assert theorem31_is_mds(code).is_mds
        assert remark44_is_mds(f16, alpha, 3, eta1, eta2).is_mds
        assert theorem42_is_mds(f16, alpha, 3, eta1, eta2).is_mds
        assert min_distance_bruteforce(LinearCodeView.of_code(code)) == 3


# -- criterion 3: even-q hull construction ---------------------------------------------


def _strings(ctx, m):
    return [[ctx.format(x) for x in row] for row in m.data]


@criterion(3, "even-q [6,3,4] construction: component matrices, rank 2, hull 1, MDS", 1.0)
def test_criterion_03_even_example():
    f16 = Field.of_order(16)
    code = construct_even(f16, 3, (2, 3), (1, 2), (f16.parse("a^3"), f16.parse("a^3 + a^2")))
    gp = gram_decomposition(code)
    assert _strings(f16, gp.a_one) == [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
    assert _strings(f16, gp.a_gamma) == [["1", "0", "0"], ["0", "0", "a^3"], ["0", "a^3", "0"]]
    assert _strings(f16, gp.b_one) == [["0", "0", "0"], ["0", "0", "a^3 + a"], ["0", "a^3 + a", "0"]]
    # computed value; the publication's (1,1)=1 entry contradicts its own sums
    assert _strings(f16, gp.b_gamma) == [["0", "0", "0"], ["0", "0", "a^3"], ["0", "a^3", "0"]]
    assert _strings(f16, gp.aat_sum) == [["0", "0", "0"], ["0", "0", "a^3 + 1"], ["0", "a^3 + 1", "0"]]
    assert _strings(f16, gp.bbt_sum) == [["0", "0", "0"], ["0", "0", "a"], ["0", "a", "0"]]
    assert _strings(f16, gp.cross) == [["0", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
    view = LinearCodeView.of_code(code)
    rep = hull_report(view)
    assert rep.gram_rank == 2 and rep.hull_dim == 1
    assert (view.n, view.k) == (6, 3)
    assert min_distance_bruteforce(view) == 4
    assert is_mds_bruteforce(view).is_mds and theorem31_is_mds(code).is_mds


# -- criterion 4: odd-q hull construction ------------------------------------------------


def _example_5_6(f81, eta2="a"):
    """The odd-q worked example; eta2 defaults to the printed value."""
    return construct_odd(f81, 5, (1, 2), (2, 3), (f81.parse("a^3 + a^2"), f81.parse(eta2)))


EX56_ZERO_COLUMNS = (0, 1, 7, 9)  # singular 4-column subset of the printed example
# message whose codeword in the printed example vanishes on columns (0,4,7,8,9)
EX56_WEIGHT5_MSG = ("2*a^3 + 2*a^2 + a + 2", "2*a^3 + 2*a^2 + 2*a", "a^3 + 2*a^2 + a + 2", "1")


@criterion(4, "odd-q [10,4] construction: component sums, rank 3, hull 1", 5.0)
def test_criterion_04_example_5_6_reproduction():
    f81 = Field.of_order(81)
    code = _example_5_6(f81)
    gp = gram_decomposition(code)
    z = "0"
    assert _strings(f81, gp.aat_sum) == [
        ["1", z, z, z],
        [z, z, z, z],
        [z, z, z, "2*a^3 + 2*a + 1"],
        [z, z, "2*a^3 + 2*a + 1", z],
    ]
    assert _strings(f81, gp.bbt_sum) == [
        [z, z, z, z],
        [z, z, z, z],
        [z, z, "2", z],
        [z, z, z, z],
    ]
    assert _strings(f81, gp.cross) == [
        [z, z, "a", z],
        [z, z, z, z],
        ["a", z, z, z],
        [z, z, z, z],
    ]
    view = LinearCodeView.of_code(code)
    rep = hull_report(view)
    assert rep.gram_rank == 3 and rep.hull_dim == 1
    assert (view.n, view.k) == (10, 4)


@criterion(4, "odd-q MDS claim: printed eta is [10,4,5]; eta2 = -a, same G G^T, is [10,4,7]", 5.0)
def test_criterion_04_example_5_6_mds_claim():
    f81 = Field.of_order(81)
    printed = _example_5_6(f81)
    view = LinearCodeView.of_code(printed)
    for verdict in (is_mds_bruteforce(view), theorem31_is_mds(printed)):
        assert not verdict.is_mds and verdict.witness == EX56_ZERO_COLUMNS, verdict
    # the weight-5 certificate, through encode and by evaluating
    # m0 + m1 x + m2 x^2 + m3 x^3 + eta1 m2 x^5 + eta2 m3 x^6 term by term
    m0, m1, m2, m3 = f81.parse_vector(EX56_WEIGHT5_MSG)
    eta1, eta2 = f81.parse("a^3 + a^2"), f81.parse("a")
    terms = ((m0, 0), (m1, 1), (m2, 2), (m3, 3), (f81.mul(eta1, m2), 5), (f81.mul(eta2, m3), 6))
    direct = [
        functools.reduce(f81.add, (f81.mul(c, f81.pow(x, e)) for c, e in terms))
        for x in subgroup_eval(f81, 5)
    ]
    word = encode(printed, (m0, m1, m2, m3))
    assert word == direct
    # weight 5, so d <= 5; the zero-set scan in test_codes.py shows d = 5
    assert [i for i, c in enumerate(word) if c == 0] == [0, 4, 7, 8, 9]

    # eta2 = -a: the same G G^T, and the claimed [10,4,7] MDS code with hull 1
    negated = _example_5_6(f81, "2*a")
    assert negated.profile.eta[1] == f81.neg(eta2)
    negated_view = LinearCodeView.of_code(negated)
    assert is_mds_bruteforce(negated_view).is_mds and theorem31_is_mds(negated).is_mds
    rep = hull_report(negated_view)
    assert rep.gram == hull_report(view).gram
    assert rep.hull_dim == 1


# -- criterion 5: oracle equivalence -----------------------------------------------------


@criterion(5, "oracle equivalence, exhaustive q in {4,5,7}, n <= 5, k <= 3", 300.0)
def test_criterion_05_oracle_equivalence():
    checked = 0
    for q in (4, 5, 7):
        ctx = Field.of_order(q)
        for n in range(4, min(q, 5) + 1):
            for k in range(2, min(3, n - 2) + 1):
                for alpha in itertools.combinations(range(q), n):
                    for eta1 in range(1, q):
                        for eta2 in range(1, q):
                            code = MultiTwistedCode(
                                ctx, TwistProfile(k, (1, 2), (0, 1), (eta1, eta2)), alpha
                            )
                            bf = is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds
                            t31 = theorem31_is_mds(code).is_mds
                            r44 = remark44_is_mds(ctx, alpha, k, eta1, eta2).is_mds
                            t42 = theorem42_is_mds(ctx, alpha, k, eta1, eta2).is_mds
                            assert bf == t31 == r44 == t42, (q, alpha, k, eta1, eta2)
                            checked += 1
    assert checked == 9 + 112 + 2772  # q=4, q=5, q=7 parameter combinations


# -- criterion 6: hull correspondence ------------------------------------------------------


@criterion(6, "hull dimension = dim - rank(G G^T) on 500 random codes + worked examples", 60.0)
def test_criterion_06_hull_correspondence():
    rng = random.Random(131)
    views = []
    for _ in range(500):
        ctx = Field.of_order(rng.choice([4, 5, 7]))
        n = rng.randint(3, min(ctx.q, 7))
        k = rng.randint(1, n - 1)
        while True:
            g = Matrix(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(k)])
            if g.rank() == k:
                break
        views.append(LinearCodeView(g))
    f16 = Field.of_order(16)
    f81 = Field.of_order(81)
    alpha43 = f16.parse_vector(("0", "a^3 + a^2", "a^3 + a^2 + a + 1", "a^3 + 1", "1"))
    eta1 = f16.parse("a^2 + a")
    for eta2s in ("1", "a", "a^2 + a", "a^3", "a^3 + a", "a^3 + a^2"):
        views.append(
            LinearCodeView.of_code(
                MultiTwistedCode(
                    f16, TwistProfile(3, (1, 2), (0, 1), (eta1, f16.parse(eta2s))), alpha43
                )
            )
        )
    views.append(
        LinearCodeView.of_code(
            construct_even(f16, 3, (2, 3), (1, 2), (f16.parse("a^3"), f16.parse("a^3 + a^2")))
        )
    )
    views.append(LinearCodeView.of_code(_example_5_6(f81)))
    for view in views:
        rep = hull_report(view)
        assert (rep.hull_dim, rep.hull_basis) == hull_direct(view)
        assert rep.hull_dim == rep.code_dim - rep.gram_rank == rep.code_dim - rep.gram.rank()


# -- criterion 7: power-sum identity ----------------------------------------------------------


@criterion(7, "power-sum identity, q in {4,8,9,16,81}, all k | q-1, all m", 10.0)
def test_criterion_07_power_sums():
    for q in (4, 8, 9, 16, 81):
        ctx = Field.of_order(q)
        for k in range(1, q - 1):
            if (q - 1) % k != 0:
                continue
            subgroup = [ctx.pow(ctx.gamma, (q - 1) // k * i) for i in range(1, k + 1)]
            for m in range(q):
                got = power_sum_theta(ctx, k, m)
                assert got == ((k % ctx.p) if m % k == 0 else 0)
                assert got == field_sum(ctx, (ctx.pow(x, m) for x in subgroup))


# -- criterion 8: subfield-chain guarantee ------------------------------------------------------


@criterion(8, "100 random subfield-chain constructions are MDS by brute force", 60.0)
def test_criterion_08_subfield_chain_guarantee():
    rng = random.Random(137)
    f16 = Field.of_order(16)
    f256 = Field.of_order(256)
    sub4_16 = f16.subfield_elements(4)
    sub4_256 = f256.subfield_elements(4)
    eta_16_not4 = [x for x in range(1, 16) if not f16.is_in_subfield(x, 4)]
    eta_256_not16 = [x for x in range(1, 256) if not f256.is_in_subfield(x, 16)]
    eta_16in256_not4 = [
        x for x in range(1, 256)
        if f256.is_in_subfield(x, 16) and not f256.is_in_subfield(x, 4)
    ]
    for trial in range(100):
        if trial % 2 == 0:
            n = rng.choice([3, 4])
            alpha = tuple(rng.sample(sub4_16, n))
            k = rng.randint(1, n - 2)
            t = (rng.randint(1, n - k),)
            h = (rng.randint(0, k - 1),)
            eta = (rng.choice(eta_16_not4),)
            code = subfield_chain_construct(f16, (4, 16), alpha, k, t, h, eta)
        else:
            alpha = tuple(rng.sample(sub4_256, 4))
            k = 2
            t, h = (1, 2), (0, 1)
            eta = (rng.choice(eta_16in256_not4), rng.choice(eta_256_not16))
            code = subfield_chain_construct(f256, (4, 16, 256), alpha, k, t, h, eta)
        assert is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds, (trial, alpha, eta)


# -- criterion 9: constructive families never have trivial hull ----------------------------------


@criterion(9, ">= 200 random draws per parity all have hull dimension >= 1", 60.0)
def test_criterion_09_construction_guarantee():
    rng = random.Random(139)
    f16, f64 = Field.of_order(16), Field.of_order(64)
    done = 0
    while done < 200:
        ctx, k = rng.choice([(f16, 3), (f16, 5), (f64, 3), (f64, 7), (f64, 9), (f64, 21)])
        ell = rng.randint(1, min(3, k - 1))
        t = tuple(sorted(rng.sample(range(2, k + 1), ell)))
        h = tuple(sorted(rng.sample(range(1, k), ell)))
        eta = tuple(rng.randrange(1, ctx.q) for _ in range(ell))
        rep = hull_report(LinearCodeView.of_code(construct_even(ctx, k, t, h, eta)))
        assert rep.hull_dim >= 1
        done += 1
    f9, f25, f81 = Field.of_order(9), Field.of_order(25), Field.of_order(81)
    done = 0
    while done < 200:
        ctx, k = rng.choice([(f9, 4), (f25, 4), (f25, 6), (f25, 8), (f81, 5), (f81, 10)])
        ell = rng.randint(1, min(2, k - 3)) if k > 3 else 1
        t = tuple(sorted(rng.sample(range(1, k), ell)))
        h = tuple(sorted(rng.sample(range(2, k - 1), ell)))
        eta = tuple(rng.randrange(1, ctx.q) for _ in range(ell))
        rep = hull_report(LinearCodeView.of_code(construct_odd(ctx, k, t, h, eta)))
        assert rep.hull_dim >= 1
        done += 1


# -- criterion 10: enumeration soundness -----------------------------------------------------------


@criterion(10, "enumeration double-oracle on small triples + goldens", 60.0)
def test_criterion_10_enumeration_soundness():
    for q, n, k in ((5, 4, 2), (7, 4, 2), (7, 5, 3)):
        fast = count_mds_double_twisted(EnumTask(q, n, k, "remark44"))
        slow = count_mds_double_twisted(EnumTask(q, n, k, "bruteforce"))
        assert fast.total_count == slow.total_count, (q, n, k)
    # regenerated golden files exist for every field order and the q <= 13
    # cells match a live recount
    assert GOLDEN_DIR.is_dir(), "goldens/table1 missing; run python -m twistedrs table1"
    for q in FIELD_ORDERS:
        doc = load_golden(str(GOLDEN_DIR), q)
        expected_cells, expected_skips = cells_for(q)
        assert [(c["n"], c["k"]) for c in doc["cells"]] == expected_cells
        assert [(s["n"], s["k"]) for s in doc["skipped"]] == [(n, k) for n, k, _ in expected_skips]
    for q in (4, 5, 7, 8, 9, 11, 13):
        doc = load_golden(str(GOLDEN_DIR), q)
        for cell in doc["cells"]:
            live = count_mds_double_twisted(EnumTask(q, cell["n"], cell["k"]))
            assert live.total_count == cell["count"], (q, cell)


@pytest.mark.table1
def test_table1_full_regeneration_matches_goldens(tmp_path):
    """Tagged long-running job: regenerate everything and compare bit-for-bit."""
    for q in FIELD_ORDERS:
        live = regenerate_order(q)
        golden = load_golden(str(GOLDEN_DIR), q)
        golden.pop("elapsed", None)
        live.pop("elapsed", None)
        assert json.dumps(live, sort_keys=True) == json.dumps(golden, sort_keys=True), q
