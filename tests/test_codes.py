"""Code construction, encoding, and the brute-force ground-truth analyzers."""

import itertools
import random
from collections import Counter
from math import comb

import pytest

from twistedrs import codes
from twistedrs.codes import (
    BudgetExceededError,
    LinearCodeView,
    MultiTwistedCode,
    TwistProfile,
    dual_code,
    encode,
    generator_matrix,
    hull_direct,
    is_mds_bruteforce,
    min_distance_bruteforce,
    subset_walk,
    twisted_poly,
)
from twistedrs.field import Field
from twistedrs.hull import construct_even, construct_odd
from twistedrs.linalg import Matrix, row_space_intersection

from helpers import laplace_det, mul_vector, submatrix


EX43_ALPHA = ("0", "a^3 + a^2", "a^3 + a^2 + a + 1", "a^3 + 1", "1")
EX32_ALPHA = ("0", "a^2", "a + 1", "a^2 + a", "a^3 + a + 1")


def ex43_code(f16, eta2="a"):
    profile = TwistProfile(3, (1, 2), (0, 1), (f16.parse("a^2 + a"), f16.parse(eta2)))
    return MultiTwistedCode(f16, profile, f16.parse_vector(EX43_ALPHA))


def rand_code(ctx, rng, n, k, ell_max=2):
    """Random valid multi-twisted code, possibly with no twists."""
    while True:
        alpha = tuple(sorted(rng.sample(range(ctx.q), n)))
        ell = rng.randint(0, ell_max)
        tmax = n - k
        if ell > min(tmax, k):
            ell = min(tmax, k)
        if ell == 0:
            return MultiTwistedCode(ctx, TwistProfile(k), alpha)
        t = tuple(sorted(rng.sample(range(1, tmax + 1), ell)))
        h = tuple(sorted(rng.sample(range(0, k), ell)))
        eta = tuple(rng.randrange(1, ctx.q) for _ in range(ell))
        return MultiTwistedCode(ctx, TwistProfile(k, t, h, eta), alpha)


# -- profiles and construction -------------------------------------------------


def test_profile_validation(f16):
    with pytest.raises(ValueError, match="strictly increasing"):
        TwistProfile(3, (2, 1), (0, 1), (1, 1))
    with pytest.raises(ValueError, match="hooks"):
        TwistProfile(3, (1, 2), (0, 3), (1, 1))
    with pytest.raises(ValueError, match="nonzero"):
        TwistProfile(3, (1,), (0,), (0,))
    with pytest.raises(ValueError, match="equal length"):
        TwistProfile(3, (1, 2), (0,), (1,))


def test_code_validation(f16):
    pr = TwistProfile(3, (1, 2), (0, 1), (1, 1))
    with pytest.raises(ValueError, match="distinct"):
        MultiTwistedCode(f16, pr, (0, 1, 1, 2, 3))
    with pytest.raises(ValueError, match="degree bound"):
        MultiTwistedCode(f16, pr, (0, 1, 2, 3))  # k-1+t_ell = 4 >= n
    with pytest.raises(ValueError, match="k < n"):
        MultiTwistedCode(f16, TwistProfile(5), (0, 1, 2, 3))


# -- twisted polynomials ---------------------------------------------------------


def test_twisted_poly_zero_message(f16):
    pr = TwistProfile(3, (1, 2), (0, 1), (2, 3))
    assert twisted_poly(f16, pr, [0, 0, 0]) == [0, 0, 0, 0, 0]


def test_twisted_poly_layout(f16):
    # k=3, t=(1,2), h=(0,1): a0 + a1 x + a2 x^2 + eta1 a0 x^3 + eta2 a1 x^4
    eta = (f16.parse("a^2"), f16.parse("a^3 + 1"))
    pr = TwistProfile(3, (1, 2), (0, 1), eta)
    msg = [f16.parse("a"), f16.parse("a + 1"), f16.parse("a^3")]
    coeffs = twisted_poly(f16, pr, msg)
    assert coeffs == [
        msg[0],
        msg[1],
        msg[2],
        f16.mul(eta[0], msg[0]),
        f16.mul(eta[1], msg[1]),
    ]


def test_twisted_poly_matches_generator(f16):
    rng = random.Random(41)
    for _ in range(30):
        code = rand_code(f16, rng, n=6, k=3)
        g = generator_matrix(code)
        msg = [rng.randrange(16) for _ in range(3)]
        assert encode(code, msg) == mul_vector(g.transpose(), msg)


def test_wrong_message_length(f16):
    code = ex43_code(f16)
    with pytest.raises(ValueError, match="length"):
        encode(code, [1, 2])


# -- generator matrix -------------------------------------------------------------


def test_plain_rs_generator_is_vandermonde(f16):
    alpha = tuple(range(1, 7))
    code = MultiTwistedCode(f16, TwistProfile(3), alpha)
    g = generator_matrix(code)
    assert g.data == [[f16.pow(x, i) for x in alpha] for i in range(3)]


def test_example_4_3_generator_rows(f16):
    code = ex43_code(f16, eta2="a")
    eta1, eta2 = code.profile.eta
    g = generator_matrix(code)
    al = code.alpha
    assert g.data[0] == [f16.add(1, f16.mul(eta1, f16.pow(x, 3))) for x in al]
    assert g.data[1] == [f16.add(x, f16.mul(eta2, f16.pow(x, 4))) for x in al]
    assert g.data[2] == [f16.pow(x, 2) for x in al]


def test_unit_messages_reproduce_rows(f16):
    rng = random.Random(43)
    for _ in range(10):
        code = rand_code(f16, rng, n=7, k=4)
        g = generator_matrix(code)
        for i in range(4):
            msg = [0] * 4
            msg[i] = f16.one
            assert encode(code, msg) == g.data[i]


def test_example_3_2_first_unit_codeword(f16):
    eta1 = f16.parse("a^3 + a^2")
    code = MultiTwistedCode(
        f16,
        TwistProfile(3, (1, 2), (0, 1), (eta1, f16.one)),
        f16.parse_vector(EX32_ALPHA),
    )
    word = encode(code, [1, 0, 0])
    assert word == [f16.add(1, f16.mul(eta1, f16.pow(x, 3))) for x in code.alpha]


def test_encode_linearity(f16):
    rng = random.Random(47)
    code = ex43_code(f16)
    ctx = f16
    for _ in range(50):
        m1 = [rng.randrange(16) for _ in range(3)]
        m2 = [rng.randrange(16) for _ in range(3)]
        s = [ctx.add(a, b) for a, b in zip(m1, m2)]
        lhs = [ctx.add(a, b) for a, b in zip(encode(code, m1), encode(code, m2))]
        assert lhs == encode(code, s)


def test_generator_always_full_rank(f16, f7):
    rng = random.Random(53)
    for ctx in (f16, f7):
        for _ in range(40):
            code = rand_code(ctx, rng, n=min(6, ctx.q - 1), k=3)
            assert generator_matrix(code).rank() == 3


def test_view_rejects_rank_deficient_generators(f7):
    # a zero row, two equal rows, and more rows than columns
    for rows in ([[1, 2, 3], [0, 0, 0]], [[1, 2, 3], [1, 2, 3]], [[1, 0], [0, 1], [1, 1]]):
        with pytest.raises(ValueError, match="generator matrix is not full rank"):
            LinearCodeView(Matrix(f7, rows))


def test_code_view_and_dual_run_no_rank_elimination(f16, monkeypatch):
    # the code's construction proves its generator's rank, and the kernel
    # basis its own, so the one elimination left is the kernel of G itself
    calls = []
    forward = Matrix.forward

    def record(ctx, m, *args):
        calls.append(list(m))
        return forward(ctx, m, *args)

    monkeypatch.setattr(Matrix, "forward", staticmethod(record))
    view = LinearCodeView.of_code(ex43_code(f16))
    assert calls == []
    assert dual_code(view).k == 2
    assert calls == [view.g.data]


def test_encode_injective_sampled(f16):
    rng = random.Random(59)
    code = ex43_code(f16)
    seen = {}
    for _ in range(200):
        msg = tuple(rng.randrange(16) for _ in range(3))
        word = tuple(encode(code, list(msg)))
        if word in seen:
            assert seen[word] == msg
        seen[word] = msg


# -- minimum distance and MDS -------------------------------------------------------


def test_plain_rs_meets_singleton(f16):
    code = MultiTwistedCode(f16, TwistProfile(3), tuple(range(5)))
    view = LinearCodeView.of_code(code)
    assert min_distance_bruteforce(view) == 3  # n - k + 1


def test_even_hull_example_distance(f16):
    code = construct_even(f16, 3, (2, 3), (1, 2), (f16.parse("a^3"), f16.parse("a^3 + a^2")))
    view = LinearCodeView.of_code(code)
    assert (view.n, view.k) == (6, 3)
    assert min_distance_bruteforce(view) == 4


def test_example_5_6_distance_budget_and_true_value(f81):
    code = construct_odd(f81, 5, (1, 2), (2, 3), (f81.parse("a^3 + a^2"), f81.parse("a")))
    view = LinearCodeView.of_code(code)
    with pytest.raises(BudgetExceededError):
        min_distance_bruteforce(view, budget=6643)  # one step short of its 6644 lines
    # independent oracle: d = n - max{|S| : rank(G_S) < k} by zero-set scan
    best = 0
    for size in range(view.n - 1, 0, -1):
        if any(
            submatrix(view.g, range(view.k), cols).rank() < view.k
            for cols in itertools.combinations(range(view.n), size)
        ):
            best = size
            break
    assert view.n - best == 5  # the claimed d = 7 is not attained
    assert min_distance_bruteforce(view) == 5  # 6643 prefixes and the last row's line
    assert not is_mds_bruteforce(view).is_mds


def test_example_4_3_is_mds(f16):
    verdict = is_mds_bruteforce(LinearCodeView.of_code(ex43_code(f16, eta2="a")))
    assert verdict.is_mds and verdict.method == "bruteforce"


def test_repeated_column_not_mds(f16):
    g = Matrix(f16, [[1, 1, 0, 2], [0, 0, 1, 3]])
    verdict = is_mds_bruteforce(LinearCodeView(g))
    assert not verdict.is_mds
    assert set(verdict.witness) == {0, 1}


def _per_subset_scan(view):
    """Reference for the prefix walk: one k x k cofactor-expansion
    determinant per column subset, in lexicographic order; (is_mds,
    lex-first singular subset)."""
    for cols in itertools.combinations(range(view.n), view.k):
        if laplace_det(view.ctx, submatrix(view.g, range(view.k), cols).data) == 0:
            return False, cols
    return True, None


def _walk_matches_scan(view):
    verdict = is_mds_bruteforce(view)
    assert (verdict.is_mds, verdict.witness) == _per_subset_scan(view)
    return verdict.is_mds


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 25, 27])
def test_prefix_walk_matches_per_subset_scan_every_k(q):
    ctx = Field.of_order(q)
    rng = random.Random(q)
    verdicts = []
    for n in range(3, min(q, 7) + 1):
        for k in range(1, n):
            for _ in range(4):
                verdicts.append(_walk_matches_scan(LinearCodeView.of_code(rand_code(ctx, rng, n, k, 3))))
    assert 0 < sum(verdicts) < len(verdicts)


def test_prefix_walk_matches_per_subset_scan_sampled():
    rng = random.Random(67)
    drawn = Counter()
    while sum(drawn.values()) < 150:
        ctx = Field.of_order(rng.choice([16, 25, 27]))
        n = rng.randint(4, 9)
        k = rng.randint(2, n - 2)
        alpha = tuple(sorted(rng.sample(range(ctx.q), n)))
        ell = rng.randint(0, min(3, k, n - k))
        t = tuple(sorted(rng.sample(range(1, n - k + 1), ell)))
        h = tuple(sorted(rng.sample(range(k), ell)))
        # eta from a few small values, so that some draws are not MDS
        eta = tuple(rng.randint(1, 4) for _ in range(ell))
        code = MultiTwistedCode(ctx, TwistProfile(k, t, h, eta), alpha)
        drawn[ell, _walk_matches_scan(LinearCodeView.of_code(code))] += 1
    assert all(drawn[ell, False] + drawn[ell, True] for ell in range(4)), drawn
    assert sum(drawn[ell, False] for ell in range(4)) >= 20, drawn


def test_prefix_walk_on_zero_repeated_and_full_columns(f4, f16):
    gens = [
        [[1, 0, 1, 1], [0, 0, 1, 2]],  # zero column 1
        [[1, 1, 0, 0], [0, 1, 1, 0]],  # zero column 3, never first in a subset
        [[1, 2, 2, 1], [0, 3, 3, 1]],  # columns 1 and 2 repeated
        [[1, 1, 1, 0, 3]],  # k = 1: only the zero column fails
        [[1, 2, 3]],
        [[1, 0, 2], [0, 1, 3], [0, 0, 1]],  # k = n
        [[1, 0, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 1, 1]],  # c4 = c0 + c2
    ]
    witnesses = []
    for rows in gens:
        view = LinearCodeView(Matrix(f4, rows))
        _walk_matches_scan(view)
        witnesses.append(is_mds_bruteforce(view).witness)
    assert witnesses == [(0, 1), (0, 3), (1, 2), (3,), None, None, (0, 2, 4)]
    rng = random.Random(5)
    for _ in range(200):  # entries from {0, 1, a}: many singular subsets
        k = rng.randint(1, 4)
        n = rng.randint(k, 7)
        rows = [[rng.choice([0, 1, 2]) for _ in range(n)] for _ in range(k)]
        if Matrix(f16, rows).rank() == k:
            _walk_matches_scan(LinearCodeView(Matrix(f16, rows)))


def test_mds_iff_singleton_distance():
    rng = random.Random(61)
    for _ in range(100):
        ctx = Field.of_order(rng.choice([5, 7, 8]))
        n = rng.randint(4, min(6, ctx.q))
        k = rng.randint(2, min(3, n - 2))
        code = rand_code(ctx, rng, n, k)
        view = LinearCodeView.of_code(code)
        d = min_distance_bruteforce(view)
        assert is_mds_bruteforce(view).is_mds == (d == n - k + 1)


def test_budget_guard(f16, monkeypatch):
    code = MultiTwistedCode(f16, TwistProfile(3), tuple(range(5)))
    view = LinearCodeView.of_code(code)
    with pytest.raises(BudgetExceededError):
        min_distance_bruteforce(view, budget=10)
    monkeypatch.setattr(codes, "DEFAULT_SCAN_BUDGET", 2)
    with pytest.raises(BudgetExceededError):
        is_mds_bruteforce(view)


def _prefix(prefix, j):
    return (*prefix, j)


def test_subset_walk_is_lex_order_with_the_prefix_state():
    """k = 0 gives the one empty subset and k > n none."""
    for n in range(8):
        for k in range(n + 2):
            want = list(itertools.combinations(range(n), k))
            assert list(subset_walk(n, k, (), _prefix)) == [(s, s) for s in want], (n, k)


@pytest.mark.parametrize("doomed", [(0,), (1, 3), (2, 3, 5), (0, 1, 2, 3), (3, 4, 5), (2,)])
def test_subset_walk_yields_a_doomed_prefix_once(doomed):
    """A prefix whose step returns None is yielded once, as its first
    completion with None; its other completions are neither yielded nor
    stepped into, and the walk goes on in lexicographic order."""
    n, k = 7, 4
    stepped = []

    def step(prefix, j):
        stepped.append((*prefix, j))
        return None if (*prefix, j) == doomed else (*prefix, j)

    first = (*doomed, *range(doomed[-1] + 1, doomed[-1] + 1 + k - len(doomed)))
    want = [
        (s, None if s == first else s)
        for s in itertools.combinations(range(n), k)
        if s[: len(doomed)] != doomed or s == first
    ]
    assert list(subset_walk(n, k, (), step)) == want
    assert not [p for p in stepped if len(p) > len(doomed) and p[: len(doomed)] == doomed]


def test_subset_walk_refuses_past_the_budget_before_any_step(monkeypatch):
    def step(state, j):
        raise AssertionError("the walk stepped")

    for n, k in ((5, 3), (7, 2), (4, 4), (6, 0)):
        budget = comb(n, k) - 1
        monkeypatch.setattr(codes, "DEFAULT_SCAN_BUDGET", budget)
        with pytest.raises(BudgetExceededError, match=rf"^C\({n},{k}\) subsets exceed the scan budget {budget}$"):
            next(subset_walk(n, k, (), step))
        monkeypatch.setattr(codes, "DEFAULT_SCAN_BUDGET", budget + 1)
        assert len(list(subset_walk(n, k, (), _prefix))) == comb(n, k)


def _message_scan_min_distance(view):
    """The literal scan: the least weight of the q^k - 1 nonzero codewords,
    each built from its message."""
    ctx = view.ctx
    rows = view.g.data
    best = view.n + 1
    for msg in itertools.product(range(ctx.q), repeat=view.k):
        word = None
        for coef, row in zip(msg, rows):
            if coef == 0:
                continue
            term = row if coef == ctx.one else [ctx.mul(coef, x) for x in row]
            word = term if word is None else [ctx.add(a, b) for a, b in zip(word, term)]
        if word is None:
            continue
        w = sum(1 for c in word if c)
        if w < best:
            best = w
            if best == 1:
                break
    return best


LINE_SCAN_SHAPES = (
    "dense", "zero column", "repeated columns", "sparse last row", "sparse middle row",
    "weight-1 row", "reed-solomon",
)


def _shaped_generator(ctx, rng, n, k, shape):
    """A random full-rank k x n generator of the given shape."""
    q = ctx.q
    if shape == "reed-solomon":  # d = n - k + 1
        alpha = rng.sample(range(q), n)
        return generator_matrix(MultiTwistedCode(ctx, TwistProfile(k), alpha))
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if shape == "zero column":
            for row in rows:
                row[rng.randrange(n)] = 0
        elif shape == "repeated columns":
            j, l = rng.sample(range(n), 2)
            for row in rows:
                row[j] = row[l]
        elif shape in ("sparse last row", "sparse middle row"):
            i = k - 1 if shape == "sparse last row" else k // 2
            rows[i] = [x if rng.random() < 0.3 else 0 for x in rows[i]]
        elif shape == "weight-1 row":  # d = 1
            i = rng.randrange(k)
            rows[i] = [0] * n
            rows[i][rng.randrange(n)] = rng.randrange(1, q)
        g = Matrix(ctx, rows)
        if g.rank() == k:
            return g


def test_min_distance_matches_message_scan():
    # the line scan against the literal scan of every message, on seeded
    # generators of each shape over GF(4) to GF(27) with 1 <= k <= 4
    rng = random.Random(83)
    seen = set()
    for q in (4, 5, 7, 8, 9, 16, 25, 27):
        ctx = Field.of_order(q)
        for k in range(1, 5):
            if q**k > 4096:
                break
            for shape in LINE_SCAN_SHAPES:
                if shape == "reed-solomon" and k >= q:
                    continue  # needs n > k distinct points
                n = rng.randint(k + 1, min(q, k + 4) if shape == "reed-solomon" else k + 4)
                view = LinearCodeView(_shaped_generator(ctx, rng, n, k, shape))
                d = min_distance_bruteforce(view)
                assert d == _message_scan_min_distance(view), (q, k, shape, view.g.data)
                seen.add((shape, d == 1, d == n - k + 1))
    assert ("weight-1 row", True, False) in seen
    assert ("reed-solomon", False, True) in seen
    assert any(not one and not mds for _, one, mds in seen)


# -- dual and hull ---------------------------------------------------------------


def test_dual_properties(f16, f5):
    rng = random.Random(67)
    for ctx in (f16, f5):
        for _ in range(25):
            code = rand_code(ctx, rng, n=5, k=2)
            view = LinearCodeView.of_code(code)
            h = dual_code(view)
            assert h.k == view.n - view.k
            prod = view.g.mat_mul(h.g.transpose())
            assert all(x == 0 for row in prod.data for x in row)
            # dual of dual spans the original row space
            assert dual_code(h).g.rref() == view.g.row_space_basis()


def test_lcd_code_has_zero_hull(f4):
    view = LinearCodeView(Matrix(f4, [[1, 0, 0], [0, 1, 0]]))  # G G^T = I_2
    gram = view.g.mat_mul(view.g.transpose())
    assert gram.is_nonsingular()
    dim, _ = hull_direct(view)
    assert dim == 0


def test_even_hull_example_has_one_dimensional_hull(f16):
    code = construct_even(f16, 3, (2, 3), (1, 2), (f16.parse("a^3"), f16.parse("a^3 + a^2")))
    view = LinearCodeView.of_code(code)
    dim, basis = hull_direct(view)
    assert dim == 1
    inter = row_space_intersection(view.g, dual_code(view).g)
    assert inter.rows == 1


def test_hull_direct_matches_gram_rank(f4, f5):
    rng = random.Random(71)
    for ctx in (f4, f5):
        for _ in range(100):
            code = rand_code(ctx, rng, n=ctx.q, k=rng.randint(1, 2))
            view = LinearCodeView.of_code(code)
            gram = view.g.mat_mul(view.g.transpose())
            dim, basis = hull_direct(view)
            assert dim == view.k - gram.rank()
            assert basis.rows == dim
