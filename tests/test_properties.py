"""Property tests over random fields and twist layouts (Hypothesis,
derandomised, so every run draws the same examples)."""

from functools import cache

from hypothesis import assume, given, settings, strategies as st

from twistedrs.codes import (
    LinearCodeView,
    MultiTwistedCode,
    TwistProfile,
    dual_code,
    generator_matrix,
    hull_direct,
    is_mds_bruteforce,
    min_distance_bruteforce,
)
from twistedrs.criteria import (
    DOUBLE_TWIST,
    remark44_bad_eta2,
    remark44_class,
    remark44_is_mds,
    theorem31_is_mds,
    theorem42_is_mds,
)
from twistedrs.field import Field
from twistedrs.hull import construct_even, construct_odd, hull_report

MAX_DEGREE = {2: 9, 3: 6, 5: 4, 7: 3}  # q = p^m <= 729
MAX_LINES = 4096  # min-distance scan steps, about q^(k-1)
DOUBLE_TWIST_FIELDS = (7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27)
# the k <= 9 with k | q - 1 and k < q - 1 that each construction accepts
# (the odd one needs k >= 4 for a hook in 2..k-2)
EVEN_K = {16: (3, 5), 64: (3, 7, 9), 256: (3, 5)}
ODD_K = {9: (4,), 13: (4, 6), 25: (4, 6, 8), 49: (4, 6, 8), 81: (4, 5, 8)}


@cache
def _field(q: int) -> Field:
    return Field.of_order(q)


@st.composite
def twisted_codes(draw):
    p = draw(st.sampled_from(sorted(MAX_DEGREE)))
    q = p ** draw(st.integers(1, MAX_DEGREE[p]))
    ell = draw(st.integers(1, 3))
    k_max = min(q - ell, max(k for k in range(1, 6) if q ** (k - 1) <= MAX_LINES))
    assume(ell <= k_max)
    k = draw(st.integers(ell, k_max))
    n = draw(st.integers(k + ell, min(q, k + ell + 4)))  # t_ell <= n - k
    rng = draw(st.randoms(use_true_random=False))
    alpha = sorted(rng.sample(range(q), n))
    t, h = sorted(rng.sample(range(1, n - k + 1), ell)), sorted(rng.sample(range(k), ell))
    eta = draw(st.lists(st.integers(1, q - 1), min_size=ell, max_size=ell))
    return MultiTwistedCode(_field(q), TwistProfile(k, t, h, eta), alpha)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(twisted_codes())
def test_minors_theorem31_and_singleton_distance_agree(code):
    view = LinearCodeView.of_code(code)
    minors = is_mds_bruteforce(view)
    system = theorem31_is_mds(code)
    assert (minors.is_mds, minors.witness) == (system.is_mds, system.witness)
    assert (min_distance_bruteforce(view) == code.n - code.dim + 1) == minors.is_mds


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(twisted_codes())
def test_view_and_dual_have_the_rank_their_construction_proves(code):
    g = generator_matrix(code)
    assert g.rank() == code.dim
    view = LinearCodeView.of_code(code)
    h = dual_code(view).g
    assert h.rows == h.rank() == code.n - code.dim
    assert all(x == 0 for row in g.mat_mul(h.transpose()).data for x in row)
    rep = hull_report(view)
    assert rep.gram == g.mat_mul(g.transpose())
    assert (rep.hull_dim, rep.hull_basis) == hull_direct(view)


@st.composite
def double_twist_codes(draw):
    q = draw(st.sampled_from(DOUBLE_TWIST_FIELDS))
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k + 2, min(q, k + 4)))
    rng = draw(st.randoms(use_true_random=False))
    alpha = rng.sample(range(q), n)
    eta1, eta2 = draw(st.integers(1, q - 1)), draw(st.integers(1, q - 1))
    if draw(st.booleans()):  # eta2 at a zero of one k-subset's closed form, if it has one
        cls = remark44_class(_field(q), rng.sample(alpha, k), k)
        eta2 = min(remark44_bad_eta2(_field(q), [cls], eta1), default=eta2)
    return MultiTwistedCode(_field(q), TwistProfile(k, *DOUBLE_TWIST, (eta1, eta2)), alpha)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(double_twist_codes())
def test_double_twist_oracles_agree(code):
    args = (code.ctx, code.alpha, code.dim, *code.profile.eta)
    system, closed = theorem31_is_mds(code), remark44_is_mds(*args)
    assert (system.is_mds, system.witness) == (closed.is_mds, closed.witness)
    assert theorem42_is_mds(*args).is_mds == closed.is_mds
    assert is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds == closed.is_mds


@st.composite
def small_hull_codes(draw):
    even = draw(st.booleans())
    table = EVEN_K if even else ODD_K
    q = draw(st.sampled_from(sorted(table)))
    k = draw(st.sampled_from(table[q]))
    ts, hs = (range(2, k + 1), range(1, k)) if even else (range(1, k), range(2, k - 1))
    ell = draw(st.integers(1, min(3, len(hs))))
    rng = draw(st.randoms(use_true_random=False))
    t, h = sorted(rng.sample(ts, ell)), sorted(rng.sample(hs, ell))
    eta = draw(st.lists(st.integers(1, q - 1), min_size=ell, max_size=ell))
    return (construct_even if even else construct_odd)(_field(q), k, t, h, eta), k


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(small_hull_codes())
def test_constructions_keep_their_guarantees(drawn):
    code, k = drawn
    assert (code.n, code.dim) == (2 * k, k if code.ctx.p == 2 else k - 1)
    view = LinearCodeView.of_code(code)
    rep = hull_report(view)
    assert rep.hull_dim >= 1
    assert (rep.hull_dim, rep.hull_basis) == hull_direct(view)
