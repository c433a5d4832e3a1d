"""Property tests over random fields and twist layouts (Hypothesis,
derandomised, so every run draws the same examples)."""

from functools import cache

from hypothesis import assume, given, settings, strategies as st

from twistedrs.codes import (
    LinearCodeView,
    MultiTwistedCode,
    TwistProfile,
    is_mds_bruteforce,
    min_distance_bruteforce,
)
from twistedrs.criteria import theorem31_is_mds
from twistedrs.field import Field

MAX_DEGREE = {2: 9, 3: 6, 5: 4, 7: 3}  # q = p^m <= 729
MAX_LINES = 4096  # min-distance scan steps, about q^(k-1)


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
