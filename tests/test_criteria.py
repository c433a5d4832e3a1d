"""Structural MDS criteria against the brute-force oracle and the published
determinant listing."""

import itertools
import random
import re
from collections import Counter

import pytest

from twistedrs import codes
from twistedrs.codes import (
    BudgetExceededError,
    LinearCodeView,
    MdsVerdict,
    MultiTwistedCode,
    TwistProfile,
    is_mds_bruteforce,
)
from twistedrs.criteria import (
    _elem_sym_walk,
    appendix_a_determinants,
    elem_sym,
    forbidden_eta_sets,
    mds_system_matrix,
    remark44_bad_eta2,
    remark44_class,
    remark44_is_mds,
    remark44_mds_etas,
    sigma_coeffs,
    subfield_chain_construct,
    theorem31_is_mds,
    theorem42_is_mds,
)
from twistedrs.field import Field
from twistedrs.linalg import Matrix

from helpers import field_prod, field_sum, laplace_det


EX32_ALPHA = ("0", "a^2", "a + 1", "a^2 + a", "a^3 + a + 1")
EX32_ETA1 = "a^3 + a^2"
EX32_ETA2S = ("1", "a^2 + 1", "a^2 + a + 1", "a^3", "a^3 + a^2", "a^3 + a^2 + a")

# Published determinant listing for the k=3, n=5 double-twist layout over
# GF(16), one row of ten values per eta2 above.
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


def ex32_code(f16, eta2):
    profile = TwistProfile(3, (1, 2), (0, 1), (f16.parse(EX32_ETA1), f16.parse(eta2)))
    return MultiTwistedCode(f16, profile, f16.parse_vector(EX32_ALPHA))


def oracle_expand(ctx, alphas):
    """Independent monic-product expansion by repeated convolution."""
    coeffs = [ctx.one]
    for a in alphas:
        shifted = [0] + coeffs
        scaled = [ctx.mul(ctx.neg(a), c) for c in coeffs] + [0]
        coeffs = [ctx.add(x, y) for x, y in zip(shifted, scaled)]
    return coeffs


# -- sigma coefficients ------------------------------------------------------------


def test_sigma_single_root_at_zero(f16):
    assert sigma_coeffs(f16, [0]) == [0, 1]


def test_sigma_monic_and_constant_term(f16):
    rng = random.Random(73)
    for _ in range(30):
        vals = rng.sample(range(16), 3)
        s = sigma_coeffs(f16, vals)
        assert s[3] == f16.one
        assert s[0] == f16.mul(f16.sign(3), field_prod(f16, vals))
        if 0 in vals:
            assert s[0] == 0


def test_sigma_matches_expansion_oracle(f16, f81):
    vals = [0, f16.parse("a^2"), f16.parse("a + 1")]
    assert sigma_coeffs(f16, vals) == oracle_expand(f16, vals)
    rng = random.Random(79)
    for ctx in (f16, f81):
        for _ in range(30):
            vals = rng.sample(range(ctx.q), rng.randint(1, 5))
            assert sigma_coeffs(ctx, vals) == oracle_expand(ctx, vals)


def test_elem_sym_ties_to_sigma(f16, f81):
    rng = random.Random(83)
    for ctx in (f16, f81):
        for _ in range(30):
            vals = rng.sample(range(ctx.q), rng.randint(1, 5))
            s = sigma_coeffs(ctx, vals)
            e = elem_sym(ctx, vals)
            n = len(vals)
            for j in range(n + 1):
                assert e[j] == ctx.mul(ctx.sign(j), s[n - j])


# -- the subset system ----------------------------------------------------------------


def test_system_matrix_matches_published_2x2_layout(f16):
    """For t=(1,2), h=(0,1) the system equals the published D*A+B matrix
    with rows and columns both reversed."""
    for eta2 in EX32_ETA2S:
        code = ex32_code(f16, eta2)
        e1, e2 = code.profile.eta
        for subset in itertools.combinations(range(5), 3):
            s = sigma_coeffs(f16, [code.alpha[i] for i in subset])
            m = mds_system_matrix(code, subset)
            d = [f16.inv(e2), f16.inv(e1)]
            published = Matrix(
                f16,
                [
                    [f16.sub(d[0], s[0]), f16.neg(s[1])],
                    [f16.mul(d[1], s[2]), f16.sub(d[1], s[0])],
                ],
            )
            flipped = Matrix(f16, [list(reversed(m.data[1])), list(reversed(m.data[0]))])
            assert flipped == published


def test_system_matrix_requires_twists(f16):
    code = MultiTwistedCode(f16, TwistProfile(3), tuple(range(5)))
    with pytest.raises(ValueError, match="plain RS"):
        mds_system_matrix(code, (0, 1, 2))


def test_system_matrix_refuses_a_subset_that_is_not_k_positions(f7):
    # a repeated point, a negative index, an index past n and a wrong size
    code = MultiTwistedCode(f7, TwistProfile(2, (1, 2), (0, 1), (1, 1)), (1, 2, 3, 4))
    for subset in ((0, 0), (-1, 0), (0, 9), (0,), (0, 1, 2)):
        with pytest.raises(ValueError, match=r"is not k = 2 distinct positions in range\(4\)"):
            mds_system_matrix(code, subset)
    assert mds_system_matrix(code, (3, 0)).rows == 2


def test_theorem31_example_3_2_all_six(f16):
    for eta2 in EX32_ETA2S:
        assert theorem31_is_mds(ex32_code(f16, eta2)).is_mds


def test_theorem31_plain_rs_short_circuit(f16):
    code = MultiTwistedCode(f16, TwistProfile(3), tuple(range(5)))
    v = theorem31_is_mds(code)
    assert v.is_mds and v.method == "theorem31"


def test_theorem31_agrees_with_bruteforce_on_random_codes():
    """Random layouts with up to three twists, over prime fields and odd and
    even prime powers up to GF(27)."""
    rng = random.Random(89)
    checked = 0
    drawn = Counter()
    while checked < 500:
        q = rng.choice([7, 8, 9, 11, 13, 25, 27])
        ctx = Field.of_order(q)
        n = rng.randint(4, min(8, q))
        k = rng.randint(2, 5)
        if k + 1 >= n:
            continue
        ell = rng.randint(1, 3)
        tmax = n - k
        if ell > min(tmax, k):
            continue
        t = tuple(sorted(rng.sample(range(1, tmax + 1), ell)))
        h = tuple(sorted(rng.sample(range(0, k), ell)))
        eta = tuple(rng.randrange(1, q) for _ in range(ell))
        alpha = tuple(sorted(rng.sample(range(q), n)))
        code = MultiTwistedCode(ctx, TwistProfile(k, t, h, eta), alpha)
        v1 = theorem31_is_mds(code)
        v2 = is_mds_bruteforce(LinearCodeView.of_code(code))
        assert v1.is_mds == v2.is_mds
        if not v1.is_mds:
            assert v1.witness == v2.witness  # both scan subsets lexicographically
        checked += 1
        drawn["ell3"] += ell == 3
        drawn["q25_27"] += q in (25, 27)
    assert drawn["ell3"] >= 30 and drawn["q25_27"] >= 50, drawn


def test_theorem31_finds_singular_system_for_bad_eta(f7):
    """Search a deliberately bad eta, confirm non-MDS by brute force and a
    singular subset system."""
    alpha = (0, 1, 2, 3, 4)
    found = None
    for eta1 in range(1, 7):
        for eta2 in range(1, 7):
            code = MultiTwistedCode(f7, TwistProfile(3, (1, 2), (0, 1), (eta1, eta2)), alpha)
            if not is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds:
                found = code
                break
        if found:
            break
    assert found is not None
    v = theorem31_is_mds(found)
    assert not v.is_mds
    assert not mds_system_matrix(found, v.witness).is_nonsingular()


def test_elem_sym_walk_is_lex_order_with_elem_sym(f7):
    rng = random.Random(97)
    for ctx in (f7, Field.of_order(9)):
        for n in range(6):
            values = rng.sample(range(ctx.q), n)
            for k in range(n + 2):
                want = [(s, elem_sym(ctx, [values[i] for i in s])) for s in itertools.combinations(range(n), k)]
                assert list(_elem_sym_walk(ctx, values, k)) == want


def _det_scan(code):
    """Theorem 3.1 subset by subset: the lex-first k-subset whose system has
    determinant 0, by cofactor expansion rather than the walk's elimination."""
    for subset in itertools.combinations(range(code.n), code.dim):
        if laplace_det(code.ctx, mds_system_matrix(code, subset).data) == 0:
            return MdsVerdict(False, "theorem31", subset)
    return MdsVerdict(True, "theorem31")


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_theorem31_walk_matches_per_subset_determinants(q):
    """The walk's verdict and witness against a plain lex scan of
    determinants, for every k and ell <= 3 that fit in GF(q) (n >= k + ell
    and ell <= k hooks), half the draws with 0 among the points.  Draws
    then go on until one code's witness is the first subset and another's
    the last, so both ends of the walk are checked."""
    ctx = Field.of_order(q)
    rng = random.Random(f"theorem31-walk/{q}")
    layouts = [(ell, k) for ell in (1, 2, 3) for k in range(ell, q - ell + 1)]
    seen = Counter()

    def check(ell, k, n, with_zero):
        t = tuple(sorted(rng.sample(range(1, n - k + 1), ell)))
        h = tuple(sorted(rng.sample(range(k), ell)))
        alpha = rng.sample(range(1, q), n - 1) + [0] if with_zero else rng.sample(range(q), n)
        rng.shuffle(alpha)
        code = MultiTwistedCode(ctx, TwistProfile(k, t, h, [rng.randrange(1, q) for _ in t]), alpha)
        want = _det_scan(code)
        assert theorem31_is_mds(code) == want, code
        seen["mds" if want.is_mds else "not"] += 1
        seen["first"] += want.witness == tuple(range(k))
        seen["last"] += want.witness == tuple(range(n - k, n))

    for ell, k in layouts:
        for draw in range(6):
            check(ell, k, rng.randint(k + ell, q), draw % 2 == 0)
    for draw in range(1000):
        if seen["first"] and seen["last"]:
            break
        ell, k = rng.choice(layouts)
        check(ell, k, k + ell, draw % 2 == 0)
    assert seen["first"] and seen["last"] and seen["mds"] and seen["not"], seen
    assert {ell for ell, _ in layouts} == ({1, 2} if q < 6 else {1, 2, 3})


# -- published determinant listing ------------------------------------------------------


def test_appendix_determinants_match_published_multisets(f16):
    for eta2, expected in APPENDIX_A.items():
        dets = appendix_a_determinants(ex32_code(f16, eta2))
        assert len(dets) == 10
        assert all(d != 0 for d in dets)
        assert Counter(f16.format(d) for d in dets) == Counter(expected)


def test_appendix_determinants_match_literal_formula():
    # the published matrix, built literally from the expansion oracle's sigmas
    rng = random.Random(97)
    for q in (7, 8, 16, 81):
        ctx = Field.of_order(q)
        for _ in range(40):
            alpha = tuple(rng.sample(range(q), 5))
            eta1, eta2 = rng.randrange(1, q), rng.randrange(1, q)
            code = MultiTwistedCode(ctx, TwistProfile(3, (1, 2), (0, 1), (eta1, eta2)), alpha)
            expect = []
            for subset in itertools.combinations(range(5), 3):
                s = oracle_expand(ctx, [alpha[i] for i in subset])
                d = Matrix(ctx, [[ctx.inv(eta2), 0], [0, ctx.inv(eta1)]])
                a = Matrix(ctx, [[ctx.one, 0], [s[2], ctx.one]])
                b = Matrix(ctx, [[ctx.neg(s[0]), ctx.neg(s[1])], [0, ctx.neg(s[0])]])
                expect.append(d.mat_mul(a).add(b).det())
            assert appendix_a_determinants(code) == expect


def test_appendix_determinants_wrong_shape(f16):
    code = MultiTwistedCode(f16, TwistProfile(3, (1, 2), (0, 1), (1, 1)), tuple(range(6)))
    with pytest.raises(ValueError, match="n = 5"):
        appendix_a_determinants(code)


# -- subfield chains ----------------------------------------------------------------------


def test_chain_too_small_base_field(f16):
    # F2 has only two elements, so three distinct points cannot exist in it
    with pytest.raises(ValueError, match="outside the base subfield"):
        subfield_chain_construct(
            f16, (2, 4, 16), (0, 1, f16.parse("a")), 1, (1, 2), (0, 0), (1, 1)
        )


def test_chain_f4_f16_f256_is_mds():
    ctx = Field.of_order(256)
    alpha = tuple(ctx.subfield_elements(4))
    assert len(alpha) == 4
    eta1 = next(x for x in range(1, 256) if ctx.is_in_subfield(x, 16) and not ctx.is_in_subfield(x, 4))
    eta2 = next(x for x in range(1, 256) if not ctx.is_in_subfield(x, 16))
    code = subfield_chain_construct(ctx, (4, 16, 256), alpha, 2, (1, 2), (0, 1), (eta1, eta2))
    assert is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds


def test_chain_single_twist_f4_f16(f16):
    alpha = tuple(f16.subfield_elements(4))
    eta = next(x for x in range(1, 16) if not f16.is_in_subfield(x, 4))
    code = subfield_chain_construct(f16, (4, 16), alpha, 2, (1,), (0,), (eta,))
    assert is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds


def test_chain_membership_violations(f16):
    alpha = tuple(f16.subfield_elements(4))
    inside = next(x for x in range(2, 16) if f16.is_in_subfield(x, 4))
    with pytest.raises(ValueError, match="lies inside"):
        subfield_chain_construct(f16, (4, 16), alpha, 2, (1,), (0,), (inside,))
    with pytest.raises(ValueError, match="strictly increasing"):
        subfield_chain_construct(f16, (16, 16), alpha, 2, (1,), (0,), (2,))
    with pytest.raises(ValueError, match="ambient"):
        subfield_chain_construct(f16, (2, 4), (0, 1), 1, (1,), (0,), (2,))
    with pytest.raises(ValueError, match="ell \\+ 1 field orders"):
        subfield_chain_construct(f16, (16,), alpha, 2, (1,), (0,), (2,))
    # a is outside F_4, so it cannot be eta_1 of the chain F_2 < F_4 < F_16
    with pytest.raises(ValueError, match="^eta_1 = a is outside F_4$"):
        subfield_chain_construct(f16, (2, 4, 16), (0, 1), 1, (1, 2), (0, 0), (f16.parse("a"), 1))


# -- double-twist closed forms -----------------------------------------------------------


def test_forbidden_eta1_for_k1(f7):
    """Hooks (0, 1) need k >= 2, so k = 1 is no double-twist code; like
    k = 0 and k = n + 1, the exclusions refuse it as theorem42_is_mds
    does, with the same message."""
    alpha = (1, 2, 3, 4)
    for k in (0, 1, 5):
        with pytest.raises(ValueError) as want:
            theorem42_is_mds(f7, alpha, k, 1, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            forbidden_eta_sets(f7, alpha, k, 1)


def test_forbidden_eta_sets_at_k2(f7):
    alpha = (1, 2, 3, 4)
    eta1_excl, eta2_excl = forbidden_eta_sets(f7, alpha, 2, eta2=1)
    # product condition: each pair {x, y} excludes eta1 = 1/(xy)
    assert {f7.inv(f7.mul(x, y)) for x, y in itertools.combinations(alpha, 2)} <= eta1_excl
    # each single point {x} excludes eta2 = -1/x^2
    assert eta2_excl == {f7.neg(f7.inv(f7.mul(x, x))) for x in alpha}


def test_forbidden_eta1_set_never_holds_zero(f7):
    """eta1 = 0 is no twist, so the eta1 set leaves out the 0 that the
    rational condition takes where its numerator vanishes."""
    eta1_excl, _ = forbidden_eta_sets(f7, (1, 2, 3, 4), 2, eta2=1)
    assert eta1_excl == set(range(1, 7))
    for ctx in (f7, Field.of_order(8)):
        for alpha in itertools.combinations(range(ctx.q), 5):
            for k in (2, 3):
                for eta2 in range(1, ctx.q):
                    eta1_excl, eta2_excl = forbidden_eta_sets(ctx, alpha, k, eta2)
                    assert 0 not in eta1_excl and 0 not in eta2_excl


def test_forbidden_eta_sets_refuse_bad_input(f7):
    """Points pass the records' checks (9 is not read as 2 over GF(7)),
    and eta2 must be a nonzero field element: 0 fails the profile's
    check and 7 the code's, as in the other double-twist criteria."""
    for alpha, message in (((1, 1, 2, 3), "distinct"), ((1, 2, 3, 9), "outside the field")):
        with pytest.raises(ValueError, match=message):
            forbidden_eta_sets(f7, alpha, 2, 1)
    for eta2, message in ((0, "every eta_i must be nonzero"), (7, "every eta_i must be a nonzero field element")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            forbidden_eta_sets(f7, (1, 2, 3, 4), 2, eta2)


def test_forbidden_eta_sets_refuse_past_the_scan_budget(f7, monkeypatch):
    alpha = (1, 2, 3, 4, 5)
    want = forbidden_eta_sets(f7, alpha, 3, 1)
    monkeypatch.setattr(codes, "DEFAULT_SCAN_BUDGET", 9)
    with pytest.raises(BudgetExceededError, match=r"^C\(5,3\) subsets exceed the scan budget 9$"):
        forbidden_eta_sets(f7, alpha, 3, 1)
    monkeypatch.setattr(codes, "DEFAULT_SCAN_BUDGET", 10)
    assert forbidden_eta_sets(f7, alpha, 3, 1) == want


def test_example_4_3_avoids_every_exclusion(f16):
    alpha = f16.parse_vector(("0", "a^3 + a^2", "a^3 + a^2 + a + 1", "a^3 + 1", "1"))
    eta1 = f16.parse("a^2 + a")
    for eta2s in ("1", "a", "a^2 + a", "a^3", "a^3 + a", "a^3 + a^2"):
        eta2 = f16.parse(eta2s)
        eta1_excl, eta2_excl = forbidden_eta_sets(f16, alpha, 3, eta2)
        assert eta1 not in eta1_excl
        assert eta2 not in eta2_excl


def test_pairs_outside_exclusions_pass_remark44(f7):
    # every 5-point alpha over GF(7), those containing 0 included
    k = 3
    accepted = 0
    for alpha in itertools.combinations(range(7), 5):
        # at these eta2 the rational eta1 exclusion is undefined for some subset
        nonzero = [x for x in alpha if x]
        guards = {f7.div(f7.sign(k), field_prod(f7, vals)) for vals in itertools.combinations(nonzero, k)}
        for eta2 in range(1, 7):
            eta1_excl, eta2_excl = forbidden_eta_sets(f7, alpha, k, eta2)
            if eta2 in eta2_excl or eta2 in guards:
                continue
            for eta1 in range(1, 7):
                if eta1 in eta1_excl:
                    continue
                accepted += 1
                assert remark44_is_mds(f7, alpha, k, eta1, eta2).is_mds
    assert accepted


def test_remark44_example_4_3(f16):
    alpha = f16.parse_vector(("0", "a^3 + a^2", "a^3 + a^2 + a + 1", "a^3 + 1", "1"))
    eta1 = f16.parse("a^2 + a")
    for eta2s in ("1", "a", "a^2 + a", "a^3", "a^3 + a", "a^3 + a^2"):
        assert remark44_is_mds(f16, alpha, 3, eta1, f16.parse(eta2s)).is_mds


def _closed_form(ctx, vals, k, eta1, eta2):
    """Remark 4.4's 1 - eta1 (-1)^k e_k + eta2 (-1)^k (e_{k-1} e_1 - e_k)
    + eta1 eta2 e_k^2 for one k-subset, written out from elem_sym."""
    e, s = elem_sym(ctx, vals), ctx.sign(k)
    expr = ctx.sub(ctx.one, ctx.mul(eta1, ctx.mul(s, e[k])))
    expr = ctx.add(expr, ctx.mul(eta2, ctx.mul(s, ctx.sub(ctx.mul(e[k - 1], e[1]), e[k]))))
    return ctx.add(expr, ctx.mul(ctx.mul(eta1, eta2), ctx.mul(e[k], e[k])))


def test_remark44_zero_subset_collapse(f7):
    # when the subset contains 0 the product terms vanish and the
    # expression reduces to 1 + eta2 (-1)^k e_{k-1} e_1; the bad eta2 of
    # the subset's class are exactly the zeros of the written-out form
    k = 3
    vals = (0, 2, 5)
    e = elem_sym(f7, vals)
    cls = remark44_class(f7, vals, k)
    for eta1 in range(1, 7):
        bad = remark44_bad_eta2(f7, [cls], eta1)
        for eta2 in range(1, 7):
            expr = _closed_form(f7, vals, k, eta1, eta2)
            reduced = f7.add(
                f7.one, f7.mul(eta2, f7.mul(f7.sign(k), f7.mul(e[k - 1], e[1])))
            )
            assert expr == reduced
            assert (eta2 in bad) == (expr == 0)


def test_theorem42_example_4_3(f16):
    alpha = f16.parse_vector(("0", "a^3 + a^2", "a^3 + a^2 + a + 1", "a^3 + 1", "1"))
    eta1 = f16.parse("a^2 + a")
    for eta2s in ("1", "a", "a^2 + a", "a^3", "a^3 + a", "a^3 + a^2"):
        assert theorem42_is_mds(f16, alpha, 3, eta1, f16.parse(eta2s)).is_mds


def test_theorem42_direct_condition_iii_violation(f7):
    # alpha contains 0 and eta2 = (-1)^(k-1) / (sum * prod) over J_{k-1}
    alpha = (0, 1, 2, 3)
    k = 2
    bad_eta2 = f7.mul(f7.sign(1), f7.inv(f7.mul(1, 1)))  # J_1 = {1}: -1/(1*1) = 6
    v = theorem42_is_mds(f7, alpha, k, 1, bad_eta2)
    assert not v.is_mds
    assert not is_mds_bruteforce(
        LinearCodeView.of_code(
            MultiTwistedCode(f7, TwistProfile(k, (1, 2), (0, 1), (1, bad_eta2)), alpha)
        )
    ).is_mds


def _quad_oracle_scan(ctx, alpha, k):
    """All four verdicts for every eta pair on one evaluation vector."""
    for eta1 in range(1, ctx.q):
        for eta2 in range(1, ctx.q):
            code = MultiTwistedCode(
                ctx, TwistProfile(k, (1, 2), (0, 1), (eta1, eta2)), alpha
            )
            bf = is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds
            t31 = theorem31_is_mds(code).is_mds
            r44 = remark44_is_mds(ctx, alpha, k, eta1, eta2).is_mds
            t42 = theorem42_is_mds(ctx, alpha, k, eta1, eta2).is_mds
            assert bf == t31 == r44 == t42, (alpha, eta1, eta2, bf, t31, r44, t42)


def test_four_way_agreement_exhaustive_f5(f5):
    for alpha in itertools.combinations(range(5), 4):
        _quad_oracle_scan(f5, alpha, 2)


def test_four_way_agreement_f7_samples(f7):
    _quad_oracle_scan(f7, (0, 1, 2, 3, 4), 3)
    _quad_oracle_scan(f7, (1, 2, 3, 4, 6), 3)


# MDS (eta1, eta2) pairs of the double-twist code on alpha = all of GF(q), k = 2,
# at every prime power q <= 49: q - 1 for p >= 5, (q - 1)/2 for p = 3, 0 for p = 2
FULL_LENGTH_K2_PAIRS = {
    4: 0, 5: 4, 7: 6, 8: 0, 9: 4, 11: 10, 13: 12, 16: 0, 17: 16, 19: 18, 23: 22, 25: 24,
    27: 13, 29: 28, 31: 30, 32: 0, 37: 36, 41: 40, 43: 42, 47: 46, 49: 48,
}


@pytest.mark.parametrize("q", sorted(FULL_LENGTH_K2_PAIRS))
def test_full_length_k2_diagonal_is_family_1(q):
    """README, "Full-length k = 2 codes": at eta1 = eta2 = eta the closed
    form of a pair {a, b} is (1 + a^2 eta)(1 + b^2 eta), so (eta, eta) is
    MDS on alpha = GF(q) exactly when -1/eta is a non-square, which no eta
    is in characteristic 2 (family 1).  Every other hit is
    (eta1, eta1/9) with -1/eta1 a non-square, and each such pair is a hit
    when p >= 5 (family 2); p = 3 has none, since 9 = 0 there."""
    ctx = Field.of_order(q)
    squares = {ctx.mul(y, y) for y in range(1, q)}
    family_1 = {eta for eta in range(1, q) if ctx.neg(ctx.inv(eta)) not in squares}
    nine = field_sum(ctx, [ctx.one] * 9)
    if q <= 13:
        for a, b in itertools.combinations(range(q), 2):
            for eta in range(1, q):
                factors = [ctx.add(ctx.one, ctx.mul(ctx.mul(x, x), eta)) for x in (a, b)]
                assert _closed_form(ctx, [a, b], 2, eta, eta) == ctx.mul(*factors)
            # the proof of family 2: at eta1 = -1/c, eta2 = eta1/9, 9 c^2 times
            # the form is (a^2 - c) b^2 + 8ac b + (9c^2 - a^2 c)
            for eta in family_1 if ctx.p >= 5 else ():
                c, a2 = ctx.neg(ctx.inv(eta)), ctx.mul(a, a)
                form = _closed_form(ctx, [a, b], 2, eta, ctx.div(eta, nine))
                terms = [
                    ctx.mul(ctx.sub(a2, c), ctx.mul(b, b)),
                    field_sum(ctx, [ctx.mul(ctx.mul(a, c), b)] * 8),
                    ctx.mul(c, ctx.sub(ctx.mul(nine, c), a2)),
                ]
                assert ctx.mul(ctx.mul(nine, ctx.mul(c, c)), form) == field_sum(ctx, terms)
    hits = list(remark44_mds_etas(ctx, range(q), 2))
    assert {e1 for e1, e2 in hits if e1 == e2} == family_1
    assert len(family_1) == (0 if q % 2 == 0 else (q - 1) // 2)
    family_2 = {(eta, ctx.div(eta, nine)) for eta in family_1} if ctx.p >= 5 else set()
    assert {(e1, e2) for e1, e2 in hits if e1 != e2} == family_2
    assert len(hits) == FULL_LENGTH_K2_PAIRS[q]


def test_double_twist_criteria_refuse_values_outside_the_field(f7):
    # eta -1 (read as 6 by negative indexing) or 7, points outside GF(7) or
    # repeated: no criterion answers and the code is not built
    alpha = (0, 1, 2, 3, 4)
    # n = k + 1 breaks the degree bound k + 1 < n that the code's record
    # checks, so the criteria refuse it as check-mds does
    cases = [
        (alpha, (-1, 2)),
        (alpha, (7, 2)),
        ((0, 1, 2, 3, 9), (1, 2)),
        ((1, 1, 2, 3, 4), (1, 2)),
        ((0, 1, 2, 3), (1, 2)),
    ]
    for points, eta in cases:
        for criterion in (remark44_is_mds, theorem42_is_mds):
            with pytest.raises(ValueError):
                criterion(f7, points, 3, *eta)
    with pytest.raises(ValueError, match="degree bound"):
        list(remark44_mds_etas(f7, (0, 1, 2, 3), 3))
    for eta in ((-1, 1), (7, 1), (1, -1)):
        with pytest.raises(ValueError, match="nonzero field element"):
            MultiTwistedCode(f7, TwistProfile(3, (1, 2), (0, 1), eta), range(5))


def test_mds_etas_refuse_past_the_scan_budget(f7, monkeypatch):
    with pytest.raises(BudgetExceededError, match=r"^C\(40,20\) subsets exceed the scan budget 10000000$"):
        next(remark44_mds_etas(Field.of_order(41), range(1, 41), 20))
    # at the budget the classes of all C(5,3) = 10 subsets are computed
    monkeypatch.setattr(codes, "DEFAULT_SCAN_BUDGET", 10)
    assert len(list(remark44_mds_etas(f7, range(5), 3))) == 9
    monkeypatch.setattr(codes, "DEFAULT_SCAN_BUDGET", 9)
    with pytest.raises(BudgetExceededError, match=r"C\(5,3\) subsets"):
        next(remark44_mds_etas(f7, range(5), 3))


_SCANS = {
    "minors": lambda code: is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds,
    "theorem31": lambda code: theorem31_is_mds(code).is_mds,
    "remark44": lambda code: remark44_is_mds(code.ctx, code.alpha, code.dim, *code.profile.eta).is_mds,
    "theorem42": lambda code: theorem42_is_mds(code.ctx, code.alpha, code.dim, *code.profile.eta).is_mds,
    "mds_etas": lambda code: code.profile.eta in set(remark44_mds_etas(code.ctx, code.alpha, code.dim)),
}


@pytest.mark.parametrize("scan", sorted(_SCANS))
@pytest.mark.parametrize("alpha", [range(5), range(1, 6)])
def test_every_subset_scan_shares_one_budget(f7, monkeypatch, scan, alpha):
    """All five k-subset scans refuse a code whose C(n, k) subsets exceed
    the scan budget by one, with one message, and decide it at the budget.
    With 0 among the points Theorem 4.2 scans C(4,3) + C(4,2) = C(5,3)."""
    want = {}
    for eta in ((2, 1), (3, 5), (6, 2)):
        code = MultiTwistedCode(f7, TwistProfile(3, (1, 2), (0, 1), eta), alpha)
        want[eta] = is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds
        monkeypatch.setattr(codes, "DEFAULT_SCAN_BUDGET", 9)
        with pytest.raises(BudgetExceededError, match=r"^C\(5,3\) subsets exceed the scan budget 9$"):
            _SCANS[scan](code)
        monkeypatch.setattr(codes, "DEFAULT_SCAN_BUDGET", 10)
        assert _SCANS[scan](code) == want[eta]
        monkeypatch.undo()
    assert set(want.values()) == {True, False}


def test_four_way_agreement_sampled_prime_powers():
    # seeded codes over GF(8), GF(9), GF(16), GF(25) and GF(27) with
    # 2 <= k <= 5 and n <= k + 3; half of the eta pairs are drawn at a zero
    # of some k-subset's closed form, so that each field yields both verdicts
    rng = random.Random(29)
    for q in (8, 9, 16, 25, 27):
        ctx = Field.of_order(q)
        seen = set()
        for draw in range(100):
            k = rng.randint(2, 5)
            n = rng.randint(k + 2, min(k + 3, q))
            alpha = tuple(rng.sample(range(q), n))
            eta1, eta2 = rng.randrange(1, q), rng.randrange(1, q)
            while draw % 2:
                eta1, vals = rng.randrange(1, q), rng.sample(alpha, k)
                zeros = [e for e in range(1, q) if _closed_form(ctx, vals, k, eta1, e) == 0]
                if zeros:
                    eta2 = rng.choice(zeros)
                    break
            code = MultiTwistedCode(ctx, TwistProfile(k, (1, 2), (0, 1), (eta1, eta2)), alpha)
            bf = is_mds_bruteforce(LinearCodeView.of_code(code)).is_mds
            t31 = theorem31_is_mds(code).is_mds
            r44 = remark44_is_mds(ctx, alpha, k, eta1, eta2).is_mds
            t42 = theorem42_is_mds(ctx, alpha, k, eta1, eta2).is_mds
            assert bf == t31 == r44 == t42, (q, alpha, k, eta1, eta2, bf, t31, r44, t42)
            seen.add(bf)
        assert seen == {True, False}, q
