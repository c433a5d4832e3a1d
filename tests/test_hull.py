"""Hull dimensions, power sums, and the two constructive families."""

import random
from functools import partial

import pytest

from twistedrs import codes, criteria, enumeration, hull
from twistedrs.codes import LinearCodeView, MultiTwistedCode, TwistProfile, generator_matrix, hull_direct
from twistedrs.criteria import theorem31_is_mds
from twistedrs.cli import cli_main
from twistedrs.codes import min_distance_bruteforce
from twistedrs.enumeration import search_mds
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
from twistedrs.profiles import load_profile

from helpers import blocks_generator, field_sum, naive_kernel


def strings(ctx, m):
    return [[ctx.format(x) for x in row] for row in m.data]


def even_example(f16):
    return construct_even(f16, 3, (2, 3), (1, 2), (f16.parse("a^3"), f16.parse("a^3 + a^2")))


def odd_example(f81):
    return construct_odd(f81, 5, (1, 2), (2, 3), (f81.parse("a^3 + a^2"), f81.parse("a")))


# -- power sums ---------------------------------------------------------------


def test_theta_char2_reduction(f16):
    assert power_sum_theta(f16, 3, 3) == f16.one  # 3 mod 2
    assert power_sum_theta(f16, 3, 1) == 0
    assert power_sum_theta(f16, 3, 0) == f16.one


def test_theta_closed_form_vs_literal_f81(f81):
    subgroup = [f81.pow(f81.gamma, 16 * i) for i in range(1, 6)]
    for m in range(81):
        expect = (5 % 3) if m % 5 == 0 else 0
        assert power_sum_theta(f81, 5, m) == expect
        assert field_sum(f81, (f81.pow(x, m) for x in subgroup)) == expect


def test_theta_bad_subgroup_order(f16):
    with pytest.raises(ValueError, match="divide"):
        power_sum_theta(f16, 4, 1)


# -- subgroup evaluation vectors -------------------------------------------------


def test_subgroup_eval_even_example_points(f16):
    alpha = subgroup_eval(f16, 3)
    expect = ["a^2 + a", "a^2 + a + 1", "1", "a^3 + a^2", "a^3 + a^2 + a", "a"]
    assert [f16.format(x) for x in alpha] == expect


def test_subgroup_eval_points_are_distinct():
    # gamma lies outside the order-k subgroup when k < q - 1, so the two
    # copies are disjoint
    for q in (4, 7, 9, 16, 25, 64, 81):
        ctx = Field.of_order(q)
        for k in range(1, q - 1):
            if (q - 1) % k == 0:
                assert len(set(subgroup_eval(ctx, k))) == 2 * k, (q, k)


def test_subgroup_eval_rejects_full_group(f16):
    with pytest.raises(ValueError, match="coincide"):
        subgroup_eval(f16, 15)
    with pytest.raises(ValueError, match="divide"):
        subgroup_eval(f16, 4)


# -- hull reports -------------------------------------------------------------------


def test_self_orthogonal_toy_code():
    f2 = Field.of_order(2)
    view = LinearCodeView(Matrix(f2, [[1, 1]]))
    rep = hull_report(view)
    assert rep.gram_rank == 0
    assert rep.hull_dim == view.k == 1


def test_even_example_hull(f16):
    rep = hull_report(LinearCodeView.of_code(even_example(f16)))
    assert rep.gram_rank == 2
    assert rep.hull_dim == 1


def test_odd_example_hull(f81):
    rep = hull_report(LinearCodeView.of_code(odd_example(f81)))
    assert rep.gram_rank == 3
    assert rep.hull_dim == 1


def test_hull_correspondence_random_codes():
    rng = random.Random(97)
    for q in (4, 5, 7, 9, 25, 27):
        ctx = Field.of_order(q)
        for _ in range(70):
            n = rng.randint(3, min(q, 7))
            k = rng.randint(1, n - 1)
            while True:
                g = Matrix(ctx, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
                if g.rank() == k:
                    break
            view = LinearCodeView(g)
            rep = hull_report(view)
            assert (rep.hull_dim, rep.hull_basis) == hull_direct(view)
            assert rep.gram_rank == rep.gram.rank() == k - rep.hull_dim
            assert 0 <= rep.hull_dim <= min(k, n - k)


def test_gram_kernels_at_bench_sizes_match_naive_gauss_jordan():
    """hull_report and hull_direct share Matrix.null_space, so the Gram
    kernel is checked against textbook Gauss-Jordan: a 20 x 20 Gram of an
    [40, 20] one-twist code over GF(243), and the singular Grams of two
    odd-q constructions over GF(243), 10 x 10 and 21 x 21."""
    f243 = Field.of_order(243)
    rng = random.Random(243)
    ell1 = MultiTwistedCode(
        f243, TwistProfile(20, (2,), (rng.randrange(20),), (rng.randrange(1, 243),)), rng.sample(range(243), 40)
    )
    codes_ = [ell1, construct_odd(f243, 11, (1, 3), (2, 5), (7, 90)), construct_odd(f243, 22, (4,), (9,), (131,))]
    shapes = []
    for code in codes_:
        rep = hull_report(LinearCodeView.of_code(code))
        kern = rep.gram.null_space()
        assert kern.data == naive_kernel(f243, rep.gram.data, rep.gram.cols)
        assert kern.rows == rep.hull_dim
        shapes.append((rep.gram.rows, rep.hull_dim > 0))
    assert shapes[0][0] == 20 and shapes[1:] == [(10, True), (21, True)]


# -- the even-q family ----------------------------------------------------------------


def test_even_example_component_matrices(f16):
    gp = gram_decomposition(even_example(f16))
    assert strings(f16, gp.a_one) == [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
    assert strings(f16, gp.a_gamma) == [["1", "0", "0"], ["0", "0", "a^3"], ["0", "a^3", "0"]]
    assert strings(f16, gp.b_one) == [
        ["0", "0", "0"],
        ["0", "0", "a^3 + a"],
        ["0", "a^3 + a", "0"],
    ]
    # the printed B_gamma B_gamma^T has a stray 1 in its (1,1) corner that
    # contradicts the printed sums; the computed matrix is asserted instead
    assert strings(f16, gp.b_gamma) == [["0", "0", "0"], ["0", "0", "a^3"], ["0", "a^3", "0"]]


def test_even_example_printed_sums(f16):
    gp = gram_decomposition(even_example(f16))
    assert strings(f16, gp.aat_sum) == [
        ["0", "0", "0"],
        ["0", "0", "a^3 + 1"],
        ["0", "a^3 + 1", "0"],
    ]
    assert strings(f16, gp.bbt_sum) == [["0", "0", "0"], ["0", "0", "a"], ["0", "a", "0"]]
    assert strings(f16, gp.cross) == [["0", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]
    g = generator_matrix(even_example(f16))
    assert gp.total == g.mat_mul(g.transpose())


def test_even_example_parameters(f16):
    code = even_example(f16)
    view = LinearCodeView.of_code(code)
    assert (view.n, view.k) == (6, 3)
    assert min_distance_bruteforce(view) == 4
    assert theorem31_is_mds(code).is_mds


def test_construct_even_preconditions(f16, f81):
    eta = (f16.parse("a"),)
    with pytest.raises(ValueError, match="characteristic 2"):
        construct_even(f81, 5, (2,), (1,), (3,))
    with pytest.raises(ValueError, match="t_1 > 1"):
        construct_even(f16, 3, (1, 2), (1, 2), (1, 1))
    with pytest.raises(ValueError, match="h_1 > 0"):
        construct_even(f16, 3, (2, 3), (0, 1), (1, 1))
    with pytest.raises(ValueError, match="divide"):
        construct_even(f16, 4, (2,), (1,), eta)
    with pytest.raises(ValueError, match="coincide"):
        construct_even(f16, 15, (2,), (1,), eta)
    with pytest.raises(ValueError, match="n - k"):
        construct_even(f16, 3, (2, 4), (1, 2), (1, 1))
    with pytest.raises(ValueError, match="k > 1"):
        construct_even(f16, 1, (2,), (1,), eta)
    with pytest.raises(ValueError, match="at least one twist"):
        construct_even(f16, 3, (), (), ())


def _random_even_params(ctx, rng, k):
    ell = rng.randint(1, min(2, k - 1))
    t = tuple(sorted(rng.sample(range(2, k + 1), ell)))
    h = tuple(sorted(rng.sample(range(1, k), ell)))
    eta = tuple(rng.randrange(1, ctx.q) for _ in range(ell))
    return t, h, eta


def test_construct_even_random_draws_have_hull(f16):
    rng = random.Random(101)
    f64 = Field.of_order(64)
    for _ in range(60):
        ctx, k = rng.choice([(f16, 3), (f16, 5), (f64, 3), (f64, 7), (f64, 9)])
        t, h, eta = _random_even_params(ctx, rng, k)
        code = construct_even(ctx, k, t, h, eta)
        g = generator_matrix(code)
        assert g == blocks_generator(code)
        gp = gram_decomposition(code)
        assert gp.total == g.mat_mul(g.transpose())
        view = LinearCodeView.of_code(code)
        rep = hull_report(view)
        assert (rep.hull_dim, rep.hull_basis) == hull_direct(view)
        assert rep.hull_dim >= 1
        assert rep.gram_rank <= k - 1
        assert all(x == 0 for x in gp.bbt_sum.data[0])  # h_1 > 0
        assert all(x == 0 for x in gp.cross.data[0])  # t_1 > 1


def test_even_aat_closed_form(f16):
    code = even_example(f16)
    gp = gram_decomposition(code)
    k = 3
    for beta, mat in ((f16.one, gp.a_one), (f16.gamma, gp.a_gamma)):
        for r in range(k):
            for c in range(k):
                expect = f16.mul(k % 2, f16.pow(beta, r + c)) if (r + c) % k == 0 else 0
                assert mat.data[r][c] == expect


# -- the odd-q family ------------------------------------------------------------------


def test_odd_example_component_matrices(f81):
    gp = gram_decomposition(odd_example(f81))
    z = "0"
    assert strings(f81, gp.a_one) == [
        ["2", z, z, z],
        [z, z, z, z],
        [z, z, z, "2"],
        [z, z, "2", z],
    ]
    assert strings(f81, gp.a_gamma) == [
        ["2", z, z, z],
        [z, z, z, z],
        [z, z, z, "2*a^3 + 2*a + 2"],
        [z, z, "2*a^3 + 2*a + 2", z],
    ]
    assert strings(f81, gp.b_one) == [
        [z, z, z, z],
        [z, z, z, z],
        [z, z, "2*a^3 + 2*a^2 + 2", z],
        [z, z, z, z],
    ]
    assert strings(f81, gp.b_gamma) == [
        [z, z, z, z],
        [z, z, z, z],
        [z, z, "a^3 + a^2", z],
        [z, z, z, z],
    ]


def test_odd_example_printed_sums(f81):
    gp = gram_decomposition(odd_example(f81))
    z = "0"
    assert strings(f81, gp.aat_sum) == [
        ["1", z, z, z],
        [z, z, z, z],
        [z, z, z, "2*a^3 + 2*a + 1"],
        [z, z, "2*a^3 + 2*a + 1", z],
    ]
    assert strings(f81, gp.bbt_sum) == [
        [z, z, z, z],
        [z, z, z, z],
        [z, z, "2", z],
        [z, z, z, z],
    ]
    assert strings(f81, gp.cross) == [
        [z, z, "a", z],
        [z, z, z, z],
        ["a", z, z, z],
        [z, z, z, z],
    ]


def test_odd_example_parameters(f81):
    view = LinearCodeView.of_code(odd_example(f81))
    assert (view.n, view.k) == (10, 4)


def test_odd_generator_equals_shifted_profile(f81):
    code = odd_example(f81)
    assert code.profile == TwistProfile(4, (2, 3), (2, 3), code.profile.eta)
    rebuilt = MultiTwistedCode(f81, code.profile, code.alpha)
    assert generator_matrix(rebuilt) == generator_matrix(code)


def test_construct_odd_preconditions(f16, f81):
    with pytest.raises(ValueError, match="odd characteristic"):
        construct_odd(f16, 3, (1,), (2,), (1,))
    with pytest.raises(ValueError, match="h_1 > 1"):
        construct_odd(f81, 5, (1, 2), (1, 2), (1, 1))
    with pytest.raises(ValueError, match="k - 2"):
        construct_odd(f81, 5, (1, 2), (2, 4), (1, 1))
    with pytest.raises(ValueError, match="t_ell < k"):
        construct_odd(f81, 5, (4, 5), (2, 3), (1, 1))
    with pytest.raises(ValueError, match="k > 2"):
        construct_odd(f81, 2, (1,), (2,), (1,))
    with pytest.raises(ValueError, match="at least one twist"):
        construct_odd(f81, 5, (), (), ())


def _random_odd_params(ctx, rng, k):
    ell = rng.randint(1, min(2, k - 3 if k > 3 else 1))
    t = tuple(sorted(rng.sample(range(1, k), ell)))
    h = tuple(sorted(rng.sample(range(2, k - 1), ell)))
    eta = tuple(rng.randrange(1, ctx.q) for _ in range(ell))
    return t, h, eta


def test_construct_odd_random_draws_have_hull():
    rng = random.Random(103)
    f9 = Field.of_order(9)
    f25 = Field.of_order(25)
    f81 = Field.of_order(81)
    for _ in range(60):
        ctx, k = rng.choice([(f9, 4), (f25, 4), (f25, 6), (f81, 5), (f81, 8)])
        t, h, eta = _random_odd_params(ctx, rng, k)
        code = construct_odd(ctx, k, t, h, eta)
        g = generator_matrix(code)
        assert g == blocks_generator(code)
        gp = gram_decomposition(code)
        assert gp.total == g.mat_mul(g.transpose())
        view = LinearCodeView.of_code(code)
        rep = hull_report(view)
        assert (rep.hull_dim, rep.hull_basis) == hull_direct(view)
        assert rep.hull_dim >= 1
        assert rep.gram_rank <= k - 2
        assert all(x == 0 for x in gp.cross.data[1])  # t_ell < k
        assert all(x == 0 for x in gp.bbt_sum.data[0])  # h_1 > 1
        assert all(x == 0 for x in gp.bbt_sum.data[1])


def test_gram_parts_sum_on_random_constructions(f16):
    rng = random.Random(107)
    f9 = Field.of_order(9)
    for _ in range(50):
        if rng.random() < 0.5:
            code = construct_even(f16, 5, *_random_even_params(f16, rng, 5))
        else:
            code = construct_odd(f9, 4, *_random_odd_params(f9, rng, 4))
        gp = gram_decomposition(code)
        g = generator_matrix(code)
        assert g == blocks_generator(code)
        assert gp.total == g.mat_mul(g.transpose())


def test_gram_decomposition_requires_provenance(f16):
    code = MultiTwistedCode(f16, TwistProfile(2), (0, 1, 2))
    with pytest.raises(ValueError, match="doubled multiplicative subgroup"):
        gram_decomposition(code)


def test_gram_decomposition_reads_the_code(tmp_path, capsys, f16, f81):
    """A code equal to a constructed one, rebuilt from its parts or loaded
    from the construct-* JSON, has the same block decomposition; the same
    profile on other points has none."""
    cases = [
        (even_example(f16), ["--q", "16", "--k", "3", "--t", "2,3", "--h", "1,2", "--eta", "a^3,a^3+a^2"]),
        (odd_example(f81), ["--q", "81", "--k", "5", "--t", "1,2", "--h", "2,3", "--eta", "a^3+a^2,a"]),
    ]
    for (code, flags), command in zip(cases, ("construct-even", "construct-odd")):
        assert cli_main([command, *flags]) == 0
        path = tmp_path / f"{command}.json"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        parts = gram_decomposition(code)
        for same in (MultiTwistedCode(code.ctx, code.profile, code.alpha), load_profile(str(path))):
            assert same == code
            assert gram_decomposition(same) == parts
            assert blocks_generator(same) == generator_matrix(code)
        half = code.n // 2
        for alpha in (code.alpha[half:] + code.alpha[:half], tuple(range(code.n))):
            other = MultiTwistedCode(code.ctx, code.profile, alpha)
            for call in (gram_decomposition, blocks_generator):
                with pytest.raises(ValueError, match="doubled multiplicative subgroup"):
                    call(other)
    # n/2 = 4 does not divide 15: refused before subgroup_eval is asked
    with pytest.raises(ValueError, match="doubled multiplicative subgroup"):
        gram_decomposition(MultiTwistedCode(f16, TwistProfile(3), tuple(range(8))))


def test_mds_and_hull_combination_even(f16):
    """Whenever the subset criterion accepts a constructed code, the
    distance meets the Singleton bound and the hull stays nontrivial."""
    rng = random.Random(109)
    hits = 0
    for _ in range(40):
        t, h, eta = _random_even_params(f16, rng, 3)
        code = construct_even(f16, 3, t, h, eta)
        view = LinearCodeView.of_code(code)
        rep = hull_report(view)
        assert rep.hull_dim >= 1
        if theorem31_is_mds(code).is_mds:
            hits += 1
            assert min_distance_bruteforce(view) == view.n - view.k + 1
    assert hits > 0  # the combination is nonempty in this range


# -- the oracles stay in the tests ---------------------------------------------------------


def test_calls_do_not_run_their_oracles(f7, f16, f81, monkeypatch):
    """hull_report, the constructors, gram_decomposition, power_sum_theta and
    search_mds give the same answers with every oracle made to raise."""
    even_args = (f16, 3, (2, 3), (1, 2), (f16.parse("a^3"), f16.parse("a^3 + a^2")))
    odd_args = (f81, 5, (1, 2), (2, 3), (f81.parse("a^3 + a^2"), f81.parse("a")))
    built = [construct_even(*even_args), construct_odd(*odd_args)]
    systematic = Matrix(f7, [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 2, 3], [0, 0, 1, 1, 4, 2]])
    views = [LinearCodeView(systematic)] + [LinearCodeView.of_code(c) for c in built]
    reports = [hull_report(v) for v in views]
    parts = [gram_decomposition(c) for c in built]
    thetas = [power_sum_theta(f81, 5, m) for m in range(12)]
    searches = [
        partial(search_mds, f7, 5, 3, alpha=(0, 1, 2, 3, 5)),
        partial(search_mds, f7, 5, 3, strategy="random", seed=5, trials=100),
        partial(search_mds, f16, 6, 3, t=(2, 3), h=(1, 2), strategy="random", seed=1, trials=30),
    ]
    hits = [list(search()) for search in searches]
    assert all(hits)

    def oracle(*args, **kw):
        raise AssertionError("a library call ran its oracle")

    # the block layout's oracle, blocks_generator, lives in the tests, so
    # gram_decomposition cannot reach it; the package's own oracles are patched
    for mod in (codes, criteria, enumeration, hull):
        for name in ("hull_direct", "forbidden_eta_sets", "generator_matrix"):
            monkeypatch.setattr(mod, name, oracle, raising=False)
    assert [hull_report(v) for v in views] == reports
    again = [construct_even(*even_args), construct_odd(*odd_args)]
    assert again == built
    assert [gram_decomposition(c) for c in again] == parts
    assert [list(search()) for search in searches] == hits
    with monkeypatch.context() as mp:
        mp.setattr(Field, "add", oracle)  # the literal sum, field_sum, adds
        mp.setattr(Field, "pow", oracle)
        with pytest.raises(AssertionError, match="ran its oracle"):
            field_sum(f81, [f81.one, f81.one])
        assert [power_sum_theta(f81, 5, m) for m in range(12)] == thetas
