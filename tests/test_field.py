"""Field arithmetic against independent schoolbook oracles."""

import pickle
import random

import numpy as np
import pytest

from twistedrs import field
from twistedrs.field import Field, FieldSpec, default_modulus

from helpers import field_sum


# -- independent oracle: coefficient-vector arithmetic, no tables ------------


def oracle_mul(p, modulus, x, y):
    """Schoolbook polynomial product mod modulus on base-p digit vectors."""
    m = len(modulus) - 1
    xs = [(x // p**j) % p for j in range(m)]
    ys = [(y // p**j) % p for j in range(m)]
    prod = [0] * (2 * m - 1) if m > 1 else [0]
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            prod[i + j] = (prod[i + j] + a * b) % p
    for i in range(len(prod) - 1, m - 1, -1):
        f = prod[i]
        if f:
            for j, c in enumerate(modulus):
                prod[i - m + j] = (prod[i - m + j] - f * c) % p
    return sum(prod[j] * p**j for j in range(m))


def oracle_add(p, m, x, y):
    return sum((((x // p**j) + (y // p**j)) % p) * p**j for j in range(m))


def oracle_order(p, modulus, x):
    acc, n = x, 1
    while acc != 1:
        acc = oracle_mul(p, modulus, acc, x)
        n += 1
        assert n <= p ** (len(modulus) - 1)
    return n


# -- construction ------------------------------------------------------------


def test_f16_paper_field(f16):
    a = f16.a
    assert f16.pow(a, 4) == f16.add(a, f16.one)  # a^4 = a + 1
    assert f16.gamma == a
    assert f16.modulus == (1, 1, 0, 0, 1)


def test_gf2_with_x_plus_one():
    f2 = Field(FieldSpec(2, 1, (1, 1)))
    assert f2.q == 2
    assert f2.gamma == 1
    assert f2.add(1, 1) == 0
    assert f2.mul(1, 1) == 1


def test_f81_modulus_and_gamma_order(f81):
    assert f81.modulus == (2, 0, 0, 2, 1)
    assert f81.gamma == f81.a == 3
    assert oracle_order(3, (2, 0, 0, 2, 1), f81.gamma) == 80


def test_f81_gamma_powers_give_subgroup_eval_points(f81):
    pts = [f81.pow(f81.gamma, 16 * i) for i in range(1, 6)]
    pts += [f81.mul(f81.gamma, x) for x in pts]
    expect = [
        "2*a^2 + a + 2", "2*a^3 + a + 2", "2*a^2 + 2*a + 1", "a^3 + 2*a^2 + 2*a", "1",
        "2*a^3 + a^2 + 2*a", "2*a^3 + a^2 + 2*a + 2", "2*a^3 + 2*a^2 + a", "2*a^2 + 1", "a",
    ]
    assert [f81.format(x) for x in pts] == expect


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(2, 4, (1, 0, 0, 0, 1))  # x^4 + 1 = (x+1)^4
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2


def test_default_modulus_proven_once(monkeypatch):
    p, m = 3, 7
    field.is_irreducible.cache_clear()
    calls = 0
    rem = field._poly_rem

    def counting(*args):
        nonlocal calls
        calls += 1
        return rem(*args)

    monkeypatch.setattr(field, "_poly_rem", counting)
    mod = default_modulus(p, m)
    # the scan divides its irreducible pick by every monic polynomial of
    # degree <= m/2, besides the divisions that reject earlier candidates
    scan = calls
    assert scan >= sum(p**d for d in range(1, m // 2 + 1))
    spec = FieldSpec.of_order(p**m)
    assert spec.modulus == mod
    assert calls == scan  # building the spec divides by nothing more


def test_q_cap_and_bad_spec():
    with pytest.raises(ValueError, match="cap"):
        FieldSpec.of_order(2**17)
    with pytest.raises(ValueError, match="prime"):
        FieldSpec(6, 2, (1, 1, 1))
    with pytest.raises(ValueError, match="monic"):
        FieldSpec(2, 4, (1, 1, 0, 0))
    with pytest.raises(ValueError, match="prime power"):
        FieldSpec.of_order(12)


def test_smallest_index_primitive_element(f16, f81):
    for ctx in (f16, f81):
        for g in range(1, ctx.gamma):
            assert oracle_order(ctx.p, ctx.modulus, g) < ctx.q - 1


def test_default_moduli_are_irreducible_up_to_1024():
    specs = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        m = 2
        while p**m <= 1024:
            specs.append((p, m))
            m += 1
    for p, m in specs:
        ctx = Field(FieldSpec(p, m, default_modulus(p, m)))  # construction validates
        assert ctx.q == p**m
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert default_modulus(3, 4) == (2, 0, 0, 2, 1)


# -- arithmetic vs oracle ------------------------------------------------------


@pytest.mark.parametrize("q", [9, 16])
def test_full_multiplication_table_matches_schoolbook(q):
    ctx = Field.of_order(q)
    for x in range(q):
        for y in range(q):
            assert ctx.mul(x, y) == oracle_mul(ctx.p, ctx.modulus, x, y)
            assert ctx.add(x, y) == oracle_add(ctx.p, ctx.m, x, y)


def test_inverse_and_pow(f16, f81):
    for ctx in (f16, f81):
        for x in range(1, ctx.q):
            assert ctx.mul(x, ctx.inv(x)) == ctx.one
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)
        with pytest.raises(ZeroDivisionError):
            ctx.pow(0, -1)
        assert ctx.pow(0, 0) == ctx.one
        assert ctx.pow(0, 5) == 0
        x = ctx.gamma
        assert ctx.pow(x, -1) == ctx.inv(x)
        assert ctx.pow(x, ctx.q - 1) == ctx.one


def _tables(ctx):
    q = ctx.q
    add = np.empty((q, q), np.int32)
    mul = np.empty((q, q), np.int32)
    for x in range(q):
        for y in range(q):
            add[x, y] = ctx.add(x, y)
            mul[x, y] = ctx.mul(x, y)
    return add, mul


@pytest.mark.parametrize("q", [16, 81, 256])
def test_axioms_exhaustive_small_fields(q):
    """Associativity, commutativity, distributivity on every triple."""
    ctx = Field.of_order(q)
    add, mul = _tables(ctx)
    assert (add == add.T).all() and (mul == mul.T).all()
    x = np.arange(q)
    # (x+y)+z == x+(y+z) and (xy)z == x(yz), broadcast over all triples
    assert (add[add[x[:, None], x[None, :]], :] == add[x[:, None, None], add]).all()
    assert (mul[mul[x[:, None], x[None, :]], :] == mul[x[:, None, None], mul]).all()
    # x*(y+z) == x*y + x*z
    lhs = mul[x[:, None, None], add[None, :, :]]
    rhs = add[mul[x, :][:, :, None], mul[x, :][:, None, :]]
    assert (lhs == rhs).all()
    # Frobenius: (x+y)^p == x^p + y^p
    frob = np.array([ctx.pow(v, ctx.p) for v in range(q)])
    assert (frob[add] == add[frob[:, None], frob[None, :]]).all()


def test_axioms_sampled_large_field():
    ctx = Field.of_order(1024)
    rng = random.Random(7)
    for _ in range(10_000):
        x, y, z = (rng.randrange(ctx.q) for _ in range(3))
        assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
        assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
        assert ctx.add(x, y) == ctx.add(y, x)
        assert ctx.mul(x, y) == ctx.mul(y, x)


def test_gamma_has_full_order(f16, f81):
    for ctx in (f16, f81, Field.of_order(64)):
        n = ctx.q - 1
        assert ctx.pow(ctx.gamma, n) == ctx.one
        for d in range(1, n):
            if n % d == 0:
                assert ctx.pow(ctx.gamma, d) != ctx.one



# -- log tables and addition vs oracle, small and large q ----------------------

SMALL_PRIME_POWERS = [
    p**m for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for m in range(2, 11) if p**m <= 1024
]
# the six large fields, each with its smallest-index primitive element
LARGE_FIELDS = [(4096, 3), (6561, 38), (50653, 75), (59049, 34), (65521, 17), (65536, 3)]


def _check_walk(ctx, indices):
    for i in indices:
        assert ctx._exp[i + 1] == oracle_mul(ctx.p, ctx.modulus, ctx._exp[i], ctx.gamma)
    assert all(ctx._log[ctx._exp[i]] == i for i in range(ctx.q - 1))
    assert all(ctx._exp[ctx._log[x]] == x for x in range(1, ctx.q))


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS + [2, 3, 7, 17, 1021])
def test_log_tables_follow_gamma_exhaustive(q):
    ctx = Field.of_order(q)
    _check_walk(ctx, range(ctx.q - 1))


@pytest.mark.parametrize("q, gamma", LARGE_FIELDS)
def test_log_tables_follow_gamma_sampled(q, gamma):
    ctx = Field.of_order(q)
    assert ctx.gamma == gamma
    rng = random.Random(q)
    _check_walk(ctx, [rng.randrange(q - 1) for _ in range(2000)])


def _check_add(ctx, pairs):
    p, m = ctx.p, ctx.m
    for x, y in pairs:
        s = oracle_add(p, m, x, y)
        assert ctx.add(x, y) == s
        assert ctx.sub(s, y) == x
        assert oracle_add(p, m, y, ctx.neg(y)) == 0


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81, 243])
def test_add_neg_sub_exhaustive_odd(q):
    ctx = Field.of_order(q)
    _check_add(ctx, [(x, y) for x in range(q) for y in range(q)])


@pytest.mark.parametrize("q", [q for q, _ in LARGE_FIELDS])
def test_add_neg_sub_sampled_large(q):
    ctx = Field.of_order(q)
    rng = random.Random(q + 1)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    _check_add(ctx, pairs)
    # no lookup table holds more than q entries, Zech's table two periods of
    # q - 1, and the state pickles
    assert len(ctx._add_table) ** 2 <= q and len(ctx._neg) <= q
    assert len(ctx._zech) <= 2 * (q - 1)
    twin = pickle.loads(pickle.dumps(ctx))
    assert [twin.add(x, y) for x, y in pairs] == [ctx.add(x, y) for x, y in pairs]


# -- row kernels against the scalar definitions ---------------------------------


def _check_row_kernels(ctx, rows, scalars):
    """add_scaled and dot on each (xs, ys) row pair, for each c in scalars,
    against the scalar add, mul and sum."""
    for xs, ys in rows:
        assert ctx.dot(xs, ys) == field_sum(ctx, (ctx.mul(x, y) for x, y in zip(xs, ys)))
        for c in scalars:
            want = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(xs, ys)]
            got = ctx.add_scaled(xs, c, ys)
            assert got == want and got is not xs


@pytest.mark.parametrize("q", [2, 4, 5, 9, 16, 25, 27])
def test_row_kernels_exhaustive(q):
    ctx = Field.of_order(q)
    every = range(q)
    # one row pair holds every (x, y), so each c meets every triple (x, c, y)
    xs = [x for x in every for _ in every]
    ys = [y for _ in every for y in every]
    rows = [(xs, ys), ([0] * q, list(every)), (list(every), [0] * q), ([], [])]
    rows += [([x], [y]) for x in every for y in every]
    _check_row_kernels(ctx, rows, every)


@pytest.mark.parametrize("q", [243, 729, 65536])
def test_row_kernels_sampled(q):
    ctx = Field.of_order(q)
    rng = random.Random(q + 2)
    rows = [([], []), ([0] * 9, [rng.randrange(q) for _ in range(9)])]
    for _ in range(300):
        size = rng.randint(1, 12)
        rows.append(tuple([rng.randrange(q) for _ in range(size)] for _ in range(2)))
    _check_row_kernels(ctx, rows, [0, 1, q - 1] + [rng.randrange(1, q) for _ in range(5)])


@pytest.mark.parametrize("q", [81, 6561, 15625])
def test_row_kernels_cancel_through_the_zech_sentinel(q):
    """x + c*y = 0 reads the entry of Zech's table at gamma^d = -1, the only
    sum that is 0.  With n = q - 1 its index log c + log y - log x is -n/2,
    n/2 or 3n/2 as log c + log y lies below n/2, below 3n/2 or above, so
    every case is drawn; in dot the first two terms cancel, and the sum
    restarts from 0 on the rest of the row."""
    ctx = Field.of_order(q)
    n = q - 1
    assert len(ctx._zech) <= 2 * n and ctx._zech.count(-1) == 2
    rng = random.Random(q + 3)
    cases = []
    for lo, hi in ((0, n // 2 - 1), (n // 2, 3 * n // 2 - 1), (3 * n // 2, 2 * n - 2)):
        for _ in range(20):
            t = rng.randint(lo, hi)
            lc = rng.randint(max(0, t - (n - 1)), min(n - 1, t))
            c, y = ctx.pow(ctx.gamma, lc), ctx.pow(ctx.gamma, t - lc)
            cases.append((ctx.neg(ctx.mul(c, y)), c, y))
    log = ctx._log
    assert {log[c] + log[y] - log[x] for x, c, y in cases} == {-n // 2, n // 2, 3 * n // 2}
    twin = pickle.loads(pickle.dumps(ctx))
    for x, c, y in cases:
        assert ctx.add_scaled([x], c, [y]) == [0]
        assert ctx.dot([x, c], [1, y]) == 0
        tail = [[rng.randrange(q) for _ in range(6)] for _ in range(2)]
        rows = [([x] + tail[0], [y] + tail[1]), ([x, c] + tail[0], [1, y] + tail[1])]
        _check_row_kernels(ctx, rows, [c])
        for xs, ys in rows:
            assert twin.add_scaled(xs, c, ys) == ctx.add_scaled(xs, c, ys)
            assert twin.dot(xs, ys) == ctx.dot(xs, ys)


@pytest.mark.parametrize("q", [4096, 65536])
def test_table_build_takes_few_schoolbook_products(q, monkeypatch):
    calls = 0
    schoolbook = Field._mul_schoolbook

    def counting(self, x, y):
        nonlocal calls
        calls += 1
        return schoolbook(self, x, y)

    monkeypatch.setattr(Field, "_mul_schoolbook", counting)
    Field.of_order(q)
    assert calls < 1000


# -- subfields -----------------------------------------------------------------


def test_prime_subfield_trivial(f16):
    assert f16.is_in_subfield(0, 2)
    assert f16.is_in_subfield(1, 2)


def test_f4_inside_f16_is_closed(f16):
    members = f16.subfield_elements(4)
    assert len(members) == 4
    assert set(members) >= {0, 1}
    for x in members:
        for y in members:
            assert f16.add(x, y) in members
            assert f16.mul(x, y) in members
    assert not f16.is_in_subfield(f16.a, 4)  # the generator is not in F4
    assert f16.pow(f16.a, 4) != f16.a


def test_bad_subfield_order(f16):
    with pytest.raises(ValueError, match="subfield order"):
        f16.is_in_subfield(1, 8)  # 8 = 2^3, 3 does not divide 4
    with pytest.raises(ValueError, match="subfield order"):
        f16.is_in_subfield(1, 3)


def test_subfield_membership_count(f81):
    assert len(f81.subfield_elements(9)) == 9
    assert len(f81.subfield_elements(3)) == 3


# -- parse / format -------------------------------------------------------------


def test_parse_paper_example(f16):
    x = f16.parse("a^3 + a^2 + 1")
    assert f16.coeffs(x) == (1, 0, 1, 1)
    assert f16.parse("0") == 0
    assert f16.parse("1") == f16.one


def test_parse_reduces_high_exponents(f16):
    assert f16.parse("a^4") == f16.parse("a + 1")
    assert f16.parse("a^15") == f16.one


def test_parse_odd_char_coefficients(f81):
    assert f81.parse("2*a^3 + a + 2") == f81.parse("2a^3+a+2")
    x = f81.parse("2*a^2 + a + 2")
    assert f81.coeffs(x) == (2, 1, 2, 0)


def test_parse_errors(f16):
    for bad in ("a^", "b + 1", "a**2", "2 a +", ""):
        with pytest.raises(ValueError):
            f16.parse(bad)


def test_parse_vector_refuses_a_bare_integer_at_least_p():
    # a string item is a polynomial in a, so "7" over GF(25) would be the
    # constant 2, not the element with index 7
    f25 = Field.of_order(25)
    for bad in ("7", " 5", "10"):
        with pytest.raises(ValueError) as err:
            f25.parse_vector(["1", bad])
        c = int(bad)
        assert f"constant {c} mod 5 = {c % 5}" in str(err.value)
        assert f"element index {c}" in str(err.value)
    with pytest.raises(ValueError, match="constant 7 mod 7 = 0"):
        Field.of_order(7).parse_vector(["7"])
    # a bare integer below p, a polynomial (its coefficients reduced mod p)
    # and an integer index keep their readings
    assert f25.parse_vector(["4", "7*a + 2", 7, "a^7"]) == (
        4, f25.parse("2*a + 2"), 7, f25.pow(f25.a, 7)
    )


def test_format_parse_round_trip_all_elements(f16, f81):
    for ctx in (f16, f81):
        for x in range(ctx.q):
            assert ctx.parse(ctx.format(x)) == x


def test_random_string_fuzz_round_trip(f16, f81):
    rng = random.Random(11)
    for _ in range(500):
        ctx = f16 if rng.random() < 0.5 else f81
        nterms = rng.randint(1, 5)
        terms = []
        for _ in range(nterms):
            c = rng.randint(0, ctx.p + 3)
            e = rng.randint(0, 9)
            var = "" if e == 0 else ("a" if e == 1 else f"a^{e}")
            if var and c != 1:
                terms.append(f"{c}*{var}" if rng.random() < 0.5 else f"{c}{var}")
            elif var:
                terms.append(var)
            else:
                terms.append(str(c))
        s = " + ".join(terms) if rng.random() < 0.5 else "+".join(terms)
        x = ctx.parse(s)
        assert ctx.parse(ctx.format(x)) == x  # canonical form is a fixed point

