"""Exact linear algebra against Laplace-expansion and set-enumeration oracles."""

import copy
import itertools
import random

import pytest

from twistedrs.field import Field
from twistedrs.linalg import Matrix, row_space_intersection

from helpers import identity, laplace_det, minor_rank, mul_vector, naive_kernel, naive_rref


def rand_matrix(ctx, rng, rows, cols):
    return Matrix(ctx, [[rng.randrange(ctx.q) for _ in range(cols)] for _ in range(rows)])


def low_rank_rows(ctx, rng, rows, cols, r):
    """A rows x cols product of random rows x r and r x cols factors, so of
    rank at most r, summed with scalar field operations."""
    a = [[rng.randrange(ctx.q) for _ in range(r)] for _ in range(rows)]
    b = [[rng.randrange(ctx.q) for _ in range(cols)] for _ in range(r)]
    out = [[0] * cols for _ in range(rows)]
    for i, j, t in itertools.product(range(rows), range(cols), range(r)):
        out[i][j] = ctx.add(out[i][j], ctx.mul(a[i][t], b[t][j]))
    return out


def shaped_draws(ctx, rng, count, max_side=5):
    """Seeded matrices of every shape up to max_side x max_side: in turn a
    uniform draw, a rank-deficient product, and a draw from {0, 1}."""
    for draw in range(count):
        nr, nc = rng.randint(1, max_side), rng.randint(1, max_side)
        if draw % 3 == 0:
            yield [[rng.randrange(ctx.q) for _ in range(nc)] for _ in range(nr)]
        elif draw % 3 == 1:
            yield low_rank_rows(ctx, rng, nr, nc, rng.randint(0, max(0, min(nr, nc) - 1)))
        else:
            yield [[rng.choice((0, 1)) for _ in range(nc)] for _ in range(nr)]


def test_permutation_like_matrix_rank(f16):
    m = Matrix(f16, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert m.rank() == 3
    assert m.is_nonsingular()


def test_identity(f16):
    m = identity(f16, 4)
    assert m.rank() == 4
    assert m.det() == f16.one
    assert m.rref() == m


def test_rank_matches_minor_oracle_over_f7(f7):
    rng = random.Random(3)
    for _ in range(200):
        m = rand_matrix(f7, rng, 6, 6)
        r = m.rank()
        mr = minor_rank(f7, m.data, cap=4)
        if r <= 4:
            assert mr == r
        else:
            assert mr == 4


@pytest.mark.parametrize("q", [7, 16, 9, 27])
def test_det_matches_laplace(q):
    """det against cofactor expansion over GF(p), GF(2^m) and GF(p^m) with
    p odd (Zech add_scaled), on uniform and rank-deficient square draws."""
    ctx = Field.of_order(q)
    rng = random.Random(5)
    zeros = 0
    for draw in range(90):
        n = rng.randint(1, 5)
        if draw % 3 == 0:
            rows = low_rank_rows(ctx, rng, n, n, rng.randrange(n))
        else:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        want = laplace_det(ctx, rows)
        assert Matrix(ctx, rows).det() == want, rows
        zeros += want == 0
    assert zeros >= 30


@pytest.mark.parametrize("q", [7, 9, 16, 27])
def test_rank_matches_minor_oracle_on_every_shape(q):
    """rank against the largest nonzero minor on rectangular and
    rank-deficient matrices up to 5 x 5, every rank from 0 up reached."""
    ctx = Field.of_order(q)
    rng = random.Random(f"minor-rank/{q}")
    seen = set()
    for rows in shaped_draws(ctx, rng, 150):
        want = minor_rank(ctx, rows, cap=5)
        assert Matrix(ctx, rows).rank() == want, rows
        seen.add(want)
    assert seen == set(range(6))


@pytest.mark.parametrize("q", [16, 7, 25, 27])
def test_rref_kernel_and_row_basis_match_naive_gauss_jordan(q):
    """rref, null_space and row_space_basis against textbook Gauss-Jordan
    with scalar operations, on seeded rectangular and rank-deficient
    matrices up to 6 x 6 and on the empty matrix."""
    ctx = Field.of_order(q)
    rng = random.Random(f"naive-rref/{q}")
    for rows in shaped_draws(ctx, rng, 120, max_side=6):
        m = Matrix(ctx, rows)
        want, pivots = naive_rref(ctx, rows)
        assert m.rref().data == want, rows
        assert m.row_space_basis().data == want[: len(pivots)], rows
        assert m.null_space().data == naive_kernel(ctx, rows, m.cols), rows
    empty = Matrix(ctx, [])
    assert (empty.rref().data, empty.row_space_basis().data, empty.null_space().data) == ([], [], [])


def _kernel_edge_shapes(ctx, rng):
    """Matrices whose shape back-substitution is sensitive to, each with
    random nonzero entries where the shape leaves them free."""
    def nz():
        return rng.randrange(1, ctx.q)

    def rand(nr, nc):
        return [[rng.randrange(ctx.q) for _ in range(nc)] for _ in range(nr)]

    yield from ([[0] * nc for _ in range(nr)] for nr, nc in [(1, 1), (1, 5), (3, 1), (3, 4), (4, 3)])
    for nc in (1, 2, 6):  # 1 x n
        yield rand(1, nc)
        yield [[0] * (nc - 1) + [nz()]]
    for nr in (1, 2, 6):  # n x 1
        yield rand(nr, 1)
        yield [[0] for _ in range(nr - 1)] + [[nz()]]
    for _ in range(4):
        rows = rand(5, 6)  # zero rows on top, between and below the others
        for i in rng.sample(range(5), 2):
            rows[i] = [0] * 6
        yield rows
        lead = rng.randint(1, 4)  # zero columns before the first pivot
        yield [[0] * lead + r for r in rand(rng.randint(1, 4), rng.randint(1, 4))]
    # pivot rows whose other nonzeros lie on free columns only: echelon rows
    # over pivots 0, 2, 5 with entries off the pivots only on columns 1, 3, 4, 6
    for _ in range(4):
        rows = [[0] * 7 for _ in range(3)]
        for r, c in enumerate((0, 2, 5)):
            rows[r][c] = nz()
            for f in (1, 3, 4, 6):
                if f > c:
                    rows[r][f] = rng.randrange(ctx.q)
        yield rows
        yield rows[::-1]  # the same rows bottom-up, so the forward pass swaps
    yield [[nz(), 0, 0, nz()], [0, 0, 0, nz()]]  # a zero-column gap between pivots


@pytest.mark.parametrize("q", [2, 7, 16, 81])
def test_kernel_on_edge_shapes_matches_naive_gauss_jordan(q):
    ctx = Field.of_order(q)
    rng = random.Random(f"kernel-shapes/{q}")
    shapes = 0
    for rows in _kernel_edge_shapes(ctx, rng):
        m = Matrix(ctx, rows)
        kern = m.null_space()
        assert kern.data == naive_kernel(ctx, rows, m.cols), rows
        assert all(x == 0 for v in kern.data for x in mul_vector(m, v)), rows
        shapes += 1
    assert shapes == 34


def _forced_singular(ctx, rng, rows):
    """Three singular copies of a square matrix of size >= 2: a row repeated,
    a column zeroed, and a row replaced by a combination of the others."""
    n = len(rows)
    i, j = rng.sample(range(n), 2)
    repeated = [list(r) for r in rows]
    repeated[i] = list(rows[j])
    col = rng.randrange(n)
    zero_col = [[0 if c == col else x for c, x in enumerate(r)] for r in rows]
    combo = [list(r) for r in rows]
    combo[i] = [0] * n
    for r in range(n):
        if r != i:
            combo[i] = ctx.add_scaled(combo[i], rng.randrange(ctx.q), rows[r])
    return repeated, zero_col, combo


@pytest.mark.parametrize("q", [16, 7, 25])
def test_is_nonsingular_matches_rank_and_det(q):
    """is_nonsingular, rank() == rows and det() != 0 against a nonzero
    cofactor-expansion determinant over GF(2^m), GF(p) and GF(p^m) with p
    odd, on seeded square matrices of size 0 to 5 (half with entries 0 and
    1 alone, so many are singular) and on forced singular ones; it leaves
    its matrix as it was.  The three share one elimination pass, so the
    oracle is the determinant by expansion, not each other."""
    ctx = Field.of_order(q)
    rng = random.Random(f"nonsingular/{q}")
    seen = set()
    for size in range(6):
        for draw in range(40):
            pool = range(q) if draw % 2 else (0, 1)
            rows = [[rng.choice(pool) for _ in range(size)] for _ in range(size)]
            cases = [rows] + (list(_forced_singular(ctx, rng, rows)) if size >= 2 else [])
            for case in cases:
                m = Matrix(ctx, case)
                want = laplace_det(ctx, case) != 0
                assert m.is_nonsingular() == want == (m.rank() == size) == (m.det() != 0), case
                assert m.data == case
                seen.add((size, want))
            assert not any(Matrix(ctx, c).is_nonsingular() for c in cases[1:])
    assert seen >= {(size, want) for size in range(1, 6) for want in (True, False)}
    assert Matrix(ctx, []).is_nonsingular()


def test_is_nonsingular_refuses_non_square(f5, f16):
    for ctx in (f5, f16):
        for rows, cols in ((1, 2), (2, 1), (2, 3), (3, 2), (4, 5)):
            m = Matrix(ctx, [[ctx.one if i == j else 0 for j in range(cols)] for i in range(rows)])
            assert m.rank() == min(rows, cols)
            assert not m.is_nonsingular()


def test_det_multiplicative(f7, f16):
    rng = random.Random(9)
    for ctx in (f7, f16):
        for _ in range(40):
            a = rand_matrix(ctx, rng, 3, 3)
            b = rand_matrix(ctx, rng, 3, 3)
            assert a.mat_mul(b).det() == ctx.mul(a.det(), b.det())


def test_rank_of_transpose(f5, f16):
    rng = random.Random(17)
    for ctx in (f5, f16):
        for _ in range(50):
            m = rand_matrix(ctx, rng, rng.randint(1, 5), rng.randint(1, 5))
            assert m.rank() == m.transpose().rank()


def test_rref_idempotent(f5, f16):
    rng = random.Random(23)
    for ctx in (f5, f16):
        for _ in range(50):
            m = rand_matrix(ctx, rng, rng.randint(1, 5), rng.randint(1, 5))
            r = m.rref()
            assert r.rref() == r


def test_null_space_vectors_annihilate(f5, f16):
    rng = random.Random(29)
    for ctx in (f5, f16):
        for _ in range(50):
            m = rand_matrix(ctx, rng, rng.randint(1, 4), rng.randint(1, 6))
            ns = m.null_space()
            assert ns.rows == m.cols - m.rank()
            for v in ns.data:
                assert all(x == 0 for x in mul_vector(m, v))


def test_dimension_mismatch_errors(f5, f7):
    a = Matrix(f5, [[1, 2]])
    b = Matrix(f5, [[1, 2, 3]])
    with pytest.raises(ValueError):
        a.mat_mul(b)
    with pytest.raises(ValueError):
        a.det()
    with pytest.raises(ValueError):
        row_space_intersection(a, b)
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix(f5, [[1, 2], [3]])
    with pytest.raises(ValueError, match="dimension mismatch in add"):
        a.add(b)
    with pytest.raises(ValueError, match="dimension mismatch in stack"):
        a.stack(b)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        mul_vector(a, [1, 2, 3])
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        a.left_mul_vector([1, 2])
    with pytest.raises(ValueError, match="different fields"):
        a.mat_mul(Matrix(f7, [[1], [2]]))


def row_space_set(ctx, m):
    """Every vector of the row space, as a set of tuples (exhaustive)."""
    out = set()
    for coeffs in itertools.product(range(ctx.q), repeat=m.rows):
        out.add(tuple(m.left_mul_vector(list(coeffs))))
    return out


def test_self_intersection(f5):
    rng = random.Random(31)
    for _ in range(20):
        m = rand_matrix(f5, rng, 3, 6)
        inter = row_space_intersection(m, m)
        assert inter.rows == m.rank()


def test_intersection_against_set_oracle(f5):
    rng = random.Random(37)
    for _ in range(25):
        a = rand_matrix(f5, rng, 3, 8)
        b = rand_matrix(f5, rng, 4, 8)
        inter = row_space_intersection(a, b)
        sa, sb = row_space_set(f5, a), row_space_set(f5, b)
        common = sa & sb
        # |intersection| = q^dim
        assert len(common) == f5.q**inter.rows
        for v in inter.data:
            assert tuple(v) in common
        # dimension formula: dim(A) + dim(B) - dim(A+B)
        assert inter.rows == a.rank() + b.rank() - a.stack(b).rank()


@pytest.mark.parametrize("q", [16, 7, 25])
def test_eliminations_leave_their_matrix_alone(q):
    """Elimination copies only the list of rows, so it must never edit a
    row in place, and rref and row_space_basis must hand back rows of their
    own.  Half the matrices get a repeated row and a zero row; elimination
    never replaces a zero row, so the reduced rows share it with m."""
    ctx = Field.of_order(q)
    rng = random.Random(q)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(ctx, rng, nr, nc)
        if rng.random() < 0.5:
            m = Matrix(ctx, m.data + [[0] * nc, list(m.data[0])])
        before = copy.deepcopy(m.data)
        calls = ["rank", "rref", "null_space", "row_space_basis", "is_nonsingular"]
        for name in calls + (["det"] if m.rows == m.cols else []):
            getattr(m, name)()
            assert m.data == before, name
        for out in (m.rref(), m.row_space_basis()):
            for row in out.data:
                row[0] = (row[0] + 1) % q
            assert m.data == before
