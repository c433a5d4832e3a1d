"""Oracles and small utilities that only the tests use.

The package keeps what a command or a paper statement needs; these
helpers restate some of it the plain way, so the tests can compare the
two, or build inputs the package itself never needs.
"""

import itertools
import json
import os
from functools import reduce

from twistedrs.hull import _blocks, _halves
from twistedrs.linalg import Matrix


def identity(ctx, n):
    return Matrix(ctx, [[ctx.one if i == j else 0 for j in range(n)] for i in range(n)])


def submatrix(m, row_idx, col_idx):
    return Matrix(m.ctx, [[m.data[i][j] for j in col_idx] for i in row_idx])


def mul_vector(m, v):
    """m v for a column vector v, one dot product per row."""
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    return [m.ctx.dot(row, v) for row in m.data]


def field_prod(ctx, xs):
    return reduce(ctx.mul, xs, ctx.one)


def field_sum(ctx, xs):
    return reduce(ctx.add, xs, ctx.zero)


def blocks_generator(code):
    """[A_1 + B_1 : A_gamma + B_gamma], the proof-literal row layout of a
    code on doubled subgroup points; it equals the code's generator matrix."""
    one, gamma = (a.add(b).data for a, b in (_blocks(code, pts) for pts in _halves(code)))
    return Matrix(code.ctx, [r1 + rg for r1, rg in zip(one, gamma)])


def load_golden(out_dir, q):
    with open(os.path.join(out_dir, f"table1_q{q}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def laplace_det(ctx, rows):
    """Determinant by cofactor expansion along the first row, with scalar
    field operations alone; the empty matrix has determinant 1."""
    n = len(rows)
    if n == 0:
        return ctx.one
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        term = ctx.mul(rows[0][j], laplace_det(ctx, minor))
        total = ctx.add(total, term if j % 2 == 0 else ctx.neg(term))
    return total


def minor_rank(ctx, rows, cap):
    """Largest r <= cap with a nonzero r x r minor, via laplace_det."""
    nr, nc = len(rows), len(rows[0])
    for r in range(min(cap, nr, nc), 0, -1):
        for ri in itertools.combinations(range(nr), r):
            for ci in itertools.combinations(range(nc), r):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if laplace_det(ctx, sub) != 0:
                    return r
    return 0


def naive_rref(ctx, rows):
    """(RREF rows, pivot columns) by textbook Gauss-Jordan with scalar field
    operations alone: per column, the topmost nonzero row at or below the
    next pivot row is swapped up and scaled to 1, and its column is cleared
    in every other row."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ctx.inv(m[r][c])
        m[r] = [ctx.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots
