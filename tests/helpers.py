"""Oracles and small utilities that only the tests use.

The package keeps what a command or a paper statement needs; these
helpers restate some of it the plain way, so the tests can compare the
two, or build inputs the package itself never needs.
"""

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
