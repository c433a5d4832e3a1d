"""Exact dense linear algebra over a Field context.

Matrices are small (code lengths stay below ~100), so everything is plain
row-major lists of element indices reduced by Gauss-Jordan elimination.
Pivoting is deterministic: leftmost nonzero column, topmost nonzero row,
pivot normalized to 1.  No numerical concerns exist in exact arithmetic,
so the same elimination pass serves RREF, rank, determinant and kernel.
"""

from __future__ import annotations

from .field import Field, FieldElement


class Matrix:
    """Dense matrix of field elements tied to one Field context."""

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: Field, data: list[list[FieldElement]]):
        self.ctx = ctx
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(r) != self.cols for r in data):
            raise ValueError("ragged rows")
        self.data = [list(r) for r in data]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ctx == other.ctx
            and self.data == other.data
        )

    def __repr__(self):
        body = "; ".join(" ".join(self.ctx.format(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> "Matrix":
        return Matrix(self.ctx, [list(col) for col in zip(*self.data)] if self.rows else [])

    def add(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch in add")
        ctx = self.ctx
        return Matrix(
            ctx,
            [[ctx.add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
        )

    def mat_mul(self, other: "Matrix") -> "Matrix":
        if self.ctx != other.ctx:
            raise ValueError("matrices belong to different fields")
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        ctx = self.ctx
        ot = other.transpose().data
        return Matrix(ctx, [[ctx.dot(row, col) for col in ot] for row in self.data])

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("dimension mismatch in stack")
        return Matrix(self.ctx, self.data + other.data)

    # -- elimination ---------------------------------------------------------

    def _eliminate(self):
        """Gauss-Jordan on a copy of the row list: each step replaces whole
        rows and edits none in place, so the rows themselves are shared.

        Returns (reduced rows, pivot column list, swap count, pivot product).
        The pivot product is taken before normalization, so for square
        full-rank input det = (-1)^swaps * pivot_product.
        """
        ctx = self.ctx
        m = list(self.data)
        pivots = []
        swaps = 0
        pivot_prod = ctx.one
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            pr = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
                swaps += 1
            pivot = m[r][c]
            pivot_prod = ctx.mul(pivot_prod, pivot)
            inv = ctx.inv(pivot)
            m[r] = [ctx.mul(inv, x) for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    m[i] = ctx.add_scaled(m[i], ctx.neg(m[i][c]), m[r])
            pivots.append(c)
            r += 1
        return m, pivots, swaps, pivot_prod

    def rref(self) -> "Matrix":
        reduced, _, _, _ = self._eliminate()
        return Matrix(self.ctx, reduced)

    def rank(self) -> int:
        _, pivots, _, _ = self._eliminate()
        return len(pivots)

    def det(self) -> FieldElement:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        _, pivots, swaps, prod = self._eliminate()
        if len(pivots) < self.rows:
            return 0
        return prod if swaps % 2 == 0 else self.ctx.neg(prod)

    def is_nonsingular(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def null_space(self) -> "Matrix":
        """Basis of the right kernel, one basis vector per row; the matrix
        has cols - rank rows (possibly zero)."""
        ctx = self.ctx
        reduced, pivots, _, _ = self._eliminate()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            v = [0] * self.cols
            v[f] = ctx.one
            for i, pc in enumerate(pivots):
                v[pc] = ctx.neg(reduced[i][f])
            basis.append(v)
        return Matrix(ctx, basis) if basis else Matrix(ctx, [])

    def row_space_basis(self) -> "Matrix":
        reduced, pivots, _, _ = self._eliminate()
        return Matrix(self.ctx, reduced[: len(pivots)])

    def left_mul_vector(self, v: list[FieldElement]) -> list[FieldElement]:
        if len(v) != self.rows:
            raise ValueError("dimension mismatch")
        out = [0] * self.cols
        for coef, row in zip(v, self.data):
            out = self.ctx.add_scaled(out, coef, row)
        return out


def row_space_intersection(a: Matrix, b: Matrix) -> Matrix:
    """Basis of rowspace(a) & rowspace(b) by the kernel-of-stacked-matrix
    method: null vectors (x, y) of [a; b]^T give x*a = -y*b, which ranges
    over exactly the intersection."""
    if a.cols != b.cols:
        raise ValueError("dimension mismatch in row-space intersection")
    stacked = a.stack(b)
    kern = stacked.transpose().null_space()
    if kern.rows == 0:
        return Matrix(a.ctx, [])
    cand = [a.left_mul_vector(w[: a.rows]) for w in kern.data]
    return Matrix(a.ctx, cand).row_space_basis()
