"""Exact dense linear algebra over a Field context.

Matrices are small (code lengths stay below ~100), so everything is plain
row-major lists of element indices.  Pivoting is deterministic: leftmost
nonzero column, topmost nonzero row.  One forward-elimination pass, with
its pivots left unnormalized, decides rank, determinant and
nonsingularity; RREF and the kernel add a back pass that scales each
pivot to 1 and clears above it.  No numerical concerns exist in exact
arithmetic, so that one pass serves every routine here.
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
        return Matrix(self.ctx, [list(col) for col in zip(*self.data)])

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

    @staticmethod
    def forward(ctx: Field, m: list, cols: int):
        """Forward elimination of the row list m, in place: row echelon form
        with unnormalized pivots.  Each step replaces whole rows and edits
        none, so a caller that copies only the list shares the rows safely.

        Returns (pivot column list, swap count, pivot product); for square
        full-rank input det = (-1)^swaps * pivot product.
        """
        pivots, swaps, pivot_prod = [], 0, ctx.one
        for c in range(cols):
            r = len(pivots)
            if r == len(m):
                break
            pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
                swaps += 1
            pivot_prod = ctx.mul(pivot_prod, m[r][c])
            minus_inv = ctx.neg(ctx.inv(m[r][c]))
            for i in range(r + 1, len(m)):
                if m[i][c] != 0:
                    m[i] = ctx.add_scaled(m[i], ctx.mul(minus_inv, m[i][c]), m[r])
            pivots.append(c)
        return pivots, swaps, pivot_prod

    def _reduce(self):
        """(RREF rows, pivot column list): the forward pass, then a back pass
        from the last pivot up that scales each pivot to 1 and clears the
        entries above it."""
        ctx = self.ctx
        m = list(self.data)
        pivots, _, _ = self.forward(ctx, m, self.cols)
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            inv = ctx.inv(m[r][c])
            m[r] = row = [ctx.mul(inv, x) for x in m[r]]
            for i in range(r):
                if m[i][c] != 0:
                    m[i] = ctx.add_scaled(m[i], ctx.neg(m[i][c]), row)
        return m, pivots

    def rref(self) -> "Matrix":
        return Matrix(self.ctx, self._reduce()[0])

    def rank(self) -> int:
        return len(self.forward(self.ctx, list(self.data), self.cols)[0])

    def det(self) -> FieldElement:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        pivots, swaps, prod = self.forward(self.ctx, list(self.data), self.cols)
        if len(pivots) < self.rows:
            return 0
        return prod if swaps % 2 == 0 else self.ctx.neg(prod)

    def is_nonsingular(self) -> bool:
        return self.rows == self.cols and self.det() != 0

    def null_space(self) -> "Matrix":
        """Basis of the right kernel, one basis vector per row; the matrix
        has cols - rank rows (possibly zero)."""
        ctx = self.ctx
        reduced, pivots = self._reduce()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            v = [0] * self.cols
            v[f] = ctx.one
            for i, pc in enumerate(pivots):
                v[pc] = ctx.neg(reduced[i][f])
            basis.append(v)
        return Matrix(ctx, basis)

    def row_space_basis(self) -> "Matrix":
        reduced, pivots = self._reduce()
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
