"""Hull dimension via Gram rank, and the constructive small-hull families.

For a full-rank generator G the hull C intersect C-dual is {xG : x G G^T
= 0}, so hull_report reads its dimension k - rank(G G^T) off one kernel
computation of the k x k Gram matrix; the kernel images xG, brought to
reduced row echelon form, are its basis.  The direct row-space
intersection (codes.hull_direct) is the oracle the tests compare against.

The constructors place evaluation points on an order-k multiplicative
subgroup listed twice, the second copy scaled by the primitive element.
Power sums over the subgroup collapse (k if the exponent is a multiple of
k, else 0), which zeroes enough Gram entries to force a nontrivial hull:
a [2k, k] code when q is even, a [2k, k-1] code when q is odd.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import LinearCodeView, MultiTwistedCode, TwistProfile
from .field import Field, FieldElement
from .linalg import Matrix


def power_sum_theta(ctx: Field, k: int, m: int) -> FieldElement:
    """Sum of m-th powers over the order-k subgroup of the multiplicative
    group: k (mod char) when k divides m, else 0.

    The m-th powers cover the subgroup of order k / gcd(k, m), each one
    gcd(k, m) times, and a nontrivial subgroup sums to 0.  The tests
    compare this against the literal sum.
    """
    if k < 1 or (ctx.q - 1) % k != 0:
        raise ValueError(f"k = {k} does not divide q - 1 = {ctx.q - 1}")
    return (k % ctx.p) if m % k == 0 else 0


def subgroup_eval(ctx: Field, k: int) -> tuple[FieldElement, ...]:
    """The order-k subgroup followed by its translate by the primitive element
    gamma: 2k points, distinct as k < q - 1 puts gamma outside the subgroup."""
    if k < 1 or (ctx.q - 1) % k != 0:
        raise ValueError(f"k = {k} does not divide q - 1 = {ctx.q - 1}")
    if k >= ctx.q - 1:
        raise ValueError(
            "k = q - 1 makes the scaled subgroup copy coincide with the first"
        )
    step = (ctx.q - 1) // k
    base = tuple(ctx.pow(ctx.gamma, step * i) for i in range(1, k + 1))
    return base + tuple(ctx.mul(ctx.gamma, x) for x in base)


class HullReport(NamedTuple):
    code_dim: int
    gram_rank: int
    hull_dim: int
    gram: Matrix
    hull_basis: Matrix


def hull_report(view: LinearCodeView) -> HullReport:
    """Gram matrix, its rank and the hull from one kernel of G G^T.

    The kernel rows x of the symmetric G G^T give the hull vectors xG, and
    G has full rank, so they are as many as the hull's dimension.  A second
    elimination brings the h x n matrix of the xG to reduced row echelon
    form, so the basis is the one codes.hull_direct returns and the CLI's
    JSON does not depend on which kernel basis came out."""
    rows, dot = view.g.data, view.ctx.dot  # G G^T is symmetric: each pair of rows is dotted once
    low = [[dot(a, b) for b in rows[: i + 1]] for i, a in enumerate(rows)]
    gram = Matrix(view.ctx, [r + [low[j][i] for j in range(i + 1, len(rows))] for i, r in enumerate(low)])
    kern = gram.null_space()
    basis = Matrix(view.ctx, [view.g.left_mul_vector(x) for x in kern.data]).row_space_basis()
    return HullReport(view.k, view.k - kern.rows, kern.rows, gram, basis)


# -- the two constructive families -------------------------------------------


def _halves(code: MultiTwistedCode) -> tuple[tuple[FieldElement, ...], ...]:
    """The two halves of code.alpha, which must be subgroup_eval(ctx, n/2)."""
    ctx, (k, odd) = code.ctx, divmod(code.n, 2)
    if odd or (ctx.q - 1) % k or k >= ctx.q - 1 or code.alpha != subgroup_eval(ctx, k):
        raise ValueError("code points are not a doubled multiplicative subgroup")
    return code.alpha[:k], code.alpha[k:]


def _blocks(code: MultiTwistedCode, pts) -> tuple[Matrix, Matrix]:
    """(A, B) on one half: A holds the powers 0..dim-1 of the points, B the
    twist monomials eta_j x^{k-1+t_j} at row h_j and zeros elsewhere."""
    ctx, pr = code.ctx, code.profile
    a = Matrix(ctx, [[ctx.pow(x, i) for x in pts] for i in range(pr.k)])
    b = [[0] * len(pts) for _ in range(pr.k)]
    for tj, hj, ej in zip(pr.t, pr.h, pr.eta):
        b[hj] = [ctx.mul(ej, ctx.pow(x, pr.k - 1 + tj)) for x in pts]
    return a, Matrix(ctx, b)


def construct_even(ctx: Field, k: int, t, h, eta) -> MultiTwistedCode:
    """[2k, k] code over even q with guaranteed nontrivial hull.

    Needs k | q-1 with 1 < k < q-1, hooks starting above 0 and twists
    starting above 1 (these zero the first Gram row), and t_ell <= k so
    the degree bound holds at n = 2k.
    """
    t, h, eta = tuple(t), tuple(h), tuple(eta)
    if ctx.p != 2:
        raise ValueError("even-q construction requires characteristic 2")
    if k <= 1:
        raise ValueError("need k > 1")
    profile = TwistProfile(k, t, h, eta)  # shape and bound checks
    if not t:
        raise ValueError("need at least one twist")
    if h[0] <= 0:
        raise ValueError("need h_1 > 0")
    if t[0] <= 1:
        raise ValueError("need t_1 > 1")
    if t[-1] > k:
        raise ValueError("need t_ell <= n - k = k")
    return MultiTwistedCode(ctx, profile, subgroup_eval(ctx, k))


def construct_odd(ctx: Field, k: int, t, h, eta) -> MultiTwistedCode:
    """[2k, k-1] code over odd q with guaranteed nontrivial hull.

    The k-1 generator rows carry powers 0..k-2 with the twist monomials
    eta_j (beta alpha)^{k-1+t_j} added at rows h_j; that equals the
    standard layout for dimension k-1 with every twist shifted up by one,
    so the returned code is an ordinary multi-twisted code.  Needs k | q-1
    with 2 < k < q-1, h_1 > 1, h_ell <= k-2 and t_ell < k.
    """
    t, h, eta = tuple(t), tuple(h), tuple(eta)
    if ctx.p == 2:
        raise ValueError("odd-q construction requires odd characteristic")
    if k <= 2:
        raise ValueError("need k > 2")
    if not t or not (len(t) == len(h) == len(eta)):
        raise ValueError("need at least one twist with matching hooks and coefficients")
    if h[0] <= 1:
        raise ValueError("need h_1 > 1")
    if h[-1] > k - 2:
        raise ValueError("need h_ell <= k - 2")
    if t[-1] >= k:
        raise ValueError("need t_ell < k")
    shifted = TwistProfile(k - 1, tuple(tj + 1 for tj in t), h, eta)
    return MultiTwistedCode(ctx, shifted, subgroup_eval(ctx, k))


class GramParts(NamedTuple):
    """G G^T split along the proof's block decomposition."""

    a_one: Matrix  # A_1 A_1^T
    a_gamma: Matrix  # A_gamma A_gamma^T
    b_one: Matrix  # B_1 B_1^T
    b_gamma: Matrix  # B_gamma B_gamma^T
    cross: Matrix  # A B^T + B A^T summed over both halves

    @property
    def aat_sum(self) -> Matrix:
        return self.a_one.add(self.a_gamma)

    @property
    def bbt_sum(self) -> Matrix:
        return self.b_one.add(self.b_gamma)

    @property
    def total(self) -> Matrix:
        return self.aat_sum.add(self.bbt_sum).add(self.cross)


def gram_decomposition(code: MultiTwistedCode) -> GramParts:
    """The split of G G^T for a code on doubled subgroup points, read from
    the code's profile; any other points raise ValueError."""
    (a1, b1), (ag, bg) = (_blocks(code, pts) for pts in _halves(code))
    ab1, abg = a1.mat_mul(b1.transpose()), ag.mat_mul(bg.transpose())
    return GramParts(
        a1.mat_mul(a1.transpose()),
        ag.mat_mul(ag.transpose()),
        b1.mat_mul(b1.transpose()),
        bg.mat_mul(bg.transpose()),
        ab1.add(ab1.transpose()).add(abg).add(abg.transpose()),
    )
