"""Twisted polynomial spaces, code construction, and brute-force analyzers.

A twist profile (k, t, h, eta) augments the degree-< k message polynomial
a_0 + ... + a_{k-1} x^{k-1} with one extra monomial eta_j * a_{h_j} *
x^{k-1+t_j} per twist.  Evaluating the augmented polynomials at n distinct
field points gives the code; the generator matrix is the plain power
matrix with row h_j replaced by alpha^{h_j} + eta_j alpha^{k-1+t_j}.

The brute-force analyzers here (minimum distance by a scan over the lines
of messages, MDS by k-column minors, dual and hull by kernel computations)
are the ground truth the structural criteria in criteria.py are validated
against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb
from typing import NamedTuple, Optional

from .field import Field, FieldElement
from .linalg import Matrix, row_space_intersection


class BudgetExceededError(RuntimeError):
    """An exhaustive scan would exceed its configured budget.

    Raised instead of silently truncating: exactness is the product, so a
    partial answer is a bug, not a result.
    """


DEFAULT_SCAN_BUDGET = 10**7


def check_subset_budget(n: int, k: int) -> None:
    """Refuse a scan of the C(n, k) k-subsets of n points past DEFAULT_SCAN_BUDGET,
    read at call time: subset_walk and the double-twist criteria check it."""
    if comb(n, k) > DEFAULT_SCAN_BUDGET:
        raise BudgetExceededError(f"C({n},{k}) subsets exceed the scan budget {DEFAULT_SCAN_BUDGET}")


class _TwistProfile(NamedTuple):
    k: int
    t: tuple[int, ...] = ()
    h: tuple[int, ...] = ()
    eta: tuple[FieldElement, ...] = ()


class TwistProfile(_TwistProfile):
    """Twist/hook data (k, t, h, eta); ell = 0 means a plain RS profile."""

    __slots__ = ()

    def __new__(cls, k: int, t=(), h=(), eta=()):
        t, h, eta = tuple(t), tuple(h), tuple(eta)
        if k < 1:
            raise ValueError("dimension parameter k must be >= 1")
        if not (len(t) == len(h) == len(eta)):
            raise ValueError("t, h, eta must have equal length")
        if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            raise ValueError("twists must be strictly increasing")
        if t and t[0] < 1:
            raise ValueError("twists must be >= 1")
        if any(h[i] >= h[i + 1] for i in range(len(h) - 1)):
            raise ValueError("hooks must be strictly increasing")
        if h and not (0 <= h[0] and h[-1] <= k - 1):
            raise ValueError("hooks must satisfy 0 <= h_1 < ... < h_ell <= k-1")
        if any(e == 0 for e in eta):
            raise ValueError("every eta_i must be nonzero")
        return super().__new__(cls, k, t, h, eta)

    @property
    def ell(self) -> int:
        return len(self.t)

    @property
    def max_degree(self) -> int:
        return self.k - 1 + self.t[-1] if self.t else self.k - 1


class _MultiTwistedCode(NamedTuple):
    ctx: Field
    profile: TwistProfile
    alpha: tuple[FieldElement, ...]


class MultiTwistedCode(_MultiTwistedCode):
    __slots__ = ()

    def __new__(cls, ctx: Field, profile: TwistProfile, alpha):
        alpha = tuple(alpha)
        if len(set(alpha)) != len(alpha):
            raise ValueError("evaluation points must be pairwise distinct")
        if len(alpha) > ctx.q:
            raise ValueError("more evaluation points than field elements")
        if any(not 0 <= x < ctx.q for x in alpha):
            raise ValueError("evaluation point outside the field")
        if any(not 0 < e < ctx.q for e in profile.eta):
            raise ValueError("every eta_i must be a nonzero field element")
        if profile.k >= len(alpha):
            raise ValueError("need k < n")
        if profile.max_degree >= len(alpha):
            raise ValueError("degree bound violated: need k-1+t_ell < n")
        return super().__new__(cls, ctx, profile, alpha)

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def dim(self) -> int:
        return self.profile.k


def twisted_poly(ctx: Field, profile: TwistProfile, msg) -> list[FieldElement]:
    """Coefficients (ascending, length k + t_ell) of the twisted polynomial
    carrying message msg."""
    msg = list(msg)
    if len(msg) != profile.k:
        raise ValueError(f"message length {len(msg)} != k = {profile.k}")
    coeffs = [0] * (profile.max_degree + 1)
    coeffs[: profile.k] = msg
    for tj, hj, ej in zip(profile.t, profile.h, profile.eta):
        d = profile.k - 1 + tj
        coeffs[d] = ctx.add(coeffs[d], ctx.mul(ej, msg[hj]))
    return coeffs


def eval_poly(ctx: Field, coeffs, x: FieldElement) -> FieldElement:
    acc = 0
    for c in reversed(coeffs):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def generator_matrix(code: MultiTwistedCode) -> Matrix:
    """The k x n generator: row i is alpha^i pointwise, with row h_j
    carrying the extra eta_j alpha^{k-1+t_j} term."""
    ctx, pr = code.ctx, code.profile
    rows = [[ctx.pow(x, i) for x in code.alpha] for i in range(pr.k)]
    for tj, hj, ej in zip(pr.t, pr.h, pr.eta):
        d = pr.k - 1 + tj
        rows[hj] = [
            ctx.add(base, ctx.mul(ej, ctx.pow(x, d)))
            for base, x in zip(rows[hj], code.alpha)
        ]
    return Matrix(ctx, rows)


def encode(code: MultiTwistedCode, msg) -> list[FieldElement]:
    coeffs = twisted_poly(code.ctx, code.profile, msg)
    return [eval_poly(code.ctx, coeffs, x) for x in code.alpha]


class LinearCodeView:
    """Uniform carrier for any linear code given by a full-rank generator."""

    def __init__(self, g: Matrix):
        if g.rank() != g.rows:
            raise ValueError("generator matrix is not full rank")
        self.g = g

    @classmethod
    def _full_rank(cls, g: Matrix) -> "LinearCodeView":  # rank proved where g is built
        view = cls.__new__(cls)
        view.g = g
        return view

    @classmethod
    def of_code(cls, code: MultiTwistedCode) -> "LinearCodeView":
        """The code's generator has rank k: its rows are k polynomials with
        distinct lowest terms x^0..x^(k-1), of degree < n, at n distinct points."""
        return cls._full_rank(generator_matrix(code))

    n = property(lambda self: self.g.cols)
    k = property(lambda self: self.g.rows)
    ctx = property(lambda self: self.g.ctx)


class MdsVerdict(NamedTuple):
    is_mds: bool
    method: str  # bruteforce | theorem31 | remark44 | theorem42
    witness: Optional[tuple[int, ...]] = None  # failing column subset, if any

    def __bool__(self):
        return self.is_mds


def min_distance_bruteforce(view: LinearCodeView, budget: int = DEFAULT_SCAN_BUDGET) -> int:
    """Exact minimum Hamming weight over all q^k - 1 nonzero codewords.

    Scaling a message keeps its weight, so it is enough to scan one message
    per line: (0, ..., 0, 1), whose multiples c*r of the last row r weigh
    wt(r), and every m = (prefix, c) whose prefix has first nonzero entry 1.
    For a fixed prefix with word b, position j of b + c*r is zero for every
    c when r_j = 0 = b_j, and for c = -b_j/r_j alone when r_j != 0, so the
    least weight over all q values of c is n minus those always-zero
    positions minus the largest number of positions sharing one c.  That is
    O(n) per prefix, and there are (q^(k-1) - 1)/(q - 1) prefixes.  The
    budget counts the steps taken: those prefixes and the last row's line.
    """
    ctx = view.ctx
    lines = 1 + (ctx.q ** (view.k - 1) - 1) // (ctx.q - 1)
    if lines > budget:
        raise BudgetExceededError(f"{lines} lines of messages exceed the scan budget {budget}")
    best = view.n + 1
    for w in _line_weights(ctx, view.g.data):
        if w < best:
            best = w
            if best == 1:
                break
    return best


def _line_weights(ctx: Field, rows):
    """The least weight of each step of the scan: first wt(r) of the last
    row r, then, for each prefix whose first nonzero entry is 1 (by the
    position of that entry, then its tail in lexicographic order), the
    least weight of b + c*r over all c, with b the prefix's word."""
    *rows, last = rows
    n = len(last)
    free = [j for j, x in enumerate(last) if x == 0]
    # c = b_j * (-1/r_j) zeroes position j of b + c*r
    root_of = [(j, ctx.neg(ctx.inv(x))) for j, x in enumerate(last) if x]
    yield len(root_of)
    for lead in range(len(rows)):
        for tail in itertools.product(range(ctx.q), repeat=len(rows) - 1 - lead):
            word = rows[lead]
            for coef, row in zip(tail, rows[lead + 1 :]):
                word = ctx.add_scaled(word, coef, row)
            shared = Counter(ctx.mul(word[j], s) for j, s in root_of)
            yield n - sum(1 for j in free if word[j] == 0) - max(shared.values())


def subset_walk(n: int, k: int, root, step):
    """Each k-subset of range(n) in lexicographic order, with the state
    step(state, j) builds from root along it: one depth-first walk keeps
    the state of every prefix.  A step that returns None dooms each
    completion of its prefix + (j,); the walk yields the first of them,
    prefix + (j, j+1, ...), once with None and goes on to prefix + (j+1,).
    The C(n, k) subsets must fit the scan budget before the first step."""
    check_subset_budget(n, k)
    prefix, stack, j = [], [root], 0  # stack[d]: the state of prefix[:d]
    while True:
        if len(prefix) == k:
            yield tuple(prefix), stack[-1]
        elif j <= n - k + len(prefix):
            state = step(stack[-1], j)
            if state is None:
                yield (*prefix, *range(j, j + k - len(prefix))), None
            else:
                stack.append(state)
                prefix.append(j)
            j += 1
            continue
        if not prefix:
            return
        j = prefix.pop() + 1
        stack.pop()


def is_mds_bruteforce(view: LinearCodeView) -> MdsVerdict:
    """MDS iff every k-subset of generator columns is independent.

    The subset walk keeps the Schur complement of each prefix: G's rows
    eliminated on its pivot columns, the pivot rows dropped.  A column j
    that is zero on every remaining row lies in the prefix's span and makes
    every completion singular, so the first subset the walk dooms is the
    lex-first singular one; otherwise the first row nonzero at j pivots."""
    ctx = view.ctx

    def pivot(rows, j):
        i = next((i for i, r in enumerate(rows) if r[j]), None)
        if i is None:
            return None
        piv = rows[i]
        minus_inv = ctx.neg(ctx.inv(piv[j]))
        return rows[:i] + [ctx.add_scaled(r, ctx.mul(minus_inv, r[j]), piv) if r[j] else r for r in rows[i + 1 :]]

    for subset, rows in subset_walk(view.n, view.k, view.g.data, pivot):
        if rows is None:
            return MdsVerdict(False, "bruteforce", subset)
    return MdsVerdict(True, "bruteforce")


def dual_code(view: LinearCodeView) -> LinearCodeView:
    """Generator of the dual: a kernel basis of G, full rank by its identity on the free columns."""
    return LinearCodeView._full_rank(view.g.null_space())


def hull_direct(view: LinearCodeView) -> tuple[int, Matrix]:
    """(dimension, basis rows) of C intersected with its dual."""
    h = dual_code(view)
    basis = row_space_intersection(view.g, h.g)
    return basis.rows, basis
