"""Structural MDS tests for multi-twisted codes.

Three independent routes, all validated against the brute-force column
test in codes.py:

* the general subset-system criterion: a code is MDS iff, for every
  k-subset I of evaluation points, a t_ell x t_ell homogeneous system in
  the cofactor coefficients g_0..g_{t_ell-1} is nonsingular,
* a guaranteed construction from a proper chain of subfields,
* for the double-twist layout t = (1, 2), h = (0, 1): closed-form
  exclusion conditions on (eta1, eta2) and an equivalent single
  determinant-like expression per k-subset, which depends on the subset
  only through its class (u, v), so one alpha's classes decide all its
  eta pairs.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .codes import MdsVerdict, MultiTwistedCode, TwistProfile, check_subset_budget
from .codes import subset_walk
from .field import Field, FieldElement
from .linalg import Matrix

DOUBLE_TWIST = ((1, 2), (0, 1))  # the (t, h) layout with closed-form criteria


def elem_sym(ctx: Field, values) -> list[FieldElement]:
    """All elementary symmetric polynomials e_0..e_len of the values."""
    e = [ctx.one]
    for v in values:
        e.append(0)
        for j in range(len(e) - 1, 0, -1):
            e[j] = ctx.add(e[j], ctx.mul(v, e[j - 1]))
    return e


def _elem_sym_walk(ctx: Field, values, k: int) -> Iterator[tuple[tuple[int, ...], list[FieldElement]]]:
    """Each k-subset of positions in values, in lexicographic order, with
    the elementary symmetric polynomials e_0..e_k of its values.

    The subset walk keeps e of every prefix, so appending a value x is one
    row step, e'_j = e_j + x e_(j-1), instead of a fresh elem_sym."""
    return subset_walk(len(values), k, [ctx.one], lambda e, j: ctx.add_scaled(e + [0], values[j], [0] + e))


def sigma_coeffs(ctx: Field, alphas) -> list[FieldElement]:
    """Ascending coefficients of the monic product of (x - a) over alphas:
    sigma_i = (-1)^(n-i) e_(n-i) for n = len(alphas), so sigma read from
    the top is e of the negated alphas.

    Length n + 1; callers index out-of-range sigmas as zero.
    """
    return elem_sym(ctx, [ctx.neg(a) for a in alphas])[::-1]


def _system_rows(code: MultiTwistedCode):
    """The rows of the subset system as a function of one k-subset's e,
    the elementary symmetric polynomials of its negated points (e_m is
    sigma_(k-m)); columns are g_0..g_{t_ell-1}.

    One row per missing high coefficient (degrees k..k+t_ell-2 that carry
    no twist), plus one row per twist s equating the twist coefficient
    eta_s * a_{h_s} with its expansion.  The code's layout is read here,
    once, into the position of each entry's sigma in e padded with t_ell
    zeros on each side."""
    ctx, pr = code.ctx, code.profile
    if pr.ell == 0:
        raise ValueError("criterion undefined for plain RS (it is always MDS)")
    k, tl = pr.k, pr.t[-1]
    pad = [0] * tl

    def at(i):  # sigma_i, zero outside 0..k, sits at padded[at(i)]
        return tl + k - i

    twist_degrees = {k + ts - 1 for ts in pr.t[:-1]}
    plain = [[at(i - j) for j in range(tl)] for i in range(k, k + tl - 1) if i not in twist_degrees]
    # twist row: eta_s^-1 sigma_(k-j+t_s-1) [j >= t_s - 1] - sigma_(h_s-j) [j <= h_s]
    twists = [
        (ctx.inv(es), [(at(k - j + ts - 1), at(hs - j)) for j in range(tl)])
        for ts, hs, es in zip(pr.t, pr.h, pr.eta)
    ]

    def rows(e):
        s = pad + e + pad
        return [[s[a] for a in idx] for idx in plain] + [
            [ctx.sub(ctx.mul(inv_e, s[a]), s[b]) for a, b in idx] for inv_e, idx in twists
        ]

    return rows


def mds_system_matrix(code: MultiTwistedCode, subset) -> Matrix:
    """Coefficient matrix of the homogeneous system a k-rooted codeword
    polynomial would have to solve (rows as _system_rows lays them out).
    Nonsingular for every k-subset of evaluation points iff the code is MDS.
    """
    rows = _system_rows(code)
    subset, k = tuple(subset), code.profile.k
    if len(subset) != k or len(set(subset)) != k or not all(0 <= i < code.n for i in subset):
        raise ValueError(f"subset {subset} is not k = {k} distinct positions in range({code.n})")
    ctx = code.ctx
    return Matrix(ctx, rows(elem_sym(ctx, [ctx.neg(code.alpha[i]) for i in subset])))


def theorem31_is_mds(code: MultiTwistedCode) -> MdsVerdict:
    """MDS iff the subset system is nonsingular for every k-subset.

    Plain RS (no twists) short-circuits to MDS.  One lexicographic walk
    over the k-subsets of negated points gives each subset's e, so the
    first singular system is the lex-first witness.  Each subset's fresh
    rows go through forward elimination alone, with no Matrix copy.
    """
    pr = code.profile
    if pr.ell == 0:
        return MdsVerdict(True, "theorem31")
    ctx, rows, tl = code.ctx, _system_rows(code), pr.t[-1]
    for subset, e in _elem_sym_walk(ctx, [ctx.neg(a) for a in code.alpha], pr.k):
        if len(Matrix.forward(ctx, rows(e), tl)[0]) < tl:
            return MdsVerdict(False, "theorem31", subset)
    return MdsVerdict(True, "theorem31")


def appendix_a_determinants(code: MultiTwistedCode) -> list[FieldElement]:
    """The per-subset 2x2 determinants for the double-twist layout with
    k = 3, n = 5, in lexicographic subset order.

    The published matrix diag(eta2^-1, eta1^-1) * [[1, 0], [sigma2, 1]] +
    [[-sigma0, -sigma1], [0, -sigma0]] is the subset-system matrix with its
    rows and its columns both reversed, so the determinants are those of
    mds_system_matrix; the code is MDS iff none vanish.
    """
    pr = code.profile
    if (pr.t, pr.h) != DOUBLE_TWIST or pr.k != 3 or code.n != 5:
        raise ValueError("expects the double-twist layout with k = 3, n = 5")
    return [mds_system_matrix(code, s).det() for s in itertools.combinations(range(5), 3)]


def subfield_chain_construct(ctx: Field, chain, alpha, k, t, h, eta) -> MultiTwistedCode:
    """Code guaranteed MDS by taking evaluation points inside the smallest
    field of a proper subfield chain and eta_i in F_{q_i} minus F_{q_i-1}."""
    chain = tuple(chain)
    t, h, eta = tuple(t), tuple(h), tuple(eta)
    if len(chain) != len(t) + 1:
        raise ValueError("chain must list ell + 1 field orders q_0 < ... < q_ell")
    if any(chain[i] >= chain[i + 1] for i in range(len(chain) - 1)):
        raise ValueError("chain orders must be strictly increasing")
    if chain[-1] != ctx.q:
        raise ValueError(f"chain must end at the ambient field order {ctx.q}")
    for x in alpha:
        if not ctx.is_in_subfield(x, chain[0]):
            raise ValueError(
                f"evaluation point {ctx.format(x)} is outside the base subfield F_{chain[0]}"
            )
    for i, e in enumerate(eta):
        if not ctx.is_in_subfield(e, chain[i + 1]):
            raise ValueError(f"eta_{i + 1} = {ctx.format(e)} is outside F_{chain[i + 1]}")
        if ctx.is_in_subfield(e, chain[i]):
            raise ValueError(f"eta_{i + 1} = {ctx.format(e)} lies inside F_{chain[i]}")
    return MultiTwistedCode(ctx, TwistProfile(k, t, h, eta), tuple(alpha))


# -- double-twist layout: closed-form conditions -----------------------------


def _eta1_exclusions(ctx: Field, e: list[FieldElement], k: int, eta2: FieldElement):
    """The eta1 values a k-subset of nonzero points, with elementary
    symmetric polynomials e, excludes at eta2: the product condition
    base = (-1)^k / e_k, and the rational condition
    (e_{k-1} e_1 + w) / ((-1)^k e_k w) with w = (-1)^k / eta2 - e_k, which
    is None where w = 0, i.e. at eta2 = base."""
    sign_k = ctx.sign(k)
    base = ctx.mul(sign_k, ctx.inv(e[k]))
    w = ctx.sub(ctx.div(sign_k, eta2), e[k])
    if w == 0:
        return base, None
    return base, ctx.div(ctx.add(ctx.mul(e[k - 1], e[1]), w), ctx.mul(sign_k, ctx.mul(e[k], w)))


def _eta2_exclusion(ctx: Field, e: list[FieldElement]) -> FieldElement | None:
    """(-1)^(k-1) / (e_1 e_{k-1}) for a (k-1)-subset of nonzero values with
    elementary symmetric polynomials e, or None when its sum e_1 is zero."""
    if e[1] == 0:
        return None
    return ctx.mul(ctx.sign(len(e) - 1), ctx.inv(ctx.mul(e[1], e[-1])))


def forbidden_eta_sets(ctx: Field, alpha, k: int, eta2: FieldElement):
    """Exclusion values for the double-twist layout.

    Returns (eta1 exclusions given eta2, eta2 exclusions).  The eta1 set
    combines the product condition (-1)^k / prod over every k-subset of
    nonzero points with the rational condition evaluated at the given
    eta2; subsets where eta2 equals (-1)^k / prod are skipped there since
    the rational is undefined (and imposes nothing) at those pairs, and a
    rational value 0 is dropped, as eta1 = 0 is never a twist.  The eta2
    set collects (-1)^(k-1) / (sum * prod) over (k-1)-subsets of nonzero
    points with nonzero sum.  It refuses what theorem42_is_mds refuses.
    """
    alpha = _double_twist_points(ctx, alpha, k, ctx.one, eta2)
    nz = [x for x in alpha if x != 0]
    eta1_excl = set()
    for _, e in _elem_sym_walk(ctx, nz, k):
        eta1_excl.update(_eta1_exclusions(ctx, e, k, eta2))
    eta2_excl = {_eta2_exclusion(ctx, e) for _, e in _elem_sym_walk(ctx, nz, k - 1)}
    return frozenset(eta1_excl - {None, 0}), frozenset(eta2_excl - {None})


def remark44_class(ctx: Field, values, k: int) -> tuple[FieldElement, FieldElement]:
    """(u, v) = ((-1)^k e_k, (-1)^k (e_{k-1} e_1 - e_k)) for one k-subset of
    evaluation values (zeros allowed).  Its closed form
    1 - u eta1 + v eta2 + u^2 eta1 eta2 depends on this class alone.

    e_1, e_{k-1} and e_k come from one pass, by the recurrence the count
    kernel's _remark44_set_counts uses: appending x to m values turns their
    e_1, e_{m-1} and e_m into e_1 + x, e_m + x e_{m-1} and e_m x (from
    m = 1, where e_0 = 1)."""
    e1 = ek = values[0]
    ekm1 = ctx.one
    for x in values[1:]:
        e1, ekm1, ek = ctx.add(e1, x), ctx.add(ek, ctx.mul(ekm1, x)), ctx.mul(ek, x)
    sign_k = ctx.sign(k)
    return ctx.mul(sign_k, ek), ctx.mul(sign_k, ctx.sub(ctx.mul(ekm1, e1), ek))


def remark44_bad_eta2(ctx: Field, classes, eta1) -> set[FieldElement]:
    """The nonzero eta2 at which the closed form of some (u, v) class in
    classes vanishes at eta1.

    The form is const + eta2 * slope with const = 1 - u eta1 and
    slope = v + u^2 eta1: a nonzero slope makes one eta2 bad,
    -const / slope (outside the grid when it is 0), and a class whose
    slope and const are both 0 makes every eta2 bad."""
    bad = set()
    for u, v in classes:
        const = ctx.sub(ctx.one, ctx.mul(u, eta1))
        slope = ctx.add(v, ctx.mul(ctx.mul(u, u), eta1))
        if slope:
            bad.add(ctx.neg(ctx.div(const, slope)))
        elif const == 0:
            return set(range(1, ctx.q))
    bad.discard(0)
    return bad


def _double_twist_points(ctx: Field, alpha, k: int, eta1, eta2) -> tuple[FieldElement, ...]:
    """alpha as a tuple of field points, once the double-twist code with
    (eta1, eta2) on it passes the records' checks and its C(n, k) subsets
    fit the scan budget.  Theorem 4.2's scans have the same count: with 0
    among the points, C(n-1, k) + C(n-1, k-1) = C(n, k)."""
    alpha = MultiTwistedCode(ctx, TwistProfile(k, *DOUBLE_TWIST, (eta1, eta2)), alpha).alpha
    check_subset_budget(len(alpha), k)
    return alpha


def remark44_is_mds(ctx: Field, alpha, k: int, eta1, eta2) -> MdsVerdict:
    """MDS iff the closed form is nonzero for every k-subset of evaluation
    points (subsets may contain zero): eta2 is not among the bad eta2 that
    remark44_bad_eta2 gives for the subset's class at eta1."""
    alpha = _double_twist_points(ctx, alpha, k, eta1, eta2)
    for subset in itertools.combinations(range(len(alpha)), k):
        cls = remark44_class(ctx, [alpha[i] for i in subset], k)
        if eta2 in remark44_bad_eta2(ctx, [cls], eta1):
            return MdsVerdict(False, "remark44", subset)
    return MdsVerdict(True, "remark44")


def remark44_mds_etas(ctx: Field, alpha, k: int) -> Iterator[tuple[FieldElement, FieldElement]]:
    """Every (eta1, eta2) of nonzero elements whose code on alpha is MDS, in
    lexicographic order: the pairs remark44_is_mds accepts.  The classes of
    alpha's k-subsets are computed once, and each eta1 row keeps the eta2
    that no class makes bad."""
    alpha = _double_twist_points(ctx, alpha, k, ctx.one, ctx.one)
    classes = {
        remark44_class(ctx, [alpha[i] for i in subset], k)
        for subset in itertools.combinations(range(len(alpha)), k)
    }
    for eta1 in range(1, ctx.q):
        bad = remark44_bad_eta2(ctx, classes, eta1)
        for eta2 in range(1, ctx.q):
            if eta2 not in bad:
                yield eta1, eta2


def theorem42_is_mds(ctx: Field, alpha, k: int, eta1, eta2) -> MdsVerdict:
    """MDS via exclusion conditions on (eta1, eta2) from the root structure
    of the twisted polynomials, one case per zero pattern of (a_0, a_1).

    Over every k-subset J of nonzero evaluation points (with e_j the
    elementary symmetric polynomials of J, s = (-1)^k, base = s/prod):

    * a_1 = 0 class: reject when e_{k-1}(J) = 0 and eta1 = base;
    * a_0, a_1 != 0 class: when eta2 != base reject if eta1 equals the
      rational expression (e_{k-1} e_1 + (s/eta2 - prod)) /
      (s prod (s/eta2 - prod)); when eta2 = base reject if e_{k-1}(J) = 0
      and e_1(J) != 0 (the leftover root is then forced and nonzero);
    * a_0 = 0 class: if 0 is an evaluation point, reject when eta2 =
      (-1)^(k-1) / (e_1 e_{k-1}) for some (k-1)-subset with nonzero sum;
      if 0 is not an evaluation point the leftover root is pinned to
      -e_1, so reject exactly when some k-subset has e_1(J) = 0 and
      eta2 = base.

    The two eta2 = base clauses are easy to drop from this case analysis,
    and without them the criterion disagrees with the other oracles (e.g.
    over GF(5) with all four nonzero points).  See the oracle-equivalence
    tests.
    """
    alpha = _double_twist_points(ctx, alpha, k, eta1, eta2)
    nz_idx = [i for i, x in enumerate(alpha) if x != 0]
    nz, has_zero = [alpha[i] for i in nz_idx], len(nz_idx) < len(alpha)

    def witness(pos):
        return MdsVerdict(False, "theorem42", tuple(nz_idx[i] for i in pos))

    for pos, e in _elem_sym_walk(ctx, nz, k):
        base, rational = _eta1_exclusions(ctx, e, k, eta2)
        if e[k - 1] == 0 and eta1 == base:
            return witness(pos)
        if rational is not None:
            if eta1 == rational:
                return witness(pos)
        else:  # eta2 = base
            if e[k - 1] == 0 and e[1] != 0:
                return witness(pos)
            if not has_zero and e[1] == 0:
                return witness(pos)
    if has_zero:
        for pos, e in _elem_sym_walk(ctx, nz, k - 1):
            if eta2 == _eta2_exclusion(ctx, e):
                return witness(pos)
    return MdsVerdict(True, "theorem42")
