"""Exact arithmetic in small finite fields GF(p^m).

Elements are plain ints in [0, q): the base-p digits of an element's index
are the coefficients of its residue-class polynomial, so index 0 is the
additive identity and the element with coefficient vector (1, 0, ..., 0)
is the multiplicative identity.  Multiplication, inversion and powering go
through discrete log / antilog tables built from a verified primitive
element; addition is digit-wise mod p: plain XOR when p == 2, integer
addition mod p when m == 1, and otherwise lookups in a table of digit-wise
sums of two chunks of floor(m/2) digits.  The row kernels add_scaled and
dot add the same way, except that for p odd and m > 1 they stay in the
log domain with Zech's logarithm, 1 + g^d = g^zech[d] (K. Huber, "Some
comments on Zech's logarithms", IEEE Trans. IT 36, 1990), one table read
per element in place of a scalar add.

Only fields up to q = 2^16 are supported.  That keeps every table small
and makes exhaustive element scans cheap, which is what the enumeration
workloads in this package lean on.
"""

from __future__ import annotations

import operator
from functools import cache, reduce
from typing import NamedTuple


FieldElement = int  # index encoding, see module docstring


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n is tiny here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over GF(p), coefficients low-to-high ----------------

def _poly_trim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num mod den over GF(p); den must be nonzero."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dd - 1, -1):
        coef = num[i] % p
        if coef == 0:
            continue
        factor = (coef * inv_lead) % p
        for j, dj in enumerate(den):
            num[i - dd + j] = (num[i - dd + j] - factor * dj) % p
    return _poly_trim([c % p for c in num[:dd]] or [0])


@cache
def is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division of a monic polynomial by all monic polynomials of
    degree <= deg/2 over GF(p).

    Memoised, so a FieldSpec built from the modulus default_modulus has
    just proven does not divide it through again."""
    deg = len(modulus) - 1
    if deg < 1:
        return False
    if modulus[0] == 0 and deg > 1:
        return False  # root at zero
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            den = [(idx // p**j) % p for j in range(d)] + [1]
            if _poly_rem(list(modulus), den, p) == [0]:
                return False
    return True


# Pinned moduli for the two fields the worked examples live in, so element
# strings match the published listings bit for bit.  Everything else
# defaults to the smallest-index monic irreducible.
_MODULUS_OVERRIDES: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1 for GF(16)
    (3, 4): (2, 0, 0, 2, 1),  # x^4 + 2x^3 + 2 for GF(81)
}


def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Deterministic default modulus for GF(p^m), p^m <= 1024 guaranteed,
    larger q supported on a best-effort scan."""
    if (p, m) in _MODULUS_OVERRIDES:
        return _MODULUS_OVERRIDES[(p, m)]
    for idx in range(p**m):
        cand = tuple((idx // p**j) % p for j in range(m)) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {m} over GF({p})")


# The package's records are NamedTuples rather than dataclasses, whose import
# costs a cold CLI start more than its own work.  A record that validates its
# fields does so in the __new__ of a subclass; _make and _replace bypass that
# __new__, so the package never calls them on such a record.
class _FieldSpec(NamedTuple):
    p: int
    m: int
    modulus: tuple[int, ...]


class FieldSpec(_FieldSpec):
    """Construction recipe for GF(p^m): prime p, degree m, monic modulus
    of degree m given low-to-high."""

    __slots__ = ()

    def __new__(cls, p: int, m: int, modulus: tuple[int, ...]):
        # the degree and the cap come first, so that no huge p is
        # trial-divided; p^m is only computed where it is small (3^(10^7)
        # alone takes seconds)
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if p >= 2 and (p > 65536 or m > 16 or p**m > 65536):
            order = p**m if m * p.bit_length() <= 256 else f"{p}^{m}"
            raise ValueError(f"field order {order} exceeds the 2^16 cap")
        if _prime_factors(p) != [p]:
            raise ValueError(f"characteristic {p} is not prime")
        mod = tuple(int(c) for c in modulus)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if any(not 0 <= c < p for c in mod):
            raise ValueError("modulus coefficients must lie in [0, p)")
        if not is_irreducible(mod, p):
            raise ValueError(f"modulus {mod} is reducible over GF({p})")
        return super().__new__(cls, p, m, mod)

    @property
    def q(self) -> int:
        return self.p**self.m

    @classmethod
    def of_order(cls, q: int, modulus: tuple[int, ...] | None = None) -> "FieldSpec":
        """Spec for the field of order q with the default (or given) modulus."""
        if q > 65536:
            raise ValueError(f"field order {q} exceeds the 2^16 cap")
        fac = _prime_factors(q)
        if len(fac) != 1 or q < 2:
            raise ValueError(f"{q} is not a prime power")
        p = fac[0]
        m = 0
        n = q
        while n > 1:
            n //= p
            m += 1
        return cls(p, m, modulus if modulus is not None else default_modulus(p, m))


class Field:
    """A concrete GF(p^m) with log/antilog tables.

    Immutable after construction.  All operations are pure functions of
    (field, operands).  The state is plain ints and lists, so an instance
    pickles.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.m = spec.m
        self.q = spec.q
        self.modulus = spec.modulus
        self.zero: FieldElement = 0
        self.one: FieldElement = 1
        # the residue class of x (what element strings call "a")
        if self.m > 1:
            self.a: FieldElement = self.p
        else:
            self.a = (-self.modulus[0]) % self.p
        self._build_addition()
        self.gamma = self._find_primitive()
        self._build_tables()

    @classmethod
    def of_order(cls, q: int, modulus: tuple[int, ...] | None = None) -> "Field":
        return cls(FieldSpec.of_order(q, modulus))

    # -- construction helpers ------------------------------------------------

    def coeffs(self, x: FieldElement) -> tuple[int, ...]:
        """Base-p digits of x, low-to-high, length m."""
        return tuple((x // self.p**j) % self.p for j in range(self.m))

    def from_coeffs(self, cs) -> FieldElement:
        if len(cs) > self.m:
            raise ValueError("too many coefficients")
        return sum((c % self.p) * self.p**j for j, c in enumerate(cs))

    def _mul_schoolbook(self, x: FieldElement, y: FieldElement) -> FieldElement:
        """Polynomial product mod modulus, no tables.  Used to build them."""
        xc, yc = self.coeffs(x), self.coeffs(y)
        prod = [0] * (2 * self.m - 1)
        for i, xi in enumerate(xc):
            if xi:
                for j, yj in enumerate(yc):
                    prod[i + j] = (prod[i + j] + xi * yj) % self.p
        rem = _poly_rem(prod, list(self.modulus), self.p)
        return self.from_coeffs(rem)

    def _pow_schoolbook(self, x: FieldElement, e: int) -> FieldElement:
        r = self.one
        while e:
            if e & 1:
                r = self._mul_schoolbook(r, x)
            x = self._mul_schoolbook(x, x)
            e >>= 1
        return r

    def _find_primitive(self) -> FieldElement:
        """Smallest-index element of multiplicative order q-1."""
        n = self.q - 1
        checks = [n // r for r in _prime_factors(n)]
        for g in range(1, self.q):
            if all(self._pow_schoolbook(g, c) != self.one for c in checks):
                return g
        raise ValueError("no primitive element found; modulus is not irreducible")

    def _build_addition(self):
        """Lookup tables for odd-p addition and negation, each with at most q
        entries: digit-wise sums of two chunks of floor(m/2) base-p digits,
        and the negation of every element.  p == 2 needs neither (XOR)."""
        p, m = self.p, self.m
        self._chunk = p ** (m // 2)
        if p == 2:
            self._add_table, self._neg = [], []
            return
        rows = [[0]]  # rows[a][b] = a + b digit-wise, for a, b < p^j
        for j in range(m // 2):
            w = p**j
            rows = [
                [v + w * ((da + db) % p) for db in range(p) for v in rows[ra]]
                for da in range(p)
                for ra in range(w)
            ]
        self._add_table = rows
        neg = [0]
        for j in range(m):
            w = p**j
            neg = neg + [(p - d) * w + v for d in range(1, p) for v in neg]
        self._neg = neg

    def _span(self, basis: list[FieldElement]) -> list[FieldElement]:
        """Table of sum_j d_j * basis[j], indexed by the base-p number with
        digits d_j."""
        add = self.add
        table = [0]
        for b in basis:
            multiples = [0]
            for _ in range(self.p - 1):
                multiples.append(add(multiples[-1], b))
            table = [add(s, v) for s in multiples for v in table]
        return table

    def _build_tables(self):
        """Walk the powers of gamma with table lookups only.

        Multiplication by gamma is GF(p)-linear on digit vectors, so for
        x = lo + p^h * hi it is low[lo] + high[hi], where low and high are
        spanned by the m products p^j * gamma, the only schoolbook products
        taken here."""
        p, m, n = self.p, self.m, self.q - 1
        h = (m + 1) // 2
        basis = [self._mul_schoolbook(p**j, self.gamma) for j in range(m)]
        low, high = self._span(basis[:h]), self._span(basis[h:])
        split = p**h
        add = operator.xor if p == 2 else self.add  # xor skips a method call per step
        exp = [0] * n
        log = [-1] * self.q
        x = self.one
        for i in range(n):
            exp[i] = x
            log[x] = i
            x = add(low[x % split], high[x // split])
        if x != self.one or -1 in log[1:]:
            raise ValueError("primitive element does not generate the field")
        self._exp = exp + exp  # two periods, so mul needs no reduction
        self._log = log
        # Zech's logarithm, 1 + gamma^d = gamma^zech[d], for the odd-p
        # extension row kernels: adding 1 steps the lowest base-p digit.  The
        # sum is 0 only at gamma^d = -1, where the entry is log[0] = -1.  Two
        # periods, so an index in (-2n, 2n) needs no reduction.
        zech = [] if p == 2 or m == 1 else [log[x + 1 if (x + 1) % p else x + 1 - p] for x in exp]
        self._zech = zech + zech

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: FieldElement, y: FieldElement) -> FieldElement:
        if self.p == 2:
            return x ^ y
        c = self._chunk
        if c == 1:  # m == 1: the prime field itself
            return (x + y) % self.p
        t = self._add_table
        lo = t[x % c][y % c]
        x //= c
        y //= c
        if x < c and y < c:
            return lo + c * t[x][y]
        return lo + c * (t[x % c][y % c] + c * t[x // c][y // c])  # odd m: one more digit

    def neg(self, x: FieldElement) -> FieldElement:
        if self.p == 2:
            return x
        return self._neg[x]

    def sub(self, x: FieldElement, y: FieldElement) -> FieldElement:
        if self.p == 2:
            return x ^ y
        return self.add(x, self._neg[y])

    def mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: FieldElement) -> FieldElement:
        if x == 0:
            raise ZeroDivisionError("inversion of zero")
        return self._exp[(self.q - 1) - self._log[x]]

    def div(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return self.mul(x, self.inv(y))

    def pow(self, x: FieldElement, e: int) -> FieldElement:
        if x == 0:
            if e == 0:
                return self.one
            if e < 0:
                raise ZeroDivisionError("inversion of zero")
            return 0
        return self._exp[(self._log[x] * e) % (self.q - 1)]

    # -- row kernels: one call per row; XOR when p == 2, integers mod p when
    # m == 1, and otherwise Zech's logarithm, x + y = x * (1 + y/x) ----------

    def add_scaled(self, xs, c: FieldElement, ys) -> list[FieldElement]:
        """[x + c*y for x, y in zip(xs, ys)]."""
        if c == 0:
            return list(xs)
        p, exp, log = self.p, self._exp, self._log
        if p == 2:
            lc = log[c]
            return [x ^ exp[lc + log[y]] if y else x for x, y in zip(xs, ys)]
        if self.m == 1:
            return [(x + c * y) % p for x, y in zip(xs, ys)]
        lc, zech = log[c], self._zech
        # x + c*y = g^(lx + zech[lc + ly - lx]); that index lies in (-n, 2n)
        return [
            x if not y
            else exp[lc + log[y]] if not x
            else exp[lx + z] if (z := zech[lc + log[y] - (lx := log[x])]) >= 0
            else 0
            for x, y in zip(xs, ys)
        ]

    def dot(self, xs, ys) -> FieldElement:
        """sum(x*y for x, y in zip(xs, ys))."""
        p, exp, log = self.p, self._exp, self._log
        if p == 2:
            return reduce(operator.xor, [exp[log[x] + log[y]] for x, y in zip(xs, ys) if x and y], 0)
        if self.m == 1:
            return sum(x * y for x, y in zip(xs, ys)) % p
        zech, n = self._zech, self.q - 1
        s = -1  # log of the running sum in [0, n), or -1 while the sum is 0
        for x, y in zip(xs, ys):
            if x and y:
                lt = log[x] + log[y]
                if s < 0:
                    s = lt % n
                elif (z := zech[lt - s]) >= 0:
                    s = (s + z) % n
                else:
                    s = -1
        return exp[s] if s >= 0 else 0

    def sign(self, k: int) -> FieldElement:
        """(-1)^k as a field element."""
        return self.one if k % 2 == 0 else self.neg(self.one)

    # -- subfields -----------------------------------------------------------

    def is_in_subfield(self, x: FieldElement, q0: int) -> bool:
        """True iff x lies in the subfield of order q0, i.e. x^q0 == x."""
        d, n = 0, q0
        while n > 1 and n % self.p == 0:
            n //= self.p
            d += 1
        if n != 1 or d == 0 or self.m % d != 0:
            raise ValueError(f"{q0} is not a subfield order of {self.q}")
        return self.pow(x, q0) == x

    def subfield_elements(self, q0: int) -> list[FieldElement]:
        return [x for x in range(self.q) if self.is_in_subfield(x, q0)]

    # -- text form -----------------------------------------------------------

    def format(self, x: FieldElement) -> str:
        """Element as a sum of descending powers of a, e.g. 'a^3 + a^2 + 1'."""
        if x == 0:
            return "0"
        terms = []
        cs = self.coeffs(x)
        for j in range(self.m - 1, -1, -1):
            c = cs[j]
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                var = "a" if j == 1 else f"a^{j}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(terms)

    def parse(self, s: str) -> FieldElement:
        """Inverse of format; also accepts exponents >= m (reduced mod the
        modulus) and '2a^3'-style juxtaposed coefficients."""
        out = self.zero
        for term in s.split("+"):
            term = term.replace(" ", "").replace("\t", "")
            if not term:
                raise ValueError(f"empty term in element string {s!r}")
            coeff, rest = 1, term
            head = ""
            while rest and rest[0].isdigit():
                head += rest[0]
                rest = rest[1:]
            if head:
                coeff = int(head)
            if rest.startswith("*"):
                rest = rest[1:]
            if rest == "":
                val = (coeff % self.p)  # constant term
            elif rest == "a":
                val = self.mul(coeff % self.p, self.a)
            elif rest.startswith("a^") and rest[2:].isdigit():
                val = self.mul(coeff % self.p, self.pow(self.a, int(rest[2:])))
            else:
                raise ValueError(f"malformed token {term!r} in element string {s!r}")
            out = self.add(out, val)
        return out

    def parse_vector(self, items) -> tuple[FieldElement, ...]:
        """A string item is a polynomial in a (parse), any other item an
        element index.  A string that is a bare integer >= p is refused, as
        it reads as a constant mod p where an index may be meant."""
        for s in items:
            if isinstance(s, str) and s.strip().isdecimal() and int(s) >= self.p:
                raise ValueError(
                    f"element string {s.strip()!r} is the constant {int(s)} mod {self.p} = "
                    f"{int(s) % self.p} as a polynomial in a, not the element index {int(s)}; "
                    f"write it as a polynomial in a with coefficients below {self.p}"
                )
        return tuple(self.parse(s) if isinstance(s, str) else int(s) for s in items)

    def __repr__(self):
        mod = " + ".join(
            f"x^{j}" if c == 1 and j > 1 else ("x" if c == 1 and j == 1 else (f"{c}" if j == 0 else f"{c}*x^{j}"))
            for j, c in reversed(list(enumerate(self.modulus)))
            if c
        )
        return f"Field(GF({self.q}), modulus={mod})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

