"""Exact arithmetic in the ring of Gaussian integers modulo n.

Elements are pairs (re, im) with complex multiplication, reduced to the
canonical range [0, n).  The norm-one subgroup {a+bi : a^2+b^2 = 1 mod n}
is the multiplicative group behind every test in this package.

Moduli are restricted to 64 bits; Python's integers keep every
intermediate product exact, so no widening tricks are needed.
"""

from __future__ import annotations

import re as _regex
from dataclasses import dataclass
from math import gcd

from .arith import check_domain, factorize

COMPONENT_CAP = 1 << 31
MAX_EXPONENT = (1 << 64) - 1
DEFAULT_ENUMERATION_CAP = 10_000


class NotInvertible(ArithmeticError):
    """Raised when an element has no inverse modulo n."""


class InvalidBase(ValueError):
    """Raised when gcd(n, z*conj(z)) > 1, i.e. the base cannot test n.

    This is a precondition failure of the test, never evidence that n is
    composite, so it is kept distinct from an ordinary test failure.
    """


_BASE_PATTERN = _regex.compile(r"^\s*([+-]?\d+)\s*([+-])\s*(\d+)\s*i\s*$")


@dataclass(frozen=True)
class GaussianBase:
    """A fixed Gaussian integer used as a test base, e.g. 1+2i."""

    re: int
    im: int

    def __post_init__(self) -> None:
        if (self.re, self.im) == (0, 0):
            raise ValueError("base must be nonzero")
        if abs(self.re) > COMPONENT_CAP or abs(self.im) > COMPONENT_CAP:
            raise ValueError("base components must not exceed 2**31 in magnitude")

    def norm(self) -> int:
        """re^2 + im^2 over the plain integers (not reduced)."""
        return self.re * self.re + self.im * self.im

    @classmethod
    def parse(cls, text: str) -> "GaussianBase":
        """Parse 'a+bi' / 'a-bi' (optional spaces around the sign)."""
        m = _BASE_PATTERN.match(text)
        if not m:
            raise ValueError(f"cannot parse Gaussian base {text!r}; expected 'a+bi'")
        re_part = int(m.group(1))
        im_part = int(m.group(3))
        if m.group(2) == "-":
            im_part = -im_part
        return cls(re_part, im_part)

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


def _pow_components(a: int, b: int, e: int, n: int) -> tuple[int, int]:
    """(a+bi)^e mod n by binary square-and-multiply on raw components."""
    ra, rb = 1 % n, 0
    while e:
        if e & 1:
            ra, rb = (ra * a - rb * b) % n, (ra * b + rb * a) % n
        e >>= 1
        if e:
            a, b = (a * a - b * b) % n, (2 * a * b) % n
    return ra, rb


@dataclass(frozen=True)
class GaussianResidue:
    """A canonical element of Z[i]/nZ[i]: 0 <= re, im < n."""

    re: int
    im: int
    n: int

    def __post_init__(self) -> None:
        check_domain(self.n, "modulus")
        if not (0 <= self.re < self.n and 0 <= self.im < self.n):
            raise ValueError(
                f"components must lie in [0, {self.n}), got ({self.re}, {self.im})"
            )

    @classmethod
    def one(cls, n: int) -> "GaussianResidue":
        return cls(1 % n, 0, n)

    def _require_same_modulus(self, other: "GaussianResidue") -> None:
        if self.n != other.n:
            raise ValueError(f"modulus mismatch: {self.n} != {other.n}")

    def __add__(self, other: "GaussianResidue") -> "GaussianResidue":
        self._require_same_modulus(other)
        n = self.n
        return GaussianResidue((self.re + other.re) % n, (self.im + other.im) % n, n)

    def __mul__(self, other: "GaussianResidue") -> "GaussianResidue":
        self._require_same_modulus(other)
        n = self.n
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianResidue((a * c - b * d) % n, (a * d + b * c) % n, n)

    def __pow__(self, e: int) -> "GaussianResidue":
        if not 0 <= e <= MAX_EXPONENT:
            raise ValueError(f"exponent must lie in [0, 2**64), got {e}")
        ra, rb = _pow_components(self.re, self.im, e, self.n)
        return GaussianResidue(ra, rb, self.n)

    def conj(self) -> "GaussianResidue":
        return GaussianResidue(self.re, (-self.im) % self.n, self.n)

    def norm(self) -> int:
        return (self.re * self.re + self.im * self.im) % self.n

    def inverse(self) -> "GaussianResidue":
        """conj(z) * norm(z)^-1; exists iff gcd(norm(z), n) = 1."""
        n = self.n
        s = self.norm()
        if gcd(s, n) != 1:
            raise NotInvertible(f"{self} has norm {s} not coprime to {n}")
        s_inv = pow(s, -1, n)
        return GaussianResidue(self.re * s_inv % n, (-self.im) * s_inv % n, n)

    def is_one(self) -> bool:
        return self.re == 1 % self.n and self.im == 0

    def __str__(self) -> str:
        return f"{self.re}+{self.im}i (mod {self.n})"


def reduce(z: GaussianBase, n: int) -> GaussianResidue:
    """Canonical projection of a Gaussian integer into Z[i]/nZ[i]."""
    check_domain(n, "modulus")
    return GaussianResidue(z.re % n, z.im % n, n)


def unit_ratio(z: GaussianBase, n: int) -> GaussianResidue:
    """z/conj(z) mod n, a norm-one element; raises InvalidBase if gcd(n, z*conj(z)) > 1.

    Base validity is decided by the unreduced norm z*conj(z) over Z, not the
    reduced one.
    """
    check_domain(n, "modulus")
    if gcd(n, z.norm()) != 1:
        raise InvalidBase(f"gcd({n}, {z.norm()}) > 1: base {z} cannot test {n}")
    w = reduce(z, n)
    return w * w.conj().inverse()


def _group_elements_prime_power(p: int, k: int) -> list[tuple[int, int]]:
    """All (a, b) with a^2+b^2 = 1 mod p^k, via a table of squares mod p^k."""
    m = p**k
    squares: dict[int, list[int]] = {}
    for b in range(m):
        squares.setdefault(b * b % m, []).append(b)
    out = []
    for a in range(m):
        need = (1 - a * a) % m
        for b in squares.get(need, ()):
            out.append((a, b))
    return out


def _crt_pairs(
    xs: list[tuple[int, int]], mx: int, ys: list[tuple[int, int]], my: int
) -> list[tuple[int, int]]:
    inv = pow(mx, -1, my)
    n = mx * my
    out = []
    for xa, xb in xs:
        for ya, yb in ys:
            a = xa + mx * ((ya - xa) * inv % my)
            b = xb + mx * ((yb - xb) * inv % my)
            out.append((a % n, b % n))
    return out


def enumerate_group(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[GaussianResidue]:
    """All norm-one elements of Z[i]/nZ[i], in ascending (re, im) order:
    those of each prime power q || n, glued with the CRT."""
    check_domain(n, "modulus")
    if n > cap:
        raise ValueError(f"enumeration cap exceeded: {n} > {cap}")
    pairs = None
    modulus = 1
    for p, k in factorize(n).factors:
        part = _group_elements_prime_power(p, k)
        if pairs is None:
            pairs, modulus = part, p**k
        else:
            pairs = _crt_pairs(pairs, modulus, part, p**k)
            modulus *= p**k
    pairs.sort()
    return [GaussianResidue(a, b, n) for a, b in pairs]
