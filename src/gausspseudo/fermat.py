"""Classical and Gaussian Fermat compositeness tests and pseudoprime predicates.

The Gaussian test asks whether w ** F(n) = 1 in Z[i]/nZ[i] for w = z/conj(z),
where F(n) is n-1, n+1 or n according to n mod 4.  A base z with
gcd(n, z*conj(z)) > 1 yields INVALID_BASE, which says nothing about n.

The main path, ratio_power_is_one, decides w ** e = 1 mod n for z = a+bi,
any e >= 1 and any n with gcd(n, ab(a^2+b^2)) = 1 through the Lucas chain
V_k = w^k + w^-k, with P = V_1 = 2(a^2-b^2)/(a^2+b^2) and Q = 1: w ** e = 1
iff V_e = 2 and V_(e+1) = P.  That is exact in any commutative ring: for
x = w^e, V_e = 2 gives (x-1)^2 = 0, V_(e+1) = P then gives
(x-1)(w - 1/w) = 0, and w - 1/w = 4abi/(a^2+b^2) is a unit, so x = 1.
Other n, with gcd(n, ab) > 1 (every even n, and ab = 0), take a raw
ladder.  gaussian_fermat_test asks it for e = F(n) modulo the odd part m
of n only: with 2^k || n, w lies in the norm-one group mod 2^k, whose
exponent 2, 4 or 2^(k-2) divides n = F(n), so w ** F(n) = 1 mod 2^k.  The
census order tables ask it for the orders of w modulo prime powers.
The cross-check is Im(z ** F(n)) = 0 mod n, the imaginary form, on a
ladder of its own that shares no code with the main path.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from .arith import check_domain, is_prime, script_F
from .residues import GaussianBase


class TestOutcome(Enum):
    __test__ = False  # not a pytest class

    PASS = "pass"
    FAIL = "fail"
    INVALID_BASE = "invalid_base"


# The ten Gaussian bases used for the joint census table.
TABLE_GAUSSIAN_BASES: tuple[GaussianBase, ...] = tuple(
    GaussianBase(a, b)
    for a, b in [
        (1, 2), (1, 4), (1, 6), (1, 10), (2, 5),
        (2, 7), (3, 8), (3, 10), (4, 5), (4, 9),
    ]
)

TABLE_INTEGER_BASES: tuple[int, ...] = tuple(range(2, 12))

# Fixed panel for property checks: the census bases plus the degenerate
# base 1+1i (whose unit ratio is i) and the mirror 2+1i of 1+2i.
BASE_PANEL: tuple[GaussianBase, ...] = TABLE_GAUSSIAN_BASES + (
    GaussianBase(1, 1),
    GaussianBase(2, 1),
)

# Wider 20-base panel for the form-equivalence property.
EQUIVALENCE_PANEL: tuple[GaussianBase, ...] = BASE_PANEL + tuple(
    GaussianBase(a, b)
    for a, b in [(5, 2), (2, 3), (6, 1), (10, 3), (4, 1), (1, 8), (7, 2), (3, 4)]
)


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


def ratio_power_is_one(z: GaussianBase, e: int, n: int) -> bool:
    """(z/conj(z)) ** e = 1 mod n, for e >= 1 and gcd(n, z*conj(z)) = 1.

    The V-chain above when gcd(n, ab) = 1, else the raw ladder: w - 1/w is
    then no unit, which includes every even n and ab = 0.
    """
    a, b, norm = z.re, z.im, z.norm()
    inv = pow(norm, -1, n)
    if gcd(n, a * b) != 1:
        return _pow_components((a * a - b * b) * inv % n, 2 * a * b * inv % n, e, n) == (1, 0)
    p = 2 * (a * a - b * b) * inv % n
    v, v1 = p, (p * p - 2) % n  # V_1, V_2
    for bit in bin(e)[3:]:
        if bit == "1":
            v, v1 = (v * v1 - p) % n, (v1 * v1 - 2) % n
        else:
            v, v1 = (v * v - 2) % n, (v * v1 - p) % n
    return v == 2 and v1 == p


def gaussian_fermat_test(n: int, z: GaussianBase) -> TestOutcome:
    """Pass iff (z/conj(z)) ** F(n) = 1 mod n, by ratio_power_is_one on the
    odd part m of n, as the power is 1 mod the 2-part of n."""
    check_domain(n, "candidate")
    if gcd(n, z.norm()) != 1:
        return TestOutcome.INVALID_BASE
    m = n >> ((n & -n).bit_length() - 1)
    if z.re * z.im == 0 or m == 1:  # w = 1 or -1, and F(n) is even; or n = 2^k
        return TestOutcome.PASS
    return TestOutcome.PASS if ratio_power_is_one(z, script_F(n), m) else TestOutcome.FAIL


def gaussian_fermat_im_test(n: int, z: GaussianBase) -> TestOutcome:
    """Pass iff Im(z ** F(n)) = 0 mod n; independent of the main path."""
    check_domain(n, "candidate")
    if gcd(n, z.norm()) != 1:
        return TestOutcome.INVALID_BASE
    a, b = z.re % n, z.im % n
    e = script_F(n)
    # dedicated ladder: deliberately does not share code with the main path
    ra, rb = 1 % n, 0
    while e:
        if e & 1:
            ra, rb = (ra * a - rb * b) % n, (ra * b + rb * a) % n
        e >>= 1
        if e:
            a, b = (a * a - b * b) % n, (2 * a * b) % n
    return TestOutcome.PASS if rb == 0 else TestOutcome.FAIL


def is_gfp(n: int, z: GaussianBase) -> bool:
    """Gaussian Fermat pseudoprime: composite, valid base, and the test passes."""
    check_domain(n, "candidate")
    if is_prime(n):
        return False
    return gaussian_fermat_test(n, z) is TestOutcome.PASS


def classical_fermat_test(n: int, a: int) -> TestOutcome:
    """Pass iff a**(n-1) = 1 mod n; gcd(a, n) > 1 yields INVALID_BASE."""
    check_domain(n, "candidate")
    if a < 2:
        raise ValueError(f"integer base must be >= 2, got {a}")
    if gcd(a, n) != 1:
        return TestOutcome.INVALID_BASE
    return TestOutcome.PASS if pow(a, n - 1, n) == 1 else TestOutcome.FAIL


def is_fermat_psp(n: int, a: int) -> bool:
    """Classical Fermat pseudoprime to base a (composite n only)."""
    check_domain(n, "candidate")
    if is_prime(n):
        return False
    return classical_fermat_test(n, a) is TestOutcome.PASS
