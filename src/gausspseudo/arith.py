"""Integer plumbing and the arithmetic functions of the norm-one group.

Provides the one table of the primes below 2**16 that every sieve reads,
deterministic 64-bit primality testing, reproducible factorization (trial
division by the primes below 2**10, then Brent's cycle variant of Pollard
rho with a fixed parameter sequence on every cofactor), the group-size
function gaussian_phi, the group-exponent function gaussian_lambda, their
classical counterparts, and the cyclic decomposition of the group at prime
powers.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce as _reduce
from itertools import compress
from math import gcd, isqrt, lcm, prod

MAX_ARG = 1 << 63


def _prime_table(limit: int) -> array:
    sieve = bytearray(b"\x00\x00" + b"\x01" * (limit - 2))
    for i in range(2, isqrt(limit - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return array("H", compress(range(limit), sieve))


# The 6,542 primes below 2**16, built once; two bytes each.
_PRIMES = _prime_table(1 << 16)


def primes_up_to(limit: int) -> array:
    """The primes p <= limit, ascending, for limit <= 2**16."""
    if limit > 1 << 16:
        raise ValueError(f"the prime table ends at 2**16, got {limit}")
    return _PRIMES[: bisect_right(_PRIMES, limit)]


# Strong-pseudoprime witnesses covering every n < 3.3 * 10**24 (Sinclair's
# seven-base set), hence deterministic over the whole 64-bit domain.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# The hot loops below walk tuples: iterating an array makes an int per item.
_SMALL_PRIMES = tuple(primes_up_to(37))

# Trial division only strips the primes below 2**10: a cofactor with no
# prime factor below that goes to rho, which splits it in about sqrt(p)
# steps, where longer trial division would cost about p/ln(p) divisions.
_TRIAL_PRIMES = tuple(primes_up_to(1 << 10))


def check_domain(n: int, what: str = "argument") -> None:
    """Raise ValueError unless 2 <= n < 2**63, the domain of every modulus."""
    if not 2 <= n < MAX_ARG:
        raise ValueError(f"{what} must satisfy 2 <= n < 2**63, got {n}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 2**64."""
    if n >= 1 << 64:
        raise ValueError(f"primality test limited to n < 2**64, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Complete prime factorization of n, primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if prod(p**k for p, k in self.factors) != self.n:
            raise ValueError(f"factors {self.factors} do not multiply to {self.n}")
        primes = [p for p, _ in self.factors]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("primes must be strictly increasing")


def _brent_rho(n: int, c: int) -> int:
    """One Brent-rho round with x^2+c; returns a divisor (possibly n)."""
    x, m = 2, 128
    y, r, q = x, 1, 1
    g = 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g


def _rho_factor(n: int) -> int:
    """A nontrivial divisor of composite odd n; deterministic c sequence."""
    for c in range(1, 1000):
        d = _brent_rho(n, c)
        if d not in (1, n):
            return d
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable in practice


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Factor 2 <= n < 2**63 into prime powers.

    Trial division by the primes below 2**10 stops once Miller-Rabin finds
    n, or the cofactor left by a prime divided out, to be prime; each other
    cofactor is a prime, a perfect square, or is split by Brent rho with the
    fixed c = 1, 2, ... sequence.  The primes come out sorted, so the result
    does not depend on the order in which the cofactors were split.
    """
    check_domain(n)
    original = n
    counts: dict[int, int] = {}
    if is_prime(n):
        counts[n] = 1
        n = 1
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            while n % p == 0:
                counts[p] = counts.get(p, 0) + 1
                n //= p
            if is_prime(n):
                counts[n] = 1
                n = 1
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                counts[m] = counts.get(m, 0) + 1
                continue
            root = isqrt(m)
            if root * root == m:
                stack += [root, root]
                continue
            d = _rho_factor(m)
            stack += [d, m // d]
    factors = tuple(sorted(counts.items()))
    return Factorization(original, factors)


def script_F(n: int) -> int:
    """n-1, n+1 or n according to n mod 4 being 1, 3 or even.

    Plays the role of n-1 in the classical Fermat test; equals the group
    size when n is prime.  By convention script_F(1) = 0.
    """
    if not 1 <= n < MAX_ARG:
        raise ValueError(f"argument must satisfy 1 <= n < 2**63, got {n}")
    r = n % 4
    if r == 1:
        return n - 1
    if r == 3:
        return n + 1
    return n


def _gauss_phi_pp(p: int, k: int) -> int:
    if p == 2:
        return 2 if k == 1 else 2 ** (k + 1)
    return p ** (k - 1) * (p - 1) if p % 4 == 1 else p ** (k - 1) * (p + 1)


def _gauss_lambda_pp(p: int, k: int) -> int:
    if p == 2:
        if k == 1:
            return 2
        return 4 if k <= 4 else 2 ** (k - 2)
    return _gauss_phi_pp(p, k)


def _classical_phi_pp(p: int, k: int) -> int:
    return p ** (k - 1) * (p - 1)


def _classical_lambda_pp(p: int, k: int) -> int:
    if p == 2:
        return 1 if k == 1 else (2 if k == 2 else 2 ** (k - 2))
    return _classical_phi_pp(p, k)


def gaussian_phi_from_factors(factors) -> int:
    return prod(_gauss_phi_pp(p, k) for p, k in factors)


def gaussian_lambda_from_factors(factors) -> int:
    return _reduce(lcm, (_gauss_lambda_pp(p, k) for p, k in factors), 1)


def classical_phi_from_factors(factors) -> int:
    return prod(_classical_phi_pp(p, k) for p, k in factors)


def classical_lambda_from_factors(factors) -> int:
    return _reduce(lcm, (_classical_lambda_pp(p, k) for p, k in factors), 1)


def gaussian_phi(n: int) -> int:
    """Order of the norm-one group mod n; gaussian_phi(1) = 1 by convention."""
    if n == 1:
        return 1
    return gaussian_phi_from_factors(factorize(n).factors)


def gaussian_lambda(n: int) -> int:
    """Exponent of the norm-one group mod n; gaussian_lambda(1) = 1."""
    if n == 1:
        return 1
    return gaussian_lambda_from_factors(factorize(n).factors)


def classical_phi(n: int) -> int:
    """Euler's totient."""
    if n == 1:
        return 1
    return classical_phi_from_factors(factorize(n).factors)


def classical_lambda(n: int) -> int:
    """Carmichael's lambda."""
    if n == 1:
        return 1
    return classical_lambda_from_factors(factorize(n).factors)


@dataclass(frozen=True)
class GroupDescriptor:
    """Cyclic decomposition of the norm-one group mod n."""

    cyclic_orders: tuple[int, ...]
    order: int
    exponent: int

    def __post_init__(self) -> None:
        if prod(self.cyclic_orders) != self.order:
            raise ValueError("product of cyclic orders must equal the order")
        if _reduce(lcm, self.cyclic_orders, 1) != self.exponent:
            raise ValueError("lcm of cyclic orders must equal the exponent")


def _cyclic_orders_pp(p: int, k: int) -> tuple[int, ...]:
    if p == 2:
        return (2,) if k == 1 else (2 ** (k - 2), 2, 4)
    return (p ** (k - 1), p - 1) if p % 4 == 1 else (p ** (k - 1), p + 1)


def group_structure(n: int) -> GroupDescriptor:
    """Cyclic factors of the norm-one group, prime-power blocks in prime order."""
    if n == 1:
        return GroupDescriptor((), 1, 1)
    orders: list[int] = []
    for p, k in factorize(n).factors:
        orders.extend(_cyclic_orders_pp(p, k))
    orders_t = tuple(orders)
    return GroupDescriptor(
        orders_t, prod(orders_t), _reduce(lcm, orders_t, 1)
    )
