"""Number-class predicates built on the norm-one group.

Covers the Gaussian analogues of Carmichael numbers (two equivalent
routes), cyclic numbers, Lehmer's totient condition and the Giuga-style
power-sum set, plus the classical Carmichael/cyclic predicates, Williams
numbers, and an aggregate report.

Each class is defined once, as predicate(n, factors) in PREDICATES, which
the is_* functions, classify() and the census searches all evaluate; the
witness routes of g_carmichael and carmichael are cross-checked against it.
The census applies g_cyclic_from_phi, which reads phi_G(n) alone, and
giuga_from_totient; the G-cyclic entry and giuga_from_factors call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod

from .arith import (
    check_domain,
    classical_phi_from_factors,
    factorize,
    gaussian_lambda_from_factors,
    gaussian_phi_from_factors,
    script_F,
)

class ConsistencyError(RuntimeError):
    """Two provably equivalent computations disagreed: an implementation bug."""


def _is_prime(factors) -> bool:
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# Class predicates, each defined once as predicate(n, factors)
# ---------------------------------------------------------------------------

def _g_carmichael(n: int, factors) -> bool:
    return not _is_prime(factors) and script_F(n) % gaussian_lambda_from_factors(factors) == 0


def _carmichael(n: int, factors) -> bool:
    if n % 2 == 0 or _is_prime(factors):
        return False
    return all(k == 1 for _, k in factors) and all((n - 1) % (p - 1) == 0 for p, _ in factors)


def g_cyclic_from_phi(n: int, phi: int) -> bool:
    """G-cyclic from n and phi_G(n), which a sieve can give."""
    return gcd(phi, n) == 1


def giuga_from_totient(n: int, phi: int, d: int) -> bool:
    """Giuga membership from n, phi_G(n) and d, the product of the p**k || n
    with F(p) | F(n): d | phi_G(n) - F(n) and (n/d) | F(n), by the CRT."""
    F = script_F(n)
    return (phi - F) % d == 0 and F % (n // d) == 0


def _g_cyclic(n: int, factors) -> bool:
    return g_cyclic_from_phi(n, gaussian_phi_from_factors(factors))


def _cyclic(n: int, factors) -> bool:
    return gcd(classical_phi_from_factors(factors), n) == 1


def _g_lehmer(n: int, factors) -> bool:
    return not _is_prime(factors) and script_F(n) % gaussian_phi_from_factors(factors) == 0


def power_congruence(x: int, n: int) -> bool:
    """x ** x = 1 mod n.

    x ** x = 1 forces gcd(x, n) = 1, so the gcd settles most n before the
    power is taken; gaussian_phi(n) and gaussian_lambda(n) have the same
    prime divisors, so for either that gcd is the G-cyclic test.
    """
    return gcd(x, n) == 1 and pow(x, x, n) == 1


def _phi_power_congruence(n: int, factors) -> bool:
    return power_congruence(gaussian_phi_from_factors(factors), n)


def _lambda_power_congruence(n: int, factors) -> bool:
    return power_congruence(gaussian_lambda_from_factors(factors), n)


def _williams(n: int, factors, r: int = 1) -> bool:
    if _is_prime(factors) or any(k > 1 for _, k in factors):
        return False
    for p, _ in factors:
        if (n + r) % (p + r) != 0:
            return False
        d = p - r
        if d == 0 or (n - r) % abs(d) != 0:
            return False
    return True


# name -> predicate(n, factors), in report order; module-level functions,
# so the range searches can ship them to worker processes.
PREDICATES = {
    "g_carmichael": _g_carmichael,
    "carmichael": _carmichael,
    "g_cyclic": _g_cyclic,
    "cyclic": _cyclic,
    "g_lehmer": _g_lehmer,
    "phi_power_congruence": _phi_power_congruence,
    "lambda_power_congruence": _lambda_power_congruence,
    "williams_1": _williams,
}


def _decide(predicate, n: int) -> bool:
    check_domain(n)
    return predicate(n, factorize(n).factors)


# ---------------------------------------------------------------------------
# Korselt-style predicates
# ---------------------------------------------------------------------------

def g_carmichael_witness(n: int) -> tuple[bool, dict]:
    """Korselt-style route with evidence: (verdict, witness dict).

    Composite n qualifies iff F(p) | F(n) for every prime p | n, and n is
    either odd square-free, or a multiple of 4 with n/4 no prime q >= 7.
    The F(p) | F(n) loop already rules out the other even n: 4 | F(p) for
    every odd p, so n = 2 mod 4 with an odd prime factor fails it, and for
    a prime q = n/4 >= 7, F(q) = q +- 1 does not divide 4q.  On failure
    the witness records the first violation.
    """
    check_domain(n)
    fac = factorize(n)
    if _is_prime(fac.factors):
        return False, {"prime": n}
    F = script_F(n)
    for p, _ in fac.factors:
        if F % script_F(p) != 0:
            return False, {"f_divisibility_violation": p}
    if n % 2 == 1:
        for p, k in fac.factors:
            if k > 1:
                return False, {"square_factor": p}
    return True, {}


def is_g_carmichael(n: int) -> bool:
    """Composite n that passes the Gaussian test for every valid base."""
    return g_carmichael_witness(n)[0]


def is_g_carmichael_via_lambda(n: int) -> bool:
    """Equivalent route: composite and group exponent divides F(n)."""
    return _decide(_g_carmichael, n)


def carmichael_witness(n: int) -> tuple[bool, dict]:
    """Korselt's criterion with evidence: odd square-free composite, p-1 | n-1."""
    check_domain(n)
    if n % 2 == 0:
        return False, {"even": n}
    fac = factorize(n)
    if _is_prime(fac.factors):
        return False, {"prime": n}
    for p, k in fac.factors:
        if k > 1:
            return False, {"square_factor": p}
    for p, _ in fac.factors:
        if (n - 1) % (p - 1) != 0:
            return False, {"korselt_violation": p}
    return True, {}


def is_carmichael(n: int) -> bool:
    return carmichael_witness(n)[0]


# ---------------------------------------------------------------------------
# Cyclic and Lehmer-style predicates
# ---------------------------------------------------------------------------

def is_g_cyclic(n: int) -> bool:
    """gcd(gaussian_phi(n), n) = 1."""
    return _decide(_g_cyclic, n)


def is_cyclic_number(n: int) -> bool:
    """gcd(phi(n), n) = 1 (every group of such order is cyclic)."""
    return _decide(_cyclic, n)


def is_g_lehmer(n: int) -> bool:
    """Composite n with gaussian_phi(n) dividing F(n)."""
    return _decide(_g_lehmer, n)


def phi_power_congruence(n: int) -> bool:
    """gaussian_phi(n) ** gaussian_phi(n) = 1 mod n."""
    return _decide(_phi_power_congruence, n)


def lambda_power_congruence(n: int) -> bool:
    """gaussian_lambda(n) ** gaussian_lambda(n) = 1 mod n."""
    return _decide(_lambda_power_congruence, n)


# ---------------------------------------------------------------------------
# Giuga-style power sums
# ---------------------------------------------------------------------------

def giuga_membership(n: int) -> bool:
    """Whether the sum of z**F(n) over the norm-one group equals F(n) mod n.

    Both components of the sum must match (real part F(n), imaginary 0).
    Evaluated prime power by prime power and recombined through the CRT,
    so the cost is polylogarithmic instead of one exponentiation per
    group element.
    """
    check_domain(n)
    return giuga_from_factors(n, factorize(n).factors)


def giuga_from_factors(n: int, factors) -> bool:
    """giuga_membership of n, given its factorization.

    For odd p the group mod p^k || n is cyclic of order m = phi_G(p^k);
    z -> z**F maps it onto its subgroup of order e = m / gcd(m, F), hitting
    each element m/e times.  The part of that subgroup of order e' prime to
    p consists of the distinct roots of x**e' - 1, which sum to 0 when
    e' > 1, while the p-part sums to its own size.  So the power sum over
    the group mod p^k is m when e' = 1, that is when F(p) | F(n), and 0
    otherwise.  For p = 2, F(n) = n is a multiple of F(2) and of the group
    exponent (2, 4 or 2^(k-2)), and the sum is m.  Times phi_G(n) / m from
    the other prime powers, the sum over the group mod n is, mod p^k,
    phi_G(n) or 0, with imaginary part 0.
    """
    F = script_F(n)
    d = prod(p**k for p, k in factors if F % script_F(p) == 0)
    return giuga_from_totient(n, gaussian_phi_from_factors(factors), d)


# ---------------------------------------------------------------------------
# Williams numbers and the combined 4k+3 check
# ---------------------------------------------------------------------------

def is_r_williams(n: int, r: int) -> bool:
    """Square-free composite n with (p+r) | (n+r) and (p-r) | (n-r) for all p | n.

    Square-freeness follows the usual definition of Korselt/Williams
    numbers; without it, odd prime powers such as 27 would slip in and
    break the equivalence with the Carmichael-type predicates.
    """
    check_domain(n)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return _williams(n, factorize(n).factors, r)


def carmichael_and_g_carmichael_3mod4(n: int, factors=None) -> bool:
    """For n = 3 mod 4: Carmichael and G-Carmichael simultaneously.

    Computed twice: directly, and through the equivalent condition
    "1-Williams with every prime factor = 3 mod 4".  A disagreement means
    an implementation bug and raises ConsistencyError.  factors, when
    given, is the factorization of n, which is then not recomputed.
    """
    check_domain(n)
    if n % 4 != 3:
        raise ValueError(f"argument must be 3 mod 4, got {n}")
    if factors is None:
        factors = factorize(n).factors
    direct = _carmichael(n, factors) and _g_carmichael(n, factors)
    via_williams = _williams(n, factors) and all(p % 4 == 3 for p, _ in factors)
    if direct != via_williams:
        raise ConsistencyError(
            f"n={n}: carmichael&g_carmichael={direct} but williams route={via_williams}"
        )
    return direct


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    n: int
    is_prime: bool
    g_carmichael: bool
    carmichael: bool
    g_cyclic: bool
    cyclic: bool
    g_lehmer: bool
    phi_power_congruence: bool
    lambda_power_congruence: bool
    williams_1: bool
    giuga_member: bool | None = None
    witnesses: dict = field(default_factory=dict)

    FLAG_ORDER = (*PREDICATES, "giuga_member")


def classify(n: int, *, with_giuga: bool = False) -> ClassificationReport:
    """Evaluate every predicate at n; the Giuga sum only when requested.

    The flags come from PREDICATES.  The witness routes of g_carmichael
    and carmichael are cross-checked against the table, and a disagreement
    raises ConsistencyError.
    """
    check_domain(n)
    factors = factorize(n).factors
    flags = {name: predicate(n, factors) for name, predicate in PREDICATES.items()}

    g_carm, witness = g_carmichael_witness(n)
    carm, c_witness = carmichael_witness(n)
    if (g_carm, carm) != (flags["g_carmichael"], flags["carmichael"]):
        raise ConsistencyError(f"witness routes disagree with the predicate table at {n}")
    witnesses = {**c_witness, **witness}

    return ClassificationReport(
        n=n,
        is_prime=_is_prime(factors),
        **flags,
        giuga_member=giuga_from_factors(n, factors) if with_giuga else None,
        witnesses=witnesses,
    )
