"""Parallel range searches: pseudoprime lists, classifier censuses, the
joint (Gaussian base x integer base) pseudoprime table, and verification
of externally published pseudoprime lists.

Ranges are split into fixed-size blocks scattered over worker processes,
never more of them than the CPUs this process may run on; block results
are merged in block order, so output is byte-identical for any worker
count.  Primality inside a block comes from a segmented sieve below 2**32
and deterministic Miller-Rabin above; factorizations come from a batched
division sieve below 2**32 and from per-n factorization above.

Every search is a sieve followed by exact confirmation.  The joint table
(per integer base a), the Gaussian pseudoprime search (base z) and the
Korselt classes g_carmichael and g_lehmer sieve each block by a divisor
that F(n) (n-1 for the table) must have for every prime power q | n: the
order of a or of z/conj(z) modulo q, or the group exponent or group order
of q.  They also rule out n = kP with a large prime P.  The exact test,
or the factorization and the class predicate, then runs on a few percent
of the composites only.  The other classes are decided from the
factorization of every n of the searched progression.  All kernels are
pure; a cancelled run simply never returns a partial result.
"""

from __future__ import annotations

import json
import logging
import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress
from math import gcd, isqrt
from typing import NamedTuple

from .arith import (
    MAX_ARG,
    factorize,
    gaussian_lambda_from_factors,
    gaussian_phi_from_factors,
    is_prime,
    script_F,
)
from .classify import (
    DEFAULT_GIUGA_CAP,
    _carmichael_from_factors,
    _g_carmichael_from_factors,
    _g_lehmer_from_factors,
    _giuga_from_factors,
    _r_williams_from_factors,
    carmichael_and_g_carmichael_3mod4,
)
from .fermat import TestOutcome, gaussian_fermat_ratio_test
from .residues import GaussianBase, _pow_components

log = logging.getLogger(__name__)

DEFAULT_BLOCK_SIZE = 1 << 20
_SIEVE_CUTOFF = 1 << 32
_FACTOR_BATCH = 1 << 16

# Searches factor with the uncached function: the process that runs one
# search may serve many more, and a cache filled by them would only grow.
_factorize = factorize.__wrapped__


@dataclass(frozen=True)
class RangeQuery:
    """Half-open search range [lo, hi) with optional residue filter."""

    lo: int
    hi: int
    residue_filter: tuple[int, int] | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if not 2 <= self.lo < self.hi < MAX_ARG:
            raise ValueError(f"need 2 <= lo < hi < 2**63, got [{self.lo}, {self.hi})")
        if self.residue_filter is not None:
            m, r = self.residue_filter
            if not (m >= 1 and 0 <= r < m):
                raise ValueError(f"bad residue filter {self.residue_filter}")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass(frozen=True)
class CensusTable:
    """Joint pseudoprime counts: rows are Gaussian bases, columns integer bases."""

    gaussian_bases: tuple[GaussianBase, ...]
    integer_bases: tuple[int, ...]
    counts: tuple[tuple[int, ...], ...]
    limit: int
    residue_filter: tuple[int, int] | None

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.gaussian_bases) or any(
            len(row) != len(self.integer_bases) for row in self.counts
        ):
            raise ValueError("counts shape must match base lists")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of running the Gaussian test over an external candidate list."""

    source: str
    total_read: int
    filtered: int
    passing: tuple[int, ...]
    invalid_base: int
    malformed_lines: int


# ---------------------------------------------------------------------------
# Primality within blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _base_primes(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(range(i * i, limit + 1, i))
    return tuple(i for i in range(limit + 1) if sieve[i])


def _composite_flags(lo: int, hi: int) -> bytearray:
    """flags[n-lo] = 1 iff n is composite, for lo <= n < hi."""
    flags = bytearray(hi - lo)
    if hi <= _SIEVE_CUTOFF:
        for p in _base_primes(isqrt(hi - 1) + 1):
            start = max(p * p, (lo + p - 1) // p * p)
            if start < hi:
                flags[start - lo :: p] = b"\x01" * len(range(start, hi, p))
    else:
        for n in range(lo, hi):
            if not is_prime(n):
                flags[n - lo] = 1
    return flags


def _filtered_range(lo: int, hi: int, residue_filter):
    if residue_filter is None:
        return range(lo, hi)
    m, r = residue_filter
    return range(lo + (r - lo) % m, hi, m)


# ---------------------------------------------------------------------------
# Block scheduling
# ---------------------------------------------------------------------------

def _blocks(lo: int, hi: int, block_size: int):
    out = []
    b = lo
    while b < hi:
        out.append((b, min(b + block_size, hi)))
        b += block_size
    return out


def available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_blocks(kernel, tasks, workers: int, progress=None):
    """Run kernel over tasks, merging results in task order.

    The pool never exceeds the available CPUs or the task count.
    """
    results = []
    workers = min(workers, len(tasks), available_cpus())
    if workers <= 1:
        for i, task in enumerate(tasks):
            results.append(kernel(task))
            if progress:
                progress(i + 1, len(tasks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, res in enumerate(pool.map(kernel, tasks)):
                results.append(res)
                if progress:
                    progress(i + 1, len(tasks))
    return results


# ---------------------------------------------------------------------------
# Factor sieve for predicate scans that need every factorization
# ---------------------------------------------------------------------------

def _factor_batch(start: int, hi: int, m: int):
    """Factorizations of n = start, start + m, ... below hi.

    Below the sieve cutoff a batched division sieve over the primes up to
    sqrt(hi) does the work, visiting only the terms each prime divides;
    above it that prime list would outgrow memory (about 1.5 * 10**8
    primes near 2**63), so each n is factored on its own.
    """
    if hi > _SIEVE_CUTOFF:
        return [_factorize(n).factors for n in range(start, hi, m)]
    rem = list(range(start, hi, m))
    size = len(rem)
    factors = [[] for _ in range(size)]
    for p in _base_primes(isqrt(hi - 1) + 1):
        found = _class_in_progression(start, m, 0, p)
        if found is None:
            continue
        i, step = found
        for idx in range(i, size, step):
            k = 0
            v = rem[idx]
            while v % p == 0:
                v //= p
                k += 1
            rem[idx] = v
            factors[idx].append((p, k))
    for idx in range(size):
        if rem[idx] > 1:
            factors[idx].append((rem[idx], 1))
    return factors


# ---------------------------------------------------------------------------
# Order sieve over one arithmetic progression
# ---------------------------------------------------------------------------

def _class_in_progression(start: int, m: int, c: int, modulus: int):
    """(first index, index step) of the terms of start, start+m, ... that are
    = c (mod modulus), or None when the progression never meets that class."""
    g = gcd(m, modulus)
    if (c - start) % g:
        return None
    step = modulus // g
    return (c - start) // g * pow(m // g, -1, step) % step, step


_NOT = bytes([1]) + bytes(255)  # translate table: byte 0 -> 1, anything else -> 0


def _cofactor_codes(lo: int, hi: int, m: int, start: int, kmax: int) -> bytearray:
    """codes[i] for n = start + i*m in [lo, hi): 0 if n is prime, else the
    least k in [2, kmax] with n/k prime, else 1."""
    codes = _composite_flags(lo, hi)[start - lo :: m]
    size = len(codes)
    for k in range(kmax, 1, -1):  # descending, so the least k is written last
        found = _class_in_progression(start, m, 0, k)
        if found is None:
            continue
        i, step = found
        p0, pstep = (start + i * m) // k, step * m // k
        if p0 < 2:  # n = k itself: its cofactor 1 is no prime
            i, p0 = i + step, p0 + pstep
        count = len(range(i, size, step))
        if count <= 0:
            continue
        prime = int.from_bytes(
            _composite_flags(p0, p0 + (count - 1) * pstep + 1)[::pstep].translate(_NOT),
            "little",
        )
        sub = int.from_bytes(codes[i::step], "little")
        codes[i::step] = (sub & ~(prime * 255) | prime * k).to_bytes(count, "little")
    return codes


def _sieve_primes(lo: int, hi: int) -> tuple[int, ...]:
    """The primes whose powers sieve [lo, hi): those up to sqrt(min(hi,
    2**32)) and up to hi - lo.  A larger prime has at most one multiple in
    the range and would cost more to prepare than the test it saves; fewer
    primes are sound at any height, the sieve merely rules out less."""
    return _base_primes(min(isqrt(min(hi, _SIEVE_CUTOFF) - 1) + 1, hi - lo))


def _sieve_progression(flags: bytearray, start: int, m: int, bounds, qs, ds, c: int) -> None:
    """Clear flags[i] for the n = start + i*m that cannot have d | n - c for
    the d of every prime power q | n, such as the order of a unit x with
    x^(n-c) = 1 (mod n).

    flags holds the codes of _cofactor_codes.  Two rules clear:

    * large prime: for each (k, bound) in bounds, every n > bound coded k;
    * order sieve: for each prime power q with its d in (qs, ds), a
      multiple of q can pass only if n = 0 (mod q) and n = c (mod d); d = 0
      means no multiple of q passes.  One slice saves the class that may
      pass, one clears all multiples of q, one restores the class.
    """
    for k, bound in bounds:
        i = max(0, (bound - start) // m + 1)
        kill = bytearray(range(256))
        kill[k] = 0
        flags[i:] = flags[i:].translate(kill)
    size = len(flags)
    for q, d in zip(qs, ds):
        multiples = _class_in_progression(start, m, 0, q)
        if multiples is None:
            continue
        kept = None
        if d:
            g = gcd(q, d)
            if c % g == 0:
                dg = d // g
                if dg == 1:  # every multiple of q is in the class
                    continue
                kept = _class_in_progression(
                    start, m, q * (c // g * pow(q // g, -1, dg) % dg), q * dg
                )
        if kept:
            ki, kstep = kept
            saved = flags[ki::kstep]
        i, step = multiples
        flags[i::step] = bytes(len(range(i, size, step)))
        if kept:
            flags[ki::kstep] = saved


def _ratio_components(zre: int, zim: int, znorm: int, n: int) -> tuple[int, int]:
    """z/conj(z) = z^2 / (z*conj(z)) mod n as raw components; needs gcd(n, znorm) = 1."""
    inv = pow(znorm % n, -1, n)
    return (zre * zre - zim * zim) * inv % n, 2 * zre * zim * inv % n


# ---------------------------------------------------------------------------
# Kernels (module level so they pickle for worker processes)
# ---------------------------------------------------------------------------

def _g_lehmer_multi(n: int, factors) -> bool:
    # the published sequence; the two-factor members are twin_pair_product
    return len(factors) >= 3 and _g_lehmer_from_factors(n, factors)


def _g_cyclic(n: int, factors) -> bool:
    return gcd(gaussian_phi_from_factors(factors), n) == 1


def _congruence_exception(n: int, factors) -> bool:
    P = gaussian_phi_from_factors(factors)
    if gcd(P, n) != 1:
        return False
    L = gaussian_lambda_from_factors(factors)
    return pow(P % n, P, n) != 1 % n and pow(L % n, L, n) != 1 % n


def _williams_1(n: int, factors) -> bool:
    return _r_williams_from_factors(n, factors, 1)


def _factored_kernel(task):
    """Exact scan for classifiers decided by the factorization of every n
    of the searched progression."""
    lo, hi, residue_filter, predicate = task
    m, r = residue_filter or (1, 0)
    hits = []
    for blo in range(lo, hi, _FACTOR_BATCH):
        bhi = min(blo + _FACTOR_BATCH, hi)
        start = blo + (r - blo) % m
        factors = _factor_batch(start, bhi, m)
        hits += [n for n, f in zip(range(start, bhi, m), factors) if predicate(n, f)]
    return hits


def _carmichael_type_kernel(task):
    """Prefiltered scan for carmichael / williams_1: both imply an odd
    base-2 Fermat pseudoprime, so one pow rules out nearly every n before
    it is factored."""
    lo, hi, residue_filter, predicate = task
    flags = _composite_flags(lo, hi)
    hits = []
    for n in _filtered_range(lo, hi, residue_filter):
        if not flags[n - lo] or n % 2 == 0 or pow(2, n - 1, n) != 1:
            continue
        if predicate(n, _factorize(n).factors):
            hits.append(n)
    return hits


def _intersection_kernel(task):
    """n = 3 mod 4 that are simultaneously Carmichael and G-Carmichael.

    Any such n (either route) is an odd base-2 Fermat pseudoprime, so the
    scan tests that single congruence first and evaluates the exact
    predicates, including the Williams consistency cross-check, on the
    survivors only.
    """
    lo, hi = task
    flags = _composite_flags(lo, hi)
    hits = []
    start = lo + (3 - lo) % 4
    for n in range(start, hi, 4):
        if not flags[n - lo]:
            continue
        if pow(2, n - 1, n) != 1:
            continue
        if carmichael_and_g_carmichael_3mod4(n):
            hits.append(n)
    return hits


def _mask_orders(integer_bases, lo: int, hi: int):
    """Per integer base a: (a, qs, ds), two int64 arrays over prime powers
    q < hi whose prime is a sieve prime, where d = ord_q(a), or d = 0 when
    no multiple of q can pass base a (the prime divides a or d).  Pairs with
    d = 1 carry no condition and are left out.  Arrays keep the task that
    carries them to every block small.

    Sieve primes are those of _sieve_primes.
    """
    primes = _sieve_primes(lo, hi)
    out = tuple((a, array("q"), array("q")) for a in integer_bases)
    for p in primes:
        p1_factors = [f for f, _ in factorize(p - 1).factors] if p > 2 else []
        for a, qs, ds in out:
            if a % p == 0:
                qs.append(p)
                ds.append(0)
                continue
            d = p - 1
            for f in p1_factors:
                while d % f == 0 and pow(a, d // f, p) == 1:
                    d //= f
            q = p
            while q < hi:
                while pow(a, d, q) != 1:  # ord_q(a) is ord_p(a) times a power of p
                    d *= p
                if d % p == 0:
                    qs.append(q)
                    ds.append(0)
                    break
                if d > 1:
                    qs.append(q)
                    ds.append(d)
                q *= p
    return out


def _psp_mask_kernel(task):
    """Composite n (after filter) with their classical-pseudoprime base mask.

    For each integer base a, a sieve over the block rules out the n that
    cannot satisfy a^(n-1) = 1 (mod n); only the survivors pay for the
    exact test pow(a, n-1, n) == 1.  The sieve removes n in two ways:

    * order sieve: a prime power q | n forces ord_q(a) | n-1, so of the
      multiples of q only n = 0 (mod q), n = 1 (mod ord_q(a)) can pass;
    * large prime: if n = kP with P prime, then a^(n-1) = a^(k-1) (mod P),
      so n fails whenever P > a^(k-1) - 1 >= 1 (after R. G. E. Pinch, "The
      pseudoprimes up to 10^13", ANTS-IV, 2000).
    """
    lo, hi, residue_filter, base_orders = task
    m, r = residue_filter or (1, 0)
    start = lo + (r - lo) % m
    ns = range(start, hi, m)
    amin = min(a for a, _, _ in base_orders)
    # the large-prime rule can act on k <= kmax for some base; it needs the
    # primality of n/k, which the segmented sieve gives below the cutoff
    kmax = 1
    while hi <= _SIEVE_CUTOFF and (kmax + 1) * (amin**kmax - 1) < hi:
        kmax += 1
    codes = _cofactor_codes(lo, hi, m, start, kmax)
    masks = {}
    for j, (a, qs, ds) in enumerate(base_orders):
        bounds = []
        for k in range(2, kmax + 1):
            bound = k * (a ** (k - 1) - 1)  # n = kP > bound has P > a^(k-1) - 1
            if bound >= hi:
                break
            bounds.append((k, bound))
        flags = bytearray(codes)
        _sieve_progression(flags, start, m, bounds, qs, ds, 1)
        for n in compress(ns, flags):
            if pow(a, n - 1, n) == 1:
                masks[n] = masks.get(n, 0) | 1 << j
    return sorted(masks.items())


def _joint_kernel(task):
    """One block of the joint table: counts[i][j] of the composites that
    pass Gaussian base i and integer base j.  The Gaussian tests run on the
    classical pseudoprimes of _psp_mask_kernel only."""
    lo, hi, residue_filter, base_orders, gaussian_bases = task
    counts = [[0] * len(base_orders) for _ in gaussian_bases]
    for n, mask in _psp_mask_kernel((lo, hi, residue_filter, base_orders)):
        columns = [j for j in range(len(base_orders)) if mask >> j & 1]
        for row, z in zip(counts, gaussian_bases):
            if gaussian_fermat_ratio_test(n, z) is TestOutcome.PASS:
                for j in columns:
                    row[j] += 1
    return counts


def _gfp_orders(z: GaussianBase, lo: int, hi: int):
    """Two int64 arrays (qs, ds) over prime powers q < hi whose prime is a
    sieve prime: d = ord_q(z/conj(z)), or d = 0 when the prime divides
    z*conj(z), which makes every multiple of it an invalid modulus for z.
    Pairs with d = 1 carry no condition and are left out.
    """
    znorm = z.norm()
    qs, ds = array("q"), array("q")
    for p in _sieve_primes(lo, hi):
        if znorm % p == 0:
            qs.append(p)
            ds.append(0)
            continue
        d = script_F(p)  # the order of the norm-one group mod p
        ra, rb = _ratio_components(z.re, z.im, znorm, p)
        for f, _ in factorize(d).factors:
            while d % f == 0 and _pow_components(ra, rb, d // f, p) == (1, 0):
                d //= f
        q = p
        while q < hi:
            ra, rb = _ratio_components(z.re, z.im, znorm, q)
            while _pow_components(ra, rb, d, q) != (1, 0):  # ord_p times a power of p
                d *= p
            if d > 1:
                qs.append(q)
                ds.append(d)
            q *= p
    return qs, ds


def _gfp_large_prime_bounds(z: GaussianBase, hi: int) -> tuple:
    """Pairs (k, bound) such that n = kP > bound with P prime fails base z.

    With w = z/conj(z) and e = (-1/P), w^P = w^e (mod P).  Since n mod 4
    fixes e once k is odd, and F(n) = n when k is even, this gives w^F(n) =
    w^(+-F(k)) (mod P), which is 1 only if P divides Im(z^F(k)).  A prime P
    above |Im(z^F(k))| and above 2 never does when Im(z^F(k)) is nonzero.
    It is zero for every odd k when z/conj(z) is a root of unity (real or
    imaginary z, 1+1i, 2+2i), which leaves those k without a rule.
    """
    ims = [0]
    a, b = 1, 0
    for _ in range(256):
        a, b = a * z.re - b * z.im, a * z.im + b * z.re
        ims.append(b)
    rules = []
    for k in range(2, 255):  # codes are bytes
        im = ims[script_F(k)]
        bound = k * max(2, abs(im))
        if im and bound < hi:
            rules.append((k, bound))
    return tuple(rules)


def _gfp_confirm(z: GaussianBase, n: int) -> bool:
    """The exact ratio test (z/conj(z))^F(n) = 1 (mod n); False when n
    shares a factor with z*conj(z)."""
    znorm = z.norm()
    if gcd(n, znorm) != 1:
        return False
    ra, rb = _ratio_components(z.re, z.im, znorm, n)
    return _pow_components(ra, rb, script_F(n), n) == (1, 0)


def _korselt_orders(group_order, lo: int, hi: int):
    """Two int64 arrays (qs, ds) over the prime powers q < hi of the sieve
    primes, with d = group_order(((p, k),)) for q = p^k: the group exponent
    or the group order of q.  Either divides its value at every multiple
    of q, so a member n of the class has d | F(n) for every q | n.  Pairs
    with d = 1 carry no condition and are left out, as are d >= 2**63,
    which no int64 holds and no F(n) of the domain is a multiple of.
    """
    qs, ds = array("q"), array("q")
    for p in _sieve_primes(lo, hi):
        q, k = p, 1
        while q < hi:
            d = group_order(((p, k),))
            if 1 < d < MAX_ARG:
                qs.append(q)
                ds.append(d)
            q, k = q * p, k + 1
    return qs, ds


def _korselt_bounds(kmax: int) -> tuple:
    """Pairs (k, k(k + 2)): a composite n = kP > k(k + 2), so with P a prime
    above k + 2, is neither G-Carmichael nor G-Lehmer.

    As P > k, P exactly divides n, so P - e = lambda_G(P) = phi_G(P), with
    e = (-1/P), divides F(n) = n - c in either class.  As n - c =
    k(P - e) + ke - c, it would divide ke - c, which is nonzero (k >= 2,
    |c| <= 1) and at most k + 1 < P - e in absolute value.
    """
    return tuple((k, k * (k + 2)) for k in range(2, kmax + 1))


def _factored_confirm(predicate, n: int) -> bool:
    return predicate(n, _factorize(n).factors)


# (modulus, residue, c): the classes of n mod 4 on which F(n) = n - c
_F_CLASSES = ((2, 0, 0), (4, 1, 1), (4, 3, -1))


def _sieve_kernel(task):
    """The n of one block, after the residue filter, that pass confirm(n),
    ascending.

    The sieve clears, before confirm runs, the primes, the n with some
    (q, d) in (qs, ds) where q | n but d does not divide F(n), and each
    n = kP > bound with P prime for a (k, bound) in bounds; confirm must
    reject all of them.  The block's cofactor codes are split into the
    classes of _F_CLASSES, and each class is sieved with its c.
    """
    lo, hi, residue_filter, qs, ds, bounds, confirm = task
    m, r = residue_filter or (1, 0)
    start = lo + (r - lo) % m
    if hi > _SIEVE_CUTOFF:  # the codes need the segmented sieve
        bounds = ()
    else:
        bounds = [(k, bound) for k, bound in bounds if bound < hi]
    codes = _cofactor_codes(lo, hi, m, start, max((k for k, _ in bounds), default=1))
    hits = []
    for modulus, residue, c in _F_CLASSES:
        found = _class_in_progression(start, m, residue, modulus)
        if found is None:
            continue
        i, step = found
        flags = codes[i::step]
        _sieve_progression(flags, start + i * m, m * step, bounds, qs, ds, c)
        hits += filter(confirm, compress(range(start + i * m, hi, m * step), flags))
    hits.sort()
    return hits


def _twin_pair_products(query: RangeQuery) -> list[int]:
    """Products pq of twin primes with p+q divisible by 8 (equivalently p = 3 mod 4)."""
    hits = []
    p = 3
    while p * (p + 2) < query.hi:
        if (
            p % 4 == 3
            and is_prime(p)
            and is_prime(p + 2)
            and p * (p + 2) >= query.lo
        ):
            n = p * (p + 2)
            if query.residue_filter is None or (
                n % query.residue_filter[0] == query.residue_filter[1]
            ):
                hits.append(n)
        p += 2
    return hits


class _ClassSearch(NamedTuple):
    """How search_classifier finds one class.

    kernel runs one block and predicate(n, factors) decides membership.
    A Korselt class has a group_order, the arith function whose value at
    each prime power q | n divides F(n) for every member n: _sieve_kernel
    sieves by it and by the large-prime rule for cofactors up to kmax,
    then confirms with predicate.  odd_only classes have no even member;
    capped ones refuse ranges above the giuga cap.  kernel None is the
    twin-prime enumeration.
    """

    kernel: object
    predicate: object = None
    group_order: object = None
    kmax: int = 0
    odd_only: bool = False
    capped: bool = False


# Every member of g_cyclic and congruence_exception has gcd(phi_G(n), n) = 1,
# and phi_G(n) is even for every n >= 2.  Each kmax was the fastest on
# windows of 2**16 in [2**23, 2**24): larger ones cost more in cofactor
# codes than they save in factorizations.
_CLASS_SEARCHES = {
    "g_carmichael": _ClassSearch(
        _sieve_kernel, _g_carmichael_from_factors, gaussian_lambda_from_factors, kmax=128
    ),
    "carmichael": _ClassSearch(_carmichael_type_kernel, _carmichael_from_factors),
    "g_cyclic": _ClassSearch(_factored_kernel, _g_cyclic, odd_only=True),
    "g_lehmer": _ClassSearch(
        _sieve_kernel, _g_lehmer_multi, gaussian_phi_from_factors, kmax=24
    ),
    "congruence_exception": _ClassSearch(
        _factored_kernel, _congruence_exception, odd_only=True
    ),
    "giuga": _ClassSearch(_factored_kernel, _giuga_from_factors, capped=True),
    "williams_1": _ClassSearch(_carmichael_type_kernel, _williams_1),
    "twin_pair_product": _ClassSearch(None),
}

CLASSIFIER_NAMES = tuple(_CLASS_SEARCHES)


def _odd_filter(residue_filter):
    """The residue filter of the odd n that pass residue_filter, or None
    when every n it passes is even."""
    m, r = residue_filter or (1, 0)
    found = _class_in_progression(r, m, 1, 2)
    if found is None:
        return None
    i, step = found
    return m * step, (r + i * m) % (m * step)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def search_gfp(
    query: RangeQuery,
    z: GaussianBase,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    progress=None,
) -> list[int]:
    """Ascending Gaussian Fermat pseudoprimes to base z in the query range.

    A sieve rules out most composites first: per prime power q, the order
    of z/conj(z) modulo q, computed once per query, must divide F(n) for
    every multiple n of q, and n = kP with a large prime P fails when P
    exceeds |Im(z^F(k))| > 0.  The survivors are confirmed by the exact
    ratio test.
    """
    qs, ds = _gfp_orders(z, query.lo, query.hi)
    bounds = _gfp_large_prime_bounds(z, query.hi)
    confirm = partial(_gfp_confirm, z)
    tasks = [
        (lo, hi, query.residue_filter, qs, ds, bounds, confirm)
        for lo, hi in _blocks(query.lo, query.hi, block_size)
    ]
    parts = _run_blocks(_sieve_kernel, tasks, query.workers, progress)
    return [n for part in parts for n in part]


def search_classifier(
    query: RangeQuery,
    which: str,
    *,
    giuga_cap: int = DEFAULT_GIUGA_CAP,
    block_size: int = DEFAULT_BLOCK_SIZE,
    progress=None,
) -> list[int]:
    """Ascending n in the range satisfying the named classifier.

    'g_lehmer' lists the members with at least three prime factors (the
    published sequence); the two-factor members are exactly the
    'twin_pair_product' family.  'congruence_exception' means G-cyclic
    numbers failing both power congruences.

    'g_carmichael' and 'g_lehmer' are sieved as search_gfp is, by the
    Korselt criterion: lambda_G(q), respectively phi_G(q), divides F(n)
    for every prime power q | n; n = kP with a prime P > k + 2 fails both.
    About 3 percent (g_carmichael) and 1.3 percent (g_lehmer) of a window
    of 2**16 near 10**7 survive to be factored and decided.  'carmichael'
    and 'williams_1' sieve by one base-2 Fermat test and confirm the few
    survivors from their factorization.  The other classes are decided
    exactly from the factorization of each n of the searched progression,
    which a batched division sieve provides; 'g_cyclic' and
    'congruence_exception' search the odd n only.
    """
    spec = _CLASS_SEARCHES.get(which)
    if spec is None:
        raise ValueError(f"unknown classifier {which!r}; choose from {CLASSIFIER_NAMES}")
    if spec.kernel is None:
        return _twin_pair_products(query)
    if spec.capped and query.hi - 1 > giuga_cap:
        raise ValueError(f"giuga cap exceeded: {query.hi - 1} > {giuga_cap}")
    residue_filter = query.residue_filter
    if spec.odd_only:
        residue_filter = _odd_filter(residue_filter)
        if residue_filter is None:
            return []
    if spec.group_order is None:
        params = (spec.predicate,)
    else:
        params = (
            *_korselt_orders(spec.group_order, query.lo, query.hi),
            _korselt_bounds(spec.kmax),
            partial(_factored_confirm, spec.predicate),
        )
    tasks = [
        (lo, hi, residue_filter, *params)
        for lo, hi in _blocks(query.lo, query.hi, block_size)
    ]
    parts = _run_blocks(spec.kernel, tasks, query.workers, progress)
    return [n for part in parts for n in part]


def joint_census(
    query: RangeQuery,
    gaussian_bases,
    integer_bases,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    progress=None,
) -> CensusTable:
    """Count n that are jointly Gaussian pseudoprimes (rows) and classical
    pseudoprimes (columns) in the query range.

    Classical pseudoprimes are collected first: per column base a, a sieve
    on multiplicative orders and large prime factors rules out most
    composites, and one modular exponentiation a^(n-1) mod n settles each
    survivor.  The orders are computed once per query.  The Gaussian tests
    run only on the classical pseudoprimes, in the block's worker.  Integer
    bases must satisfy 2 <= a < 2**63.
    """
    gaussian_bases = tuple(gaussian_bases)
    integer_bases = tuple(integer_bases)
    for a in integer_bases:
        if not 2 <= a < MAX_ARG:
            raise ValueError(f"integer bases need 2 <= a < 2**63, got {a}")
    counts = [[0] * len(integer_bases) for _ in gaussian_bases]
    if gaussian_bases and integer_bases:
        orders = _mask_orders(integer_bases, query.lo, query.hi)
        tasks = [
            (lo, hi, query.residue_filter, orders, gaussian_bases)
            for lo, hi in _blocks(query.lo, query.hi, block_size)
        ]
        for part in _run_blocks(_joint_kernel, tasks, query.workers, progress):
            for row, part_row in zip(counts, part):
                for j, c in enumerate(part_row):
                    row[j] += c
    return CensusTable(
        gaussian_bases=gaussian_bases,
        integer_bases=integer_bases,
        counts=tuple(tuple(row) for row in counts),
        limit=query.hi,
        residue_filter=query.residue_filter,
    )


def carmichael_intersection_scan(
    query: RangeQuery,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    progress=None,
) -> list[int]:
    """n = 3 mod 4 in range that are both Carmichael and G-Carmichael.

    The residue filter is fixed to (4, 3); queries carrying any other
    filter are rejected.  Raises ConsistencyError if the Williams-route
    cross-check ever disagrees.
    """
    if query.residue_filter not in (None, (4, 3)):
        raise ValueError("this scan fixes the residue filter to (4, 3)")
    tasks = _blocks(query.lo, query.hi, block_size)
    parts = _run_blocks(_intersection_kernel, tasks, query.workers, progress)
    return [n for part in parts for n in part]


# A longer line is read in pieces and counted as malformed, so one huge line
# cannot take the memory of the whole file.
_LINE_CAP = 1 << 12
# No decimal with more significant digits than 2**63 - 1 is in the domain.
_MAX_DIGITS = len(str(MAX_ARG - 1))


def _capped_lines(fh):
    """Yield (text, whole) per line of fh: the line itself with whole True,
    or its first _LINE_CAP + 1 characters with whole False for a longer
    line, whose rest is read in pieces and dropped."""
    while line := fh.readline(_LINE_CAP + 1):
        whole = len(line) <= _LINE_CAP or line.endswith("\n")
        head = line
        while not line.endswith("\n") and (line := fh.readline(_LINE_CAP)):
            pass
        yield head, whole


def verify_external_list(
    path,
    z: GaussianBase,
    residue_filter: tuple[int, int] | None = None,
) -> VerificationReport:
    """Run the Gaussian test over a file of candidate integers.

    The file holds one ASCII decimal integer per line; '#' lines are
    comments, blank lines are skipped, anything else unparsable counts as
    malformed, as does any other line longer than 4096 characters.  Entries
    passing the test are returned (for a published Fermat-pseudoprime list
    they are the interesting finds); entries whose gcd with z*conj(z)
    exceeds 1 are tallied as invalid-base.
    """
    total_read = filtered = invalid = malformed = 0
    passing = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line, whole in _capped_lines(fh):
            text = line.strip()
            if text.startswith("#") or (whole and not text):
                continue
            digits = text.lstrip("0")
            if not (whole and text.isascii() and text.isdigit() and len(digits) <= _MAX_DIGITS):
                malformed += 1
                continue
            n = int(digits or "0")
            if not 2 <= n < MAX_ARG:
                malformed += 1
                continue
            total_read += 1
            if residue_filter is not None and n % residue_filter[0] != residue_filter[1]:
                continue
            filtered += 1
            outcome = gaussian_fermat_ratio_test(n, z)
            if outcome is TestOutcome.INVALID_BASE:
                invalid += 1
            elif outcome is TestOutcome.PASS:
                passing.append(n)
                log.warning("%d passes the Gaussian test to base %s", n, z)
    return VerificationReport(
        source=str(path),
        total_read=total_read,
        filtered=filtered,
        passing=tuple(passing),
        invalid_base=invalid,
        malformed_lines=malformed,
    )


# ---------------------------------------------------------------------------
# Serialization (byte-stable for fixed inputs)
# ---------------------------------------------------------------------------

def values_to_csv(values) -> str:
    return "n\n" + "".join(f"{v}\n" for v in values)


def table_to_csv(table: CensusTable) -> str:
    lines = ["base," + ",".join(str(a) for a in table.integer_bases)]
    for z, row in zip(table.gaussian_bases, table.counts):
        lines.append(f"{z}," + ",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def _query_dict(query: RangeQuery) -> dict:
    return {
        "lo": query.lo,
        "hi": query.hi,
        "residue_filter": list(query.residue_filter) if query.residue_filter else None,
    }


def record_line(kind: str, query: RangeQuery | None, base, values) -> str:
    """One canonical JSON record: {kind, query, base, values}."""
    rec = {
        "kind": kind,
        "query": _query_dict(query) if query else None,
        "base": str(base) if base is not None else None,
        "values": list(values),
    }
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def table_to_records(table: CensusTable, query: RangeQuery) -> str:
    header = record_line(
        "joint_census_bases", query, None, [str(a) for a in table.integer_bases]
    )
    rows = [
        record_line("joint_census_row", query, z, row)
        for z, row in zip(table.gaussian_bases, table.counts)
    ]
    return "".join(line + "\n" for line in [header] + rows)
