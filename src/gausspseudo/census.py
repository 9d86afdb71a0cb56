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
(per integer base a) and the Gaussian pseudoprime search (base z) sieve
each block by multiplicative orders modulo small prime powers, of a and
of z/conj(z), and by large prime factors; the exact test then runs on a
few percent of the composites only.  The class searches decide each n
from its factorization by the Korselt-style criteria, so no Gaussian
exponentiation runs per candidate.  All kernels are pure; a cancelled
run simply never returns a partial result.
"""

from __future__ import annotations

import json
import logging
import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt

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

CLASSIFIER_NAMES = (
    "g_carmichael",
    "carmichael",
    "g_cyclic",
    "g_lehmer",
    "congruence_exception",
    "giuga",
    "williams_1",
    "twin_pair_product",
)


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

def _factor_batch(lo: int, hi: int):
    """Factorizations of every n in [lo, hi).

    Below the sieve cutoff a batched division sieve over the primes up to
    sqrt(hi) does the work; above it that prime list would outgrow memory
    (about 1.5 * 10**8 primes near 2**63), so each n is factored on its own.
    """
    if hi > _SIEVE_CUTOFF:
        return [factorize(n).factors for n in range(lo, hi)]
    size = hi - lo
    rem = list(range(lo, hi))
    factors = [[] for _ in range(size)]
    for p in _base_primes(isqrt(hi - 1) + 1):
        start = (lo + p - 1) // p * p
        for idx in range(start - lo, size, p):
            k = 0
            v = rem[idx]
            while v % p == 0:
                v //= p
                k += 1
            if k:
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


def _sieve_progression(flags: bytearray, start: int, m: int, bounds, qs, ds, c: int) -> None:
    """Clear flags[i] for the n = start + i*m that cannot satisfy x^(n-c) = 1
    (mod n), for a unit x given by its orders.

    flags holds the codes of _cofactor_codes.  Two rules clear:

    * large prime: for each (k, bound) in bounds, every n > bound coded k;
    * order sieve: for each prime power q with d = ord_q(x) in (qs, ds), a
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


# classifier name -> predicate(n, factors), for the scans over every factorization
_FACTORED_PREDICATES = {
    "g_carmichael": _g_carmichael_from_factors,
    "g_lehmer": _g_lehmer_multi,
    "g_cyclic": _g_cyclic,
    "congruence_exception": _congruence_exception,
    "giuga": _giuga_from_factors,
}


def _factored_kernel(task):
    """Exact scan for classifiers decided by the factorization of every n."""
    lo, hi, residue_filter, which = task
    predicate = _FACTORED_PREDICATES[which]
    hits = []
    for blo in range(lo, hi, _FACTOR_BATCH):
        bhi = min(blo + _FACTOR_BATCH, hi)
        factors = _factor_batch(blo, bhi)
        for n in _filtered_range(blo, bhi, residue_filter):
            if predicate(n, factors[n - blo]):
                hits.append(n)
    return hits


def _carmichael_type_kernel(task):
    """Prefiltered scan for carmichael / williams_1: both imply an odd
    base-2 Fermat pseudoprime, so one pow rules out nearly every n before
    it is factored."""
    lo, hi, residue_filter, which = task
    flags = _composite_flags(lo, hi)
    hits = []
    for n in _filtered_range(lo, hi, residue_filter):
        if not flags[n - lo] or n % 2 == 0 or pow(2, n - 1, n) != 1:
            continue
        fac = factorize(n).factors
        ok = (
            _carmichael_from_factors(n, fac)
            if which == "carmichael"
            else _r_williams_from_factors(n, fac, 1)
        )
        if ok:
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

    Sieve primes are those up to sqrt(min(hi, 2**32)) and up to hi - lo, as
    in _gfp_orders.  Fewer primes are sound at any height: the sieve merely
    rules out fewer candidates.
    """
    primes = _base_primes(min(isqrt(min(hi, _SIEVE_CUTOFF) - 1) + 1, hi - lo))
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

    Sieve primes are those up to sqrt(min(hi, 2**32)) and up to hi - lo: a
    larger prime has at most one multiple in [lo, hi) and would cost more
    to order than the test it saves.
    """
    znorm = z.norm()
    qs, ds = array("q"), array("q")
    for p in _base_primes(min(isqrt(min(hi, _SIEVE_CUTOFF) - 1) + 1, hi - lo)):
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


def _gfp_kernel(task):
    """Gaussian Fermat pseudoprimes to base z in one block, ascending.

    The block (after the residue filter) is split into progressions of
    fixed n mod 4, where F(n) = n - c with c = 1, -1 or 0.  In each, the
    order sieve of z/conj(z) and the large-prime rule of
    _gfp_large_prime_bounds rule out most composites; the survivors are
    confirmed by the exact ratio test (z/conj(z))^F(n) = 1 (mod n).
    """
    lo, hi, residue_filter, z, qs, ds, large_prime_bounds = task
    znorm = z.norm()
    m, r = residue_filter or (1, 0)
    bounds = ()
    if hi <= _SIEVE_CUTOFF:  # the codes need the segmented sieve
        bounds = [(k, bound) for k, bound in large_prime_bounds if bound < hi]
    kmax = max((k for k, _ in bounds), default=1)
    hits = []
    for t, c in enumerate((0, 1, 0, -1)):
        found = _class_in_progression(r, m, t, 4)
        if found is None:
            continue
        i, step = found
        mt = m * step
        start = lo + (r + i * m - lo) % mt
        flags = _cofactor_codes(lo, hi, mt, start, kmax)
        _sieve_progression(flags, start, mt, bounds, qs, ds, c)
        for n in compress(range(start, hi, mt), flags):
            if gcd(n, znorm) == 1:
                ra, rb = _ratio_components(z.re, z.im, znorm, n)
                if _pow_components(ra, rb, script_F(n), n) == (1, 0):
                    hits.append(n)
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
    tasks = [
        (lo, hi, query.residue_filter, z, qs, ds, bounds)
        for lo, hi in _blocks(query.lo, query.hi, block_size)
    ]
    parts = _run_blocks(_gfp_kernel, tasks, query.workers, progress)
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

    'carmichael' and 'williams_1' sieve by one base-2 Fermat test and
    confirm the few survivors from their factorization.  Every other class
    is decided exactly from the factorization of each n in the range,
    which a batched division sieve provides.
    """
    if which not in CLASSIFIER_NAMES:
        raise ValueError(f"unknown classifier {which!r}; choose from {CLASSIFIER_NAMES}")
    if which == "twin_pair_product":
        return _twin_pair_products(query)
    if which == "giuga" and query.hi - 1 > giuga_cap:
        raise ValueError(f"giuga cap exceeded: {query.hi - 1} > {giuga_cap}")
    blocks = _blocks(query.lo, query.hi, block_size)
    if which in ("carmichael", "williams_1"):
        kernel = _carmichael_type_kernel
    else:
        kernel = _factored_kernel
    tasks = [(lo, hi, query.residue_filter, which) for lo, hi in blocks]
    parts = _run_blocks(kernel, tasks, query.workers, progress)
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
