"""Parallel range searches: pseudoprime lists, classifier censuses, the
joint (Gaussian base x integer base) pseudoprime table, and verification
of externally published pseudoprime lists.

A range query builds its block kernel and parameters once, in the parent:
the order tables and large-prime bounds of a sieve, or the columns and rule
of an exact scan.  Fixed-size blocks go to worker processes, never more of
them than the CPUs this process may run on.  _run_blocks yields their
results in block order, and _search, which every list search calls,
flattens them, so output is byte-identical for any worker count.  Inside a
block, primality, factorizations, phi_G, lambda_G and D come from sieves by
the primes up to min(sqrt(hi), 2**16); above 2**32, Miller-Rabin and
factorize settle only the n those primes leave open.

One kernel, _sieve_kernel, serves the joint table (per integer base a), the
Gaussian pseudoprime search (base z) and the factored classes, which
_korselt_search builds on Korselt's criterion, with one Fermat test, to base
2, or to 1+2i modulo the part of n prime to 10, before each factorization.
The kernel sieves by a divisor that the exponent (F(n), or n - 1 for the
classical test) must have for every prime power q | n: the order of a or of
z/conj(z) mod q (_unit_orders, by pow or the V-chain of
fermat.ratio_power_is_one), or the group exponent or order of q.  Each test
also has a witness w(k) for the n = kP with P prime: such an n with P odd
passes only if P divides w(k) or P <= |w(k)|.  The size half of that rule,
_large_prime_bounds, clears every n = kP with P above |w(k)| for all three
witnesses: Pinch's a^(k-1) - 1, Im(z^F(k)) and the Korselt k + 2.  It takes
one pass over each progression: the segment between two consecutive sorted
bounds is translated once, by a table that clears every k whose bound lies
below it.  The divisibility half clears, among the survivors, each n = kP
with P odd and P not dividing w(k), read from a witness table padded with
zeros to all 256 codes; it holds for the two Fermat tests, whose proofs give
P | w(k), not for Korselt's P <= k + 2.  Both halves read the block's
cofactor codes, up to 2**32: the least k with n/k prime among the sieved k.
From k0 = ceil(lo / (hi - lo)) on, the quotient ranges [lo/k, hi/k) of
consecutive k overlap, so one sieve of their union codes every k from k0 to
254.  g_cyclic is a rule on (n, phi_G(n)), congruence_exception one on (n,
phi_G(n), lambda_G(n)) and giuga one on (n, phi_G(n), D(n)); one
multiplicative sieve gives the columns a rule reads, and only those, without
factoring n.  All kernels are pure, so a stream cancelled or closed early
leaves nothing to undo.
"""

from __future__ import annotations

import os
from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from .arith import (
    MAX_ARG,
    check_domain,
    classical_lambda_from_factors,
    factorize,
    gaussian_lambda_from_factors,
    gaussian_phi_from_factors,
    is_prime,
    primes_up_to,
    script_F,
)
from .classify import (
    PREDICATES,
    carmichael_and_g_carmichael_3mod4,
    g_cyclic_from_phi,
    giuga_from_totient,
    power_congruence,
)
from .fermat import TestOutcome, gaussian_fermat_test, ratio_power_is_one
from .residues import GaussianBase

DEFAULT_BLOCK_SIZE = 1 << 20
_SIEVE_CUTOFF = 1 << 32
_BATCH_SPAN = 1 << 16

# Searches factor with the uncached function: the process that runs one
# search may serve many more, and a cache filled by them would only grow.
_factorize = factorize.__wrapped__


def check_residue_filter(residue_filter) -> None:
    """Raise ValueError unless the filter is None or (m, r) with 0 <= r < m."""
    if residue_filter is not None:
        m, r = residue_filter
        if not 0 <= r < m:
            raise ValueError(f"bad residue filter {residue_filter}")


@dataclass(frozen=True)
class RangeQuery:
    """Half-open search range [lo, hi) with optional residue filter."""

    lo: int
    hi: int
    residue_filter: tuple[int, int] | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if not 2 <= self.lo < self.hi <= MAX_ARG:
            raise ValueError(f"need 2 <= lo < hi <= 2**63, got [{self.lo}, {self.hi})")
        check_residue_filter(self.residue_filter)
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

def _sieve_bound(hi: int) -> int:
    """Sieves of n < hi strike with the primes up to this: sqrt(hi), at most 2**16."""
    return min(isqrt(hi - 1) + 1, 1 << 16)


_NOT = bytes([1]) + bytes(255)  # translate table: byte 0 -> 1, anything else -> 0


def _composite_flags(lo: int, hi: int) -> bytearray:
    """flags[n-lo] = 1 iff n is composite, for lo <= n < hi.

    The primes up to _sieve_bound(hi) strike their multiples; Miller-Rabin
    decides the unstruck n at or above the square of that bound, which
    exist only above 2**32."""
    bound = _sieve_bound(hi)
    flags = bytearray(hi - lo)
    for p in primes_up_to(bound):
        start = max(p * p, (lo + p - 1) // p * p)
        if start < hi:
            flags[start - lo :: p] = b"\x01" * len(range(start, hi, p))
    tail = max(lo, bound * bound)
    for n in compress(range(tail, hi), flags[tail - lo :].translate(_NOT)):
        if not is_prime(n):
            flags[n - lo] = 1
    return flags


# ---------------------------------------------------------------------------
# Block scheduling
# ---------------------------------------------------------------------------

def available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _block_starts(query: RangeQuery, block_size: int) -> range:
    """The starts of the blocks of block_size that cover query.  _search and
    joint_census ask for them before any search or early return, so a
    block_size below 1 raises ValueError even where no block would run."""
    if block_size < 1:
        raise ValueError("block_size must be positive")
    return range(query.lo, query.hi, block_size)


def _run_blocks(kernel, params, query: RangeQuery, residue_filter, blocks: range, progress=None):
    """Yield the results of kernel over the blocks of query, starting at
    blocks, in block order, each after progress(done, total) reports it.

    Each block's task, (lo, hi, residue_filter, *params), is built only when
    it is submitted.  The pool never exceeds the available CPUs or the block
    count, and holds at most 2 * workers tasks in flight, so a query of any
    length runs in bounded memory and reports progress from its first block.
    One worker runs the blocks in this process and never loads the pool.  An
    exception, such as a cancel raised by progress, and a consumer that
    closes the stream early both shut the pool down.
    """
    tasks = ((lo, min(lo + blocks.step, query.hi), residue_filter, *params) for lo in blocks)
    workers = min(query.workers, len(blocks), available_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        pending = deque()
    try:
        for done in range(1, len(blocks) + 1):
            if workers < 2:
                result = kernel(next(tasks))
            else:
                for task in islice(tasks, 2 * workers - len(pending)):
                    pending.append(pool.submit(kernel, task))
                result = pending.popleft().result()
            if progress:
                progress(done, len(blocks))
            yield result
    finally:
        if workers > 1:
            pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# The multiplicative sieve for scans that decide every n
# ---------------------------------------------------------------------------

def _multiplicative_batch(start: int, hi: int, m: int, columns):
    """The named columns, in the order of columns, for n = start, start + m,
    ... < hi: "phi" is phi_G(n), "lam" lambda_G(n) of the odd n, and "d" is
    D(n), the product of the p**k || n with F(p) | F(n) (giuga_from_totient).

    The 2-part t of n gives phi_G(t), and all of t to D, as F(2) | F(n) = n.
    A multiplicative sieve visits, for each prime power q = p**j with an
    odd prime p <= _sieve_bound(hi), the terms q divides: phi gains the
    factor F(p) = p - (-1/p) at j = 1 and p above, lambda becomes the lcm
    with lambda_G(q) = p**(j-1) * F(p).  As 4 | F(p) and q = +-1 (mod F(p)),
    the multiples of q with F(p) | F(n) are the n = q * (c * q % F(p))
    (mod q * F(p)), for the c of _F_CLASSES; there D gains p.  What is left
    of n is 1, a prime, or, at or above the square of that bound (only above
    2**32), a cofactor that _factorize splits.  lambda and D are sieved only
    when named, and lambda is returned lazily.
    """
    bound = _sieve_bound(hi)
    ns = range(start, hi, m)
    if m % 2 == 0 and start % 2:  # odd n only: no 2-part
        rem, phi = list(ns), [1] * len(ns)
        d = [1] * len(ns) if "d" in columns else None
    else:
        twos = [n & -n for n in ns]
        rem = [n // t for n, t in zip(ns, twos)]
        phi = [t if t < 4 else 2 * t for t in twos]
        d = twos if "d" in columns else None
    lam = [1] * len(ns) if "lam" in columns else None
    for p in primes_up_to(bound)[1:]:
        fp = script_F(p)
        q, f, t = p, fp, fp  # phi_G(q) / phi_G(q / p) and lambda_G(q), q = p**j
        while q < hi and (found := _class_in_progression(start, m, 0, q)):
            i, step = found
            rem[i::step] = [v // p for v in rem[i::step]]
            phi[i::step] = [x * f for x in phi[i::step]]
            if lam is not None:
                lam[i::step] = [lcm(x, t) for x in lam[i::step]]
            if d is not None:
                for _, _, c in _F_CLASSES:
                    if found := _class_in_progression(start, m, q * (c * q % fp), q * fp):
                        i, step = found
                        d[i::step] = [x * p for x in d[i::step]]
            q, f, t = q * p, p, t * p
    square = bound * bound
    if square < hi:  # else no leftover can reach the square; the scan costs 5% at 2**23
        for idx, v in enumerate(rem):
            if v >= square:  # phi_G(r**k) = lambda_G(r**k) = r**(k-1) * F(r), r odd
                factors = _factorize(v).factors
                ts = [r ** (k - 1) * script_F(r) for r, k in factors]
                phi[idx], rem[idx] = phi[idx] * prod(ts), 1
                if lam is not None:
                    lam[idx] = lcm(lam[idx], *ts)
                if d is not None:  # F(r) | F(n) iff n = 0, 1 or -1 (mod F(r)), as for p
                    d[idx] *= prod(r**k for r, k in factors if (ns[idx] + 1) % script_F(r) < 3)
    last = [r + 1 if r % 4 == 3 else r - 1 or 1 for r in rem]  # F(r), or 1 for r = 1
    built = {
        "phi": lambda: [x * y for x, y in zip(phi, last)],
        "lam": lambda: map(lcm, lam, last),  # lazy: a list of it raised peak RSS
        "d": lambda: [x * r if (n + 1) % f < 3 else x for x, r, n, f in zip(d, rem, ns, last)],
    }
    return [built[name]() for name in columns]


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


def _cofactor_codes(lo: int, hi: int, m: int, start: int, kmax: int, ktop: int) -> bytearray:
    """codes[i] for n = start + i*m in [lo, hi): 0 if n is prime, else the
    least sieved k with n/k prime, else 1.  The sieved k are those up to
    kmax and those from k0 = ceil(lo / (hi - lo)) up to ktop >= kmax (at
    most 254: codes are bytes).  So code k >= 2 says that n/k is prime, and
    code 1 that no sieved k makes it so, not that no k does.

    The quotients of k lie in [lo/k, hi/k), and from k0 on the ranges of
    consecutive k overlap: one sieve of their union, at most about twice
    the block long, serves every k in [k0, ktop] that divides some n of the
    progression.  Each k < k0 has a sieve of its own.
    """
    codes = _composite_flags(lo, hi)[start - lo :: m]
    size = len(codes)
    k0 = -(-lo // (hi - lo))
    runs = []  # (k, i, step, p0, end, pstep): n = start + i*m, ... and n/k in range(p0, end, pstep)
    for k in range(ktop, 1, -1):  # descending, so the least k is written last
        found = None if kmax < k < k0 else _class_in_progression(start, m, 0, k)
        if found is None:
            continue
        i, step = found
        p0, pstep = (start + i * m) // k, step * m // k
        if p0 < 2:  # n = k itself: its cofactor 1 is no prime
            i, p0 = i + step, p0 + pstep
        count = len(range(i, size, step))
        if count > 0:
            runs.append((k, i, step, p0, p0 + (count - 1) * pstep + 1, pstep))
    shared = [run for run in runs if run[0] >= k0]
    if shared:
        base = min(run[3] for run in shared)
        table = _composite_flags(base, max(run[4] for run in shared))
    for k, i, step, p0, end, pstep in runs:
        if k >= k0:
            quotients = table[p0 - base : end - base : pstep]
        else:
            quotients = _composite_flags(p0, end)[::pstep]
        prime = int.from_bytes(quotients.translate(_NOT), "little")
        sub = int.from_bytes(codes[i::step], "little")
        codes[i::step] = (sub & ~(prime * 255) | prime * k).to_bytes(len(quotients), "little")
    return codes


def _sieve_primes(lo: int, hi: int) -> array:
    """The primes whose powers sieve [lo, hi): those up to _sieve_bound(hi)
    and up to hi - lo.  A larger prime has at most one multiple in the
    range and would cost more to prepare than the test it saves; fewer
    primes are sound at any height, the sieve merely rules out less."""
    return primes_up_to(min(_sieve_bound(hi), hi - lo))


def _sieve_progression(flags: bytearray, start: int, m: int, bounds, qs, ds, c: int) -> None:
    """Clear flags[i] for the n = start + i*m that cannot have d | n - c for
    the d of every prime power q | n, such as the order of a unit x with
    x^(n-c) = 1 (mod n).

    flags holds the codes of _cofactor_codes.  Two rules clear:

    * large prime, its size half: for each (k, bound) in bounds, every
      n > bound coded k, in one pass: each segment between two sorted cuts
      (the first n > bound) is translated once, clearing the k of every
      cut up to it;
    * order sieve: for each prime power q with its d in (qs, ds), a
      multiple of q can pass only if n = 0 (mod q) and n = c (mod d); d = 0
      means no multiple of q passes.  One slice saves the class that may
      pass, one clears all multiples of q, one restores the class.
    """
    size = len(flags)
    cuts = sorted((max(0, (bound - start) // m + 1), k) for k, bound in bounds)
    kill = bytearray(range(256))  # byte k -> 0 for every k cut so far
    for (i, k), (end, _) in zip(cuts, cuts[1:] + [(size, 0)]):
        kill[k] = 0
        if i < end:
            flags[i:end] = flags[i:end].translate(kill)
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


# ---------------------------------------------------------------------------
# Kernels (module level so they pickle for worker processes)
# ---------------------------------------------------------------------------

def _g_lehmer_multi(n: int, factors) -> bool:
    # the published sequence; the two-factor members are twin_pair_product
    return len(factors) >= 3 and PREDICATES["g_lehmer"](n, factors)


def _congruence_exception(n: int, phi: int, lam: int) -> bool:
    # G-cyclic, and neither power congruence holds
    return g_cyclic_from_phi(n, phi) and not (
        power_congruence(phi, n) or power_congruence(lam, n)
    )


def _batch_kernel(task):
    """Exact scan that decides every n of the searched progression:
    _multiplicative_batch gives the named columns, one per argument of rule
    after n.  Returns [hits], as _sieve_kernel does for one spec."""
    lo, hi, residue_filter, columns, rule = task
    m, r = residue_filter or (1, 0)
    hits = []
    for blo in range(lo, hi, _BATCH_SPAN):
        bhi = min(blo + _BATCH_SPAN, hi)
        ns = range(blo + (r - blo) % m, bhi, m)
        hits += compress(ns, map(rule, ns, *_multiplicative_batch(ns.start, bhi, m, columns)))
    return [hits]


def _twin_kernel(task):
    """[the products p(p + 2) of twin primes with p = 3 (mod 4), so that
    8 | 2p + 2, in [lo, hi) after the filter]: one walk over the p up to
    sqrt(hi), so one task covers the whole query."""
    lo, hi, residue_filter = task
    m, r = residue_filter or (1, 0)
    hits = []
    for p in range(max(3, isqrt(lo) - 2) | 3, isqrt(hi) + 1, 4):  # other p: n < lo or n >= hi
        n = p * (p + 2)
        if lo <= n < hi and n % m == r and is_prime(p) and is_prime(p + 2):
            hits.append(n)
    return [hits]


# (modulus, residue, c): the classes of n on which the exponent is n - c,
# F(n) by n mod 4, or n - 1 for the classical Fermat test
_F_CLASSES = ((2, 0, 0), (4, 1, 1), (4, 3, -1))
_N_CLASSES = ((1, 0, 1),)


def _unit_orders(lo: int, hi: int, classes, period, is_one):
    """The order table (qs, ds) of a unit x: two int64 arrays over the prime
    powers q < hi of the primes of _sieve_primes, with d = ord_q(x), where
    is_one(e, q) says x^e = 1 (mod q).  period(p) is a multiple of ord_p(x),
    or 0 when p divides the base or its norm, so that no multiple of p can
    pass: d = 0 at q = p.  Pairs with d = 1 carry no condition and are left
    out.  A multiple n of q has p | n - c only if p | c, so when no class
    (modulus, residue, c) of classes has p | c, p | d fails every multiple
    of q: d = 0 there, and the higher powers of p are left out.  Arrays keep
    the task that carries them to every block small.
    """
    qs, ds = array("q"), array("q")
    for p in _sieve_primes(lo, hi):
        d = period(p)
        if d == 0:
            qs.append(p)
            ds.append(0)
            continue
        for f, _ in factorize(d).factors if d > 1 else ():
            while d % f == 0 and is_one(d // f, p):
                d //= f
        p_free = all(c % p for _, _, c in classes)  # p | n never gives p | n - c
        q = p  # d is now ord_p(x)
        while q < hi:
            # ord_q(x) is ord_(q/p)(x) or p times it, as the units mod q that
            # are 1 mod q/p have exponent p, p = 2 included: (1 + 2^j*a)^2 is
            # 1 mod 2^(j+1) for j >= 1
            if q > p and not is_one(d, q):
                d *= p
            if p_free and d % p == 0:
                qs.append(q)
                ds.append(0)
                break
            if d > 1:
                qs.append(q)
                ds.append(d)
            q *= p
    return qs, ds


def _mask_orders(a: int, lo: int, hi: int):
    """The _unit_orders (qs, ds) of the integer base a for n - 1."""
    return _unit_orders(
        lo, hi, _N_CLASSES, lambda p: p - 1 if a % p else 0, lambda e, q: pow(a, e, q) == 1
    )


def _gfp_orders(z: GaussianBase, lo: int, hi: int):
    """The _unit_orders (qs, ds) of z/conj(z) for F(n), by the V-chain of
    fermat.ratio_power_is_one; d = 0 at p | z*conj(z), as every multiple
    of p is an invalid modulus for z."""
    norm = z.norm()
    return _unit_orders(
        lo, hi, _F_CLASSES, lambda p: script_F(p) if norm % p else 0,
        partial(ratio_power_is_one, z),
    )


class _SieveSpec(NamedTuple):
    """One test of _sieve_kernel, built once per query, in the parent."""

    qs: array  # the prime powers q of the order sieve
    ds: array  # per q: a passing multiple n of q has d | n - c; d = 0: none passes
    bounds: tuple  # the size half of the large-prime rule, (k, bound) pairs
    witnesses: tuple  # w(k) at index k for the divisibility half; () for none
    confirm: object  # n -> bool: the exact test of each survivor


def _large_prime_bounds(witnesses, hi: int) -> tuple:
    """The size half of a test's large-prime rule: pairs (k, bound < hi)
    such that no n = kP > bound with P prime passes, where kP with P odd
    can pass only if P divides w = witnesses[k] (0 for k < 2) or P <= |w|.
    For w nonzero, bound = k * max(2, |w|) makes P odd and above |w|;
    w = 0 gives no rule.  Korselt, with only P <= k + 2, has this half alone.
    """
    rules = []
    for k, w in enumerate(witnesses):
        bound = k * max(2, abs(w))
        if w and bound < hi:
            rules.append((k, bound))
    return tuple(rules)


def _passes_fermat(a: int, n: int) -> bool:
    return pow(a, n - 1, n) == 1


def _witness_ks(hi: int) -> range:
    """The k >= 2 of the witness tables of a query below hi: to 254 (codes
    are bytes) when hi <= 2**32, else to the bit length of hi, past which no
    Pinch witness a^(k-1) - 1 >= 2^(k-1) - 1 gives a bound below hi; no block
    above 2**32 reads one.  Fewer witnesses are sound: the sieve clears less."""
    return range(2, 255 if hi <= _SIEVE_CUTOFF else hi.bit_length() + 1)


def _fermat_spec(a: int, lo: int, hi: int) -> _SieveSpec:
    """The sieve spec of the n in [lo, hi) that pass base a, confirmed by
    a^(n-1) = 1 (mod n): the orders of a for n - 1, and both halves of the
    large-prime rule with Pinch's witnesses a^(k-1) - 1 at index k, for the
    k of _witness_ks(hi), and 0 at k = 0 and 1.  For n = kP with P prime,
    a^(n-1) = a^(k-1) (mod P), so P divides the witness if n passes (after
    R. G. E. Pinch, "The pseudoprimes up to 10^13", ANTS-IV, 2000).  That
    holds at every k, so the divisibility half can use all k up to 254 that
    the kernel codes."""
    witnesses = (0, 0, *(a ** (k - 1) - 1 for k in _witness_ks(hi)))
    bounds = _large_prime_bounds(witnesses, hi)
    return _SieveSpec(*_mask_orders(a, lo, hi), bounds, witnesses, partial(_passes_fermat, a))


def _passes_gfp(z: GaussianBase, n: int) -> bool:
    return gaussian_fermat_test(n, z) is TestOutcome.PASS


def _gfp_witness(z: GaussianBase, hi: int) -> tuple:
    """The witnesses of the Gaussian test to base z: Im(z^F(k)) at index k,
    for the k of _witness_ks(hi), and 0 at k = 0 and 1.

    With w = z/conj(z) and e = (-1/P) for an odd prime P not dividing
    z*conj(z) (else n is an invalid modulus), w^P = w^e (mod P).  Since n
    mod 4 fixes e once k is odd, and F(n) = n when k is even, this gives
    w^F(n) = w^(+-F(k)) (mod P) for n = kP, which is 1 only if P divides
    Im(z^F(k)).  It is zero for every odd k when z/conj(z) is a root of
    unity (real or imaginary z, 1+1i, 2+2i), which leaves those k without
    a rule.
    """
    ims = [0]  # ims[e] = Im(z^e)
    x, y = 1, 0
    for _ in range(255):
        x, y = x * z.re - y * z.im, x * z.im + y * z.re
        ims.append(y)
    return (0, 0, *(ims[script_F(k)] for k in _witness_ks(hi)))


def _gfp_search(z: GaussianBase, lo: int, hi: int):
    """The sieve of the n in [lo, hi) that pass the Gaussian test to base z:
    the orders of z/conj(z) for F(n) and the witnesses of _gfp_witness."""
    witnesses = _gfp_witness(z, hi)
    bounds = _large_prime_bounds(witnesses, hi)
    spec = _SieveSpec(*_gfp_orders(z, lo, hi), bounds, witnesses, partial(_passes_gfp, z))
    return _sieve_kernel, (_F_CLASSES, (spec,))


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


def _not_failing_gfp(z: GaussianBase, n: int) -> bool:
    """(z/conj(z))^F(n) = 1 modulo m, the part of n prime to 2*z*conj(z); true
    for m = 1.  The power is 1 modulo the 2-part of n (gaussian_fermat_test),
    and a member n of a class with lambda_G(n) | F(n) passes, as lambda_G(m)
    divides lambda_G(n): an n that the test calls INVALID_BASE is tested too."""
    m, norm = n >> ((n & -n).bit_length() - 1), z.norm()
    while (g := gcd(m, norm)) > 1:
        m //= g
    return m == 1 or ratio_power_is_one(z, script_F(n), m)


def _factored_confirm(prefilter, predicate, n: int) -> bool:
    return prefilter(n) and predicate(n, _factorize(n).factors)


def _sieve_kernel(task):
    """Per _SieveSpec of specs, the n of one block, after the residue
    filter, that pass its confirm(n), ascending.

    On each class (modulus, residue, c) of classes, where the exponent is
    n - c, the sieve clears before confirm runs: the primes, the n with
    some (q, d) in (qs, ds) where q | n but d does not divide n - c, and
    each n = kP > bound with P prime for a (k, bound) in bounds, the size
    half of the large-prime rule.  Of the n left, the divisibility half
    skips each n coded k with P = n/k odd, w = witnesses[k] nonzero and
    P not dividing w.  confirm must reject all of them.  The block's
    cofactor codes serve every spec: they sieve every k up to the largest
    k of the specs' bounds, and from k0 on up to the longest witness table
    (so a Korselt spec, with none, adds no k), with none above 2**32.  The
    survivors are found by scanning their nonzero bytes, with the witnesses
    padded with zeros to one per code.
    """
    lo, hi, residue_filter, classes, specs = task
    m, r = residue_filter or (1, 0)
    start = lo + (r - lo) % m
    # The large-prime rule needs the codes of n/k.  Above 2**32 each k costs a
    # sieve by the primes up to 2**16 and Miller-Rabin, more than the rule saves:
    # with it, 2**14 windows at 2**33 and 2**40 ran 1.2-2.4x slower.
    reach = hi if hi <= _SIEVE_CUTOFF else 0
    kmax = max((k for spec in specs for k, bound in spec.bounds if bound < reach), default=1)
    ktop = max([kmax] + [len(spec.witnesses) - 1 for spec in specs]) if reach else 1
    codes = _cofactor_codes(lo, hi, m, start, kmax, ktop)
    out = []
    for qs, ds, bounds, witnesses, confirm in specs:
        bounds = [(k, bound) for k, bound in bounds if bound < reach]
        hits = []
        witnesses += (0,) * (256 - len(witnesses))  # a witness for every code
        for modulus, residue, c in classes:
            found = _class_in_progression(start, m, residue, modulus)
            if found is None:
                continue
            i, step = found
            first, stride = start + i * m, m * step
            flags = codes[i::step]
            _sieve_progression(flags, first, stride, bounds, qs, ds, c)
            find = flags.translate(_NOT).find
            j = find(0)
            while j >= 0:
                n, k = first + j * stride, flags[j]
                w = witnesses[k]
                if not (w and (p := n // k) & 1 and w % p) and confirm(n):
                    hits.append(n)
                j = find(0, j + 1)
        out.append(sorted(hits))
    return out


def _psp_mask_kernel(task):
    """Composite n (after filter) with their classical-pseudoprime base
    mask, ascending: bit j is set iff n passes the j-th spec of specs, the
    _fermat_spec of the j-th base a confirmed by a^(n-1) = 1 (mod n)."""
    lo, hi, residue_filter, specs = task
    masks = {}
    for j, hits in enumerate(_sieve_kernel((lo, hi, residue_filter, _N_CLASSES, specs))):
        for n in hits:
            masks[n] = masks.get(n, 0) | 1 << j
    return sorted(masks.items())


def _joint_kernel(task):
    """One block of the joint table: counts[i][j] of the composites that
    pass Gaussian base i and integer base j.  The Gaussian tests run on the
    classical pseudoprimes of _psp_mask_kernel only."""
    lo, hi, residue_filter, specs, gaussian_bases = task
    counts = [[0] * len(specs) for _ in gaussian_bases]
    for n, mask in _psp_mask_kernel((lo, hi, residue_filter, specs)):
        columns = [j for j in range(len(specs)) if mask >> j & 1]
        for row, z in zip(counts, gaussian_bases):
            if gaussian_fermat_test(n, z) is TestOutcome.PASS:
                for j in columns:
                    row[j] += 1
    return counts


def _korselt_search(classes, group_order, kmax: int, prefilter, predicate, lo: int, hi: int):
    """A Korselt class on the classes (modulus, residue, c) of n - c: the
    sieve by group_order(q) | n - c at each prime power q | n and the size
    half of the large-prime rule with the witness k + 2, up to kmax; the
    survivors that pass prefilter(n) are factored and decided by predicate.

    Size half: for n = kP with P > k + 2 prime, the group order P - e of P
    (e = 1 classical, (-1/P) Gaussian) divides n - c = k(P - e) + ke - c
    (c = 1 classical, set by n mod 4 Gaussian), so P - e divides ke - c, and
    0 < |ke - c| <= k + 1 < P - e.  That gives P <= k + 2, not P | k + 2: no
    divisibility half.  Prefilter: Carmichael and 1-Williams numbers are odd
    with lambda(n) | n - 1, so they pass base 2.  G-Carmichael and G-Lehmer
    numbers (15, 20, 40, ...) have lambda_G(n) | F(n), so base 1+2i passes
    modulo the 5-free part of n (_not_failing_gfp), also when 5 | n.
    """
    bounds = _large_prime_bounds((0, 0, *range(4, kmax + 3)), hi)  # k + 2 at index k
    confirm = partial(_factored_confirm, prefilter, predicate)
    spec = _SieveSpec(*_korselt_orders(group_order, lo, hi), bounds, (), confirm)
    return _sieve_kernel, (classes, (spec,))


def _unsieved(kernel, *params):
    """The builder of a search that needs no table of the query."""
    return lambda lo, hi: (kernel, params)


class _ClassEntry(NamedTuple):
    build: object  # (lo, hi) -> (block kernel, parameters), once per query
    odd_only: bool = False  # every member is odd: search the odd n only
    blocked: bool = True  # else one task covers the whole query


# kmax 24 (g_lehmer) was the fastest on 2**16 windows in [2**23, 2**24);
# larger ones cost more in codes than they save.  g_carmichael takes 128,
# which pays most on long blocks: at 1 worker (2-CPU VM, Python 3.11, CPU
# time, median of 10 alternating pairs), 229 ms against 379 ms for 24 on a
# 2**20 block at 2**23, and 28.9 ms against 31.9 ms per 2**16 window at
# 2**23 + j * 2**20, j < 8.  carmichael and williams_1 take 24 as well: 128 ran
# slower on 2**16 windows at 2**23, 8 on a 2**20 block there.  Odd members
# only: Carmichael and 1-Williams numbers are odd; G-cyclic ones have
# gcd(phi_G(n), n) = 1 with phi_G(n) even; for an even n > 2, v2(phi_G(n)) >
# v2(n) = v2(F(n)), as phi_G(2**k) is 2 or 2**(k+1) and 4 | F(p) for odd p.
_KMAX = 24
_gfp_prefilter = partial(_not_failing_gfp, GaussianBase(1, 2))
_classical_search = partial(
    _korselt_search, _N_CLASSES, classical_lambda_from_factors, _KMAX, partial(_passes_fermat, 2)
)
_CLASS_SEARCHES = {
    "g_carmichael": _ClassEntry(partial(
        _korselt_search, _F_CLASSES, gaussian_lambda_from_factors, 128, _gfp_prefilter,
        PREDICATES["g_carmichael"],
    )),
    "carmichael": _ClassEntry(partial(_classical_search, PREDICATES["carmichael"]), odd_only=True),
    "g_cyclic": _ClassEntry(_unsieved(_batch_kernel, ("phi",), g_cyclic_from_phi), odd_only=True),
    "g_lehmer": _ClassEntry(partial(
        _korselt_search, _F_CLASSES, gaussian_phi_from_factors, _KMAX, _gfp_prefilter,
        _g_lehmer_multi,
    ), odd_only=True),
    "congruence_exception": _ClassEntry(
        _unsieved(_batch_kernel, ("phi", "lam"), _congruence_exception), odd_only=True
    ),
    "giuga": _ClassEntry(_unsieved(_batch_kernel, ("phi", "d"), giuga_from_totient)),
    "williams_1": _ClassEntry(partial(_classical_search, PREDICATES["williams_1"]), odd_only=True),
    "twin_pair_product": _ClassEntry(_unsieved(_twin_kernel), blocked=False),
}

CLASSIFIER_NAMES = tuple(_CLASS_SEARCHES)


def _odd_filter(residue_filter):
    """The residue filter of the odd n that pass residue_filter, or None
    when every n it passes is even."""
    m, r = residue_filter or (1, 0)
    if m % 2:  # one of r and r + m is odd
        return 2 * m, r if r % 2 else r + m
    return (m, r) if r % 2 else None


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _search(query: RangeQuery, entry: _ClassEntry, residue_filter, block_size: int, progress):
    """The ascending hits of entry over the n of query that pass
    residue_filter, in blocks of block_size if entry is blocked, else in one;
    none if entry is odd_only and the filter passes only even n."""
    blocks = _block_starts(query, block_size)
    if entry.odd_only:
        residue_filter = _odd_filter(residue_filter)
        if residue_filter is None:
            return []
    if not entry.blocked:
        blocks = _block_starts(query, query.hi - query.lo)
    kernel, params = entry.build(query.lo, query.hi)
    parts = _run_blocks(kernel, params, query, residue_filter, blocks, progress)
    return [n for (hits,) in parts for n in hits]


def search_gfp(
    query: RangeQuery,
    z: GaussianBase,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    progress=None,
) -> list[int]:
    """Ascending Gaussian Fermat pseudoprimes to base z in the query range.

    A sieve rules out most composites first: per prime power q, the order
    of z/conj(z) modulo q, computed once per query with the V-chain of
    fermat.ratio_power_is_one, must divide F(n) for every multiple n of q,
    and the large-prime rule with the witness Im(z^F(k)) rules out n = kP
    with a prime P above |Im(z^F(k))| or, if P is odd, not dividing it.
    The survivors are confirmed by the exact test,
    fermat.gaussian_fermat_test.
    """
    entry = _ClassEntry(partial(_gfp_search, z))
    return _search(query, entry, query.residue_filter, block_size, progress)


def search_classifier(
    query: RangeQuery,
    which: str,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    progress=None,
) -> list[int]:
    """Ascending n in the range satisfying the named classifier.

    'g_lehmer' lists the members with at least three prime factors (the
    published sequence); the two-factor members are exactly the
    'twin_pair_product' family.  'congruence_exception' means G-cyclic
    numbers failing both power congruences.

    The five factored searches, 'g_carmichael', 'g_lehmer', 'carmichael',
    'williams_1' and carmichael_intersection_scan, are sieved by Korselt's
    criterion: lambda_G(q), phi_G(q) or lambda(q) divides F(n), or n - 1
    for the classical classes, at every prime power q | n, and n = kP with a
    prime P > k + 2 fails.  A survivor is factored only if it passes base 2
    (classical) or does not fail base 1+2i: near 10**7, the first three
    factor 1.1, 0.5 and 0.002 percent of the n, of 2.8, 1.3 and 0.6 percent
    that survive.  'g_cyclic' is decided from phi_G(n) alone,
    'congruence_exception' from phi_G(n) and lambda_G(n), and 'giuga' from
    phi_G(n) and D(n), the product of the p^k || n with F(p) | F(n); one
    multiplicative sieve gives the columns each reads without factoring n.
    'g_lehmer', 'carmichael', 'williams_1', 'g_cyclic' and
    'congruence_exception' search the odd n only.
    Membership is decided by classify's PREDICATES, g_cyclic_from_phi
    and giuga_from_totient.
    """
    entry = _CLASS_SEARCHES.get(which)
    if entry is None:
        raise ValueError(f"unknown classifier {which!r}; choose from {CLASSIFIER_NAMES}")
    return _search(query, entry, query.residue_filter, block_size, progress)


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
    on multiplicative orders and the large-prime rule with Pinch's witness
    a^(k-1) - 1 (n = kP with P prime passes only if P divides it) rules out
    most composites, and one modular exponentiation
    a^(n-1) mod n settles each survivor.  Orders and rules are built once
    per query.  The Gaussian tests run only on the classical pseudoprimes,
    in the block's worker.  Integer bases must satisfy 2 <= a < 2**63.
    """
    blocks = _block_starts(query, block_size)
    gaussian_bases = tuple(gaussian_bases)
    integer_bases = tuple(integer_bases)
    for a in integer_bases:
        check_domain(a, "integer base")
    counts = [[0] * len(integer_bases) for _ in gaussian_bases]
    if gaussian_bases and integer_bases:
        specs = tuple(_fermat_spec(a, query.lo, query.hi) for a in integer_bases)
        params = (specs, gaussian_bases)
        parts = _run_blocks(_joint_kernel, params, query, query.residue_filter, blocks, progress)
        for part in parts:
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

    The search of 'carmichael' on the n = 3 mod 4: the classical Korselt
    sieve, the base-2 prefilter, then the factored check.  The residue
    filter is fixed to (4, 3); queries carrying any other filter are
    rejected.  Raises ConsistencyError if the Williams-route cross-check
    ever disagrees.
    """
    if query.residue_filter not in (None, (4, 3)):
        raise ValueError("this scan fixes the residue filter to (4, 3)")
    entry = _ClassEntry(partial(_classical_search, carmichael_and_g_carmichael_3mod4))
    return _search(query, entry, (4, 3), block_size, progress)


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
    *,
    on_pass=None,
) -> VerificationReport:
    """Run the Gaussian test over a file of candidate integers.

    The file holds one ASCII decimal integer per line; '#' lines are
    comments, blank lines are skipped, anything else unparsable counts as
    malformed, as does any other line longer than 4096 characters.  Entries
    passing the test are returned (for a published Fermat-pseudoprime list
    they are the interesting finds), and on_pass(n), if given, is called
    with each as the scan reaches it; entries whose gcd with z*conj(z)
    exceeds 1 are tallied as invalid-base.  A residue filter (m, r) keeps
    the n = r mod m; check_residue_filter rejects a bad one up front.
    """
    check_residue_filter(residue_filter)
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
            outcome = gaussian_fermat_test(n, z)
            if outcome is TestOutcome.INVALID_BASE:
                invalid += 1
            elif outcome is TestOutcome.PASS:
                passing.append(n)
                if on_pass:
                    on_pass(n)
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


def canonical_json(rec: dict) -> str:
    """rec as one line of JSON with sorted keys and no spaces."""
    import json

    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def record_line(kind: str, query: RangeQuery | None, base, values) -> str:
    """One canonical JSON record: {kind, query, base, values}."""
    return canonical_json({
        "kind": kind,
        "query": _query_dict(query) if query else None,
        "base": str(base) if base is not None else None,
        "values": list(values),
    })


def table_to_records(table: CensusTable, query: RangeQuery) -> str:
    header = record_line(
        "joint_census_bases", query, None, [str(a) for a in table.integer_bases]
    )
    rows = [
        record_line("joint_census_row", query, z, row)
        for z, row in zip(table.gaussian_bases, table.counts)
    ]
    return "".join(line + "\n" for line in [header] + rows)
