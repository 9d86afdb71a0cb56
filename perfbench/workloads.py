"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of (workload, seed, request index), so
the timed client and the checker regenerate identical inputs without
passing them between processes.  Nothing here imports gausspseudo: the
inputs must not depend on the code under test.
"""

from __future__ import annotations

import random
from itertools import compress

WORKLOADS = ("table", "search", "numbers")

# table: one joint_census call over a window of two default-size blocks
# (2**20 each), so the 2-worker pool gets one block per worker.  Every
# joint hit of the published table (n = 3 mod 4 below 4*10**7) lies below
# 550,000, so the window starts at one of TABLE_STARTS, multiples of 2**17
# whose windows all hold hits; the table check then compares nonzero counts.
TABLE_BLOCK = 1 << 20
TABLE_WINDOW = 2 * TABLE_BLOCK
TABLE_STARTS = (2, 1 << 17, 2 << 17, 3 << 17, 4 << 17)
TABLE_FILTER = (4, 3)
TABLE_WORKERS = 2

# search: the five searches over one window of one factor batch (2**16),
# run through the command-line frontend.  The band [2**23, 2**24) keeps the
# cost per integer nearly flat across seeds.
SEARCH_WINDOW = 1 << 16
SEARCH_CLASSIFIERS = ("g_carmichael", "carmichael", "g_cyclic", "congruence_exception")
SEARCH_GFP_BASE = (1, 2)

BAND_LO, BAND_HI = 1 << 23, 1 << 24

# numbers: each request classifies a mix of 62-bit integers and verifies
# one generated file of base-2 pseudoprimes with base 1+2i.  The kinds are
# the four the benchmark covers; their proportions are chosen, not measured
# from any traffic, so classify times are also reported per kind.
VERIFY_BASE = (1, 2)
NUMBER_MIX = (("balanced", 1), ("unbalanced", 2), ("prime", 2), ("random", 1))
FILE_LINES = 2000

# Requests per measured second in a traced run; fixed so that its counts
# depend only on (workload, seed, seconds).
TRACE_REQUESTS_PER_S = {"table": 0.05, "search": 0.1, "numbers": 0.6}


def trace_requests(workload: str, seconds: int) -> int:
    return max(1, round(TRACE_REQUESTS_PER_S[workload] * seconds))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int, bases: tuple[int, ...] = _MR_BASES) -> bool:
    """Miller-Rabin to the given prime bases; exact below 3.3e24 with all
    twelve, and below 3.2e9 with the first four."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    """The first prime at or after a uniform draw from [lo, hi)."""
    n = rng.randrange(lo, hi) | 1
    while not _is_probable_prime(n):
        n += 2
    return n


def table_window(seed: int, index: int) -> tuple[int, int]:
    lo = _rng("table", seed, index).choice(TABLE_STARTS)
    return lo, lo + TABLE_WINDOW


def search_window(seed: int, index: int) -> tuple[int, int]:
    k = _rng("search", seed, index).randrange(BAND_LO // SEARCH_WINDOW, BAND_HI // SEARCH_WINDOW)
    return k * SEARCH_WINDOW, k * SEARCH_WINDOW + SEARCH_WINDOW


def number_batch(seed: int, index: int) -> list[tuple[str, int, tuple[int, ...]]]:
    """(kind, n, known prime factors or ()) for one classify batch, in call order.

    Balanced: two primes near 2**31; unbalanced: a prime just above the
    library's 10**6 trial-division bound times a 41-bit prime; prime: a
    62-bit prime; random: a uniform 62-bit integer (factors unknown).
    """
    rng = _rng("numbers", seed, index)
    out = []
    for kind, count in NUMBER_MIX:
        for _ in range(count):
            if kind == "balanced":
                p = _prime_in(rng, 3 << 29, 1 << 31)
                q = _prime_in(rng, 3 << 29, 1 << 31)
                out.append((kind, p * q, tuple(sorted((p, q)))))
            elif kind == "unbalanced":
                p = _prime_in(rng, 1 << 20, 1 << 21)
                q = _prime_in(rng, 1 << 40, 1 << 41)
                out.append((kind, p * q, (p, q)))
            elif kind == "prime":
                p = _prime_in(rng, 1 << 61, 1 << 62)
                out.append((kind, p, (p,)))
            else:
                out.append((kind, rng.randrange(1 << 61, 1 << 62), ()))
    rng.shuffle(out)
    return out


_MALFORMED = ("12x", "-17", "3.5", "0", "1", "1e9", "0x1f", "9223372036854775808", "+-4")

# Odd primes below 2000, with the inverses of 4 and 8 modulo each, for
# sieving the progression p = p0 + 4i at both p and 2p - 1.
_SIEVE = tuple(
    (q, pow(4, -1, q), pow(8, -1, q))
    for q in range(3, 2000, 2)
    if all(q % d for d in range(3, int(q**0.5) + 1, 2))
)
_SIEVE_CHUNK = 1 << 12


def _psp2_run(p0: int):
    """Ascending base-2 Fermat pseudoprimes n = p(2p - 1), p = 1 mod 4, p >= p0 > 2000.

    When p and 2p - 1 are prime, n is a base-2 pseudoprime: 2 is a square
    modulo 2p - 1 = 1 mod 8, and p - 1 divides n - 1 = (p-1)(2p+1).  Both
    factors are sieved to 2000 and tested as base-2 strong probable primes;
    n itself must then pass the base-2 Fermat test, so every value yielded
    is a base-2 pseudoprime.
    """
    p0 += (1 - p0) % 4
    while True:
        keep = bytearray(b"\x01") * _SIEVE_CHUNK
        for q, inv4, inv8 in _SIEVE:
            for first in (-p0 * inv4 % q, -(2 * p0 - 1) * inv8 % q):
                keep[first::q] = bytes(len(range(first, _SIEVE_CHUNK, q)))
        for i in compress(range(_SIEVE_CHUNK), keep):
            p = p0 + 4 * i
            if _is_probable_prime(p, (2,)) and _is_probable_prime(2 * p - 1, (2,)):
                n = p * (2 * p - 1)
                if pow(2, n - 1, n) == 1:
                    yield n
        p0 += 4 * _SIEVE_CHUNK


def _psp2_near(rng: random.Random, lo: int, hi: int) -> int:
    """The first p(2p - 1) pseudoprime with p at or after a uniform draw from [lo, hi)."""
    p = rng.randrange(lo, hi)
    p += (1 - p) % 4
    while not (_is_probable_prime(p) and _is_probable_prime(2 * p - 1)):
        p += 4
    return p * (2 * p - 1)


def verify_file(seed: int, index: int) -> tuple[list[str], list[int]]:
    """Lines of one candidate file and the integers it validly holds, in order.

    The file is laid out like a published list of base-2 Fermat
    pseudoprimes, the input `verify` is documented for: a comment header,
    then about 89% values, each one a base-2 pseudoprime of the form
    p(2p - 1), and 2% comment, 1% blank and 3% malformed lines between
    them.  Of the values, 94% are 62-bit, a run of consecutive ones from a
    seeded start, and 6% are single 32- or 33-bit ones.  These shares are
    chosen.  Malformed lines are ASCII only.
    """
    rng = _rng("verify", seed, index)
    run62 = _psp2_run(rng.randrange(1 << 30, 1_450_000_000))
    lines = ["# base-2 Fermat pseudoprimes p(2p-1)", f"# generated list {seed}/{index}"]
    values = []
    while len(lines) < FILE_LINES:
        r = rng.random()
        if r < 0.84:
            n = next(run62)
        elif r < 0.895:
            n = _psp2_near(rng, 1 << 15, 1 << 16)
        elif r < 0.915:
            lines.append(f"# block {rng.randrange(1000)}")
            continue
        elif r < 0.925:
            lines.append("")
            continue
        else:
            lines.append(rng.choice(_MALFORMED))
            continue
        lines.append(f"{n}")
        values.append(n)
    return lines, values
