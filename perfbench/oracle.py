"""Expected outputs for benchmark requests, computed without the census path.

Routes used, none of which shares code with gausspseudo's kernels:

* numpy vectorised modular ladders for classical Fermat residues and for
  the imaginary form Im(z**F(n)) = 0 mod n (all n here are below 2**24,
  so every product fits in int64);
* a numpy factor sieve over each search window, with its primality
  flags cross-checked against sympy.isprime;
* sympy.factorint / sympy.isprime for the 62-bit integers;
* gausspseudo.gaussian_fermat_im_test, whose ladder is kept apart from
  the ratio form on purpose, and the naive ladder in tests/oracle_utils.
"""

from __future__ import annotations

import functools
import os
import sys
from math import gcd, isqrt, lcm, prod

import numpy as np
import sympy

import workloads as wl

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests"))
from oracle_utils import gpow, naive_script_F  # noqa: E402

import gausspseudo as gp  # noqa: E402


def _script_f(n: np.ndarray) -> np.ndarray:
    r = n % 4
    return np.where(r == 1, n - 1, np.where(r == 3, n + 1, n))


def _pow_vec(base: int, exps: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """base**exps % mods elementwise (mods < 2**31)."""
    result = np.ones_like(mods)
    b = np.full_like(mods, base) % mods
    e = exps.copy()
    while e.any():
        odd = (e & 1).astype(bool)
        result = np.where(odd, result * b % mods, result)
        b = b * b % mods
        e >>= 1
    return result


def _gauss_im_zero_vec(a: int, b: int, exps: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """Im((a+bi)**exps) == 0 mod mods, elementwise (mods < 2**31)."""
    ra, rb = np.ones_like(mods), np.zeros_like(mods)
    xa, xb = np.full_like(mods, a) % mods, np.full_like(mods, b) % mods
    e = exps.copy()
    while e.any():
        odd = (e & 1).astype(bool)
        ra, rb = (
            np.where(odd, (ra * xa - rb * xb) % mods, ra),
            np.where(odd, (ra * xb + rb * xa) % mods, rb),
        )
        xa, xb = (xa * xa - xb * xb) % mods, (2 * xa * xb) % mods
        e >>= 1
    return rb == 0


def _base_str(z) -> str:
    return f"{z.re}{z.im:+d}i"


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

@functools.cache  # a run draws its table windows from only a few starts
def expected_table(lo: int, hi: int) -> tuple[str, tuple[tuple[int, int], ...]]:
    """joint_census over [lo, hi) with filter (4, 3) rendered as CSV, and the
    (n, mask) pairs the mask kernel must keep: every composite n in the
    filtered range that is a Fermat pseudoprime to at least one integer
    base, with bit j of mask set when it is one to integer base j."""
    gbases, ibases = gp.TABLE_GAUSSIAN_BASES, gp.TABLE_INTEGER_BASES
    m, r = wl.TABLE_FILTER
    ns = np.arange(lo + (r - lo) % m, hi, m, dtype=np.int64)
    primes = sorted({p for a in ibases for p in sympy.factorint(a)})
    residue = {p: _pow_vec(p, ns - 1, ns) for p in primes}
    passes = []
    for a in ibases:
        acc = np.ones_like(ns)
        for p, k in sympy.factorint(a).items():
            for _ in range(k):
                acc = acc * residue[p] % ns
        passes.append(acc == 1)
    counts = [[0] * len(ibases) for _ in gbases]
    survivors = []
    for idx in np.flatnonzero(np.any(passes, axis=0)):
        n = int(ns[idx])
        if sympy.isprime(n):
            continue
        survivors.append((n, sum(1 << j for j in range(len(ibases)) if passes[j][idx])))
        for i, z in enumerate(gbases):
            if gp.gaussian_fermat_im_test(n, z) is gp.TestOutcome.PASS:
                for j in range(len(ibases)):
                    counts[i][j] += bool(passes[j][idx])
    lines = ["base," + ",".join(str(a) for a in ibases)]
    lines += [_base_str(z) + "," + ",".join(map(str, row)) for z, row in zip(gbases, counts)]
    return "\n".join(lines) + "\n", tuple(survivors)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _factor_window(lo: int, hi: int) -> dict[str, np.ndarray]:
    """Multiplicative data for every n in [lo, hi) from a numpy division sieve."""
    n = np.arange(lo, hi, dtype=np.int64)
    rem = n.copy()
    one = np.ones_like(n)
    gphi, glam, clam = one.copy(), one.copy(), one.copy()
    squarefree = np.ones(len(n), dtype=bool)
    omega = np.zeros_like(n)
    for p in sympy.primerange(2, isqrt(hi - 1) + 1):
        s = (-lo) % p
        view = rem[s::p]
        k = np.zeros_like(view)
        while True:
            div = view % p == 0
            if not div.any():
                break
            k += div
            view[div] //= p
        if p == 2:
            g_phi = np.where(k == 1, 2, 2 ** (k + 1))
            g_lam = np.where(k == 1, 2, np.where(k <= 4, 4, 2 ** np.maximum(k - 2, 0)))
        else:
            g_phi = p ** (k - 1) * (p - 1 if p % 4 == 1 else p + 1)
            g_lam = g_phi
        gphi[s::p] *= g_phi
        glam[s::p] = np.lcm(glam[s::p], g_lam)
        clam[s::p] = np.lcm(clam[s::p], p - 1)
        squarefree[s::p] &= k == 1
        omega[s::p] += 1
    big = rem > 1  # one prime factor above sqrt(hi), exponent 1
    q = rem[big]
    g = np.where(q % 4 == 1, q - 1, q + 1)
    gphi[big] *= g
    glam[big] = np.lcm(glam[big], g)
    clam[big] = np.lcm(clam[big], q - 1)
    omega[big] += 1
    return {"n": n, "gphi": gphi, "glam": glam, "clam": clam,
            "squarefree": squarefree, "prime": (omega == 1) & squarefree}


def expected_search(lo: int, hi: int) -> dict[str, list[int]]:
    """The five searches of one request over [lo, hi)."""
    f = _factor_window(lo, hi)
    n, prime = f["n"], f["prime"]
    sympy_prime = np.array([sympy.isprime(int(x)) for x in n])
    if not np.array_equal(prime, sympy_prime):
        raise AssertionError(f"oracle sieve disagrees with sympy.isprime on [{lo}, {hi})")
    composite = ~prime
    F = _script_f(n)
    out = {
        "g_carmichael": composite & (F % f["glam"] == 0),
        "carmichael": composite & (n % 2 == 1) & f["squarefree"] & ((n - 1) % f["clam"] == 0),
    }
    g_cyclic = np.gcd(f["gphi"], n) == 1
    out["g_cyclic"] = g_cyclic
    exception = np.zeros_like(g_cyclic)
    for idx in np.flatnonzero(g_cyclic):
        m, P, L = int(n[idx]), int(f["gphi"][idx]), int(f["glam"][idx])
        exception[idx] = pow(P % m, P, m) != 1 and pow(L % m, L, m) != 1
    out["congruence_exception"] = exception
    za, zb = wl.SEARCH_GFP_BASE
    valid = np.gcd(n, za * za + zb * zb) == 1
    out["gfp"] = composite & valid & _gauss_im_zero_vec(za, zb, F, n)
    values = {k: [int(x) for x in n[v]] for k, v in out.items()}
    for m in values["gfp"]:  # positives once more, through the naive ladder
        if gpow(za % m, zb % m, naive_script_F(m), m)[1] != 0:
            raise AssertionError(f"oracle ladders disagree at {m}")
    return values


# ---------------------------------------------------------------------------
# numbers
# ---------------------------------------------------------------------------

def _gauss_phi_pp(p: int, k: int) -> int:
    if p == 2:
        return 2 if k == 1 else 2 ** (k + 1)
    return p ** (k - 1) * (p - 1 if p % 4 == 1 else p + 1)


def _gauss_lambda_pp(p: int, k: int) -> int:
    if p == 2:
        return 2 if k == 1 else (4 if k <= 4 else 2 ** (k - 2))
    return _gauss_phi_pp(p, k)


def expected_classification(n: int, known: tuple[int, ...]) -> dict:
    """Flags of classify(n), from sympy (or the generator's known primes)."""
    if known:
        if prod(known) != n or not all(sympy.isprime(p) for p in known):
            raise AssertionError(f"generator produced bad factors for {n}")
        fac = {p: 1 for p in known}
    else:
        fac = sympy.factorint(n)
    prime = len(fac) == 1 and next(iter(fac.values())) == 1
    squarefree = all(k == 1 for k in fac.values())
    F = int(naive_script_F(n))
    P = prod(_gauss_phi_pp(p, k) for p, k in fac.items())
    L = 1
    for p, k in fac.items():
        L = lcm(L, _gauss_lambda_pp(p, k))
    phi = prod(p ** (k - 1) * (p - 1) for p, k in fac.items())
    g_carm = not prime and F % L == 0
    g_cyc = gcd(P, n) == 1
    return {
        "is_prime": prime,
        "g_carmichael": g_carm,
        "carmichael": n % 2 == 1 and not prime and squarefree
        and all((n - 1) % (p - 1) == 0 for p in fac),
        "g_cyclic": g_cyc,
        "cyclic": gcd(phi, n) == 1,
        "g_lehmer": g_carm and F % P == 0,
        "phi_power_congruence": g_cyc and pow(P % n, P, n) == 1,
        "lambda_power_congruence": g_cyc and pow(L % n, L, n) == 1,
        "williams_1": not prime and squarefree
        and all((n + 1) % (p + 1) == 0 and (n - 1) % (p - 1) == 0 for p in fac),
        "giuga_member": None,
    }


def expected_verification(lines: list[str], values: list[int]) -> list:
    """[total_read, filtered, passing, invalid_base, malformed_lines] for base 1+2i."""
    z = gp.GaussianBase(*wl.VERIFY_BASE)
    invalid, passing = 0, []
    for n in values:
        outcome = gp.gaussian_fermat_im_test(n, z)
        if outcome is gp.TestOutcome.INVALID_BASE:
            invalid += 1
        elif outcome is gp.TestOutcome.PASS:
            passing.append(n)
    malformed = sum(1 for line in lines if line and not line.startswith("#")) - len(values)
    return [len(values), len(values), passing, invalid, malformed]
