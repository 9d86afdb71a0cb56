"""Independent brute-force oracles used to check the package.

Everything here is deliberately written from first principles (plain
scans, trial division, naive ladders) and never calls into gausspseudo,
so that agreement between the two is meaningful.
"""

from math import gcd, isqrt, lcm, prod


def brute_group(n):
    """All (a, b) with a^2 + b^2 = 1 mod n, by full quadratic scan."""
    return [(a, b) for a in range(n) for b in range(n) if (a * a + b * b) % n == 1 % n]


def norm_one_group(n):
    """The same set as brute_group(n), in the same order, in O(n) steps:
    for each a, the b whose square is 1 - a^2, from one table of squares."""
    roots = {}
    for b in range(n):
        roots.setdefault(b * b % n, []).append(b)
    return [(a, b) for a in range(n) for b in roots.get((1 - a * a) % n, ())]


def group_exponent(n, group):
    """Least e > 0 with g^e = 1 for every element g of the group mod n.

    It divides the group order: start there and strip each prime while
    every element still satisfies g^(e/p) = 1."""
    e = len(group)
    for p in _small_factor_multiset(len(group)):
        while e % p == 0 and all(gpow(a, b, e // p, n) == (1 % n, 0) for a, b in group):
            e //= p
    return e


def gpow(a, b, e, n):
    """(a+bi)^e mod n, naive binary ladder."""
    ra, rb = 1 % n, 0
    while e:
        if e & 1:
            ra, rb = (ra * a - rb * b) % n, (ra * b + rb * a) % n
        e >>= 1
        if e:
            a, b = (a * a - b * b) % n, (2 * a * b) % n
    return ra, rb


def ratio_form_outcome(n, a, b):
    """The Gaussian Fermat test to base z = a+bi, from its definition:
    "invalid_base" if gcd(n, a^2 + b^2) > 1, else "pass" if
    w = z/conj(z) has w^F(n) = 1 (mod n), else "fail".  conj(z) is
    inverted as z/(a^2 + b^2) and w raised on the naive ladder."""
    norm = a * a + b * b
    if gcd(n, norm) != 1:
        return "invalid_base"
    s = pow(norm, -1, n)
    ia, ib = a * s % n, b * s % n  # 1/conj(z) = z/(a^2 + b^2)
    wa, wb = (a * ia - b * ib) % n, (a * ib + b * ia) % n
    return "pass" if gpow(wa, wb, naive_script_F(n), n) == (1 % n, 0) else "fail"


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_division_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def smallest_prime_factor_sieve(limit):
    """spf[i] = least prime factor of i for 0 <= i < limit (0 for i < 2)."""
    spf = list(range(limit))
    if limit > 1:
        spf[1] = 0
    for i in range(2, isqrt(limit - 1) + 1):
        if spf[i] == i:
            for j in range(i * i, limit, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def factors_from_spf(n, spf):
    """Factor n with a smallest-prime-factor table, as ((p, k), ...)."""
    out = []
    while n > 1:
        p = spf[n]
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        out.append((p, k))
    return tuple(out)


def _small_factor_multiset(n):
    fac = {}
    for p, k in trial_division_factorize(n):
        fac[p] = k
    return fac


def element_order(a, b, n, group_order):
    """Exact multiplicative order of a+bi in the norm-one group."""
    e = group_order
    for p in _small_factor_multiset(group_order):
        while e % p == 0 and gpow(a, b, e // p, n) == (1 % n, 0):
            e //= p
    return e


def brute_max_order(n):
    g = brute_group(n)
    m = len(g)
    return max(element_order(a, b, n, m) for a, b in g)


def composite_sieve(limit):
    """bytearray marking composites below limit (index = n)."""
    flags = bytearray(limit)
    for i in range(2, isqrt(limit - 1) + 1):
        for j in range(i * i, limit, i):
            flags[j] = 1
    return flags


def primes_below(limit):
    flags = composite_sieve(limit)
    return [n for n in range(2, limit) if not flags[n]]


def brute_psp_masks(lo, hi, bases, residue_filter=None):
    """Ascending (n, mask) over composite n in [lo, hi) (after the residue
    filter) that pass the Fermat test to at least one base; bit j of mask is
    set when pow(bases[j], n - 1, n) == 1."""
    m, r = residue_filter or (1, 0)
    out = []
    for n in range(lo, hi):
        if n % m != r or trial_division_is_prime(n):
            continue
        mask = sum(1 << j for j, a in enumerate(bases) if pow(a, n - 1, n) == 1)
        if mask:
            out.append((n, mask))
    return out


def naive_script_F(n):
    if n % 4 == 1:
        return n - 1
    if n % 4 == 3:
        return n + 1
    return n


def brute_giuga_member(n):
    """Direct summation of z^F over the full group scan."""
    F = naive_script_F(n)
    sr = si = 0
    for a, b in brute_group(n):
        ra, rb = gpow(a, b, F, n)
        sr += ra
        si += rb
    return (sr - F) % n == 0 and si % n == 0


def _norm_one_power_sum(q, e):
    """(order of the group mod q, sum of z^e over it), by direct summation."""
    group = norm_one_group(q)
    sr = si = 0
    for a, b in group:
        ra, rb = gpow(a, b, e % len(group), q)
        sr += ra
        si += rb
    return len(group), sr, si


def prime_power_giuga_member(n, factors):
    """brute_giuga_member for n of any size whose prime powers are small.

    The group mod n is the product of the groups mod each q = p^k || n
    (CRT), so mod q the sum over it is |G_n| / |G_q| times the sum over
    G_q, each summed directly.  z^|G_q| = 1 on G_q, so F(n) is taken
    mod |G_q| there."""
    F = naive_script_F(n)
    sums = [(p**k, *_norm_one_power_sum(p**k, F)) for p, k in factors]
    order = prod(size for _, size, _, _ in sums)
    return all(
        (order // size * sr - F) % q == 0 and order // size * si % q == 0
        for q, size, sr, si in sums
    )


def classical_phi_brute(n):
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def classical_lambda_brute(n):
    units = [a for a in range(1, n + 1) if gcd(a, n) == 1]
    e = 1
    while any(pow(a, e, n) != 1 % n for a in units):
        e += 1
    return e


def twin_pair_products_below(hi):
    """pq for twin primes q = p+2 with p = 3 mod 4 (equivalently 8 | p+q)."""
    out = []
    p = 3
    while p * (p + 2) < hi:
        if p % 4 == 3 and trial_division_is_prime(p) and trial_division_is_prime(p + 2):
            out.append(p * (p + 2))
        p += 2
    return out


def two_power_norm_one_orders(k):
    """(order, exponent) of the norm-one group mod 2**k, from the group
    itself: the exponent is 2**j for the least j at which j squarings of
    every element leave only 1."""
    n = 1 << k
    group = set(norm_one_group(n))
    order, j = len(group), 0
    while group != {(1 % n, 0)}:
        group = {((a * a - b * b) % n, 2 * a * b % n) for a, b in group}
        j += 1
    return order, 1 << j


def korselt_class_members(limit):
    """The n below limit in each Korselt-type class, by name: composite n
    with lambda_G(n) | F(n) (g_carmichael) or phi_G(n) | F(n) (g_lehmer);
    odd square-free composite n with p - 1 | n - 1 for every p | n
    (carmichael), and those with p + 1 | n + 1 too (williams_1).

    For an odd prime p the norm-one group mod p**k is cyclic of order
    p**(k-1) * (p - 1) for p = 1 (mod 4) and p**(k-1) * (p + 1) for
    p = 3 (mod 4); for 2**k, order and exponent come from the group."""
    spf = smallest_prime_factor_sieve(limit)
    twos = {k: two_power_norm_one_orders(k) for k in range(1, limit.bit_length())}
    found = {"g_carmichael": [], "g_lehmer": [], "carmichael": [], "williams_1": []}
    for n in range(4, limit):
        factors = factors_from_spf(n, spf)
        if factors == ((n, 1),):
            continue
        orders = [
            twos[k] if p == 2 else (p ** (k - 1) * (p - 1 if p % 4 == 1 else p + 1),) * 2
            for p, k in factors
        ]
        F = naive_script_F(n)
        if F % lcm(*(e for _, e in orders)) == 0:
            found["g_carmichael"].append(n)
        if F % prod(o for o, _ in orders) == 0:
            found["g_lehmer"].append(n)
        if n % 2 and all(k == 1 and (n - 1) % (p - 1) == 0 for p, k in factors):
            found["carmichael"].append(n)
            if all((n + 1) % (p + 1) == 0 for p, _ in factors):
                found["williams_1"].append(n)
    return found
