"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Three checks are marked strict-xfail because the published claims
they transcribe are contradicted by exact computation (counterexamples:
the doubling of the product rule at m = n = 2 mod 4, the congruence
exception 399 < 400, and even two-prime examples such as 24); each has a
passing companion test pinning the corrected statement.
"""

import time
from math import gcd, lcm

import pytest
from oracle_utils import (
    composite_sieve,
    element_order,
    factors_from_spf,
    gpow,
    norm_one_group,
    primes_below,
    ratio_form_outcome,
    smallest_prime_factor_sieve,
    twin_pair_products_below,
)

from gausspseudo.arith import (
    factorize,
    gaussian_lambda,
    gaussian_lambda_from_factors,
    gaussian_phi,
    gaussian_phi_from_factors,
    group_structure,
    script_F,
)
from gausspseudo.census import (
    RangeQuery,
    carmichael_intersection_scan,
    joint_census,
    record_line,
    search_classifier,
    table_to_csv,
    values_to_csv,
)
from gausspseudo.classify import giuga_membership, is_g_carmichael, is_g_lehmer
from gausspseudo.fermat import (
    BASE_PANEL,
    EQUIVALENCE_PANEL,
    TABLE_GAUSSIAN_BASES,
    TABLE_INTEGER_BASES,
    TestOutcome,
    gaussian_fermat_im_test,
    gaussian_fermat_test,
)
from gausspseudo.residues import GaussianBase

WORKERS = 8

# The published joint-census table: composites below 4*10^7 of the form
# 4k+3 that are simultaneously Gaussian pseudoprimes (rows) and classical
# Fermat pseudoprimes (columns, bases 2..11).
PUBLISHED_TABLE = {
    "1+2i":  (0, 0, 0, 0, 0, 0, 0, 0, 1, 0),
    "1+4i":  (0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    "1+6i":  (0, 1, 2, 0, 2, 0, 0, 1, 0, 1),
    "1+10i": (0, 1, 1, 0, 0, 0, 2, 1, 2, 1),
    "2+5i":  (0, 0, 1, 0, 1, 0, 0, 0, 0, 1),
    "2+7i":  (0, 0, 1, 0, 1, 0, 2, 1, 0, 1),
    "3+8i":  (0, 1, 2, 1, 0, 0, 1, 1, 0, 1),
    "3+10i": (0, 1, 2, 0, 1, 0, 2, 1, 1, 1),
    "4+5i":  (0, 0, 1, 0, 0, 0, 1, 0, 0, 1),
    "4+9i":  (0, 0, 1, 0, 0, 0, 1, 0, 0, 1),
}

PUBLISHED_G_LEHMER = [255, 385, 34561, 65535, 147455, 195841]

PUBLISHED_CONGRUENCE_EXCEPTIONS = [
    77, 119, 133, 187, 217, 253, 287, 301, 319, 323, 341, 391,
]


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:>3}: {tag}  {detail}")


@pytest.fixture(scope="session")
def filtered_table():
    """The 4*10^7 joint census under the (4,3) filter, at 8 workers."""
    query = RangeQuery(2, 40_000_000, (4, 3), WORKERS)
    t0 = time.perf_counter()
    table = joint_census(query, TABLE_GAUSSIAN_BASES, TABLE_INTEGER_BASES)
    return table, query, time.perf_counter() - t0


@pytest.fixture(scope="session")
def g_carmichael_to_1e5():
    return search_classifier(RangeQuery(2, 100_000, None, WORKERS), "g_carmichael")


def test_criterion_01_group_oracle():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 2001):
        elements = norm_one_group(n)
        if len(elements) != gaussian_phi(n):
            bad.append((n, "order"))
            continue
        lam = gaussian_lambda(n)
        if any(gpow(a, b, lam, n) != (1 % n, 0) for a, b in elements):
            bad.append((n, "exponent-divides"))
            continue
        if not any(element_order(a, b, n, len(elements)) == lam for a, b in elements):
            bad.append((n, "max-order"))
    elapsed = time.perf_counter() - t0
    report(1, not bad and elapsed < 300, f"n <= 2000, {elapsed:.1f}s, mismatches={bad[:5]}")
    assert bad == []
    assert elapsed < 300


def test_criterion_02_structure_theorem():
    mismatches = []
    for p in primes_below(2001):
        k = 1
        while p**k <= 2000:
            n = p**k
            gs = group_structure(n)
            if p == 2:
                expected = (2,) if k == 1 else (2 ** (k - 2), 2, 4)
            elif p % 4 == 1:
                expected = (p ** (k - 1), p - 1)
            else:
                expected = (p ** (k - 1), p + 1)
            order = 1
            for d in expected:
                order *= d
            exponent = 1
            for d in expected:
                exponent = lcm(exponent, d)
            if (gs.cyclic_orders, gs.order, gs.exponent) != (expected, order, exponent):
                mismatches.append((n, "descriptor"))
            else:
                elements = norm_one_group(n)
                if len(elements) != order or not any(
                    element_order(a, b, n, order) == exponent for a, b in elements
                ):
                    mismatches.append((n, "no element of maximal order"))
            k += 1
    report(2, not mismatches, f"prime powers <= 2000, mismatches={mismatches[:5]}")
    assert mismatches == []


@pytest.fixture(scope="session")
def phi_lambda_tables():
    limit = 250_001
    spf = smallest_prime_factor_sieve(limit)
    phi = [0, 1] + [0] * (limit - 2)
    lam = [0, 1] + [0] * (limit - 2)
    for n in range(2, limit):
        fac = factors_from_spf(n, spf)
        phi[n] = gaussian_phi_from_factors(fac)
        lam[n] = gaussian_lambda_from_factors(fac)
    return phi, lam


def test_criterion_03a_multiplicativity(phi_lambda_tables):
    phi, lam = phi_lambda_tables
    for m in range(1, 501):
        for n in range(m, 501):
            if gcd(m, n) == 1:
                assert phi[m * n] == phi[m] * phi[n], (m, n)
                assert lam[m * n] == lcm(lam[m], lam[n]), (m, n)
    report("3a", True, "multiplicativity, m,n <= 500")


@pytest.mark.xfail(
    strict=True,
    reason="the stated product rule misses a factor 2 whenever m = n = 2 mod 4; "
    "e.g. Phi(12) = 32 while Phi(2)Phi(6)gcd/Phi(gcd) = 16",
)
def test_criterion_03b_product_rule_as_stated(phi_lambda_tables):
    phi, _ = phi_lambda_tables
    violations = []
    for m in range(1, 501):
        for n in range(m, 501):
            d = gcd(m, n)
            if phi[m * n] != phi[m] * phi[n] * d // phi[d]:
                violations.append((m, n))
    report(
        "3b", not violations,
        f"product rule as stated: {len(violations)} violations, first={violations[:3]} "
        "(all with m = n = 2 mod 4, each off by exactly 2x)",
    )
    assert violations == []


def test_criterion_03b_product_rule_corrected(phi_lambda_tables):
    phi, _ = phi_lambda_tables
    for m in range(1, 501):
        for n in range(m, 501):
            d = gcd(m, n)
            expected = phi[m] * phi[n] * d // phi[d]
            if m % 4 == 2 and n % 4 == 2:
                expected *= 2
            assert phi[m * n] == expected, (m, n)
    report("3b'", True, "product rule with the 2-adic correction, m,n <= 500")


def test_criterion_03c_gcd_lcm_identity(phi_lambda_tables):
    phi, _ = phi_lambda_tables
    for m in range(1, 501):
        for n in range(m, 501):
            assert phi[gcd(m, n)] * phi[lcm(m, n)] == phi[m] * phi[n], (m, n)
    report("3c", True, "gcd-lcm identity, m,n <= 500")


def test_criterion_03d_power_rule():
    for n in range(2, 201):
        for m in range(2, 5):
            expected = n ** (m - 1) * gaussian_phi(n)
            if n % 4 == 2:
                expected *= 2
            assert gaussian_phi(n**m) == expected, (n, m)
    report("3d", True, "power rule, n <= 200, m in 2..4")


def test_criterion_03e_phi_equals_lambda(phi_lambda_tables):
    phi, lam = phi_lambda_tables
    spf = smallest_prime_factor_sieve(10_001)
    for n in range(2, 10_001):
        fac = factors_from_spf(n, spf)
        characterized = n == 2 or (len(fac) == 1 and fac[0][0] % 2 == 1)
        assert (phi[n] == lam[n]) == characterized, n
    report("3e", True, "phi = lambda iff 2 or odd prime power, n <= 10^4")


def test_criterion_04_g_lehmer_list():
    t0 = time.perf_counter()
    got = search_classifier(RangeQuery(2, 200_000, None, WORKERS), "g_lehmer")
    elapsed = time.perf_counter() - t0
    ok = got == PUBLISHED_G_LEHMER and elapsed < 60
    report(4, ok, f"{got} in {elapsed:.1f}s")
    assert got == PUBLISHED_G_LEHMER
    assert elapsed < 60


@pytest.mark.xfail(
    strict=True,
    reason="399 = 3*7*19 is a thirteenth congruence exception below 400; the "
    "published list is open-ended and stops at 391",
)
def test_criterion_05_congruence_exceptions_as_stated():
    got = search_classifier(RangeQuery(2, 400), "congruence_exception")
    extras = sorted(set(got) - set(PUBLISHED_CONGRUENCE_EXCEPTIONS))
    report(5, got == PUBLISHED_CONGRUENCE_EXCEPTIONS,
           f"[2,400) yields {len(got)} values; beyond the published twelve: {extras}")
    assert got == PUBLISHED_CONGRUENCE_EXCEPTIONS


def test_criterion_05_companion_published_prefix():
    # the published twelve are exactly the exceptions below 399
    got = search_classifier(RangeQuery(2, 399), "congruence_exception")
    assert got == PUBLISHED_CONGRUENCE_EXCEPTIONS
    got_400 = search_classifier(RangeQuery(2, 400), "congruence_exception")
    assert got_400 == PUBLISHED_CONGRUENCE_EXCEPTIONS + [399]
    report("5'", True, "published twelve = all exceptions below 399; 399 is next")


@pytest.mark.xfail(
    strict=True,
    reason="the two-prime claim holds only for n = 4p (p prime): 24 = 2^3*3, "
    "36 = 2^2*3^2, 40 = 2^3*5, ... are even G-Carmichael numbers with two "
    "distinct prime factors as well",
)
def test_criterion_06a_even_two_prime_as_stated(g_carmichael_to_1e5):
    evens = [
        n
        for n in g_carmichael_to_1e5
        if n < 10_000 and n % 2 == 0 and len(factorize(n).factors) == 2
    ]
    report("6a", evens == [12, 20],
           f"{len(evens)} even two-prime members < 10^4, first ten: {evens[:10]}")
    assert evens == [12, 20]


def test_criterion_06a_companion_4p_family(g_carmichael_to_1e5):
    from gausspseudo.arith import is_prime

    quarter_prime = [
        n
        for n in g_carmichael_to_1e5
        if n < 10_000 and n % 4 == 0 and is_prime(n // 4) and n // 4 % 2 == 1
    ]
    assert quarter_prime == [12, 20]
    report("6a'", True, "members of the form 4p (p odd prime) below 10^4: [12, 20]")


def test_criterion_06b_powers_of_two():
    # 2 itself is prime; the composite powers start at 4
    bad = [2**k for k in range(2, 21) if not is_g_carmichael(2**k)]
    report("6b", not bad, f"powers of 2 up to 2^20, failures={bad}")
    assert bad == []


def test_criterion_07_two_factor_theorems(g_carmichael_to_1e5):
    odd_two_prime_gc = [
        n
        for n in g_carmichael_to_1e5
        if n % 2 == 1 and len(factorize(n).factors) == 2
    ]
    odd_two_prime_gl = [n for n in odd_two_prime_gc if is_g_lehmer(n)]
    twins = twin_pair_products_below(100_000)
    ok = odd_two_prime_gc == odd_two_prime_gl == twins
    below = [n for n in odd_two_prime_gc if n < 10_000]
    report(7, ok and below == [15, 143, 3599, 5183],
           f"{len(twins)} twin products < 10^5; below 10^4: {below}")
    assert odd_two_prime_gc == twins
    assert odd_two_prime_gl == twins
    assert below == [15, 143, 3599, 5183]


def test_criterion_08_table_reproduction(filtered_table, tmp_path_factory):
    table, query, elapsed = filtered_table
    got = {str(z): row for z, row in zip(table.gaussian_bases, table.counts)}
    if got == PUBLISHED_TABLE:
        report(8, elapsed < 1800,
               f"filtered (4,3) interpretation matches exactly, {elapsed:.0f}s at {WORKERS} workers")
        assert elapsed < 1800
        return
    # filtered interpretation failed: try the unfiltered reading
    unfiltered = joint_census(
        RangeQuery(2, 40_000_000, None, WORKERS),
        TABLE_GAUSSIAN_BASES,
        TABLE_INTEGER_BASES,
    )
    got_unfiltered = {
        str(z): row for z, row in zip(unfiltered.gaussian_bases, unfiltered.counts)
    }
    if got_unfiltered == PUBLISHED_TABLE:
        report(8, True, "unfiltered interpretation matches exactly")
        return
    diff_lines = ["base | column base | computed(filtered) | computed(unfiltered) | published"]
    for z in PUBLISHED_TABLE:
        for j, a in enumerate(TABLE_INTEGER_BASES):
            want = PUBLISHED_TABLE[z][j]
            f_got, u_got = got[z][j], got_unfiltered[z][j]
            if want not in (f_got, u_got):
                diff_lines.append(f"{z} | {a} | {f_got} | {u_got} | {want}")
    diff = "\n".join(diff_lines)
    out = tmp_path_factory.mktemp("diff") / "table_diff.txt"
    out.write_text(diff + "\n")
    report(8, False, f"neither interpretation matches; diff at {out}\n{diff}")
    raise AssertionError(f"table mismatch under both interpretations:\n{diff}")


def test_criterion_09_carmichael_intersection():
    t0 = time.perf_counter()
    hits = carmichael_intersection_scan(RangeQuery(2, 10_000_000, None, WORKERS))
    elapsed = time.perf_counter() - t0
    # the scan itself raises ConsistencyError on any Williams-route mismatch
    report(9, hits == [], f"[2,10^7): intersection={hits}, {elapsed:.0f}s, 0 route violations")
    assert hits == []


def test_criterion_10_giuga_set():
    t0 = time.perf_counter()
    bad_primes = [p for p in primes_below(501) if not giuga_membership(p)]
    bad_powers = [2**k for k in range(1, 13) if not giuga_membership(2**k)]
    limit = 50_001
    spf = smallest_prime_factor_sieve(limit)
    flags = composite_sieve(limit)
    mismatches = []
    for n in range(3, limit, 2):
        if not flags[n]:
            continue
        fac = factors_from_spf(n, spf)
        member = giuga_membership(n)
        phi_equals_F = gaussian_phi_from_factors(fac) == script_F(n)
        if member != phi_equals_F:
            mismatches.append(n)
    elapsed = time.perf_counter() - t0
    ok = not bad_primes and not bad_powers and not mismatches and elapsed < 600
    report(10, ok,
           f"primes<=500 ok={not bad_primes}, 2^k<=2^12 ok={not bad_powers}, "
           f"odd composites <= 5*10^4 coincide with phi=F: {not mismatches}, {elapsed:.0f}s")
    assert bad_primes == []
    assert bad_powers == []
    assert mismatches == []
    assert elapsed < 600


def test_criterion_11a_form_equivalence():
    for n in range(2, 1001):
        for z in EQUIVALENCE_PANEL:
            outcome = gaussian_fermat_test(n, z)
            assert outcome is gaussian_fermat_im_test(n, z), (n, str(z))
            assert outcome.value == ratio_form_outcome(n, z.re, z.im), (n, str(z))
    report("11a", True, "main path, ratio and imaginary forms agree, n <= 10^3, 20 bases")


def test_criterion_11b_prime_completeness():
    for p in primes_below(10_001):
        for z in BASE_PANEL:
            assert gaussian_fermat_test(p, z) is not TestOutcome.FAIL, (p, str(z))
    report("11b", True, "no prime <= 10^4 fails any panel base")


def test_criterion_11c_base_norm_equivalence():
    flags = composite_sieve(100_000)
    pairs = [
        (GaussianBase(1, 2), GaussianBase(2, 1)),
        (GaussianBase(1, 1), GaussianBase(1, -1)),
        (GaussianBase(2, 5), GaussianBase(5, 2)),
    ]
    for z, w in pairs:
        assert z.norm() == w.norm()
        for n in range(2, 100_000):
            if flags[n]:
                rz = gaussian_fermat_test(n, z)
                rw = gaussian_fermat_test(n, w)
                assert rz is rw, (n, str(z), str(w))
    report("11c", True, "equal-norm bases define identical pseudoprime sets < 10^5")


def test_criterion_11d_g_carmichael_completeness(g_carmichael_to_1e5):
    for n in g_carmichael_to_1e5:
        for z in BASE_PANEL:
            outcome = gaussian_fermat_test(n, z)
            assert outcome is not TestOutcome.FAIL, (n, str(z))
    report("11d", True,
           f"all {len(g_carmichael_to_1e5)} G-Carmichael numbers < 10^5 pass every valid panel base")


def test_criterion_12_determinism(filtered_table):
    table8, query8, _ = filtered_table
    # criterion 4 and 5 lists, small blocks to force real partitioning
    rendered = {}
    for workers in (1, 8):
        q45 = RangeQuery(2, 200_000, None, workers)
        lehmer = search_classifier(q45, "g_lehmer", block_size=1 << 15)
        exc = search_classifier(RangeQuery(2, 400, None, workers), "congruence_exception")
        gc = search_classifier(RangeQuery(2, 100_000, None, workers),
                               "g_carmichael", block_size=1 << 15)
        twins = search_classifier(RangeQuery(2, 100_000, None, workers), "twin_pair_product")
        rendered[workers] = (
            values_to_csv(lehmer)
            + values_to_csv(exc)
            + values_to_csv(gc)
            + values_to_csv(twins)
            + record_line("search_g_lehmer", q45, None, lehmer)
        )
    table1 = joint_census(
        RangeQuery(2, 40_000_000, (4, 3), 1), TABLE_GAUSSIAN_BASES, TABLE_INTEGER_BASES
    )
    tables_equal = table_to_csv(table1) == table_to_csv(table8)
    ok = rendered[1] == rendered[8] and tables_equal
    report(12, ok, "criteria 4/5/7/8 outputs byte-identical at 1 and 8 workers")
    assert rendered[1] == rendered[8]
    assert tables_equal
