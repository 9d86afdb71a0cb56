import random
from collections import Counter
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import (
    brute_group,
    brute_max_order,
    classical_lambda_brute,
    classical_phi_brute,
    element_order,
    factors_from_spf,
    group_exponent,
    norm_one_group,
    primes_below,
    smallest_prime_factor_sieve,
    trial_division_factorize,
    trial_division_is_prime,
)

from gausspseudo.arith import (
    Factorization,
    check_domain,
    classical_lambda,
    classical_phi,
    factorize,
    gaussian_lambda,
    gaussian_phi,
    group_structure,
    is_prime,
    primes_up_to,
    script_F,
)
from gausspseudo.classify import classify, giuga_membership, is_g_lehmer
from gausspseudo.fermat import (
    classical_fermat_test,
    gaussian_fermat_im_test,
    gaussian_fermat_test,
    is_gfp,
)
from gausspseudo.residues import GaussianBase

Z12 = GaussianBase(1, 2)

# Public entry points that take a modulus n, each called at n.
_DOMAIN_CALLS = {
    "factorize": factorize,
    "gaussian_fermat_test": lambda n: gaussian_fermat_test(n, Z12),
    "classify": classify,
    "is_g_lehmer": is_g_lehmer,
    "gaussian_fermat_im_test": lambda n: gaussian_fermat_im_test(n, Z12),
    "is_gfp": lambda n: is_gfp(n, Z12),
    "classical_fermat_test": lambda n: classical_fermat_test(n, 2),
    "giuga_membership": giuga_membership,
}


class TestCheckDomain:
    def test_bounds(self):
        check_domain(2)
        check_domain((1 << 63) - 1)
        with pytest.raises(ValueError, match="modulus must satisfy"):
            check_domain(1, "modulus")

    @pytest.mark.parametrize("n", [1, 1 << 63])
    @pytest.mark.parametrize("name", sorted(_DOMAIN_CALLS))
    def test_entry_points_share_it(self, name, n):
        with pytest.raises(ValueError, match=r"must satisfy 2 <= n < 2\*\*63, got"):
            _DOMAIN_CALLS[name](n)


class TestIsPrime:
    def test_examples(self):
        assert is_prime(2)
        assert not is_prime(561)
        assert is_prime(4294967311)

    def test_small_range_against_trial_division(self):
        for n in range(-2, 2000):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_large_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**62)
        assert not is_prime((10**9 + 7) * (10**9 + 9))
        assert is_prime(10**9 + 7)

    def test_domain(self):
        with pytest.raises(ValueError):
            is_prime(1 << 64)


class TestFactorize:
    def test_examples(self):
        assert factorize(12).factors == ((2, 2), (3, 1))
        assert factorize(561).factors == ((3, 1), (11, 1), (17, 1))
        assert factorize(2**62).factors == ((2, 62),)

    def test_against_trial_division(self):
        for n in range(2, 3000):
            assert factorize(n).factors == tuple(trial_division_factorize(n)), n

    def test_large_semiprime(self):
        n = (10**9 + 7) * (10**9 + 9)
        assert factorize(n).factors == ((10**9 + 7, 1), (10**9 + 9, 1))

    def test_random_reconstruction(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randrange(2, 1 << 48)
            fac = factorize(n)
            assert prod(p**k for p, k in fac.factors) == n
            assert all(is_prime(p) for p, _ in fac.factors)

    def test_domain(self):
        for bad in (1, 0, -5, 1 << 63):
            with pytest.raises(ValueError):
                factorize(bad)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Factorization(12, ((2, 1), (3, 1)))
        with pytest.raises(ValueError):
            Factorization(6, ((3, 1), (2, 1)))

    def test_helpers(self):
        assert factorize(60).factors == ((2, 2), (3, 1), (5, 1))
        assert factorize(30).factors == ((2, 1), (3, 1), (5, 1))


def prime_from(n):
    """The least prime >= n, by the trial-division oracle."""
    while not trial_division_is_prime(n):
        n += 1
    return n


# primes just above factorize's trial-division bound (2**10) and above the
# 10**6 bound it had before, where rho must split what the wheel leaves
NEAR_BOUNDS = st.sampled_from((1 << 10, 10**6)).flatmap(
    lambda b: st.integers(b, b + 3_000)
)
PROPERTY_SETTINGS = settings(max_examples=40)


class TestFactorizeProperties:
    """factorize against factors known by construction."""

    @PROPERTY_SETTINGS
    @given(NEAR_BOUNDS)
    def test_prime_squares(self, start):
        p = prime_from(start)
        assert factorize(p * p).factors == ((p, 2),)

    @PROPERTY_SETTINGS
    @given(st.one_of(NEAR_BOUNDS, st.integers(10**6, (1 << 21) - 1_000)))
    def test_prime_cubes(self, start):
        p = prime_from(start)
        assert factorize(p**3).factors == ((p, 3),)

    @PROPERTY_SETTINGS
    @given(st.integers(1 << 10, 6_000))
    def test_prime_fifth_powers(self, start):
        p = prime_from(start)
        assert factorize(p**5).factors == ((p, 5),)

    @PROPERTY_SETTINGS
    @given(st.lists(NEAR_BOUNDS, min_size=2, max_size=3))
    def test_products_of_primes(self, starts):
        primes = [prime_from(s) for s in starts]
        expected = tuple(sorted(Counter(primes).items()))
        assert factorize(prod(primes)).factors == expected

    @PROPERTY_SETTINGS
    @given(NEAR_BOUNDS, st.floats(0.5, 1.0))
    def test_square_times_large_prime(self, start, share):
        p = prime_from(start)
        limit = min(1 << 34, ((1 << 63) - 1) // (p * p))
        q = prime_from(max(p + 1, int(limit * share) - 2_000))
        assert factorize(p * p * q).factors == ((p, 2), (q, 1))


class TestScriptF:
    def test_cases(self):
        assert script_F(13) == 12
        assert script_F(5) == 4
        assert script_F(7) == 8
        assert script_F(2) == 2
        assert script_F(8) == 8
        assert script_F(1) == 0

    def test_equals_phi_on_primes(self):
        for p in primes_below(2000):
            assert script_F(p) == gaussian_phi(p)


class TestGaussianPhiLambda:
    def test_examples(self):
        assert gaussian_phi(3) == 4
        assert gaussian_phi(8) == 16
        assert gaussian_phi(15) == 16
        assert gaussian_lambda(8) == 4
        assert gaussian_lambda(32) == 8
        assert gaussian_lambda(15) == 4
        assert gaussian_phi(1) == gaussian_lambda(1) == 1

    def test_phi_matches_group_size(self):
        for n in range(2, 350):
            assert gaussian_phi(n) == len(brute_group(n)), n

    def test_lambda_matches_max_order(self):
        for n in list(range(2, 130)) + [8, 16, 32, 64, 9, 27, 25, 49, 121, 169]:
            assert gaussian_lambda(n) == brute_max_order(n), n

    def test_group_order_and_exponent_below_300(self):
        for n in range(1, 300):
            group = norm_one_group(n)
            assert gaussian_phi(n) == len(group), n
            assert gaussian_lambda(n) == group_exponent(n, group), n

    @PROPERTY_SETTINGS
    @given(
        st.one_of(
            st.tuples(st.integers(1, (1 << 31) - 1), st.integers(1, (1 << 31) - 1)),
            # m = 2**k, where the 2-adic formulas apply
            st.tuples(
                st.integers(0, 20).map(lambda k: 1 << k),
                st.integers(0, (1 << 30) - 1).map(lambda x: 2 * x + 1),
            ),
        ).filter(lambda mn: gcd(*mn) == 1)
    )
    def test_multiplicative_over_coprime_pairs(self, mn):
        m, n = mn
        assert gaussian_phi(m * n) == gaussian_phi(m) * gaussian_phi(n)
        assert gaussian_lambda(m * n) == lcm(gaussian_lambda(m), gaussian_lambda(n))

    def test_product_formula_with_beta(self):
        # Phi(n) = (2 if 4|n else 1) * n * prod(1 - beta(p)/p), where
        # beta(p) = p - F(p) is 0 at 2, +1 if p = 1 mod 4, -1 if p = 3 mod 4
        for n in range(2, 2000):
            fac = factorize(n)
            num, den = n, 1
            for p, _ in fac.factors:
                beta = p - script_F(p)
                num *= p - beta
                den *= p
            expected = (2 if n % 4 == 0 else 1) * num // den
            assert gaussian_phi(n) == expected, n

    def test_multiplicativity(self):
        for m in range(2, 200):
            for n in range(m, 200):
                if gcd(m, n) == 1:
                    assert gaussian_phi(m * n) == gaussian_phi(m) * gaussian_phi(n)
                    assert gaussian_lambda(m * n) == lcm(
                        gaussian_lambda(m), gaussian_lambda(n)
                    )

    def test_general_product_rule_with_2adic_correction(self):
        # Phi(mn) = Phi(m)Phi(n)gcd/Phi(gcd), doubled when m = n = 2 mod 4.
        # The uncorrected form genuinely fails there: Phi(12) = 32 but
        # Phi(2)Phi(6)*2/Phi(2) = 16.
        assert gaussian_phi(12) == 32
        assert gaussian_phi(2) * gaussian_phi(6) * 2 // gaussian_phi(2) == 16
        for m in range(1, 200):
            for n in range(m, 200):
                d = gcd(m, n)
                base = gaussian_phi(m) * gaussian_phi(n) * d // gaussian_phi(d)
                if m % 4 == 2 and n % 4 == 2:
                    base *= 2
                assert gaussian_phi(m * n) == base, (m, n)

    def test_gcd_lcm_identity(self):
        for m in range(1, 200):
            for n in range(m, 200):
                assert gaussian_phi(gcd(m, n)) * gaussian_phi(lcm(m, n)) == \
                    gaussian_phi(m) * gaussian_phi(n), (m, n)

    def test_power_rule(self):
        for n in range(2, 100):
            for m in range(2, 5):
                expected = n ** (m - 1) * gaussian_phi(n)
                if n % 4 == 2:
                    expected *= 2
                assert gaussian_phi(n**m) == expected, (n, m)
        # m = 1 is the trivial identity; the doubling case starts at m = 2
        for n in range(2, 100):
            if n % 4 != 2:
                assert gaussian_phi(n**1) == gaussian_phi(n)

    def test_phi_equals_lambda_characterization(self):
        for n in range(2, 2000):
            fac = factorize(n)
            expected = n == 2 or (len(fac.factors) == 1 and fac.factors[0][0] % 2 == 1)
            assert (gaussian_phi(n) == gaussian_lambda(n)) == expected, n


class TestNormOneGroup:
    """oracle_utils.norm_one_group, the G_n of acceptance criteria 1 and 2,
    against worked groups, the quadratic scan and the order phi_G(n)."""

    def test_n2(self):
        assert norm_one_group(2) == [(0, 1), (1, 0)]

    def test_n3(self):
        assert norm_one_group(3) == [(0, 1), (0, 2), (1, 0), (2, 0)]

    def test_n4_size(self):
        assert len(norm_one_group(4)) == gaussian_phi(4) == 8

    def test_matches_brute_scan_across_factorizations(self):
        # prime powers and products of several, against the quadratic scan
        for n in [2, 5, 8, 12, 45, 128, 299, 300, 301, 329, 343, 360, 512, 625, 900]:
            group = norm_one_group(n)
            assert group == brute_group(n), n
            assert len(group) == gaussian_phi(n), n

    def test_closed_under_product_and_conjugation(self):
        for n in [2, 4, 9, 15, 16, 45, 49, 65]:
            group = set(norm_one_group(n))
            for a, b in group:
                assert (a, -b % n) in group, (n, a, b)
                for c, d in group:
                    assert ((a * c - b * d) % n, (a * d + b * c) % n) in group, (n, a, b, c, d)


class TestClassicalFunctions:
    def test_examples(self):
        assert classical_phi(12) == 4
        assert classical_lambda(8) == 2
        for p in (3, 7, 31, 101):
            assert classical_phi(p) == p - 1

    def test_against_brute(self):
        for n in range(1, 150):
            assert classical_phi(n) == classical_phi_brute(n), n
            assert classical_lambda(n) == classical_lambda_brute(n), n


class TestGroupStructure:
    def test_examples(self):
        gs = group_structure(9)
        assert (gs.cyclic_orders, gs.order, gs.exponent) == ((3, 4), 12, 12)
        gs = group_structure(16)
        assert (gs.cyclic_orders, gs.order, gs.exponent) == ((4, 2, 4), 32, 4)
        gs = group_structure(5)
        assert (gs.cyclic_orders, gs.order, gs.exponent) == ((1, 4), 4, 4)

    def test_consistent_with_phi_lambda(self):
        for n in range(1, 2000):
            gs = group_structure(n)
            assert gs.order == gaussian_phi(n)
            assert gs.exponent == gaussian_lambda(n)

    def test_cyclicity_of_odd_prime_groups(self):
        # for p = 3 mod 4 the group mod p is cyclic: some element has order p+1
        for p in primes_below(200):
            if p % 4 != 3:
                continue
            g = brute_group(p)
            assert any(element_order(a, b, p, p + 1) == p + 1 for a, b in g)


class TestPrimeTable:
    def test_against_trial_division(self):
        assert list(primes_up_to(1 << 16)) == primes_below((1 << 16) + 1)
        for limit in (0, 1, 2, 3, 36, 37, 38, 1023, 1024, 65520, 65521):
            assert list(primes_up_to(limit)) == primes_below(limit + 1), limit

    def test_ends_at_2_16(self):
        with pytest.raises(ValueError):
            primes_up_to((1 << 16) + 1)


class TestSpfSieve:
    def test_matches_factorize(self):
        spf = smallest_prime_factor_sieve(500)
        for n in range(2, 500):
            assert factors_from_spf(n, spf) == factorize(n).factors
