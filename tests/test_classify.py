import random
from functools import lru_cache
from math import gcd, lcm

import pytest
from oracle_utils import (
    brute_giuga_member,
    brute_group,
    brute_max_order,
    classical_lambda_brute,
    classical_phi_brute,
    composite_sieve,
    factors_from_spf,
    group_exponent,
    naive_script_F,
    norm_one_group,
    prime_power_giuga_member,
    primes_below,
    smallest_prime_factor_sieve,
    trial_division_factorize,
)

from gausspseudo.arith import (
    factorize,
    gaussian_lambda_from_factors,
    gaussian_phi_from_factors,
)
from gausspseudo.census import _CLASS_SEARCHES
from gausspseudo.classify import (
    PREDICATES,
    ClassificationReport,
    ConsistencyError,
    carmichael_and_g_carmichael_3mod4,
    classify,
    g_carmichael_witness,
    giuga_membership,
    is_carmichael,
    is_cyclic_number,
    is_g_carmichael,
    is_g_carmichael_via_lambda,
    is_g_cyclic,
    is_g_lehmer,
    is_r_williams,
    lambda_power_congruence,
    phi_power_congruence,
)


class TestGCarmichael:
    def test_examples(self):
        assert is_g_carmichael(15)
        assert is_g_carmichael(12)
        assert not is_g_carmichael(561)

    def test_via_lambda_examples(self):
        assert is_g_carmichael_via_lambda(1024)
        assert is_g_carmichael_via_lambda(143)
        assert not is_g_carmichael_via_lambda(21)

    def test_powers_of_two(self):
        for k in range(2, 21):
            assert is_g_carmichael(2**k), k

    def test_routes_agree_to_1e5(self):
        spf = smallest_prime_factor_sieve(100_000)
        for n in range(2, 100_000):
            fac = factors_from_spf(n, spf)
            if len(fac) == 1 and fac[0][1] == 1:
                continue
            lam_route = naive_script_F(n) % gaussian_lambda_from_factors(fac) == 0
            assert is_g_carmichael(n) == lam_route, n

    def test_witness_route_matches_predicate_to_1e5(self):
        # F(p) | F(n) already rules out n = 2 mod 4 and n = 4q with q >= 7
        # prime, so no even n needs a witness of its own
        spf = smallest_prime_factor_sieve(100_000)
        for n in range(2, 100_000):
            verdict, witness = g_carmichael_witness(n)
            assert verdict == PREDICATES["g_carmichael"](n, factors_from_spf(n, spf)), n
            assert len(witness) == (not verdict), n
            assert set(witness) <= {"prime", "f_divisibility_violation", "square_factor"}, n

    def test_domain(self):
        with pytest.raises(ValueError):
            is_g_carmichael(1)


class TestCarmichael:
    def test_examples(self):
        assert is_carmichael(561)
        assert is_carmichael(1105)
        assert not is_carmichael(15)

    def test_small_list(self):
        hits = [n for n in range(2, 10_000) if is_carmichael(n)]
        assert hits == [561, 1105, 1729, 2465, 2821, 6601, 8911]


class TestCyclicPredicates:
    def test_examples(self):
        assert is_g_cyclic(77)
        assert is_g_cyclic(15)
        assert not is_g_cyclic(9)
        assert is_cyclic_number(15)
        assert not is_cyclic_number(9)
        for p in (3, 7, 13, 97):
            assert is_cyclic_number(p)


class TestGLehmer:
    def test_examples(self):
        assert is_g_lehmer(15)
        assert is_g_lehmer(255)
        assert is_g_lehmer(143)
        assert not is_g_lehmer(21)

    def test_implies_g_carmichael_to_1e5(self):
        spf = smallest_prime_factor_sieve(100_000)
        for n in range(2, 100_000):
            fac = factors_from_spf(n, spf)
            if len(fac) == 1 and fac[0][1] == 1:
                continue
            F = naive_script_F(n)
            if F % gaussian_phi_from_factors(fac) == 0:
                assert F % gaussian_lambda_from_factors(fac) == 0, n

    def test_two_factor_theorem_to_2e4(self):
        # odd pq is G-Carmichael iff twin primes with 8 | p+q, and then
        # it is also G-Lehmer
        twins = set()
        for p in primes_below(200):
            if p % 4 == 3 and p + 2 in set(primes_below(300)):
                twins.add(p * (p + 2))
        for n in range(9, 20_000, 2):
            fac = trial_division_factorize(n)
            if len(fac) == 2 and all(k == 1 for _, k in fac):
                assert is_g_carmichael(n) == (n in twins), n
                assert is_g_lehmer(n) == (n in twins), n


class TestPowerCongruences:
    def test_examples(self):
        assert phi_power_congruence(15)
        assert not phi_power_congruence(77)
        assert not lambda_power_congruence(77)

    def test_congruence_implies_g_cyclic(self):
        for n in range(2, 10_000):
            if phi_power_congruence(n) or lambda_power_congruence(n):
                assert is_g_cyclic(n), n


class TestGiuga:
    def test_examples(self):
        assert giuga_membership(8)
        assert giuga_membership(7)
        assert giuga_membership(15)

    def test_against_direct_summation(self):
        for n in list(range(2, 400)) + [512, 243, 125, 343, 121, 529]:
            assert giuga_membership(n) == brute_giuga_member(n), n

    def test_odd_members_have_phi_equal_F_to_1e5(self):
        spf = smallest_prime_factor_sieve(100_000)
        flags = composite_sieve(100_000)
        for n in range(3, 100_000, 2):
            if not flags[n]:
                continue
            fac = factors_from_spf(n, spf)
            member = giuga_membership(n)
            assert member == (gaussian_phi_from_factors(fac) == naive_script_F(n)), n

    @pytest.mark.parametrize("lo", [10**5, 10**6, 10**7, 10**9])
    def test_against_prime_power_sums_in_window(self, lo):
        verdicts = []
        for n in range(lo, lo + 1500):
            factors = _small_prime_power_factors(n)
            if factors is not None:
                member = giuga_membership(n)
                assert member == prime_power_giuga_member(n, factors), n
                verdicts.append(member)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("bits", [32, 44, 54])
    def test_against_prime_power_sums_at_height(self, bits):
        # products of coprime prime powers q <= _SMALL_Q, drawn until n > 2^bits
        rng = random.Random(bits)
        verdicts = []
        for _ in range(40):
            n, factors = 1, {}
            while n < 1 << bits:
                p, k = rng.choice(_SMALL_PRIME_POWERS)
                if p not in factors:
                    factors[p] = k
                    n *= p**k
            member = giuga_membership(n)
            assert member == prime_power_giuga_member(n, sorted(factors.items())), n
            verdicts.append(member)
        assert True in verdicts and False in verdicts


# the oracle sums directly over the group mod each prime power up to this
_SMALL_Q = 500
_SMALL_PRIME_POWERS = [
    (p, k) for p in primes_below(_SMALL_Q) for k in range(1, 9) if p**k <= _SMALL_Q
]


def _small_prime_power_factors(n):
    """n's factorization if every p^k || n is at most _SMALL_Q, else None."""
    factors = []
    for p in primes_below(_SMALL_Q):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if p**k > _SMALL_Q:
            return None
        if k:
            factors.append((p, k))
    return factors if n == 1 else None


class TestWilliams:
    def test_examples(self):
        assert not is_r_williams(561, 1)
        assert not is_r_williams(7, 1)
        assert not is_r_williams(15, 1)

    def test_square_factors_excluded(self):
        # 27 satisfies the bare divisibilities but is not square-free
        assert (27 + 1) % (3 + 1) == 0 and (27 - 1) % (3 - 1) == 0
        assert not is_r_williams(27, 1)

    def test_r_domain(self):
        with pytest.raises(ValueError):
            is_r_williams(15, 0)


class TestCombined3Mod4:
    def test_15(self):
        assert carmichael_and_g_carmichael_3mod4(15) is False

    def test_precondition(self):
        with pytest.raises(ValueError):
            carmichael_and_g_carmichael_3mod4(561)

    def test_8911(self):
        # 8911 = 7*19*67 is Carmichael but not G-Carmichael (F(19) = 20
        # does not divide 8912)
        assert is_carmichael(8911)
        assert not is_g_carmichael(8911)
        assert carmichael_and_g_carmichael_3mod4(8911) is False

    def test_range_consistency(self):
        for n in range(3, 30_000, 4):
            fac = factorize(n).factors
            if len(fac) == 1 and fac[0][1] == 1:
                continue
            carmichael_and_g_carmichael_3mod4(n)  # raises on route mismatch


class TestClassifyReport:
    def test_15(self):
        r = classify(15)
        assert r.g_carmichael and r.g_lehmer and r.g_cyclic and r.cyclic
        assert not r.carmichael and not r.is_prime
        assert r.giuga_member is None

    def test_prime(self):
        r = classify(13)
        assert r.is_prime
        assert not (r.g_carmichael or r.carmichael or r.g_lehmer or r.williams_1)
        assert r.cyclic and r.g_cyclic

    def test_12(self):
        r = classify(12)
        assert r.g_carmichael and not r.g_lehmer

    def test_giuga_gating(self):
        assert classify(15, with_giuga=True).giuga_member is True

    @pytest.mark.parametrize(
        "n",
        [
            150_000,
            720_720,
            2**8 * 37 * 433,
            2**7 * 13**2 * 173 * 359 * 431 * 463,
            3**4 * 5**3 * 7**2 * 11 * 13 * 17 * 19 * 23 * 29 * 31,
        ],
    )
    def test_giuga_at_height(self, n):
        r = classify(n, with_giuga=True)
        assert r.giuga_member is prime_power_giuga_member(n, trial_division_factorize(n))

    def test_witness_reported(self):
        r = classify(561)
        assert r.witnesses.get("f_divisibility_violation") in (3, 11, 17)

    def test_implications_hold(self):
        for n in range(2, 3000):
            r = classify(n)
            if r.g_lehmer:
                assert r.g_carmichael
            if r.phi_power_congruence or r.lambda_power_congruence:
                assert r.g_cyclic
            if r.williams_1:
                assert r.carmichael


@lru_cache(maxsize=None)
def _prime_power_orders(q):
    """(phi_G, lambda_G, phi, lambda) of the prime power q, by enumeration."""
    group = norm_one_group(q)
    return len(group), group_exponent(q, group), classical_phi_brute(q), classical_lambda_brute(q)


def _oracle_orders(n):
    """The four group functions of n, composed over its prime powers by the CRT."""
    phi_g = lam_g = phi = lam = 1
    for p, k in trial_division_factorize(n):
        a, b, c, d = _prime_power_orders(p**k)
        phi_g, lam_g, phi, lam = phi_g * a, lcm(lam_g, b), phi * c, lcm(lam, d)
    return phi_g, lam_g, phi, lam


def _oracle_flags(n):
    """Every class of the predicate table, from the definitions in the paper
    and tests/oracle_utils.py only."""
    fac = trial_division_factorize(n)
    composite = not (len(fac) == 1 and fac[0][1] == 1)
    squarefree = all(k == 1 for _, k in fac)
    F = naive_script_F(n)
    phi_g, lam_g, phi, lam = _oracle_orders(n)
    return {
        "g_carmichael": composite and F % lam_g == 0,
        # Carmichael's criterion, independent of Korselt's
        "carmichael": composite and (n - 1) % lam == 0,
        "g_cyclic": gcd(phi_g, n) == 1,
        "cyclic": gcd(phi, n) == 1,
        "g_lehmer": composite and F % phi_g == 0,
        "phi_power_congruence": pow(phi_g, phi_g, n) == 1,
        "lambda_power_congruence": pow(lam_g, lam_g, n) == 1,
        "williams_1": composite
        and squarefree
        and all((n + 1) % (p + 1) == 0 and (n - 1) % (p - 1) == 0 for p, _ in fac),
        # the census rules built on the table
        "g_lehmer_multi": composite and F % phi_g == 0 and len(fac) >= 3,
        "congruence_exception": gcd(phi_g, n) == 1
        and pow(phi_g, phi_g, n) != 1
        and pow(lam_g, lam_g, n) != 1,
    }


class TestPredicateTable:
    def test_report_order(self):
        assert ClassificationReport.FLAG_ORDER == (*PREDICATES, "giuga_member")

    def test_witness_cross_check_is_live(self, monkeypatch):
        monkeypatch.setitem(PREDICATES, "g_carmichael", lambda n, factors: False)
        with pytest.raises(ConsistencyError):
            classify(15)

    def test_crt_composition_against_whole_group(self):
        for n in range(2, 120):
            phi_g, lam_g, phi, lam = _oracle_orders(n)
            assert phi_g == len(brute_group(n)), n
            assert lam_g == brute_max_order(n), n
            assert phi == classical_phi_brute(n), n
            assert lam == classical_lambda_brute(n), n

    def test_every_entry_against_oracle_to_2000(self):
        # the census searches' own rules: g_lehmer confirms a survivor n by
        # factoring it, the other two decide from the columns they name of
        # (phi_G, lambda_G): feed them the oracle's
        _, (_, ((*_, lehmer_confirm),)) = _CLASS_SEARCHES["g_lehmer"].build(2, 2000)
        rules = {**PREDICATES, "g_lehmer_multi": lambda n, factors: lehmer_confirm(n)}
        order_rules = {
            name: _CLASS_SEARCHES[name].build(2, 2000)[1]  # (kernel, (columns, rule))
            for name in ("g_cyclic", "congruence_exception")
        }
        for n in range(2, 2000):
            want = _oracle_flags(n)
            factors = factorize(n).factors
            got = {name: rule(n, factors) for name, rule in rules.items()}
            orders = dict(zip(("phi", "lam"), _oracle_orders(n)))
            got_orders = {
                name: rule(n, *(orders[column] for column in columns))
                for name, (columns, rule) in order_rules.items()
            }
            assert got == {name: want[name] for name in rules}, n
            assert got_orders == {name: want[name] for name in order_rules}, n
