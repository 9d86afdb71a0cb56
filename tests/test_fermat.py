import random
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle_utils import composite_sieve, gpow, primes_below, ratio_form_outcome

from gausspseudo import fermat
from gausspseudo.arith import gaussian_lambda, gaussian_phi
from gausspseudo.fermat import (
    BASE_PANEL,
    EQUIVALENCE_PANEL,
    TABLE_GAUSSIAN_BASES,
    TestOutcome,
    classical_fermat_test,
    gaussian_fermat_im_test,
    gaussian_fermat_test,
    is_fermat_psp,
    is_gfp,
    ratio_power_is_one,
)
from gausspseudo.residues import GaussianBase

Z12 = GaussianBase(1, 2)


class TestRatioForm:
    def test_prime_passes(self):
        assert gaussian_fermat_test(7, Z12) is TestOutcome.PASS

    def test_composite_fails(self):
        assert gaussian_fermat_test(9, Z12) is TestOutcome.FAIL

    def test_invalid_base(self):
        assert gaussian_fermat_test(15, Z12) is TestOutcome.INVALID_BASE

    def test_domain(self):
        with pytest.raises(ValueError):
            gaussian_fermat_test(1, Z12)


class TestImForm:
    def test_prime_passes(self):
        assert gaussian_fermat_im_test(13, Z12) is TestOutcome.PASS

    def test_composite_fails(self):
        assert gaussian_fermat_im_test(9, Z12) is TestOutcome.FAIL

    def test_invalid_base(self):
        assert gaussian_fermat_im_test(10, Z12) is TestOutcome.INVALID_BASE


class TestGfp:
    def test_143(self):
        assert is_gfp(143, Z12)

    def test_prime_is_not_pseudoprime(self):
        assert not is_gfp(13, Z12)

    def test_degenerate_base(self):
        assert is_gfp(9, GaussianBase(1, 1))

    def test_degenerate_base_catches_all_odd_composites(self):
        # unit ratio of 1+1i is i and F(odd) = 0 mod 4, so every odd
        # composite is a pseudoprime to this base
        flags = composite_sieve(500)
        z = GaussianBase(1, 1)
        for n in range(3, 500):
            expected = bool(flags[n]) and n % 2 == 1
            assert is_gfp(n, z) == expected, n


class TestClassicalTest:
    def test_341_base_2(self):
        assert classical_fermat_test(341, 2) is TestOutcome.PASS

    def test_15_base_2(self):
        assert classical_fermat_test(15, 2) is TestOutcome.FAIL

    def test_15_base_3(self):
        assert classical_fermat_test(15, 3) is TestOutcome.INVALID_BASE

    def test_base_domain(self):
        with pytest.raises(ValueError):
            classical_fermat_test(15, 1)

    def test_psp(self):
        assert is_fermat_psp(341, 2)
        assert not is_fermat_psp(341, 3)
        assert not is_fermat_psp(11, 2)

    def test_341_smallest_base2_psp(self):
        flags = composite_sieve(342)
        hits = [n for n in range(3, 342) if flags[n] and is_fermat_psp(n, 2)]
        assert hits == [341]


class TestFormEquivalence:
    def test_forms_agree_small(self):
        for n in range(2, 1000):
            for z in EQUIVALENCE_PANEL:
                assert_three_forms_agree(n, z)

    def test_panel_sizes(self):
        assert len(TABLE_GAUSSIAN_BASES) == 10
        assert len(BASE_PANEL) == 12
        assert len(EQUIVALENCE_PANEL) == 20


class TestPrimeCompleteness:
    def test_primes_never_fail(self):
        for p in primes_below(2000):
            for z in BASE_PANEL:
                assert gaussian_fermat_test(p, z) is not TestOutcome.FAIL, (p, str(z))


class TestBaseNormEquivalence:
    def test_mirrored_bases_agree_smoke(self):
        flags = composite_sieve(5000)
        pairs = [
            (GaussianBase(1, 2), GaussianBase(2, 1)),
            (GaussianBase(1, 1), GaussianBase(1, -1)),
        ]
        for z, w in pairs:
            assert z.norm() == w.norm()
            for n in range(2, 5000):
                if flags[n]:
                    assert is_gfp(n, z) == is_gfp(n, w), (n, str(z))


CANDIDATES = st.integers(2, (1 << 62) - 1)
COMPONENTS = st.integers(-(1 << 31), 1 << 31)
BASES = st.tuples(COMPONENTS, COMPONENTS).filter(lambda t: t != (0, 0)).map(
    lambda t: GaussianBase(*t)
)
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def assert_three_forms_agree(n, z):
    """The main path against the imaginary form and the ratio form of
    oracle_utils, which shares no code with the package."""
    main = gaussian_fermat_test(n, z)
    assert main.value == ratio_form_outcome(n, z.re, z.im), (n, str(z))
    assert main is gaussian_fermat_im_test(n, z), (n, str(z))
    return main


@st.composite
def shares_factor_with_ab(draw):
    """Odd n and a valid base z = a+bi where some prime p divides n and a
    (or b) but not z*conj(z): the V-chain would lose the factor p."""
    p = draw(st.sampled_from(ODD_PRIMES))
    a = p * draw(st.integers(1, 1 << 20)) * draw(st.sampled_from((1, -1)))
    b = draw(st.integers(-(1 << 31), 1 << 31).filter(lambda b: b % p))
    k = draw(st.integers(1, (1 << 58) // p).map(lambda k: 2 * k + 1))
    z = GaussianBase(*draw(st.sampled_from(((a, b), (b, a)))))
    while gcd(k, z.norm()) > 1:
        k //= gcd(k, z.norm())
    return p * k, z


@st.composite
def shares_factor_with_norm(draw):
    z = draw(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)))
    z = GaussianBase(*z) if sum(map(abs, z)) > 1 else GaussianBase(1, 2)
    divisor = draw(st.sampled_from([d for d in range(2, 50) if z.norm() % d == 0] or [z.norm()]))
    return divisor * draw(st.integers(1, (1 << 62) // (2 * divisor))), z


class TestMainPathAgreement:
    """gaussian_fermat_test against the ratio-form oracle and the imaginary
    form, with a strategy forcing each branch of the main path."""

    @settings(max_examples=300)
    @given(CANDIDATES, BASES)
    def test_random_n_and_base(self, n, z):
        assert_three_forms_agree(n, z)

    @settings(max_examples=100)
    @given(CANDIDATES.map(lambda n: n & -2 or 2), BASES)
    def test_even_n(self, n, z):
        assert_three_forms_agree(n, z)

    @settings(max_examples=100)
    @given(shares_factor_with_ab())
    def test_n_shares_a_factor_with_ab(self, case):
        n, z = case
        assert n % 2 and gcd(n, z.re * z.im) > 1 and gcd(n, z.norm()) == 1
        assert_three_forms_agree(n, z)

    @settings(max_examples=100)
    @given(shares_factor_with_norm())
    def test_n_shares_a_factor_with_the_norm(self, case):
        n, z = case
        assert assert_three_forms_agree(n, z) is TestOutcome.INVALID_BASE

    @settings(max_examples=100)
    @given(CANDIDATES, COMPONENTS.filter(bool), st.booleans())
    def test_real_or_imaginary_base(self, n, c, imaginary):
        assert_three_forms_agree(n, GaussianBase(0, c) if imaginary else GaussianBase(c, 0))

    @settings(max_examples=100)
    @given(CANDIDATES, st.sampled_from((GaussianBase(1, 1), GaussianBase(2, 2))))
    def test_unit_ratio_a_root_of_unity(self, n, z):
        assert_three_forms_agree(n, z)

    def test_every_residue_base_small_n(self):
        # every a+bi with 0 <= a, b < n: INVALID_BASE exactly when the norm
        # shares a factor with n, else the ratio-form oracle's answer
        for n in range(2, 51):
            for a in range(n):
                for b in range(n):
                    if (a, b) == (0, 0):
                        continue
                    outcome = assert_three_forms_agree(n, GaussianBase(a, b))
                    invalid = gcd(a * a + b * b, n) > 1
                    assert (outcome is TestOutcome.INVALID_BASE) is invalid, (n, a, b)

    def test_exhaustive_small_n(self):
        # against the imaginary form, the faster cross-check; the forms
        # themselves agree in TestFormEquivalence
        extra = [(3, 0), (0, 3), (2, 2), (-2, 5), (5, -3)]
        bases = EQUIVALENCE_PANEL + tuple(GaussianBase(a, b) for a, b in extra)
        for z in bases:
            for n in range(2, 20_000):
                assert gaussian_fermat_test(n, z) is gaussian_fermat_im_test(n, z), (n, str(z))


class TestEvenN:
    """An even n is decided on its odd part m: with 2^k || n, z/conj(z)
    lies in the norm-one group mod 2^k, whose exponent divides n = F(n).
    TestMainPathAgreement::test_exhaustive_small_n checks every n below
    2*10**4, even n included, against the imaginary form."""

    def test_base_1_plus_2i_needs_no_raw_ladder(self, monkeypatch):
        # ab = 2 is prime to every odd part, so the V-chain decides them all
        expected = {n: gaussian_fermat_im_test(n, Z12) for n in range(2, 20_000, 2)}

        def raw_ladder(*args):
            raise AssertionError(f"raw ladder called with {args}")

        monkeypatch.setattr(fermat, "_pow_components", raw_ladder)
        assert {n: gaussian_fermat_test(n, Z12) for n in expected} == expected


EXPONENTS = st.integers(1, (1 << 64) - 1)


def ratio_power_oracle(z, e, n):
    # w = z/conj(z) has w^e = 1 (mod n) iff z^e = conj(z)^e, iff n | 2*Im(z^e)
    return 2 * gpow(z.re % n, z.im % n, e, n)[1] % n == 0


def assert_ratio_power(z, e, n):
    assume(gcd(n, z.norm()) == 1)
    assert ratio_power_is_one(z, e, n) is ratio_power_oracle(z, e, n), (str(z), e, n)


class TestRatioPowerIsOne:
    """ratio_power_is_one for exponents other than F(n), against the
    imaginary part of z^e on the naive ladder."""

    @settings(max_examples=200)
    @given(BASES, EXPONENTS, CANDIDATES)
    def test_random(self, z, e, n):
        assert_ratio_power(z, e, n)

    @settings(max_examples=100)
    @given(BASES, st.one_of(st.just(1), EXPONENTS.map(lambda e: e | 1)), CANDIDATES)
    def test_odd_exponent(self, z, e, n):
        assert_ratio_power(z, e, n)

    @settings(max_examples=100)
    @given(BASES, EXPONENTS, CANDIDATES.map(lambda n: n & -2 or 2))
    def test_even_n(self, z, e, n):
        assert_ratio_power(z, e, n)

    @settings(max_examples=100)
    @given(shares_factor_with_ab(), EXPONENTS)
    def test_n_shares_a_factor_with_ab(self, case, e):
        n, z = case
        assert gcd(n, z.re * z.im) > 1
        assert_ratio_power(z, e, n)

    @settings(max_examples=100)
    @given(COMPONENTS.filter(bool), st.booleans(), EXPONENTS, CANDIDATES)
    def test_real_or_imaginary_base(self, c, imaginary, e, n):
        assert_ratio_power(GaussianBase(0, c) if imaginary else GaussianBase(c, 0), e, n)

    @pytest.mark.parametrize("e", [1, 2, 3, 1 << 63])
    def test_minus_one_is_one_mod_2(self, e):
        # z = bi, b odd: w = -1, which is 1 mod 2
        for b in (1, -3, 5):
            assert ratio_power_is_one(GaussianBase(0, b), e, 2)
            assert ratio_power_oracle(GaussianBase(0, b), e, 2)


class TestPow:
    """fermat._pow_components, the raw ladder of the main path, against
    worked values and the naive ladder of oracle_utils."""

    def test_i_to_16(self):
        assert fermat._pow_components(0, 1, 16, 15) == (1, 0)
        assert fermat._pow_components(0, 1, 2, 7) == (6, 0)

    def test_identity_exponent(self):
        assert fermat._pow_components(3, 8, 1, 9) == (3, 8)
        assert fermat._pow_components(3, 8, 0, 9) == (1, 0)

    def test_example_mod_9(self):
        assert fermat._pow_components(3, 8, 8, 9) == (1, 6)

    def test_pow_additive(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(2, 300)
            a, b = rng.randrange(n), rng.randrange(n)
            x, y = rng.randrange(1 << 20), rng.randrange(1 << 20)
            pa, pb = fermat._pow_components(a, b, x, n)
            qa, qb = fermat._pow_components(a, b, y, n)
            expected = ((pa * qa - pb * qb) % n, (pa * qb + pb * qa) % n)
            assert fermat._pow_components(a, b, x + y, n) == expected, (a, b, x, y, n)

    def test_matches_naive_ladder(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randrange(2, 1000)
            a, b = rng.randrange(n), rng.randrange(n)
            e = rng.randrange(1 << 16)
            assert fermat._pow_components(a, b, e, n) == gpow(a, b, e, n), (a, b, e, n)

    def test_conj_and_norm_commute_with_powers(self):
        # (conj z)^e = conj(z^e) and N(z^e) = N(z)^e (mod n)
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randrange(2, 400)
            a, b = rng.randrange(n), rng.randrange(n)
            e = rng.randrange(1 << 12)
            ra, rb = fermat._pow_components(a, b, e, n)
            assert fermat._pow_components(a, -b % n, e, n) == (ra, -rb % n), (a, b, e, n)
            assert (ra * ra + rb * rb) % n == pow(a * a + b * b, e, n), (a, b, e, n)


class TestUnitRatio:
    """ratio_power_is_one on unit ratios w = z/conj(z) worked by hand."""

    def test_degenerate_base(self):
        # 1+1i has w = i: w^e = 1 iff 4 | e, on the V-chain (ab = 1)
        for e in range(1, 41):
            assert ratio_power_is_one(GaussianBase(1, 1), e, 15) is (e % 4 == 0), e

    def test_example_mod_9(self):
        # 1+2i has w = (-3+4i)/5 = 3+8i mod 9, of order 12 in G_9
        got = [e for e in range(1, 49) if ratio_power_is_one(Z12, e, 9)]
        assert got == [e for e in range(1, 49) if gpow(3, 8, e, 9) == (1, 0)]
        assert got == [12, 24, 36, 48]

    def test_invalid_base(self):
        # gcd(15, 5) = 5: conj(1+2i) has no inverse, so there is no w to raise
        with pytest.raises(ValueError):
            ratio_power_is_one(Z12, 16, 15)

    def test_always_norm_one(self):
        # w lies in G_n, so w^lambda_G(n) = w^phi_G(n) = 1
        bases = [GaussianBase(a, b) for a, b in
                 [(1, 2), (1, 4), (2, 5), (1, 1), (3, 8), (4, 9), (1, -2), (-3, 10)]]
        for n in range(2, 1001, 7):
            for z in bases:
                if gcd(n, z.norm()) == 1:
                    assert ratio_power_is_one(z, gaussian_lambda(n), n), (n, str(z))
                    assert ratio_power_is_one(z, gaussian_phi(n), n), (n, str(z))


@pytest.mark.parametrize("z", EQUIVALENCE_PANEL, ids=str)
def test_ratio_power_every_exponent_small_n(z):
    """ratio_power_is_one for every e up to lambda_G(n) + 1 and every
    n < 400 prime to the norm, against the naive ladder: both the V-chain
    and the raw ladder, on each exponent the census order tables may ask."""
    for n in range(2, 400):
        if gcd(n, z.norm()) != 1:
            continue
        for e in range(1, gaussian_lambda(n) + 2):
            assert ratio_power_is_one(z, e, n) is ratio_power_oracle(z, e, n), (n, e)


class TestFrobenius:
    """z^p = conj(z) (mod p) for p = 3 (mod 4) and z^p = z (mod p) for
    p = 1 (mod 4), by the naive ladder of oracle_utils.  Either way
    w = z/conj(z) has w^F(p) = 1, so the main path never fails a prime."""

    def test_frobenius_on_odd_primes(self):
        for p in primes_below(20_000)[1:]:
            for z in BASE_PANEL:
                a, b = z.re % p, z.im % p
                expected = (a, -b % p) if p % 4 == 3 else (a, b)
                assert gpow(a, b, p, p) == expected, (p, str(z))
                assert gaussian_fermat_test(p, z) is not TestOutcome.FAIL, (p, str(z))
