import random

import pytest
from oracle_utils import brute_group, gpow

from gausspseudo.residues import (
    GaussianBase,
    GaussianResidue,
    InvalidBase,
    NotInvertible,
    enumerate_group,
    reduce,
    unit_ratio,
)


def gr(re, im, n):
    return GaussianResidue(re, im, n)


class TestReduce:
    def test_already_canonical(self):
        assert reduce(GaussianBase(1, 2), 5) == gr(1, 2, 5)

    def test_negative_real(self):
        assert reduce(GaussianBase(-1, 7), 5) == gr(4, 2, 5)

    def test_negative_imaginary(self):
        assert reduce(GaussianBase(1, -2), 15) == gr(1, 13, 15)

    def test_modulus_too_small(self):
        with pytest.raises(ValueError):
            reduce(GaussianBase(1, 2), 1)


class TestRingOps:
    def test_add(self):
        assert gr(1, 2, 5) + gr(4, 3, 5) == gr(0, 0, 5)
        z = gr(3, 4, 7)
        assert z + gr(0, 0, 7) == z
        assert gr(2, 2, 3) + gr(2, 2, 3) == gr(1, 1, 3)

    def test_add_modulus_mismatch(self):
        with pytest.raises(ValueError):
            gr(1, 2, 5) + gr(1, 2, 7)

    def test_mul(self):
        assert gr(1, 2, 5) * gr(3, 1, 5) == gr(1, 2, 5)
        z = gr(3, 4, 7)
        assert z * GaussianResidue.one(7) == z
        assert gr(0, 1, 7) * gr(0, 1, 7) == gr(6, 0, 7)

    def test_mul_modulus_mismatch(self):
        with pytest.raises(ValueError):
            gr(1, 2, 5) * gr(1, 2, 7)

    def test_conj(self):
        assert gr(1, 2, 5).conj() == gr(1, 3, 5)
        assert gr(3, 0, 7).conj() == gr(3, 0, 7)

    def test_conj_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(2, 500)
            z = gr(rng.randrange(n), rng.randrange(n), n)
            assert z.conj().conj() == z

    def test_norm(self):
        assert gr(1, 2, 7).norm() == 5
        for n in (2, 3, 10, 97):
            assert gr(0, 1, n).norm() == 1 % n
        assert gr(1, 1, 2).norm() == 0

    def test_canonical_range_enforced(self):
        with pytest.raises(ValueError):
            GaussianResidue(5, 0, 5)
        with pytest.raises(ValueError):
            GaussianResidue(0, -1, 5)


class TestInverse:
    def test_example(self):
        assert gr(1, 1, 3).inverse() == gr(2, 1, 3)

    def test_one(self):
        for n in (2, 3, 10, 101):
            assert GaussianResidue.one(n).inverse() == GaussianResidue.one(n)

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            gr(1, 1, 2).inverse()

    def test_exists_iff_norm_coprime_exhaustive(self):
        from math import gcd

        for n in range(2, 51):
            for a in range(n):
                for b in range(n):
                    z = gr(a, b, n)
                    coprime = gcd((a * a + b * b) % n, n) == 1
                    if coprime:
                        assert (z * z.inverse()).is_one()
                    else:
                        with pytest.raises(NotInvertible):
                            z.inverse()


class TestPow:
    def test_i_to_16(self):
        assert gr(0, 1, 15) ** 16 == GaussianResidue.one(15)

    def test_identity_exponent(self):
        z = gr(3, 8, 9)
        assert z**1 == z
        assert z**0 == GaussianResidue.one(9)

    def test_example_mod_9(self):
        assert gr(3, 8, 9) ** 8 == gr(1, 6, 9)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            gr(1, 2, 5) ** -1

    def test_pow_additive(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(2, 300)
            z = gr(rng.randrange(n), rng.randrange(n), n)
            a = rng.randrange(1 << 20)
            b = rng.randrange(1 << 20)
            assert z ** (a + b) == (z**a) * (z**b)

    def test_matches_naive_ladder(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randrange(2, 1000)
            a, b = rng.randrange(n), rng.randrange(n)
            e = rng.randrange(1 << 16)
            got = gr(a, b, n) ** e
            assert (got.re, got.im) == gpow(a, b, e, n)


class TestNormMultiplicative:
    def test_random(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randrange(2, 400)
            x = gr(rng.randrange(n), rng.randrange(n), n)
            y = gr(rng.randrange(n), rng.randrange(n), n)
            assert (x * y).norm() == x.norm() * y.norm() % n

    def test_conj_multiplicative(self):
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randrange(2, 400)
            x = gr(rng.randrange(n), rng.randrange(n), n)
            y = gr(rng.randrange(n), rng.randrange(n), n)
            assert (x * y).conj() == x.conj() * y.conj()


class TestUnitRatio:
    def test_degenerate_base(self):
        assert unit_ratio(GaussianBase(1, 1), 15) == gr(0, 1, 15)

    def test_example_mod_9(self):
        assert unit_ratio(GaussianBase(1, 2), 9) == gr(3, 8, 9)

    def test_invalid_base(self):
        with pytest.raises(InvalidBase):
            unit_ratio(GaussianBase(1, 2), 15)

    def test_always_norm_one(self):
        from math import gcd

        bases = [GaussianBase(a, b) for a, b in
                 [(1, 2), (1, 4), (2, 5), (1, 1), (3, 8), (4, 9), (1, -2), (-3, 10)]]
        for n in range(2, 1001, 7):
            for z in bases:
                if gcd(n, z.norm()) == 1:
                    assert unit_ratio(z, n).norm() == 1 % n


class TestEnumerateGroup:
    def test_n2(self):
        assert [(z.re, z.im) for z in enumerate_group(2)] == [(0, 1), (1, 0)]

    def test_n3(self):
        assert [(z.re, z.im) for z in enumerate_group(3)] == [
            (0, 1), (0, 2), (1, 0), (2, 0)]

    def test_n4_size(self):
        assert len(enumerate_group(4)) == 8

    def test_matches_brute_scan_across_paths(self):
        # the CRT composition of prime-power groups against a quadratic scan,
        # on prime powers and on products of several
        for n in [2, 5, 8, 12, 45, 128, 299, 300, 301, 329, 343, 360, 512, 625, 900]:
            got = [(z.re, z.im) for z in enumerate_group(n)]
            assert got == sorted(brute_group(n)), f"mismatch at {n}"

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_group(10_001)
        assert len(enumerate_group(10_001, cap=20_000)) > 0


class TestGaussianBase:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            GaussianBase(0, 0)

    def test_component_cap(self):
        with pytest.raises(ValueError):
            GaussianBase(1 << 32, 1)

    def test_parse_and_str(self):
        assert GaussianBase.parse("1+2i") == GaussianBase(1, 2)
        assert GaussianBase.parse(" 3 - 10 i") == GaussianBase(3, -10)
        assert GaussianBase.parse("-1+7i") == GaussianBase(-1, 7)
        assert str(GaussianBase(1, 2)) == "1+2i"
        assert str(GaussianBase(3, -10)) == "3-10i"
        for text in ["", "5", "i", "1+i", "2i+1", "1 + 2j"]:
            with pytest.raises(ValueError):
                GaussianBase.parse(text)
