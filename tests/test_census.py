import concurrent.futures
import importlib
import multiprocessing
import os
import tracemalloc
from concurrent.futures import Future
from functools import partial
from itertools import compress
from math import gcd, isqrt, prod
from operator import itemgetter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracle_utils import (
    brute_psp_masks,
    composite_sieve,
    gpow,
    korselt_class_members,
    naive_script_F,
    primes_below,
    ratio_form_outcome,
    trial_division_factorize,
    trial_division_is_prime,
    twin_pair_products_below,
)

from gausspseudo import census
from gausspseudo.census import (
    CLASSIFIER_NAMES,
    CensusTable,
    RangeQuery,
    carmichael_intersection_scan,
    joint_census,
    record_line,
    search_classifier,
    search_gfp,
    table_to_csv,
    table_to_records,
    values_to_csv,
    verify_external_list,
)
from gausspseudo.classify import (
    ConsistencyError,
    giuga_membership,
    is_carmichael,
    is_g_carmichael,
    is_g_cyclic,
    is_g_lehmer,
    is_r_williams,
    lambda_power_congruence,
    phi_power_congruence,
)
from gausspseudo.arith import (
    classical_lambda,
    factorize,
    gaussian_lambda,
    gaussian_phi,
    is_prime,
)
from gausspseudo.fermat import (
    BASE_PANEL,
    TABLE_INTEGER_BASES,
    TestOutcome,
    gaussian_fermat_im_test,
    is_fermat_psp,
)
from gausspseudo.residues import GaussianBase

Z12 = GaussianBase(1, 2)


def passes_ratio_form(n, z):
    """The Gaussian Fermat test by the oracle of oracle_utils, which shares
    no code with the census's own confirm step."""
    return ratio_form_outcome(n, z.re, z.im) == "pass"


def sieved_ks(lo, hi, kmax, ktop):
    """The k >= 2 whose quotients census._cofactor_codes sieves: those up to
    kmax, and those from k0 = ceil(lo / (hi - lo)) up to ktop."""
    k0 = -(-lo // (hi - lo))
    return [k for k in range(2, ktop + 1) if k <= kmax or k >= k0]


def naive_classifier_scan(lo, hi, which, residue_filter=None):
    """Single-threaded rescan straight from the predicate modules."""
    hits = []
    for n in range(lo, hi):
        if residue_filter and n % residue_filter[0] != residue_filter[1]:
            continue
        if which == "g_carmichael":
            ok = is_g_carmichael(n)
        elif which == "carmichael":
            ok = is_carmichael(n)
        elif which == "g_cyclic":
            ok = is_g_cyclic(n)
        elif which == "g_lehmer":
            ok = is_g_lehmer(n) and len(factorize(n).factors) >= 3
        elif which == "congruence_exception":
            ok = (
                is_g_cyclic(n)
                and not phi_power_congruence(n)
                and not lambda_power_congruence(n)
            )
        elif which == "giuga":
            ok = giuga_membership(n)
        elif which == "williams_1":
            ok = is_r_williams(n, 1)
        else:  # twin_pair_product
            factors = factorize(n).factors
            ok = (
                n % 2 == 1
                and [k for _, k in factors] == [1, 1]
                and factors[1][0] == factors[0][0] + 2
                and (factors[0][0] + factors[1][0]) % 8 == 0
            )
        if ok:
            hits.append(n)
    return hits


class TestRangeQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            RangeQuery(1, 10)
        with pytest.raises(ValueError):
            RangeQuery(10, 10)
        with pytest.raises(ValueError):
            RangeQuery(2, (1 << 63) + 1)
        with pytest.raises(ValueError):
            RangeQuery(2, 10, (4, 4))
        with pytest.raises(ValueError):
            RangeQuery(2, 10, None, 0)


class TestSearchGfp:
    def test_degenerate_base_returns_odd_composites(self):
        flags = composite_sieve(200)
        expected = [n for n in range(3, 200, 2) if flags[n]]
        got = search_gfp(RangeQuery(2, 200), GaussianBase(1, 1))
        assert got == expected

    def test_contains_143(self):
        assert 143 in search_gfp(RangeQuery(2, 1000), Z12)

    def test_residue_filter_against_naive(self):
        got = search_gfp(RangeQuery(2, 100, (4, 3)), Z12)
        flags = composite_sieve(100)
        expected = [n for n in range(3, 100, 4) if flags[n] and passes_ratio_form(n, Z12)]
        assert got == expected

    def test_matches_naive_to_1e4(self):
        got = search_gfp(RangeQuery(2, 10_000), Z12)
        flags = composite_sieve(10_000)
        expected = [n for n in range(2, 10_000) if flags[n] and passes_ratio_form(n, Z12)]
        assert got == expected

    def test_above_sieve_cutoff_uses_miller_rabin(self):
        # beyond 2^32 the sieve primes stop at 2^16, Miller-Rabin decides the
        # n they leave unstruck, and the large-prime rule is off
        lo, hi = (1 << 32) + 1, (1 << 32) + 600
        from gausspseudo.arith import is_prime

        for z in SIEVE_BASES:
            got = search_gfp(RangeQuery(lo, hi), z)
            expected = [n for n in range(lo, hi) if not is_prime(n) and passes_ratio_form(n, z)]
            assert got == expected, str(z)

    def test_large_base_witnesses_stop_at_bit_length_above_cutoff(self):
        # as for the integer bases, a query above 2**32 carries the witnesses
        # Im(z^F(k)) only up to k = the bit length of hi, at most 64; the
        # block below 2**32 reads them and still finds every pseudoprime
        z = GaussianBase((1 << 31) - 1, 1 << 31)
        for hi in (census._SIEVE_CUTOFF + 600, 1 << 63):
            _, (_, (spec,)) = census._gfp_search(z, hi - 1200, hi)
            assert len(spec.witnesses) == hi.bit_length() + 1 <= 65
            assert len(spec.witnesses) == len(census._fermat_spec(2, hi - 1200, hi).witnesses)
        lo, hi = census._SIEVE_CUTOFF - 600, census._SIEVE_CUTOFF + 600
        got = search_gfp(RangeQuery(lo, hi), z, block_size=600)
        assert got == [n for n in range(lo, hi) if not is_prime(n) and passes_ratio_form(n, z)]


# the panel plus a real base and a second base whose ratio is a root of unity
SIEVE_BASES = BASE_PANEL + (GaussianBase(3, 0), GaussianBase(2, 2))
SIEVE_LIMIT = 20_000


class TestGfpSieve:
    """The order sieve of search_gfp against both exact forms of the test."""

    @pytest.mark.parametrize("z", SIEVE_BASES, ids=str)
    def test_blocks_from_2_against_both_forms(self, z):
        flags = composite_sieve(SIEVE_LIMIT)
        composites = [n for n in range(2, SIEVE_LIMIT) if flags[n]]
        ratio_form = [n for n in composites if passes_ratio_form(n, z)]
        im_form = [
            n for n in composites if gaussian_fermat_im_test(n, z) is TestOutcome.PASS
        ]
        assert ratio_form == im_form
        for residue_filter in (None, (4, 1), (4, 3), (3, 2), (8, 5)):
            m, r = residue_filter or (1, 0)
            # blocks of 1000 start at every residue mod 4 and 8
            got = search_gfp(RangeQuery(2, SIEVE_LIMIT, residue_filter), z, block_size=1000)
            assert got == [n for n in ratio_form if n % m == r], residue_filter

    @pytest.mark.parametrize("z", SIEVE_BASES, ids=str)
    def test_orders_against_linear_scan(self, z):
        # w = z/conj(z) has w^e = 1 (mod q) iff q | 2*Im(z^e), for p not dividing the norm
        hi = 2_000
        primes = [p for p in range(2, isqrt(hi - 1) + 2) if trial_division_is_prime(p)]
        expected = []
        for p in primes:
            if z.norm() % p == 0:
                expected.append((p, 0))
                continue
            q = p
            while q < hi:
                d = next(e for e in range(1, 2 * q) if 2 * gpow(z.re, z.im, e, q)[1] % q == 0)
                if d > 1:
                    expected.append((q, d))
                q *= p
        qs, ds = census._gfp_orders(z, 2, hi)
        assert list(zip(qs, ds)) == expected


class TestUnitOrderQuestions:
    """_unit_orders against a linear scan of the powers of x for q < 2**12,
    on the ten table bases, 1+2i and -2+5i, and the number of questions
    x^e = 1 (mod q) it asks: none whose answer it already knows."""

    HI = 1 << 12

    def expected(self, x, mul, one, period, p_free):
        """The order table of x by a linear scan of its powers, and the
        questions that find it.  Cutting period(p) down to ord_p asks one
        question per prime f it divides off, and one more for each prime f
        left in ord_p.  At a power q > p it asks one question, as ord_q is
        ord_(q/p) or p times it, for every p."""
        table, questions = [], 0
        for p in primes_below(isqrt(self.HI - 1) + 2):
            t = period(p)
            if t == 0:
                table.append((p, 0))
                continue
            q = p
            while q < self.HI:
                y, d = x(q), 1
                while not one(y, q):
                    y, d = mul(y, x(q), q), d + 1
                if q == p:
                    kept = dict(trial_division_factorize(d))
                    questions += sum(
                        k - kept.get(f, 0) + (f in kept) for f, k in trial_division_factorize(t)
                    )
                else:
                    questions += 1
                if p_free and d % p == 0:
                    table.append((q, 0))
                    break
                if d > 1:
                    table.append((q, d))
                q *= p
        return table, questions

    def built(self, monkeypatch, build):
        """build()'s (qs, ds) as pairs, and the questions it asked."""
        asked = []
        unit_orders = census._unit_orders

        def counted(lo, hi, classes, period, is_one):
            def ask(e, q):
                asked.append(q)
                return is_one(e, q)

            return unit_orders(lo, hi, classes, period, ask)

        monkeypatch.setattr(census, "_unit_orders", counted)
        qs, ds = build()
        return list(zip(qs, ds)), len(asked)

    @pytest.mark.parametrize("a", TABLE_INTEGER_BASES)
    def test_mask_orders(self, monkeypatch, a):
        table, questions = self.built(monkeypatch, lambda: census._mask_orders(a, 2, self.HI))
        expected, asks = self.expected(
            lambda q: a % q, lambda y, x, q: y * x % q, lambda y, q: y == 1,
            lambda p: 0 if a % p == 0 else p - 1, p_free=True,
        )
        assert table == expected
        assert questions == asks

    @pytest.mark.parametrize("z", [GaussianBase(1, 2), GaussianBase(-2, 5)], ids=str)
    def test_gfp_orders(self, monkeypatch, z):
        table, questions = self.built(monkeypatch, lambda: census._gfp_orders(z, 2, self.HI))
        expected, asks = self.expected(
            lambda q: (z.re % q, z.im % q),
            lambda y, x, q: ((y[0] * x[0] - y[1] * x[1]) % q, (y[0] * x[1] + y[1] * x[0]) % q),
            lambda y, q: 2 * y[1] % q == 0,  # w^e = 1 iff q | 2*Im(z^e)
            lambda p: 0 if z.norm() % p == 0 else naive_script_F(p), p_free=False,
        )
        assert table == expected
        assert questions == asks


ORDER_HEIGHTS = (1 << 33, 1 << 40, (1 << 62) - 5000)
ORDER_WINDOW = 1 << 14


def assert_order_table(qs, ds, hi, x, power, is_one, period, p_free):
    """(qs, ds) against the powers of a unit x: power(y, e, q) is y^e mod q,
    is_one(y, q) says y = 1 (mod q), and x^period(p) = 1 (mod p).  The
    table covers the powers q < hi of the primes up to the window length.

    period(p) = 0 means p divides the base or its norm: the table holds
    (p, 0).  Each d > 0 is the exact order of x mod q: x^d = 1, and
    x^(d/f) != 1 for each prime f | d, checked mod p for f != p (which
    suffices).  A d = 0 at a power of another p needs p_free and
    p | ord_q(x), whose part prime to p divides period(p): x^period(p) != 1
    (mod q); it ends the powers of p.  Every power left out has order 1.
    """
    table = dict(zip(qs, ds))
    assert len(table) == len(qs)
    for p in primes_below(ORDER_WINDOW + 1):
        t = period(p)
        if t == 0:
            assert table.pop(p) == 0, p
            continue
        q = p
        while q < hi:
            d = table.pop(q, 1)
            if d == 0:
                assert p_free and not is_one(power(x, t, q), q), q
                break
            if d % p:
                assert is_one(power(x, d, q), q), (q, d)
            else:
                assert not p_free, (q, d)
                y = power(x, d // p, q)
                assert not is_one(y, q) and is_one(power(y, p, q), q), (q, d)
            for f, _ in trial_division_factorize(d // gcd(d, p**64)):  # the f != p
                assert not is_one(power(x, d // f % t, p), p), (q, d, f)
            q *= p
    assert not table  # nothing but powers of the sieve primes


class TestOrdersAtHeight:
    """The order tables of 2**14 windows far above the brute-force range,
    checked with the naive ladder and the builtin pow only."""

    @pytest.mark.parametrize("lo", ORDER_HEIGHTS)
    def test_gfp_orders(self, lo):
        hi = lo + ORDER_WINDOW
        for z in BASE_PANEL + (GaussianBase(-2, 5),):
            qs, ds = census._gfp_orders(z, lo, hi)
            assert_order_table(
                qs, ds, hi, (z.re, z.im),
                lambda y, e, q: gpow(*y, e, q),
                lambda y, q: 2 * y[1] % q == 0,  # w^e = 1 iff q | 2*Im(z^e)
                lambda p: 0 if z.norm() % p == 0 else naive_script_F(p),
                p_free=False,
            )

    @pytest.mark.parametrize("lo", ORDER_HEIGHTS)
    def test_mask_orders(self, lo):
        hi = lo + ORDER_WINDOW
        for a in range(2, 12):
            qs, ds = census._mask_orders(a, lo, hi)
            assert_order_table(
                qs, ds, hi, a, pow, lambda y, q: y == 1,
                lambda p: 0 if a % p == 0 else p - 1, p_free=True,
            )


SIEVED_CLASSES = (
    "g_carmichael", "g_lehmer", "g_cyclic", "congruence_exception", "carmichael", "williams_1",
    "giuga",
)
CLASS_FILTERS = (None, (4, 1), (4, 3), (3, 2), (8, 5), (2, 0), (6, 3))


@pytest.fixture(scope="module")
def naive_class_hits():
    return {which: naive_classifier_scan(2, SIEVE_LIMIT, which) for which in SIEVED_CLASSES}


class TestClassSieve:
    """The Korselt sieve of g_carmichael / g_lehmer / carmichael /
    williams_1, the totient sieve of g_cyclic / congruence_exception and the
    Giuga columns against the predicates."""

    @pytest.mark.parametrize("which", SIEVED_CLASSES)
    def test_blocks_from_2_against_naive(self, which, naive_class_hits):
        expected = naive_class_hits[which]
        for residue_filter in CLASS_FILTERS:
            m, r = residue_filter or (1, 0)
            # blocks of 1000 start at every residue mod 4 and 8
            got = search_classifier(
                RangeQuery(2, SIEVE_LIMIT, residue_filter), which, block_size=1000
            )
            assert got == [n for n in expected if n % m == r], residue_filter

    @pytest.mark.parametrize("which", SIEVED_CLASSES)
    def test_window_near_2_23_against_naive(self, which):
        lo = (1 << 23) + 3 * (1 << 19) + 77
        hi = lo + (1 << 12)
        assert search_classifier(RangeQuery(lo, hi), which) == naive_classifier_scan(
            lo, hi, which
        )

    @pytest.mark.parametrize(
        "which, group",
        [
            ("g_carmichael", gaussian_lambda),
            ("g_lehmer", gaussian_phi),
            ("carmichael", classical_lambda),
            ("williams_1", classical_lambda),
        ],
    )
    @pytest.mark.parametrize(
        "lo, hi", [(2, 3_000), (10**6, 10**6 + 500), ((1 << 62) - 3, (1 << 62) + 3)]
    )
    def test_orders_are_closed_forms(self, which, group, lo, hi):
        sieve_limit = min(isqrt(min(hi, census._SIEVE_CUTOFF) - 1) + 1, hi - lo)
        expected = []
        for p in range(2, sieve_limit + 1):
            if trial_division_is_prime(p):
                q = p
                while q < hi:
                    d = group(q)
                    if 1 < d < 1 << 63:  # phi_G(2**62) = 2**63 fits no int64
                        expected.append((q, d))
                    q *= p
        _, (_, (spec,)) = census._CLASS_SEARCHES[which].build(lo, hi)
        assert list(zip(spec.qs, spec.ds)) == expected

    @pytest.mark.parametrize("which", ["g_carmichael", "g_lehmer", "carmichael", "williams_1"])
    def test_search_leaves_factorize_cache_alone(self, which):
        # survivors are factored uncached: a long-lived process must not
        # keep every survivor's factorization
        before = factorize.cache_info().currsize
        search_classifier(RangeQuery(10**7, 10**7 + 20_000), which)
        assert factorize.cache_info().currsize == before


class TestKorseltPrefilter:
    """The one Fermat test that each factored search runs before it factors
    a survivor rejects no member of the class: base 2 passes every odd n
    with lambda(n) | n - 1, and base 1+2i fails no n with lambda_G(n) | F(n).
    On the n divisible by 5, such as the member 15, the Gaussian test is
    INVALID_BASE; the prefilter then tests n modulo its 5-free part, which
    no member fails and nearly every other multiple of 5 does."""

    LIMIT = 2 * 10**5

    @pytest.fixture(scope="class")
    def members(self):
        found = korselt_class_members(self.LIMIT)
        # the scan's class lies in the Carmichael numbers = 3 mod 4
        found["carmichael_intersection_scan"] = [n for n in found["carmichael"] if n % 4 == 3]
        return found

    def prefilter(self, monkeypatch, which):
        if which == "carmichael_intersection_scan":
            built = []
            monkeypatch.setattr(
                census, "_run_blocks", lambda kernel, params, *args: built.append(params) or []
            )
            carmichael_intersection_scan(RangeQuery(2, self.LIMIT))
            ((_, (spec,)),) = built
        else:
            _, (_, (spec,)) = census._CLASS_SEARCHES[which].build(2, self.LIMIT)
        prefilter, _ = spec.confirm.args
        return prefilter

    @pytest.mark.parametrize(
        "which",
        ["g_carmichael", "g_lehmer", "carmichael", "williams_1", "carmichael_intersection_scan"],
    )
    def test_accepts_every_member(self, monkeypatch, members, which):
        prefilter = self.prefilter(monkeypatch, which)
        assert members[which] or which == "williams_1"  # none below the limit
        assert [n for n in members[which] if not prefilter(n)] == []
        if which.startswith("g_"):
            assert 15 in members[which]
            assert sum(n % 5 == 0 for n in members[which]) >= 3
            step = 10 if which == "g_lehmer" else 5  # g_lehmer searches the odd n
            others = sorted(set(range(15, self.LIMIT // 4, step)) - set(members[which]))
            assert sum(map(prefilter, others)) < len(others) // 20


# products of the two least primes above 2**16: no sieve prime divides them,
# so what the sieve leaves of them is composite and _factorize splits it
SPLIT_TAILS = (65537 * 65537, 65537 * 65539)


def giuga_d(n):
    """D(n): the product of the p**k || n with F(p) | F(n)."""
    fn = naive_script_F(n)
    return prod(p**k for p, k in trial_division_factorize(n) if fn % naive_script_F(p) == 0)


# what each column of census._multiplicative_batch holds
BATCH_ORACLES = {"phi": gaussian_phi, "lam": gaussian_lambda, "d": giuga_d}
# the column tuples that the class searches ask of it
BATCH_COLUMNS = sorted({
    params[0]
    for kernel, params in (entry.build(2, 1000) for entry in census._CLASS_SEARCHES.values())
    if kernel is census._batch_kernel
})


@pytest.mark.parametrize("columns", BATCH_COLUMNS, ids="-".join)
class TestMultiplicativeBatch:
    """Each column tuple of the one multiplicative batch against the arith
    functions and D from trial division.  lambda_G is a column of the odd n
    only, and searches cannot check it at p**j, j > 1: no odd n with a
    square factor is G-cyclic."""

    @staticmethod
    def assert_batch(columns, start, hi, m):
        ns = range(start, hi, m)
        got = census._multiplicative_batch(start, hi, m, columns)
        assert len(got) == len(columns)
        for name, column in zip(columns, got):
            odd = [n % 2 == 1 or name != "lam" for n in ns]
            expected = [BATCH_ORACLES[name](n) for n in compress(ns, odd)]
            assert list(compress(column, odd)) == expected, (name, start, hi, m)

    @pytest.mark.parametrize("residue_filter", CLASS_FILTERS)
    def test_odd_progressions_from_3(self, columns, residue_filter):
        odd = census._odd_filter(residue_filter)
        if odd is None:
            assert residue_filter == (2, 0)
            return
        m, r = odd
        self.assert_batch(columns, 3 + (r - 3) % m, SIEVE_LIMIT, m)

    @pytest.mark.parametrize("start, hi, m", [(2, 5_000, 1), (3, 5_000, 4)])
    def test_progressions_with_even_terms(self, columns, start, hi, m):
        # phi_G and D of the even n as well
        self.assert_batch(columns, start, hi, m)

    def test_window_near_2_23_with_square_factors(self, columns):
        lo = (1 << 23) + 3 * (1 << 19) + 77
        hi = lo + (1 << 12)
        shapes = set()
        for n in range(lo, hi, 2):
            (p, k), *rest = factorize(n).factors
            if [j for _, j in rest] == [1] and rest[0][0] > isqrt(hi):
                shapes.add((p == 3, k))
        # p**2 * R with p >= 5 and 3**k * R with k = 2, 3, 4, R a prime cofactor
        assert {(False, 2), (True, 2), (True, 3), (True, 4)} <= shapes
        self.assert_batch(columns, lo, hi, 2)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (census._SIEVE_CUTOFF - (1 << 12) + 1, census._SIEVE_CUTOFF),
            (census._SIEVE_CUTOFF - 601, census._SIEVE_CUTOFF + 601),
        ],
    )
    def test_windows_at_2_32(self, columns, lo, hi):
        self.assert_batch(columns, lo, hi, 2)

    @pytest.mark.parametrize("center", SPLIT_TAILS)
    @pytest.mark.parametrize("m, width", [(2, 200), (6, 600)])
    def test_window_with_a_factorize_tail(self, columns, center, m, width):
        self.assert_batch(columns, center - width, center + width, m)

    @pytest.mark.parametrize("start, hi, m", [(3, 3, 2), (9, 5, 2), (2, 2, 1), (7, 3, 6)])
    def test_empty_progression(self, columns, start, hi, m):
        got = census._multiplicative_batch(start, hi, m, columns)
        assert [list(column) for column in got] == [[] for _ in columns]


@pytest.mark.parametrize("which", ["g_cyclic", "giuga"])
def test_searches_without_lambda_call_no_lcm(monkeypatch, naive_class_hits, which):
    # lambda_G is sieved only for the rule that reads it
    def refuse(*args):
        raise AssertionError(f"lcm{args}")

    monkeypatch.setattr(census, "lcm", refuse)
    got = search_classifier(RangeQuery(2, SIEVE_LIMIT), which)
    assert got == naive_class_hits[which]
    assert got


class TestSievesAtHeight:
    """One sieve by the primes up to min(sqrt(hi), 2**16) at every height;
    above 2**32 Miller-Rabin and _factorize settle what it leaves open."""

    @pytest.mark.parametrize(
        "lo, hi", [((1 << 32) - 300, (1 << 32) + 300), ((1 << 36) + 1000, (1 << 36) + 1300)]
    )
    def test_composite_flags_above_2_32(self, lo, hi):
        flags = census._composite_flags(lo, hi)
        assert list(flags) == [int(not trial_division_is_prime(n)) for n in range(lo, hi)]

    def test_miller_rabin_only_on_unstruck(self, monkeypatch):
        lo, hi = 1 << 40, (1 << 40) + (1 << 12)
        primorial = prod(p for p in range(2, (1 << 16) + 1) if trial_division_is_prime(p))
        unstruck = [n for n in range(lo, hi) if gcd(n, primorial) == 1]
        tested = []
        real = census.is_prime
        monkeypatch.setattr(census, "is_prime", lambda n: tested.append(n) or real(n))
        census._composite_flags(lo, hi)
        assert tested == unstruck
        assert len(unstruck) < (hi - lo) // 10

    @pytest.mark.parametrize("center", SPLIT_TAILS)
    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_giuga_with_a_factorize_tail(self, center, m):
        lo, hi = center - 100 * m, center + 100 * m
        residue_filter = (m, center % m) if m > 1 else None
        got = search_classifier(RangeQuery(lo, hi, residue_filter), "giuga")
        assert got == naive_classifier_scan(lo, hi, "giuga", residue_filter)

    @pytest.mark.parametrize(
        "lo, hi", [((1 << 31) + 12345, (1 << 31) + 12345 + (1 << 16)), (10**6, 10**6 + 500)]
    )
    def test_no_per_n_work_below_2_32(self, monkeypatch, lo, hi):
        # below 2**32 the sieve primes reach sqrt(hi): nothing is left for
        # Miller-Rabin or _factorize, even on a window shorter than sqrt(hi)
        def refuse(n):
            raise AssertionError(f"per-n call on {n}")

        monkeypatch.setattr(census, "is_prime", refuse)
        monkeypatch.setattr(census, "_factorize", refuse)
        census._composite_flags(lo, hi)
        for columns in BATCH_COLUMNS:
            census._multiplicative_batch(lo, hi, 1, columns)
            census._multiplicative_batch(lo + 1 - lo % 2, hi, 2, columns)

    SIEVED_PATHS = {
        **{
            which: lambda query, which=which: search_classifier(query, which)
            for which in ("g_carmichael", "g_lehmer", "carmichael", "williams_1")
        },
        "gfp 1+2i": lambda query: search_gfp(query, Z12),
        "joint_census": lambda query: joint_census(query, (Z12,), (2, 3)),
    }

    @pytest.mark.parametrize("path", SIEVED_PATHS)
    @pytest.mark.parametrize("lo", [10**6, (1 << 32) + (1 << 20)])
    def test_large_prime_rule_off_above_2_32(self, monkeypatch, path, lo):
        # one gate for every sieved path: the codes of n/k sieve some k >= 2
        # up to 2**32 and none above it
        sieved = []
        real = census._cofactor_codes

        def recording(lo, hi, m, start, kmax, ktop):
            sieved.append(sieved_ks(lo, hi, kmax, ktop))
            return real(lo, hi, m, start, kmax, ktop)

        monkeypatch.setattr(census, "_cofactor_codes", recording)
        self.SIEVED_PATHS[path](RangeQuery(lo, lo + 2_000))
        assert sieved
        assert all((not ks) == (lo > census._SIEVE_CUTOFF) for ks in sieved), sieved


class TestCofactorCodes:
    """The codes of census._cofactor_codes against trial division, on blocks
    where every k >= 2 has its own sieve (k0 = 1), where the shared sieve
    starts at k0 = 16 above a gap of unsieved k, and at k0 = 128."""

    @pytest.mark.parametrize(
        "lo, hi, residue_filter, kmax",
        [
            (2, 1 << 16, None, 17),
            (10**6, 10**6 + (1 << 16), (4, 3), 7),
            (1 << 23, (1 << 23) + (1 << 16), None, 17),
        ],
    )
    def test_against_trial_division(self, monkeypatch, lo, hi, residue_filter, kmax):
        ktop = 254
        sieves = []
        real = census._composite_flags
        monkeypatch.setattr(
            census, "_composite_flags", lambda a, b: sieves.append((a, b)) or real(a, b)
        )
        m, r = residue_filter or (1, 0)
        start = lo + (r - lo) % m
        codes = census._cofactor_codes(lo, hi, m, start, kmax, ktop)
        ns = range(start, hi, m)
        assert len(codes) == len(ns)
        # the least sieved k with n/k prime, per n, by trial division
        ks = sieved_ks(lo, hi, kmax, ktop)
        least = {}
        for k in reversed(ks):
            for n in range(max(2 * k, -(-lo // k) * k), hi, k):
                if n % m == r and trial_division_is_prime(n // k):
                    least[n] = k
        for n, code in zip(ns, codes):
            assert (code == 0) == trial_division_is_prime(n), (n, code)
            if code:
                assert code == least.get(n, 1), (n, code)
        # code 1 is no proof that no k makes n/k prime: the unsieved k between
        # kmax and k0 may
        k0 = -(-lo // (hi - lo))
        gap = range(kmax + 1, k0)
        assert not gap or any(
            code == 1 and any(n % k == 0 and trial_division_is_prime(n // k) for k in gap)
            for n, code in zip(ns, codes)
        )
        # one sieve for the block, one for every k >= k0, one per k < k0 up to kmax
        assert sieves[0] == (lo, hi)
        assert len(sieves) <= 2 + len([k for k in ks if k < k0])
        assert all(b - a <= 2 * (hi - lo) + 2 for a, b in sieves[1:]), sieves


def size_half_per_k(flags, start, m, bounds):
    """The size half of the large-prime rule one k at a time: for each
    (k, bound), every byte k of the suffix of n = start + i*m > bound
    becomes 0."""
    for k, bound in bounds:
        i = max(0, (bound - start) // m + 1)
        kill = bytearray(range(256))
        kill[k] = 0
        flags[i:] = flags[i:].translate(kill)


@st.composite
def size_half_cases(draw):
    """(codes, start, m, bounds): a few codes, so that k repeat among them
    and in bounds, and bounds below start, inside the progression and at
    or past its end, in any order."""
    codes = draw(st.lists(st.integers(0, 9), max_size=40))
    start, m = draw(st.integers(2, 10**6)), draw(st.integers(1, 12))
    bound = st.integers(start - 3 * m, start + (len(codes) + 3) * m)
    bounds = draw(st.lists(st.tuples(st.integers(2, 9), bound), max_size=12))
    return codes, start, m, bounds


class TestSizeHalf:
    """census._sieve_progression applies the size half in one pass over the
    segments between the sorted cuts; with no order sieve it must clear
    exactly what the per-k suffix translate of each (k, bound) clears."""

    @given(size_half_cases())
    @example(([3, 2, 3, 1, 2, 0, 3], 100, 3, [(3, 110), (2, 90), (3, 104)]))  # k twice, cut 0
    @example(([2, 3, 2, 3], 10, 2, [(2, 16), (3, 40), (2, 17)]))  # cut at the end and past it
    @example(([2, 3, 1], 5, 1, []))  # no bounds
    def test_matches_per_k_suffixes(self, case):
        codes, start, m, bounds = case
        expected = bytearray(codes)
        size_half_per_k(expected, start, m, bounds)
        flags = bytearray(codes)
        census._sieve_progression(flags, start, m, bounds, (), (), 0)
        assert flags == expected


class TestLargePrimeRules:
    """Every large-prime rule the searches build at hi = 2**32, checked on
    n = kP for the first primes P with kP > bound, by a route that shares
    no code with the sieve."""

    HI = 1 << 32

    def built_rules(self, monkeypatch, search):
        """The rule tables that search builds for a window below HI, in the
        order it builds them; no block runs."""
        built = []
        real = census._large_prime_bounds

        def recording(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(census, "_large_prime_bounds", recording)
        monkeypatch.setattr(census, "_run_blocks", lambda *args: [])
        search(RangeQuery(self.HI - 1000, self.HI))
        assert built and all(built)
        return built

    @staticmethod
    def beyond(k, bound, count=3):
        """n = kP for the first count primes P with kP > bound."""
        ns, p = [], bound // k + 1
        while len(ns) < count:
            if is_prime(p):
                ns.append(k * p)
            p += 1
        return ns

    def test_fermat(self, monkeypatch):
        tables = self.built_rules(
            monkeypatch, lambda query: joint_census(query, (Z12,), TABLE_INTEGER_BASES)
        )
        assert len(tables) == len(TABLE_INTEGER_BASES)
        for a, rules in zip(TABLE_INTEGER_BASES, tables):
            for k, bound in rules:
                for n in self.beyond(k, bound):
                    assert pow(a, n - 1, n) != 1, (a, k, n)

    @pytest.mark.parametrize("z", BASE_PANEL, ids=str)
    def test_gaussian(self, monkeypatch, z):
        (rules,) = self.built_rules(monkeypatch, lambda query: search_gfp(query, z))
        for k, bound in rules:
            for n in self.beyond(k, bound):
                assert gaussian_fermat_im_test(n, z) is not TestOutcome.PASS, (z, k, n)

    KORSELT_ORACLES = {
        "g_carmichael": lambda n: is_g_carmichael(n) or is_g_lehmer(n),
        "g_lehmer": lambda n: is_g_carmichael(n) or is_g_lehmer(n),
        "carmichael": is_carmichael,
        "williams_1": lambda n: is_r_williams(n, 1),
    }

    @pytest.mark.parametrize("which", KORSELT_ORACLES)
    def test_korselt(self, monkeypatch, which):
        (rules,) = self.built_rules(monkeypatch, lambda query: search_classifier(query, which))
        assert all(bound == k * (k + 2) for k, bound in rules)  # the witness k + 2
        for k, bound in rules:
            for n in self.beyond(k, bound):
                assert not self.KORSELT_ORACLES[which](n), (which, k, n)


class TestDivisibilityRule:
    """The divisibility half of the large-prime rule: n = kP with P an odd
    prime that does not divide w(k) fails, for every witness table the
    searches build at hi = 2**32 and every k up to 254 with a nonzero
    witness, checked by a route that shares no code with the sieve."""

    HI = 1 << 32

    def built_specs(self, monkeypatch, search):
        """The _SieveSpecs that search hands to its blocks for a window below
        HI; no block runs."""
        params = []
        monkeypatch.setattr(census, "_run_blocks", lambda kernel, p, *args: params.append(p) or [])
        search(RangeQuery(self.HI - 1000, self.HI))
        (built,) = params
        specs = [spec for part in built for spec in part if isinstance(spec, census._SieveSpec)]
        assert specs and all(len(spec.witnesses) == 255 for spec in specs)
        return specs

    @staticmethod
    def not_dividing(w, count=3):
        """The first count odd primes P <= |w| that do not divide w."""
        found = []
        for p in range(3, abs(w) + 1, 2):
            if len(found) == count:
                break
            if w % p and is_prime(p):
                found.append(p)
        return found

    def test_fermat(self, monkeypatch):
        specs = self.built_specs(
            monkeypatch, lambda query: joint_census(query, (Z12,), TABLE_INTEGER_BASES)
        )
        assert len(specs) == len(TABLE_INTEGER_BASES)
        checked = 0
        for a, spec in zip(TABLE_INTEGER_BASES, specs):
            for k in range(2, len(spec.witnesses)):
                for p in self.not_dividing(spec.witnesses[k]):
                    n = k * p
                    assert pow(a, n - 1, n) != 1, (a, k, n)
                    checked += 1
        assert checked > 2 * len(specs) * 253  # 3 primes for nearly every (a, k)

    @pytest.mark.parametrize("z", BASE_PANEL, ids=str)
    def test_gaussian(self, monkeypatch, z):
        (spec,) = self.built_specs(monkeypatch, lambda query: search_gfp(query, z))
        for k in range(2, len(spec.witnesses)):
            for p in self.not_dividing(spec.witnesses[k]):
                assert gaussian_fermat_im_test(k * p, z) is not TestOutcome.PASS, (z, k, p)

    def test_confirm_sees_only_divisors(self, monkeypatch):
        # one (4, 3) block of the joint table: every n = kP that reaches a
        # base's confirm, with k its code and P odd, has P | a^(k-1) - 1
        seen, sieved = [], []
        real_codes, real_confirm = census._cofactor_codes, census._passes_fermat

        def recording(lo, hi, m, start, kmax, ktop):
            sieved.append(sieved_ks(lo, hi, kmax, ktop))
            return real_codes(lo, hi, m, start, kmax, ktop)

        monkeypatch.setattr(census, "_cofactor_codes", recording)
        monkeypatch.setattr(
            census, "_passes_fermat", lambda a, n: seen.append((a, n)) or real_confirm(a, n)
        )
        lo = 10**6
        joint_census(
            RangeQuery(lo, lo + (1 << 16), (4, 3)), (Z12,), TABLE_INTEGER_BASES, block_size=1 << 16
        )
        (ks,) = sieved
        assert max(ks) == 254 and seen
        for a, n in seen:
            code = next((k for k in ks if n % k == 0 and trial_division_is_prime(n // k)), 1)
            p = n // code
            if code > 1 and p % 2:
                assert (a ** (code - 1) - 1) % p == 0, (a, n, code)

    def test_table_block_confirm_count(self, monkeypatch):
        # the (4, 3) table block [2**20, 2**21): the rule to k = 254 leaves
        # few confirms (53,590 with codes to k = 17 alone), and the same
        # pseudoprimes as the sieve without the divisibility half
        confirms, found = [], []
        real_confirm, real_masks = census._passes_fermat, census._psp_mask_kernel

        def recording(task):
            found.extend(real_masks(task))
            return found

        monkeypatch.setattr(
            census, "_passes_fermat", lambda a, n: confirms.append(n) or real_confirm(a, n)
        )
        monkeypatch.setattr(census, "_psp_mask_kernel", recording)
        lo, hi = 1 << 20, 1 << 21
        joint_census(RangeQuery(lo, hi, (4, 3)), (Z12,), TABLE_INTEGER_BASES, block_size=1 << 20)
        assert len(confirms) <= 8_000
        assert len(found) == 182
        specs = [
            census._fermat_spec(a, lo, hi)._replace(witnesses=(), confirm=partial(real_confirm, a))
            for a in TABLE_INTEGER_BASES
        ]
        assert found == real_masks((lo, hi, (4, 3), specs))


class TestTopOfDomain:
    """hi = 2**63 is accepted, so searches reach n = 2**63 - 1; every order
    table there still fits the int64 arrays."""

    LO, HI = (1 << 63) - 256, 1 << 63

    @pytest.mark.parametrize("which", ["g_cyclic", "congruence_exception", "carmichael", "giuga"])
    def test_last_window_against_naive(self, which):
        got = search_classifier(RangeQuery(self.LO, self.HI), which)
        assert got == naive_classifier_scan(self.LO, self.HI, which)

    def test_gfp_last_window_against_naive(self):
        expected = [
            n for n in range(self.LO, self.HI) if not is_prime(n) and passes_ratio_form(n, Z12)
        ]
        assert search_gfp(RangeQuery(self.LO, self.HI), Z12) == expected

    def test_reaches_2_63_minus_1(self):
        # every odd composite passes 1+1i; 2**63 - 1 = 7**2 * 73 * ... is one
        got = search_gfp(RangeQuery(self.HI - 4, self.HI), GaussianBase(1, 1))
        assert got == [self.HI - 3, self.HI - 1]


class TestSearchClassifier:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            search_classifier(RangeQuery(2, 100), "nope")

    def test_g_lehmer_small(self):
        assert search_classifier(RangeQuery(2, 10_000), "g_lehmer") == [255, 385]

    def test_twin_pair_product(self):
        got = search_classifier(RangeQuery(2, 10_000), "twin_pair_product")
        assert got == [15, 143, 3599, 5183]
        assert got == twin_pair_products_below(10_000)

    @pytest.mark.parametrize("residue_filter", [None, (4, 3), (3, 0), (3, 2), (5, 4)])
    def test_twin_pair_windows_below_1e5(self, residue_filter):
        hits = twin_pair_products_below(100_000)
        windows = [(lo, lo + 7919) for lo in range(2, 100_000 - 7919, 4001)]
        for v in hits:
            windows += [(v, v + 1), (v - 1, v), (v + 1, v + 2000), (max(2, v - 500), v + 1)]
        m, r = residue_filter or (1, 0)
        for lo, hi in windows:
            got = search_classifier(RangeQuery(lo, hi, residue_filter), "twin_pair_product")
            assert got == [v for v in hits if lo <= v < hi and v % m == r], (lo, hi)

    def test_twin_pair_window_near_2_62(self):
        # p = 2147483867 = 3 (mod 4) and p + 2 are prime; the search must not
        # walk every p from 3 up to 2**31
        n = 2147483867 * 2147483869
        lo, hi = n - 300, n + 300
        expected = [
            p * (p + 2)
            for p in range(isqrt(lo) - 2, isqrt(hi) + 1)
            if p % 4 == 3
            and lo <= p * (p + 2) < hi
            and trial_division_is_prime(p)
            and trial_division_is_prime(p + 2)
        ]
        assert expected == [n]
        assert search_classifier(RangeQuery(lo, hi), "twin_pair_product") == expected

    def test_twin_pair_wide_range_is_one_task(self, monkeypatch):
        # one walk over the p up to sqrt(hi) covers the query: blocks of 2**20
        # would make about 10**6 tasks here, and 10**8 at hi = 10**14
        sizes = []
        real = census._run_blocks

        def counted(kernel, params, query, residue_filter, blocks, progress=None):
            sizes.append(len(blocks))
            return real(kernel, params, query, residue_filter, blocks, progress)

        monkeypatch.setattr(census, "_run_blocks", counted)
        lo, hi = 2, 10**12
        got = search_classifier(RangeQuery(lo, hi, None, 2), "twin_pair_product")
        assert sizes == [1]
        assert got == sorted(got) and len(got) == len(set(got))
        assert got[:4] == [15, 143, 3599, 5183]
        top = hi - 10**9
        expected = [
            p * (p + 2)
            for p in range(isqrt(top) - 2, isqrt(hi) + 1)
            if p % 4 == 3
            and top <= p * (p + 2) < hi
            and trial_division_is_prime(p)
            and trial_division_is_prime(p + 2)
        ]
        assert expected and [v for v in got if v >= top] == expected

    @pytest.mark.parametrize(
        "which", [name for name, entry in census._CLASS_SEARCHES.items() if entry.blocked]
    )
    def test_odd_only_exactly_without_even_members(self, which):
        # a class may skip the even n only if none is a member; one with even
        # members below 2*10**4 must search them
        evens = [n for n in naive_classifier_scan(2, 20_000, which) if n % 2 == 0]
        assert census._CLASS_SEARCHES[which].odd_only == (not evens), evens[:5]

    def test_congruence_exception_includes_399(self):
        got = search_classifier(RangeQuery(2, 400), "congruence_exception")
        assert got == [77, 119, 133, 187, 217, 253, 287, 301, 319, 323, 341, 391, 399]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("residue_filter", [None, (4, 3)])
    def test_giuga_above_2e5(self, residue_filter, workers):
        # giuga is searched like every other class, at any height
        lo, hi = 200_000, 203_000
        query = RangeQuery(lo, hi, residue_filter, workers)
        got = search_classifier(query, "giuga", block_size=1000)
        assert got == naive_classifier_scan(lo, hi, "giuga", residue_filter)

    @pytest.mark.parametrize("which", CLASSIFIER_NAMES)
    def test_oracle_equivalence_to_1e4(self, which):
        got = search_classifier(RangeQuery(2, 10_000), which)
        assert got == naive_classifier_scan(2, 10_000, which), which

    @pytest.mark.parametrize("which", ["g_carmichael", "g_cyclic"])
    def test_residue_filter(self, which):
        got = search_classifier(RangeQuery(2, 2_000, (4, 3)), which)
        assert got == naive_classifier_scan(2, 2_000, which, (4, 3))

    @pytest.mark.parametrize("which", SIEVED_CLASSES)
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (census._SIEVE_CUTOFF - 200, census._SIEVE_CUTOFF + 300),
            ((1 << 62) - 3, (1 << 62) + 3),
            # most of these have a prime factor in (2**10, 10**6) for rho to find
            ((1 << 62) + (1 << 20), (1 << 62) + (1 << 20) + 256),
        ],
    )
    def test_high_windows_factor_per_n(self, monkeypatch, which, lo, hi):
        # at any height the sieves strike with the primes up to 2^16 at most;
        # Miller-Rabin and _factorize settle the n they leave open
        real = census.primes_up_to

        def bounded(limit):
            assert limit <= isqrt(census._SIEVE_CUTOFF) + 1, limit
            return real(limit)

        monkeypatch.setattr(census, "primes_up_to", bounded)
        got = search_classifier(RangeQuery(lo, hi), which, block_size=200)
        assert got == naive_classifier_scan(lo, hi, which)


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 8])
    def test_worker_count_independence(self, workers):
        base = search_classifier(RangeQuery(2, 4_000), "g_carmichael", block_size=512)
        multi = search_classifier(
            RangeQuery(2, 4_000, None, workers), "g_carmichael", block_size=512
        )
        assert base == multi

    @pytest.mark.parametrize("which", CLASSIFIER_NAMES + ("carmichael_intersection_scan",))
    def test_batch_and_mask_kernels_in_a_pool(self, which):
        # each builder's kernel and parameters, partials among them, go to the
        # workers by pickle
        def run(query):
            if which == "carmichael_intersection_scan":
                return carmichael_intersection_scan(query, block_size=4096)
            return search_classifier(query, which, block_size=4096)

        hi = 200_000 if which == "carmichael_intersection_scan" else 20_000
        assert run(RangeQuery(2, hi)) == run(RangeQuery(2, hi, None, 2))

    def test_gfp_worker_independence(self):
        one = search_gfp(RangeQuery(2, 4_000), Z12, block_size=256)
        eight = search_gfp(RangeQuery(2, 4_000, None, 8), Z12, block_size=256)
        assert one == eight

    def test_monotonicity(self):
        whole = search_gfp(RangeQuery(2, 6_000), Z12)
        left = search_gfp(RangeQuery(2, 3_000), Z12)
        right = search_gfp(RangeQuery(3_000, 6_000), Z12)
        assert left + right == whole


class TestJointCensus:
    def test_empty_bases(self):
        table = joint_census(RangeQuery(2, 100), (), (2, 3))
        assert table.counts == ()
        table = joint_census(RangeQuery(2, 100), (Z12,), ())
        assert table.counts == ((),)

    def test_small_against_naive(self):
        gbases = (Z12, GaussianBase(1, 1))
        ibases = (2, 3, 4)
        q = RangeQuery(2, 3_000)
        table = joint_census(q, gbases, ibases)
        for i, z in enumerate(gbases):
            for j, a in enumerate(ibases):
                expected = sum(
                    1
                    for n in range(2, 3_000)
                    if passes_ratio_form(n, z) and is_fermat_psp(n, a)
                )
                assert table.counts[i][j] == expected, (str(z), a)

    def test_worker_independence(self):
        gbases = (Z12,)
        ibases = (2, 3)
        t1 = joint_census(RangeQuery(2, 5_000), gbases, ibases, block_size=512)
        t8 = joint_census(RangeQuery(2, 5_000, None, 8), gbases, ibases, block_size=512)
        assert t1.counts == t8.counts

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CensusTable((Z12,), (2,), ((1, 2),), 100, None)

    @pytest.mark.parametrize("a", [1, 0, -3, 1 << 63])
    def test_integer_base_domain(self, a):
        with pytest.raises(ValueError):
            joint_census(RangeQuery(2, 100), (Z12,), (2, a))


MASK_BASE_SETS = (
    tuple(range(2, 12)),  # the published columns
    (4, 8, 9),  # prime powers
    (6, 10, 15),  # bases sharing primes
)


class TestPspMaskKernel:
    """The order sieve against a brute-force Fermat mask."""

    @staticmethod
    def run_kernel(lo, hi, residue_filter, bases, block_size):
        specs = [census._fermat_spec(a, lo, hi) for a in bases]
        return [
            pair
            for blo in range(lo, hi, block_size)
            for pair in census._psp_mask_kernel(
                (blo, min(blo + block_size, hi), residue_filter, specs)
            )
        ]

    def test_orders_against_brute(self):
        hi = 2_000
        primes = [p for p in range(2, isqrt(hi - 1) + 2) if trial_division_is_prime(p)]
        for a in (2, 3, 10, 12):
            qs, ds = census._mask_orders(a, 2, hi)
            expected = []
            for p in primes:
                if a % p == 0:
                    expected.append((p, 0))
                    continue
                q = p
                while q < hi:
                    d = next(e for e in range(1, q) if pow(a, e, q) == 1)
                    if d % p == 0:
                        expected.append((q, 0))
                        break
                    if d > 1:
                        expected.append((q, d))
                    q *= p
            assert list(zip(qs, ds)) == expected, a

    @pytest.mark.parametrize("bases", MASK_BASE_SETS)
    @pytest.mark.parametrize("residue_filter", [None, (4, 3), (8, 5)])
    def test_blocks_from_2_against_brute(self, bases, residue_filter):
        # sieve primes reach 141 and their squares 19881, all inside the range
        got = self.run_kernel(2, 20_000, residue_filter, bases, 4096)
        assert got == brute_psp_masks(2, 20_000, bases, residue_filter)

    def test_single_base_against_brute(self):
        for a in (2, 3, 11, 97):
            assert self.run_kernel(2, 6_000, None, (a,), 1000) == brute_psp_masks(
                2, 6_000, (a,)
            )

    def test_above_sieve_cutoff_against_brute(self):
        # only part of the primes below sqrt(hi) sieve here
        lo = census._SIEVE_CUTOFF + 1
        bases = tuple(range(2, 12))
        got = self.run_kernel(lo, lo + 2_000, None, bases, 1 << 20)
        assert got == brute_psp_masks(lo, lo + 2_000, bases)


class TestRunBlocks:
    class StubPool:
        """Runs each task at submit; _run_blocks imports the pool from
        concurrent.futures when it starts one."""

        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def submit(self, fn, task):
            future = Future()
            future.set_result(fn(task))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    @pytest.mark.parametrize("tasks, expected", [(10, 3), (2, 2)])
    def test_pool_capped_at_available_cpus(self, monkeypatch, tasks, expected):
        self.StubPool.sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self.StubPool)
        monkeypatch.setattr(census, "available_cpus", lambda: 3)
        query = RangeQuery(2, 2 + tasks, None, 10**5)
        out = list(census._run_blocks(itemgetter(0), (), query, None, range(2, 2 + tasks)))
        assert out == list(range(2, 2 + tasks))
        assert self.StubPool.sizes == [expected]

    def test_single_cpu_runs_serially(self, monkeypatch):
        self.StubPool.sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self.StubPool)
        monkeypatch.setattr(census, "available_cpus", lambda: 1)
        query = RangeQuery(2, 4, None, 10**5)
        assert list(census._run_blocks(itemgetter(0), (), query, None, range(2, 4))) == [2, 3]
        assert self.StubPool.sizes == []

    @pytest.mark.parametrize("workers", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(
            census.available_cpus() < 2, reason="one CPU runs serially: no pool to test"
        )),
    ])
    def test_cancelled_search_stays_small(self, workers):
        # [2, 2**62) in blocks of 2**14 is about 2**48 blocks: a task list
        # built, or submitted, before the first block returns would not fit
        # in memory.  The pool holds 2 * workers tasks, and a cancel shuts
        # it down: no worker process outlives the call.
        class Cancel(Exception):
            pass

        def progress(done, total):
            assert total == len(range(2, 1 << 62, 1 << 14))
            if done == 3:
                raise Cancel

        query = RangeQuery(2, 1 << 62, workers=workers)
        tracemalloc.start()
        try:
            with pytest.raises(Cancel):
                search_classifier(query, "g_cyclic", block_size=1 << 14, progress=progress)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 22  # a block of 2**14 takes about 1.5 MB
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(census.available_cpus() < 2, reason="one CPU runs serially: no pool")
    def test_closing_the_stream_shuts_its_pool(self):
        # a consumer that stops after the first block closes the stream: the
        # tasks still in flight are cancelled and no worker outlives it
        query = RangeQuery(2, 1_002, None, 2)
        stream = census._run_blocks(itemgetter(0), (), query, None, range(2, 1_002))
        assert next(stream) == 2
        stream.close()
        assert multiprocessing.active_children() == []

    OPERATIONS = {
        "search_classifier": lambda query, size: search_classifier(
            query, "g_carmichael", block_size=size
        ),
        "search_gfp": lambda query, size: search_gfp(query, Z12, block_size=size),
        "joint_census": lambda query, size: joint_census(query, (Z12,), (2,), block_size=size),
        "carmichael_intersection_scan": lambda query, size: carmichael_intersection_scan(
            query, block_size=size
        ),
        # paths that used to return before any block was built
        "twin_pair_product": lambda query, size: search_classifier(
            query, "twin_pair_product", block_size=size
        ),
        "joint_census without Gaussian bases": lambda query, size: joint_census(
            query, (), (2,), block_size=size
        ),
        "odd-only class on even n": lambda query, size: search_classifier(
            RangeQuery(query.lo, query.hi, (2, 0)), "carmichael", block_size=size
        ),
    }

    @pytest.mark.parametrize("operation", OPERATIONS)
    @pytest.mark.parametrize("size", [0, -5])
    def test_non_positive_block_size_rejected(self, operation, size):
        with pytest.raises(ValueError, match="block_size must be positive"):
            self.OPERATIONS[operation](RangeQuery(2, 1000), size)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")
    def test_available_cpus_follows_affinity(self):
        assert census.available_cpus() == len(os.sched_getaffinity(0))


class TestIntersectionScan:
    def test_small_empty(self):
        assert carmichael_intersection_scan(RangeQuery(2, 1_000)) == []

    def test_to_1e6_empty_with_consistency(self):
        assert carmichael_intersection_scan(RangeQuery(2, 1_000_000)) == []

    def test_fixed_filter(self):
        with pytest.raises(ValueError):
            carmichael_intersection_scan(RangeQuery(2, 100, (4, 1)))
        assert carmichael_intersection_scan(RangeQuery(2, 100, (4, 3))) == []

    def test_lying_williams_route_raises(self, monkeypatch):
        # 8911 = 7 * 19 * 67, the least Carmichael number = 3 mod 4, has all
        # its primes = 3 mod 4 and is not G-Carmichael, so a Williams route
        # that accepts every n disagrees with the direct route there; it is
        # the first n that the sieve and the base-2 prefilter leave to the check
        classify = importlib.import_module("gausspseudo.classify")
        monkeypatch.setattr(classify, "_williams", lambda n, factors, r=1: True)
        with pytest.raises(ConsistencyError, match="n=8911"):
            carmichael_intersection_scan(RangeQuery(2, 10**4, workers=1))


class TestVerifyExternalList:
    def test_filter_excludes_341(self, tmp_path):
        f = tmp_path / "list.txt"
        f.write_text("341\n")
        rep = verify_external_list(f, Z12, (4, 3))
        assert rep.total_read == 1
        assert rep.filtered == 0
        assert rep.passing == ()

    def test_143_passes_with_warning(self, tmp_path):
        f = tmp_path / "list.txt"
        f.write_text("143\n")
        passed = []
        rep = verify_external_list(f, Z12, on_pass=passed.append)
        assert rep.passing == (143,)
        assert passed == [143]

    def test_on_pass_once_per_pass_in_file_order(self, tmp_path):
        # 13 passes but is filtered out, 15 is a multiple of 5 (invalid
        # base), 91 fails, and one line is malformed
        f = tmp_path / "list.txt"
        f.write_text("779\n13\nnot-a-number\n143\n15\n91\n527\n")
        passed = []
        rep = verify_external_list(f, Z12, (4, 3), on_pass=passed.append)
        assert passed == [779, 143, 527]
        assert tuple(passed) == rep.passing
        assert (rep.filtered, rep.invalid_base, rep.malformed_lines) == (5, 1, 1)

        class Stop(Exception):
            pass

        def stop(n):
            raise Stop(n)

        # called as the scan reaches the entry, not after the function returns
        with pytest.raises(Stop) as info:
            verify_external_list(f, Z12, (4, 3), on_pass=stop)
        assert info.value.args == (779,)

    def test_malformed_and_comments(self, tmp_path):
        f = tmp_path / "list.txt"
        f.write_text("# header\n341\n\n  561  \nnot-a-number\n-7\n1\n15\n")
        rep = verify_external_list(f, Z12)
        # 341, 561, 15 parse; 15 hits the invalid-base tally
        assert rep.total_read == 3
        assert rep.malformed_lines == 3
        assert rep.invalid_base == 1
        assert rep.filtered == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            verify_external_list(tmp_path / "nope.txt", Z12)

    @pytest.mark.parametrize("residue_filter", [(0, 0), (3, 5), (4, 4), (-4, 1)])
    def test_bad_filter_raises(self, tmp_path, residue_filter):
        f = tmp_path / "list.txt"
        f.write_text("341\n")
        with pytest.raises(ValueError, match="bad residue filter"):
            verify_external_list(f, Z12, residue_filter)

    def test_non_ascii_digits_are_malformed(self, tmp_path):
        # superscript two, Arabic-Indic fifteen, fullwidth twelve
        f = tmp_path / "list.txt"
        f.write_text("\u00b2\n\u0661\u0665\n\uff11\uff12\n143\n", encoding="utf-8")
        rep = verify_external_list(f, Z12)
        assert rep.malformed_lines == 3
        assert rep.total_read == 1
        assert rep.passing == (143,)

    def test_huge_digit_line_is_malformed(self, tmp_path):
        # more digits than int() converts by default; the lines around it count
        f = tmp_path / "list.txt"
        f.write_text("341\n" + "7" * 5_000 + "\n" + "1" * 20 + "\n143\n")
        rep = verify_external_list(f, Z12)
        assert rep.malformed_lines == 2
        assert rep.total_read == 2
        assert rep.passing == (143,)

    def test_over_cap_line_is_one_malformed_line(self, tmp_path):
        f = tmp_path / "list.txt"
        f.write_text("143\n" + "9" * (4 << 20) + "\n# " + "x" * 10_000 + "\n561\n")
        tracemalloc.start()
        try:
            rep = verify_external_list(f, Z12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert rep.malformed_lines == 1
        assert rep.total_read == 2
        assert rep.passing == (143,)

    def test_zero_padded_values(self, tmp_path):
        f = tmp_path / "list.txt"
        big = (1 << 63) - 1
        f.write_text(f"{'0' * 30}143\n000\n{'0' * 3_000}{big}\n{'0' * 40}{1 << 63}\n")
        rep = verify_external_list(f, Z12)
        assert rep.malformed_lines == 2
        assert rep.total_read == 2
        assert rep.passing == (143,)


class TestSerialization:
    def test_values_csv(self):
        assert values_to_csv([1, 2, 3]) == "n\n1\n2\n3\n"

    def test_table_csv_and_records_stable(self):
        q = RangeQuery(2, 3_000)
        table = joint_census(q, (Z12,), (2, 3))
        a = table_to_csv(table)
        b = table_to_csv(joint_census(q, (Z12,), (2, 3)))
        assert a == b
        assert a.startswith("base,2,3\n1+2i,")
        ra = table_to_records(table, q)
        rb = table_to_records(joint_census(q, (Z12,), (2, 3)), q)
        assert ra == rb

    def test_record_line_canonical(self):
        q = RangeQuery(2, 100, (4, 3))
        line = record_line("search_gfp", q, Z12, [143])
        assert line == (
            '{"base":"1+2i","kind":"search_gfp",'
            '"query":{"hi":100,"lo":2,"residue_filter":[4,3]},"values":[143]}'
        )
