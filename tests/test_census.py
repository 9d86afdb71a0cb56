import logging
import os
import tracemalloc
from math import isqrt

import pytest
from oracle_utils import (
    brute_psp_masks,
    composite_sieve,
    gpow,
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
    giuga_membership,
    is_carmichael,
    is_g_carmichael,
    is_g_cyclic,
    is_g_lehmer,
    is_r_williams,
    lambda_power_congruence,
    phi_power_congruence,
)
from gausspseudo.arith import factorize, gaussian_lambda, gaussian_phi
from gausspseudo.fermat import (
    BASE_PANEL,
    TestOutcome,
    gaussian_fermat_im_test,
    is_fermat_psp,
    is_gfp,
)
from gausspseudo.residues import GaussianBase

Z12 = GaussianBase(1, 2)


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
            ok = is_g_lehmer(n) and factorize(n).omega >= 3
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
            fac = factorize(n)
            ok = (
                n % 2 == 1
                and fac.omega == 2
                and fac.is_squarefree
                and fac.primes[1] == fac.primes[0] + 2
                and (fac.primes[0] + fac.primes[1]) % 8 == 0
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
            RangeQuery(2, 1 << 63)
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
        expected = [n for n in range(3, 100, 4) if is_gfp(n, Z12)]
        assert got == expected

    def test_matches_naive_to_1e4(self):
        got = search_gfp(RangeQuery(2, 10_000), Z12)
        flags = composite_sieve(10_000)
        expected = [n for n in range(2, 10_000) if flags[n] and is_gfp(n, Z12)]
        assert got == expected

    def test_above_sieve_cutoff_uses_miller_rabin(self):
        # blocks beyond 2^32 switch from the segmented sieve to per-candidate
        # deterministic Miller-Rabin, and the large-prime rule is off
        lo, hi = (1 << 32) + 1, (1 << 32) + 600
        from gausspseudo.arith import is_prime

        for z in SIEVE_BASES:
            got = search_gfp(RangeQuery(lo, hi), z)
            expected = [n for n in range(lo, hi) if not is_prime(n) and is_gfp(n, z)]
            assert got == expected, str(z)


# the panel plus a real base and a second base whose ratio is a root of unity
SIEVE_BASES = BASE_PANEL + (GaussianBase(3, 0), GaussianBase(2, 2))
SIEVE_LIMIT = 20_000


class TestGfpSieve:
    """The order sieve of search_gfp against both exact forms of the test."""

    @pytest.mark.parametrize("z", SIEVE_BASES, ids=str)
    def test_blocks_from_2_against_both_forms(self, z):
        flags = composite_sieve(SIEVE_LIMIT)
        composites = [n for n in range(2, SIEVE_LIMIT) if flags[n]]
        ratio_form = [n for n in composites if is_gfp(n, z)]
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


SIEVED_CLASSES = ("g_carmichael", "g_lehmer", "g_cyclic", "congruence_exception")
CLASS_FILTERS = (None, (4, 1), (4, 3), (3, 2), (8, 5), (2, 0), (6, 3))


@pytest.fixture(scope="module")
def naive_class_hits():
    return {which: naive_classifier_scan(2, SIEVE_LIMIT, which) for which in SIEVED_CLASSES}


class TestClassSieve:
    """The Korselt sieve of g_carmichael / g_lehmer and the odd-only factor
    batches of g_cyclic / congruence_exception against the predicates."""

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
        "which, group", [("g_carmichael", gaussian_lambda), ("g_lehmer", gaussian_phi)]
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
        qs, ds = census._korselt_orders(census._CLASS_SEARCHES[which].group_order, lo, hi)
        assert list(zip(qs, ds)) == expected

    @pytest.mark.parametrize("which", ["g_carmichael", "g_lehmer"])
    def test_search_leaves_factorize_cache_alone(self, which):
        # survivors are factored uncached: a long-lived process must not
        # keep every survivor's factorization
        before = factorize.cache_info().currsize
        search_classifier(RangeQuery(10**7, 10**7 + 20_000), which)
        assert factorize.cache_info().currsize == before


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

    def test_congruence_exception_includes_399(self):
        got = search_classifier(RangeQuery(2, 400), "congruence_exception")
        assert got == [77, 119, 133, 187, 217, 253, 287, 301, 319, 323, 341, 391, 399]

    def test_giuga_cap(self):
        with pytest.raises(ValueError):
            search_classifier(RangeQuery(2, 200_001), "giuga")
        got = search_classifier(RangeQuery(2, 50), "giuga")
        assert got == naive_classifier_scan(2, 50, "giuga")

    @pytest.mark.parametrize("which", CLASSIFIER_NAMES)
    def test_oracle_equivalence_to_1e4(self, which):
        got = search_classifier(RangeQuery(2, 10_000), which)
        assert got == naive_classifier_scan(2, 10_000, which), which

    @pytest.mark.parametrize("which", ["g_carmichael", "g_cyclic"])
    def test_residue_filter(self, which):
        got = search_classifier(RangeQuery(2, 2_000, (4, 3)), which)
        assert got == naive_classifier_scan(2, 2_000, which, (4, 3))

    @pytest.mark.parametrize("which", ["g_carmichael", "g_cyclic", "g_lehmer"])
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
        # above the cutoff the factor sieve would need every prime up to sqrt(hi)
        real = census._base_primes

        def bounded(limit):
            assert limit <= isqrt(census._SIEVE_CUTOFF) + 1, limit
            return real(limit)

        monkeypatch.setattr(census, "_base_primes", bounded)
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
                    if is_gfp(n, z) and is_fermat_psp(n, a)
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
        orders = census._mask_orders(bases, lo, hi)
        return [
            pair
            for blo, bhi in census._blocks(lo, hi, block_size)
            for pair in census._psp_mask_kernel((blo, bhi, residue_filter, orders))
        ]

    def test_orders_against_brute(self):
        hi = 2_000
        primes = [p for p in range(2, isqrt(hi - 1) + 2) if trial_division_is_prime(p)]
        for a, qs, ds in census._mask_orders((2, 3, 10, 12), 2, hi):
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
        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    @pytest.mark.parametrize("tasks, expected", [(10, 3), (2, 2)])
    def test_pool_capped_at_available_cpus(self, monkeypatch, tasks, expected):
        self.StubPool.sizes = []
        monkeypatch.setattr(census, "ProcessPoolExecutor", self.StubPool)
        monkeypatch.setattr(census, "available_cpus", lambda: 3)
        out = census._run_blocks(abs, list(range(-tasks, 0)), 10**5)
        assert out == list(range(tasks, 0, -1))
        assert self.StubPool.sizes == [expected]

    def test_single_cpu_runs_serially(self, monkeypatch):
        self.StubPool.sizes = []
        monkeypatch.setattr(census, "ProcessPoolExecutor", self.StubPool)
        monkeypatch.setattr(census, "available_cpus", lambda: 1)
        assert census._run_blocks(abs, [-1, -2], 10**5) == [1, 2]
        assert self.StubPool.sizes == []

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


class TestVerifyExternalList:
    def test_filter_excludes_341(self, tmp_path):
        f = tmp_path / "list.txt"
        f.write_text("341\n")
        rep = verify_external_list(f, Z12, (4, 3))
        assert rep.total_read == 1
        assert rep.filtered == 0
        assert rep.passing == ()

    def test_143_passes_with_warning(self, tmp_path, caplog):
        f = tmp_path / "list.txt"
        f.write_text("143\n")
        with caplog.at_level(logging.WARNING):
            rep = verify_external_list(f, Z12)
        assert rep.passing == (143,)
        assert any("143" in r.message for r in caplog.records)

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
