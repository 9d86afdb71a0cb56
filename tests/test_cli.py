import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gausspseudo
from gausspseudo.census import CLASSIFIER_NAMES
from gausspseudo.cli import main


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestClassifyCommand:
    def test_15(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "15")
        assert code == 0
        assert "g_carmichael: true" in out
        assert "g_lehmer: true" in out
        assert "carmichael: false" in out

    def test_12(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "12")
        assert code == 0
        assert "g_carmichael: true" in out

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "1")
        assert code == 2
        assert "error" in err

    def test_stable_field_order(self, capsys):
        _, out1, _ = run_cli(capsys, "classify", "15")
        _, out2, _ = run_cli(capsys, "classify", "15")
        assert out1 == out2
        lines = [l.split(":")[0] for l in out1.splitlines()]
        assert lines[:4] == ["n", "is_prime", "g_carmichael", "carmichael"]

    def test_records_format(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "15", "--format", "records")
        assert code == 0
        assert out.startswith('{"carmichael":false')

    def test_giuga_flag(self, capsys):
        _, out, _ = run_cli(capsys, "classify", "15", "--giuga")
        assert "giuga_member: true" in out

    def test_giuga_above_1e5(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "150001", "--giuga")
        assert code == 0
        assert "\ngiuga_member: " in out

    # odd primes are members; 150000 = 2^4 * 3 * 5^5 is not
    @pytest.mark.parametrize(
        "n, member",
        [(150_000, "false"), (150_001, "true"), (2**32 + 15, "true"), (2**63 - 25, "true")],
    )
    def test_giuga_line_at_height(self, capsys, n, member):
        code, out, _ = run_cli(capsys, "classify", str(n), "--giuga")
        assert code == 0
        assert f"\ngiuga_member: {member}\n" in out


class TestSearchCommand:
    def test_g_lehmer(self, capsys):
        code, out, _ = run_cli(capsys, "search", "g_lehmer", "--hi", "1000", "--quiet")
        assert code == 0
        assert out == "255\n385\n"

    def test_gfp_includes_143(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "gfp", "--base", "1+2i", "--hi", "1000", "--quiet"
        )
        assert code == 0
        assert "143\n" in out

    @pytest.mark.parametrize("base", ["-2+5i", "-1-1i"])
    def test_negative_real_part_as_separate_value(self, capsys, base):
        args = ["search", "gfp", "--hi", "2000", "--quiet"]
        joined = run_cli(capsys, *args, f"--base={base}")
        assert joined[0] == 0
        assert run_cli(capsys, *args, "--base", base) == joined

    def test_bad_negative_base_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "search", "gfp", "--hi", "100", "--base", "-2*5i")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith("cannot parse Gaussian base '-2*5i'; expected 'a+bi'")

    @pytest.mark.parametrize("which", ["g_carmichael", "twin_pair_product"])
    def test_base_only_with_gfp(self, capsys, which):
        code, out, err = run_cli(capsys, "search", which, "--hi", "3000", "--base", "1+2i")
        assert (code, out) == (2, "")
        assert err == "error: only search gfp takes --base\n"

    @pytest.mark.parametrize("hi, code", [(2**63, 0), (2**63 + 1, 2)])
    def test_hi_up_to_2_63(self, capsys, hi, code):
        argv = ["search", "g_cyclic", "--lo", str(2**63 - 8), "--hi", str(hi), "--quiet"]
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert "Traceback" not in err
        if code == 2:
            message = f"error: need 2 <= lo < hi <= 2**63, got [{2**63 - 8}, {hi})\n"
            assert (out, err) == ("", message)

    def test_gfp_requires_base(self, capsys):
        code, _, err = run_cli(capsys, "search", "gfp", "--hi", "100", "--quiet")
        assert code == 2
        assert "base" in err

    def test_unknown_classifier(self, capsys):
        code, _, _ = run_cli(capsys, "search", "nope", "--hi", "100")
        assert code == 2

    def test_bad_filter(self, capsys):
        code, _, _ = run_cli(capsys, "search", "g_cyclic", "--hi", "100", "--filter", "4")
        assert code == 2

    def test_non_integer_filter_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "search", "g_cyclic", "--hi", "100", "--filter", "a,b")
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith("filter must be 'modulus,residue'")

    def test_csv_format(self, capsys):
        _, out, _ = run_cli(
            capsys, "search", "twin_pair_product", "--hi", "200", "--quiet",
            "--format", "csv",
        )
        assert out == "n\n15\n143\n"

    def test_records_format(self, capsys):
        _, out, _ = run_cli(
            capsys, "search", "twin_pair_product", "--hi", "200", "--quiet",
            "--format", "records",
        )
        assert '"kind":"search_twin_pair_product"' in out
        assert '"values":[15,143]' in out


class TestWorkersOption:
    @pytest.mark.parametrize(
        "argv",
        [("search", "g_lehmer", "--hi", "1000"), ("table", "--limit", "1000")],
    )
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_rejected(self, capsys, argv, workers):
        code, out, err = run_cli(capsys, *argv, "--workers", workers, "--quiet")
        assert code == 2
        assert out == ""
        assert err == "error: workers must be positive\n"


class TestTableCommand:
    def test_small_table_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--limit", "1000", "--quiet",
            "--gaussian-bases", "1+2i,1+1i", "--integer-bases", "2,3",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "base,2,3"
        assert lines[1].startswith("1+2i,")
        assert len(lines) == 3

    def test_empty_gaussian_bases(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--limit", "1000", "--gaussian-bases", "", "--quiet",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("base,")

    def test_bad_base_syntax(self, capsys):
        code, _, _ = run_cli(
            capsys, "table", "--limit", "100", "--gaussian-bases", "1*2i", "--quiet"
        )
        assert code == 2

    def test_records_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--limit", "1000", "--quiet",
            "--gaussian-bases", "1+2i,1+1i", "--integer-bases", "2,3",
            "--format", "records",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["kind"] for r in records] == ["joint_census_bases"] + ["joint_census_row"] * 2
        assert records[0]["values"] == ["2", "3"]
        assert [r["base"] for r in records[1:]] == ["1+2i", "1+1i"]
        assert all(r["query"] == {"lo": 2, "hi": 1000, "residue_filter": None} for r in records)

    def test_byte_identical_across_workers(self, capsys):
        args = ["table", "--limit", "5000", "--quiet", "--gaussian-bases", "1+2i",
                "--integer-bases", "2,3,4", "--format", "csv"]
        _, out1, _ = run_cli(capsys, *args, "--workers", "1")
        _, out8, _ = run_cli(capsys, *args, "--workers", "8")
        assert out1 == out8


class TestVerifyCommand:
    def test_finding_exits_1(self, capsys, tmp_path):
        f = tmp_path / "list.txt"
        f.write_text("143\n")
        code, out, _ = run_cli(
            capsys, "verify", "--file", str(f), "--base", "1+2i", "--quiet"
        )
        assert code == 1
        assert "passing: 143" in out

    def test_filtered_out_exits_0(self, capsys, tmp_path):
        f = tmp_path / "list.txt"
        f.write_text("341\n")
        code, out, _ = run_cli(
            capsys, "verify", "--file", str(f), "--base", "1+2i",
            "--filter", "4,3", "--quiet",
        )
        assert code == 0
        assert "passing: (none)" in out

    def test_negative_real_part_as_separate_value(self, capsys, tmp_path):
        f = tmp_path / "list.txt"
        f.write_text("143\n341\n561\n")
        args = ["verify", "--file", str(f), "--quiet"]
        joined = run_cli(capsys, *args, "--base=-2+5i")
        assert joined[0] in (0, 1)
        assert run_cli(capsys, *args, "--base", "-2+5i") == joined

    def test_bad_filter_exits_2(self, capsys, tmp_path):
        f = tmp_path / "list.txt"
        f.write_text("143\n")
        code, out, err = run_cli(
            capsys, "verify", "--file", str(f), "--base", "1+2i", "--filter", "3,5"
        )
        assert (code, out) == (2, "")
        assert err == "error: bad residue filter (3, 5)\n"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "--file", str(tmp_path / "nope"), "--base", "1+2i"
        )
        assert code == 2
        assert "error" in err


class TestVerifyQuiet:
    """verify warns once per passing entry on stderr, and --quiet silences
    those warnings as it silences progress; stdout is the same either way."""

    PASSING = (143, 399, 527, 779)  # odd passes of 1+2i below 1000
    LINES = "143\n341\n399\n527\n561\n779\n"

    def run(self, path, *flags):
        src = str(Path(gausspseudo.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        argv = ["verify", "--file", str(path), "--base", "1+2i", *flags]
        done = subprocess.run(
            [sys.executable, "-m", "gausspseudo.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        return done.stdout, done.stderr

    def test_stderr(self, tmp_path):
        f = tmp_path / "list.txt"
        f.write_text(self.LINES)
        loud_out, loud_err = self.run(f)
        quiet_out, quiet_err = self.run(f, "--quiet")
        assert quiet_err == ""
        assert loud_err.splitlines() == [
            f"WARNING: {n} passes the Gaussian test to base 1+2i" for n in self.PASSING
        ]
        assert quiet_out == loud_out
        assert "passing: 143 399 527 779" in loud_out

    def test_quiet_is_per_call(self, capsys, tmp_path):
        # main runs many times in one process: no call keeps the last one's --quiet
        f = tmp_path / "list.txt"
        f.write_text(self.LINES)
        warned, outs = [], []
        for flags in ([], ["--quiet"], [], ["--quiet"]):
            code, out, err = run_cli(capsys, "verify", "--file", str(f), "--base", "1+2i", *flags)
            warned.append(len(err.splitlines()))
            outs.append((code, out))
        assert warned == [4, 0, 4, 0]
        assert len(set(outs)) == 1


_TWO_CPUS = pytest.mark.skipif(
    gausspseudo.census.available_cpus() < 2, reason="one CPU runs serially: no pool"
)


class TestQuietParity:
    """--quiet changes stderr only: every command writes the same stdout and
    exit code with and without it, and nothing to stderr with it.  The
    search and the table run three blocks of 2**20; at two workers the
    search runs them through the pool, with no progress callback when
    quiet."""

    @pytest.mark.parametrize("argv, last_line", [
        (["search", "carmichael", "--hi", "3000000", "--workers", "1"],
         "search carmichael: 3/3 blocks"),
        pytest.param(["search", "carmichael", "--hi", "3000000", "--workers", "2"],
                     "search carmichael: 3/3 blocks", marks=_TWO_CPUS),
        (["table", "--limit", "3000000", "--gaussian-bases", "1+2i", "--integer-bases", "2",
          "--workers", "1"], "table: 3/3 blocks"),
        (["verify", "--file", "LIST", "--base", "1+2i"],
         "WARNING: 779 passes the Gaussian test to base 1+2i"),
        (["classify", "561"], None),
    ])
    def test_stdout_equal_and_quiet_stderr_empty(self, capsys, tmp_path, argv, last_line):
        f = tmp_path / "list.txt"
        f.write_text(TestVerifyQuiet.LINES)
        argv = [str(f) if arg == "LIST" else arg for arg in argv]
        loud_code, loud_out, loud_err = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--quiet") == (loud_code, loud_out, "")
        assert loud_out
        assert loud_err.splitlines()[-1:] == ([last_line] if last_line else [])


class TestWorkersDefault:
    def test_default_is_available_cpus(self, capsys, monkeypatch):
        from gausspseudo import cli

        seen = []
        monkeypatch.setattr(cli, "available_cpus", lambda: 3)
        monkeypatch.setattr(
            cli, "search_classifier", lambda query, which, **kw: seen.append(query.workers) or []
        )
        assert run_cli(capsys, "search", "g_carmichael", "--hi", "100", "--quiet") == (0, "", "")
        assert seen == [3]


class TestInterrupt:
    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=_TWO_CPUS)])
    def test_interrupt_exits_130_without_traceback(self, capsys, monkeypatch, workers):
        # an interrupt after two blocks: one line on stderr, exit 130, and
        # the search's pool is shut down before main returns
        from gausspseudo import cli

        def interrupted(label):
            def progress(done, total):
                if done == 2:
                    raise KeyboardInterrupt
            return progress

        monkeypatch.setattr(cli, "_Progress", interrupted)
        argv = ["search", "g_cyclic", "--hi", str(1 << 23), "--workers", str(workers)]
        try:
            code, out, err = run_cli(capsys, *argv)
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        assert (code, out, err) == (130, "", "error: interrupted\n")
        assert multiprocessing.active_children() == []


# Tokens for the in-process fuzz of main(): valid and invalid values of
# every argument.  Ranges stay below 10**4 and --workers at 0, 1, 2 or text,
# so every example runs in a fraction of a second.
_NUMBERS = st.integers(2, 10**4).map(str) | st.sampled_from(
    ("0", "1", "-7", "1e3", "abc", "", "0x1f", " 12", "\u0661\u0665", "9223372036854775807",
     "9223372036854775808", "99999999999999999999999")
)
_BOUNDS = st.integers(-5, 10**4).map(str) | st.sampled_from(("", "x", "1.5", "1e3"))
_FILTERS = st.sampled_from(("4,3", "4,1", "2,0", "3,2", "8,5", "6,3", "1,0", "4,4",
                            "0,0", "-4,1", "4,-1", "4", "a,b", "4,3,1", ""))
_VALID_BASES = st.sampled_from(
    ("1+2i", "1-2i", "1+1i", "3+0i", "0+3i", "-2+5i", "-1-1i", "2+2i", "0+0i")
)
_BASES = _VALID_BASES | st.sampled_from(("i", "1+2j", "1 + 2i", "abc", "", "99999999999999999999+1i"))
_WORKERS = st.sampled_from(("1", "2", "0", "two", "", "1.5"))
_FORMATS = st.sampled_from(("plain", "csv", "records", "json", ""))
_BASE_LISTS = st.lists(_BASES, max_size=3).map(",".join)
_INT_LISTS = st.lists(st.sampled_from(("2", "3", "10", "1", "0", "-3", "x", "9223372036854775808")),
                      max_size=3).map(",".join)
_FILES = st.sampled_from(("list", "empty", "missing", "dir"))
_FLAG = st.just(())


def _with_value(values):
    return values.map(lambda v: (v,))


_COMMON = {"--quiet": _FLAG, "--format": _with_value(_FORMATS)}
# command -> (a valid invocation, flag -> strategy of its value tuples)
_COMMANDS = {
    "classify": (
        st.builds(lambda n: [n], _NUMBERS),
        {**_COMMON, "--giuga": _FLAG},
    ),
    "search": (
        st.builds(
            lambda which, hi, base: [which, "--hi", str(hi)] + ["--base", base] * (which == "gfp"),
            st.sampled_from(CLASSIFIER_NAMES + ("gfp",)), st.integers(3, 10**4), _VALID_BASES,
        ),
        {**_COMMON, "--lo": _with_value(_BOUNDS), "--hi": _with_value(_BOUNDS),
         "--filter": _with_value(_FILTERS), "--base": _with_value(_BASES),
         "--workers": _with_value(_WORKERS)},
    ),
    "table": (
        # the default --limit, 4*10**7, is far above the fuzz ranges
        st.builds(lambda limit: ["--limit", str(limit)], st.integers(3, 10**4)),
        {**_COMMON, "--limit": _with_value(_BOUNDS), "--filter": _with_value(_FILTERS),
         "--gaussian-bases": _with_value(_BASE_LISTS),
         "--integer-bases": _with_value(_INT_LISTS), "--workers": _with_value(_WORKERS)},
    ),
    "verify": (
        st.builds(lambda base: ["--file", "list", "--base", base], _VALID_BASES),
        {**_COMMON, "--file": _with_value(_FILES), "--base": _with_value(_BASES),
         "--filter": _with_value(_FILTERS)},
    ),
}


@st.composite
def _argv(draw):
    """A valid invocation with up to three option groups added; a later
    group overrides the same flag, and a stray word may be mixed in."""
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["nope", "--help", ""]))
    if command not in _COMMANDS:
        return [command]
    valid, spec = _COMMANDS[command]
    args = draw(valid)
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(sorted(spec)))
        args += [flag, *draw(spec[flag])]
    if draw(st.integers(0, 9)) == 0:
        # --giuga-cap, a removed flag, must be refused like an unknown one
        stray = draw(st.sampled_from(("--nope", "--giuga-cap", "7", "-h")))
        args.insert(draw(st.integers(0, len(args))), stray)
    return [command] + args


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "list").write_text("# comment\n143\n341\n561\n\nx\n-7\n" + "9" * 30 + "\n15\n")
    (root / "empty").write_text("")
    (root / "dir").mkdir()
    return root


class TestMainFuzz:
    @settings(max_examples=300)
    @given(argv=_argv())
    def test_exit_code_and_no_traceback(self, argv, fuzz_files):
        argv = [
            str(fuzz_files / argv[i]) if i and argv[i - 1] == "--file" else argv[i]
            for i in range(len(argv))
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv


# Golden stdout: runs of main() whose stdout and exit code must not change.
# Windows of 2**12 near 10**7, across 2**32 and near 2**62; there, the
# classes that factor most n by rho search the middle 2**9 of the window.
_GOLDEN_WINDOWS = {
    "1e7": (10**7, 10**7 + (1 << 12)),
    "2^32": ((1 << 32) - (1 << 11), (1 << 32) + (1 << 11)),
    "2^62": ((1 << 62) - (1 << 11), (1 << 62) + (1 << 11)),
}
_RHO_BOUND_AT_2_62 = (
    "g_carmichael", "g_cyclic", "g_lehmer", "congruence_exception", "giuga"
)
_GOLDEN_SEARCHES = {
    **{which: [which] for which in CLASSIFIER_NAMES},
    **{f"gfp {base}": ["gfp", f"--base={base}"] for base in ("1+2i", "3+0i", "-2+5i")},
}


def _golden_argv(key):
    """The command line of one golden run: (search, window, filter, workers)
    or ("table", limit, None, workers)."""
    what, where, residue_filter, workers = key
    if what == "table":
        argv = ["table", "--limit", str(where)]
    else:
        lo, hi = _GOLDEN_WINDOWS[where]
        if where == "2^62" and what in _RHO_BOUND_AT_2_62:
            lo, hi = lo + (1 << 11) - (1 << 8), lo + (1 << 11) + (1 << 8)
        argv = ["search", *_GOLDEN_SEARCHES[what], "--lo", str(lo), "--hi", str(hi)]
    if residue_filter:
        argv += ["--filter", residue_filter]
    return argv + ["--workers", str(workers), "--quiet"]


def _golden_digest(argv):
    """First 16 hex digits of sha256(stdout + exit code) of main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return hashlib.sha256(f"{out.getvalue()}{code}".encode()).hexdigest()[:16]


_GOLDEN_KEYS = [
    (what, where, residue_filter, workers)
    for where in _GOLDEN_WINDOWS
    for what in _GOLDEN_SEARCHES
    for residue_filter in (None, "4,3")
    for workers in ((1,) if where == "2^62" else (1, 2))
] + [("table", 300_000, None, 1), ("table", 300_000, None, 2)]

# Recorded at commit 69bddf9, before the Gaussian totient sieve and the
# base-2 mask sieve took over g_cyclic, congruence_exception, carmichael
# and williams_1; the giuga runs at commit 30fcadc, while giuga still
# factored every n and ran only with its cap, since removed, lifted.
_GOLDEN = {
    ('g_carmichael', '1e7', None, 1): 'f16926a36093ed55',
    ('g_carmichael', '1e7', None, 2): 'f16926a36093ed55',
    ('g_carmichael', '1e7', '4,3', 1): '5feceb66ffc86f38',
    ('g_carmichael', '1e7', '4,3', 2): '5feceb66ffc86f38',
    ('carmichael', '1e7', None, 1): '5feceb66ffc86f38',
    ('carmichael', '1e7', None, 2): '5feceb66ffc86f38',
    ('carmichael', '1e7', '4,3', 1): '5feceb66ffc86f38',
    ('carmichael', '1e7', '4,3', 2): '5feceb66ffc86f38',
    ('g_cyclic', '1e7', None, 1): 'cbb06e0956fedeb2',
    ('g_cyclic', '1e7', None, 2): 'cbb06e0956fedeb2',
    ('g_cyclic', '1e7', '4,3', 1): '849206583d3a98c5',
    ('g_cyclic', '1e7', '4,3', 2): '849206583d3a98c5',
    ('g_lehmer', '1e7', None, 1): '5feceb66ffc86f38',
    ('g_lehmer', '1e7', None, 2): '5feceb66ffc86f38',
    ('g_lehmer', '1e7', '4,3', 1): '5feceb66ffc86f38',
    ('g_lehmer', '1e7', '4,3', 2): '5feceb66ffc86f38',
    ('congruence_exception', '1e7', None, 1): '4a98a7898a129971',
    ('congruence_exception', '1e7', None, 2): '4a98a7898a129971',
    ('congruence_exception', '1e7', '4,3', 1): 'b2f9416fd211bcfd',
    ('congruence_exception', '1e7', '4,3', 2): 'b2f9416fd211bcfd',
    ('giuga', '1e7', None, 1): '5f669c4fce3ee91c',
    ('giuga', '1e7', None, 2): '5f669c4fce3ee91c',
    ('giuga', '1e7', '4,3', 1): '9b31e89111538b96',
    ('giuga', '1e7', '4,3', 2): '9b31e89111538b96',
    ('williams_1', '1e7', None, 1): '5feceb66ffc86f38',
    ('williams_1', '1e7', None, 2): '5feceb66ffc86f38',
    ('williams_1', '1e7', '4,3', 1): '5feceb66ffc86f38',
    ('williams_1', '1e7', '4,3', 2): '5feceb66ffc86f38',
    ('twin_pair_product', '1e7', None, 1): '5feceb66ffc86f38',
    ('twin_pair_product', '1e7', None, 2): '5feceb66ffc86f38',
    ('twin_pair_product', '1e7', '4,3', 1): '5feceb66ffc86f38',
    ('twin_pair_product', '1e7', '4,3', 2): '5feceb66ffc86f38',
    ('gfp 1+2i', '1e7', None, 1): '82ede736df7fab4a',
    ('gfp 1+2i', '1e7', None, 2): '82ede736df7fab4a',
    ('gfp 1+2i', '1e7', '4,3', 1): '5feceb66ffc86f38',
    ('gfp 1+2i', '1e7', '4,3', 2): '5feceb66ffc86f38',
    ('gfp 3+0i', '1e7', None, 1): '73014412cc93c69f',
    ('gfp 3+0i', '1e7', None, 2): '73014412cc93c69f',
    ('gfp 3+0i', '1e7', '4,3', 1): 'fcff8b426118407d',
    ('gfp 3+0i', '1e7', '4,3', 2): 'fcff8b426118407d',
    ('gfp -2+5i', '1e7', None, 1): '59e04dc2edfdd1b9',
    ('gfp -2+5i', '1e7', None, 2): '59e04dc2edfdd1b9',
    ('gfp -2+5i', '1e7', '4,3', 1): '5feceb66ffc86f38',
    ('gfp -2+5i', '1e7', '4,3', 2): '5feceb66ffc86f38',
    ('g_carmichael', '2^32', None, 1): '21fea2db57c3110c',
    ('g_carmichael', '2^32', None, 2): '21fea2db57c3110c',
    ('g_carmichael', '2^32', '4,3', 1): '68c133d976a0c757',
    ('g_carmichael', '2^32', '4,3', 2): '68c133d976a0c757',
    ('carmichael', '2^32', None, 1): '5feceb66ffc86f38',
    ('carmichael', '2^32', None, 2): '5feceb66ffc86f38',
    ('carmichael', '2^32', '4,3', 1): '5feceb66ffc86f38',
    ('carmichael', '2^32', '4,3', 2): '5feceb66ffc86f38',
    ('g_cyclic', '2^32', None, 1): '40cb689e6118aa05',
    ('g_cyclic', '2^32', None, 2): '40cb689e6118aa05',
    ('g_cyclic', '2^32', '4,3', 1): 'b9ba9dc1acdaf8ce',
    ('g_cyclic', '2^32', '4,3', 2): 'b9ba9dc1acdaf8ce',
    ('g_lehmer', '2^32', None, 1): '68c133d976a0c757',
    ('g_lehmer', '2^32', None, 2): '68c133d976a0c757',
    ('g_lehmer', '2^32', '4,3', 1): '68c133d976a0c757',
    ('g_lehmer', '2^32', '4,3', 2): '68c133d976a0c757',
    ('congruence_exception', '2^32', None, 1): 'b505430e607d25b5',
    ('congruence_exception', '2^32', None, 2): 'b505430e607d25b5',
    ('congruence_exception', '2^32', '4,3', 1): 'c1cc727b081be3e1',
    ('congruence_exception', '2^32', '4,3', 2): 'c1cc727b081be3e1',
    ('giuga', '2^32', None, 1): 'b618fa093f8ca18f',
    ('giuga', '2^32', None, 2): 'b618fa093f8ca18f',
    ('giuga', '2^32', '4,3', 1): '205d63a937626d71',
    ('giuga', '2^32', '4,3', 2): '205d63a937626d71',
    ('williams_1', '2^32', None, 1): '5feceb66ffc86f38',
    ('williams_1', '2^32', None, 2): '5feceb66ffc86f38',
    ('williams_1', '2^32', '4,3', 1): '5feceb66ffc86f38',
    ('williams_1', '2^32', '4,3', 2): '5feceb66ffc86f38',
    ('twin_pair_product', '2^32', None, 1): '5feceb66ffc86f38',
    ('twin_pair_product', '2^32', None, 2): '5feceb66ffc86f38',
    ('twin_pair_product', '2^32', '4,3', 1): '5feceb66ffc86f38',
    ('twin_pair_product', '2^32', '4,3', 2): '5feceb66ffc86f38',
    ('gfp 1+2i', '2^32', None, 1): '1f54213c1c20f282',
    ('gfp 1+2i', '2^32', None, 2): '1f54213c1c20f282',
    ('gfp 1+2i', '2^32', '4,3', 1): '5feceb66ffc86f38',
    ('gfp 1+2i', '2^32', '4,3', 2): '5feceb66ffc86f38',
    ('gfp 3+0i', '2^32', None, 1): '774c10bb2225549e',
    ('gfp 3+0i', '2^32', None, 2): '774c10bb2225549e',
    ('gfp 3+0i', '2^32', '4,3', 1): '0093b78b81354f64',
    ('gfp 3+0i', '2^32', '4,3', 2): '0093b78b81354f64',
    ('gfp -2+5i', '2^32', None, 1): '21fea2db57c3110c',
    ('gfp -2+5i', '2^32', None, 2): '21fea2db57c3110c',
    ('gfp -2+5i', '2^32', '4,3', 1): '68c133d976a0c757',
    ('gfp -2+5i', '2^32', '4,3', 2): '68c133d976a0c757',
    ('g_carmichael', '2^62', None, 1): '24d31997061cf439',
    ('g_carmichael', '2^62', '4,3', 1): '5feceb66ffc86f38',
    ('carmichael', '2^62', None, 1): '5feceb66ffc86f38',
    ('carmichael', '2^62', '4,3', 1): '5feceb66ffc86f38',
    ('g_cyclic', '2^62', None, 1): '727f887e96137b5f',
    ('g_cyclic', '2^62', '4,3', 1): '213ad4d6e3fa45ad',
    ('g_lehmer', '2^62', None, 1): '5feceb66ffc86f38',
    ('g_lehmer', '2^62', '4,3', 1): '5feceb66ffc86f38',
    ('congruence_exception', '2^62', None, 1): '7e1269c9e782337f',
    ('congruence_exception', '2^62', '4,3', 1): 'c975425eb340a770',
    ('giuga', '2^62', None, 1): '4016b5c1886a1a62',
    ('giuga', '2^62', '4,3', 1): 'a91b4d42d2b30761',
    ('williams_1', '2^62', None, 1): '5feceb66ffc86f38',
    ('williams_1', '2^62', '4,3', 1): '5feceb66ffc86f38',
    ('twin_pair_product', '2^62', None, 1): '5feceb66ffc86f38',
    ('twin_pair_product', '2^62', '4,3', 1): '5feceb66ffc86f38',
    ('gfp 1+2i', '2^62', None, 1): '24d31997061cf439',
    ('gfp 1+2i', '2^62', '4,3', 1): '5feceb66ffc86f38',
    ('gfp 3+0i', '2^62', None, 1): 'ed4018819b84f4e7',
    ('gfp 3+0i', '2^62', '4,3', 1): '915b480b15c83af5',
    ('gfp -2+5i', '2^62', None, 1): '24d31997061cf439',
    ('gfp -2+5i', '2^62', '4,3', 1): '5feceb66ffc86f38',
    ('table', 300000, None, 1): '2d1bab472405157c',
    ('table', 300000, None, 2): '2d1bab472405157c',
}


class TestGoldenStdout:
    @pytest.mark.parametrize("key", _GOLDEN_KEYS, ids=lambda key: " ".join(map(str, key)))
    def test_stdout_and_exit_code_unchanged(self, key):
        assert _golden_digest(_golden_argv(key)) == _GOLDEN[key], _golden_argv(key)
