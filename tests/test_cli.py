import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "--file", str(tmp_path / "nope"), "--base", "1+2i"
        )
        assert code == 2
        assert "error" in err


class TestWorkersDefault:
    def test_env_override(self, monkeypatch):
        from gausspseudo.cli import _default_workers

        monkeypatch.setenv("GAUSSPSEUDO_WORKERS", "3")
        assert _default_workers() == 3
        monkeypatch.setenv("GAUSSPSEUDO_WORKERS", "junk")
        assert _default_workers() >= 1

    def test_default_is_available_cpus(self, monkeypatch):
        from gausspseudo.census import available_cpus
        from gausspseudo.cli import _default_workers

        monkeypatch.delenv("GAUSSPSEUDO_WORKERS", raising=False)
        assert _default_workers() == available_cpus()


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
_VALID_BASES = st.sampled_from(("1+2i", "1-2i", "1+1i", "3+0i", "0+3i", "-2+5i", "2+2i", "0+0i"))
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
        {**_COMMON, "--giuga": _FLAG, "--giuga-cap": _with_value(_BOUNDS)},
    ),
    "search": (
        st.builds(
            lambda which, hi, base: [which, "--hi", str(hi), "--base", base],
            st.sampled_from(CLASSIFIER_NAMES + ("gfp",)), st.integers(3, 10**4), _VALID_BASES,
        ),
        {**_COMMON, "--lo": _with_value(_BOUNDS), "--hi": _with_value(_BOUNDS),
         "--filter": _with_value(_FILTERS), "--base": _with_value(_BASES),
         "--workers": _with_value(_WORKERS), "--giuga-cap": _with_value(_BOUNDS)},
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
        args.insert(draw(st.integers(0, len(args))), draw(st.sampled_from(("--nope", "7", "-h"))))
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
