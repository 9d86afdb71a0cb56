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
