import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opmono.cli import main
from opmono import fixtures


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_free(self, capsys):
        code, out, _ = run(capsys, "count", "--regime", "free", "--d", "2",
                           "--r", "2", "--s", "2,1")
        assert code == 0 and out == "30\n"

    def test_comm_both(self, capsys):
        code, out, _ = run(capsys, "count", "--regime", "cm", "--d", "2",
                           "--r", "2", "--s", "2,1")
        assert code == 0 and out == "10\n"

    def test_oracle_route(self, capsys):
        code, out, _ = run(capsys, "count", "--regime", "c", "--d", "2",
                           "--r", "2", "--s", "2,1", "--oracle")
        assert code == 0 and out == "18\n"

    def test_work_limit_exit_code(self, capsys):
        code, out, err = run(capsys, "count", "--regime", "c", "--d", "2",
                             "--r", "1", "--s", "100000,100000")
        assert code == 3 and out == "" and err.startswith("error: ") and "cap" in err

    def test_oracle_multiset_cell(self, capsys):
        code, out, err = run(capsys, "count", "--oracle", "--regime", "m", "--d", "2",
                             "--r", "5", "--s", "2,2")
        assert code == 0 and out == "1195\n" and err == ""


class TestSequence:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "sequence", "--regime", "c", "--d", "2",
                           "--ell", "2", "--terms", "5")
        assert code == 0 and out == "1 3 10 38 156\n"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "sequence", "--regime", "free", "--d", "1",
                           "--ell", "2", "--terms", "3", "--format", "csv")
        assert out.splitlines() == ["n,value", "1,1", "2,2", "3,5"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sequence", "--regime", "m", "--d", "1",
                           "--ell", "2", "--terms", "4", "--format", "json")
        assert json.loads(out) == {"regime": "m", "d": 1, "ell": 2,
                                   "terms": [1, 2, 4, 9]}


class TestEnumerate:
    def test_listing_sorted(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--regime", "free", "--d", "1",
                           "--r", "2", "--s", "1")
        assert code == 0
        assert out.splitlines() == ["P1(**)", "*P1(*)", "P1(*)*"]

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--regime", "m", "--d", "2",
                           "--r", "2", "--s", "2,1", "--count-only")
        assert out == "17\n"

    def test_words(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--regime", "free", "--d", "1",
                           "--r", "1", "--s", "1", "--words")
        assert out == "(1 * )1\n"

    def test_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "--regime", "free", "--d", "3",
                           "--r", "9", "--s", "5,5,5", "--cap", "100")
        assert code == 3 and "cap" in err

    def test_determinism(self, capsys):
        args = ("enumerate", "--regime", "cm", "--d", "2", "--r", "3", "--s", "1,1")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestSeries:
    def test_tab_lines(self, capsys):
        code, out, _ = run(capsys, "series", "--regime", "free", "--d", "1",
                           "--ell", "2", "--order", "6")
        assert out.splitlines() == ["0\t0", "1\t0", "2\t1", "3\t0", "4\t2",
                                    "5\t0", "6\t5"]

    def test_closed_restricted_to_free(self, capsys):
        code, _, err = run(capsys, "series", "--regime", "c", "--d", "1",
                           "--ell", "2", "--order", "6", "--method", "closed")
        assert code == 2 and "free regime" in err

    def test_closed_prints_what_auto_prints(self, capsys):
        argv = ["series", "--regime", "free", "--d", "2", "--ell", "2", "--order", "12"]
        code, auto, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--method", "closed") == (0, auto, "")

    @pytest.mark.parametrize("method", ["fe", "newton", "euler"])
    def test_removed_methods_are_usage_errors(self, method):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            main(["series", "--regime", "free", "--d", "1", "--ell", "2", "--order", "4",
                  "--method", method])
        assert exc.value.code == 2

    def test_order_below_ell(self, capsys):
        for regime in ("free", "c", "m", "cm"):
            code, out, err = run(capsys, "series", "--regime", regime, "--d", "1",
                                 "--ell", "3", "--order", "2")
            assert code == 2 and out == "" and "order" in err


class TestGrowth:
    def test_exact(self, capsys):
        code, out, _ = run(capsys, "growth", "--regime", "free", "--d", "2", "--ell", "2")
        assert out == "g = 2.414214  rho = 0.414214\n"

    def test_estimate(self, capsys):
        code, out, _ = run(capsys, "growth", "--regime", "cm", "--d", "2",
                           "--ell", "2", "--n", "50")
        assert out.startswith("g_hat = 2.03") and "(n=50)" in out

    @pytest.mark.parametrize("tol", ["1e300", "0.5", "0.1", "1e-2", "1e-4", "1e-7", "1e-9"])
    def test_prints_only_certified_digits(self, capsys, tol):
        # free d=2 ell=2: g* = 1 + sqrt(2), rho* = sqrt(2) - 1; each printed
        # value, at its printed decimals, is the rounding of the true one
        code, out, err = run(capsys, "growth", "--regime", "free", "--d", "2",
                             "--ell", "2", "--tol", tol)
        if tol in ("1e300", "0.5", "0.1"):
            assert code == 2 and out == "" and err.startswith("error: ") and "tol" in err
            return
        assert code == 0
        g, rho = out.split()[2], out.split()[5]
        sqrt2 = Fraction(math.isqrt(2 * 10 ** 80), 10 ** 40)
        for text, true in ((g, 1 + sqrt2), (rho, sqrt2 - 1)):
            places = len(text.partition(".")[2])
            assert places <= 6
            assert abs(Fraction(text) - true) < Fraction(1, 2 * 10 ** places)

    # each regime reads one of --tol and --n, and checks both
    @pytest.mark.parametrize("regime,flag,value", [
        *[pytest.param("free", "--tol", tol, id=tol) for tol in ("inf", "nan", "0", "-1")],
        pytest.param("m", "--tol", "-5", id="m-tol-neg"),
        pytest.param("cm", "--tol", "nan", id="cm-tol-nan"),
        pytest.param("free", "--n", "-5", id="free-n-neg"),
        pytest.param("c", "--n", "0", id="c-n0"),
    ])
    def test_tol_must_be_finite_and_positive(self, capsys, regime, flag, value):
        code, out, err = run(capsys, "growth", "--regime", regime, "--d", "2",
                             "--ell", "2", flag, value)
        assert code == 2 and out == ""
        assert err == ("error: need d >= 1, ell >= 1 and a finite tol > 0\n" if flag == "--tol"
                       else "error: n must be >= 1\n")


class TestModels:
    def test_paths_counts(self, capsys):
        code, out, _ = run(capsys, "paths", "--d", "2", "--ell", "3",
                           "--span", "10", "--check", "--count-only")
        assert out == "21\n"

    def test_paths_listing(self, capsys):
        code, out, _ = run(capsys, "paths", "--d", "1", "--ell", "1", "--span", "3")
        assert out.splitlines() == ["H H H", "U1 H D"]

    def test_trees_counts(self, capsys):
        code, out, _ = run(capsys, "trees", "--d", "3", "--vertices", "3",
                           "--check", "--count-only")
        assert out == "16\n"

    def test_trees_listing(self, capsys):
        code, out, _ = run(capsys, "trees", "--d", "1", "--vertices", "2")
        assert out.splitlines() == ["((. - .) - .)", "(. 1 (. - .))"]

    @pytest.mark.parametrize("argv", [
        ["paths", "--d", "1", "--ell", "1", "--span", "1100", "--count-only"],
        ["trees", "--d", "1", "--vertices", "1100", "--count-only"],
        ["paths", "--d", "3", "--ell", "1", "--span", "1000000000", "--count-only"],
    ], ids=["paths", "trees", "paths-huge-span"])
    def test_over_the_cap_exits_3_at_once(self, capsys, argv):
        # the count is predicted before any listing, so no RecursionError
        # and no wait
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "above the cap 10000000" in err

    def test_prefixes_that_cannot_close_are_not_searched(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "paths", "--d", "2", "--ell", "50", "--span", "49",
                           "--count-only")
        assert code == 0 and out == "0\n"
        code, out, _ = run(capsys, "paths", "--d", "2", "--ell", "2", "--span", "41",
                           "--count-only")
        assert code == 0 and out == "0\n"
        assert time.perf_counter() - start < 1.0


class TestVerifyAndBfile:
    def test_bundled_fixtures_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "0 mismatches" in out
        assert "MISMATCH" not in out

    def test_missing_fixture_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", str(tmp_path / "missing.txt"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_corrupted_fixture_detected(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("seq A000108 free d=1 ell=2 offset=1: 1,2,5,14,43\n")
        code, out, _ = run(capsys, "verify", str(f))
        assert code == 1
        assert "MISMATCH" in out and "index 4" in out

    def test_fixture_line_missing_a_key_exits_2(self, capsys, tmp_path):
        f = tmp_path / "short.txt"
        f.write_text("seq A free ell=1 offset=1: 1\n")
        code, out, err = run(capsys, "verify", str(f))
        assert (code, out) == (2, "")
        assert err == "error: fixture line 1: missing key 'd'\n"

    @pytest.mark.parametrize("line,message", [
        ("seq A free d=x ell=1 offset=1: 1", "d is not an integer: 'x'"),
        ("seq A q d=1 ell=1 offset=1: 1", "unknown regime code 'q'"),
    ])
    def test_fixture_line_bad_value_exits_2(self, capsys, tmp_path, line, message):
        f = tmp_path / "bad.txt"
        f.write_text(line + "\n")
        code, out, err = run(capsys, "verify", str(f))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: fixture line 1: {message}")

    def test_bfile(self, capsys):
        code, out, _ = run(capsys, "bfile", "--regime", "free", "--d", "2",
                           "--ell", "2", "--terms", "5")
        assert out.splitlines() == ["1 1", "2 3", "3 11", "4 45", "5 197"]

    def test_bfile_comm_unary(self, capsys):
        code, out, _ = run(capsys, "bfile", "--regime", "c", "--d", "4",
                           "--ell", "1", "--terms", "6")
        assert [line.split()[1] for line in out.splitlines()] == [
            "1", "1", "5", "13", "35", "119"]

    def test_bfile_offset_zero_prepends_empty_object(self, capsys):
        _, with0, _ = run(capsys, "bfile", "--regime", "free", "--d", "2",
                          "--ell", "2", "--terms", "6", "--offset", "0")
        _, with1, _ = run(capsys, "bfile", "--regime", "free", "--d", "2",
                          "--ell", "2", "--terms", "5", "--offset", "1")
        assert with0.splitlines() == ["0 1"] + with1.splitlines()

    def test_bfile_raw_length(self, capsys):
        _, out, _ = run(capsys, "bfile", "--regime", "free", "--d", "1",
                        "--ell", "2", "--terms", "6", "--raw-length")
        assert out.splitlines() == ["1 0", "2 1", "3 0", "4 2", "5 0", "6 5"]


class TestTable:
    def test_csv_grid(self, capsys):
        code, out, _ = run(capsys, "table", "--regime", "free", "--d", "1",
                           "--rmax", "2", "--smax", "2", "--format", "csv")
        assert out.splitlines() == ["r,s,value", "1,0,1", "1,1,1", "1,2,1",
                                    "2,0,1", "2,1,3", "2,2,6"]

    def test_many_labels(self, capsys):
        # the grid walks the compositions of |s| in a loop, and a count
        # reads the layer over the labels s uses, so d = 1200 is one row
        code, out, err = run(capsys, "table", "--regime", "c", "--d", "1200",
                             "--rmax", "1", "--smax", "0")
        assert code == 0 and err == ""
        assert out.splitlines() == ["r\ts\tvalue", "1\t" + ";".join(["0"] * 1200) + "\t1"]

    def test_oversized_table_exits_3_before_any_count(self, capsys):
        # (50 + 4)*2*C(29, 4) + C(33, 8) = 16,449,264 predicted terms
        start = time.perf_counter()
        code, out, err = run(capsys, "table", "--regime", "c", "--d", "4",
                             "--rmax", "2", "--smax", "25")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err == "error: the table would read 16449264 terms, above the cap 10000000\n"

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_rows_are_printed_as_they_are_counted(self, monkeypatch, fmt):
        # no list holds the rows: before each count, the header and every
        # row counted so far are on stdout
        from opmono import counting

        out, printed, real = io.StringIO(), [], counting.count

        def count(*args):
            printed.append(out.getvalue().count("\n"))
            return real(*args)

        monkeypatch.setattr(counting, "count", count)
        with contextlib.redirect_stdout(out):
            code = main(["table", "--regime", "c", "--d", "1", "--rmax", "2",
                         "--smax", "2", "--format", fmt])
        assert code == 0 and printed == [1, 2, 3, 4, 5, 6]
        assert len(out.getvalue().splitlines()) == 7

    def test_no_labels(self, capsys):
        code, out, err = run(capsys, "table", "--regime", "c", "--d", "0",
                             "--rmax", "1", "--smax", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nosuch"])
        assert exc.value.code == 2

    def test_bad_multiplicities(self, capsys):
        code, _, err = run(capsys, "count", "--regime", "free", "--d", "2",
                           "--r", "2", "--s", "nope")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["paths", "--d", "1", "--ell", "0", "--span", "4"],
        ["paths", "--d", "0", "--ell", "1", "--span", "4"],
        ["paths", "--d", "1", "--ell", "1", "--span", "-1"],
        ["trees", "--d", "0", "--vertices", "3"],
        ["trees", "--d", "1", "--vertices", "-1"],
        ["enumerate", "--regime", "free", "--d", "1", "--r", "2", "--s", "1", "--cap", "-1"],
        ["count", "--oracle", "--regime", "m", "--d", "1", "--r", "2", "--s", "1",
         "--cap", "-1"],
    ], ids=["paths-ell0", "paths-d0", "paths-span-neg", "trees-d0", "trees-neg",
            "enumerate-cap-neg", "count-oracle-cap-neg"])
    def test_bad_model_sizes(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["table", "--regime", "free", "--d", "1", "--rmax", "0", "--smax", "2"],
        ["table", "--regime", "c", "--d", "2", "--rmax", "2", "--smax", "-1"],
        ["bfile", "--regime", "free", "--d", "1", "--ell", "2", "--terms", "0"],
        ["bfile", "--regime", "m", "--d", "1", "--ell", "2", "--terms", "0",
         "--raw-length"],
        ["bfile", "--regime", "cm", "--d", "1", "--ell", "1", "--terms", "0",
         "--offset", "0"],
    ], ids=["table-rmax0", "table-smax-neg", "bfile-terms0", "bfile-raw-terms0",
            "bfile-offset0-terms0"])
    def test_empty_requests(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestFixtureParsing:
    def test_parse_errors(self):
        with pytest.raises(ValueError):
            fixtures.parse_fixtures("seq X free d=1 ell=1 offset=1 1,2,3")  # no colon
        with pytest.raises(ValueError):
            fixtures.parse_fixtures("bogus X free d=1: 1")
        with pytest.raises(ValueError):
            fixtures.parse_fixtures("seq X zz d=1 ell=1 offset=1: 1")
        with pytest.raises(ValueError):
            fixtures.parse_fixtures("arow X m d=2 r=2: 1,2")

    @pytest.mark.parametrize("line,message", [
        ("seq X: 1", "too few fields"),
        ("seq X free d=1 ell=1 offset: 1", "expected key=value, got 'offset'"),
        ("seq X free d=1 ell=1 offset=1: ,", "no terms"),
        ("count X c d=1 r=2 s=1 ell=2: 3", "unexpected keys ['ell']"),
    ])
    def test_more_parse_errors(self, line, message):
        with pytest.raises(ValueError, match=re.escape(f"fixture line 1: {message}")):
            fixtures.parse_fixtures(line)

    @pytest.mark.parametrize("line,key", [
        ("seq A free ell=1 offset=1: 1", "d"),
        ("seq A free d=1 offset=1: 1", "ell"),
        ("seq A free d=1 ell=1: 1", "offset"),
        ("arow A free r=1: 1", "d"),
        ("arow A free d=1: 1", "r"),
        ("count A free r=1 s=1: 1", "d"),
        ("count A free d=1 s=1: 1", "r"),
        ("count A free d=1 r=1: 1", "s"),
    ])
    def test_missing_key(self, line, key):
        with pytest.raises(ValueError, match=re.escape(f"fixture line 1: missing key {key!r}")):
            fixtures.parse_fixtures(line)

    @pytest.mark.parametrize("line,message", [
        ("seq A free d=x ell=1 offset=1: 1", "d is not an integer: 'x'"),
        ("seq A free d=1 ell=1.5 offset=1: 1", "ell is not an integer: '1.5'"),
        ("seq A free d=1 ell=1 offset=: 1", "offset is not an integer: ''"),
        ("arow A free d=1 r=two: 1", "r is not an integer: 'two'"),
        ("count A free d=2 r=1 s=1,y: 1", "s is not an integer: 'y'"),
        ("seq A free d=1 ell=1 offset=1: 1,2,z", "term is not an integer: 'z'"),
        ("seq A zz d=1 ell=1 offset=1: 1", "unknown regime code 'zz'"),
    ])
    def test_bad_value_names_the_line(self, line, message):
        with pytest.raises(ValueError, match=re.escape(f"fixture line 2: {message}")):
            fixtures.parse_fixtures("# a comment\n" + line)

    def test_offset_zero_entry(self):
        (e,) = fixtures.parse_fixtures(
            "seq A000108 free d=1 ell=2 offset=0: 1,1,2,5,14")
        assert fixtures.check_entry(e) is None

    def test_comments_and_blanks_skipped(self):
        entries = fixtures.parse_fixtures("# hi\n\nseq A free d=1 ell=1 offset=1: 1\n")
        assert len(entries) == 1


class TestFreshProcess:
    """The package as a user starts it: a new interpreter with src on the path."""

    SRC = str(Path(__file__).resolve().parent.parent / "src")
    README = str(Path(__file__).resolve().parent.parent / "README.md")

    def python(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [self.SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)

    def test_import_leaves_mpmath_unloaded(self):
        proc = self.python("-c", "import sys, opmono; print('mpmath' in sys.modules)")
        assert proc.returncode == 0 and proc.stdout == "False\n"

    SHOW_MODULES = ("import sys\n"
                    "print(*sorted(m for m in sys.modules if m.startswith('opmono')))\n"
                    "print(*[m for m in ('dataclasses', 'mpmath', 'fractions', 'json')"
                    " if m in sys.modules])\n")

    def test_import_loads_no_submodule(self):
        proc = self.python("-c", "import opmono\n" + self.SHOW_MODULES)
        assert proc.returncode == 0 and proc.stdout.splitlines() == ["opmono", ""]

    @pytest.mark.parametrize("argv,want", [
        (["count", "--regime", "cm", "--d", "2", "--r", "3", "--s", "1,1"], ["12"]),
        (["sequence", "--regime", "cm", "--d", "2", "--ell", "2", "--terms", "3"],
         ["1 3 8"]),
        (["bfile", "--regime", "cm", "--d", "2", "--ell", "2", "--terms", "3"],
         ["1 1", "2 3", "3 8"]),
    ], ids=["count", "sequence", "bfile"])
    def test_count_loads_only_counting_and_monomial(self, argv, want):
        proc = self.python("-c", f"from opmono.cli import main\nprint(main({argv!r}))\n"
                           + self.SHOW_MODULES)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            *want, "0", "opmono opmono.cli opmono.counting opmono.monomial", ""]

    def test_series_loads_no_fractions(self):
        argv = ["series", "--regime", "m", "--d", "1", "--ell", "2", "--order", "4"]
        proc = self.python("-c", "import opmono.series\n" + self.SHOW_MODULES
                           + f"from opmono.cli import main\nprint(main({argv!r}))\n"
                           + self.SHOW_MODULES)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "opmono opmono.counting opmono.monomial opmono.series", "",
            "0\t0", "1\t0", "2\t1", "3\t0", "4\t2", "0",
            "opmono opmono.cli opmono.counting opmono.monomial opmono.series", ""]

    def test_count_over_the_work_limit_exits_3_at_once(self):
        # the cap is predicted before any work and mapped to exit 3 without
        # loading the oracle or json
        argv = ["count", "--regime", "c", "--d", "2", "--r", "1", "--s", "100000,100000"]
        proc = self.python("-c", "import time\nfrom opmono.cli import main\n"
                           f"t = time.perf_counter()\nrc = main({argv!r})\n"
                           "print(rc, time.perf_counter() - t < 1.0)\n" + self.SHOW_MODULES)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "3 True", "opmono opmono.cli opmono.counting opmono.monomial", ""]
        assert proc.stderr.startswith("error: count at r=1")

    def test_free_count_over_its_bit_cap_exits_3_at_once(self):
        argv = ["count", "--regime", "free", "--d", "2", "--r", "1", "--s", "300000,300000"]
        proc = self.python("-c", "import time\nfrom opmono.cli import main\n"
                           f"t = time.perf_counter()\nrc = main({argv!r})\n"
                           "print(rc, time.perf_counter() - t < 0.2)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "3 True\n"
        assert proc.stderr.startswith("error: the free count at r=1")
        proc = self.python("-m", "opmono.cli", *argv)
        assert proc.returncode == 3 and proc.stdout == ""

    def test_oversized_free_table_exits_3_at_once(self):
        # 20*2*C(64, 4) = 25,415,040 predicted terms for 1,270,752 free cells
        argv = ["table", "--regime", "free", "--d", "4", "--rmax", "2", "--smax", "60"]
        proc = self.python("-c", "import time\nfrom opmono.cli import main\n"
                           f"t = time.perf_counter()\nrc = main({argv!r})\n"
                           "print(rc, time.perf_counter() - t < 0.2)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "3 True\n"
        assert proc.stderr == "error: the table would read 25415040 terms, above the cap 10000000\n"

    def test_count_of_more_than_4300_digits_prints(self):
        argv = ["count", "--regime", "free", "--d", "2", "--r", "1", "--s", "8000,8000"]
        proc = self.python("-c", "import contextlib, io\n"
                           "from opmono import Regime, counting\nfrom opmono.cli import main\n"
                           "out = io.StringIO()\nwith contextlib.redirect_stdout(out):\n"
                           f"    rc = main({argv!r})\n"
                           "want = str(counting.count(Regime.FREE, 2, 1, (8000, 8000)))\n"
                           "print(rc, len(want) > 4300, out.getvalue() == want + '\\n')\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 True True\n"

    def test_growth_and_readme_need_no_mpmath(self):
        # with the mpmath import blocked, each regime prints what it printed
        # when growth was computed with mpmath, and the README doctest passes
        calls = [["free", "2", "2"], ["c", "3", "2"], ["m", "1", "2"], ["cm", "2", "2"]]
        proc = self.python("-c", "import sys\nsys.modules['mpmath'] = None\n"
                           "from opmono.cli import main\n"
                           f"for r, d, ell in {calls!r}:\n"
                           "    main(['growth', '--regime', r, '--d', d, '--ell', ell])\n"
                           "import doctest\n"
                           f"print(doctest.testfile({self.README!r}, module_relative=False))\n")
        assert proc.returncode == 0, proc.stderr
        *growth, summary = proc.stdout.splitlines()
        assert growth == ["g = 2.414214  rho = 0.414214", "g = 2.606241  rho = 0.383694",
                          "g_hat = 1.719351  (n=100)", "g_hat = 2.034342  (n=100)"]
        assert summary.startswith("TestResults(failed=0, attempted=")

    def test_growth_still_prints_g(self):
        proc = self.python("-m", "opmono.cli", "growth", "--regime", "free",
                           "--d", "2", "--ell", "2")
        assert proc.returncode == 0
        assert proc.stdout == "g = 2.414214  rho = 0.414214\n"


# Random argv: each subcommand's options, most of them present, with small
# values (and some junk) so every call stays cheap, and now and then an option
# from another subcommand.
_SMALL = st.integers(-1, 4).map(str)
_VALUES = {
    "--regime": st.sampled_from(["free", "c", "m", "cm"]),
    "--r": _SMALL,
    "--ell": _SMALL,
    "--terms": st.integers(-1, 12).map(str),
    "--order": st.integers(-1, 12).map(str),
    "--rmax": st.integers(-1, 3).map(str),
    "--smax": st.integers(-1, 3).map(str),
    "--span": st.integers(-1, 8).map(str),
    "--vertices": st.integers(-1, 5).map(str),
    "--n": st.integers(-1, 20).map(str),
    "--offset": st.integers(-1, 2).map(str),
    "--cap": st.integers(-1, 20).map(str),
    "--tol": (st.floats() | st.sampled_from([math.inf, math.nan, 1e-300, 0.0])).map(repr),
    "--method": st.sampled_from(["auto", "closed"]),
    "--format": st.sampled_from(["plain", "csv", "json"]),
}
_OPTIONS = {  # flags take no value
    "count": ["--regime", "--d", "--r", "--s", "--oracle", "--cap"],
    "sequence": ["--regime", "--d", "--ell", "--terms", "--format"],
    "table": ["--regime", "--d", "--rmax", "--smax", "--format"],
    "enumerate": ["--regime", "--d", "--r", "--s", "--count-only", "--words", "--cap"],
    "series": ["--regime", "--d", "--ell", "--order", "--method"],
    "growth": ["--regime", "--d", "--ell", "--tol", "--n"],
    "paths": ["--d", "--ell", "--span", "--check", "--count-only"],
    "trees": ["--d", "--vertices", "--check", "--count-only"],
    "verify": [],
    "bfile": ["--regime", "--d", "--ell", "--terms", "--offset", "--raw-length"],
}


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(sorted(_OPTIONS)))
    d = draw(st.integers(0, 3))
    svec = st.lists(st.integers(0, 2), min_size=d, max_size=d).map(
        lambda s: ",".join(map(str, s)))
    junk = st.sampled_from(["", "1,,2", "a", "-1", "1,2,3,4"])
    values = dict(_VALUES, **{"--d": st.just(str(d)),
                              "--s": st.integers(0, 3).flatmap(lambda k: svec if k else junk)})
    opts = [o for o in _OPTIONS[cmd] if draw(st.integers(0, 9))]
    if not draw(st.integers(0, 9)):
        opts.append(draw(st.sampled_from(sorted(values))))
    argv = [cmd]
    for opt in draw(st.permutations(opts)):
        argv += [opt, draw(values[opt])] if opt in values else [opt]
    if cmd == "verify" and draw(st.booleans()):
        argv.append(draw(st.sampled_from(["no/such/file", "."])))
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_fuzz_main_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the argv
            assert e.code == 2, argv
            return
    assert code in (0, 1, 2, 3), argv
    lines = err.getvalue().splitlines()
    assert all(line.startswith("error: ") for line in lines), (argv, lines)
    assert (code == 0) == (not lines), (argv, code, lines)
