"""Batch front end: verbs, formats, exit codes."""
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cyclide import serialize
from cyclide.cli import main
from cyclide.errors import ParseError
from cyclide.serialize import parse_coefficients

TORUS_JSON = '{"a0":1,"c1":"-10","c2":"-10","c3":"6","f0":"9"}'

# the environment of a `python -m cyclide.cli` child: src first on its path,
# so the subprocess tests need no install
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line.strip()]


class TestVerbs:
    def test_recognize_torus(self, capsys):
        code, rows = run_cli(["recognize", "--exact", TORUS_JSON], capsys)
        assert code == 0
        assert rows[0]["kind"] == "DupinQuartic" and rows[0]["case"] == "e"

    def test_classify_torus(self, capsys):
        code, rows = run_cli(["classify", "--exact", TORUS_JSON], capsys)
        assert code == 0
        assert rows[0]["class"] == "SM" and rows[0]["J0"] == "3/16"

    def test_j0(self, capsys):
        code, rows = run_cli(["j0", TORUS_JSON], capsys)
        assert code == 0 and rows[0]["J0"] == "3/16"

    def test_to_torus(self, capsys):
        code, rows = run_cli(["to-torus", TORUS_JSON], capsys)
        assert code == 0
        assert rows[0]["torus"] == {"r_sq": 1, "R_sq": 4}
        assert rows[0]["canonical"]["alpha_sq"] == 4

    def test_canonicalize_cubic(self, capsys):
        cubic = '{"b1":1,"c2":-2,"c3":2,"e1":-1}'
        code, rows = run_cli(["canonicalize", cubic], capsys)
        assert code == 0
        assert rows[0]["canonical"]["p"] == -2 and rows[0]["canonical"]["q"] == 2


class TestExitCodes:
    def test_zero_polynomial(self, capsys):
        code, rows = run_cli(["recognize", "{}"], capsys)
        assert code == 2 and rows[0] == {"error": "zero polynomial"}

    def test_unknown_key(self, capsys):
        code = main(["recognize", '{"a0":1,"zz":2}'])
        assert code == 2

    def test_float_literal_rejected_in_exact_mode(self, capsys):
        code = main(["recognize", '{"a0":1,"c1":0.5}'])
        assert code == 2

    def test_missing_file(self, capsys):
        assert main(["recognize", "/nonexistent/path.jsonl"]) == 2

    # a NaN, an infinity, and values beyond the float range (a decimal
    # string and a JSON int) are input errors in float mode
    @pytest.mark.parametrize("c1", ["NaN", "Infinity", '"1e400"', "1" + "0" * 400],
                             ids=["nan", "infinity", "1e400-string", "huge-int"])
    def test_non_finite_float_coefficient(self, c1, capsys):
        code = main(["to-torus", "--float",
                     '{"a0":1,"c1":%s,"c2":-10,"c3":6,"f0":9}' % c1])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("cyclide: input error:")
        assert "finite" in captured.err

    @pytest.mark.parametrize("mode", ["--exact", "--float"])
    def test_huge_decimal_exponent_is_an_input_error(self, mode, capsys):
        code = main(["classify", mode, '{"a0":1,"c1":"-10","c2":-10,"f0":"1e4000000"}'])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("cyclide: input error: key 'f0': ")
        assert "decimal exponent beyond the int-to-str digit limit" in captured.err

    # huge and tiny finite cubics: a huge b over a quartic remainder below
    # tolerance (1e100, 1e200), and the 1e200 and 1e-200 multiples of
    # CUBIC22, whose recentering at their own scale overflows or underflows;
    # worked at the gauge, each gives strict JSON and no error, and the
    # CUBIC22 multiples give the exact class and (p, q)
    @pytest.mark.parametrize("row, pair", [
        ('{"a0":1,"b1":1e100,"c1":-10,"c2":-10,"c3":6,"f0":9}', None),
        ('{"a0":1,"b1":1e200,"c1":-10,"c2":-10,"c3":6,"f0":9}', None),
        ('{"b1":1e200,"c2":-2e200,"c3":2e200,"e1":-1e200}', (-2, 2)),
        ('{"b1":1e-200,"c2":-2e-200,"c3":2e-200,"e1":-1e-200}', (-2, 2))],
        ids=["overflow", "nan-pair", "nan-class", "underflow"])
    @pytest.mark.parametrize("verb", ["classify", "to-torus"])
    def test_float_cubic_beyond_range(self, verb, row, pair, capsys):
        assert main([verb, "--float", row]) == 0
        out = capsys.readouterr().out
        report = json.loads(out, parse_constant=pytest.fail)
        assert "error" not in report and report["kind"] == "DupinCubic"
        if pair is not None:
            assert report["class"] == "SM"
            got = (report["canonical"]["p"], report["canonical"]["q"])
            assert got == pytest.approx(pair, rel=1e-12)

    # b tiny next to f0 at a tolerance of 0: B0^4 underflows at the gauge,
    # so float mode refuses the row; exact mode decides it
    @pytest.mark.parametrize("f0", ["1e300", "1e200"])
    def test_float_cubic_with_underflowing_b0_is_refused(self, f0, capsys):
        code, rows = run_cli(["recognize", "--float", "--tol", "0",
                              '{"b1":1,"f0":%s}' % f0], capsys)
        assert code == 0
        assert rows[0]["error"].startswith("PreconditionError: ")
        assert "use exact mode" in rows[0]["error"]
        code, rows = run_cli(["recognize", "--exact", '{"b1":1,"f0":"%s"}' % f0], capsys)
        assert code == 0 and rows[0]["kind"] == "NotDupin"
        assert rows[0]["witness"]["name"] == "4f0*B0^4-Q"

    def test_huge_cubic_is_exact_in_exact_mode(self, capsys):
        for k in ("200", "400"):
            row = {"b1": f"1e{k}", "c2": f"-2e{k}", "c3": f"2e{k}", "e1": f"-1e{k}"}
            code, rows = run_cli(["classify", "--exact", json.dumps(row)], capsys)
            assert code == 0 and rows[0]["class"] == "SM"
            assert (rows[0]["canonical"]["p"], rows[0]["canonical"]["q"]) == (-2, 2)

    @pytest.mark.parametrize("verb", ["recognize", "classify"])
    def test_value_too_long_to_print_is_an_error_row(self, verb, tmp_path, capsys):
        # residuals of c1 = 10^2200 exceed the int-to-str digit limit; a0 = 3
        # makes them "p/q" values at the caller's scale
        long_rows = ['{"a0": %d, "c1": "1e2200", "c2": 1, "e1": 1, "e2": 1}' % a0
                     for a0 in (1, 3)]
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join([TORUS_JSON, *long_rows, TORUS_JSON]) + "\n")
        code, rows = run_cli([verb, "--exact", str(path)], capsys)
        assert code == 0 and len(rows) == 4
        assert rows[0] == rows[3] and rows[0]["kind"] == "DupinQuartic"
        for row in rows[1:3]:
            assert list(row) == ["error"]
            assert row["error"].startswith("TooManyDigits: ")
            assert "--float" in row["error"]

    # 1000 {"coefficients": ...} wrappers (18 KB) are deeper than the JSON
    # decoder follows
    NESTED = '{"coefficients": ' * 1000 + TORUS_JSON + "}" * 1000

    @pytest.mark.parametrize("where", ["file", "inline"])
    def test_json_nested_too_deeply(self, where, tmp_path, capsys):
        arg = self.NESTED
        if where == "file":
            arg = str(tmp_path / "nested.jsonl")
            Path(arg).write_text(self.NESTED + "\n")
        assert main(["recognize", arg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cyclide: input error:")
        assert "nested too deeply" in captured.err

    def test_wrappers_unwrap_without_recursion(self):
        obj = json.loads(TORUS_JSON)
        for _ in range(5000):
            obj = {"coefficients": obj}
        assert parse_coefficients(obj) == parse_coefficients(json.loads(TORUS_JSON))

    def test_csv_field_over_the_csv_limit(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        row = ["1", "0", "0", "0", "-10", "-10", "6", "0", "0", "0", "0", "0", "0",
               "9" * 131073]
        path.write_text("a0,b1,b2,b3,c1,c2,c3,d1,d2,d3,e1,e2,e3,f0\n"
                        + ",".join(row) + "\n")
        assert main(["recognize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cyclide: input error: CSV line 2: ")
        assert "field limit" in captured.err

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(TORUS_JSON.replace("9", "\xff9").encode("latin-1") + b"\n")
        assert main(["recognize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cyclide: input error: input is not UTF-8")

    # a JSON integer literal beyond int()'s 4300-digit limit
    LONG_INT = '{"a0":1,"c1":-10,"c2":-10,"c3":6,"f0":%s}' % ("9" * 4301)

    @pytest.mark.parametrize("where", ["file", "inline"])
    def test_json_integer_literal_too_long(self, where, tmp_path, capsys):
        arg = self.LONG_INT
        if where == "file":
            arg = str(tmp_path / "long.jsonl")
            Path(arg).write_text(TORUS_JSON + "\n" + self.LONG_INT + "\n")
        assert main(["recognize", arg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "line 2: " if where == "file" else ""
        assert captured.err.startswith(
            f"cyclide: input error: {prefix}JSON integer literal too long")

    def test_csv_line_after_a_multi_line_cell(self, tmp_path, capsys):
        # the quoted cell of the first row spans file lines 2 and 3, so the
        # bad row is file line 4
        path = tmp_path / "multi.csv"
        path.write_text("a0,b1,b2,b3,c1,c2,c3,d1,d2,d3,e1,e2,e3,f0\n"
                        '1,0,0,0,-10,-10,6,0,0,0,0,0,0,"9\n"\n'
                        "1,0,0,0,-10,-10,6,0,0,0,0,0,x,9\n")
        assert main(["recognize", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "cyclide: input error: CSV line 4, column e3: ")

    def test_csv_long_cell_message_is_cut(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        row = ["1", "0", "0", "0", "-10", "-10", "6", "0", "0", "0", "0", "0", "0",
               "9" * 5001]
        path.write_text("a0,b1,b2,b3,c1,c2,c3,d1,d2,d3,e1,e2,e3,f0\n"
                        + ",".join(row) + "\n")
        assert main(["recognize", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cyclide: input error: CSV line 2, column f0: "
                              "cannot parse coefficient '" + "9" * 39 + ": ")
        assert "Exceeds the limit" in err and len(err) < 300

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_invalid_tol_flag(self, tol, capsys):
        assert main(["recognize", "--float", "--tol", tol, TORUS_JSON]) == 2
        assert capsys.readouterr().err.startswith("cyclide: input error:")

    def test_invalid_tol_env(self, monkeypatch, capsys):
        monkeypatch.setenv("CYCLIDE_TOL", "abc")
        assert main(["recognize", "--float", TORUS_JSON]) == 2
        assert capsys.readouterr().err.startswith("cyclide: input error:")


class TestBatch:
    def test_jsonl_file(self, tmp_path, capsys):
        path = tmp_path / "batch.jsonl"
        path.write_text(TORUS_JSON + "\n" + '{"b1":1,"c2":-2,"c3":2,"e1":-1}' + "\n")
        code, rows = run_cli(["recognize", str(path)], capsys)
        assert code == 0
        assert [r["kind"] for r in rows] == ["DupinQuartic", "DupinCubic"]

    def test_csv(self, tmp_path, capsys):
        path = tmp_path / "batch.csv"
        header = "a0,b1,b2,b3,c1,c2,c3,d1,d2,d3,e1,e2,e3,f0"
        path.write_text(header + "\n1,0,0,0,-10,-10,6,0,0,0,0,0,0,9\n")
        code, rows = run_cli(["recognize", str(path)], capsys)
        assert code == 0 and rows[0]["kind"] == "DupinQuartic"

    CSV_TORUS = ("a0,b1,b2,b3,c1,c2,c3,d1,d2,d3,e1,e2,e3,f0\n"
                 "1,0,0,0,-10,-10,6,0,0,0,0,0,0,9\n")

    @pytest.mark.parametrize("where", ["file", "stdin"])
    @pytest.mark.parametrize("text", [TORUS_JSON + "\n", CSV_TORUS], ids=["jsonl", "csv"])
    def test_byte_order_mark_is_dropped(self, text, where, tmp_path, monkeypatch, capsys):
        # spreadsheet "CSV UTF-8" exports and some editors start the file
        # with the UTF-8 byte-order mark EF BB BF
        data = b"\xef\xbb\xbf" + text.encode()
        if where == "file":
            arg = str(tmp_path / "bom.txt")
            Path(arg).write_bytes(data)
        else:
            arg = "-"
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
        code, rows = run_cli(["recognize", arg], capsys)
        assert code == 0 and [r["kind"] for r in rows] == ["DupinQuartic"]

    def test_bad_csv_header(self, tmp_path, capsys):
        path = tmp_path / "batch.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["recognize", str(path)]) == 2

    def test_generate_recognize_pipe(self, capsys):
        code, rows = run_cli(["generate", "--seed", "3", "--count", "6",
                              "--kind", "mixed"], capsys)
        assert code == 0 and len(rows) == 6
        for row in rows:
            code2, out = run_cli(["recognize", json.dumps(row)], capsys)
            assert code2 == 0
            assert out[0]["kind"].startswith("Dupin")

    def test_float_mode_and_tol(self, capsys):
        noisy = ('{"a0":1.0,"c1":-10.000000000001,"c2":-10.0,"c3":6.0,'
                 '"f0":9.000000000001}')
        code, rows = run_cli(["recognize", "--float", "--tol", "1e-9", noisy],
                             capsys)
        assert code == 0 and rows[0]["kind"] == "DupinQuartic"
        code, rows = run_cli(["recognize", "--float", "--tol", "1e-15", noisy],
                             capsys)
        assert code == 0 and rows[0]["kind"] == "NotDupin"


class TestParseCoefficients:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_error_names_the_first_bad_key_in_field_order(self, mode):
        # dict order puts f0 first; c2 comes first in COEFF_FIELDS
        with pytest.raises(ParseError, match=r"^key 'c2': cannot parse"):
            parse_coefficients({"f0": "x", "a0": 1, "c2": "1/0"}, mode)

    @pytest.mark.parametrize("mode, zero", [("exact", Fraction(0)), ("float", 0.0)])
    def test_a_missing_key_is_zero(self, mode, zero):
        c = parse_coefficients({"a0": 1}, mode)
        assert [(type(v), v) for v in c[1:]] == [(type(zero), zero)] * 13
        if mode == "float":
            assert {v.hex() for v in c[1:]} == {"0x0.0p+0"}

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_a_present_zero_goes_through_parse_scalar(self, mode, monkeypatch):
        calls = []

        def recorded(value, m):
            calls.append(value)
            return parse_scalar(value, m)

        parse_scalar = serialize.parse_scalar
        monkeypatch.setattr(serialize, "parse_scalar", recorded)
        assert parse_coefficients({"e2": 0, "a0": 1}, mode).e2 == 0
        assert calls == [1, 0]
        # null and false are present values, and refused
        for value in (None, False):
            with pytest.raises(ParseError, match=r"^key 'e2': "):
                parse_coefficients({"a0": 1, "e2": value}, mode)

    def test_a_present_float_zero_keeps_its_sign(self):
        assert parse_coefficients({"a0": 1, "e2": -0.0}, "float").e2.hex() == "-0x0.0p+0"


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclide.cli", "recognize", TORUS_JSON],
            capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kind"] == "DupinQuartic"

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the reader stops after one line, as `cyclide ... | head -1` does;
        # the output is far larger than a pipe buffer, so later writes fail
        path = tmp_path / "many.jsonl"
        path.write_text((TORUS_JSON + "\n") * 2000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cyclide.cli", "recognize", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert json.loads(first)["kind"] == "DupinQuartic"
        assert b"Traceback" not in err

    def test_stdin_pipe(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cyclide.cli", "recognize", "-"],
            input=TORUS_JSON + "\n", capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kind"] == "DupinQuartic"
