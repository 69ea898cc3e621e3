import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import D59, EX1, EX2, STRESS_B
from dtpower import cli, engines, linalg, toric
from dtpower.cli import (closed_form_from_json, closed_form_to_json, main,
                         parse_vectors, reduced_to_json)
from dtpower.errors import InvariantError
from dtpower.quasipoly import closed_form, eval_closed
from dtpower.toric import toric_reduce

EX1_TEXT = "1\n1\n2\n"
EX2_TEXT = "1 0\n0 1\n-1 2\n"


class TestParseVectors:
    def test_scalar_multiset(self):
        spec = parse_vectors(EX1_TEXT)
        assert spec.dimension == 1
        assert spec.vectors == ((1,), (1,), (2,))

    def test_planar(self):
        spec = parse_vectors(EX2_TEXT)
        assert spec.dimension == 2
        assert spec.vectors == ((1, 0), (0, 1), (-1, 2))

    def test_comments_and_blanks_ignored(self):
        spec = parse_vectors("# system\n\n1 0\n0 1\n")
        assert spec.vectors == ((1, 0), (0, 1))

    @pytest.mark.parametrize("text,fragment", [
        ("1 0\n0\n", "ragged"),
        ("1\n0\n", "zero vector"),
        ("1 0\n2 0\n", "rank-deficient"),
        ("1\n-1\n", "not pointed"),
        ("1 a\n", "not an integer"),
        ("", "no vectors"),
    ])
    def test_rejects_with_distinct_message(self, text, fragment, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        assert main(["count", "--point", "0", str(f)]) == 2
        assert fragment in capsys.readouterr().err


def run(args, text, tmp_path, capsys):
    f = tmp_path / "sys.txt"
    f.write_text(text)
    code = main(args + [str(f)])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_stdin(args, stdin: bytes | None, stdout=subprocess.PIPE, **env):
    """The imported dtpower's CLI in a child process with stdin as given,
    or closed when it is None, under strict UTF-8 standard streams; env
    adds to or overrides the child's environment."""
    env = {**os.environ, "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": str(Path(cli.__file__).parents[1]), **env}
    cmd = [sys.executable, "-m", "dtpower.cli", *args]
    if stdin is None:
        cmd = ["sh", "-c", '"$@" <&-', "sh", *cmd]
    return subprocess.run(cmd, input=stdin, stdout=stdout, stderr=subprocess.PIPE,
                          env=env, timeout=60)


class TestCount:
    @pytest.mark.parametrize("engine", ["brute", "recursion", "closed"])
    def test_scalar_point(self, engine, tmp_path, capsys):
        code, out, _ = run(["count", "--point", "2", "--engine", engine],
                           EX1_TEXT, tmp_path, capsys)
        assert code == 0 and out.strip() == "4"

    def test_planar_point(self, tmp_path, capsys):
        code, out, _ = run(["count", "--point", "0,4"], EX2_TEXT, tmp_path, capsys)
        assert code == 0 and out.strip() == "3"

    def test_bad_point_dimension(self, tmp_path, capsys):
        code, _, err = run(["count", "--point", "1,2"], EX1_TEXT, tmp_path, capsys)
        assert code == 2 and "point" in err

    @pytest.mark.parametrize("engine", ["brute", "recursion", "closed"])
    def test_system_eliminated_once(self, engine, tmp_path, capsys):
        # the input's validation eliminates it; the engine reuses the certificate
        linalg._fourier_motzkin.cache_clear()
        code, out, _ = run(["count", "--point", "0,4", "--engine", engine],
                           EX2_TEXT, tmp_path, capsys)
        assert code == 0 and out.strip() == "3"
        assert linalg._fourier_motzkin.cache_info().misses == 1


class TestFormats:
    def test_reduce_text(self, tmp_path, capsys):
        code, out, _ = run(["reduce"], EX1_TEXT, tmp_path, capsys)
        assert code == 0
        assert "(1 - e^(-(2x)))^3" in out

    def test_reduce_json(self, tmp_path, capsys):
        code, out, _ = run(["reduce", "--format", "json"], EX1_TEXT, tmp_path, capsys)
        data = json.loads(out)
        assert data["dimension"] == 1
        assert [t["shift"] for t in data["terms"]] == [[-2], [-1], [0]]
        assert [t["coeff"] for t in data["terms"]] == ["1", "2", "1"]

    def test_closed_form_text(self, tmp_path, capsys):
        code, out, _ = run(["closed-form"], EX1_TEXT, tmp_path, capsys)
        assert code == 0
        assert "N*{(2,)}" in out

    def test_closed_form_latex_scalar(self, tmp_path, capsys):
        code, out, _ = run(["closed-form", "--format", "latex"],
                           EX1_TEXT, tmp_path, capsys)
        assert code == 0
        assert out.count("t_{") == 3
        # the piece (x+2)(x+4)/8 expanded: x^2/8 + 3x/4 + 1
        assert "\\frac{1}{8}x^2" in out.replace(" ", "")

    def test_closed_form_json_roundtrip(self, tmp_path, capsys):
        code, out, _ = run(["closed-form", "--format", "json"],
                           EX2_TEXT, tmp_path, capsys)
        assert code == 0
        cf = closed_form(EX2)
        back = closed_form_from_json(json.loads(out))
        assert json.loads(out) == closed_form_to_json(cf)
        rng = random.Random(11)
        for _ in range(20):
            a = (rng.randint(-8, 12), rng.randint(-8, 12))
            assert eval_closed(back, a) == eval_closed(cf, a)


    @pytest.mark.parametrize("X", [EX1, EX2], ids=["EX1", "EX2"])
    @pytest.mark.parametrize("command,build,to_json", [
        ("reduce", toric_reduce, reduced_to_json),
        ("closed-form", closed_form, closed_form_to_json)], ids=["reduce", "closed-form"])
    def test_json_is_the_compact_dump(self, X, command, build, to_json, tmp_path, capsys):
        text = "".join(" ".join(map(str, a)) + "\n" for a in X)
        code, out, _ = run([command, "--format", "json"], text, tmp_path, capsys)
        assert code == 0 and out == json.dumps(to_json(build(X))) + "\n"


class TestClosedFormJson:
    """closed_form_from_json reads each coefficient "n" or "n/d" as ints."""

    def test_unreduced_coefficients_give_the_same_form(self):
        # every n/d written as 6n/6d (n as 6n/6): the lcm of the d's is then
        # 6 times too large, and the form read back is still the least one
        for X in (EX2, D59[:3]):
            cf = closed_form(X)
            doc = closed_form_to_json(cf)
            for piece in doc["pieces"]:
                for m in piece["poly"]:
                    n, _, d = m["coeff"].partition("/")
                    m["coeff"] = f"{6 * int(n)}/{6 * int(d or 1)}"
            back = closed_form_from_json(doc)
            assert back == cf
            assert (back.denominator, back.numerators) == (cf.denominator, cf.numerators)

    @pytest.mark.parametrize("coeff", ["1/0", "0/0", "3/-4", "x", "1.5", "", "/2", "3/",
                                       "1/2/3", "1 /2", 3, None])
    def test_bad_coefficient_raises_value_error(self, coeff):
        doc = closed_form_to_json(closed_form(EX2))
        doc["pieces"][-1]["poly"][0]["coeff"] = coeff
        with pytest.raises(ValueError, match=f"coefficient {re.escape(repr(coeff))}"):
            closed_form_from_json(doc)


class TestVerify:
    def test_planar_ok(self, tmp_path, capsys):
        code, out, _ = run(["verify", "--box=-6:12", "--seed", "7"],
                           EX2_TEXT, tmp_path, capsys)
        assert code == 0
        assert out.strip() == "OK: 361 points, 0 mismatches"

    def test_scalar_ok(self, tmp_path, capsys):
        code, out, _ = run(["verify", "--box=-6:20"], EX1_TEXT, tmp_path, capsys)
        assert code == 0
        assert "0 mismatches" in out

    def test_bad_box(self, tmp_path, capsys):
        code, _, err = run(["verify", "--box", "5"], EX1_TEXT, tmp_path, capsys)
        assert code == 2 and "box" in err

    def test_mismatches_exit_3(self, corrupted_closed, tmp_path, capsys):
        code, out, _ = run(["verify", "--box=-2:4"], EX2_TEXT, tmp_path, capsys)
        assert code == 3
        assert out.splitlines() == ["FAIL: 49 points, 3 mismatches"] + [
            f"  at {p}: brute={b} recursion={r} closed={c}" for p, b, r, c in corrupted_closed]


def assert_bench_table(lines, points):
    """bench's header and its three engine rows: name, points, then seconds
    to four places, 32 columns in all."""
    header, *rows = lines
    assert header == "engine        points     seconds"
    assert len(rows) == 3
    for eng, row in zip(("brute", "recursion", "closed"), rows):
        assert re.fullmatch(f"{eng:<12}{points:>8} *[0-9]+\\.[0-9]{{4}}", row), row
        assert len(row) == 32, row


class TestBench:
    def test_reports_three_engines(self, tmp_path, capsys):
        code, out, _ = run(["bench", "--box=-4:8"], EX1_TEXT, tmp_path, capsys)
        assert code == 0
        assert_bench_table(out.splitlines(), 13)

    def test_mismatches_exit_3(self, corrupted_closed, tmp_path, capsys):
        code, out, _ = run(["bench", "--box=-2:4"], EX2_TEXT, tmp_path, capsys)
        assert code == 3
        *table, last = out.splitlines()
        assert_bench_table(table, 49)
        assert last == "3 mismatches!"


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        assert main(["count", "--nope"]) == 2

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        assert main(["count", "--point", "1", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.txt" in err

    def test_non_utf8_input_file_exits_2(self, tmp_path, capsys):
        f = tmp_path / "bytes.bin"
        f.write_bytes(bytes(random.Random(0).randrange(128, 256) for _ in range(64)))
        assert main(["count", "--point", "1", str(f)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: cannot read {f}: ") and "decode" in out.err

    def test_non_utf8_stdin_exits_2(self):
        done = run_stdin(["count", "--point", "1,1"], b"1 0\n\xff 1\n")
        assert done.returncode == 2 and done.stdout == b""
        assert done.stderr.startswith(b"error: cannot read standard input: ")
        assert b"decode" in done.stderr

    def test_closed_stdin_exits_2(self):
        done = run_stdin(["count", "--point", "1,1"], None)
        assert done.returncode == 2 and done.stdout == b""
        assert done.stderr.startswith(b"error: cannot read standard input: ")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_output_pipe_exits_141(self, unbuffered):
        # the pipe's read end is closed before the child writes: the print
        # fails when stdout is unbuffered, the flush after it otherwise
        r, w = os.pipe()
        os.close(r)
        try:
            text = "".join(" ".join(map(str, a)) + "\n" for a in STRESS_B)
            done = run_stdin(["reduce"], text.encode(), stdout=w, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(w)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_stdin_counts(self):
        done = run_stdin(["count", "--point", "0,4"], EX2_TEXT.encode())
        assert (done.returncode, done.stdout, done.stderr) == (0, b"3\n", b"")

    @pytest.mark.parametrize("engine", ["brute", "recursion"])
    def test_walk_past_the_recursion_limit_exits_5(self, engine, tmp_path, capsys):
        # both walks take one Python frame per vector
        start = time.perf_counter()
        code, out, err = run(["count", "--engine", engine, "--point", "3"], "1\n" * 1000,
                             tmp_path, capsys)
        assert code == 5 and out == ""
        assert err.startswith("error: budget exceeded: ") and "recursion limit" in err
        assert time.perf_counter() - start < 5.0

    def test_broken_invariant_exits_4(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantError("dependent denominator vectors")
        monkeypatch.setattr("dtpower.cli.cross_check", broken)
        code, out, err = run(["verify", "--box=-2:2"], EX2_TEXT, tmp_path, capsys)
        assert code == 4 and out == ""
        assert err.startswith("error: ") and "dependent denominator" in err

    @pytest.mark.parametrize("module,budget,args,text,unit", [
        (toric, "TERM_BUDGET", ["count", "--point", "500,900"],
         "".join(f"{x} {y}\n" for x, y in D59), "terms"),
        (engines, "MEMO_BUDGET", ["count", "--engine", "recursion", "--point", "5000"],
         "1\n2\n3\n5\n", "entries"),
        # about 7 * 10^8 solutions
        (engines, "NODE_BUDGET", ["count", "--engine", "brute", "--point", "5000"],
         "1\n2\n3\n5\n", "nodes"),
    ])
    def test_budget_exceeded_exits_5(self, module, budget, args, text, unit,
                                     tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(module, budget, 1_000)
        code, out, err = run(args, text, tmp_path, capsys)
        assert code == 5 and out == ""
        assert err.startswith("error: budget exceeded: ") and f"1,000 {unit}" in err

    @pytest.mark.parametrize("text,point", [("1\n100000000\n", "1"),
                                            ("1 0\n0 1\n1 100000000\n", "1,1")])
    def test_large_relation_coefficient_exits_5(self, text, point, tmp_path, capsys):
        # a relation coefficient of 10^8 would expand into 10^8 terms
        # before any cap of the fold search is checked
        start = time.perf_counter()
        code, out, err = run(["count", "--point", point], text, tmp_path, capsys)
        assert code == 5 and out == ""
        assert err.startswith("error: budget exceeded: ") and "relation coefficient" in err
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_box_past_the_memo_budget_exits_5(self, command, tmp_path, capsys):
        # 100,001^2 points: listing them alone would run out of memory
        start = time.perf_counter()
        code, out, err = run([command, "--box=0:100000"], EX2_TEXT, tmp_path, capsys)
        assert code == 5 and out == ""
        assert err.startswith("error: budget exceeded: ")
        assert f"10,000,200,001 points, past the removal recursion's memo budget of {engines.MEMO_BUDGET:,}" in err
        assert time.perf_counter() - start < 5.0

    def test_coordinate_past_the_packed_shift_bound_exits_5(self, tmp_path, capsys):
        # a valid pointed system whose relation puts a coordinate of 10^19
        # into a shift; the removal recursion counts it (2)
        text = "10000000000000000000 1\n0 1\n10000000000000000000 2\n"
        code, out, err = run(["count", "--point", "10000000000000000000,3"], text, tmp_path, capsys)
        assert code == 5 and out == ""
        assert err.startswith("error: budget exceeded: ")
        assert f"packed-shift bound of {toric.ENTRY_LIMIT:,}" in err
        code, out, _ = run(["count", "--engine", "recursion", "--point", "10000000000000000000,3"],
                           text, tmp_path, capsys)
        assert code == 0 and out == "2\n"

    def test_help_documents_exit_codes(self, capsys):
        assert main(["--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "exit codes" in out and "4 broken internal invariant" in out
        assert "5 valid input too large" in out
        assert "a term, memo or node budget exceeded" in out
        assert "a verify box of more points than the memo budget" in out
        assert "a coordinate past the packed-shift bound" in out
        assert "a walk deeper than Python's recursion limit" in out

    def test_help_documents_exit_141(self, capsys):
        assert main(["--help"]) == 0
        assert "141 output pipe closed by its reader" in " ".join(capsys.readouterr().out.split())
