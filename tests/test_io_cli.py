"""Serialization round-trips, the CLI surface, rendering, and reports."""

import csv
import io
import json
import os
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barpack
from barpack import cli, packers, report
from barpack.cli import _worker_count, main
from barpack.errors import (
    BarpackError,
    HeightOutOfRange,
    InfeasibleMerge,
    InfeasiblePacking,
    InvariantViolation,
    MalformedJson,
)
from barpack.generators import gen_big, gen_big_nonincreasing, gen_general, gen_tight_family
from barpack.model import (
    Packing,
    instance_from_json,
    instance_to_json,
    packing_from_json,
    packing_to_json,
    validate_instance,
)
from barpack.packers import pack_result_to_json, pack_weighted_matching
from barpack.render import render_svg
from barpack.report import ReportRow, max_ratio_by_algo, row_for_run, rows_to_csv


# every public name; adding or removing one is a deliberate edit here
PUBLIC_NAMES = [
    "BarChart", "Chart", "DEFAULT_DENOMINATOR", "DEFAULT_NODE_BUDGET",
    "DisassemblyRound", "ExactResult", "GenSpec", "Graph", "Instance", "Matching",
    "PackResult", "Packing", "ReportRow", "RoundStats", "RunTrace", "build_graph",
    "chart_from_bars", "checked_occupancy", "compact", "disassemble", "errors",
    "exact", "export_blp", "gen_big", "gen_big_nonincreasing", "gen_general",
    "gen_tight_family", "generate", "generators", "height_numerator",
    "instance_from_json", "instance_to_json", "is_feasible", "length", "lower_bound",
    "matching", "matching_pairs", "matching_weight", "max_cardinality_matching",
    "max_ratio_by_algo", "max_weight_matching", "merge", "model", "occupancy",
    "pack_first_fit", "pack_forced_first_matching", "pack_matching",
    "pack_result_to_json", "pack_weighted_matching", "packers", "packing_from_json",
    "packing_to_json", "ratio_bound_capacity", "ratio_bound_dual", "realize", "render",
    "render_svg", "report", "row_for_run", "rows_to_csv", "solve_exact",
    "tight_family_forced_pairs", "union_feasible", "unions", "validate_instance",
]


def test_public_names_are_pinned():
    assert sorted(barpack.__all__) == PUBLIC_NAMES


class TestJsonRoundTrips:
    def test_instance_bytes_stable(self):
        inst = gen_big(7, 5)
        text = instance_to_json(inst)
        again = instance_to_json(instance_from_json(text))
        assert text == again
        assert instance_from_json(text) == inst

    def test_packing_bytes_stable(self):
        p = Packing((1, 4, 2))
        text = packing_to_json(p)
        assert packing_from_json(text) == p
        assert packing_to_json(packing_from_json(text)) == text

    def test_instance_rejects_bad_version(self):
        with pytest.raises(ValueError):
            instance_from_json('{"version":2,"denominator":10,"charts":[[1,1]]}')

    @pytest.mark.parametrize("denominator", ["0", "-3", "2.5", "true", '"7"', "null"])
    def test_instance_rejects_a_bad_denominator(self, denominator):
        # validate_instance's rule and message, raised as MalformedJson
        with pytest.raises(MalformedJson, match="^denominator must be a positive integer$"):
            instance_from_json(f'{{"version":1,"denominator":{denominator},"charts":[[1,1]]}}')

    @pytest.mark.parametrize("numer", [0, 11])
    def test_instance_rejects_a_numerator_out_of_range(self, numer):
        with pytest.raises(HeightOutOfRange, match=rf"numerator {numer} outside \[1, 10\]"):
            instance_from_json(f'{{"version":1,"denominator":10,"charts":[[1,1],[5,{numer}]]}}')

    def test_result_json_reload_and_recheck(self):
        inst = gen_tight_family(1, 100)
        result = pack_weighted_matching(inst)
        payload = json.loads(pack_result_to_json(result))
        packing = Packing(tuple(payload["starts"]))
        from barpack.model import is_feasible, length
        assert is_feasible(inst, packing)
        assert length(inst, packing) == payload["length"]


class TestRenderSvg:
    def test_single_chart(self):
        inst = validate_instance([(0.5, 0.5)], 10)
        svg = render_svg(inst, Packing((1,)))
        assert svg.startswith('<?xml version="1.0"')
        assert svg.count("<rect") == 3  # strip background + two bars
        assert ">1</text>" in svg and ">2</text>" in svg

    def test_deterministic_bytes(self):
        inst = gen_tight_family(1, 100)
        p = Packing((1, 2, 3, 4))
        assert render_svg(inst, p) == render_svg(inst, p)

    def test_refuses_infeasible(self):
        inst = validate_instance([(0.7, 0.3), (0.5, 0.65)], 100)
        with pytest.raises(InfeasiblePacking):
            render_svg(inst, Packing((1, 1)))


class TestReport:
    def test_csv_shape_and_ratio_rounding(self):
        rows = [ReportRow("t", 4, "mw", 6, 2, 2, 5, 4)]
        csv_text = rows_to_csv(rows)
        header, line = csv_text.strip().split("\n")
        assert header.split(",") == ["instance", "n", "algo", "L", "m1", "w1",
                                     "opt", "lb", "ratio", "fx", "gx", "status"]
        cells = line.split(",")
        assert cells[8] == "1.200"
        assert cells[11] == "ok"

    def test_ratio_falls_back_to_lower_bound(self):
        row = ReportRow("x", 4, "mw", 6, 2, 2, None, 4)
        assert row.ratio() == 1.5

    def test_max_ratio_by_algo(self):
        rows = [ReportRow("a", 4, "mw", 6, 2, 2, 5, 4),
                ReportRow("b", 4, "mw", 5, 2, 2, 5, 4),
                ReportRow("c", 4, "m", 8, 1, 1, 5, 4)]
        worst = max_ratio_by_algo(rows)
        assert worst["mw"] == pytest.approx(1.2)
        assert worst["m"] == pytest.approx(1.6)

    def test_bound_columns_cap_oracle_ratios(self):
        # min(fx, gx) must sit at or above L/OPT on rows the guarantee covers
        from barpack.exact import lower_bound, solve_exact
        from barpack.generators import gen_big_nonincreasing
        from barpack.packers import pack_matching
        from barpack.report import ratio_bound_capacity, ratio_bound_dual, row_for_run

        rows = []
        for seed in range(8):
            inst = gen_big(7, seed)
            rows.append(row_for_run("b", inst, "mw", pack_weighted_matching(inst),
                                    solve_exact(inst).opt_length, lower_bound(inst)))
            noninc = gen_big_nonincreasing(7, seed)
            rows.append(row_for_run("g", noninc, "m", pack_matching(noninc),
                                    solve_exact(noninc).opt_length, lower_bound(noninc)))
        for row in rows:
            x = row.x()
            assert min(ratio_bound_dual(x), ratio_bound_capacity(x)) >= row.ratio() - 1e-12


@pytest.fixture()
def tight_instance_file(tmp_path):
    path = tmp_path / "tight1.json"
    path.write_text(instance_to_json(gen_tight_family(1, 100)))
    return path


class TestCli:
    def test_gen_writes_canonical_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["gen", "--family", "big", "--n", "5", "--seed", "7",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert instance_to_json(instance_from_json(text)) == text
        assert instance_from_json(text) == gen_big(5, 7)

    @pytest.mark.parametrize("family", ["big-nonincreasing", "big", "general", "tight"])
    @pytest.mark.parametrize("denominator", ["0", "-100"])
    def test_gen_rejects_a_non_positive_denominator(self, family, denominator, tmp_path,
                                                   capsys):
        out = tmp_path / "inst.json"
        size = ["--k", "1"] if family == "tight" else ["--n", "2"]
        assert main(["gen", "--family", family, *size,
                     "--denominator", denominator, "--out", str(out)]) == 2
        assert "denominator must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["gen", "--family", "general", "--n", "4", "--seed", "3",
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_solve_exact_and_forced(self, tight_instance_file, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert main(["solve", str(tight_instance_file), "--algo", "exact",
                     "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line == "algo=exact n=4 L=5 rounds=0 proven=true"
        assert json.loads(out.read_text())["proven"] is True

        assert main(["solve", str(tight_instance_file), "--algo", "mw",
                     "--force-first", "g-r", "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        assert line == "algo=mw n=4 L=6 rounds=1"
        payload = json.loads(out.read_text())
        assert payload["length"] == 6
        assert payload["trace"] == [{"m": 2, "w": 2, "s": 2}]

    def test_solve_explicit_forced_pairs(self, tight_instance_file, capsys):
        for spec in ("0-2,1-3", " 0 - 2, 1 - 3"):
            assert main(["solve", str(tight_instance_file), "--algo", "mw",
                         "--force-first", spec]) == 0
            assert capsys.readouterr().out.strip() == "algo=mw n=4 L=6 rounds=1"
        # one pair weighs 1, the maximum-weight first round weighs 2
        assert main(["solve", str(tight_instance_file), "--algo", "mw",
                     "--force-first", "0-2"]) == 2
        outerr = capsys.readouterr()
        assert outerr.out == "" and "forced matching weighs 1, optimum is 2" in outerr.err

    def test_solve_single_chart_every_algo(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(instance_to_json(validate_instance([(0.5, 0.5)], 10)))
        for algo in ("m", "mw", "ff", "exact"):
            assert main(["solve", str(path), "--algo", algo]) == 0
            assert "L=2" in capsys.readouterr().out

    def test_single_chart_forced_pairing_is_checked(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(instance_to_json(validate_instance([(0.5, 0.5)], 10)))
        assert main(["solve", str(path), "--algo", "mw", "--force-first", "0-5"]) == 2
        outerr = capsys.readouterr()
        assert outerr.out == "" and "charts 0 and 5 admit no union" in outerr.err
        assert main(["compare", str(path), "--algos", "mw", "--force-first", "3-3"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row.startswith("one.json,1,mw,,") and "charts 3 and 3 admit no union" in row

    def test_render_roundtrip(self, tight_instance_file, tmp_path, capsys):
        res = tmp_path / "res.json"
        svg = tmp_path / "out.svg"
        main(["solve", str(tight_instance_file), "--algo", "exact", "--out", str(res)])
        assert main(["render", str(tight_instance_file), str(res),
                     "--out", str(svg)]) == 0
        assert svg.read_text().startswith('<?xml')

    def test_render_refuses_infeasible(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        bad = tmp_path / "p.json"
        svg = tmp_path / "x.svg"
        inst.write_text(instance_to_json(validate_instance([(0.7, 0.3), (0.5, 0.65)], 100)))
        bad.write_text('{"starts":[1,1]}')
        assert main(["render", str(inst), str(bad), "--out", str(svg)]) == 2
        assert not svg.exists()

    def test_export_blp_default_jmax(self, tight_instance_file, tmp_path, capsys):
        out = tmp_path / "model.lp"
        assert main(["export-blp", str(tight_instance_file), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("\\ two-bar chart strip packing")
        assert "jmax=6" in capsys.readouterr().out  # weighted-run length

    def test_export_blp_jmax_is_at_most_2n(self, tight_instance_file, tmp_path, capsys):
        out = tmp_path / "model.lp"
        argv = ["export-blp", str(tight_instance_file), "--out", str(out), "--jmax"]
        assert main([*argv, "8"]) == 0  # n = 4
        assert out.read_text().count("cap_") == 8
        out.unlink()
        assert main([*argv, "9"]) == 2
        assert "jmax 9 is above 2n = 8" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["compare", "--family", "tight", "--k", "1",
                     "--denominator", "100", "--algos", "mw",
                     "--force-first", "g-r", "--oracle", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# barpack report v1"
        assert lines[1].startswith("instance,n,algo")
        assert "tight-1-s0,4,mw-forced,6,2,2,5,4,1.200" in lines[2]
        assert "max_ratio=1.200" in capsys.readouterr().out

    def test_compare_appends_without_second_header(self, tmp_path):
        out = tmp_path / "report.csv"
        args = ["compare", "--family", "big", "--n", "4", "--count", "1",
                "--algos", "m", "--out", str(out)]
        main(args)
        first = out.read_text()
        main(args)
        text = out.read_text()
        assert text.count("# barpack report") == 1
        assert text.count("instance,n,algo") == 1
        assert len(text.strip().split("\n")) == len(first.strip().split("\n")) + 1

    def test_compare_empty_set(self, tmp_path, capsys):
        assert main(["compare"]) == 0
        outerr = capsys.readouterr()
        assert outerr.out.startswith("instance,n,algo")

    def test_compare_instance_files_with_errors_continue(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(instance_to_json(gen_general(3, 1)))
        bad = tmp_path / "bad.json"
        bad.write_text('{"version":1,"denominator":10,"charts":[]}')
        assert main(["compare", str(bad), str(good), "--algos", "m"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        bad_rows = [ln for ln in lines if ln.startswith("bad.json")]
        good_rows = [ln for ln in lines if ln.startswith("good.json")]
        assert len(bad_rows) == 1 and "error" in bad_rows[0]
        assert len(good_rows) == 1 and good_rows[0].endswith("ok")

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_compare_unreadable_file_row_names_the_os_error(self, tmp_path, capsys,
                                                            monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("BARPACK_THREADS", raising=False)
        else:
            monkeypatch.setenv("BARPACK_THREADS", threads)
        good = tmp_path / "good.json"
        good.write_text(instance_to_json(gen_general(3, 1)))
        missing = tmp_path / "missing.json"
        assert main(["compare", str(missing), str(good), "--algos", "m"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:3]
        assert rows[1].startswith("good.json,3,m,") and rows[1].endswith(",ok")
        assert rows[0].startswith("missing.json,0,-,")
        assert "[Errno 2] No such file or directory" in rows[0]
        assert str(missing) in rows[0]

    @pytest.mark.parametrize("threads", [None, "2"])
    def test_compare_reads_a_file_as_it_runs_the_generated_instance(
            self, tmp_path, capsys, monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("BARPACK_THREADS", raising=False)
        else:
            monkeypatch.setenv("BARPACK_THREADS", threads)
        path = tmp_path / "f.json"
        path.write_text(instance_to_json(gen_big(7, 3)))
        tail = ["--algos", "m,mw,ff", "--oracle"]
        assert main(["compare", str(path), *tail]) == 0
        from_file = capsys.readouterr().out
        assert main(["compare", "--family", "big", "--n", "7", "--seed0", "3",
                     "--count", "1", *tail]) == 0
        generated = capsys.readouterr().out
        assert generated.count("\nbig-7-s3,7,") == 3
        assert from_file.replace("\nf.json,", "\nbig-7-s3,") == generated

    def test_compare_file_that_is_not_utf8_is_an_error_row(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"version":1,\xff}')
        good = tmp_path / "good.json"
        good.write_text(instance_to_json(gen_general(3, 1)))
        assert main(["compare", str(bad), str(good), "--algos", "m"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:3]
        assert rows[0].startswith("bad.json,0,-,") and "can't decode byte 0xff" in rows[0]
        assert rows[1].startswith("good.json,3,m,") and rows[1].endswith(",ok")

    def test_an_oracle_fault_ends_compare(self, monkeypatch, capsys):
        # the exact search raises only on a fault in the library's own output,
        # so compare stops as solve --algo exact does instead of writing a row
        def faulty(inst, budget):
            raise InfeasibleMerge("overlap of 1 cells would overload a cell")
        monkeypatch.setattr("barpack.cli.solve_exact", faulty)
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        assert main(["compare", "--family", "big", "--n", "4", "--algos", "m",
                     "--oracle"]) == 2
        outerr = capsys.readouterr()
        assert outerr.err == "barpack: overlap of 1 cells would overload a cell\n"
        assert outerr.out == ""

    def test_parallel_compare_matches_sequential(self, tmp_path):
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        args_tail = ["--family", "big", "--n", "5", "--count", "4",
                     "--algos", "m,mw", "--oracle"]
        main(["compare", *args_tail, "--out", str(seq)])
        os.environ["BARPACK_THREADS"] = "2"
        try:
            main(["compare", *args_tail, "--out", str(par)])
        finally:
            del os.environ["BARPACK_THREADS"]
        assert seq.read_bytes() == par.read_bytes()

    def test_usage_errors_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "nope", "--out", "x.json"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 1

    def test_invalid_input_exits_two(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["solve", str(missing), "--algo", "m"]) == 2
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert main(["solve", str(garbled), "--algo", "m"]) == 2
        assert main(["gen", "--family", "big", "--out", str(tmp_path / "x.json")]) == 2

    def test_force_first_requires_mw(self, tight_instance_file, capsys):
        assert main(["solve", str(tight_instance_file), "--algo", "m",
                     "--force-first", "g-r"]) == 2
        assert main(["compare", str(tight_instance_file), "--algos", "m,ff",
                     "--force-first", "g-r"]) == 2
        outerr = capsys.readouterr()
        assert outerr.out == "" and outerr.err.count("--force-first") == 2

    def test_compare_forced_pairing_error_is_a_row(self, tight_instance_file, tmp_path,
                                                   capsys):
        odd = tmp_path / "odd.json"
        assert main(["gen", "--family", "big", "--n", "5", "--out", str(odd)]) == 0
        capsys.readouterr()
        assert main(["compare", str(odd), str(tight_instance_file), "--algos", "m,mw",
                     "--force-first", "g-r"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert rows[0].startswith("odd.json,5,m,") and rows[0].endswith(",ok")
        assert rows[1].startswith("odd.json,5,mw,,") and "even chart count" in rows[1]
        assert rows[2].startswith("tight1.json,4,m,") and rows[2].endswith(",ok")
        assert rows[3].startswith("tight1.json,4,mw-forced,6,") and rows[3].endswith(",ok")

    def test_compare_rejects_malformed_pairing_up_front(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr("barpack.cli._compare_worker", ran.append)
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        # each spec with the part that is not an id pair
        for spec, part in [("0-x", "0-x"), ("", ""), ("0-1,x", "x"),
                           ("1-2-3", "1-2-3"), ("-1-2", "-1-2")]:
            assert main(["compare", "--family", "tight", "--k", "1", "--denominator",
                         "100", "--algos", "mw", f"--force-first={spec}"]) == 2
            outerr = capsys.readouterr()
            assert ran == [] and outerr.out == ""
            assert outerr.err == (f"barpack: --force-first part {part!r} is not two "
                                  "chart ids joined by '-'\n")

    def test_compare_rejects_an_unknown_algo_up_front(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr("barpack.cli._compare_worker", ran.append)
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        assert main(["compare", "--family", "big", "--n", "4", "--algos", "m,xyz"]) == 2
        outerr = capsys.readouterr()
        assert ran == [] and outerr.out == ""
        assert "unknown algo 'xyz'" in outerr.err

    @pytest.mark.parametrize("count", [0, -3])
    def test_compare_rejects_an_empty_sweep_up_front(self, count, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr("barpack.cli._compare_worker", ran.append)
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        assert main(["compare", "--family", "big", "--n", "4",
                     "--count", str(count)]) == 2
        outerr = capsys.readouterr()
        assert ran == [] and outerr.out == ""
        assert outerr.err == f"barpack: --count {count} must be at least 1\n"

    @pytest.mark.parametrize("algos", [",", ""])
    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["plain", "oracle"])
    def test_compare_rejects_an_empty_algo_list_up_front(self, algos, oracle, monkeypatch,
                                                         capsys):
        ran = []
        monkeypatch.setattr("barpack.cli._compare_worker", ran.append)
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        assert main(["compare", "--family", "big", "--n", "4", "--algos", algos,
                     *oracle]) == 2
        outerr = capsys.readouterr()
        assert ran == [] and outerr.out == ""
        assert outerr.err == f"barpack: --algos {algos!r} names no algorithm\n"

    @pytest.mark.parametrize("argv,message", [
        (["gen", "--family", "tight", "--k", "1", "--n", "50"],
         "--n does not apply to --family tight"),
        (["gen", "--family", "big", "--n", "3", "--k", "9"],
         "--k does not apply to --family big"),
        (["compare", "--family", "big", "--n", "4", "--k", "3"],
         "--k does not apply to --family big"),
        (["compare", "{inst}", "--n", "7"], "--n does not apply to instance files"),
        (["compare", "{inst}", "--k", "1"], "--k does not apply to instance files"),
    ], ids=["gen-tight-n", "gen-big-k", "compare-big-k", "compare-files-n", "compare-files-k"])
    def test_a_size_flag_the_family_does_not_read_exits_two(
            self, argv, message, tight_instance_file, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr("barpack.cli._compare_worker", ran.append)
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        out = tmp_path / "inst.json"
        argv = [arg.format(inst=tight_instance_file) for arg in argv]
        if argv[0] == "gen":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        outerr = capsys.readouterr()
        assert ran == [] and outerr.out == "" and not out.exists()
        assert outerr.err == f"barpack: {message}\n"

    def test_compare_quotes_fields_that_hold_a_comma(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        bad = tmp_path / "bad.json"
        bad.write_text('{"version":1,"denominator":10,"charts":[[1,2,3]]}')
        tight = tmp_path / "x,y.json"
        tight.write_text(instance_to_json(gen_tight_family(1, 100)))
        out = tmp_path / "report.csv"
        assert main(["compare", str(bad), str(tight), "--algos", "m,mw",
                     "--force-first", "0-1", "--out", str(out)]) == 0
        text = out.read_text()
        assert '\n"x,y.json",4,m,6,2,2,,4,1.500,1.500,1.500,ok\n' in text
        header, *rows = csv.reader(io.StringIO(text.partition("\n")[2]))
        assert ",".join(header) == report.CSV_HEADER
        assert all(len(row) == 12 for row in rows)
        assert [(row[0], row[2], row[11]) for row in rows] == [
            ("bad.json", "-", "error: chart 0 is [1, 2, 3], not an [a, b] pair"),
            ("x,y.json", "m", "ok"),
            ("x,y.json", "mw", "error: forced matching weighs 1, optimum is 2"),
        ]

    def test_compare_quotes_a_bare_carriage_return(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        inst = tmp_path / "a\rb.json"
        inst.write_text(instance_to_json(gen_tight_family(1, 100)))
        out = tmp_path / "report.csv"
        assert main(["compare", str(inst), "--algos", "m,mw", "--out", str(out)]) == 0
        with out.open(newline="") as fh:
            assert fh.readline() == "# barpack report v1\n"
            header, *rows = csv.reader(fh)
        assert ",".join(header) == report.CSV_HEADER
        assert [(len(row), row[0], row[2]) for row in rows] == [
            (12, "a\rb.json", "m"), (12, "a\rb.json", "mw")]

    @pytest.mark.parametrize("command", [["solve", "{inst}", "--algo", "exact"],
                                         ["compare", "{inst}", "--oracle"]],
                             ids=["solve", "compare"])
    def test_negative_budget_exits_two(self, command, tight_instance_file, capsys):
        argv = [arg.format(inst=tight_instance_file) for arg in command]
        assert main([*argv, "--budget", "-3"]) == 2
        outerr = capsys.readouterr()
        assert outerr.out == "" and "--budget -3" in outerr.err
        assert main([*argv, "--budget", "0"]) == 0  # zero: no search, nothing proven

    def test_budget_without_exact_search_exits_two(self, tmp_path, monkeypatch, capsys):
        # rejected up front: the instance file does not even exist
        missing = str(tmp_path / "missing.json")
        assert main(["solve", missing, "--algo", "m", "--budget", "5"]) == 2
        ran = []
        monkeypatch.setattr("barpack.cli._compare_worker", ran.append)
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        assert main(["compare", "--family", "big", "--n", "4", "--budget", "5"]) == 2
        outerr = capsys.readouterr()
        assert ran == [] and outerr.out == ""
        assert outerr.err.count("--budget only applies") == 2

    def test_exact_search_over_a_long_instance_runs_out_of_budget(self, tmp_path, capsys):
        # the search places all 1,200 charts, one level each, and beats the
        # seed's L=1599 before the budget runs out
        path = tmp_path / "big.json"
        path.write_text(instance_to_json(gen_big_nonincreasing(1200, 1)))
        assert main(["solve", str(path), "--algo", "exact", "--budget", "5000"]) == 0
        outerr = capsys.readouterr()
        assert outerr.out == "algo=exact n=1200 L=1583 rounds=0 proven=false\n"
        assert outerr.err == ""


MALFORMED_INSTANCES = [
    '{"version":1,"denominator":100,"charts":[5]}',
    '[]',
    '[[true,true]]',
    '"charts"',
    'null',
    '{"version":1,"denominator":100,"charts":[[true,true]]}',
    '{"version":1,"denominator":100,"charts":[[50,true]]}',
    '{"version":1,"denominator":true,"charts":[[1,1]]}',
    '{"version":true,"denominator":100,"charts":[[1,1]]}',
    '{"version":1,"denominator":100}',
    '{"version":1,"charts":[[1,1]]}',
    '{"version":1,"denominator":100,"charts":{"0":[1,1]}}',
    '{"version":1,"denominator":100,"charts":[[1,2,3]]}',
    '{"version":1,"denominator":100,"charts":[[1.5,2]]}',
    '{"version":1,"denominator":100,"charts":[[0,50]]}',
    '{"version":1,"denominator":100,"charts":[[50,101]]}',
    '[' * 100_000,
]

# the tight instance has n=4, so a start above cell 16 is rejected before any
# cell is allocated
MALFORMED_PACKINGS = ['[1,2]', '{}', '{"starts":5}', '{"starts":[true,1]}', 'null',
                      '{"starts":[10000000000000000000,1,3,5]}', '{"starts":[17,1,3,5]}']

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=12)
instance_like = st.fixed_dictionaries(
    {"version": st.sampled_from([1, True, 1.0, "1"]),
     "denominator": json_values, "charts": json_values})


class TestMalformedInput:
    @pytest.mark.parametrize("text", MALFORMED_INSTANCES, ids=lambda t: t[:40])
    def test_instance_exits_two(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve", str(path), "--algo", "m"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("barpack: ") and "Traceback" not in err
        # compare turns the same file into an error row and carries on
        assert main(["compare", str(path), "--algos", "m"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert rows[0].startswith("bad.json,0,-,") and "error" in rows[0]

    @pytest.mark.parametrize("text", MALFORMED_PACKINGS)
    def test_packing_exits_two(self, text, tight_instance_file, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        svg = tmp_path / "out.svg"
        assert main(["render", str(tight_instance_file), str(path),
                     "--out", str(svg)]) == 2
        assert capsys.readouterr().err.startswith("barpack: ")
        assert not svg.exists()


    @settings(max_examples=300, deadline=None)
    @given(json_values | instance_like)
    def test_any_json_loads_or_raises_barpack_error(self, value):
        text = json.dumps(value)
        for parse in (instance_from_json, packing_from_json):
            try:
                parse(text)
            except BarpackError:
                pass


class TestInvariantExitCode:
    def test_packer_check_exits_three(self, tight_instance_file, monkeypatch, capsys):
        real_length = packers.length
        monkeypatch.setattr(packers, "length", lambda inst, p: real_length(inst, p) + 1)
        assert main(["solve", str(tight_instance_file), "--algo", "m"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("barpack: internal invariant violation: realized length ")
        assert err.rstrip().endswith("is not 2n - savings")

    @pytest.mark.parametrize("patch", [
        ("length", lambda real: lambda inst, p: real(inst, p) + 1, "m reported length"),
        ("is_feasible", lambda real: lambda inst, p: False,
         "m returned an infeasible packing"),
    ], ids=["length", "is_feasible"])
    def test_report_checks_raise_and_exit_three(self, patch, monkeypatch, capsys):
        name, make, message = patch
        monkeypatch.setattr(report, name, make(getattr(report, name)))
        inst = gen_tight_family(1, 100)
        result = pack_weighted_matching(inst)
        with pytest.raises(InvariantViolation):
            row_for_run("x", inst, "mw", result, None, None)
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        # compare's worker catches BarpackError only; the violation passes it
        assert main(["compare", "--family", "big", "--n", "4", "--algos", "m"]) == 3
        assert (f"barpack: internal invariant violation: {message}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("exc", [KeyError(5), TypeError("bad operand")],
                             ids=["KeyError", "TypeError"])
    def test_any_other_fault_exits_three(self, exc, tight_instance_file,
                                         monkeypatch, capsys):
        def broken(inst):
            raise exc
        monkeypatch.setitem(cli.PACKERS, "m", broken)
        assert main(["solve", str(tight_instance_file), "--algo", "m"]) == 3
        assert capsys.readouterr().err == (
            f"barpack: internal error: {type(exc).__name__}: {exc}\n")

    def test_invariant_violation_is_not_an_input_error(self):
        assert issubclass(InvariantViolation, AssertionError)
        assert not issubclass(InvariantViolation, BarpackError)


class TestWorkerCount:
    @pytest.mark.parametrize("requested, jobs, cpus, expected", [
        (None, 10, 8, 1),
        ("1", 10, 8, 1),
        ("4", 10, 8, 4),
        ("4", 10, 2, 2),
        ("64", 3, 8, 3),
        ("4", 0, 8, 1),
        ("4", 10, None, 1),
    ])
    def test_clamp(self, requested, jobs, cpus, expected):
        assert _worker_count(requested, jobs, cpus) == expected

    @pytest.mark.parametrize("requested", ["0", "-2", "", "two", "2.5"])
    def test_rejects(self, requested):
        with pytest.raises(BarpackError, match="BARPACK_THREADS"):
            _worker_count(requested, 10, 8)

    def test_cli_rejects_bad_value(self, monkeypatch, capsys):
        monkeypatch.setenv("BARPACK_THREADS", "0")
        assert main(["compare", "--family", "big", "--n", "4", "--count", "2",
                     "--algos", "m"]) == 2
        assert "BARPACK_THREADS" in capsys.readouterr().err


def _golden_instance(name, tmp_path):
    family = {"tight2": ["--family", "tight", "--k", "2", "--denominator", "100"],
              "big7": ["--family", "big", "--n", "7"]}[name]
    path = tmp_path / f"{name}.json"
    with redirect_stdout(io.StringIO()):
        assert main(["gen", *family, "--out", str(path)]) == 0
    return path


def _golden_run(argv, out):
    """(exit code, stdout, text written to out) of one CLI call."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([*argv, "--out", str(out)])
    return code, buf.getvalue(), out.read_text()


def _golden_solve(case, tmp_path):
    name, *args = case.split()
    return _golden_run(["solve", str(_golden_instance(name, tmp_path)), *args],
                       tmp_path / "result.json")


def _golden_compare(case, tmp_path):
    return _golden_run(["compare", *case.split()], tmp_path / "report.csv")


# CLI bytes recorded before solve and compare shared one algorithm table:
# (exit code, stdout, result JSON) per solve run and (exit code, stdout,
# CSV file) per compare sweep.
GOLDEN_SOLVE = {
    'tight2 --algo m': (
        0,
        'algo=m n=8 L=12 rounds=1\n',
        '{"length":12,"starts":[1,4,7,10,11,8,5,2],"trace":[{"m":4,"w":4,"s":4}]}'),
    'tight2 --algo mw': (
        0,
        'algo=mw n=8 L=12 rounds=1\n',
        '{"length":12,"starts":[1,4,7,10,11,8,5,2],"trace":[{"m":4,"w":4,"s":4}]}'),
    'tight2 --algo ff': (
        0,
        'algo=ff n=8 L=9 rounds=0\n',
        '{"length":9,"starts":[1,2,3,4,5,6,7,8],"trace":[]}'),
    'tight2 --algo exact': (
        0,
        'algo=exact n=8 L=9 rounds=0 proven=true\n',
        '{"length":9,"starts":[1,2,3,4,5,6,7,8],"trace":[],"proven":true}'),
    'big7 --algo m': (
        0,
        'algo=m n=7 L=10 rounds=2\n',
        '{"length":10,"starts":[1,2,3,9,5,8,6],"trace":[{"m":3,"w":3,"s":3},{"m":1,"w":1,'
        '"s":1}]}'),
    'big7 --algo mw': (
        0,
        'algo=mw n=7 L=10 rounds=2\n',
        '{"length":10,"starts":[1,2,3,9,5,8,6],"trace":[{"m":3,"w":3,"s":3},{"m":1,"w":1,'
        '"s":1}]}'),
    'big7 --algo ff': (
        0,
        'algo=ff n=7 L=11 rounds=0\n',
        '{"length":11,"starts":[1,2,3,5,7,8,10],"trace":[]}'),
    'big7 --algo exact': (
        0,
        'algo=exact n=7 L=10 rounds=0 proven=true\n',
        '{"length":10,"starts":[1,2,3,9,5,8,6],"trace":[],"proven":true}'),
    'tight2 --algo mw --force-first g-r': (
        0,
        'algo=mw n=8 L=12 rounds=1\n',
        '{"length":12,"starts":[1,4,7,10,2,5,8,11],"trace":[{"m":4,"w":4,"s":4}]}'),
}

GOLDEN_COMPARE = {
    '--family big --n 7 --count 3 --algos m,mw,ff --oracle': (
        0,
        'algo=ff max_ratio=1.182\n'
        'algo=m max_ratio=1.000\n'
        'algo=mw max_ratio=1.000\n',
        '# barpack report v1\n'
        'instance,n,algo,L,m1,w1,opt,lb,ratio,fx,gx,status\n'
        'big-7-s0,7,m,10,3,3,10,9,1.000,1.467,1.571,ok\n'
        'big-7-s0,7,mw,10,3,3,10,9,1.000,1.467,1.571,ok\n'
        'big-7-s0,7,ff,11,,,10,9,1.100,,,ok\n'
        'big-7-s1,7,m,11,3,3,11,9,1.000,1.467,1.571,ok\n'
        'big-7-s1,7,mw,11,3,3,11,9,1.000,1.467,1.571,ok\n'
        'big-7-s1,7,ff,13,,,11,9,1.182,,,ok\n'
        'big-7-s2,7,m,11,3,3,11,9,1.000,1.467,1.571,ok\n'
        'big-7-s2,7,mw,11,2,3,11,9,1.000,1.467,1.571,ok\n'
        'big-7-s2,7,ff,11,,,11,9,1.000,,,ok\n'),
    '--family tight --k 2 --denominator 100 --algos m,mw --force-first g-r --oracle': (
        0,
        'algo=m max_ratio=1.333\n'
        'algo=mw-forced max_ratio=1.333\n',
        '# barpack report v1\n'
        'instance,n,algo,L,m1,w1,opt,lb,ratio,fx,gx,status\n'
        'tight-2-s0,8,m,12,4,4,9,8,1.333,1.500,1.500,ok\n'
        'tight-2-s0,8,mw-forced,12,4,4,9,8,1.333,1.500,1.500,ok\n'),
}


class TestGoldenCli:
    @pytest.mark.parametrize("case", sorted(GOLDEN_SOLVE))
    def test_solve_bytes_unchanged(self, case, tmp_path):
        assert _golden_solve(case, tmp_path) == GOLDEN_SOLVE[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_COMPARE))
    def test_compare_bytes_unchanged(self, case, tmp_path, monkeypatch):
        monkeypatch.delenv("BARPACK_THREADS", raising=False)
        assert _golden_compare(case, tmp_path) == GOLDEN_COMPARE[case]
