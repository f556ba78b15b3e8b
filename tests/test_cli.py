import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from signalcap import boxes, channels
from signalcap.cli import main, sample_capacity_oracle

DATA = pathlib.Path(__file__).parents[1] / "data"


class TestCheckBox:
    def test_reference_box_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check-box", str(DATA / "reference_box_delta2.json"),
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "SIGNALING" in text
        report = json.loads(out.read_text())
        assert report["monogamy"]["delta"] == pytest.approx(2.0, abs=1e-9)
        # at y-correlator 0.469 the third channel dominates: C(.7345, .2655)
        caps = [c["capacity"] for c in report["channels"]]
        assert max(caps) == pytest.approx(0.16507, abs=1e-4)
        assert len(report["channels"]) == 3

    def test_uniform_box_file(self, capsys):
        code = main(["check-box", str(DATA / "uniform_box.json")])
        assert code == 0
        text = capsys.readouterr().out
        assert "nonsignaling" in text
        assert "delta=0.000000" in text
        assert "max capacity: 0.000000" in text

    def test_truncated_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cut.json"
        bad.write_text('{"m": 2, "table": [[[')
        assert main(["check-box", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: not valid JSON (Expecting value: line 1 column 22 (char 21))\n")

    def test_undecodable_bytes_exit_2_naming_the_file_once(self, tmp_path, capsys):
        bad = tmp_path / "bytes.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main(["check-box", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not valid JSON (") and err.endswith(")\n")
        assert err.count(str(bad)) == 1

    def test_invalid_probabilities_exit_2(self, tmp_path, capsys):
        doc = boxes.box_to_json_dict(boxes.pr_times_coin())
        doc["table"][0][0][0][0][0] = -0.5
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps(doc))
        assert main(["check-box", str(bad)]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["check-box", "no/such/file.json"]) == 2

    def test_nan_entry_exits_2_naming_file_and_entry(self, tmp_path, capsys):
        doc = boxes.box_to_json_dict(boxes.pr_times_coin())
        doc["table"][1][0][0][1][1] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))    # json writes the bare token NaN
        assert main(["check-box", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: table entry (1, 0, 0, 1, 1) is nan, not a finite number\n")

    def test_boolean_entry_exits_2(self, tmp_path, capsys):
        doc = boxes.box_to_json_dict(boxes.pr_times_coin())
        doc["table"][0][1][1][0][0] = True
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(doc))
        assert main(["check-box", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: table[0][1][1][0][0]: expected a number, got bool\n")

    def test_entries_just_above_one_are_accepted(self, tmp_path, capsys):
        # every entry scaled by 1 + 5e-10 stays within make_box's slack, and
        # its correlators of 1 + 5e-10 map to probability 1
        m = 2
        table = boxes.local_deterministic(m, [1] * m, [1] * m, 1).table * (1 + 5e-10)
        path = tmp_path / "over.json"
        boxes.save_box(boxes.make_box(m, table), path)
        assert main(["check-box", str(path)]) == 0
        assert "p=1.000000 q=1.000000 capacity=0.000000" in capsys.readouterr().out

    def test_relaxed_flag_adds_fourth_channel(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check-box", str(DATA / "reference_box_delta2.json"),
                     "--relaxed", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["channels"]) == 4
        labels = [c["label"] for c in report["channels"]]
        assert "S^0_{A->BE}" in labels


class TestCurve:
    def test_coarse_grid_rows(self, capsys):
        assert main(["curve", "--m", "2", "--step", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6   # header + 5 rows
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        assert vals == sorted(vals)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["curve", "--m", "2", "--step", "0.5", "--out", str(a)]) == 0
        assert main(["curve", "--m", "2", "--step", "0.5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_committed_example_matches_format(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--m", "2", "--step", "0.5", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "curve_m2_step0.5.csv").read_bytes()

    def test_m3_gava_column(self, capsys):
        from signalcap import strength
        assert main(["curve", "--m", "3", "--step", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            delta, gava3 = float(cells[0]), float(cells[4])
            assert gava3 == pytest.approx(strength.gava_bound(3, delta), abs=1e-6)
            assert cells[2] == ""   # no two-setting family value at m = 3

    def test_bad_step_exits_2(self, capsys):
        assert main(["curve", "--m", "2", "--step", "3.0"]) == 2

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_m_below_2_exits_2(self, m, capsys):
        assert main(["curve", "--m", m]) == 2
        assert capsys.readouterr().err == f"error: need m >= 2, got {m}\n"

    @pytest.mark.parametrize("step, points", [("1e-300", "2e+300"), ("1e-5", "200001")])
    def test_step_too_small_exits_2_before_any_grid(self, step, points, capsys):
        # at 1e-300 the grid list alone would hold 2e300 deltas
        assert main(["curve", "--m", "2", "--step", step]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: curve step {float(step)} gives {points} grid points, "
                                "more than 20001\n")

    def test_grid_past_two_names_the_delta(self, capsys):
        # the step-0.3 grid reaches delta = 2.1; the error line names it
        assert main(["curve", "--m", "2", "--step", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: delta must lie in [0, 2], got 2.1\n"

    @pytest.mark.parametrize("tol", ["0", "-1e-4", "nan", "inf"])
    def test_nonpositive_tol_exits_2(self, tol, capsys):
        # "--tol=" form: argparse takes a bare "-1e-4" for an option, not a value.
        # An infinite tolerance would accept the first iterate as converged.
        assert main(["curve", "--m", "2", "--step", "1.0", f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --tol must lie in (0, 1), got {float(tol)}\n"

    @pytest.mark.parametrize("tol", ["1", "1e300"])
    def test_vacuous_tol_exits_2(self, tol, capsys):
        # every capacity lies in [0, 1]: a bracket this wide accepts the first
        # iterate, which printed c_delta 1.000000 at delta 0 (true value 0)
        assert main(["curve", "--m", "2", "--step", "2", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --tol must lie in (0, 1), got {float(tol)}\n"

    def test_solver_failure_exits_3_with_partial_file(self, tmp_path, monkeypatch):
        from signalcap import strength
        real = strength.chained_polytope_bound

        def flaky(m, delta, tol=1e-4):
            if delta == 1.0:
                raise strength.NoConvergence(1)
            return real(m, delta, tol)

        monkeypatch.setattr(strength, "chained_polytope_bound", flaky)
        out = tmp_path / "partial.csv"
        assert main(["curve", "--m", "2", "--step", "1.0", "--out", str(out)]) == 3
        lines = out.read_text().strip().splitlines()
        assert lines[-1].startswith("# non-convergence at delta=")
        assert len(lines) == 1 + 2 + 1   # header, two good rows, trailing comment

    def test_master_lp_failure_exits_3(self, capsys, monkeypatch):
        from types import SimpleNamespace
        from signalcap import strength

        def failing_linprog(*args, **kwargs):
            return SimpleNamespace(success=False, message="forced HiGHS failure")

        monkeypatch.setattr(strength, "linprog", failing_linprog)
        assert main(["curve", "--m", "2", "--step", "1.0"]) == 3
        captured = capsys.readouterr()
        header, trailer = captured.out.strip().splitlines()
        assert header.startswith("delta,c_delta,")
        assert trailer == "# non-convergence at delta=[0.0, 1.0, 2.0]"
        assert "Traceback" not in captured.err
        row = strength.curve(2, [1.0]).rows[0]
        assert "forced HiGHS failure" in row.error


class TestVerify:
    # the full stdout, pinned byte for byte
    MINIMAL_SET = """\
verify minimal-set:
  [PASS] m=2: 1 multiset(s) of size 4
  [PASS] m=2: 0 multiset(s) of size 3
  [PASS] m=3: 1 multiset(s) of size 6
  [PASS] m=3: 0 multiset(s) of size 5
"""
    APPENDIX_B = """\
verify appendix-b:
  [PASS] alpha*: expected 0.459 +- 0.002, computed 0.458937
  [PASS] C_2: expected 0.158 +- 0.002, computed 0.157774
  [PASS] subregion optimum: expected 0.322 +- 0.001, computed 0.321928
"""

    def test_minimal_set_passes(self, capsys):
        assert main(["verify", "minimal-set"]) == 0
        assert capsys.readouterr().out == self.MINIMAL_SET

    def test_appendix_b_passes(self, capsys):
        assert main(["verify", "appendix-b"]) == 0
        assert capsys.readouterr().out == self.APPENDIX_B

    def test_properties_pass(self, capsys):
        assert main(["verify", "properties", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the check names perfbench/checks.py reads back from these lines
        prefixes = ["  [PASS] 1e4 nonsignaling boxes: ",
                    "  [PASS] 1e4 random distributions x 4 sign patterns: ",
                    "  [PASS] 1e3 channels: |closed form - iterative| max ",
                    "  [PASS] 1e3 triples: "]
        assert lines[0] == "verify properties:"
        assert len(lines) == 1 + len(prefixes)
        for line, prefix in zip(lines[1:], prefixes):
            assert line.startswith(prefix)
        assert lines[3].endswith(" <= 1e-6, symmetries hold: True")

    def test_negative_seed_exits_2_before_the_header(self, capsys):
        assert main(["verify", "properties", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --seed must be a non-negative integer, got -1\n"

    def test_oracle_sampler_keeps_the_seed_stream(self, monkeypatch):
        # every --seed must keep drawing the same convexity samples after the
        # oracle sampler: one (n, 2) draw equals n draws of two
        seen = []
        array = channels.capacity_oracle_array

        def recording(p, q):
            seen.append((p.copy(), q.copy()))
            return array(p, q)

        monkeypatch.setattr(channels, "capacity_oracle_array", recording)
        rng, loop = np.random.default_rng(5), np.random.default_rng(5)
        sample_capacity_oracle(rng, 40)
        want = np.array([loop.uniform(0, 1, 2) for _ in range(40)])
        assert len(seen) == 1
        assert np.array_equal(seen[0][0], want[:, 0])
        assert np.array_equal(seen[0][1], want[:, 1])
        assert rng.bit_generator.state == loop.bit_generator.state


class TestDumpPolytope:
    def test_h_representation(self, capsys):
        assert main(["dump-polytope", "--m", "2", "--delta", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# dim 6")
        assert len(out.strip().splitlines()) == 1 + 16

    def test_vertices_flag(self, capsys):
        assert main(["dump-polytope", "--m", "2", "--delta", "2", "--vertices"]) == 0
        out = capsys.readouterr().out
        assert "# vertices 4" in out

    def test_m3_vertices(self, capsys):
        assert main(["dump-polytope", "--m", "3", "--delta", "1", "--vertices"]) == 0
        assert "# vertices 176" in capsys.readouterr().out.splitlines()

    def test_committed_dump_files(self, capsys):
        assert main(["dump-polytope", "--m", "2", "--delta", "1", "--vertices"]) == 0
        h = (DATA / "q_delta1_m2.hrep.txt").read_text()
        v = (DATA / "q_delta1_m2.vrep.txt").read_text()
        assert capsys.readouterr().out == h + v

    def test_bad_delta_exits_2(self, capsys):
        assert main(["dump-polytope", "--m", "2", "--delta", "9"]) == 2

    def test_tiny_delta_is_not_rounded_to_zero(self, capsys):
        # 1e-7 is no short fraction's float, so the rows keep its exact value
        assert main(["dump-polytope", "--m", "2", "--delta", "1e-7"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:5]
        assert all(row.endswith(f" <= {-Fraction(1e-7)}") for row in rows)

    @pytest.mark.parametrize("delta, shown", [("inf", "inf"), ("-inf", "-inf"),
                                              ("1e400", "inf"), ("nan", "nan")])
    def test_non_finite_delta_exits_2(self, delta, shown, capsys):
        assert main(["dump-polytope", "--m", "2", f"--delta={delta}"]) == 2
        assert capsys.readouterr().err == f"error: delta must lie in [0, 2], got {shown}\n"

    def test_m_below_2_exits_2(self, capsys):
        assert main(["dump-polytope", "--m", "0", "--delta", "1"]) == 2
        assert capsys.readouterr().err == "error: need m >= 2, got 0\n"


class TestConfigFile:
    """Settings come from flags only; there is no configuration file."""

    def test_default_tol_flag_matches_default(self, tmp_path):
        out_a = tmp_path / "a.csv"
        assert main(["curve", "--m", "2", "--step", "1.0", "--tol", "1e-4",
                     "--out", str(out_a)]) == 0
        out_b = tmp_path / "b.csv"
        assert main(["curve", "--m", "2", "--step", "1.0", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["check-box", str(DATA / "uniform_box.json")],
        ["curve"],
        ["verify", "minimal-set"],
        ["dump-polytope", "--delta", "1"],
    ], ids=["check-box", "curve", "verify", "dump-polytope"])
    def test_config_flag_rejected(self, argv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg)])
        assert exc.value.code == 2
