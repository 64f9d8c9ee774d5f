import importlib.resources

import pytest
from hypothesis import given, settings, strategies as st

from powergap.cli import (
    EXIT_BROWNOUT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    run_table1_suite,
)
from powergap.energy_model import ClockTier, RadioMode
from powergap.scenario import ScenarioError, load_scenario, parse_scenario
from powergap.strategies import StrategyKind
from powergap.track_world import run_scenario

MINIMAL = """
[track]
segments = straight:0.30 lanechange:0.48:0.09:0.36 straight:0.30

[run]
duration = 0.36
"""


class TestParser:
    def test_minimal_scenario_builds(self):
        cfg = parse_scenario(MINIMAL).build()
        assert cfg.duration == 0.36
        assert cfg.speed == 3.0
        assert cfg.initial_state.clock is ClockTier.C80
        assert cfg.initial_state.radio is RadioMode.OFF
        assert cfg.strategy is None

    def test_defaults_without_any_section(self):
        cfg = parse_scenario("").build()
        assert cfg.layout.total_length > 0
        assert run_scenario(cfg).metrics.max_drop_v > 0

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n[run]\n# inner\nduration = 1.0\n"
        assert parse_scenario(text).build().duration == 1.0

    def test_threshold_above_nominal_names_line(self):
        text = "[energy]\nnominal_voltage = 9.0\nbrownout_drop = 9.5\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text).build()
        assert "line 3" in str(exc.value)

    def test_unknown_key_names_line(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("[run]\nduraton = 1.0\n")
        assert "line 2" in str(exc.value)
        assert "duraton" in str(exc.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("[rocket]\nthrust = 9\n")
        assert "line 1" in str(exc.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[run]\nduration = 1\nduration = 2\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("duration = 1\n")
        assert "line 1" in str(exc.value)

    def test_bad_float_names_line(self):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario("[run]\nduration = forever\n").build()
        assert "line 2" in str(exc.value)

    def test_lossy_radio_without_seed_rejected(self):
        text = (
            "[strategy]\nkind = wireless_continuous\n"
            "[wireless]\nloss_rate = 0.1\n"
        )
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text).build()
        assert "seed" in str(exc.value)

    def test_dockless_save_and_print_rejected(self):
        text = "[strategy]\nkind = save_and_print_later\n"
        with pytest.raises(ScenarioError):
            parse_scenario(text).build()

    @given(text=st.text(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_totality_on_arbitrary_text(self, text):
        # the parser either succeeds or raises its own error type
        try:
            parse_scenario(text).build()
        except ScenarioError:
            pass


class TestShippedScenarios:
    def _load(self, name):
        root = importlib.resources.files("powergap") / "scenarios"
        return parse_scenario((root / name).read_text(), name)

    def test_all_nine_fixed_state_files_present(self):
        root = importlib.resources.files("powergap") / "scenarios"
        names = {p.name for p in root.iterdir() if p.name.endswith(".scn")}
        for clock in ("c80", "c160", "c240"):
            for radio in ("off", "idle", "tx"):
                assert f"table1_{clock}_{radio}.scn" in names

    def test_c80_off_reproduces_measured_drop(self):
        cfg = self._load("table1_c80_off.scn").build()
        result = run_scenario(cfg)
        assert result.metrics.max_drop_v == pytest.approx(1.62, rel=0.01)

    def test_gap_aligned_case_browns_out_ungated(self):
        cfg = self._load("gap_aligned_c160.scn").build()
        assert cfg.strategy is StrategyKind.WIRELESS_CONTINUOUS
        assert not cfg.controller
        result = run_scenario(cfg)
        assert result.metrics.brownout_count >= 1

    def test_reference_workload_parses(self):
        cfg = self._load("reference_workload.scn").build()
        assert cfg.layout.dock_position is not None
        assert cfg.seed == 7


def write_scenario(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCliRun:
    def test_outputs_and_exit_ok(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, MINIMAL)
        assert main(["run", scn, "--out", str(tmp_path)]) == EXIT_OK
        stem = "case"
        for suffix in ("_trace.csv", "_events.csv", "_metrics.csv"):
            assert (tmp_path / f"{stem}{suffix}").exists()
        assert "brownouts=0" in capsys.readouterr().out

    def test_validation_error_exit_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, "[run]\nduration = nope\n")
        assert main(["run", scn, "--out", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error" in err and "line 2" in err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "no.scn")]) == EXIT_VALIDATION

    def test_fail_on_brownout_exit_3(self, tmp_path):
        text = MINIMAL + "[car]\nclock = c240\nradio = tx\n"
        scn = write_scenario(tmp_path, text)
        args = ["run", scn, "--out", str(tmp_path)]
        assert main(args) == EXIT_OK
        assert main(args + ["--fail-on-brownout"]) == EXIT_BROWNOUT

    def test_degenerate_duration_two_samples(self, tmp_path):
        text = "[run]\nduration = 0.001\ndt = 0.0005\n"
        scn = write_scenario(tmp_path, text, "tiny.scn")
        assert main(["run", scn, "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "tiny_trace.csv").read_text().splitlines()
        assert lines[0] == "time_s,supply_v,cap_v"
        assert len(lines) == 3

    def test_reruns_byte_identical(self, tmp_path):
        scn = write_scenario(tmp_path, MINIMAL)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["run", scn, "--out", str(out_a), "--seed", "9"])
        main(["run", scn, "--out", str(out_b), "--seed", "9"])
        for suffix in ("_trace.csv", "_events.csv", "_metrics.csv"):
            a = (out_a / f"case{suffix}").read_bytes()
            b = (out_b / f"case{suffix}").read_bytes()
            assert a == b

    def test_parallel_matches_serial(self, tmp_path):
        s1 = write_scenario(tmp_path, MINIMAL, "one.scn")
        s2 = write_scenario(tmp_path, MINIMAL, "two.scn")
        out_serial = tmp_path / "serial"
        out_par = tmp_path / "par"
        main(["run", s1, s2, "--out", str(out_serial)])
        main(["run", s1, s2, "--out", str(out_par), "--jobs", "2"])
        for stem in ("one", "two"):
            assert (out_serial / f"{stem}_trace.csv").read_bytes() == (
                out_par / f"{stem}_trace.csv"
            ).read_bytes()

    def test_env_var_overrides_out_flag(self, tmp_path, monkeypatch):
        scn = write_scenario(tmp_path, MINIMAL)
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("POWERGAP_OUT", str(env_dir))
        main(["run", scn, "--out", str(tmp_path / "ignored")])
        assert (env_dir / "case_trace.csv").exists()
        assert not (tmp_path / "ignored" / "case_trace.csv").exists()


WORKLOAD = """
[track]
segments = straight:0.51 lanechange:0.48:0.09:0.36 straight:0.51
dock_position = 0.20

[workload]
rate = 5.0
payload_size = 10

[run]
duration = 8.0
seed = 2
"""


class TestCliCompare:
    def test_csv_row_per_strategy(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, WORKLOAD)
        assert main(["compare", scn, "--out", str(tmp_path)]) == EXIT_OK
        out_lines = capsys.readouterr().out.splitlines()
        header = out_lines[0].split(",")
        assert header[0] == "strategy"
        assert "backlog_growing" in header
        assert len(out_lines) == 1 + len(StrategyKind)
        assert (tmp_path / "compare.csv").read_text().splitlines() == out_lines

    def test_strategy_subset(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, WORKLOAD)
        code = main(
            [
                "compare",
                scn,
                "--strategies",
                "wireless_continuous,stop_and_radio",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("wireless_continuous,")

    def test_unknown_strategy_exit_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, WORKLOAD)
        code = main(["compare", scn, "--strategies", "carrier_pigeon"])
        assert code == EXIT_VALIDATION
        assert "carrier_pigeon" in capsys.readouterr().err

    def test_dockless_workload_exit_2(self, tmp_path, capsys):
        # save_and_print_later, in the default strategy list, needs a dock
        scn = write_scenario(tmp_path, MINIMAL)
        code = main(["compare", scn, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "error: save_and_print_later needs a dock" in capsys.readouterr().err
        assert not (tmp_path / "compare.csv").exists()


class TestCliTable1:
    def test_suite_passes_at_one_percent(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out
        csv_lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert csv_lines[0] == "state,expected_v,simulated_v,status"
        assert len(csv_lines) == 8

    def test_impossible_tolerance_exit_1(self, tmp_path, capsys):
        code = main(["table1", "--tolerance", "0.000001", "--out", str(tmp_path)])
        # float-exact simulation may or may not hit 1e-6 %; both codes legal,
        # but a mismatch must map to the dedicated exit code
        assert code in (EXIT_OK, EXIT_MISMATCH)

    def test_suite_covers_seven_states(self):
        rows = run_table1_suite()
        assert len(rows) == 7
        for _, expected, got in rows:
            assert got == pytest.approx(expected, rel=0.01)


class TestCliBasics:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "run" in capsys.readouterr().out

    def test_version_to_stdout(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("powergap ")

    def test_load_scenario_reads_file(self, tmp_path):
        path = tmp_path / "w.scn"
        path.write_text(MINIMAL)
        spec = load_scenario(str(path))
        assert spec.build().duration == 0.36
