import csv
import dataclasses
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import platoonctl
from platoonctl import (
    ArrivalModel,
    PlatoonPolicy,
    SimulationConfig,
    expected_fuel_increase_linearized,
    expected_fuel_saving_cruise,
    expected_platoon_headway,
    expected_platoon_size,
    expected_time_reduction,
    expected_total_cost,
    optimal_threshold,
    platoon_size_pmf,
)
from platoonctl import EmpiricalSummary, StatEstimate, cli, domain, simulator
from platoonctl.cli import (
    CSV_BLOCK_ROWS,
    SweepSpec,
    _ColumnRows,
    _write_csv,
    build_comparison,
    comparison_csv_rows,
    load_scenario,
    main,
    sweep_rows,
)
from platoonctl.domain import Z_95
from platoonctl.simulator import run_replications

from conftest import NOMINAL_RAW, OVERFLOWING_COSTS, TOO_FEW

try:
    from numpy._core._multiarray_umath import __cpu_features__ as CPU_FEATURES
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as CPU_FEATURES

BASE_CONFIG = {
    "arrival": {"rate": 0.02},
    "policy": {"threshold": 50.0},
    "cost": dict(NOMINAL_RAW),
    "simulation": {
        "n_vehicles": 100_000,
        "n_replications": 1,
        "seed": 12345,
    },
    "output": {},
}


@pytest.fixture
def write_config(tmp_path):
    def _write(overrides=None, name="scenario.json"):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        for section, values in (overrides or {}).items():
            if values is None:
                cfg.pop(section, None)
            elif isinstance(values, dict):
                cfg.setdefault(section, {}).update(
                    {k: v for k, v in values.items() if v is not None}
                )
                for key, value in values.items():
                    if value is None:
                        cfg[section].pop(key, None)
            else:
                cfg[section] = values
        path = tmp_path / name
        path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        return str(path)

    return _write


def malformed_config_text(kind: str) -> str:
    """A config text every command must reject with exit 2: a key given
    twice in a section or at the top level, arrays nested 200,000 deep, a
    null cost section, or an array at the top level."""
    text = json.dumps(BASE_CONFIG)
    if kind == "duplicate-in-section":
        return text.replace('{"rate": 0.02}', '{"rate": 0.02, "rate": 0.05}', 1)
    if kind == "duplicate-at-top-level":
        return text[:-1] + ', "policy": {"threshold": 10.0}}'
    if kind == "deep-nesting":
        return "[" * 200_000
    if kind == "top-level-array":
        return "[]"
    assert kind == "null-section"
    return json.dumps({**BASE_CONFIG, "cost": None})


# The kinds of malformed_config_text and the error message each gives.
MALFORMED_CONFIGS = {
    "duplicate-in-section": "config key 'rate' appears more than once",
    "duplicate-at-top-level": "config key 'policy' appears more than once",
    "deep-nesting": "not valid JSON (arrays or objects nested too deeply)",
    "null-section": "config section 'cost' must be an object",
    "top-level-array": "malformed.json: top level must be a JSON object",
}

# The start of the error of a rate and threshold whose expected leader
# headway, the largest closed form, overflows the float range.
HEADWAY_OVERFLOW = "e^(rate * threshold) / rate, the expected leader headway, overflows the float range"

# Configs whose every field is in its own range but whose closed forms or
# cost terms overflow the float range, and the start of the error each gives.
OVERFLOWING_CONFIGS = {
    # 1 / rate, the leader headway at any threshold, is beyond the float range.
    "headway-at-rate-1e-310": ({"arrival": {"rate": 1e-310}}, HEADWAY_OVERFLOW),
    # x = 40: e^40 / rate and the time reduction both overflow.
    "headway-at-x-40": ({"arrival": {"rate": 1e-300}, "policy": {"threshold": 4e301}}, HEADWAY_OVERFLOW),
    **{
        f"cost-{case}": ({"cost": values}, f"cost term {term}")
        for case, (values, term) in OVERFLOWING_COSTS.items()
    },
}

# The error of a config whose removed ``output`` section is anything but {}.
REMOVED_OUTPUT = (
    "config section 'output' was removed and only {} is accepted: name the output file with "
    "analytic --json or simulate --csv"
)


class TestConfigLoading:
    def test_parses_all_sections(self, write_config):
        scenario = load_scenario(write_config())
        assert scenario.arrival.rate == 0.02
        assert scenario.policy.threshold == 50.0
        assert scenario.cost is not None
        assert scenario.cost.cruise_speed == pytest.approx(24.5872, rel=1e-12)
        assert scenario.simulation is not None
        assert scenario.simulation.seed == 12345

    def test_cost_and_simulation_are_optional(self, write_config):
        scenario = load_scenario(write_config({"cost": None, "simulation": None}))
        assert scenario.cost is None
        assert scenario.simulation is None

    def test_missing_section_names_it(self, write_config):
        path = write_config({"arrival": None})
        with pytest.raises(ValueError, match="'arrival'"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "section,key",
        [("arrival", "rates"), ("policy", "threshold_s"), ("cost", "fuel_price"), ("simulation", "n_replication")],
    )
    def test_unknown_key_names_it(self, write_config, section, key):
        with pytest.raises(ValueError, match=rf"^config field {section}\.{key} is not a known key"):
            load_scenario(write_config({section: {key: 1}}))

    def test_unknown_section_names_it(self, write_config):
        with pytest.raises(ValueError, match="^config section 'simulations' is not a known section"):
            load_scenario(write_config({"simulations": {"n_vehicles": 10}}))

    def test_removed_output_section_is_accepted_empty(self, write_config):
        # As configs written before its removal hold it; BASE_CONFIG has it.
        assert load_scenario(write_config()) == load_scenario(write_config({"output": None}))

    def test_removed_warmup_key_is_accepted_at_zero(self, write_config):
        # The old default, as configs written before its removal hold it.
        scenario = load_scenario(write_config({"simulation": {"warmup_vehicles": 0}}))
        assert scenario.simulation == load_scenario(write_config()).simulation

    @pytest.mark.parametrize("value", [1, 1000, -1, 0.0, False, "0"])
    def test_removed_warmup_key_is_rejected_at_any_other_value(self, write_config, value):
        with pytest.raises(ValueError, match=r"^config field simulation\.warmup_vehicles was removed"):
            load_scenario(write_config({"simulation": {"warmup_vehicles": value}}))

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            *[(section, key, None, f"config field {section}.{key} is missing") for section, key in (
                ("arrival", "rate"), ("policy", "threshold"), ("cost", "value_of_time_per_h"),
                ("cost", "fuel_price_per_l"), ("cost", "drag_fuel_coeff"), ("cost", "fuel_per_100km"),
                ("cost", "fuel_saving_fraction"), ("cost", "cruise_speed_mph"), ("cost", "merge_zone_km"),
                ("cost", "cruise_zone_km"), ("simulation", "n_vehicles"), ("simulation", "seed"),
            )],
            ("arrival", "rate", "fast", "config field arrival.rate must be a number, got 'fast'"),
            ("policy", "threshold", [50], "config field policy.threshold must be a number, got [50]"),
            ("cost", "merge_zone_km", "2.5", "config field cost.merge_zone_km must be a number, got '2.5'"),
            ("cost", "nominal_merge_time_s", {}, "config field cost.nominal_merge_time_s must be a number, got {}"),
            ("simulation", "n_vehicles", "many", "config field simulation.n_vehicles must be an integer, got 'many'"),
            ("arrival", "rate", True, "config field arrival.rate must be a number, got True"),
            ("policy", "threshold", False, "config field policy.threshold must be a number, got False"),
            ("cost", "fuel_saving_fraction", True, "config field cost.fuel_saving_fraction must be a number, got True"),
            ("simulation", "n_vehicles", True, "config field simulation.n_vehicles must be an integer, got True"),
            ("simulation", "n_replications", True,
             "config field simulation.n_replications must be an integer, got True"),
            ("simulation", "seed", False, "config field simulation.seed must be an integer, got False"),
            ("simulation", "n_vehicles", 1000.0, "config field simulation.n_vehicles must be an integer, got 1000.0"),
            ("simulation", "n_replications", 2.5,
             "config field simulation.n_replications must be an integer, got 2.5"),
            ("simulation", "seed", 1.5, "config field simulation.seed must be an integer, got 1.5"),
            ("arrival", "rates", 1, "config field arrival.rates is not a known key; 'arrival' takes rate"),
            ("policy", "threshold_s", 1,
             "config field policy.threshold_s is not a known key; 'policy' takes threshold"),
            ("cost", "fuel_price", 1, "config field cost.fuel_price is not a known key; 'cost' takes "
             "value_of_time_per_h, fuel_price_per_l, drag_fuel_coeff, fuel_per_100km, fuel_saving_fraction, "
             "cruise_speed_mph, merge_zone_km, cruise_zone_km, nominal_merge_time_s"),
            ("simulation", "n_replication", 1,
             "config field simulation.n_replication is not a known key; 'simulation' takes n_vehicles, "
             "n_replications, seed"),
            ("output", "jsn", 1, REMOVED_OUTPUT),
        ],
    )
    def test_config_error_messages(self, write_config, section, key, value, message):
        # None leaves the key out. The seed is required, though
        # SimulationConfig defaults it to 0: a run always names its seed.
        with pytest.raises(ValueError) as raised:
            load_scenario(write_config({section: {key: value}}))
        assert str(raised.value) == message

    def test_optional_keys_take_their_defaults(self, write_config):
        scenario = load_scenario(write_config({
            "simulation": {"n_replications": None}, "cost": {"nominal_merge_time_s": None},
        }))
        assert scenario.simulation.n_replications == 1
        assert scenario.cost.nominal_merge_time == 0.0

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_scenario(str(path))


class TestExitCodes:
    def test_missing_file_exits_2(self, capsys):
        assert main(["analytic", "--config", "/nonexistent/cfg.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_numeric_field_exits_2(self, write_config, capsys):
        path = write_config({"cost": {"cruise_speed_mph": "fast"}})
        assert main(["analytic", "--config", path]) == 2
        assert "cruise_speed_mph" in capsys.readouterr().err

    def test_too_few_vehicles_exits_2(self, write_config, capsys):
        path = write_config({"simulation": {"n_vehicles": 1}})
        assert main(["simulate", "--config", path]) == 2
        assert "n_vehicles" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("merge_zone_km", 1e306), ("cruise_speed_mph", 5e-324)])
    def test_field_out_of_range_in_si_units_exits_2_naming_it(self, write_config, capsys, field, value):
        # Valid in planning units, but inf or 0 once converted to SI.
        path = write_config({"cost": {field: value}})
        assert main(["analytic", "--config", path]) == 2
        assert f"error: {field} in SI units must be" in capsys.readouterr().err

    def test_integer_beyond_float_range_exits_2(self, write_config, capsys):
        # float() of this JSON integer raises OverflowError, not ValueError.
        path = write_config({"policy": {"threshold": 10**400}})
        assert main(["analytic", "--config", path]) == 2
        assert "config field policy.threshold must be a finite number" in capsys.readouterr().err

    def test_out_of_range_simulation_exits_2_before_sampling(self, write_config, capsys, monkeypatch):
        # rate * threshold = 51: every vehicle would join one platoon, and
        # 10**12 of them would take hours to sample before failing.
        def never(*args, **kwargs):
            raise AssertionError("simulate sampled an out-of-range scenario")

        monkeypatch.setattr(simulator, "_gap_chunks", never)
        path = write_config(
            {"arrival": {"rate": 1.0}, "policy": {"threshold": 51.0}, "simulation": {"n_vehicles": 10**12}}
        )
        assert main(["simulate", "--config", path]) == 2
        assert "the supported range is rate * threshold <= 50" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rate,threshold,message",
        [
            (1e-305, 50.0, "arrival.rate = 1e-305 is too small for n_vehicles = 100000"),
            (1e-200, 1e200, "arrival.rate = 1e-200 is too small for n_vehicles = 100000"),
            # 1 / rate, the leader headway at threshold 0, overflows here too;
            # the closed forms' range check finds it before the horizon check.
            (1e-310, 50.0, f"{HEADWAY_OVERFLOW} at rate = 1e-310 and threshold = 50.0"),
        ],
        ids=["1e-305-50.0", "1e-200-1e+200", "1e-310-50.0"],
    )
    def test_times_beyond_the_float_range_exit_2_before_sampling(
        self, write_config, capsys, monkeypatch, rate, threshold, message
    ):
        # At these rates 1e5 vehicles' arrival times (or their squares)
        # overflow, which would give NaN rows or infinite half-widths that
        # pass every comparison.
        monkeypatch.setattr(simulator, "_gap_chunks", self._never)
        path = write_config({"arrival": {"rate": rate}, "policy": {"threshold": threshold}})
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err

    def test_shift_sums_beyond_the_float_range_exit_2_before_sampling(
        self, write_config, tmp_path, capsys, monkeypatch
    ):
        # At x = 12 a platoon's shift sum can reach n_vehicles times the
        # horizon; its square overflowed in the co-moments, the residual read
        # as 0, and the mean shift failed on a half-width of 0 (exit 1).
        monkeypatch.setattr(simulator, "_gap_chunks", self._never)
        out = tmp_path / "report.csv"
        path = write_config({
            "arrival": {"rate": 8e-144},
            "policy": {"threshold": 1.5e144},
            "simulation": {"n_vehicles": 1_000_000, "n_replications": 1, "seed": 0},
        })
        assert main(["simulate", "--config", path, "--csv", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: arrival.rate = 8e-144 is too small for n_vehicles = 1000000 ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("kind", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_exits_2_before_simulating(self, tmp_path, capsys, monkeypatch, kind):
        # json alone keeps the last of two equal keys and overflows the stack
        # on deep nesting; a null section is present, so not "missing".
        monkeypatch.setattr(simulator, "_gap_chunks", self._never)
        path = tmp_path / "malformed.json"
        path.write_text(malformed_config_text(kind), encoding="utf-8")
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", str(path), "--csv", str(out)]) == 2
        err = capsys.readouterr().err
        assert MALFORMED_CONFIGS[kind] in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", sorted(MALFORMED_CONFIGS))
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("analytic", ["--json", "out.json"]),
            ("optimize", ["--r-max", "500"]),
            ("sweep", ["--r-min", "0", "--r-max", "100", "--points", "3", "--csv", "out.csv"]),
        ],
    )
    def test_malformed_config_exits_2_in_every_command(self, tmp_path, capsys, monkeypatch, command, extra, kind):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "malformed.json"
        path.write_text(malformed_config_text(kind), encoding="utf-8")
        assert main([command, "--config", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert MALFORMED_CONFIGS[kind] in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf", "3"])
    def test_bad_sigma_exits_2_before_simulating(self, write_config, capsys, monkeypatch, sigma):
        # --sigma is gone: the parser rejects it at every value, its old
        # default 3 too, rather than ignore it.
        monkeypatch.setattr(simulator, "_gap_chunks", self._never)
        with pytest.raises(SystemExit) as exited:
            main(["simulate", "--config", write_config(), "--sigma", sigma])
        assert exited.value.code == 2
        assert "unrecognized arguments: --sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["1e-3", "1e-20"])
    def test_removed_tol_exits_2_before_optimizing(self, write_config, capsys, monkeypatch, tol):
        monkeypatch.setattr(cli, "numeric_optimal_threshold", self._never)
        with pytest.raises(SystemExit) as exited:
            main(["optimize", "--config", write_config(), "--r-max", "500", "--tol", tol])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --tol" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_output_path_not_a_string_exits_2_before_any_work(
        self, write_config, capsys, monkeypatch, command
    ):
        monkeypatch.setattr(simulator, "_gap_chunks", self._never)
        path = write_config({"output": {"json": True, "csv": ["a"]}})
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {REMOVED_OUTPUT}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "section",
        [{"csv": "named.csv"}, {"json": "named.json"}, {"csv": 1}, None, [], "named.csv"],
        ids=["csv", "json", "csv-not-a-path", "null", "array", "string"],
    )
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("analytic", []),
            ("optimize", ["--r-max", "500"]),
            ("simulate", []),
            ("sweep", ["--r-min", "0", "--r-max", "100", "--points", "3", "--csv", "out.csv"]),
        ],
    )
    def test_output_section_with_content_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, extra, section
    ):
        # Only flags name output files: a path in the removed section is an
        # error, not a file silently left unwritten.
        monkeypatch.chdir(tmp_path)
        for module, name in ((simulator, "_gap_chunks"), (cli, "_curves"), (cli, "analytic_quantities")):
            monkeypatch.setattr(module, name, self._never)
        (tmp_path / "scenario.json").write_text(json.dumps({**BASE_CONFIG, "output": section}), encoding="utf-8")
        assert main([command, "--config", "scenario.json", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {REMOVED_OUTPUT}\n"
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize(
        "command,extra,section",
        [
            ("simulate", ["--csv", "out.csv"], "simulation"),
            ("sweep", ["--with-simulation", "--r-min", "0", "--r-max", "100", "--points", "3", "--csv", "out.csv"],
             "simulation"),
            # The config is read before the grid flags, so its missing section
            # is reported, not the invalid --points.
            ("sweep", ["--with-simulation", "--r-min", "0", "--r-max", "100", "--points", "1", "--csv", "out.csv"],
             "simulation"),
            ("analytic", ["--json", "out.json"], "cost"),
            ("sweep", ["--r-min", "0", "--r-max", "100", "--points", "3", "--csv", "out.csv"], "cost"),
            ("optimize", ["--r-max", "100"], "cost"),
        ],
        ids=["simulate", "sweep-with-simulation", "sweep-with-simulation-before-points", "analytic", "sweep",
             "optimize"],
    )
    def test_missing_required_section_exits_2_before_any_work(
        self, write_config, tmp_path, capsys, monkeypatch, command, extra, section
    ):
        monkeypatch.chdir(tmp_path)
        for module, name in ((simulator, "_gap_chunks"), (cli, "_curves"), (cli, "analytic_quantities")):
            monkeypatch.setattr(module, name, self._never)
        assert main([command, "--config", write_config({section: None}), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config section '{section}' is required for this command\n"
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("where", [
        "missing-directory",
        "directory",
        pytest.param("read-only", marks=pytest.mark.skipif(
            os.geteuid() == 0, reason="root may write into a read-only directory")),
    ])
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("simulate", ["--csv"]),
            ("sweep", ["--r-min", "0", "--r-max", "100", "--points", "3", "--csv"]),
            ("analytic", ["--json"]),
        ],
        ids=["simulate-csv", "sweep-csv", "analytic-json"],
    )
    def test_unwritable_output_exits_2_before_any_work(
        self, write_config, tmp_path, capsys, monkeypatch, command, extra, where
    ):
        # Checked before the run, whose verdict would otherwise be printed and
        # then lost to the failed write.
        for module, name in ((simulator, "_gap_chunks"), (cli, "_curves"), (cli, "analytic_quantities")):
            monkeypatch.setattr(module, name, self._never)
        target = {
            "missing-directory": str(tmp_path / "missing" / "out"),
            "directory": str(tmp_path),
            "read-only": str(tmp_path / "read-only" / "out"),
        }[where]
        (tmp_path / "read-only").mkdir(mode=0o500)
        assert main([command, "--config", write_config(), *extra, target]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write output file {target!r}: ")
        assert captured.out == ""
        assert not (tmp_path / "missing").exists()
        assert not (tmp_path / "read-only" / "out").exists()

    def test_permission_denied_exits_2_before_any_work(self, write_config, tmp_path, capsys, monkeypatch):
        # The read-only cases above skip as root, who may write anywhere; an
        # access check that denies reaches the same message under any user.
        monkeypatch.setattr(simulator, "_gap_chunks", self._never)
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        target = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", write_config(), "--csv", target]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write output file {target!r}: permission denied\n"
        assert captured.out == ""
        assert not (tmp_path / "out.csv").exists()

    @staticmethod
    def _never(*args, **kwargs):
        raise AssertionError("the command simulated before rejecting its input")

    def test_out_of_memory_exits_3_with_a_message(self, write_config, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(simulator, "run_replications", exhausted)
        assert main(["simulate", "--config", write_config()]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory in 'simulate'")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("analytic", ["--json", "out.json"]),
            ("sweep", ["--r-min", "0", "--r-max", "1e300", "--points", "3", "--csv", "out.csv"]),
            ("optimize", ["--r-max", "1e300"]),
        ],
        ids=["analytic", "sweep", "optimize"],
    )
    def test_cost_term_overflowing_at_the_largest_threshold_exits_2_before_any_work(
        self, write_config, tmp_path, capsys, monkeypatch, command, extra
    ):
        # Every field, every cost coefficient and every closed form is finite
        # (x = 1, a headway of 2.7e300 s), but the fuel increase, 2 *
        # drag_fuel_coeff * cruise_speed^3 = 3e14 times a time reduction of
        # 7.2e299 s, is not: analytic printed inf, sweep wrote it, and
        # optimize's golden section ran on an infinite cost.
        monkeypatch.chdir(tmp_path)
        for module, name in ((SweepSpec, "thresholds"), (cli, "optimal_threshold"), (cli, "numeric_optimal_threshold")):
            monkeypatch.setattr(module, name, self._never)
        path = write_config(
            {"arrival": {"rate": 1e-300}, "policy": {"threshold": 1e300}, "cost": {"drag_fuel_coeff": 1e10},
             "simulation": None}
        )
        assert main([command, "--config", path, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: cost term expected_fuel_increase_l overflows the float range at threshold 1e+300 s, got inf\n"
        )
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize(
        "failure,code,message",
        [
            ("memory-error", 3, "out of memory in 'simulate'; try fewer vehicles or grid points"),
            ("exit-7", 2, "the worker process of replication 1 exited with status 7"),
            ("killed", 2, f"the worker process of replication 1 was killed by signal {int(signal.SIGKILL)}"),
        ],
    )
    def test_worker_failure_exits_with_one_error_line_and_no_process_left(
        self, write_config, capsys, monkeypatch, failure, code, message
    ):
        # Two usable CPUs: replication 0 and 2 fold here, and one forked
        # worker folds replication 1, where it fails.
        assert threading.active_count() == 1  # else the pool would not fork
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(simulator, "CHUNK_VEHICLES", 1024)
        parent, fold = os.getpid(), simulator._chunk_folds

        def failing(config, replication, thresholds, centers):
            if replication == 1:
                assert os.getpid() != parent, "replication 1 was folded in the parent"
                if failure == "memory-error":
                    raise MemoryError
                if failure == "exit-7":
                    os._exit(7)
                os.kill(os.getpid(), signal.SIGKILL)
            return fold(config, replication, thresholds, centers)

        monkeypatch.setattr(simulator, "_chunk_folds", failing)
        path = write_config({"simulation": {"n_vehicles": 20_000, "n_replications": 3, "seed": 7}})
        assert main(["simulate", "--config", path]) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("warmup_vehicles", 5, "was removed"),
            # A misspelt n_replications once ran one replication and exited 0.
            ("n_replication", 50, "is not a known key"),
        ],
    )
    def test_bad_simulation_key_exits_2_before_sampling(
        self, write_config, tmp_path, capsys, monkeypatch, key, value, message
    ):
        monkeypatch.setattr(simulator, "_gap_chunks", self._never)
        out = tmp_path / "report.csv"
        path = write_config({"simulation": {key: value}})
        assert main(["simulate", "--config", path, "--csv", str(out)]) == 2
        assert f"error: config field simulation.{key} {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("analytic", ["--json", "out.json"]),
            ("optimize", ["--r-max", "500"]),
            ("sweep", ["--r-min", "0", "--r-max", "100", "--points", "3", "--csv", "out.csv"]),
        ],
    )
    def test_unknown_key_exits_2_in_every_command(self, write_config, tmp_path, capsys, monkeypatch, command, extra):
        # Every command parses its config through load_scenario, so none of
        # them may ignore a misspelt key.
        monkeypatch.chdir(tmp_path)
        path = write_config({"cost": {"fuel_prices": 1.0}})
        assert main([command, "--config", path, *extra]) == 2
        captured = capsys.readouterr()
        assert "error: config field cost.fuel_prices is not a known key" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("case", sorted(OVERFLOWING_CONFIGS))
    @pytest.mark.parametrize("command", ["analytic", "optimize", "sweep", "simulate"])
    def test_overflowing_closed_form_or_cost_term_exits_2_in_every_command(
        self, write_config, tmp_path, capsys, monkeypatch, command, case
    ):
        # Every field is in its own range, but a closed form or a cost term
        # built from them is not finite: analytic would write Infinity, which
        # is not JSON, sweep inf, optimize a NaN cost, or cruise_speed**3
        # would raise OverflowError (exit 1). The other commands run without
        # the simulation section, so SimulationConfig does not reject the
        # rate and threshold before the closed forms do.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(simulator, "_gap_chunks", self._never)
        monkeypatch.setattr(SweepSpec, "thresholds", self._never)
        overrides, message = OVERFLOWING_CONFIGS[case]
        limit = repr(float(overrides.get("policy", {}).get("threshold", 50.0)))
        extra = {
            "analytic": ["--json", "out.json"],
            "optimize": ["--r-max", limit],
            "sweep": ["--r-min", "0", "--r-max", limit, "--points", "3", "--csv", "out.csv"],
            "simulate": ["--csv", "out.csv"],
        }[command]
        path = write_config({**overrides, "simulation": None} if command != "simulate" else overrides)
        assert main([command, "--config", path, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # The two configs of perfbench's oracle_large workload, 5e6
            # vehicles x 2 replications at seed 7, at x = 1 and x = 3. Shifts
            # within a platoon are correlated, so at x = 3 an interval that
            # took vehicles, not platoons (renewal cycles), as independent
            # fails (exit 1).
            {"simulation": {"n_vehicles": 5_000_000, "n_replications": 2, "seed": 7}},
            {
                "arrival": {"rate": 0.05},
                "policy": {"threshold": 60.0},
                "simulation": {"n_vehicles": 5_000_000, "n_replications": 2, "seed": 7},
            },
        ],
        ids=["nominal", "oracle-large-x1", "oracle-large-x3"],
    )
    def test_simulate_pass_exits_0(self, write_config, overrides):
        assert main(["simulate", "--config", write_config(overrides)]) == 0

    def test_simulate_fail_exits_1(self, write_config, capsys, monkeypatch):
        monkeypatch.setattr(simulator, "run_replications", lambda config: biased(run_replications(config)))
        assert main(["simulate", "--config", write_config()]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("FAIL") == 4
        assert captured.err == "comparison FAILED at 3 CI half-widths\n"

    def test_pool_with_closed_platoons_is_compared(self, write_config, tmp_path):
        # The last of three replications closes no platoon on its own; the
        # pool holds the other two's, so the comparison runs on them, every
        # row on the two closed platoons. Student's t at one degree of freedom
        # gives two samples their due width, so the correct closed forms pass.
        out = tmp_path / "report.csv"
        path = write_config({
            "arrival": {"rate": 1.0},
            "policy": {"threshold": 8.0},
            "simulation": {"n_vehicles": 2000, "n_replications": 3, "seed": 1},
        })
        assert main(["simulate", "--config", path, "--csv", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
        assert [int(row["n_samples"]) for row in rows] == [2, 2, 2, 2]

    def test_all_censored_pool_exits_2_naming_the_statistic(self, write_config, tmp_path, capsys):
        out = tmp_path / "report.csv"
        path = write_config({"policy": {"threshold": 2500.0}, "simulation": {"n_vehicles": 100, "n_replications": 2}})
        assert main(["simulate", "--config", path, "--csv", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: fewer than two platoon-size (each run's last platoon is censored) samples to summarize; "
            "a confidence interval needs at least two\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_one_closed_platoon_exits_2_not_1(self, write_config, tmp_path, capsys):
        # At x = 8 the 3,000 vehicles of seed 1 close one platoon, of 1,101
        # vehicles: one size sample has no confidence interval, so the run
        # is refused as unusable, not failed as a disagreement. The earlier
        # report at the output path stays as it was.
        out = tmp_path / "report.csv"
        out.write_text("earlier report\n", encoding="utf-8")
        path = write_config({
            "arrival": {"rate": 1.0},
            "policy": {"threshold": 8.0},
            "simulation": {"n_vehicles": 3000, "n_replications": 1, "seed": 1},
        })
        assert main(["simulate", "--config", path, "--csv", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: fewer than two platoon-size ")
        assert captured.out == ""
        assert out.read_text(encoding="utf-8") == "earlier report\n"

    def test_sweep_with_simulation_stops_at_its_largest_threshold_first(self, write_config, tmp_path, capsys):
        # A replication expects n_vehicles * e^-x closed platoons, fewest at
        # the largest threshold (x = 50 here, none): on the same draws a
        # larger threshold never closes more, so the error names that point.
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", write_config(), "--r-min", "0", "--r-max", "2500",
            "--points", "11", "--with-simulation", "--csv", str(out),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: threshold_s 2500.0: fewer than two platoon-size ")
        assert not out.exists()

    def test_sweep_with_simulation_draws_each_replication_once(
        self, nominal_params, nominal_arrival, tmp_path, monkeypatch
    ):
        # Every grid point folds the same draws: a sweep of P points and R
        # replications draws R streams, not P * R. Replications of 20 chunks
        # on two usable CPUs fork a worker, so every process that draws
        # appends its draws to one file.
        log = tmp_path / "draws.txt"
        gap_chunks = simulator._gap_chunks

        def counted(seed, replication, n):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {seed} {replication}\n")
            return gap_chunks(seed, replication, n)

        monkeypatch.setattr(simulator, "_gap_chunks", counted)
        monkeypatch.setattr(simulator, "CHUNK_VEHICLES", 1024)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        sim = SimulationConfig(
            arrival=nominal_arrival, policy=PlatoonPolicy(threshold=50.0), n_vehicles=20_000, n_replications=3, seed=1
        )
        header, rows = sweep_rows(nominal_params, nominal_arrival, SweepSpec(0.0, 100.0, 7), sim)
        assert len(rows) == 7
        draws = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        assert sorted((int(seed), int(rep)) for _, seed, rep in draws) == [(1, 0), (1, 1), (1, 2)]
        assert len({pid for pid, _, _ in draws}) == 2


class TestAnalyticCommand:
    def test_prints_all_quantities(self, write_config, capsys):
        assert main(["analytic", "--config", write_config()]) == 0
        out = capsys.readouterr().out
        for name in (
            "merge_probability",
            "expected_platoon_size",
            "expected_leader_headway_s",
            "expected_time_reduction_s",
            "expected_fuel_increase_l",
            "expected_fuel_saving_l",
            "expected_total_cost",
            "expected_merge_exit_time_s",
        ):
            assert name in out

    def test_zero_threshold_zeroes_cost_rows(self, write_config, capsys):
        path = write_config({"policy": {"threshold": 0.0}})
        assert main(["analytic", "--config", path]) == 0
        out = capsys.readouterr().out
        rows = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(rows["expected_time_reduction_s"]) == 0.0
        assert float(rows["expected_total_cost"]) == 0.0

    def test_negative_zero_threshold_reports_as_zero(self, write_config, tmp_path, capsys):
        # A -0.0 threshold is stored as 0.0, so no line or JSON value reads -0.
        outputs = []
        for threshold in (-0.0, 0.0):
            out = tmp_path / "analytic.json"  # stdout names it
            assert main(["analytic", "--config", write_config({"policy": {"threshold": threshold}}),
                         "--json", str(out)]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0][1])
        assert all(math.copysign(1.0, value) == 1.0 for value in (payload["threshold_s"], *payload["results"].values()))

    def test_json_output_is_deterministic(self, write_config, tmp_path):
        path = write_config()
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["analytic", "--config", path, "--json", str(out1)]) == 0
        assert main(["analytic", "--config", path, "--json", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["results"]["expected_platoon_size"] == pytest.approx(2.718281828, rel=1e-9)


class TestSimulateCommand:
    @pytest.mark.parametrize(
        "overrides,command",
        [
            (None, ["simulate"]),
            ({"simulation": {"n_replications": 3}}, ["simulate"]),
            (None, ["sweep", "--r-min", "0", "--r-max", "200", "--points", "11", "--with-simulation"]),
        ],
        ids=["simulate", "simulate-3-replications", "sweep-with-simulation"],
    )
    def test_csv_is_byte_identical_across_runs(self, write_config, tmp_path, overrides, command):
        path = write_config(overrides)
        csv1 = tmp_path / "report1.csv"
        csv2 = tmp_path / "report2.csv"
        assert main([*command, "--config", path, "--csv", str(csv1)]) == 0
        assert main([*command, "--config", path, "--csv", str(csv2)]) == 0
        assert csv1.read_bytes() == csv2.read_bytes()

    @staticmethod
    def _simulate_in_a_child(path: str, out: Path, **env: str) -> bytes:
        """The CSV bytes of ``simulate`` on the config ``path``, run in a
        fresh interpreter whose environment also holds ``env``."""
        src = str(Path(platoonctl.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **env}
        done = subprocess.run(
            [sys.executable, "-m", "platoonctl.cli", "simulate", "--config", path, "--csv", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return out.read_bytes()

    # Replications of seven chunks at x = 1.
    CHUNKED_RUN = {"simulation": {"n_vehicles": 200_000, "n_replications": 2, "seed": 7}}

    def test_csv_bytes_do_not_depend_on_the_blas_thread_count(self, write_config, tmp_path):
        # A BLAS dot product splits a long vector across its threads, so its
        # sum would follow their count. x = 1 closes about 12,000 platoons a
        # chunk, long enough to split.
        path = write_config(self.CHUNKED_RUN)
        outputs = [
            self._simulate_in_a_child(
                path, tmp_path / f"threads{threads}.csv",
                **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads),
            )
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not CPU_FEATURES.get("AVX512F"), reason="numpy dispatches no AVX-512 kernels on this CPU")
    def test_csv_bytes_do_not_depend_on_numpy_simd_dispatch(self, write_config, tmp_path):
        # numpy picks its log kernel by CPU feature: at the AVX-512 level
        # np.log differs from libm's log by 1 ulp on about 0.3% of the gaps,
        # at AVX2 and below it equals it. The output must not show which ran.
        path = write_config(self.CHUNKED_RUN)
        native = self._simulate_in_a_child(path, tmp_path / "native.csv")
        below = self._simulate_in_a_child(
            path, tmp_path / "avx2.csv", NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
        )
        assert native == below

    @pytest.mark.parametrize("reps", [2, 3, 5])
    @pytest.mark.parametrize(
        "command, chunk, vehicles",
        [
            # Replications of 13 chunks fork min(reps, CPUs) - 1 workers.
            (["simulate"], 4096, 50_000),
            (["sweep", "--r-min", "0", "--r-max", "400", "--points", "9", "--with-simulation"], 4096, 50_000),
            # 410 thresholds make a record of 65,600 bytes, more than a 64 KiB
            # pipe holds; replications of 9 short chunks keep the run brief.
            (["sweep", "--r-min", "0", "--r-max", "200", "--points", "410", "--with-simulation"], 1024, 9000),
        ],
        ids=["simulate", "sweep-with-simulation", "sweep-with-simulation-over-a-pipe-buffer"],
    )
    def test_csv_bytes_do_not_depend_on_the_cpu_count(
        self, write_config, tmp_path, monkeypatch, usable_cpus, command, chunk, vehicles, reps
    ):
        monkeypatch.setattr(simulator, "CHUNK_VEHICLES", chunk)
        path = write_config({"simulation": {"n_vehicles": vehicles, "n_replications": reps, "seed": 7}})
        outputs = []
        for cpus in (1, 2, 4):
            forks = usable_cpus(cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            assert main([*command, "--config", path, "--csv", str(out)]) == 0
            assert len(forks) == min(reps, cpus) - 1, cpus
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_warmup_key_at_zero_changes_no_output_byte(self, write_config, tmp_path, capsys):
        # Configs written before the option was removed hold it at 0.
        out = tmp_path / "report.csv"  # stdout names it
        outputs = []
        for name, overrides in (("plain", None), ("warmup", {"simulation": {"warmup_vehicles": 0}})):
            path = write_config(overrides, name=f"{name}.json")
            assert main(["simulate", "--config", path, "--csv", str(out)]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_csv_schema(self, write_config, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["simulate", "--config", write_config(), "--csv", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "statistic,analytic,empirical,ci_half_width,relative_error,n_samples,passed"
        assert len(lines) == 5  # header + four statistics
        assert "\r" not in text
        for line in lines[1:]:
            assert line.split(",")[-1] == "True"

    def test_comparison_rows_match_library(self, write_config):
        scenario = load_scenario(write_config())
        rows = build_comparison(scenario.arrival, scenario.policy, run_replications(scenario.simulation))
        assert all(row.passed for row in rows)
        names = [row.statistic for row in rows]
        assert names == [
            "mean_platoon_size",
            "mean_leader_headway",
            "mean_time_shift",
            "singleton_probability",
        ]
        for row in rows:
            assert row.relative_error < 0.02

    @pytest.mark.parametrize("rate, threshold", [(0.02, 50.0), (0.05, 60.0), (0.5, 10.0), (0.3, 0.0)])
    def test_analytic_column_equals_the_scalar_closed_forms(self, rate, threshold):
        arrival, policy = ArrivalModel(rate=rate), PlatoonPolicy(threshold=threshold)
        summary = run_replications(SimulationConfig(arrival=arrival, policy=policy, n_vehicles=2000, seed=3))
        rows = build_comparison(arrival, policy, summary)
        assert [row.analytic.hex() for row in rows] == [
            expected_platoon_size(arrival, policy).hex(),
            expected_platoon_headway(arrival, policy).hex(),
            expected_time_reduction(arrival, policy).hex(),
            platoon_size_pmf(arrival, policy, 1).hex(),
        ]

    def test_singleton_row_passes_on_a_pool_with_no_singleton(self, write_config, tmp_path):
        # At x = 8 the 1e6 vehicles close 300 platoons, none of them a
        # singleton, as e^-8 makes likely; the row must not fail for that.
        # The time-shift row may still fail: its CI is the known defect.
        out = tmp_path / "report.csv"
        arrival, policy = ArrivalModel(rate=1.0), PlatoonPolicy(threshold=8.0)
        path = write_config({
            "arrival": {"rate": 1.0},
            "policy": {"threshold": 8.0},
            "simulation": {"n_vehicles": 1_000_000, "n_replications": 1, "seed": 1},
        })
        assert main(["simulate", "--config", path, "--csv", str(out)]) in (0, 1)
        rows = {row["statistic"]: row for row in csv.DictReader(out.read_text(encoding="utf-8").splitlines())}
        row = rows["singleton_probability"]
        p0, n = platoon_size_pmf(arrival, policy, 1), int(row["n_samples"])
        assert float(row["empirical"]) == 0.0 and n == 300
        assert row["ci_half_width"] == repr(Z_95 * math.sqrt(p0 * (1.0 - p0) / n))
        assert row["passed"] == "True"

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: on about ten closed platoons the mean shift's t interval is too narrow",
    )
    def test_mean_shift_verdict_is_calibrated_on_ten_closed_platoons(self):
        # Unit rate, one replication of round(10 e^x) + 1 vehicles, about ten
        # closed platoons, at seeds 0-999; a seed that closes fewer than two
        # has no verdict. The correct closed forms may fail the mean shift on
        # at most 1% of the seeds: the 3-half-width gate fails 4.9%, 5.7%,
        # 5.6% and 7.6% of them at x = 1, 3, 5 and 8.
        shares = {}
        for x in (1.0, 3.0, 5.0, 8.0):
            arrival, policy = ArrivalModel(rate=1.0), PlatoonPolicy(threshold=x)
            failed = compared = 0
            for seed in range(1000):
                config = SimulationConfig(
                    arrival=arrival, policy=policy, n_vehicles=round(10.0 * math.exp(x)) + 1, seed=seed
                )
                try:
                    summary = run_replications(config)
                except ValueError as exc:
                    if str(exc) != TOO_FEW:
                        raise
                    continue
                rows = {row.statistic: row for row in build_comparison(arrival, policy, summary)}
                compared += 1
                failed += not rows["mean_time_shift"].passed
            shares[x] = failed / compared
        assert all(share <= 0.01 for share in shares.values()), shares

    @pytest.mark.parametrize("rate, passed", [(1.0, True), (0.125, False)])
    def test_singleton_half_width_is_the_null_one_when_no_singleton_is_seen(self, rate, passed):
        # At x = 8 (rate 1.0) a pool of 300 platoons with no singleton is
        # within three null half-widths of e^-8; at x = 1 (rate 0.125) it
        # is not. The empirical share's own Wald width would be 0 in both.
        arrival, policy = ArrivalModel(rate=rate), PlatoonPolicy(threshold=8.0)
        estimate = StatEstimate(10.0, 1.0, 300)
        summary = EmpiricalSummary(
            platoon_size=estimate, leader_headway=estimate, time_shift=estimate, size_pmf={1: 0.0, 2: 0.5}
        )
        row = build_comparison(arrival, policy, summary)[3]
        p0 = platoon_size_pmf(arrival, policy, 1)
        assert row.statistic == "singleton_probability" and row.empirical == 0.0
        assert row.ci_half_width == Z_95 * math.sqrt(p0 * (1.0 - p0) / 300) > 0.0
        assert row.passed is passed


def biased(summary):
    """``summary`` moved off the truth, so every comparison row fails: each
    mean by 100 CI half-widths, and the singleton frequency to 1, which is
    further from its closed form e^-x than three half-widths of that share
    at every x and pool size the tests use."""

    def moved(estimate):
        return dataclasses.replace(estimate, mean=estimate.mean + 100.0 * estimate.ci_half_width)

    return dataclasses.replace(
        summary,
        platoon_size=moved(summary.platoon_size),
        leader_headway=moved(summary.leader_headway),
        time_shift=moved(summary.time_shift),
        size_pmf={**summary.size_pmf, 1: 1.0},
    )


def csv_writer_bytes(tmp_path, header, rows) -> bytes:
    """The bytes the standard library's CSV writer gives for these rows."""
    path = tmp_path / "csv_writer_reference.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


class TestWriteCsv:
    EDGE_FLOATS = [
        -0.0, 5e-324, 1e-5, 1e-4, 1e16, 0.1 + 0.2, 1.7976931348623157e308, float("inf"), float("nan"),
    ]

    def assert_same_bytes_as_csv_writer(self, tmp_path, header, rows):
        out = tmp_path / "written.csv"
        _write_csv(out, header, rows)
        assert out.read_bytes() == csv_writer_bytes(tmp_path, header, rows)

    def test_edge_floats(self, tmp_path):
        rows = [[value, -value] for value in self.EDGE_FLOATS]
        self.assert_same_bytes_as_csv_writer(tmp_path, ["value", "negated"], rows)

    def test_edge_floats_through_the_column_path(self, tmp_path):
        values = np.array(self.EDGE_FLOATS)
        out = tmp_path / "written.csv"
        _write_csv(out, ["value", "negated"], _ColumnRows([values, -values]))
        rows = [[value, -value] for value in self.EDGE_FLOATS]
        assert out.read_bytes() == csv_writer_bytes(tmp_path, ["value", "negated"], rows)

    def test_ints_and_bools(self, tmp_path):
        rows = [(0, True), (-7, False), (2**63, True), (10**30, False)]
        self.assert_same_bytes_as_csv_writer(tmp_path, ["n_samples", "passed"], rows)

    def test_simulate_comparison_table(self, tmp_path):
        arrival, policy = ArrivalModel(rate=0.05), PlatoonPolicy(threshold=60.0)
        summary = run_replications(SimulationConfig(arrival=arrival, policy=policy, n_vehicles=2000, seed=3))
        for pooled, passed in ((summary, True), (biased(summary), False)):
            header, rows = comparison_csv_rows(build_comparison(arrival, policy, pooled))
            assert {row[-1] for row in rows} == {passed}
            self.assert_same_bytes_as_csv_writer(tmp_path, header, rows)

    @pytest.mark.parametrize("count", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
    def test_row_counts_around_the_block_size(self, tmp_path, count):
        rows = [(i / 7.0, i, i % 3 == 0, -i * 1e-300) for i in range(count)]
        self.assert_same_bytes_as_csv_writer(tmp_path, ["a", "b", "c", "d"], rows)

    def test_memory_is_one_block_of_text_not_the_file(self, tmp_path, nominal_params, nominal_arrival):
        header, rows = sweep_rows(nominal_params, nominal_arrival, SweepSpec(0.0, 400.0, 200_000))
        out = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            _write_csv(out, header, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        block_text = size / len(rows) * CSV_BLOCK_ROWS
        assert peak < 4 * block_text
        assert peak < size / 10


def column_path_text(block) -> str:
    """The CSV body the sweep's column path writes for a 2-D float block."""
    fh = io.BytesIO()
    _ColumnRows(list(np.asarray(block, dtype=np.float64).T)).write_csv(fh)
    return fh.getvalue().decode("ascii")


def repr_text(block) -> str:
    """The reference: each field's ``repr``, comma-joined, one line per row."""
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(block, dtype=np.float64).tolist())


# The neighbours of both ends of the range in which orjson's notation equals
# repr's, on both sides and with both signs, and the extreme finite floats.
NOTATION_BOUNDARY_FLOATS = [
    float(value) * sign
    for edge in (1e-4, 1e16)
    for value in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))
    for sign in (1.0, -1.0)
] + [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


class TestColumnFormatter:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from([0.0, -0.0, 5e-324, float("nan"), float("inf"), float("-inf"), *NOTATION_BOUNDARY_FLOATS]),
    ))
    def test_blocks_equal_repr(self, block):
        assert column_path_text(block) == repr_text(block)

    def test_million_random_bit_patterns_equal_repr(self):
        rng = np.random.default_rng(20180618)
        count = 500_000
        # Half any 64-bit pattern (mostly outside the orjson range), half
        # with exponents from 2^-15 to 2^54, across both of its ends.
        anything = rng.integers(0, 2**64, size=count, dtype=np.uint64)
        exponent = rng.integers(1023 - 15, 1023 + 55, size=count, dtype=np.uint64)
        near = (anything & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent << np.uint64(52))
        for bits in (anything, near):
            block = bits.view(np.float64).reshape(-1, 4)
            assert column_path_text(block) == repr_text(block)

    def test_notation_boundaries_equal_repr(self):
        values = np.array(NOTATION_BOUNDARY_FLOATS)
        assert str(float(np.nextafter(1e-4, 0.0))) == "9.999999999999999e-05"
        assert str(float(np.nextafter(1e16, 0.0))) == "9999999999999998.0"
        block = np.stack([values, values[::-1]], axis=1)
        assert column_path_text(block) == repr_text(block)
        # With one column, each value is a row of its own, so every repr
        # must land on the line of the value it replaces.
        assert column_path_text(values[:, None]) == repr_text(values[:, None])

    @pytest.mark.parametrize("count", [1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
    def test_fallback_rows_anywhere_in_a_block(self, count):
        block = np.linspace(1.0, 2.0, 3 * count).reshape(count, 3)
        for row in (0, count // 2, count - 1):
            block[row, row % 3] = (0.0, float("nan"), 1e16)[row % 3]
        assert column_path_text(block) == repr_text(block)


DOCUMENTED_SWEEP_HEADER = [
    "threshold_s",
    "expected_platoon_size",
    "expected_leader_headway_s",
    "expected_time_reduction_s",
    "expected_fuel_increase_l",
    "expected_fuel_saving_l",
    "expected_total_cost",
]


def reference_sweep_rows(params, arrival, r_min, r_max, points):
    """The per-point loop the sweep is checked against: one policy and the
    scalar public closed forms at every grid threshold."""
    rows = []
    for r in np.linspace(r_min, r_max, points):
        policy = PlatoonPolicy(threshold=float(r))
        rows.append([
            float(r),
            expected_platoon_size(arrival, policy),
            expected_platoon_headway(arrival, policy),
            expected_time_reduction(arrival, policy),
            expected_fuel_increase_linearized(params, arrival, policy),
            expected_fuel_saving_cruise(params, arrival, policy),
            expected_total_cost(params, arrival, policy),
        ])
    return rows


# (overrides, r_min, r_max, points). Every grid starts at threshold 0. On the
# dense grids numpy's exp/expm1 differ from libm's in the last bit at about
# 5% of the points, so an array pass through them fails the byte comparison.
SWEEP_GRIDS = {
    # Sub-ulp thresholds, where the time reduction comes from its series.
    "tiny_thresholds": ({}, 0.0, 1e-16, 101),
    "x50_boundary": ({"arrival": {"rate": 0.125}}, 0.0, 400.0, 2001),
    "cruise_5km": ({"cost": {"cruise_zone_km": 5.0}}, 0.0, 400.0, 2001),
    "cruise_30km": ({}, 0.0, 400.0, 2001),
    "cruise_80km": ({"cost": {"cruise_zone_km": 80.0}}, 0.0, 400.0, 2001),
    "unbounded_decreasing": ({"cost": {"value_of_time_per_h": 100.0}}, 0.0, 400.0, 2001),
    # Two whole blocks and one row, with the fallback zeros of threshold 0 in
    # the first block.
    "two_blocks_and_a_row": ({}, 0.0, 400.0, 2 * CSV_BLOCK_ROWS + 1),
    # x from 0 to 50 in steps of 0.0025: fields below 1e-4 and above 1e16,
    # the two ends of orjson's repr notation, in ten blocks.
    "whole_x_range": ({}, 0.0, 2500.0, 20_001),
}


class TestSweepCommand:
    @pytest.mark.parametrize("grid", list(SWEEP_GRIDS))
    def test_csv_bytes_equal_the_per_point_reference(self, write_config, tmp_path, grid):
        overrides, r_min, r_max, points = SWEEP_GRIDS[grid]
        path = write_config(overrides)
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", path, "--r-min", repr(r_min), "--r-max", repr(r_max),
            "--points", str(points), "--csv", str(out),
        ]) == 0
        scenario = load_scenario(path)
        reference = csv_writer_bytes(
            tmp_path,
            DOCUMENTED_SWEEP_HEADER,
            reference_sweep_rows(scenario.cost, scenario.arrival, r_min, r_max, points),
        )
        assert out.read_bytes() == reference

    @pytest.mark.parametrize("grid", ["x50_boundary", "cruise_30km", "unbounded_decreasing"])
    def test_sweep_row_equals_analytic_json_bit_for_bit(self, write_config, tmp_path, grid):
        overrides, r_min, r_max, points = SWEEP_GRIDS[grid]
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", write_config(overrides), "--r-min", repr(r_min),
            "--r-max", repr(r_max), "--points", str(points), "--csv", str(out),
        ]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        for index in range(0, points, 97):
            row = dict(zip(header, lines[1 + index].split(",")))
            threshold = float(row["threshold_s"])
            config = write_config(
                {**overrides, "policy": {"threshold": threshold}}, name=f"point{index}.json"
            )
            json_path = tmp_path / f"point{index}.out.json"
            assert main(["analytic", "--config", config, "--json", str(json_path)]) == 0
            results = json.loads(json_path.read_text(encoding="utf-8"))["results"]
            for column in DOCUMENTED_SWEEP_HEADER[1:]:
                assert repr(results[column]) == row[column], (threshold, column)

    @pytest.mark.parametrize("r_max", ["3000", "2500.001"])
    def test_out_of_range_r_max_exits_2_before_any_work(
        self, write_config, tmp_path, capsys, monkeypatch, r_max
    ):
        # At 2500.001 the product is 50.00002..., which the message must show
        # above the limit rather than rounded to "50".
        def never(self):
            raise AssertionError("sweep built the grid before checking r_max")

        monkeypatch.setattr(SweepSpec, "thresholds", never)
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", write_config(), "--r-min", "0", "--r-max", r_max,
            "--points", "1000001", "--csv", str(out),
        ]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "supported range is rate * threshold <= 50" in err
        product = 0.02 * float(r_max)
        assert product > 50.0 and f"= {product!r} exceeds 50" in err

    def test_two_points_gives_exact_endpoints(self, write_config, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", write_config(), "--r-min", "0", "--r-max", "200",
            "--points", "2", "--csv", str(out),
        ]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0.0"
        assert lines[2].split(",")[0] == "200.0"

    def test_cost_column_dips_then_rises_and_min_matches_optimum(self, write_config, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", write_config(), "--r-min", "0", "--r-max", "200",
            "--points", "201", "--csv", str(out),
        ]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        cost_col = header.index("expected_total_cost")
        r_col = header.index("threshold_s")
        rows = [line.split(",") for line in lines[1:]]
        costs = [float(row[cost_col]) for row in rows]
        thresholds = [float(row[r_col]) for row in rows]
        diffs = np.diff(costs)
        assert diffs[0] < 0 and diffs[-1] > 0
        assert int(np.sum(np.diff(np.sign(diffs)) != 0)) == 1
        scenario = load_scenario(write_config())
        best = optimal_threshold(scenario.cost, scenario.arrival, 500.0).threshold
        grid_best = thresholds[int(np.argmin(costs))]
        assert abs(grid_best - best) <= 1.0  # one grid step

    def test_longer_cruise_zone_reaches_lower_minimum_cost(self, write_config, tmp_path):
        minima = {}
        for km in (5.0, 80.0):
            out = tmp_path / f"sweep_{int(km)}.csv"
            path = write_config({"cost": {"cruise_zone_km": km}}, name=f"cfg_{int(km)}.json")
            assert main([
                "sweep", "--config", path, "--r-min", "0", "--r-max", "200",
                "--points", "201", "--csv", str(out),
            ]) == 0
            lines = out.read_text(encoding="utf-8").splitlines()
            cost_col = lines[0].split(",").index("expected_total_cost")
            minima[km] = min(float(line.split(",")[cost_col]) for line in lines[1:])
        assert minima[80.0] < minima[5.0]

    def test_with_simulation_appends_empirical_columns(self, write_config, tmp_path):
        out = tmp_path / "sweep_sim.csv"
        path = write_config({"simulation": {"n_vehicles": 5000}})
        assert main([
            "sweep", "--config", path, "--r-min", "10", "--r-max", "50",
            "--points", "3", "--with-simulation", "--csv", str(out),
        ]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        assert "sim_platoon_size" in header
        assert "sim_time_shift_s" in header
        assert len(lines) == 4
        # The last point is the config's threshold, so its simulated fields
        # are the means and half-widths simulate writes, as text.
        report = tmp_path / "report.csv"
        assert main(["simulate", "--config", path, "--csv", str(report)]) == 0
        simulated = {row["statistic"]: row for row in csv.DictReader(report.read_text(encoding="utf-8").splitlines())}
        last = dict(zip(header, lines[3].split(",")))
        assert last["threshold_s"] == "50.0"
        assert [last[column] for column in cli.SWEEP_SIM_HEADER] == [
            simulated[statistic][field]
            for statistic in ("mean_platoon_size", "mean_leader_headway", "mean_time_shift")
            for field in ("empirical", "ci_half_width")
        ]

    def test_sweep_spec_validation(self):
        with pytest.raises(ValueError, match="r_max"):
            SweepSpec(r_min=10.0, r_max=5.0, n_points=5)
        with pytest.raises(ValueError, match="n_points"):
            SweepSpec(r_min=0.0, r_max=10.0, n_points=1)

    @pytest.mark.parametrize(
        "r_min,r_max,points,message",
        [
            ("-1", "100", "5", "r_min must be >= 0"),
            ("-5e-324", "100", "5", "r_min must be >= 0"),
            ("nan", "100", "5", "r_min must be a finite number"),
            ("inf", "100", "5", "r_min must be a finite number"),
            ("0", "nan", "5", "r_max must be a finite number"),
            ("0", "inf", "5", "r_max must be a finite number"),
            ("0", "-inf", "5", "r_max must be a finite number"),
            ("5", "5", "5", "r_max must be > r_min"),
            ("10", "5", "5", "r_max must be > r_min"),
            ("0", "100", "1", "n_points must be an integer >= 2"),
            ("0", "100", "0", "n_points must be an integer >= 2"),
            ("0", "100", "-3", "n_points must be an integer >= 2"),
        ],
        ids=[
            "r_min-negative", "r_min-smallest-negative", "r_min-nan", "r_min-inf",
            "r_max-nan", "r_max-inf", "r_max-negative-inf", "r_max-equal", "r_max-below",
            "points-1", "points-0", "points-negative",
        ],
    )
    def test_malformed_grid_exits_2_before_any_work(
        self, write_config, tmp_path, capsys, monkeypatch, r_min, r_max, points, message
    ):
        # SweepSpec is the grid's only check: a grid it accepts goes to the
        # evaluator unchecked, so every malformed one must stop here.
        def never(*args, **kwargs):
            raise AssertionError("sweep used a grid that SweepSpec should have rejected")

        for module, name in ((SweepSpec, "thresholds"), (cli, "_curves"), (simulator, "_gap_chunks")):
            monkeypatch.setattr(module, name, never)
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", write_config(), f"--r-min={r_min}", f"--r-max={r_max}",
            f"--points={points}", "--with-simulation", "--csv", str(out),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}, got ")
        assert captured.out == ""
        assert not out.exists()

    def test_numeric_array_grid_is_checked_without_a_per_point_call(
        self, tmp_path, nominal_params, nominal_arrival, monkeypatch
    ):
        # SweepSpec checks its three numbers once; the grid then reaches the
        # evaluator as one array, with no number checked or policy built per
        # point.
        spec = SweepSpec(0.0, 100.0, 1001)
        calls = []
        monkeypatch.setattr(domain, "_number", lambda name, value: calls.append(value) or float(value))
        header, rows = sweep_rows(nominal_params, nominal_arrival, spec)
        out = tmp_path / "sweep.csv"
        _write_csv(out, header, rows)
        assert calls == []
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [repr(r) for r in spec.grid()]

    def test_rejects_a_grid_past_the_product_limit(self, tmp_path, nominal_params, nominal_arrival):
        with pytest.raises(ValueError, match="rate \\* threshold"):
            sweep_rows(nominal_params, nominal_arrival, SweepSpec(0.0, 2500.001, 2))
        # The boundary itself, rate * threshold = 50 exactly, is accepted.
        header, rows = sweep_rows(nominal_params, nominal_arrival, SweepSpec(0.0, 2500.0, 2))
        out = tmp_path / "sweep.csv"
        _write_csv(out, header, rows)
        last = dict(zip(header, out.read_text(encoding="utf-8").splitlines()[-1].split(",")))
        assert last["threshold_s"] == "2500.0"
        assert last["expected_platoon_size"] == repr(math.exp(50.0))

    def test_sweep_rows_via_library(self, tmp_path, nominal_params, nominal_arrival):
        header, rows = sweep_rows(nominal_params, nominal_arrival, SweepSpec(0.0, 100.0, 5))
        assert header[0] == "threshold_s"
        assert len(rows) == 5
        out = tmp_path / "sweep.csv"
        _write_csv(out, header, rows)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",") == header and len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0.0" and first[-1] == "0.0"  # zero threshold, zero cost

    def test_memory_is_the_columns_not_the_rows(self, tmp_path, nominal_params, nominal_arrival):
        # The seven closed-form columns are 56 B per grid point as float64;
        # a list of row tuples of Python floats would be about 330 B.
        points = 100_000
        tracemalloc.start()
        try:
            header, rows = sweep_rows(nominal_params, nominal_arrival, SweepSpec(0.0, 400.0, points))
            _write_csv(tmp_path / "sweep.csv", header, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / points < 128


    def test_simulated_sweep_keeps_six_floats_per_point(self, nominal_params, nominal_arrival):
        # While it draws, a simulated sweep holds per grid point one record
        # row of 20 sums, its two centers and the open platoon's three
        # numbers; then it keeps six floats per point, not a summary with its
        # PMF dict. Measured as the growth of the traced peak from 201 to
        # 2,201 points, after a first call has made every one-time
        # allocation: about 470 B here (the open platoon and the centers are
        # Python floats in lists), against 852 B with a Python record object
        # per point.
        sim = SimulationConfig(
            arrival=nominal_arrival, policy=PlatoonPolicy(threshold=50.0), n_vehicles=500, n_replications=1, seed=1
        )
        sweep_rows(nominal_params, nominal_arrival, SweepSpec(0.0, 100.0, 3), sim)
        peaks = {}
        for points in (201, 2_201):
            tracemalloc.start()
            try:
                sweep_rows(nominal_params, nominal_arrival, SweepSpec(0.0, 100.0, points), sim)
                peaks[points] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[2_201] - peaks[201]) / 2_000 < 600


class TestOptimizeCommand:
    def test_reports_interior_optimum(self, write_config, capsys):
        assert main(["optimize", "--config", write_config(), "--r-max", "500"]) == 0
        out = capsys.readouterr().out
        assert "interior_optimum" in out
        rows = dict(line.split(None, 1) for line in out.strip().splitlines())
        closed = float(rows["closed_form_threshold_s"])
        numeric = float(rows["numeric_threshold_s"])
        assert closed == pytest.approx(35.2, abs=0.2)
        assert abs(closed - numeric) <= 2e-3

    def test_reports_unbounded_regime(self, write_config, capsys):
        path = write_config({"cost": {"value_of_time_per_h": 100.0}})
        assert main(["optimize", "--config", path, "--r-max", "300"]) == 0
        out = capsys.readouterr().out
        assert "unbounded_decreasing" in out
        rows = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert float(rows["closed_form_threshold_s"]) == 300.0

    def test_zero_cruise_zone_reports_zero_threshold(self, write_config, capsys):
        path = write_config({"cost": {"cruise_zone_km": 0.0}})
        assert main(["optimize", "--config", path, "--r-max", "100"]) == 0
        rows = dict(
            line.split(None, 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(rows["closed_form_threshold_s"]) == 0.0
        assert float(rows["cost_at_threshold"]) == 0.0
