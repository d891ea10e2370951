"""numpy loads only where arrays are computed and orjson only where a sweep
writes its CSV, and the package's public names are the objects their
defining modules hold.

Each import check runs in a fresh interpreter, because this test process has
already imported numpy and orjson."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import platoonctl
from platoonctl import analytic, domain, simulator

ROOT = Path(__file__).resolve().parents[1]
NOMINAL = ROOT / "scenarios" / "nominal.json"
SRC = str(Path(platoonctl.__file__).resolve().parents[1])


def _loaded(body: str, cwd: Path = ROOT) -> set[str]:
    """Run ``body`` in a fresh interpreter in ``cwd``; which of numpy and
    orjson it left imported."""
    script = f"import sys\n{body}\nprint(*{{'numpy', 'orjson'}} & set(sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def _main(args: list, exit_code: int) -> str:
    return f"from platoonctl import cli\nassert cli.main({[str(a) for a in args]!r}) == {exit_code}"


@pytest.mark.parametrize(
    "body",
    [
        "import platoonctl",
        "import platoonctl.cli",
        "from platoonctl import SimulationConfig, StatEstimate, EmpiricalSummary, optimal_threshold",
        _main(["analytic", "--config", NOMINAL], 0),
        _main(["optimize", "--config", NOMINAL, "--r-max", "500"], 0),
    ],
    ids=["import-package", "import-cli", "import-domain-types", "analytic", "optimize"],
)
def test_scalar_paths_load_neither_numpy_nor_orjson(body):
    assert _loaded(body) == set()


def test_simulate_does_not_load_orjson(tmp_path):
    assert _loaded(_main(["simulate", "--config", NOMINAL, "--csv", tmp_path / "sim.csv"], 0)) == {"numpy"}


# Config overrides that each make every command exit 2; None deletes a field.
# The removed output section, which the nominal config does not hold, is set
# whole; a file named in it would lie in the run's working directory.
BAD_CONFIGS = {
    "bad-rate": {"arrival": {"rate": -1.0}},
    "missing-cost-field": {"cost": {"merge_zone_km": None}},
    "out-of-range-simulation": {"arrival": {"rate": 1.0}, "policy": {"threshold": 51.0}},
    "too-few-vehicles": {"simulation": {"n_vehicles": 1}},
    "times-beyond-float-range": {"arrival": {"rate": 1e-305}},
    "output-csv-not-a-path": {"output": {"csv": 1}},
    "output-csv-names-a-file": {"output": {"csv": "named.csv"}},
    "output-json-names-a-file": {"output": {"json": "named.json"}},
    "output-null": {"output": None},
}


def _commands(config: Path, csv: Path) -> list[list]:
    return [
        ["analytic", "--config", config],
        ["optimize", "--config", config, "--r-max", "500"],
        ["simulate", "--config", config],
        ["sweep", "--config", config, "--r-min", "0", "--r-max", "10", "--points", "3", "--csv", csv],
    ]


# Arguments that make one command exit 2 on the nominal config; it writes no file.
BAD_ARGUMENTS = {
    "sweep-r-max-out-of-range": [
        "sweep", "--config", NOMINAL, "--r-min", "0", "--r-max", "2600", "--points", "5000000", "--csv", "out.csv",
    ],
    "sweep-csv-in-a-missing-directory": [
        "sweep", "--config", NOMINAL, "--r-min", "0", "--r-max", "400", "--points", "1001",
        "--csv", "no-such-directory/out.csv",
    ],
    "simulate-csv-in-a-missing-directory": ["simulate", "--config", NOMINAL, "--csv", "no-such-directory/out.csv"],
}

# Removed flags: the parser rejects each with SystemExit(2) before any command runs.
REMOVED_FLAGS = {
    "simulate-sigma-0": ["simulate", "--config", NOMINAL, "--sigma", "0"],
    "optimize-tol-1e-20": ["optimize", "--config", NOMINAL, "--r-max", "500", "--tol", "1e-20"],
}


def _parser_exits_2(args: list) -> str:
    return (
        "from platoonctl import cli\n"
        "try:\n"
        f"    cli.main({[str(a) for a in args]!r})\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 2, exc.code\n"
        "else:\n"
        "    raise AssertionError('the parser accepted a removed flag')"
    )


@pytest.mark.parametrize("label", sorted(BAD_CONFIGS) + sorted(BAD_ARGUMENTS) + sorted(REMOVED_FLAGS))
def test_config_errors_exit_2_without_loading_numpy_or_orjson(tmp_path, label):
    if label in REMOVED_FLAGS:
        assert _loaded(_parser_exits_2(REMOVED_FLAGS[label])) == set()
        return
    if label in BAD_ARGUMENTS:
        assert _loaded(_main(BAD_ARGUMENTS[label], 2)) == set()
        return
    cfg = json.loads(NOMINAL.read_text(encoding="utf-8"))
    for section, values in BAD_CONFIGS[label].items():
        if section == "output":
            cfg[section] = values
            continue
        for key, value in values.items():
            if value is None:
                del cfg[section][key]
            else:
                cfg[section][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    body = "\n".join(_main(args, 2) for args in _commands(path, tmp_path / "out.csv"))
    assert _loaded(body, cwd=tmp_path) == set()
    assert [path.name for path in tmp_path.iterdir()] == ["bad.json"]  # no command wrote a file


def test_array_paths_load_numpy(tmp_path):
    # The control for the checks above: the probe does see numpy when it loads.
    assert "numpy" in _loaded("import platoonctl\nplatoonctl.run_replications")
    assert "numpy" in _loaded(_main(_commands(NOMINAL, tmp_path / "out.csv")[3], 0))


def test_sweep_loads_orjson(tmp_path):
    # The control for the orjson checks: a sweep that writes its CSV loads it.
    assert _loaded(_main(_commands(NOMINAL, tmp_path / "out.csv")[3], 0)) == {"numpy", "orjson"}


def _readme_library_names() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    block = re.search(r"from platoonctl import \((.*?)\)", library, re.S).group(1)
    return [name.strip() for name in block.replace("\n", " ").split(",") if name.strip()]


# Every name the package exports.
PACKAGE_NAMES = [
    "MAX_RATE_THRESHOLD_PRODUCT", "OptimalThreshold", "PlatoonStatistics", "ThresholdRegime",
    "exact_fuel_increase", "expected_fuel_increase_linearized", "expected_fuel_saving_cruise",
    "expected_platoon_headway", "expected_platoon_size", "expected_time_reduction", "expected_total_cost",
    "merge_probability", "merge_time_cost_rate", "numeric_optimal_threshold", "optimal_threshold",
    "platoon_size_pmf", "platoon_statistics", "total_cost_derivative",
    "ArrivalModel", "CostParameters", "PlatoonPolicy", "RawCostConfig", "normalize_units",
    "EmpiricalSummary", "SimulationConfig", "SimulationRun", "StatEstimate",
    "run_from_interarrivals", "run_replications", "sample_interarrivals", "summarize",
]


def test_readme_library_names_are_documented_package_names():
    names = _readme_library_names()
    assert "run_replications" in names and "SimulationConfig" in names
    assert set(names) <= set(PACKAGE_NAMES)


@pytest.mark.parametrize("name", PACKAGE_NAMES)
def test_package_name_is_the_defining_modules_object(name):
    obj = getattr(platoonctl, name)
    home = importlib.import_module(getattr(obj, "__module__", "platoonctl.domain"))
    assert getattr(home, name) is obj
    assert name in dir(platoonctl)


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        platoonctl.no_such_name  # noqa: B018


@pytest.mark.parametrize("name", ["SimulationConfig", "StatEstimate", "EmpiricalSummary", "student_t_975", "MAX_SEED"])
def test_simulator_reexports_the_domain_objects(name):
    assert getattr(simulator, name) is getattr(domain, name)


@pytest.mark.parametrize("name", ["_check_product", "MAX_RATE_THRESHOLD_PRODUCT"])
def test_analytic_reexports_the_domain_objects(name):
    assert getattr(analytic, name) is getattr(domain, name)
