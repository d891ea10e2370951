"""Command-line front end: ``platoonctl``.

Subcommands:
    analytic   closed-form statistics and expected cost for one scenario
    simulate   Monte Carlo replications compared against the closed forms
    sweep      threshold sweep as CSV, optionally simulated (each replication drawn once)
    optimize   closed-form and golden-section cost-optimal threshold

Input is a single JSON config with sections ``arrival``, ``policy``,
``cost`` (mixed planning units), ``simulation``, and ``output``; see the
README for the schema, outside which any section or key, and any key given
twice, is an error. All file outputs are deterministic for a fixed config
and seed. Exit codes: 0 success (for ``simulate``: every statistic within
``PASS_HALF_WIDTHS`` CI half-widths of its closed form), 1 statistical
comparison failure, 2 usage or configuration error (an unwritable output
path or too few samples for a CI too), 3 out of memory.

numpy is imported only by ``simulate`` and ``sweep``, which build arrays,
and orjson only by ``sweep``, which formats its float columns with it, a
block of rows per call (each value outside orjson's ``repr`` notation
range with ``repr``), and splits the block's text into CSV lines with
numpy; ``analytic``, ``optimize`` and every configuration error run
without either.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .analytic import (
    _curves,
    numeric_optimal_threshold,
    optimal_threshold,
    platoon_size_pmf,
    platoon_statistics,
)
from .domain import (
    Z_95,
    ArrivalModel,
    CostParameters,
    EmpiricalSummary,
    PlatoonPolicy,
    RawCostConfig,
    SimulationConfig,
    StatEstimate,
    _check_product,
    _integer,
    _non_negative,
    _number,
    normalize_units,
)

# Denominator floor for relative errors against near-zero analytic values.
REL_ERROR_FLOOR = 1e-12

# A comparison row passes when |empirical - analytic| is at most this many
# 95% CI half-widths.
PASS_HALF_WIDTHS = 3.0


@dataclass(frozen=True)
class SweepSpec:
    """Linear threshold grid for the ``sweep`` command."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self) -> None:
        r_min = _non_negative("r_min", self.r_min)
        if _number("r_max", self.r_max) <= r_min:
            raise ValueError(f"r_max must be > r_min, got {self.r_max!r}")
        _integer("n_points", self.n_points, 2)

    def grid(self) -> list[float]:
        return self.thresholds().tolist()

    def thresholds(self):
        """The grid as a numpy array."""
        import numpy as np

        return np.linspace(self.r_min, self.r_max, self.n_points)


@dataclass(frozen=True)
class ComparisonRow:
    """One analytic-vs-empirical statistic comparison."""

    statistic: str
    analytic: float
    empirical: float
    ci_half_width: float
    relative_error: float
    n_samples: int
    passed: bool


def build_comparison(
    arrival: ArrivalModel, policy: PlatoonPolicy, summary: EmpiricalSummary
) -> tuple[ComparisonRow, ...]:
    """Compare a pooled empirical summary against the closed forms; a row
    passes when |empirical - analytic| <= PASS_HALF_WIDTHS * ci_half_width."""
    stats = platoon_statistics(arrival, policy)
    # The singleton frequency is a binomial share with a known null
    # probability, so its half-width uses that probability: the empirical
    # share's own Wald width is 0 when the pool holds no singleton.
    singleton_p = platoon_size_pmf(arrival, policy, 1)
    n_platoons = summary.platoon_size.count
    singleton = StatEstimate(
        summary.size_pmf.get(1, 0.0),
        Z_95 * math.sqrt(singleton_p * (1.0 - singleton_p) / n_platoons),
        n_platoons,
    )
    table = (
        ("mean_platoon_size", stats.expected_platoon_size, summary.platoon_size),
        ("mean_leader_headway", stats.expected_platoon_headway, summary.leader_headway),
        ("mean_time_shift", stats.expected_time_reduction, summary.time_shift),
        ("singleton_probability", singleton_p, singleton),
    )
    rows = []
    for statistic, analytic, estimate in table:
        gap = abs(estimate.mean - analytic)
        rows.append(ComparisonRow(
            statistic=statistic,
            analytic=analytic,
            empirical=estimate.mean,
            ci_half_width=estimate.ci_half_width,
            relative_error=gap / max(abs(analytic), REL_ERROR_FLOOR),
            n_samples=estimate.count,
            passed=gap <= PASS_HALF_WIDTHS * estimate.ci_half_width,
        ))
    return tuple(rows)


@dataclass(frozen=True)
class Scenario:
    """Parsed config file: arrival/policy always present, rest optional."""

    arrival: ArrivalModel
    policy: PlatoonPolicy
    cost: CostParameters | None
    simulation: SimulationConfig | None
    output: dict


# The keys of every config section; any other section or key is an error.
_SECTION_KEYS = {
    "arrival": ("rate",),
    "policy": ("threshold",),
    "cost": tuple(f.name for f in dataclasses.fields(RawCostConfig)),
    "simulation": ("n_vehicles", "n_replications", "seed"),
    "output": ("json", "csv"),
}


def _known_keys(sect: dict, name: str) -> dict:
    unknown = [key for key in sect if key not in _SECTION_KEYS[name]]
    if unknown:
        raise ValueError(
            f"config field {name}.{unknown[0]} is not a known key; '{name}' takes {', '.join(_SECTION_KEYS[name])}"
        )
    return sect


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ValueError(f"config section '{name}' is missing")
    sect = cfg[name]
    if not isinstance(sect, dict):
        raise ValueError(f"config section '{name}' must be an object")
    return _known_keys(sect, name)


def _field(sect: dict, key: str, where: str, default=None):
    if key in sect:
        return sect[key]
    if default is None:
        raise ValueError(f"config field {where}.{key} is missing")
    return default


def _config_number(sect: dict, key: str, where: str, default: float | None = None) -> float:
    return _number(f"config field {where}.{key}", _field(sect, key, where, default))


def _config_integer(sect: dict, key: str, where: str, default: int | None = None) -> int:
    return _integer(f"config field {where}.{key}", _field(sect, key, where, default))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict, or a ``ValueError`` naming a key
    that appears twice (``json`` alone keeps the last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"config key '{key}' appears more than once in one object")
        obj[key] = value
    return obj


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario config file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        cfg = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise ValueError(f"{path}: not valid JSON (arrays or objects nested too deeply)") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    unknown = [name for name in cfg if name not in _SECTION_KEYS]
    if unknown:
        raise ValueError(
            f"config section '{unknown[0]}' is not a known section; the sections are {', '.join(_SECTION_KEYS)}"
        )
    # A removed option, still read at 0, its old default, as the no-op it was.
    sect = cfg.get("simulation")
    removed = sect.pop("warmup_vehicles", 0) if isinstance(sect, dict) else 0
    if type(removed) is not int or removed != 0:
        raise ValueError(
            "config field simulation.warmup_vehicles was removed and only its old default 0 is accepted: vehicle 1 "
            "always leads, so every run starts at a regeneration point and has no start-up bias to discard"
        )

    arrival = ArrivalModel(rate=_config_number(_section(cfg, "arrival"), "rate", "arrival"))
    policy = PlatoonPolicy(threshold=_config_number(_section(cfg, "policy"), "threshold", "policy"))

    cost = None
    if "cost" in cfg:
        sect = _section(cfg, "cost")
        raw = RawCostConfig(**{
            f.name: _config_number(sect, f.name, "cost", None if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(RawCostConfig)
        })
        cost = normalize_units(raw)

    simulation = None
    if "simulation" in cfg:
        sect = _section(cfg, "simulation")
        simulation = SimulationConfig(
            arrival=arrival,
            policy=policy,
            n_vehicles=_config_integer(sect, "n_vehicles", "simulation"),
            n_replications=_config_integer(sect, "n_replications", "simulation", default=1),
            seed=_config_integer(sect, "seed", "simulation"),
        )

    output = _section(cfg, "output") if "output" in cfg else {}
    for key in ("json", "csv"):
        if key in output and not (isinstance(output[key], str) and output[key]):
            raise ValueError(f"config field output.{key} must be a non-empty file path string")
    return Scenario(arrival=arrival, policy=policy, cost=cost, simulation=simulation, output=output)


def _require_cost(scenario: Scenario) -> CostParameters:
    if scenario.cost is None:
        raise ValueError("config section 'cost' is required for this command")
    return scenario.cost


def _require_simulation(scenario: Scenario) -> SimulationConfig:
    if scenario.simulation is None:
        raise ValueError("config section 'simulation' is required for this command")
    return scenario.simulation


def _output_path(path: str | None) -> str | None:
    """``path``, once a file can be written there: checked before any work,
    so a bad path exits 2 at once, not after a run whose result it would
    lose. The file is neither created nor truncated."""
    if path is None:
        return None
    target = Path(path)
    if not target.parent.is_dir():
        problem = f"{str(target.parent)!r} is not an existing directory"
    elif target.is_dir():
        problem = "it is a directory"
    elif not os.access(target if target.exists() else target.parent, os.W_OK):
        problem = "permission denied"
    else:
        return path
    raise ValueError(f"cannot write output file {path!r}: {problem}")


# Rows formatted per write call for a sweep; the text of one block, in at
# most two copies, is the only text held in memory.
CSV_BLOCK_ROWS = 2048

# orjson (Ryu) writes the same shortest round-trip digits as ``repr``, but in
# ``repr``'s notation only for magnitudes in this range: it writes 0.00001
# for 1e-05, 1e16 for 1e+16, and null for NaN and the infinities. A sweep
# writes each value outside it (zero, NaN and the infinities too) with
# ``repr``.
_RYU_NOTATION_RANGE = (1e-4, 1e16)


def _write_csv(path: str | Path, header: list[str], rows: Sequence | _ColumnRows) -> None:
    """Write ``header`` and ``rows`` as LF-terminated CSV.

    The bytes are those of ``csv.writer(fh, lineterminator="\\n")``: a field
    is its ``str``, which for a float is the shortest round-trip ``repr``.
    No field is ever quoted; no header, statistic name, number or bool holds
    a comma, quote or line break. The rows of a sweep are formatted a block
    at a time in C, apart from the values outside ``_RYU_NOTATION_RANGE``
    (see ``_ColumnRows.write_csv``); any other rows field by field with
    ``str``.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if isinstance(rows, _ColumnRows):
            rows.write_csv(fh)
        else:
            for row in rows:
                fh.write((",".join(map(str, row)) + "\n").encode())


# (output name, ThresholdCurves field) of the closed forms that ``analytic``
# reports and every ``sweep`` row holds, in output order. ``analytic`` starts
# with the merge probability, a sweep row with its threshold.
_CLOSED_FORMS = (
    ("expected_platoon_size", "expected_platoon_size"),
    ("expected_leader_headway_s", "expected_platoon_headway"),
    ("expected_time_reduction_s", "expected_time_reduction"),
    ("expected_fuel_increase_l", "expected_fuel_increase"),
    ("expected_fuel_saving_l", "expected_fuel_saving"),
    ("expected_total_cost", "expected_total_cost"),
)
_ANALYTIC_COLUMNS = (("merge_probability", "merge_probability"), *_CLOSED_FORMS)
_SWEEP_COLUMNS = (("threshold_s", "threshold"), *_CLOSED_FORMS)
SWEEP_HEADER = [name for name, _ in _SWEEP_COLUMNS]

# The columns ``sweep --with-simulation`` appends, in output order: the
# simulated mean size, headway and shift, each followed by its CI half-width.
SWEEP_SIM_HEADER = [
    "sim_platoon_size", "sim_platoon_size_hw", "sim_leader_headway_s",
    "sim_leader_headway_hw", "sim_time_shift_s", "sim_time_shift_hw",
]


def analytic_quantities(params: CostParameters, arrival: ArrivalModel, policy: PlatoonPolicy) -> dict[str, float]:
    """The seven scenario quantities reported by ``analytic``; a ``sweep``
    row holds the same values at its threshold."""
    curves = _curves(params, arrival.rate, policy.threshold)
    return {name: getattr(curves, field) for name, field in _ANALYTIC_COLUMNS}


def cmd_analytic(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    params = _require_cost(scenario)
    json_path = _output_path(args.json or scenario.output.get("json"))
    values = analytic_quantities(params, scenario.arrival, scenario.policy)
    # nominal_merge_time only surfaces here, as the expected merging-zone exit time.
    values["expected_merge_exit_time_s"] = (
        params.nominal_merge_time - values["expected_time_reduction_s"]
    )
    for name, value in values.items():
        print(f"{name:<32} {value:.10g}")
    if json_path:
        payload = {
            "arrival_rate": scenario.arrival.rate,
            "threshold_s": scenario.policy.threshold,
            "results": values,
        }
        Path(json_path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {json_path}")
    return 0


def comparison_csv_rows(rows: Sequence[ComparisonRow]) -> tuple[list[str], list[list]]:
    """The comparison table as CSV: one column per ``ComparisonRow`` field,
    in field order."""
    header = [field.name for field in dataclasses.fields(ComparisonRow)]
    return header, [[getattr(row, name) for name in header] for row in rows]


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    sim = _require_simulation(scenario)
    csv_path = _output_path(args.csv or scenario.output.get("csv"))
    from .simulator import run_replications

    comparison = build_comparison(scenario.arrival, scenario.policy, run_replications(sim))

    print(
        f"{'statistic':<24} {'analytic':>14} {'empirical':>14} "
        f"{'ci_hw':>12} {'rel_err':>10}  result"
    )
    for row in comparison:
        verdict = "pass" if row.passed else "FAIL"
        print(
            f"{row.statistic:<24} {row.analytic:>14.6g} {row.empirical:>14.6g} "
            f"{row.ci_half_width:>12.4g} {row.relative_error:>10.3g}  {verdict}"
        )
    if csv_path:
        header, rows = comparison_csv_rows(comparison)
        _write_csv(csv_path, header, rows)
        print(f"wrote {csv_path}")
    if all(row.passed for row in comparison):
        print(f"all statistics within {PASS_HALF_WIDTHS:g} CI half-widths of the closed forms")
        return 0
    print(f"comparison FAILED at {PASS_HALF_WIDTHS:g} CI half-widths", file=sys.stderr)
    return 1


class _ColumnRows:
    """The rows of equal-length float columns (numpy arrays or lists), which
    ``write_csv`` writes as CSV one block at a time."""

    def __init__(self, columns: list) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def write_csv(self, fh) -> None:
        """Write the rows to the binary file ``fh`` as ``_write_csv`` does.

        The rows go one block of ``CSV_BLOCK_ROWS`` at a time. The columns of
        a block are stacked into one C-contiguous ``(rows, columns)`` float64
        array, and its row-major flattening is formatted by a single
        ``orjson.dumps`` call as ``[a,b,c,d]``. Each value outside
        ``_RYU_NOTATION_RANGE`` (zero, NaN and the infinities too) is set to
        NaN first, which orjson writes as ``null``, and each ``null`` is then
        replaced, in row-major order, by that value's ``repr``. No other
        value is written as ``null``, and no value's text holds a comma. So
        the text becomes ``a,b\\nc,d\\n`` in one vectorized pass over a
        writable copy of its bytes: every ``columns``-th comma, found with
        ``np.flatnonzero``, and the closing bracket become line feeds, and
        the opening bracket is not written.
        """
        import numpy as np
        import orjson

        low, high = _RYU_NOTATION_RANGE
        width = len(self._columns)

        def block_text(start: int):
            block = np.stack([column[start:start + CSV_BLOCK_ROWS] for column in self._columns], axis=1)
            magnitude = np.abs(block)
            outside = ~((magnitude >= low) & (magnitude < high))
            del magnitude
            outliers = block[outside].tolist()
            block[outside] = np.nan
            text = orjson.dumps(block.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
            del block
            if outliers:
                # ``%a`` writes ``ascii(value)``, which for a float is its
                # repr; the text holds no other ``%`` and a repr no comma.
                text = text.replace(b"null", b"%a")
                text %= tuple(outliers)
            # Each copy replaces the one before it, so at most two copies of
            # the text are held at once, and none outlives its block's write.
            text = np.frombuffer(text, dtype=np.uint8).copy()  # writable
            commas = np.flatnonzero(text == ord(","))
            text[commas[width - 1::width]] = ord("\n")  # each row's last comma
            text[-1] = ord("\n")  # the closing bracket
            return text[1:]

        for start in range(0, len(self), CSV_BLOCK_ROWS):
            fh.write(block_text(start))


def sweep_rows(
    params: CostParameters,
    arrival: ArrivalModel,
    spec: SweepSpec,
    sim: SimulationConfig | None = None,
) -> tuple[list[str], _ColumnRows]:
    """Analytic sweep rows over the threshold grid, optionally with pooled
    empirical columns.

    An out-of-range ``r_max`` is rejected before the grid is built. The
    closed-form columns come from one array pass over the grid; each row
    equals ``analytic_quantities`` at its threshold. The empirical columns
    come from one simulator pass that draws each replication once and folds
    it at every grid threshold; each row equals ``run_replications`` at its
    threshold, and only its six floats are kept. The columns (numpy arrays)
    stay unformatted until ``_ColumnRows.write_csv`` writes them.
    """
    _check_product(arrival.rate, float(spec.r_max))  # before the grid is built
    curves = _curves(params, arrival.rate, spec.thresholds())
    columns = [getattr(curves, field) for _, field in _SWEEP_COLUMNS]
    header = list(SWEEP_HEADER)
    if sim is not None:
        from .simulator import _estimates, _pooled_stats

        try:
            simulated = _estimates(*_pooled_stats(sim, curves.threshold))
        except ValueError as exc:
            # On the same gaps a larger threshold leads no more platoons, so
            # when any point has too few closed platoons the largest does.
            raise ValueError(f"threshold_s {float(curves.threshold[-1])!r}: {exc}") from exc
        header += SWEEP_SIM_HEADER
        columns += list(simulated)
    return header, _ColumnRows(columns)


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    params = _require_cost(scenario)
    spec = SweepSpec(r_min=args.r_min, r_max=args.r_max, n_points=args.points)
    sim = _require_simulation(scenario) if args.with_simulation else None
    _output_path(args.csv)
    header, rows = sweep_rows(params, scenario.arrival, spec, sim)
    _write_csv(args.csv, header, rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config)
    params = _require_cost(scenario)
    result = optimal_threshold(params, scenario.arrival, args.r_max)
    numeric = numeric_optimal_threshold(params, scenario.arrival, args.r_max)
    print(f"{'regime':<26} {result.regime.value}")
    print(f"{'closed_form_threshold_s':<26} {result.threshold:.10g}")
    print(f"{'numeric_threshold_s':<26} {numeric:.10g}")
    print(f"{'agreement_delta_s':<26} {abs(result.threshold - numeric):.4g}")
    print(f"{'cost_at_threshold':<26} {result.cost_at_threshold:.10g}")
    print(f"{'clamped_to_r_max':<26} {result.clamped}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonctl",
        description="Threshold-based platooning statistics, cost optimization, "
        "and Monte Carlo cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytic = sub.add_parser("analytic", help="closed-form statistics and cost")
    p_analytic.add_argument("--config", required=True, help="scenario config JSON")
    p_analytic.add_argument("--json", default=None, help="also write results to this JSON file")
    p_analytic.set_defaults(func=cmd_analytic)

    p_sim = sub.add_parser("simulate", help="Monte Carlo comparison against the closed forms")
    p_sim.add_argument("--config", required=True, help="scenario config JSON")
    p_sim.add_argument("--csv", default=None, help="write the comparison table to this CSV file")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="threshold sweep emitted as CSV")
    p_sweep.add_argument("--config", required=True, help="scenario config JSON")
    p_sweep.add_argument("--r-min", type=float, required=True, help="lowest threshold, seconds")
    p_sweep.add_argument("--r-max", type=float, required=True, help="highest threshold, seconds")
    p_sweep.add_argument("--points", type=int, required=True, help="number of grid points (>= 2)")
    p_sweep.add_argument(
        "--with-simulation",
        action="store_true",
        help="append pooled empirical columns at every grid point",
    )
    p_sweep.add_argument("--csv", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser("optimize", help="cost-optimal threshold")
    p_opt.add_argument("--config", required=True, help="scenario config JSON")
    p_opt.add_argument("--r-max", type=float, required=True, help="largest admissible threshold, seconds")
    p_opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory in '{args.command}'; try fewer vehicles or grid points", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
