"""Command-line front end: ``platoonctl``.

Subcommands:
    analytic   closed-form statistics and expected cost for one scenario
    simulate   Monte Carlo replications compared against the closed forms
    sweep      threshold sweep as CSV, optionally simulated (each replication drawn once)
    optimize   closed-form and golden-section cost-optimal threshold

Input is a single JSON config with sections ``arrival``, ``policy``,
``cost`` (mixed planning units) and ``simulation``; see the README for the
schema, outside which any section or key, and any key given twice, is an
error. Only flags name output files. All file outputs are deterministic
for a fixed config and seed, whatever the number of CPUs a simulation runs
on. Exit codes: 0 success (for ``simulate``: every statistic within
``simulator.PASS_HALF_WIDTHS`` CI half-widths of its closed form, the verdict
``simulator.compare`` gives and ``simulate`` prints), 1 statistical
comparison failure, 2 usage or configuration error (an unwritable output
path, too few samples for a CI, or a cost term that overflows at the
largest threshold too) or a simulation worker process that failed or was
killed before it delivered every record, 3 out of memory, in this process or
in a worker that still owed a record.

numpy is imported only by ``simulate`` and ``sweep``, which build arrays,
and orjson only by ``sweep``, which formats its float columns with it, a
block of rows per call (each value outside orjson's ``repr`` notation
range with ``repr``), and splits the block's text into CSV lines with
numpy; ``analytic``, ``optimize`` and every configuration error run
without either.

The console script and ``python -m platoonctl.cli`` run ``entrypoint``,
which freezes the garbage collector (``gc.freeze``) after ``main`` returns,
so the interpreter's last collections at exit skip every object the run
made, numpy's among them. ``atexit`` handlers and the flush of stdout and
stderr still run, and every output file is closed before ``main`` returns.
``main`` itself does not freeze, so it can be called in a long-lived
process.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .analytic import (
    _curves,
    numeric_optimal_threshold,
    optimal_threshold,
    platoon_statistics,
)
from .domain import (
    ArrivalModel,
    CostParameters,
    PlatoonPolicy,
    RawCostConfig,
    SimulationConfig,
    _integer,
    _non_negative,
    _number,
    normalize_units,
)

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
        # A numpy array holds at most sys.maxsize bytes, 8 per float64.
        if _integer("n_points", self.n_points, 2) > sys.maxsize // 8:
            raise ValueError(
                f"n_points must be at most {sys.maxsize // 8}, the float64 values an array can hold, got {self.n_points}"
            )

    def grid(self) -> list[float]:
        return self.thresholds().tolist()

    def thresholds(self):
        """The grid as a numpy array."""
        import numpy as np

        return np.linspace(self.r_min, self.r_max, self.n_points)


@dataclass(frozen=True)
class Scenario:
    """Parsed config file: arrival/policy always present, rest optional."""

    arrival: ArrivalModel
    policy: PlatoonPolicy
    cost: CostParameters | None
    simulation: SimulationConfig | None


# The dataclass each numeric config section is read into. Its number fields,
# annotated ``int`` or ``float`` (as strings: ``domain`` postpones its
# annotations), are the section's keys in field order; any other section or
# key is an error.
_SECTION_TYPES = dict(arrival=ArrivalModel, policy=PlatoonPolicy, cost=RawCostConfig, simulation=SimulationConfig)
_CHECKS = {"int": _integer, "float": _number}
_SECTION_FIELDS = {
    name: tuple(f for f in dataclasses.fields(cls) if f.type in _CHECKS) for name, cls in _SECTION_TYPES.items()
}
_SECTION_KEYS = {name: tuple(f.name for f in fields) for name, fields in _SECTION_FIELDS.items()}


# The one config rule that is not its dataclass's: a run names its seed,
# though ``SimulationConfig`` defaults it to 0 for library callers.
_REQUIRED_KEYS = ("simulation.seed",)


def _read_section(cfg: dict, name: str, **given):
    """Config section ``name`` as its ``_SECTION_TYPES`` dataclass, built
    from ``given`` and the section's keys.

    The section must be an object that holds only its ``_SECTION_KEYS``.
    Each key is checked in field order, as ``config field <name>.<key>``:
    with ``_integer`` if its field is an ``int``, else with ``_number``. A key
    whose field has no default, or that ``_REQUIRED_KEYS`` names, must be
    given; any other that is left out takes its field's default.
    """
    if name not in cfg:
        raise ValueError(f"config section '{name}' is missing")
    sect = cfg[name]
    if not isinstance(sect, dict):
        raise ValueError(f"config section '{name}' must be an object")
    unknown = [key for key in sect if key not in _SECTION_KEYS[name]]
    if unknown:
        raise ValueError(
            f"config field {name}.{unknown[0]} is not a known key; '{name}' takes {', '.join(_SECTION_KEYS[name])}"
        )
    for field in _SECTION_FIELDS[name]:
        where = f"config field {name}.{field.name}"
        if field.name in sect:
            given[field.name] = _CHECKS[field.type](where, sect[field.name])
        elif field.default is dataclasses.MISSING or f"{name}.{field.name}" in _REQUIRED_KEYS:
            raise ValueError(f"{where} is missing")
    return _SECTION_TYPES[name](**given)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict, or a ``ValueError`` naming a key
    that appears twice (``json`` alone keeps the last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"config key '{key}' appears more than once in one object")
        obj[key] = value
    return obj


def load_scenario(path: str | Path, *required: str) -> Scenario:
    """Parse and validate a scenario config file, every section it holds,
    then check that it holds each section in ``required``, in order."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        cfg = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise ValueError(f"{path}: not valid JSON (arrays or objects nested too deeply)") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    # A removed section, still read as {}, which configs written before its removal hold.
    removed = cfg.pop("output", {})
    if type(removed) is not dict or removed:
        raise ValueError(
            "config section 'output' was removed and only {} is accepted: name the output file with "
            "analytic --json or simulate --csv"
        )
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

    arrival = _read_section(cfg, "arrival")
    policy = _read_section(cfg, "policy")
    cost = normalize_units(_read_section(cfg, "cost")) if "cost" in cfg else None
    simulation = _read_section(cfg, "simulation", arrival=arrival, policy=policy) if "simulation" in cfg else None
    for name in required:
        if name not in cfg:
            raise ValueError(f"config section '{name}' is required for this command")
    return Scenario(arrival=arrival, policy=policy, cost=cost, simulation=simulation)


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

# The columns of ``simulate``'s CSV: a statistic's name, then its fields in
# a ``simulator.Comparison``.
SIMULATE_HEADER = ["statistic", "analytic", "empirical", "ci_half_width", "relative_error", "n_samples", "passed"]

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
    scenario = load_scenario(args.config, "cost")
    params = scenario.cost
    json_path = _output_path(args.json)
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


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config, "simulation")
    csv_path = _output_path(args.csv)
    from .simulator import PASS_HALF_WIDTHS, compare

    sim = scenario.simulation
    rows = compare(sim, (sim.policy.threshold,), platoon_statistics(sim.arrival, sim.policy)).rows()

    print(
        f"{'statistic':<24} {'analytic':>14} {'empirical':>14} "
        f"{'ci_hw':>12} {'rel_err':>10}  result"
    )
    for statistic, analytic, empirical, half_width, relative_error, _, passed in rows:
        verdict = "pass" if passed else "FAIL"
        print(
            f"{statistic:<24} {analytic:>14.6g} {empirical:>14.6g} "
            f"{half_width:>12.4g} {relative_error:>10.3g}  {verdict}"
        )
    if csv_path:
        _write_csv(csv_path, SIMULATE_HEADER, rows)
        print(f"wrote {csv_path}")
    if all(row[-1] for row in rows):
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
            # Faster than splitting orjson's 2-D text on b"],[": same bytes, 40-44 ms against 63-75 ms for 1e5 rows.
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

    An ``r_max`` out of range, or at which a cost term overflows, is
    rejected before the grid is built. The
    closed-form columns come from one array pass over the grid; each row
    equals ``analytic_quantities`` at its threshold. The empirical columns
    are the means and half-widths of ``simulator.compare`` over the grid,
    one simulator pass that draws each replication once and folds it at
    every grid threshold; each row equals ``simulate``'s at its threshold.
    The columns (numpy arrays) stay unformatted until
    ``_ColumnRows.write_csv`` writes them.
    """
    _curves(params, arrival.rate, float(spec.r_max))  # before the grid is built
    curves = _curves(params, arrival.rate, spec.thresholds())
    columns = [getattr(curves, field) for _, field in _SWEEP_COLUMNS]
    header = list(SWEEP_HEADER)
    if sim is not None:
        from .simulator import compare

        try:
            comparison = compare(sim, curves.threshold, curves)
        except ValueError as exc:
            # On the same gaps a larger threshold leads no more platoons, so
            # when any point has too few closed platoons the largest does.
            raise ValueError(f"threshold_s {float(curves.threshold[-1])!r}: {exc}") from exc
        header += SWEEP_SIM_HEADER
        columns += [row for pair in zip(comparison.empirical[:3], comparison.ci_half_width[:3]) for row in pair]
    return header, _ColumnRows(columns)


def cmd_sweep(args: argparse.Namespace) -> int:
    required = ("cost", "simulation") if args.with_simulation else ("cost",)
    scenario = load_scenario(args.config, *required)
    spec = SweepSpec(r_min=args.r_min, r_max=args.r_max, n_points=args.points)
    _output_path(args.csv)
    sim = scenario.simulation if args.with_simulation else None
    header, rows = sweep_rows(scenario.cost, scenario.arrival, spec, sim)
    _write_csv(args.csv, header, rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.config, "cost")
    params = scenario.cost
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
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="scenario config JSON")

    p_analytic = sub.add_parser("analytic", parents=[config], help="closed-form statistics and cost")
    p_analytic.add_argument("--json", default=None, help="also write results to this JSON file")
    p_analytic.set_defaults(func=cmd_analytic)

    p_sim = sub.add_parser("simulate", parents=[config], help="Monte Carlo comparison against the closed forms")
    p_sim.add_argument("--csv", default=None, help="write the comparison table to this CSV file")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[config], help="threshold sweep emitted as CSV")
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

    p_opt = sub.add_parser("optimize", parents=[config], help="cost-optimal threshold")
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
    code = main()
    gc.freeze()  # the run's objects skip the collections at interpreter exit
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
