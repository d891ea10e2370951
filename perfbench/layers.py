"""The traced run: per-layer numbers for one workload.

The layers are the package's modules: domain, analytic, simulator and cli.

1. Replay. The workload's commands run in this process through
   ``cli.main`` three times: untraced, traced, untraced. All three must
   write the same bytes. The traced replay gives each layer's self time,
   the exact counts of what the commands do (draws, validation calls,
   comparison rows), and the tracing overhead against the faster
   untraced replay.
2. Probes. Each layer's public functions are called directly on the
   workload's probe scenario, in rounds until the time budget is spent;
   every probe metric is the median over rounds. The simulator probe runs
   under a counting tracer (its calls take milliseconds, so wrapping costs
   nothing measurable) to split ``run_from_interarrivals`` into its
   children and its own time. Analytic and cli probes are untraced loops,
   because tracing would dominate calls of a few microseconds. The probes
   run on every workload, so every layer metric exists on every workload;
   on a workload whose commands never reach a layer, that layer's probe
   metrics describe the layer, not the workload.
"""

from __future__ import annotations

import inspect
import io
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import Tracer

LAYERS = ("domain", "analytic", "simulator", "cli")
# Thresholds the cli probe sweeps: (r_min, r_max, points).
PROBE_GRID = (0.0, 200.0, 2001)
# Analytic probe loops repeat a call until they take about this long.
LOOP_TARGET_NS = 20_000_000
IMPORT_REPEATS = 5
MIN_PROBE_ROUNDS = 3
SPAN_CAP = 50_000

PER_LAYER_UNITS = {
    "simulator.sample_ns_per_vehicle": "ns",
    "simulator.form_ns_per_vehicle": "ns",
    "simulator.headways_ns_per_vehicle": "ns",
    "simulator.shifts_ns_per_vehicle": "ns",
    "simulator.summarize_ns_per_vehicle": "ns",
    "simulator.replications_ns_per_vehicle": "ns",
    "simulator.assemble_self_ns_per_vehicle": "ns",
    "simulator.peak_bytes_per_vehicle": "B",
    "simulator.sample_calls": "count",
    "simulator.vehicles_sampled": "count",
    "simulator.draw_reuse_ratio": "ratio",
    "domain.validate_calls_per_replication": "count",
    "domain.validate_calls_per_point": "count",
    "analytic.statistics_ns_per_call": "ns",
    "analytic.total_cost_ns_per_call": "ns",
    "analytic.optimal_threshold_ns_per_call": "ns",
    "analytic.golden_ns_per_call": "ns",
    "analytic.golden_cost_evals": "count",
    "cli.sweep_ns_per_point": "ns",
    "cli.sweep_self_ns_per_point": "ns",
    "cli.write_self_ns_per_row": "ns",
    "cli.import_s": "s",
    "cli.load_scenario_us": "us",
    "cli.comparison_rows": "count",
    "cli.comparison_rows_failed": "count",
}


def load_modules() -> dict:
    from platoonctl import analytic, cli, domain, simulator

    return {"domain": domain, "analytic": analytic, "simulator": simulator, "cli": cli}


def replay(workload, workdir: Path, cli, tracer: Tracer | None = None):
    """Run every command of ``workload`` in process; returns (seconds spent
    inside ``cli.main``, {command: (exit code, stdout bytes, output bytes)})."""
    results = {}
    elapsed = 0.0
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for cmd in workload.commands:
            if cmd.output:
                Path(cmd.output).unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            scope = tracer.span(f"command.{cmd.name}", "bench") if tracer else nullcontext()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err), scope:
                try:
                    code = cli.main(cmd.cli_args())
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            elapsed += time.perf_counter() - start
            output = Path(cmd.output).read_bytes() if cmd.output and Path(cmd.output).is_file() else None
            results[cmd.name] = (code, out.getvalue().encode("utf-8"), output)
    finally:
        os.chdir(cwd)
    return elapsed, results


@dataclass
class ProbeScenario:
    arrival: object
    policy: object
    params: object
    config: object  # simulator.SimulationConfig
    n: int
    reps: int
    seed: int
    config_path: Path


def _probe_scenario(mods, lib, workload, workdir: Path) -> ProbeScenario:
    p = workload.probe
    arrival = mods["domain"].ArrivalModel(rate=p["rate"])
    policy = mods["domain"].PlatoonPolicy(threshold=p["threshold"])
    config = mods["simulator"].SimulationConfig(
        arrival=arrival, policy=policy, n_vehicles=p["n_vehicles"],
        n_replications=p["n_replications"], seed=workload.seed,
    )
    return ProbeScenario(
        arrival=arrival, policy=policy, params=lib.params(workloads.NOMINAL_COST), config=config,
        n=p["n_vehicles"], reps=p["n_replications"], seed=workload.seed,
        config_path=workdir / f"{p['command']}.config.json",
    )


def _simulator_round(mods, ps: ProbeScenario) -> dict[str, float]:
    sim = mods["simulator"]
    tracer = Tracer(span_cap=0)
    tracer.install(list(mods.values()))
    try:
        gaps = sim.sample_interarrivals(ps.seed, ps.n, ps.arrival, 0)
        run = sim.run_from_interarrivals(gaps, ps.policy)
        sim.summarize(run)
        del gaps, run
        sim.run_replications(ps.config)
    finally:
        tracer.uninstall()

    def per_vehicle(name: str, own: bool = False) -> float:
        calls, total_ns, self_ns = tracer.stats(f"simulator.{name}")
        return (self_ns if own else total_ns) / (calls * ps.n) if calls else 0.0

    _, replications_ns, _ = tracer.stats("simulator.run_replications")
    return {
        "simulator.sample_ns_per_vehicle": per_vehicle("sample_interarrivals"),
        "simulator.form_ns_per_vehicle": per_vehicle("form_platoons"),
        "simulator.headways_ns_per_vehicle": per_vehicle("platoon_leader_headways"),
        "simulator.shifts_ns_per_vehicle": per_vehicle("compute_time_shifts"),
        "simulator.summarize_ns_per_vehicle": per_vehicle("summarize"),
        "simulator.assemble_self_ns_per_vehicle": per_vehicle("run_from_interarrivals", own=True),
        "simulator.replications_ns_per_vehicle": replications_ns / (ps.n * ps.reps),
    }


def _loop_ns(fn, args, repeats: dict, key: str) -> float:
    """Mean ns per call of ``fn(*args)`` over a loop of about LOOP_TARGET_NS;
    the loop length is fixed on the first round and reused after."""
    if key not in repeats:
        fn(*args)
        start = time.perf_counter_ns()
        fn(*args)
        repeats[key] = max(1, LOOP_TARGET_NS // max(1, time.perf_counter_ns() - start))
    k = repeats[key]
    start = time.perf_counter_ns()
    for _ in range(k):
        fn(*args)
    return (time.perf_counter_ns() - start) / k


def _analytic_round(mods, ps: ProbeScenario, repeats: dict) -> dict[str, float]:
    a, r_max = mods["analytic"], workloads.OPTIMIZE_R_MAX
    return {
        "analytic.statistics_ns_per_call": _loop_ns(
            a.platoon_statistics, (ps.arrival, ps.policy), repeats, "statistics"),
        "analytic.total_cost_ns_per_call": _loop_ns(
            a.expected_total_cost, (ps.params, ps.arrival, ps.policy), repeats, "total_cost"),
        "analytic.optimal_threshold_ns_per_call": _loop_ns(
            a.optimal_threshold, (ps.params, ps.arrival, r_max), repeats, "optimal"),
        "analytic.golden_ns_per_call": _loop_ns(
            a.numeric_optimal_threshold, (ps.params, ps.arrival, r_max), repeats, "golden"),
    }


def _cli_round(mods, ps: ProbeScenario, workdir: Path, repeats: dict) -> dict[str, float]:
    cli, domain = mods["cli"], mods["domain"]
    r_min, r_max, points = PROBE_GRID
    spec = cli.SweepSpec(r_min=r_min, r_max=r_max, n_points=points)
    policies = [domain.PlatoonPolicy(threshold=r) for r in spec.grid()]

    start = time.perf_counter_ns()
    for policy in policies:
        cli.analytic_quantities(ps.params, ps.arrival, policy)
    quantities_ns = (time.perf_counter_ns() - start) / points

    start = time.perf_counter_ns()
    header, rows = cli.sweep_rows(ps.params, ps.arrival, spec)
    sweep_ns = (time.perf_counter_ns() - start) / points

    start = time.perf_counter_ns()
    cli._write_csv(workdir / "probe_write.csv", header, rows)
    write_ns = (time.perf_counter_ns() - start) / len(rows)

    return {
        "cli.sweep_ns_per_point": quantities_ns,
        "cli.sweep_self_ns_per_point": sweep_ns - quantities_ns,
        "cli.write_self_ns_per_row": write_ns,
        "cli.load_scenario_us": _loop_ns(cli.load_scenario, (ps.config_path,), repeats, "load") / 1e3,
    }


def _golden_cost_evals(mods, ps: ProbeScenario) -> int:
    tracer = Tracer(span_cap=0)
    tracer.install(list(mods.values()))
    try:
        with tracer.span("golden", "bench"):
            mods["analytic"].numeric_optimal_threshold(ps.params, ps.arrival, workloads.OPTIMIZE_R_MAX)
    finally:
        tracer.uninstall()
    return tracer.calls_under("golden", "analytic.expected_total_cost")


def _peak_bytes_per_vehicle(mods, ps: ProbeScenario) -> float:
    tracemalloc.start()
    try:
        mods["simulator"].run_replications(ps.config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (ps.n * ps.reps)


def _import_s(repeats: int) -> float:
    """Median seconds a fresh interpreter spends importing platoonctl.cli."""
    code = "import time; t = time.perf_counter(); import platoonctl.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def traced_run(workload, workdir: Path, seconds: float, lib, quick: bool = False) -> dict:
    """Replay and probe ``workload``; returns the per-layer metrics, the
    traced replay's layer self times and overhead, and failure counts.
    ``quick`` (smoke mode) takes one probe round and fewer import samples."""
    mods = load_modules()
    cli = mods["cli"]
    began = time.perf_counter()

    draws: list[tuple] = []
    sample_sig = inspect.signature(mods["simulator"].sample_interarrivals)

    def on_sample(args, kwargs) -> None:
        bound = sample_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        draws.append((tracer.root(), bound.arguments["seed"], bound.arguments["replication"], bound.arguments["n"]))

    untraced_s, first = replay(workload, workdir, cli)
    tracer = Tracer(span_cap=SPAN_CAP)
    tracer.install(list(mods.values()), hooks={"simulator.sample_interarrivals": on_sample})
    try:
        traced_s, traced = replay(workload, workdir, cli, tracer)
    finally:
        tracer.uninstall()
    untraced_again_s, again = replay(workload, workdir, cli)

    attempted = failed = 0
    errors: dict[str, list[str]] = {}
    comparison_rows = comparison_failed = 0
    for cmd in workload.commands:
        code, stdout, output = first[cmd.name]
        verdict = workloads.check(cmd, lib, workload.seed, code, stdout, output)
        comparison_rows += verdict.comparison_rows
        comparison_failed += len(verdict.comparison_failed)
        for label, other in (("traced", traced), ("untraced repeat", again)):
            if other[cmd.name] != first[cmd.name]:
                verdict.errors.append(f"{label} replay wrote different bytes")
        attempted += 3
        if verdict.errors:
            failed += 3
            errors[cmd.name] = verdict.errors

    ps = _probe_scenario(mods, lib, workload, workdir)
    repeats: dict = {}
    rounds: list[dict[str, float]] = []
    while len(rounds) < (1 if quick else MIN_PROBE_ROUNDS) or time.perf_counter() - began < seconds:
        values = _simulator_round(mods, ps)
        values.update(_analytic_round(mods, ps, repeats))
        values.update(_cli_round(mods, ps, workdir, repeats))
        rounds.append(values)
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}

    sim_cmds = [c for c in workload.commands if c.simulates]
    sweep_cmds = [c for c in workload.commands if c.kind == "sweep"]
    replications = sum(max(c.points, 1) * c.replications for c in sim_cmds)
    points = sum(c.points for c in sweep_cmds)

    def validate_calls(cmds) -> int:
        return sum(tracer.calls_under(f"command.{c.name}", "domain.validate_scenario") for c in cmds)

    metrics.update({
        "simulator.peak_bytes_per_vehicle": _peak_bytes_per_vehicle(mods, ps),
        "simulator.sample_calls": len(draws),
        "simulator.vehicles_sampled": sum(d[3] for d in draws),
        # Distinct (seed, replication) streams per command over draws made.
        "simulator.draw_reuse_ratio": len({d[:3] for d in draws}) / len(draws) if draws else 1.0,
        "domain.validate_calls_per_replication": validate_calls(sim_cmds) / replications if replications else 0.0,
        "domain.validate_calls_per_point": validate_calls(sweep_cmds) / points if points else 0.0,
        "analytic.golden_cost_evals": _golden_cost_evals(mods, ps),
        "cli.import_s": _import_s(2 if quick else IMPORT_REPEATS),
        "cli.comparison_rows": comparison_rows,
        "cli.comparison_rows_failed": comparison_failed,
    })

    layer_self = tracer.layer_self_ns()
    traced_ns = sum(layer_self.values())
    baseline_s = min(untraced_s, untraced_again_s)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "probe_rounds": len(rounds),
        "layer_self_s": {layer: layer_self.get(layer, 0) / 1e9 for layer in (*LAYERS, "bench")},
        "layer_self_share": {layer: layer_self.get(layer, 0) / traced_ns for layer in (*LAYERS, "bench")},
        "replay_untraced_s": [untraced_s, untraced_again_s],
        "replay_traced_s": traced_s,
        "tracing_overhead_share": traced_s / baseline_s - 1.0,
        "spans_recorded": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "tracer": tracer,
    }
