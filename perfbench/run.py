"""Benchmark of the platoonctl CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle_large --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --workload sweep_sim --seed 7 --seconds 55 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` times the workload's commands, each a fresh ``platoonctl``
subprocess run one after another by this single process (a closed loop with
one client), in passes until ``--seconds`` are spent, and reports the
end-to-end metrics. ``--trace 1`` is the separate traced run of
``layers.py`` and reports the per-layer metrics. Every output is checked;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 when a check failed.
Details (environment manifest, every sample, each output's sha256, spans)
go to ``.perfbench_out/``. ``--smoke`` runs every workload at toy size in
both modes and checks correctness and the result schema, without timing
assertions. See README.md beside this file for workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Set to 1 for this process and every child, so one run uses one core.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
# Set-up samples taken before the first pass; one more precedes every pass.
SETUP_FIRST = 6
MIN_PASSES = 3
# No pass starts once a run has measured this long, whatever --seconds says.
LAST_PASS_START_S = 120.0
COMMAND_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def spread(samples: list[float]) -> dict:
    out = {"n": len(samples), "median": statistics.median(samples), "min": min(samples), "max": max(samples)}
    if len(samples) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(samples, n=4)
    return out


def run_child(argv: list[str], cwd: Path, stdout_path: Path) -> tuple[float, float, int]:
    """Run one child to completion; returns (wall s, max RSS MB, exit code)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def git_commit() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(workload, trace: int, seconds: float, smoke: bool) -> dict:
    import numpy
    import platoonctl

    digest = hashlib.sha256()
    for path in sorted((SRC / "platoonctl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platoonctl": platoonctl.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": workload.seed,
        "trace": trace,
        "run_seconds": seconds,
        "sizes": {name: s["smoke" if smoke else "full"] for name, s in workloads.SIZES.items()},
        "commands": {c.name: ["platoonctl", *c.cli_args()] for c in workload.commands},
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_run(workload, workdir: Path, seconds: float, lib, quick: bool = False) -> dict:
    """Closed loop, one client: passes of the workload's commands, each a
    fresh subprocess, until another pass would end after ``seconds`` from
    the run's start. Every pass also starts one set-up probe, so set-up
    samples span the run.

    The machine's speed drifts by more than 10% over seconds, so a pass's
    time is the sum over commands of each command's median time, and
    throughput divides work by the same medians.
    ``quick`` (smoke mode) takes two passes and one extra set-up sample."""
    min_passes, setup_first = (2, 1) if quick else (MIN_PASSES, SETUP_FIRST)
    run_began = time.perf_counter()
    attempted = failed = 0
    setup_argv = [sys.executable, "-c", "import platoonctl.cli"]
    run_child(setup_argv, workdir, workdir / "setup.stdout")  # bytecode and page cache warm-up
    setup = []

    def setup_sample() -> None:
        nonlocal attempted, failed
        wall, _, code = run_child(setup_argv, workdir, workdir / "setup.stdout")
        attempted += 1
        failed += code != 0
        setup.append(wall)

    for _ in range(setup_first):
        setup_sample()
    records = {c.name: {"wall_s": [], "peak_rss_mb": [], "exit_codes": [], "errors": []} for c in workload.commands}
    reference = {}
    passes = 0
    began = time.perf_counter()
    while True:
        setup_sample()
        for cmd in workload.commands:
            if cmd.output:
                (workdir / cmd.output).unlink(missing_ok=True)
            argv = [sys.executable, "-m", "platoonctl.cli", *cmd.cli_args()]
            wall, rss_mb, code = run_child(argv, workdir, workdir / f"{cmd.name}.stdout")
            stdout = (workdir / f"{cmd.name}.stdout").read_bytes()
            out_path = workdir / cmd.output if cmd.output else None
            output = out_path.read_bytes() if out_path and out_path.is_file() else None
            rec = records[cmd.name]
            rec["wall_s"].append(wall)
            rec["peak_rss_mb"].append(rss_mb)
            rec["exit_codes"].append(code)
            digest = {"exit_code": code, "stdout": sha256(stdout), "output": sha256(output)}
            attempted += 1
            if cmd.name not in reference:
                reference[cmd.name] = digest
                verdict = workloads.check(cmd, lib, workload.seed, code, stdout, output)
                rec.update(errors=verdict.errors, sha256=digest, comparison_failed=verdict.comparison_failed)
            elif digest != reference[cmd.name]:
                rec["errors"].append(f"pass {passes + 1} wrote different bytes: {digest}")
            failed += bool(rec["errors"])
        passes += 1
        now = time.perf_counter()
        next_pass_ends = now - run_began + (now - began) / passes
        if passes >= min_passes and (next_pass_ends > seconds or now - began > LAST_PASS_START_S):
            break

    median_wall = {name: statistics.median(rec["wall_s"]) for name, rec in records.items()}
    work_cmds = [c for c in workload.commands if c.work]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(median_wall.values()),
        "work_per_s": sum(c.work for c in work_cmds) / sum(median_wall[c.name] for c in work_cmds),
        "peak_rss_mb": max(statistics.median(rec["peak_rss_mb"]) for rec in records.values()),
    }
    extra = {"fail_share": failed / attempted}
    extra["vehicles_per_s" if workload.work_unit == "vehicle_evals" else "points_per_s"] = metrics["work_per_s"]
    for rec in records.values():
        rec["spread_wall_s"] = spread(rec["wall_s"])
    return {
        "metrics": metrics,
        "extra": extra,
        "attempted": attempted,
        "failed": failed,
        "errors": {name: rec["errors"] for name, rec in records.items() if rec["errors"]},
        "passes": passes,
        "setup_samples": spread(setup),
        "commands": records,
    }


def run_once(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> tuple[dict, dict, list[str]]:
    """One benchmark run; returns (result line, details, report lines)."""
    workload = workloads.build(name, seed, smoke=smoke)
    lib = workloads.Library()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workloads.write_configs(workload, workdir)
        details = {"manifest": manifest(workload, trace, seconds, smoke)}
        lines = [f"perfbench {name} seed={seed} trace={trace} ({workload.why})"]
        if trace:
            import layers

            traced = layers.traced_run(workload, workdir, seconds, lib, quick=smoke)
            tracer = traced.pop("tracer")
            spans_path = OUT / f"{name}-seed{seed}-spans.json"
            tracer.dump(spans_path)
            units = layers.PER_LAYER_UNITS
            metrics = traced.pop("metrics")
            details.update(traced)
            for layer, share in traced["layer_self_share"].items():
                lines.append(f"  self time {layer:<10} {traced['layer_self_s'][layer]:.4f} s  ({share:.1%})")
            lines.append(f"  tracing overhead {traced['tracing_overhead_share']:.1%} "
                         f"(traced replay {traced['replay_traced_s']:.3f} s vs untraced "
                         f"{min(traced['replay_untraced_s']):.3f} s); "
                         f"{traced['spans_recorded']} spans kept, {traced['spans_dropped']} over the cap")
            lines.append(f"  spans: {spans_path.relative_to(ROOT)}")
        else:
            timed = timed_run(workload, workdir, seconds, lib, quick=smoke)
            units = END_TO_END_UNITS
            metrics = timed.pop("metrics")
            details.update(timed)
            for key, value in timed["extra"].items():
                lines.append(f"  {key:<40} {value:.6g} {'1/s' if key.endswith('_per_s') else 'share'}")
            for cmd_name, rec in timed["commands"].items():
                if rec.get("comparison_failed"):
                    lines.append(
                        f"  {cmd_name}: exit 1, comparison FAILED for {', '.join(rec['comparison_failed'])} "
                        "(as platoonctl reports it; the time-shift CI half-width ignores the correlation "
                        "of shifts within a platoon)"
                    )
        for cmd_name, errs in details["errors"].items():
            for err in errs:
                lines.append(f"  CHECK FAILED {cmd_name}: {err}")
        for key in units:
            lines.append(f"  {key:<40} {metrics[key]:.6g} {units[key]}")
        attempted, failed = details["attempted"], details["failed"]
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
        }
        details["result"] = result
        results_path = OUT / f"{name}-seed{seed}-trace{trace}.json"
        results_path.write_text(json.dumps(details, indent=1, default=str) + "\n", encoding="utf-8")
        lines.append(f"  results: {results_path.relative_to(ROOT)}")
        return result, details, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def schema_problems(result: dict, spec: dict, trace: int) -> list[str]:
    """Differences between a result line and the metrics BENCHMARK.json lists."""
    problems = []
    if list(result) != ["correct", "attempted", "failed", "metrics"]:
        problems.append(f"result keys {list(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1 or not isinstance(result["failed"], int):
        problems.append("attempted/failed must be integers, attempted >= 1")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics {got} != BENCHMARK.json {wanted}")
    for key, entry in result["metrics"].items():
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value or abs(value) == float("inf"):
            problems.append(f"{key} value {value!r} is not a finite number")
    return problems


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = {w["name"] for w in spec["workloads"]} <= set(workloads.SIZES)
    if not ok:
        print("BENCHMARK.json names a workload that workloads.SIZES lacks", file=sys.stderr)
    for name in workloads.SIZES:
        for trace in (0, 1):
            result, _, lines = run_once(name, 1, 0.0, trace, smoke=True)
            problems = schema_problems(result, spec, trace)
            if not result["correct"]:
                problems.append("an output failed its check")
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"smoke {name} trace={trace}: {status}")
            if problems:
                print("\n".join(lines))
            ok = ok and not problems
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size self-test of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")

    if not (SRC / "platoonctl" / "cli.py").is_file():
        print(f"perfbench: no platoonctl sources at {SRC / 'platoonctl'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import platoonctl

    if Path(platoonctl.__file__).resolve().parent != (SRC / "platoonctl").resolve():
        print(f"perfbench: imported platoonctl from {platoonctl.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.smoke:
        return smoke()
    result, _, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
