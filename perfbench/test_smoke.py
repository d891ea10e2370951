"""Self-test of the benchmark: the smoke mode, the output checks, and the
refusal to run without sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def test_smoke_mode_runs_every_workload():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr
    for name in workloads.SIZES:
        assert f"smoke {name} trace=0: ok" in done.stdout
        assert f"smoke {name} trace=1: ok" in done.stdout


def _run_in_process(cmd, workdir: Path, monkeypatch, capsys) -> tuple[int, bytes, bytes | None]:
    from platoonctl import cli

    (workdir / cmd.config_file).write_text(json.dumps(cmd.config), encoding="utf-8")
    monkeypatch.chdir(workdir)
    code = cli.main(cmd.cli_args())
    stdout = capsys.readouterr().out.encode("utf-8")
    output = (workdir / cmd.output).read_bytes() if cmd.output else None
    return code, stdout, output


def test_check_flags_a_wrong_closed_form_value(tmp_path, monkeypatch, capsys):
    cmd = workloads.build("threshold_sweep", seed=3, smoke=True).commands[0]
    lib = workloads.Library()
    code, stdout, output = _run_in_process(cmd, tmp_path, monkeypatch, capsys)
    assert workloads.check(cmd, lib, 3, code, stdout, output).errors == []

    lines = output.decode().splitlines()
    fields = lines[1].split(",")  # threshold 0, always among the checked rows
    fields[-1] = repr(float(fields[-1]) + 1e-3)
    tampered = "\n".join([lines[0], ",".join(fields), *lines[2:]]).encode() + b"\n"
    assert workloads.check(cmd, lib, 3, code, stdout, tampered).errors


def test_check_flags_a_simulate_exit_code_that_disagrees_with_its_rows(tmp_path, monkeypatch, capsys):
    cmd = workloads.build("oracle_large", seed=1, smoke=True).commands[0]
    lib = workloads.Library()
    code, stdout, output = _run_in_process(cmd, tmp_path, monkeypatch, capsys)
    verdict = workloads.check(cmd, lib, 1, code, stdout, output)
    assert verdict.errors == [] and verdict.comparison_rows == 4
    assert workloads.check(cmd, lib, 1, 1 - code, stdout, output).errors
    assert workloads.check(cmd, lib, 1, 2, stdout, output).errors


@pytest.mark.parametrize("extra", [[], ["--smoke"]])
def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path, extra):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_large", "--seed", "1",
         "--seconds", "1", "--trace", "0", *extra],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
