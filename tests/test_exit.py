"""How a command ends. The console script and ``python -m platoonctl.cli``
run ``cli.entrypoint``, which freezes the garbage collector after ``main``
returns, so that the interpreter's last collections skip the run's objects.
That is safe only because every output is complete when ``main`` returns:
no file waits for a finalizer to be flushed or closed."""

import gc
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import platoonctl
from platoonctl.cli import main

from conftest import NOMINAL_RAW

ROOT = Path(__file__).resolve().parents[1]
NOMINAL = str(ROOT / "scenarios" / "nominal.json")
SRC = str(Path(platoonctl.__file__).resolve().parents[1])
# Without PYTHONUNBUFFERED a child's stdout, a pipe, is block-buffered as a
# file would be, so what it prints reaches the test only if the exit flushes it.
ENV = {
    **{key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"},
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}

CONFIGS = {
    # The base config, x = 1 on 100,000 vehicles: the correct closed forms pass.
    "simulate-passes": {},
    # x = 1 on 30 vehicles closes about ten platoons. On this seed the mean
    # shift falls outside its interval although the closed forms are right,
    # so the run exits 1 (a small pool's t interval is too narrow).
    "simulate-fails": {
        "arrival": {"rate": 1.0},
        "policy": {"threshold": 1.0},
        "simulation": {"n_vehicles": 30, "n_replications": 1, "seed": 27},
    },
    # A config error: an output path in the removed output section, which
    # only an empty object passes.
    "bad-output": {"output": {"csv": 1}},
    # x = 1 on 3e8 vehicles × 2: each replication folds for several seconds.
    "simulate-long": {"simulation": {"n_vehicles": 300_000_000, "n_replications": 2, "seed": 7}},
}


def write_config(tmp_path: Path, name: str) -> str:
    cfg = {"arrival": {"rate": 0.02}, "policy": {"threshold": 50.0}, "cost": dict(NOMINAL_RAW),
           "simulation": {"n_vehicles": 100_000, "n_replications": 1, "seed": 12345}, "output": {}}
    cfg.update(CONFIGS[name])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def run_module(args: list[str], cwd: Path, code: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python -m platoonctl.cli args``, or the script ``code`` with
    ``args`` as its ``sys.argv[1:]``, in a fresh interpreter."""
    prog = ["-m", "platoonctl.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *prog, *args], capture_output=True, env=ENV, cwd=cwd, timeout=120)


# The probe runs at exit, after the command: it tells whether the GC was
# frozen by then.
PROBE = "import atexit, gc\natexit.register(lambda: print(gc.get_freeze_count() > 0))\n"


class TestFreeze:
    @pytest.mark.parametrize(
        "call, frozen",
        [
            ("from platoonctl.cli import entrypoint\nentrypoint()", "True"),
            ("from platoonctl.cli import main\nraise SystemExit(main())", "False"),
        ],
        ids=["entrypoint", "main"],
    )
    def test_only_the_entrypoint_exits_frozen(self, tmp_path, call, frozen):
        code = f"{PROBE}import sys\nsys.argv[0] = 'platoonctl'\n{call}"
        done = run_module(["analytic", "--config", NOMINAL], tmp_path, code)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.decode().splitlines()
        assert lines[0].startswith("merge_probability") and lines[-1] == frozen

    @pytest.mark.parametrize(
        "args",
        [
            ["analytic", "--config", NOMINAL],
            ["sweep", "--config", NOMINAL, "--r-min", "0", "--r-max", "200", "--points", "201", "--csv", "sweep.csv"],
            ["simulate", "--config", "simulate-passes"],
        ],
        ids=["analytic", "sweep", "simulate"],
    )
    def test_main_does_not_freeze(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        args = [write_config(tmp_path, arg) if arg in CONFIGS else arg for arg in args]
        before = gc.get_freeze_count()
        assert main(args) == 0
        assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "config, exit_code",
    [("simulate-passes", 0), ("simulate-fails", 1), ("bad-output", 2)],
)
def test_module_path_equals_main(tmp_path, capsysbinary, config, exit_code):
    """``python -m platoonctl.cli`` gives the exit code, stdout, stderr and
    output file of ``main`` in process, byte for byte."""
    args = ["simulate", "--config", write_config(tmp_path, config), "--csv", str(tmp_path / "report.csv")]
    outputs = []
    for run in ("module", "main"):
        (tmp_path / "report.csv").unlink(missing_ok=True)
        if run == "module":
            done = run_module(args, tmp_path)
            result = (done.returncode, done.stdout, done.stderr)
        else:
            code = main(args)
            captured = capsysbinary.readouterr()
            result = (code, captured.out, captured.err)
        report = tmp_path / "report.csv"
        outputs.append((*result, report.read_bytes() if report.exists() else None))
    assert outputs[0] == outputs[1]
    code, stdout, stderr, report = outputs[0]
    assert code == exit_code
    if exit_code == 2:
        assert stdout == b"" and report is None
        assert stderr == (
            b"error: config section 'output' was removed and only {} is accepted: name the output file with "
            b"analytic --json or simulate --csv\n"
        )
    else:
        assert report.count(b"\n") == 5
        assert stderr == (b"comparison FAILED at 3 CI half-widths\n" if exit_code else b"")


def unraisable_after(command, monkeypatch) -> list:
    """What reaches ``sys.unraisablehook`` while ``command`` runs and a
    collection follows, with ``ResourceWarning`` turned into an error. An
    unclosed file warns when it is freed, and a warning raised there is
    unraisable."""
    caught = []
    with monkeypatch.context() as m, warnings.catch_warnings():
        m.setattr(sys, "unraisablehook", caught.append)
        warnings.simplefilter("error", ResourceWarning)
        command()
        gc.collect()
    return caught


def test_a_file_left_open_is_seen(monkeypatch):
    caught = unraisable_after(lambda: open(NOMINAL, "rb"), monkeypatch)
    assert [type(u.exc_value) for u in caught] == [ResourceWarning]


@pytest.mark.parametrize(
    "args, exit_code",
    [
        (["analytic", "--config", NOMINAL, "--json", "out.json"], 0),
        (["optimize", "--config", NOMINAL, "--r-max", "500"], 0),
        (["simulate", "--config", "simulate-passes", "--csv", "out.csv"], 0),
        (["sweep", "--config", NOMINAL, "--r-min", "0", "--r-max", "200", "--points", "201", "--csv", "out.csv"], 0),
        (["sweep", "--config", "simulate-passes", "--r-min", "0", "--r-max", "200", "--points", "11",
          "--with-simulation", "--csv", "out.csv"], 0),
        (["simulate", "--config", "bad-output"], 2),
    ],
    ids=["analytic", "optimize", "simulate", "sweep", "sweep-with-simulation", "config-error"],
)
def test_every_file_is_closed_when_main_returns(tmp_path, monkeypatch, capsys, args, exit_code):
    monkeypatch.chdir(tmp_path)
    args = [write_config(tmp_path, arg) if arg in CONFIGS else arg for arg in args]
    codes = []
    assert unraisable_after(lambda: codes.append(main(args)), monkeypatch) == []
    assert codes == [exit_code]


def _stat(pid: int) -> list[str]:
    """The fields of ``/proc/<pid>/stat`` after the command name: the state,
    the parent's pid, and so on."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def _children(pid: int) -> list[int]:
    """The pids whose parent is ``pid``."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            if int(_stat(int(entry))[1]) == pid:
                found.append(int(entry))
        except OSError:  # it exited while the list was read
            pass
    return found


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited; a zombie has exited."""
    try:
        return _stat(pid)[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads the process table from /proc")
def test_workers_exit_soon_after_a_signal_kills_the_command(tmp_path):
    """SIGTERM ends ``simulate`` without running its cleanup, so no one
    kills its workers; each sees between two chunks that its parent is gone
    and exits, rather than fold on for the seconds its replication takes."""
    # Two usable CPUs whatever the machine has, so the pool forks a worker.
    code = "import os\nos.sched_getaffinity = lambda pid: {0, 1}\nfrom platoonctl.cli import main\nraise SystemExit(main())"
    args = [sys.executable, "-c", code, "simulate", "--config", write_config(tmp_path, "simulate-long")]
    command = subprocess.Popen(args, env=ENV, cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60.0
        while not workers:
            assert command.poll() is None and time.monotonic() < deadline, "no worker was forked"
            time.sleep(0.01)
            workers = _children(command.pid)
        command.send_signal(signal.SIGTERM)
        assert command.wait(timeout=10.0) == -signal.SIGTERM
        deadline = time.monotonic() + 2.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(map(_running, workers)), "a worker outlived its command by 2 s"
    finally:
        command.kill()
        command.wait()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
