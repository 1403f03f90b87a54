"""Run one `griglab` process and measure it as a CLI user would pay for it.

Each child's CPU time and peak RSS come from `os.wait4` on that child
alone; `RUSAGE_CHILDREN` is not used because it keeps a running maximum
over every child the benchmark has reaped.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
TRACER = Path(__file__).resolve().parent / "tracing.py"

CLI_ENTRY = "import sys; from griglab.cli import main; sys.exit(main())"
SETUP_ENTRY = "import griglab.cli; from griglab import core; core.load_preset({!r})"
CHILD_TIMEOUT_S = 80  # a run must end within 180 s, even if a child hangs


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, timeout=CHILD_TIMEOUT_S):
    """Run argv to completion; a child that outlives `timeout` is killed."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,
            code=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def run_cli(args):
    """One untraced `griglab` operation, exactly as the console script runs it."""
    return spawn([sys.executable, "-c", CLI_ENTRY, *args])


def run_setup(preset):
    """A fresh process that imports griglab.cli and loads the preset."""
    return spawn([sys.executable, "-c", SETUP_ENTRY.format(preset)])


def run_traced(args, spans_path, op_id):
    """One traced operation; its spans land in `spans_path` at exit."""
    return spawn([sys.executable, str(TRACER), str(spans_path), str(op_id), *args])
