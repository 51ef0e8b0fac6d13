"""Run one child process to completion and report what it used."""

from __future__ import annotations

import os
import signal
import subprocess
from pathlib import Path


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(argv, out_dir: Path, timeout_s: int, env=None, cwd=None):
    """Run ``argv`` and wait for it; returns (exit code, stdout, stderr, peak RSS in MB).

    Output goes through files in ``out_dir`` rather than pipes, so the child
    can be reaped with ``wait4``, which reports that child's own peak
    resident memory. A child still running after ``timeout_s`` is killed and
    reaped before :class:`ChildTimeout` is raised.
    """
    out_path, err_path = out_dir / "child.stdout", out_dir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss / 1024
