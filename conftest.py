"""Fixtures shared by the test suite and the benchmark suite."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.planner import SailorPlanner


@pytest.fixture
def planner_worker_fault(monkeypatch, tmp_path):
    """Arm one fault in a parallel-planner pool worker.

    Call the returned ``arm(kind, branch=None, seconds=60.0)`` before
    planning.  It patches ``SailorPlanner._plan_branch`` so that the first
    pool worker to search a matching branch -- ``branch=(pp, mbs)``, or any
    branch when ``None`` -- fails:

    * ``"sigkill"`` kills the worker mid-branch, which breaks the pool (the
      ``BrokenProcessPool`` salvage path);
    * ``"hang"`` sleeps ``seconds`` to wedge the worker (the
      ``branch_timeout_s`` salvage path).

    Pool workers fork from the patched test process, so they inherit the
    patch.  The fault never fires in the driver process, so the driver's
    inline re-run recovers the branch, and it fires at most once across
    all processes: the first to create the once-file with ``O_EXCL`` wins.
    ``arm`` returns that file's path, which exists once the fault fired.
    """
    once_path = tmp_path / "planner_fault_once"
    plan_branch = SailorPlanner._plan_branch

    def claim() -> bool:
        try:
            os.close(os.open(once_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        return True

    def arm(kind: str, branch: tuple[int, int] | None = None,
            seconds: float = 60.0):
        if multiprocessing.get_start_method() != "fork":
            raise RuntimeError("worker faults reach the pool only through "
                               "the fork start method")

        def faulty_plan_branch(self, job, objective, consolidated, resources,
                               pp, mbs, *args, **kwargs):
            if ((branch is None or branch == (pp, mbs))
                    and multiprocessing.parent_process() is not None
                    and claim()):
                if kind == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(seconds)
            return plan_branch(self, job, objective, consolidated, resources,
                               pp, mbs, *args, **kwargs)

        monkeypatch.setattr(SailorPlanner, "_plan_branch", faulty_plan_branch)
        return once_path

    return arm
