"""Shared test fixtures, and the acceptance verdict lines replayed after
the run.

Output capture would otherwise swallow the per-criterion PASS/FAIL
lines on success; the terminal-summary hook prints them where they
always survive.
"""

import os
import signal

import pytest

from teamopt import evaluation

_VERDICTS = []


def record_verdict(line):
    _VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in _VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def kill_worker_on_seed(monkeypatch):
    """`kill_worker_on_seed(seed)` makes human-only's sweep cell SIGKILL
    the pool worker that runs `seed`. Forked workers inherit the patch;
    in this process the cell runs as usual."""
    this_process = os.getpid()
    real = evaluation.APPROACHES["human-only"]

    def patch(seed):
        def run_cell(dataset, cell_seed, *args):
            if cell_seed == seed and os.getpid() != this_process:
                os.kill(os.getpid(), signal.SIGKILL)
            return real.run_cell(dataset, cell_seed, *args)

        monkeypatch.setitem(evaluation.APPROACHES, "human-only",
                            real._replace(run_cell=run_cell))

    return patch
