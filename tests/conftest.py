"""Shared test fixtures, a tracemalloc helper, and the acceptance verdict
lines replayed after the run.

Output capture would otherwise swallow the per-criterion PASS/FAIL
lines on success; the terminal-summary hook prints them where they
always survive.
"""

import os
import signal
import tracemalloc
from contextlib import contextmanager

import pytest

from teamopt import evaluation
from teamopt.numerics import SCORE_BLOCK

_VERDICTS = []

# batch sizes at and around the edges of the row blocks of a whole-split
# pass, up to a 2,100-row sweep split
BLOCK_SIZES = [0, 1, 2, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1,
               2 * SCORE_BLOCK + 1, 2100]


def record_verdict(line):
    _VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in _VERDICTS:
            terminalreporter.write_line(line)


class MemoryTrace:
    """Bytes that tracemalloc traces: `live()` now, and `peak_above()`
    the peak since the last `peak_above()` (or the start) less what was
    live then."""

    def __init__(self):
        self._base = self.live()

    def live(self):
        return tracemalloc.get_traced_memory()[0]

    def peak_above(self):
        live, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        above, self._base = peak - self._base, live
        return above


@contextmanager
def traced_memory():
    """A MemoryTrace of the allocations made inside the block."""
    tracemalloc.start()
    try:
        yield MemoryTrace()
    finally:
        tracemalloc.stop()


@pytest.fixture
def kill_worker_on_seed(monkeypatch):
    """`kill_worker_on_seed(seed)` makes a sweep cell SIGKILL the pool
    worker that runs `seed`, when the cell splits the dataset. Forked
    workers inherit the patch; in this process the cell runs as usual."""
    this_process = os.getpid()
    real = evaluation.split

    def patch(seed):
        def split(dataset, fractions, cell_seed):
            if cell_seed == seed and os.getpid() != this_process:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(dataset, fractions, cell_seed)

        monkeypatch.setattr(evaluation, "split", split)

    return patch
