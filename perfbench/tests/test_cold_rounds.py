"""Two consecutive cold rounds of ``fig3-kill`` must do the same work.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

A memo that survived the cold reset would make the second round cheaper:
fewer eq. (5) series built, fewer line-2 searches, fewer verdicts
computed.  The control test shows the counters do see a warm round.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import common  # noqa: E402
import worker  # noqa: E402
from repro.experiments.fig3 import FIG3_PANELS, fig3_point  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402

WORK = (
    "safety.killing_series.misses",
    "core.profile_memo.misses",
    "core.sched_cache.misses",
)


@pytest.fixture
def options():
    # A slice of the fig3-kill corpus where FT-S runs lines 4 and 8.
    grid = (0.8, 0.9, 1.0)
    small = common.corpus_options("fig3-kill", common.DEFAULT_SEED, grid)
    small.update(panels=["b"], failure_probabilities=[1e-5], sets_per_point=4)
    return small


def _counted(run) -> dict[str, int]:
    obs_metrics.registry().reset()
    obs_metrics.enable()
    try:
        run()
    finally:
        obs_metrics.disable()
    counters = obs_metrics.registry().snapshot()["counters"]
    return {name: counters.get(name, 0) for name in WORK}


def _warm_round(options) -> None:
    for panel, f, index, u in common.corpus_points(options):
        fig3_point(FIG3_PANELS[panel], f, index, u, options["sets_per_point"], options["seed"])


def test_consecutive_cold_rounds_do_the_same_work(options):
    first = _counted(lambda: worker._fig3_round(options))
    second = _counted(lambda: worker._fig3_round(options))
    assert first["safety.killing_series.misses"] > 0
    assert first["core.profile_memo.misses"] > 0
    assert first == second


def test_a_warm_round_does_less_work(options):
    cold = _counted(lambda: worker._fig3_round(options))
    warm = _counted(lambda: _warm_round(options))
    assert warm["core.sched_cache.misses"] < cold["core.sched_cache.misses"]
