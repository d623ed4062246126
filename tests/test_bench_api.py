"""Round 0 of every benchmark workload runs against the current API and passes its checks.

bench/test_bench.py tests the benchmark's checkers; this catches an ncqo
name or signature that a workload calls going missing.
"""

import os
import sys

import pytest

BENCH = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
sys.path.insert(0, BENCH)  # workloads imports its sibling module `reference`

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_round_zero_runs_and_checks(tmp_path, workload):
    calls = workloads.make_round(workload, 0, 0, str(tmp_path))
    assert calls
    for call in calls:
        assert call.check(call.run()) > 0
