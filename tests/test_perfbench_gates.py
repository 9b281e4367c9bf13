"""The gates of CI's perfbench smoke runs, checked in process on the benchmark's
own inputs: every `noise-sweep-n50` and `log-n1000` request at seed 0
certifies, no `two-motion-hard` request at seed 210 raises, and every answer
passes the benchmark's soundness gate."""

import sys
from pathlib import Path

import pytest

from egocal import problem, solver

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import common  # noqa: E402
import gen  # noqa: E402


def _answers(workload, seed):
    """(dataset, result) of each request of the workload, parsed and calibrated here."""
    datasets, requests, _ = gen.GENERATORS[workload](seed)
    for request in requests:
        dataset = datasets[request["dataset"]]
        m = problem.load_measurements(dataset["text"])
        yield dataset, solver.calibrate(m, request["constraint_set"])


def _sound(dataset, result):
    return common.sound(result.certificate.verdict, result.cost, dataset["reference_cost"])


@pytest.mark.parametrize("workload, n_requests", [(common.NOISE_SWEEP, 120), (common.LOG_N1000, 3)])
def test_every_request_of_a_listed_workload_certifies(workload, n_requests):
    answers = list(_answers(workload, 0))
    assert len(answers) == n_requests
    for dataset, result in answers:
        assert result.certificate.certified
        assert _sound(dataset, result)


def test_every_two_motion_hard_request_at_seed_210_is_answered():
    # Request 233 of this seed breaks the SDP solve down; it is answered all the same.
    answers = list(_answers(common.TWO_MOTION, 210))
    assert len(answers) == 256
    for dataset, result in answers:
        assert _sound(dataset, result)
