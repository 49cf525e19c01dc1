"""Scaling of step times by the host-speed probes around them."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


def test_each_step_is_scaled_by_the_bursts_around_it():
    ref = run.REFERENCE_PROBE_S
    bursts = [[], [ref, ref], [2 * ref], [4 * ref, 2 * ref]]
    # step 0 sees only the burst after it (ref); the probes around step 1
    # average (1 + 1 + 2) / 3 = 4/3 of ref, those around step 2 8/3 of ref
    assert run.scaled([1.0, 4.0, 8.0], bursts, [[], [], []]) == pytest.approx(1.0 + 3.0 + 3.0)


def test_a_host_twice_as_slow_gives_the_same_scaled_time():
    ref = run.REFERENCE_PROBE_S
    quiet = run.scaled([2.0, 3.0], [[ref], [ref], [ref]], [[], [ref]])
    slow = run.scaled([4.0, 6.0], [[2 * ref], [2 * ref], [2 * ref]], [[], [2 * ref]])
    assert quiet == pytest.approx(5.0)
    assert slow == pytest.approx(quiet)


def test_probes_fired_within_a_step_count_with_the_bursts_around_it():
    ref = run.REFERENCE_PROBE_S
    # a long step that ran at ref speed at its ends and 3x slower within
    scaled = run.scaled([10.0], [[ref], [ref]], [[3 * ref, 3 * ref, 3 * ref, 3 * ref]])
    assert scaled == pytest.approx(10.0 / ((2 + 12) / 6))
