"""The host-speed kernel used to scale sample times."""

import calibrate


def test_kernel_seconds_times_at_least_one_call():
    assert 0.0 < calibrate.kernel_seconds(window=0.0) < 1.0
