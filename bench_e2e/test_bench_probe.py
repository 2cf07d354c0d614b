"""The correction arithmetic of ``probe.py`` on synthetic timings."""

import numpy as np

from probe import PROBE_NOMINAL_S, correction_factors, nearest_probe


def synthetic_run(slowdown_at):
    """2 000 operations of known true length with a probe every 20, on a
    host whose slowdown at time ``t`` is ``slowdown_at(t)``."""
    rng = np.random.default_rng(7)
    true_lengths = rng.uniform(0.5e-3, 2.0e-3, size=2000)
    now = 0.0
    op_times, op_observed, probe_times, probe_observed = [], [], [], []
    for i, length in enumerate(true_lengths):
        if i % 20 == 0:
            observed = PROBE_NOMINAL_S * slowdown_at(now)
            probe_times.append(now + observed / 2)
            probe_observed.append(observed)
            now += observed
        observed = length * slowdown_at(now)
        op_times.append(now + observed / 2)
        op_observed.append(observed)
        now += observed
    return (true_lengths, np.array(op_times), np.array(op_observed),
            np.array(probe_times), np.array(probe_observed))


def test_uniform_slowdown_corrects_back_within_one_percent():
    true, times, observed, probe_times, probe_observed = synthetic_run(
        lambda t: 1.25)
    assert observed.sum() > 1.24 * true.sum()
    corrected = observed * correction_factors(times, probe_times,
                                              probe_observed)
    assert abs(corrected.sum() / true.sum() - 1.0) < 0.01
    assert np.allclose(corrected, true, rtol=0.01)


def test_drifting_slowdown_corrects_back_within_one_percent():
    # 1.0x -> 1.5x over the run: each probe sees the speed of its own moment.
    true, times, observed, probe_times, probe_observed = synthetic_run(
        lambda t: 1.0 + 0.5 * min(1.0, t / 2.5))
    corrected = observed * correction_factors(times, probe_times,
                                              probe_observed)
    assert abs(corrected.sum() / true.sum() - 1.0) < 0.01
    assert abs(np.median(corrected) / np.median(true) - 1.0) < 0.01


def test_noisy_probes_do_not_inflate_corrected_times():
    # A busy host: single probes read 0.7x or 1.9x of what the host averages
    # (1.5x nominal).  Dividing by single probes would read 20% high.
    true, times, observed, probe_times, probe_observed = synthetic_run(
        lambda t: 1.5)
    noise = np.resize([0.7, 1.9, 0.7, 0.7], len(probe_observed))   # mean 1
    corrected = observed * correction_factors(times, probe_times,
                                              probe_observed * noise)
    assert abs(np.median(corrected) / np.median(true) - 1.0) < 0.05
    assert abs(corrected.sum() / true.sum() - 1.0) < 0.05


def test_correction_never_reorders_samples_of_one_probe_interval():
    _, times, observed, probe_times, probe_observed = synthetic_run(
        lambda t: 1.0 + 0.3 * np.sin(t * 5.0) ** 2)
    owner = nearest_probe(times, probe_times)
    corrected = observed * correction_factors(times, probe_times,
                                              probe_observed)
    for probe_index in np.unique(owner):
        mine = owner == probe_index
        assert (np.argsort(observed[mine], kind="stable")
                == np.argsort(corrected[mine], kind="stable")).all()


def test_every_instant_maps_to_the_closest_probe():
    probe_times = np.array([1.0, 2.0, 4.0])
    times = np.array([0.0, 1.4, 1.6, 2.9, 3.1, 9.0])
    assert nearest_probe(times, probe_times).tolist() == [0, 0, 1, 1, 2, 2]
