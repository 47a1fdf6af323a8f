import math

import numpy as np
import pytest

from cyclewalk import _kernels
from cyclewalk import (
    WalkConfig,
    coin_state,
    limiting_distribution,
    mixing_time_averaged,
    mixing_time_instantaneous,
    superop_definitional,
    time_averaged,
    total_variation,
    uniform_deviation_bound,
    verify_geometric_sum,
)
from cyclewalk.analysis import (
    averaged_time_below,
    bound_unavailable_reasons,
    default_horizon,
    steps_to_uniform,
    time_averaged_snapshots,
)
from cyclewalk.core import NumericalCheckError
from cyclewalk.evolution import _density_stack, position_marginal


def _cfg(n, p, coin="up"):
    return WalkConfig(n_nodes=n, decoherence_rate=p, initial_coin=coin_state(coin))


def test_time_averaged_single_step_is_launch_delta():
    avg = time_averaged(_cfg(6, 0.5), 1)
    assert avg.probs[0] == pytest.approx(1.0, abs=1e-12)


def test_time_averaged_settles_near_uniform():
    avg = time_averaged(_cfg(5, 0.3), 2000)
    assert np.abs(avg.probs - 0.2).max() <= 3e-3
    avg = time_averaged(_cfg(4, 0.5), 2000)  # parity oscillation averages out
    assert np.abs(avg.probs - 0.25).max() <= 3e-3


def test_time_averaged_rejects_bad_tau():
    with pytest.raises(ValueError):
        time_averaged(_cfg(4, 0.5), 0)


def test_total_variation_basics():
    uniform = np.full(4, 0.25)
    assert total_variation(uniform, uniform) == 0.0
    delta = np.array([1.0, 0, 0, 0])
    assert total_variation(delta, uniform) == pytest.approx(1.5, abs=1e-15)
    with pytest.raises(ValueError):
        total_variation(np.ones(3) / 3, uniform)


def test_tv_envelope_halves_when_window_doubles():
    cfg = _cfg(9, 0.2)
    taus = [1000, 2000, 4000, 8000]
    snaps = time_averaged_snapshots(cfg, taus)
    uniform = np.full(9, 1.0 / 9)
    tvs = [total_variation(s, uniform) for s in snaps]
    for small, big in zip(tvs, tvs[1:]):
        assert 0.4 <= big / small <= 0.6


def test_limiting_distribution_odd_cycle():
    limit = limiting_distribution(_cfg(7, 0.5), "even")
    assert np.allclose(limit, 1.0 / 7)
    assert np.array_equal(limiting_distribution(_cfg(7, 0.5), "odd"), limit)


def test_limiting_distribution_even_cycle_tracks_parity():
    even = limiting_distribution(_cfg(8, 0.5), "even")
    assert np.allclose(even, [0.25, 0, 0.25, 0, 0.25, 0, 0.25, 0])
    odd = limiting_distribution(_cfg(8, 0.5), "odd")
    assert np.allclose(odd, [0, 0.25, 0, 0.25, 0, 0.25, 0, 0.25])


def test_limiting_distribution_without_decoherence_is_undefined():
    assert limiting_distribution(_cfg(8, 0.0), "even") is None
    with pytest.raises(ValueError):
        limiting_distribution(_cfg(8, 0.5), "sometimes")


def test_mixing_time_small_cycle_against_density_path():
    # independent re-derivation: Cesaro averages from the density-matrix
    # oracle, same last-crossing rule
    cfg = _cfg(3, 0.5)
    horizon = 200
    report = mixing_time_averaged(cfg, 0.5, horizon=horizon)
    cum = np.zeros(3)
    oracle_tv = []
    for t, (rho,) in enumerate(_density_stack([cfg], horizon - 1)):
        cum += position_marginal(rho).probs
        oracle_tv.append(np.abs(cum / (t + 1) - 1.0 / 3).sum())
    assert np.abs(np.array(oracle_tv) - report.tv_trace).max() <= 1e-10
    above = [i + 1 for i, tv in enumerate(oracle_tv) if tv >= 0.5]
    oracle_mixing = max(above) if above else 1
    assert report.converged
    assert report.mixing_time == oracle_mixing == 1


def test_mixing_time_grows_quadratically_with_cycle_length():
    fast = mixing_time_averaged(_cfg(5, 0.3), 0.01, horizon=4000)
    slow = mixing_time_averaged(_cfg(15, 0.3), 0.01, horizon=20000)
    assert fast.converged and slow.converged
    assert fast.mixing_time == 148
    assert slow.mixing_time == 1444
    assert 4.0 <= slow.mixing_time / fast.mixing_time <= 12.0


@pytest.mark.parametrize("scan, n, p, epsilon, pinned", [
    (mixing_time_averaged, 15, 0.3, 0.05, 288),
    (mixing_time_averaged, 9, 0.2, 0.01, 422),
    (mixing_time_instantaneous, 6, 0.4, 0.01, 31),
], ids=["averaged-15", "averaged-9", "instantaneous-6"])
def test_pinned_mixing_times_at_the_default_horizon(scan, n, p, epsilon, pinned):
    report = scan(_cfg(n, p), epsilon)
    assert report.horizon == default_horizon(n, epsilon)
    assert report.converged
    assert report.mixing_time == pinned


def test_mixing_time_trivial_when_epsilon_dominates():
    report = mixing_time_averaged(_cfg(3, 0.5), 1.9, horizon=50)
    assert report.converged
    assert report.mixing_time == 1


def test_mixing_report_suffix_property():
    report = mixing_time_averaged(_cfg(4, 0.6), 0.05, horizon=3000)
    assert report.converged
    tail = report.tv_trace[report.mixing_time:]
    assert np.all(tail < 0.05)


def test_trace_cells_thins_and_rejects_nonpositive_stride():
    report = mixing_time_averaged(_cfg(4, 0.6), 0.05, horizon=10)
    times, values = report.trace_cells()
    assert times.tolist() == list(range(1, 11))
    assert values.tolist() == report.tv_trace.tolist()
    times, values = report.trace_cells(4)
    assert times.tolist() == [1, 5, 9, 10]
    assert values.tolist() == report.tv_trace[[0, 4, 8, 9]].tolist()
    for stride in (0, -3):
        with pytest.raises(ValueError, match=r"^stride must be >= 1, got -?\d+$"):
            report.trace_cells(stride)
    # a stride past the trace keeps its first and last entries
    for stride in (10, 11, 2**63, 10**30):
        times, values = report.trace_cells(stride)
        assert times.tolist() == [1, 10]
        assert values.tolist() == report.tv_trace[[0, 9]].tolist()


def test_instantaneous_mixing_even_cycle_with_parity_target():
    report = mixing_time_instantaneous(_cfg(6, 0.5), 0.05, horizon=2000)
    assert report.converged
    assert report.mixing_time is not None


def test_instantaneous_mixing_coherent_even_cycle_does_not_converge():
    report = mixing_time_instantaneous(_cfg(4, 0.0), 0.001, horizon=500)
    assert not report.converged
    assert report.mixing_time is None


def test_averaged_time_below_matches_full_trace():
    cfg = _cfg(5, 0.2)
    report = mixing_time_averaged(cfg, 0.01, horizon=2000)
    first = int(np.nonzero(report.tv_trace < 0.01)[0][0]) + 1
    assert averaged_time_below(cfg, 0.01, horizon=2000) == first


def test_averaged_time_below_none_when_unreachable():
    assert averaged_time_below(_cfg(9, 0.2), 1e-6, horizon=50) is None


def test_averaged_time_below_rejects_bad_horizon():
    for horizon in (0, -5):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            averaged_time_below(_cfg(5, 0.2), 0.01, horizon=horizon)


@pytest.mark.parametrize("scan", [mixing_time_averaged, mixing_time_instantaneous,
                                  averaged_time_below])
def test_scans_reject_a_non_finite_trace(monkeypatch, scan):
    # tv >= epsilon is false for NaN: an all-NaN trace would read as mixed at 1
    def nan_after_two(matrices, v0, horizon, *args, **kwargs):
        return np.array([1.0, 0.5, np.nan] + [0.0] * (horizon - 3)), 0.0

    monkeypatch.setattr(_kernels, "tv_scan", nan_after_two)
    with pytest.raises(NumericalCheckError, match=r"^non-finite total variation nan at step 3$"):
        scan(_cfg(5, 0.3), 0.05, 40)


def test_scans_reject_nonpositive_or_nonfinite_epsilon():
    cfg = _cfg(5, 0.3)
    for epsilon in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            default_horizon(5, epsilon)
        for scan in (mixing_time_averaged, mixing_time_instantaneous,
                     averaged_time_below):
            for horizon in (None, 50):
                with pytest.raises(ValueError,
                                   match="epsilon must be positive and finite"):
                    scan(cfg, epsilon, horizon)


def test_bound_hand_computed_value():
    # two-term sum at N=3: both cosines are -1/2, so B = (1/9) * 2
    assert uniform_deviation_bound(8, 3, 1.0) == pytest.approx(2.0 / 9.0, abs=1e-15)


def test_bound_scales_inversely_with_window():
    for tau in (10, 100, 1000):
        a = uniform_deviation_bound(tau, 9, 0.4)
        b = uniform_deviation_bound(2 * tau, 9, 0.4)
        assert b == pytest.approx(a / 2.0, rel=1e-14)
    # B * tau / N approaches a constant: consecutive growth factors shrink to ~1
    scaled = [uniform_deviation_bound(1000, n, 0.3) * 1000 / n for n in (5, 9, 17, 33)]
    growth = [b / a for a, b in zip(scaled, scaled[1:])]
    assert growth[0] > growth[1] > growth[2]
    assert growth[2] <= 1.05


def test_bound_rejects_unsupported_inputs():
    with pytest.raises(ValueError):
        uniform_deviation_bound(100, 8, 0.5)
    with pytest.raises(ValueError):
        uniform_deviation_bound(100, 9, 0.0)
    with pytest.raises(ValueError):
        uniform_deviation_bound(0, 9, 0.5)


def test_bound_unavailable_reasons():
    assert bound_unavailable_reasons(_cfg(9, 0.2)) == []
    assert bound_unavailable_reasons(_cfg(8, 0.2)) == ["even cycle length"]
    assert bound_unavailable_reasons(_cfg(9, 0.0)) == ["zero decoherence rate"]
    assert bound_unavailable_reasons(_cfg(9, 0.2, "down")) == ["initial coin is not 'up'"]
    assert bound_unavailable_reasons(_cfg(8, 0.0, "balanced")) == [
        "even cycle length", "zero decoherence rate", "initial coin is not 'up'"]
    # p^2 underflows: to 0 at 1e-200, to a subnormal at 1e-160
    for p in (1e-200, 1e-160):
        assert uniform_deviation_bound(1, 9, p) == math.inf
        assert bound_unavailable_reasons(_cfg(9, p)) == [
            "decoherence rate too small for a finite bound"]
    assert bound_unavailable_reasons(_cfg(8, 1e-200)) == ["even cycle length"]


def test_bound_applies_to_up_under_a_global_phase():
    # i|1> and e^{i theta}|1> are the state |1>: same walk, same bound
    for phase in (1j, -1.0, np.exp(0.7j)):
        cfg = WalkConfig(n_nodes=9, decoherence_rate=0.2, initial_coin=[phase, 0.0])
        assert bound_unavailable_reasons(cfg) == []
        report = mixing_time_averaged(cfg, 0.05, horizon=2000)
        up = mixing_time_averaged(_cfg(9, 0.2), 0.05, horizon=2000)
        assert report.mixing_time == up.mixing_time is not None
        assert np.abs(report.tv_trace - up.tv_trace).max() <= 1e-12
    tilted = WalkConfig(n_nodes=9, decoherence_rate=0.2,
                        initial_coin=[np.cos(1e-3), np.sin(1e-3)])
    assert bound_unavailable_reasons(tilted) == ["initial coin is not 'up'"]


def test_bound_dominates_measured_deviation():
    for n in (5, 9):
        for tau in (100, 1000):
            cfg = _cfg(n, 0.5, "up")
            avg = time_averaged_snapshots(cfg, [tau])[0]
            deviation = np.abs(avg - 1.0 / n).max()
            assert deviation <= uniform_deviation_bound(tau, n, 0.5) + 1e-9


def test_geometric_sum_identity():
    op = superop_definitional(1, 3, 7, 0.4)
    assert verify_geometric_sum(op, 1) <= 1e-15
    assert verify_geometric_sum(op, 1000) <= 1e-10
    nilpotent = superop_definitional(0, 2, 5, 1.0)
    assert verify_geometric_sum(nilpotent, 50) <= 1e-12


def test_geometric_sum_rejects_diagonal_pairs():
    # I - L is singular on diagonal pairs (L fixes the identity)
    diag = superop_definitional(2, 2, 5, 0.4)
    with pytest.raises(ValueError, match="invertible"):
        verify_geometric_sum(diag, 10)
    off = superop_definitional(1, 2, 5, 0.4)
    with pytest.raises(ValueError):
        verify_geometric_sum(off, 0)


def _pair_stack(pairs):
    return np.stack([superop_definitional(k, kp, n, p) for n, k, kp, p in pairs])


@pytest.mark.parametrize("tau", [1, 10, 1000])
def test_geometric_sum_stack_equals_per_matrix_calls(tau):
    stack = _pair_stack([(7, 1, 3, 0.4), (5, 0, 2, 1.0), (12, 11, 4, 0.05),
                         (3, 2, 0, 0.7), (16, 5, 13, 0.93), (9, 8, 1, 0.2)])
    singles = [verify_geometric_sum(m, tau) for m in stack]
    assert verify_geometric_sum(stack, tau) == max(singles)
    assert verify_geometric_sum(stack.reshape(2, 3, 4, 4), tau) == max(singles)


def test_geometric_sum_of_a_nan_stack_is_nan():
    # np.linalg.cond cannot take it (its SVD does not converge)
    stack = _pair_stack([(7, 1, 3, 0.4), (9, 8, 1, 0.2)])
    stack[1, 2, 3] = np.nan
    assert np.isnan(verify_geometric_sum(stack, 10))
    assert np.isnan(verify_geometric_sum(np.full((4, 4), np.inf), 1))


def test_geometric_sum_stack_rejects_any_diagonal_pair():
    stack = _pair_stack([(7, 1, 3, 0.4), (5, 2, 2, 0.4), (9, 8, 1, 0.2)])
    with pytest.raises(ValueError, match="invertible"):
        verify_geometric_sum(stack, 10)
    verify_geometric_sum(stack[[0, 2]], 10)


def test_coherent_odd_cycle_average_still_flattens():
    # no decoherence, odd cycle: Cesaro average approaches uniform (no rate
    # asserted, just the anchor)
    cfg = _cfg(5, 0.0)
    snaps = time_averaged_snapshots(cfg, [500, 4000])
    uniform = np.full(5, 0.2)
    assert total_variation(snaps[1], uniform) < 2e-3
    assert total_variation(snaps[1], uniform) < total_variation(snaps[0], uniform)


def test_steps_to_uniform_reaches_tolerance():
    from cyclewalk import fourier_trajectory

    cfg = _cfg(3, 0.5)
    t_star = steps_to_uniform(cfg)
    dist = fourier_trajectory(cfg, t_star)[t_star]
    assert np.abs(dist - 1.0 / 3).max() < 1e-6
    with pytest.raises(ValueError):
        steps_to_uniform(_cfg(3, 0.0))


def test_default_horizon_formula_and_cap():
    assert default_horizon(5, 0.01) == 50_000
    assert default_horizon(100, 1e-4) == 1_000_000
    assert default_horizon(9, 1e-320) == 1_000_000  # 20 N^2 / epsilon is inf
    with pytest.raises(ValueError):
        default_horizon(5, 0.0)
