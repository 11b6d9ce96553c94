"""Benchmark builders: operators, initial data, and physical behaviour."""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import sympmor as sm
from sympmor import CanonicalForm, dynamics

from conftest import build_oscillator, kink_speed, oscillator_exact


# -- dissipative wave ----------------------------------------------------------


def test_spline_bump_values_and_smoothness():
    assert sm.spline_bump(0.0) == 1.0
    assert sm.spline_bump(1.0) == 0.25
    assert sm.spline_bump(2.0) == 0.0
    assert sm.spline_bump(3.5) == 0.0
    assert np.array_equal(sm.spline_bump([-1.0]), sm.spline_bump([1.0]))
    # C^1 across the knots: centered slopes match from both sides
    h = 1e-6
    for knot in (1.0, 2.0):
        left = (sm.spline_bump(knot) - sm.spline_bump(knot - h)) / h
        right = (sm.spline_bump(knot + h) - sm.spline_bump(knot)) / h
        assert abs(left - right) <= 1e-4


def test_wave_damping_profiles():
    config = sm.make_config("wave", {"n": 10})
    i = np.arange(10)
    assert np.abs(config.damping_values()
                  - (0.1 + 0.9 * i / 10)).max() <= 1e-15
    flat = sm.make_config("wave", {"n": 10, "damping": "constant",
                                   "constant_r": 1e-5})
    assert np.array_equal(flat.damping_values(), np.full(10, 1e-5))


def test_wave_operators():
    config = sm.make_config("wave", {"n": 100})
    bench = sm.build_benchmark("wave", config)
    n = 100
    stiffness = bench.stiffness.toarray()
    stiff_q = stiffness[:n, :n]
    scale = np.abs(stiff_q).max()
    # periodic second difference annihilates constants up to the shift
    mu = config.regularization * config.c2
    row_sums = stiff_q @ np.ones(n) - mu * np.ones(n)
    assert np.abs(row_sums).max() <= 1e-10 * scale
    k = bench.system.K.toarray()
    assert np.abs(np.tril(k, -1)).max() == 0.0
    assert np.abs(k.T @ k - stiffness).max() <= 1e-10 * scale
    assert np.array_equal(stiffness[n:, n:], np.eye(n))
    chi = bench.system.chi.toarray()
    assert np.abs(chi[:n, :n]).max() == 0.0
    assert np.abs(np.diag(chi)[n:] - config.damping_values()).max() <= 1e-15


def test_wave_initial_state():
    bench = sm.build_benchmark("wave", sm.make_config("wave", {"n": 100}))
    q0 = bench.system.z0[:100]
    assert q0.max() == 1.0
    assert np.argmax(q0) == 50
    assert np.abs(bench.system.z0[100:]).max() == 0.0
    assert bench.system.dx == pytest.approx(0.01)
    config = bench.config
    grid = bench.system.dx * np.arange(config.n)
    assert grid.shape == (100,)
    assert grid[np.argmax(q0)] == pytest.approx(0.5 * config.length)


def test_wave_config_validation():
    with pytest.raises(ValueError, match="at least 3"):
        sm.make_config("wave", {"n": 2}).validate()
    with pytest.raises(ValueError, match="damping profile"):
        sm.make_config("wave", {"damping": "cubic"}).validate()
    with pytest.raises(ValueError, match="lie in"):
        sm.make_config("wave", {"ramp_base": 0.2}).validate()
    with pytest.raises(ValueError, match="positive"):
        sm.make_config("wave", {"c2": -1.0}).validate()


def test_wave_momentum_decays(run_registry):
    config = sm.make_config("wave", {"n": 100, "t_final": 20.0})
    bench = sm.build_benchmark("wave", config)
    report = sm.integrate(bench.system, dt=config.dt, t_final=20.0,
                          snapshot_stride=10)
    run_registry.add("wave-n100-long", report)
    speed = np.linalg.norm(report.derivatives[:100], axis=0)
    assert speed[-1] <= 0.05 * speed.max()


# -- sine-Gordon ---------------------------------------------------------------


def test_sine_gordon_kink_profile():
    q, p = sm.kink_profile(np.array([12.5]), 12.5, 0.5)
    assert abs(q[0] - np.pi) <= 1e-14
    gamma = np.sqrt(1.0 - 0.25)
    assert abs(p[0] + 2.0 * (0.5 / gamma)) <= 1e-14
    far = np.array([12.5 - 40.0, 12.5 + 40.0])
    q_far, p_far = sm.kink_profile(far, 12.5, 0.5)
    assert q_far[0] <= 1e-12
    assert abs(q_far[1] - 2.0 * np.pi) <= 1e-12
    assert np.abs(p_far).max() <= 1e-12
    # translation: advancing time shifts the profile by velocity * t
    q_late, _ = sm.kink_profile(np.array([14.5]), 12.5, 0.5, t=4.0)
    assert abs(q_late[0] - np.pi) <= 1e-14


def test_sine_gordon_gradient_and_potential():
    """The gradient and the potential take the positions alone: q of shape
    (n,) or (n, m) maps to sin(q) of the same shape, and to one value
    sum(1 - cos q) per column, whose derivative is the gradient."""
    bench = sm.build_benchmark("sine-gordon",
                               sm.make_config("sine-gordon", {"n": 12}))
    grad = bench.system.nonlinear_grad
    potential = bench.system.potential
    zero = np.zeros(12)
    assert np.abs(grad(zero)).max() == 0.0
    assert potential(zero) == 0.0
    rng = np.random.default_rng(17)
    q = rng.uniform(-2.0, 2.0, size=(12, 3))
    g = grad(q)
    assert g.shape == q.shape
    np.testing.assert_array_equal(g, np.sin(q))
    np.testing.assert_array_equal(grad(q[:, 1]), g[:, 1])
    assert potential(q).shape == (3,)
    assert potential(q[:, 1]) == potential(q)[1]
    eps = 1e-6
    for i in (0, 5, 11):
        probe = np.zeros(12)
        probe[i] = eps
        fd = (potential(q[:, 0] + probe)
              - potential(q[:, 0] - probe)) / (2.0 * eps)
        assert abs(fd - g[i, 0]) <= 1e-6


def test_sine_gordon_boundary_vector():
    config = sm.make_config("sine-gordon", {"n": 10})
    bench = sm.build_benchmark("sine-gordon", config)
    dx = config.length / 11
    bd = bench.system.boundary_vector
    assert bd[0] == 0.0
    assert abs(bd[9] - 1.0 / dx ** 2) <= 1e-12
    assert np.abs(bd[10:]).max() == 0.0

    snug = sm.make_config("sine-gordon", {"n": 10, "consistent_bc": True})
    bench2 = sm.build_benchmark("sine-gordon", snug)
    x0 = snug.length / 4.0
    left, _ = sm.kink_profile(np.array([0.0]), x0, snug.velocity)
    right, _ = sm.kink_profile(np.array([snug.length]), x0, snug.velocity)
    bd2 = bench2.system.boundary_vector
    # the boundary values the builder took, the kink's tails
    a, b = bd2[0] * dx ** 2, bd2[9] * dx ** 2
    assert a == pytest.approx(float(left[0]), abs=1e-14)
    assert b == pytest.approx(float(right[0]), abs=1e-14)
    assert np.abs(bd2[1:9]).max() == 0.0 and np.abs(bd2[10:]).max() == 0.0


def test_sine_gordon_config_validation():
    with pytest.raises(ValueError, match="interior points"):
        sm.make_config("sine-gordon", {"n": 1}).validate()
    with pytest.raises(ValueError, match="kink speed"):
        sm.make_config("sine-gordon", {"velocity": 1.0}).validate()
    with pytest.raises(ValueError, match="nonnegative"):
        sm.make_config("sine-gordon", {"r": -0.1}).validate()


def test_sine_gordon_kink_speed_short_run(run_registry):
    config = sm.make_config("sine-gordon",
                            {"n": 100, "r": 0.0, "consistent_bc": True,
                             "t_final": 5.0})
    bench = sm.build_benchmark("sine-gordon", config)
    report = sm.integrate(bench.system, dt=config.dt, t_final=5.0,
                          snapshot_stride=config.snapshot_stride)
    run_registry.add("sine-gordon-speed-short", report)
    speed = kink_speed(report, config)
    assert abs(speed - config.velocity) / config.velocity <= 0.02


def test_sine_gordon_kinetic_decay(sg_n100):
    bench, report = sg_n100
    kin = sm.reduction.kinetic_energy(report.derivatives[:bench.system.n],
                                      bench.system.dx)
    t = report.snapshots.times
    dt_snap = t[1] - t[0]
    checkpoints = [kin[int(round(v / dt_snap))]
                   for v in (1.0, 10.0, 20.0, 30.0, 40.0)]
    assert all(b < a for a, b in zip(checkpoints, checkpoints[1:]))
    assert checkpoints[-1] <= 0.01 * kin.max()


# -- sparse mechanical operators -----------------------------------------------


def _dense_stiffness(name, config):
    """S_q of the wave or sine-Gordon benchmark formed as a dense array from
    the difference matrices: the reference for the sparse builders."""
    n = config.n
    if name == "wave":
        dx = config.length / n
        d = (-np.eye(n) + np.eye(n, k=1)) / dx
        d[n - 1, 0] = 1.0 / dx
        lap = d.T @ d
        lap = 0.5 * (lap + lap.T)
        mu = config.regularization * config.c2
        return config.c2 * lap + mu * np.eye(n)
    dx = config.length / (n + 1)
    return (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / dx ** 2


@pytest.mark.parametrize("name", ["wave", "sine-gordon"])
def test_sparse_build_matches_dense_reference(name):
    """The CSR operators against the dense stencil and its dense Cholesky
    factor at n = 40: K^T K is the stiffness, and a closed run with the
    dense K follows the same trajectory."""
    config = sm.make_config(name, {"n": 40})
    bench = sm.build_benchmark(name, config)
    system = bench.system
    for op in (system.K, system.chi, bench.stiffness, bench.drift):
        assert isinstance(op, dynamics._Csr)
    stiff_q = _dense_stiffness(name, config)
    scale = np.abs(stiff_q).max()
    k = system.K
    assert abs(k.T @ k - bench.stiffness).max() <= 1e-10 * scale
    assert np.abs(bench.stiffness.toarray()
                  - scipy.linalg.block_diag(stiff_q, np.eye(40))).max() \
        <= 1e-12 * scale
    reference = sm.TddSystem(
        scipy.linalg.block_diag(sm.cholesky_factor(stiff_q), np.eye(40)),
        system.chi.toarray(), system.z0,
        nonlinear_grad=system.nonlinear_grad, potential=system.potential,
        boundary_vector=system.boundary_vector, dx=system.dx)
    run = {"dt": config.dt, "t_final": config.t_final,
           "snapshot_stride": config.snapshot_stride}
    got, want = sm.integrate(system, **run), sm.integrate(reference, **run)
    for a, b in ((got.snapshots.states, want.snapshots.states),
                 (got.costates, want.costates)):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("name", ["wave", "sine-gordon"])
def test_build_at_n2000_is_fast_and_holds_no_dense_matrix(name):
    """One dense n x n array at n = 2000 takes 32 MB; the sparse build
    allocates at most 4 MB of Python-tracked memory (about 1.1 MB
    measured) and takes well under 0.2 s (best of three)."""
    config = sm.make_config(name, {"n": 2000})
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        sm.build_benchmark(name, config)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.2
    tracemalloc.start()
    try:
        sm.build_benchmark(name, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# -- ladder network ------------------------------------------------------------


def _ladder_parts(config):
    """The physical operators of a ladder config, in its interleaved
    (charge, flux) order: the skew structure matrix, the diagonals of Q and
    R, and the input, together with T, T^{-1} and the block magnitudes
    that skew_to_canonical gives for the skew matrix."""
    dim = 2 * config.cells
    skew = np.diag(np.ones(dim - 1), 1) - np.diag(np.ones(dim - 1), -1)
    q_diag = np.empty(dim)
    q_diag[0::2] = 1.0 / config.capacitance
    q_diag[1::2] = 1.0 / config.inductance
    r_diag = np.zeros(dim)
    r_diag[1::2] = config.resistance
    r_diag[-1] += config.load_resistance
    u = np.zeros(dim)
    u[0] = config.drive
    return (skew, q_diag, r_diag, u) + sm.skew_to_canonical(skew)


def test_ladder_single_cell_is_canonical():
    bench = sm.build_benchmark("ladder", sm.make_config("ladder",
                                                        {"cells": 1}))
    assert np.array_equal(bench.transform, np.eye(2))
    assert np.array_equal(bench.system.K, np.eye(2))
    assert np.array_equal(np.diag(bench.system.chi), [0.0, 0.2 + 0.4])
    assert np.array_equal(bench.system.input_vector, [1.0, 0.0])
    assert np.array_equal(bench.system.z0, np.zeros(2))


def test_ladder_transform_invariants():
    config = sm.make_config("ladder", {"cells": 50})
    bench = sm.build_benchmark("ladder", config)
    skew, _, _, _, t, t_inv, lam = _ladder_parts(config)
    assert np.array_equal(bench.transform, t)
    j = CanonicalForm(50).matrix()
    assert np.abs(t_inv @ skew @ t_inv.T - j).max() <= 1e-10
    assert np.abs(t @ t_inv - np.eye(100)).max() <= 1e-12
    assert lam.min() > 0.0


def test_ladder_operators():
    config = sm.make_config("ladder", {"cells": 50})
    bench = sm.build_benchmark("ladder", config)
    _, q_diag, r_diag, u, t, t_inv, _ = _ladder_parts(config)
    assert np.array_equal(bench.transform, t)
    assert r_diag[-1] == config.resistance + config.load_resistance
    assert np.abs(r_diag[0::2]).max() == 0.0
    assert np.array_equal(bench.system.K, q_diag[:, None] * t)
    chi = bench.system.chi
    assert np.array_equal(np.diag(chi), q_diag ** 2 * r_diag)
    assert np.abs(chi - np.diag(np.diag(chi))).max() == 0.0
    expected_drift = t_inv @ (chi @ t)
    assert np.abs(bench.drift - expected_drift).max() <= 1e-14
    assert np.abs(bench.system.input_vector - t_inv @ u).max() <= 1e-14
    gram = bench.system.K.T @ bench.system.K
    assert np.abs(bench.stiffness - 0.5 * (gram + gram.T)).max() <= 1e-14


def test_ladder_energy_invariance():
    config = sm.make_config("ladder", {"cells": 20})
    bench = sm.build_benchmark("ladder", config)
    _, q_diag, _, _, t, _, _ = _ladder_parts(config)
    assert np.array_equal(bench.transform, t)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(40)
    canonical = 0.5 * np.sum((bench.system.K @ y) ** 2)
    physical = 0.5 * np.sum((q_diag * (t @ y)) ** 2)
    assert abs(canonical - physical) <= 1e-12 * physical


def test_ladder_config_validation():
    with pytest.raises(ValueError, match="at least one cell"):
        sm.make_config("ladder", {"cells": 0}).validate()
    with pytest.raises(ValueError, match="must be positive"):
        sm.make_config("ladder", {"inductance": 0.0}).validate()
    with pytest.raises(ValueError, match="nonnegative"):
        sm.make_config("ladder", {"load_resistance": -1.0}).validate()


def test_skew_to_canonical_errors():
    with pytest.raises(ValueError, match="even-dimensional"):
        sm.skew_to_canonical(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="skew-symmetric"):
        sm.skew_to_canonical(np.ones((4, 4)))
    with pytest.raises(ValueError, match="singular"):
        sm.skew_to_canonical(np.zeros((4, 4)))


# -- oscillator helper and registry --------------------------------------------


def test_oscillator_exact_properties():
    k, r, q0 = 2.0, 0.3, 1.5
    assert oscillator_exact(k, r, q0, 0.0) == q0
    h = 1e-5
    slope = (oscillator_exact(k, r, q0, h)
             - oscillator_exact(k, r, q0, -h)) / (2.0 * h)
    assert abs(slope) <= 1e-4
    with pytest.raises(ValueError, match="underdamped"):
        oscillator_exact(1.0, 2.0, 1.0, 0.0)
    bench = build_oscillator(k=4.0, r=0.1, q0=2.0)
    assert np.array_equal(bench.system.K.toarray(), np.diag([2.0, 1.0]))
    assert np.array_equal(bench.system.chi.diagonal(), [0.0, 0.1])
    assert np.array_equal(bench.system.z0, [2.0, 0.0])
    assert np.array_equal(bench.stiffness.toarray(), np.diag([4.0, 1.0]))
    for k in (0.0, -1.0):
        with pytest.raises(np.linalg.LinAlgError,
                           match="oscillator stiffness"):
            build_oscillator(k=k)


def test_registry_and_config_errors():
    assert sm.benchmark_names() == ["ladder", "sine-gordon", "wave",
                                    "wave-lowdiss"]
    with pytest.raises(ValueError, match="unknown benchmark"):
        sm.make_config("heat")
    with pytest.raises(ValueError, match="unknown config keys"):
        sm.make_config("wave", {"m": 3})
    with pytest.raises(ValueError, match="unknown benchmark"):
        sm.build_benchmark("heat")
    with pytest.raises(TypeError, match="expects"):
        sm.build_benchmark("ladder", sm.make_config("wave"))
    low = sm.make_config("wave-lowdiss")
    assert low.damping == "constant"
    assert low.constant_r == 1e-5
    assert sm.build_benchmark("wave-lowdiss", low).name == "wave-lowdiss"


def test_dissipative_model_consistency():
    cases = (("wave", {"n": 16}), ("sine-gordon", {"n": 16}),
             ("ladder", {"cells": 5}))
    for name, overrides in cases:
        bench = sm.build_benchmark(name, sm.make_config(name, overrides))
        model = bench.dissipative_model()
        z0 = bench.system.z0
        h_closed = bench.system.hamiltonian(z0)
        h_plain = model.hamiltonian(z0)
        assert abs(h_closed - h_plain) <= 1e-10 * max(1.0, abs(h_plain))
    # with the strings at rest the two state derivatives coincide whenever
    # the costate starts outside the damped block (wave) or at zero (ladder)
    for name, overrides in (("wave", {"n": 16}), ("ladder", {"cells": 5})):
        bench = sm.build_benchmark(name, sm.make_config(name, overrides))
        model = bench.dissipative_model()
        f0 = sm.VerletStepper(bench.system, 0.01).f
        dz_closed = bench.system.state_derivative(bench.system.z0, f0)
        dz_plain = model.state_derivative(bench.system.z0)
        scale = max(1.0, np.abs(dz_plain).max())
        assert np.abs(dz_closed - dz_plain).max() <= 1e-10 * scale
