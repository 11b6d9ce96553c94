"""Acceptance criteria for the package, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion. The expensive runs are shared session fixtures (see conftest), so
this module adds little beyond the assertions themselves.
"""

import numpy as np

import sympmor as sm
from sympmor import CanonicalForm

from conftest import (assert_volterra, build_oscillator, extended_drift,
                      kink_speed, oscillator_exact, passivity_fd,
                      random_ortho_symplectic, symmetric_sqrt,
                      symplectic_inverse)


def test_a01_basis_invariants(wave_n100):
    _, report = wave_n100
    greedy = sm.greedy_basis(report.snapshots, 30).basis
    cotangent, _ = sm.cotangent_lift(report.snapshots, 30)
    for basis in (greedy, cotangent):
        for m in (20, 40, 60):
            sub = basis.truncate(m // 2)
            sub.validate(tol=1e-10)
            left_inverse = symplectic_inverse(sub.matrix) @ sub.matrix
            assert np.abs(left_inverse - np.eye(m)).max() <= 1e-10


def test_a02_integrator_second_order(run_registry):
    bench = build_oscillator(k=1.0, r=0.5)
    exact = oscillator_exact(1.0, 0.5, 1.0, 5.0)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        n = int(round(5.0 / dt))
        report = sm.integrate(bench.system, dt=dt, n_steps=n,
                              snapshot_stride=n)
        run_registry.add(f"oscillator-dt-{dt}", report)
        errors.append(abs(report.snapshots.states[0, -1] - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_a03_extended_energy_balance(wave_n500, wave_n500_half_dt):
    _, report = wave_n500
    _, half = wave_n500_half_dt
    drift = extended_drift(report).max()
    drift_half = extended_drift(half).max()
    assert drift <= 1e-3
    assert 3.0 <= drift / drift_half <= 5.0


def test_a04_reduced_energy_balance(wave_n500_greedy40):
    _, report = wave_n500_greedy40
    assert extended_drift(report).max() <= 1e-3


def test_a05_error_ordering_and_baseline_instability(wave_n100_sweep):
    """Errors fall with the mode count, the closed reduction beats the plain
    symplectic one, and the unstructured POD/Galerkin baseline drops the
    sign structure of the dissipative coupling: some state of its linear
    flow gains energy (positive energy-metric logarithmic norm), while every
    symplectic projection keeps dH/dt <= 0 like the full model.

    The loss of sign structure does not by itself make the flow unstable:
    at this size the baseline's spectral abscissa is slightly negative. The
    unstable reduced flow is checked at the preset size by
    ``test_pod_wave_energy_growth_is_flagged``.
    """
    cells = wave_n100_sweep["cells"]
    rdh = [cells["rdh", m]["error"].mean_weighted for m in (20, 40, 60)]
    assert rdh[0] > rdh[1] > rdh[2]
    assert rdh[1] < cells["psd", 60]["error"].mean_weighted
    pod = cells["pod", 40]
    structured = [cells["psd", m]["log_norm"] for m in (20, 40, 60)]
    structured.append(wave_n100_sweep["full_log_norm"])
    lognorm = pod["log_norm"]
    assert lognorm > 0.0 and max(structured) <= 1e-10 * abs(lognorm), (
        "the unstructured 40-mode baseline keeps the sign structure of the "
        "dissipative coupling, or a symplectic projection loses it: "
        f"energy-metric logarithmic norm {lognorm:.4e} for POD against "
        f"{max(structured):.4e} at most for the psd cells and the full "
        f"model; POD spectral abscissa {pod['abscissa']:.4e}")


def test_a06_low_dissipation_agreement(lowdiss_pair):
    err_rdh = lowdiss_pair["err_rdh"].mean_weighted
    err_psd = lowdiss_pair["err_psd"].mean_weighted
    floor = 0.01 * min(err_rdh, err_psd)
    assert abs(err_rdh - err_psd) <= floor
    assert lowdiss_pair["mutual"].mean_weighted <= floor


def test_a07_ladder_passivity_every_instant(ladder50, ladder_reduced):
    bench, report = ladder50
    assert report.passivity_residual.max() <= 1e-8
    assert passivity_fd(bench.system, report).max() <= 1e-8
    for m, (red, rep) in sorted(ladder_reduced.items()):
        assert rep.passivity_residual.max() <= 1e-8, f"{m} modes"
        assert passivity_fd(red.system, rep).max() <= 1e-8, f"{m} modes"


def test_a08_reduction_commutes_with_operators(run_registry):
    rng = np.random.default_rng(8)
    b = rng.standard_normal((8, 8))
    k = sm.cholesky_factor(b.T @ b + 0.5 * np.eye(8))
    c = rng.standard_normal((8, 8))
    chi = 0.1 * (c.T @ c)
    chi = 0.5 * (chi + chi.T)
    z0 = rng.standard_normal(8)
    system = sm.TddSystem(k, chi, z0)
    basis = random_ortho_symplectic(4, 2, rng=9)
    red = sm.rdh_reduce(system, basis)

    # reduced operators rebuilt through independent routes
    a = basis.matrix
    gram = (k @ a).T @ (k @ a)
    gram = 0.5 * (gram + gram.T)
    k_ref = np.linalg.cholesky(gram).T
    assert np.abs(red.system.K - k_ref).max() <= 1e-12 * np.abs(k_ref).max()
    root = symmetric_sqrt(chi)
    chi_ref = (root @ a).T @ (root @ a)
    assert np.abs(red.system.chi - chi_ref).max() <= 1e-12
    z0_ref = CanonicalForm(2).matrix().T @ (a.T @ (CanonicalForm(4).matrix()
                                                   @ z0))
    assert np.abs(red.system.z0 - z0_ref).max() <= 1e-12

    manual = sm.TddSystem(k_ref, 0.5 * (chi_ref + chi_ref.T), z0_ref)
    rep_red = sm.integrate(red.system, dt=0.01, n_steps=100)
    rep_manual = sm.integrate(manual, dt=0.01, n_steps=100)
    run_registry.add("random-8dim-reduced", rep_red)
    run_registry.add("random-8dim-manual", rep_manual)
    assert np.abs(rep_red.snapshots.states
                  - rep_manual.snapshots.states).max() <= 1e-12


def test_a09_memory_constraint_on_every_run(
        run_registry, wave_n500, wave_n500_half_dt, wave_n100, lowdiss_n100,
        sg_n100, sg_free_kink, ladder50, wave_n500_greedy40, wave_n100_sweep,
        lowdiss_pair, ladder_reduced, sg_reduced, identity_reduction):
    assert len(run_registry.entries) >= 15
    for label, report in run_registry.entries:
        assert_volterra(report, label)


def test_a10_kink_speed_and_kinetic_decay(sg_free_kink, sg_n100, sg_reduced):
    bench, report = sg_free_kink
    speed = kink_speed(report, bench.config)
    assert abs(speed - 0.5) / 0.5 <= 0.02
    sg_bench, sg_report = sg_n100
    kin = sm.reduction.kinetic_energy(
        sg_bench.system.velocity(sg_report.costates), sg_bench.system.dx)
    assert kin[-1] <= 0.1 * kin.max()
    errors = sg_reduced["kinetic_errors"]
    assert errors[60] < errors[20]


def test_a11_identity_reduction_exact(identity_reduction):
    full, reduced = identity_reduction
    diff = np.abs(full.snapshots.states - reduced.snapshots.states).max()
    assert diff <= 1e-8
