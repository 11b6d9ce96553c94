"""End-to-end checks of the command-line harness and its artifacts."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.io
import scipy.sparse

import sympmor as sm
from sympmor import cli, dynamics
from sympmor.cli import main
from sympmor.storage import (read_matrix, read_snapshots, read_vector,
                             verify_manifest, write_matrix, write_snapshots)

from conftest import read_csv


def _run(*argv):
    """The exit code of ``sympmor *argv``: main's return value, or the code
    of the SystemExit by which argparse rejects a command line."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


def _run_full_small(out, *extra):
    return _run("run-full", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--out", str(out), *extra)


def test_run_full_artifacts(tmp_path):
    out = tmp_path / "full"
    assert _run_full_small(out) == 0
    for name in ("full_report.csv", "snapshots.mtx", "snapshots_times.mtx",
                 "manifest.json"):
        assert (out / name).is_file()
    assert verify_manifest(out / "manifest.json")[1] == []
    manifest = _manifest(out)
    assert manifest["benchmark"] == "wave"
    assert manifest["config"]["n"] == 16
    assert manifest["n_steps"] == 500
    assert manifest["seed"] == 0
    bound = 1e-10 * (1.0 + manifest["kz_max"])
    assert manifest["volterra_max"] <= bound
    header, data = read_csv(out / "full_report.csv")
    assert header == ["t", "H", "E_string", "H_ext", "passivity_residual"]
    hext = data[:, 3]
    assert np.abs(hext - hext[0]).max() <= 1e-3 * abs(hext[0])
    snaps = read_snapshots(out / "snapshots.mtx")
    assert snaps.states.shape == (32, 101)


def test_run_full_warns_of_a_rounded_horizon(tmp_path):
    out = tmp_path / "rounded"
    assert _run("run-full", "--benchmark", "wave", "--set", "n=16",
                "--set", "dt=0.002", "--set", "t_final=0.0031",
                "--set", "snapshot_stride=1", "--out", str(out)) == 0
    manifest = _manifest(out)
    assert manifest["n_steps"] == 2
    [warning] = manifest["warnings"]
    assert "0.0031" in warning and "0.004" in warning
    assert _run_full_small(tmp_path / "exact") == 0
    assert _manifest(tmp_path / "exact")["warnings"] == []


def test_build_basis_warns_of_an_unsampled_end(tmp_path):
    """A step count that the snapshot stride does not divide leaves the
    last instant out of the snapshots; the manifest names both times."""
    out = tmp_path / "stride"
    assert _run("build-basis", "--benchmark", "wave", "--set", "n=20",
                "--set", "t_final=0.1", "--set", "snapshot_stride=3",
                "--modes", "4", "--out", str(out)) == 0
    [warning] = _manifest(out)["warnings"]
    assert "snapshot_stride 3" in warning
    assert "t = 0.096" in warning and "t = 0.1" in warning


def test_run_full_chi_scale_zero_disables_dissipation(tmp_path):
    out = tmp_path / "cons"
    assert _run("run-full", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--set", "chi_scale=0",
                "--out", str(out)) == 0
    manifest = _manifest(out)
    assert manifest["config"]["chi_scale"] == 0
    _, data = read_csv(out / "full_report.csv")
    h = data[:, 1]
    assert np.abs(h - h[0]).max() <= 1e-4 * abs(h[0])
    assert np.abs(data[:, 2]).max() == 0.0


def test_run_full_ladder_passivity(tmp_path):
    out = tmp_path / "ladder"
    assert _run("run-full", "--benchmark", "ladder", "--set", "cells=10",
                "--set", "t_final=5.0", "--out", str(out)) == 0
    _, data = read_csv(out / "full_report.csv")
    # passivity is one-sided: stored power may trail the supply, not exceed it
    assert data[:, 4].max() <= 1e-8


def test_run_full_nonfinite_exit_code(tmp_path, capsys):
    out = tmp_path / "blow"
    rc = _run("run-full", "--benchmark", "wave", "--set", "n=16",
              "--set", "dt=1.0", "--set", "t_final=300.0", "--out", str(out))
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_energy_overflow_exits_3_and_writes_nothing(tmp_path, capsys):
    """At dt = 1.0 the wave's energy overflows while its state is finite:
    run-full, an rdh run on a cotangent basis and a compare exit 3 at the
    first node whose energy or residual is non-finite, and write no output
    directory."""
    basis = tmp_path / "basis"
    assert _run("build-basis", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--method", "cotangent",
                "--modes", "8", "--out", str(basis)) == 0
    capsys.readouterr()
    blow_up = ("--benchmark", "wave", "--set", "n=16", "--set", "dt=1.0",
               "--set", "t_final=100")
    for argv, step in (
            (("run-full",), 82),
            (("run-reduced", "--method", "rdh",
              "--basis", str(basis / "basis_k8.mtx")), 97),
            (("compare", "--methods", "rdh,psd", "--modes", "8"), 82)):
        out = tmp_path / argv[0]
        assert _run(*argv, *blow_up, "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: energy or residual became non-finite at "
            f"step {step}\n")
        assert not out.exists()


def test_build_basis_greedy_degenerate_snapshots(tmp_path):
    state = np.zeros(32)
    state[:16] = np.linspace(1.0, 2.0, 16)
    states = np.tile(state[:, None], (1, 5))
    snaps = sm.SnapshotSet(times=np.arange(5.0), states=states)
    write_snapshots(snaps, tmp_path / "snaps.mtx")

    out = tmp_path / "basis2"
    assert _run("build-basis", "--benchmark", "wave", "--set", "n=16",
                "--method", "greedy", "--modes", "2",
                "--snapshots", str(tmp_path / "snaps.mtx"),
                "--out", str(out)) == 0
    assert read_matrix(out / "basis_k2.mtx").shape == (32, 2)

    rc = _run("build-basis", "--benchmark", "wave", "--set", "n=16",
              "--method", "greedy", "--modes", "4",
              "--snapshots", str(tmp_path / "snaps.mtx"),
              "--out", str(tmp_path / "basis4"))
    assert rc == 2


def test_build_basis_greedy_on_overflowing_snapshots_exits_2(tmp_path,
                                                             capsys):
    """Finite snapshots whose squared norms overflow: a greedy basis exits
    2 with one error line naming the overflow, without warning and without
    an --out directory; the POD and cotangent methods scale the block by a
    power of two before they form its Gram, and write the bases of the
    unscaled snapshots (to the rounding of the factor 1e305)."""
    full = tmp_path / "full"
    assert _run("run-full", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=0.1", "--out", str(full)) == 0
    snaps = read_snapshots(full / "snapshots.mtx")
    big = tmp_path / "big.mtx"
    write_snapshots(sm.SnapshotSet(snaps.times, 1e305 * snaps.states), big)
    capsys.readouterr()
    argv = ["build-basis", "--benchmark", "wave", "--set", "n=16",
            "--modes", "4", "--snapshots", str(big)]
    out = tmp_path / "greedy"
    assert _run(*argv, "--method", "greedy", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows" in err
    assert not out.exists()
    for method in ("cotangent", "pod"):
        assert _run(*argv, "--method", method,
                    "--out", str(tmp_path / method)) == 0
        assert _run(*argv[:-1], str(full / "snapshots.mtx"),
                    "--method", method,
                    "--out", str(tmp_path / f"{method}-unscaled")) == 0
        basis = read_matrix(tmp_path / method / "basis_k4.mtx")
        unscaled = read_matrix(tmp_path / f"{method}-unscaled"
                               / "basis_k4.mtx")
        assert np.abs(basis - unscaled).max() <= 1e-12


def test_pod_basis_round_trip(tmp_path):
    """A POD basis that build-basis writes from the wave's tall 200 x 751
    snapshot block (the Gram route, its modes orthonormalized by QR) passes
    the orthonormality check run-reduced applies when it loads the file."""
    out = tmp_path / "basis"
    assert _run("build-basis", "--benchmark", "wave", "--set", "n=100",
                "--method", "pod", "--modes", "20,40",
                "--out", str(out)) == 0
    _, data = read_csv(out / "singular_values.csv")
    assert data.shape == (40, 2)
    for m in (20, 40):
        assert _run("run-reduced", "--benchmark", "wave", "--set", "n=100",
                    "--method", "pod", "--basis", str(out / f"basis_k{m}.mtx"),
                    "--out", str(tmp_path / f"pod{m}")) == 0


def test_build_basis_cotangent_outputs(tmp_path):
    out = tmp_path / "basis"
    assert _run("build-basis", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=0.5", "--method", "cotangent",
                "--modes", "4,8", "--out", str(out)) == 0
    assert verify_manifest(out / "manifest.json")[1] == []
    a = read_matrix(out / "basis_k8.mtx")
    assert a.shape == (32, 8)
    basis = sm.OrthoSymplecticBasis(a[:, :4])
    basis.validate(tol=1e-10)
    header, data = read_csv(out / "singular_values.csv")
    assert header == ["index", "value"]
    values = data[:, 1]
    assert np.all(np.diff(values) <= 1e-12)
    info = _manifest(out)["basis"]
    assert info["invariant_check"] == {"4": "pass", "8": "pass"}
    assert info["values_kind"] == "stacked_singular_value"


def test_build_basis_writes_the_benchmarks_default_modes(tmp_path):
    """Without --modes, build-basis writes the benchmark's default mode
    counts, 10, 20 and 30 for the ladder, as compare runs them."""
    out = tmp_path / "basis"
    assert _run("build-basis", "--benchmark", "ladder", "--set", "cells=20",
                "--method", "pod", "--out", str(out)) == 0
    assert verify_manifest(out / "manifest.json")[1] == []
    assert _manifest(out)["basis"]["modes"] == [10, 20, 30]
    assert sorted(p.name for p in out.glob("*.mtx")) == [
        "basis_k10.mtx", "basis_k20.mtx", "basis_k30.mtx"]


def test_build_basis_rejects_bad_mode_lists(tmp_path, capsys):
    base = ("build-basis", "--benchmark", "wave", "--set", "n=16",
            "--set", "t_final=0.1", "--out", str(tmp_path / "x"))
    assert _run(*base, "--modes", "3") == 2
    assert "even mode counts" in capsys.readouterr().err
    assert _run(*base, "--modes", "0") == 2
    assert _run(*base, "--modes", "a,b") == 2
    assert not (tmp_path / "x").exists()


def test_reduce_and_run_reduced_roundtrip(tmp_path, capsys):
    full = tmp_path / "full"
    assert _run_full_small(full) == 0
    basis_dir = tmp_path / "basis"
    assert _run("build-basis", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--method", "cotangent",
                "--modes", "8", "--snapshots", str(full / "snapshots.mtx"),
                "--out", str(basis_dir)) == 0
    basis_file = basis_dir / "basis_k8.mtx"

    red_dir = tmp_path / "red"
    assert _run("reduce", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--basis", str(basis_file),
                "--out", str(red_dir)) == 0
    k = read_matrix(red_dir / "reduced_K_k8.mtx")
    chi = read_matrix(red_dir / "reduced_chi_k8.mtx")
    z0 = read_vector(red_dir / "reduced_z0_k8.mtx")
    bench = sm.build_benchmark("wave", sm.make_config(
        "wave", {"n": 16, "t_final": 1.0}))
    ref = sm.rdh_reduce(bench.system,
                        sm.OrthoSymplecticBasis(read_matrix(basis_file)[:, :4]))
    assert np.abs(k - ref.system.K).max() <= 1e-13
    assert np.abs(chi - ref.system.chi).max() <= 1e-13
    assert np.abs(z0 - ref.system.z0).max() <= 1e-13
    assert _manifest(red_dir)["reduction"] == {"modes": 8}
    # the spectral radius of the step map of the model it writes
    radius = _manifest(red_dir)["step_radius"]
    assert radius == pytest.approx(sm.spectral_radius(sm.integrate(
        ref.system, bench.config.dt, n_steps=2).step_map), rel=1e-12)
    assert radius <= 1.0 + 1e-9
    assert _manifest(red_dir)["warnings"] == []
    # a step past the Verlet stability limit of the reduced model
    coarse = tmp_path / "coarse"
    assert _run("reduce", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--set", "dt=1.0",
                "--basis", str(basis_file), "--out", str(coarse)) == 0
    assert _manifest(coarse)["step_radius"] == pytest.approx(39.63,
                                                             rel=1e-3)
    [warning] = _manifest(coarse)["warnings"]
    assert warning.startswith("rdh_k8: step_radius 39.63")
    # a step so long that the two-step run overflows still gives the map
    huge = tmp_path / "huge"
    assert _run("reduce", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--set", "dt=1e100",
                "--basis", str(basis_file), "--out", str(huge)) == 0
    assert _manifest(huge)["step_radius"] > 1e100
    # and one so long that the step map itself overflows
    inf = tmp_path / "inf"
    assert _run("reduce", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--set", "dt=1e300",
                "--basis", str(basis_file), "--out", str(inf)) == 0
    assert _manifest(inf)["step_radius"] == float("inf")
    [warning] = _manifest(inf)["warnings"]
    assert warning.startswith("rdh_k8: step_radius inf > 1")

    run_dir = tmp_path / "run"
    assert _run("run-reduced", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--basis", str(basis_file),
                "--method", "rdh", "--out", str(run_dir)) == 0
    assert verify_manifest(run_dir / "manifest.json")[1] == []
    assert _manifest(run_dir)["step_radius"] == pytest.approx(radius,
                                                              rel=1e-12)
    header, data = read_csv(run_dir / "reduced_report_k8.csv")
    hext = data[:, 3]
    assert np.abs(hext - hext[0]).max() <= 1e-3 * abs(hext[0])
    recon = read_snapshots(run_dir / "reconstructed_k8.mtx")
    full_snaps = read_snapshots(full / "snapshots.mtx")
    err = sm.l2_error(full_snaps, recon, 1.0 / 16)
    assert err.max_relative < 1.0

    # a dt at which an implicit stage of the reduced step is singular: a
    # configuration error naming the stage and dt, with no output directory
    grid = ("--benchmark", "wave", "--set", "n=16", "--set", "t_final=1.0",
            "--set", "damping=constant", "--set", "constant_r=0")
    capsys.readouterr()
    for command, stage in (("reduce", "first kick"), ("reduce", "drift"),
                           ("run-reduced", "first kick")):
        out = tmp_path / f"singular-{command}-{stage.replace(' ', '-')}"
        path, dt = _singular_stage_case(tmp_path / "singular.mtx", stage)
        assert _run(command, *grid, "--set", f"dt={dt!r}", "--basis",
                    str(path), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: the {stage} of the Verlet step is singular at "
            f"dt = {dt!r}\n")
        assert not out.exists()


def _singular_stage_case(path, stage):
    """A one-pair basis, written to ``path``, of the n = 16 wave without
    damping, and a dt at which the ``stage`` ("first kick" or "drift") of
    its rdh model's Verlet step is exactly singular. With chi = 0 the
    stage matrix M = K^T K of the reduced model does not depend on dt, and
    its 1 x 1 blocks m_qp = m_pq = m make the first kick 1 + w m and the
    drift 1 - w m (w = dt / 2). A lead of one node's q and p entries mixes
    them, with m < 0 or m > 0 by the sign of its p entry; the angle and dt
    are the first whose stage block rounds to zero."""
    bench = sm.build_benchmark("wave", sm.make_config(
        "wave", {"n": 16, "damping": "constant", "constant_r": 0.0}))
    sign = 1.0 if stage == "first kick" else -1.0
    n = bench.system.n
    for angle in np.linspace(0.3, 1.2, 10):
        lead = np.zeros((2 * n, 1))
        lead[0, 0], lead[n, 0] = np.cos(angle), sign * np.sin(angle)
        write_matrix(path, sm.OrthoSymplecticBasis(lead).matrix)
        basis = sm.OrthoSymplecticBasis(read_matrix(path)[:, :1])
        system = sm.rdh_reduce(bench.system, basis).system
        m = dynamics.VerletStepper(system, 1.0).m_qp.item()
        assert sign * m < 0.0
        for ulps in range(-4, 5):
            dt = float(2.0 / abs(m) * (1.0 + ulps * 2.0 ** -52))
            if 1.0 + (sign * 0.5 * dt) * m == 0.0:
                return path, dt
    raise AssertionError(f"no singular {stage}")


def test_run_reduced_baseline_methods(tmp_path):
    basis_dir = tmp_path / "basis"
    assert _run("build-basis", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--method", "cotangent",
                "--modes", "8", "--out", str(basis_dir)) == 0
    basis_file = basis_dir / "basis_k8.mtx"

    psd_dir = tmp_path / "psd"
    assert _run("run-reduced", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--basis", str(basis_file),
                "--method", "psd", "--out", str(psd_dir)) == 0
    assert (psd_dir / "reduced_report_k8.csv").is_file()
    assert read_snapshots(psd_dir /
                          "reconstructed_k8.mtx").states.shape[0] == 32

    pod_dir = tmp_path / "podbasis"
    assert _run("build-basis", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--method", "pod",
                "--modes", "6", "--out", str(pod_dir)) == 0
    pod_run = tmp_path / "pod"
    assert _run("run-reduced", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--basis",
                str(pod_dir / "basis_k6.mtx"), "--method", "pod",
                "--out", str(pod_run)) == 0
    assert read_snapshots(pod_run /
                          "reconstructed_k6.mtx").states.shape == (32, 101)

    # a plain POD basis is not column-paired; the symplectic path rejects it
    rc = _run("run-reduced", "--benchmark", "wave", "--set", "n=16",
              "--set", "t_final=1.0", "--basis",
              str(pod_dir / "basis_k6.mtx"), "--method", "rdh",
              "--out", str(tmp_path / "bad"))
    assert rc == 2


@pytest.mark.parametrize("method", list(cli._METHODS))
def test_run_reduced_and_compare_share_one_path(tmp_path, method):
    """run-reduced and compare reduce and run a method through its one
    record: the error of run-reduced's reconstruction on a build-basis
    file (cotangent for a paired method, POD otherwise) against the full
    snapshots is compare's err column of that method, to 1e-12."""
    wave = ("--benchmark", "wave", "--set", "n=16", "--set", "t_final=1.0")
    kind = "pod" if cli._METHODS[method].basis == "pod" else "cotangent"
    assert _run_full_small(tmp_path / "full") == 0
    assert _run("build-basis", *wave, "--method", kind, "--modes", "8",
                "--snapshots", str(tmp_path / "full" / "snapshots.mtx"),
                "--out", str(tmp_path / "basis")) == 0
    assert _run("run-reduced", *wave, "--method", method,
                "--basis", str(tmp_path / "basis" / "basis_k8.mtx"),
                "--out", str(tmp_path / "red")) == 0
    assert _run("compare", *wave, "--methods", method, "--modes", "8",
                "--out", str(tmp_path / "cmp")) == 0
    full = read_snapshots(tmp_path / "full" / "snapshots.mtx")
    recon = read_snapshots(tmp_path / "red" / "reconstructed_k8.mtx")
    dx = sm.build_benchmark("wave", sm.make_config(
        "wave", {"n": 16, "t_final": 1.0})).system.dx
    header, errors = read_csv(tmp_path / "cmp" / "errors.csv")
    np.testing.assert_allclose(errors[:, header.index(f"err_{method}_k8")],
                               sm.l2_error(full, recon, dx).per_instant,
                               rtol=1e-12, atol=0.0)


def test_methods_look_up_reduction_and_integration_when_called(monkeypatch,
                                                               tmp_path):
    """Every method record calls the reduction and dynamics functions the
    modules hold at call time, not at import, so a wrapper set on them (as
    perfbench times its spans) sees each call: on a 2-mode-count compare,
    one reduction per cell of each method, one integrate_dissipative and
    one integrate_rk4 run per psd and pod cell, and one integrate run for
    the full model plus one per rdh cell."""
    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("rdh_reduce", "psd_baseline", "pod_baseline"):
        counting(sm.reduction, name)
    for name in ("integrate", "integrate_dissipative", "integrate_rk4"):
        counting(dynamics, name)
    assert _run("compare", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--modes", "4,8",
                "--out", str(tmp_path / "cmp")) == 0
    assert calls == {"rdh_reduce": 2, "psd_baseline": 2, "pod_baseline": 2,
                     "integrate": 3, "integrate_dissipative": 2,
                     "integrate_rk4": 2}


def test_compare_wave_errors_decrease(tmp_path):
    out = tmp_path / "cmp"
    assert _run("compare", "--benchmark", "wave", "--set", "n=100",
                "--methods", "rdh", "--modes", "20,40,60",
                "--out", str(out)) == 0
    manifest = _manifest(out)
    cells = manifest["cells"]
    means = [cells[f"rdh_k{m}"]["mean_error"] for m in (20, 40, 60)]
    assert means[0] > means[1] > means[2]
    for cell in cells.values():
        assert not cell["unstable"]
        assert cell["volterra_max"] <= 1e-10 * (1.0 + cell["kz_max"])
    full = manifest["full_run"]
    assert full["volterra_max"] <= 1e-10 * (1.0 + full["kz_max"])
    header, _ = read_csv(out / "errors.csv")
    assert header == ["t", "err_rdh_k20", "err_rdh_k40", "err_rdh_k60"]
    energy_header, _ = read_csv(out / "energy.csv")
    assert energy_header[:4] == ["t", "H_full", "Estring_full", "Hext_full"]
    for m in (20, 40, 60):
        for col in (f"H_rdh_k{m}", f"Estring_rdh_k{m}", f"Hext_rdh_k{m}"):
            assert col in energy_header


def test_compare_ladder_components(tmp_path, capsys, monkeypatch):
    """The error and component-error columns equal those recomputed from
    run-full's snapshots and run-reduced's lifted trajectory on the same
    basis; compare measures in the basis's coordinates, and calls neither
    ``reduction.reconstruct`` nor ``reduction.l2_error``, both patched to
    raise."""
    config = ("--benchmark", "ladder", "--set", "cells=10",
              "--set", "t_final=5.0")
    out = tmp_path / "ladder"

    def unused(*args, **kwargs):
        raise AssertionError("compare called a single-run helper")

    with monkeypatch.context() as patched:
        patched.setattr("sympmor.reduction.l2_error", unused)
        patched.setattr("sympmor.reduction.reconstruct", unused)
        assert _run("compare", *config, "--methods", "rdh", "--modes", "4",
                    "--out", str(out)) == 0
    header, data = read_csv(out / "component_errors.csv")
    assert header == ["component", "avg_rdh_k4"]
    assert data.shape == (20, 2)
    assert np.isfinite(data).all()

    assert _run("run-full", *config, "--out", str(tmp_path / "full")) == 0
    assert _run("build-basis", *config, "--method", "cotangent",
                "--modes", "4", "--out", str(tmp_path / "basis")) == 0
    assert _run("run-reduced", *config, "--method", "rdh",
                "--basis", str(tmp_path / "basis" / "basis_k4.mtx"),
                "--out", str(tmp_path / "red")) == 0
    full = read_snapshots(tmp_path / "full" / "snapshots.mtx")
    recon = read_snapshots(tmp_path / "red" / "reconstructed_k4.mtx")
    transform = sm.build_benchmark("ladder", sm.make_config(
        "ladder", {"cells": 10, "t_final": 5.0})).transform
    avg = np.abs(transform @ (full.states - recon.states)).mean(axis=1)
    np.testing.assert_allclose(data[:, 1], avg, rtol=1e-12, atol=0.0)
    header, errors = read_csv(out / "errors.csv")
    assert header == ["t", "err_rdh_k4"]
    np.testing.assert_allclose(errors[:, 1],
                               sm.l2_error(full, recon, 1.0).per_instant,
                               rtol=1e-12, atol=0.0)

    rc = _run("compare", "--benchmark", "ladder", "--set", "cells=10",
              "--set", "t_final=5.0", "--basis-method", "greedy",
              "--out", str(tmp_path / "nope"))
    assert rc == 2
    assert "starts at rest" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--benchmark", "wave", "--set", "n=40", "--set", "t_final=1.0"),
    ("--benchmark", "wave", "--set", "n=40", "--set", "t_final=1.0",
     "--basis-method", "greedy"),
    ("--benchmark", "ladder", "--set", "cells=10", "--set", "t_final=5.0"),
], ids=["wave-cotangent", "wave-greedy", "ladder"])
def test_compare_error_splits_into_floor_and_drift(tmp_path, monkeypatch,
                                                   argv):
    """compare measures every cell in reduced coordinates, with
    ``reduction.reconstruct`` patched to raise. At every node the lifted
    error ||x - A y||^2, recomputed through ``reconstruct``, equals the
    floor ||x - A A^T x||^2 plus the drift ||A^T x - y||^2, to 1e-12
    relative or to the split's rounding (see ``split_rounding``), and so
    does the square of the cell's errors.csv column; the manifest's
    floor_max and drift_max are the two parts' maxima over the peak
    reference norm, and the cell's energy.csv column is the energy of the
    lifted states to 1e-12 of its largest. The 4-mode cells take their
    floor from the 8-mode basis's, plus the rows of A^T X outside the
    cell, and the snapshots are projected once per basis, not once per
    cell."""
    out = tmp_path / "cmp"

    def unused(*args, **kwargs):
        raise AssertionError("compare lifted a reduced trajectory")

    projected = []

    def projection(lift, states):
        projected.append(lift.shape)
        return original(lift, states)

    original = cli._projection
    with monkeypatch.context() as patched:
        patched.setattr("sympmor.reduction.reconstruct", unused)
        patched.setattr(cli, "_projection", projection)
        assert _run("compare", *argv, "--modes", "4,8",
                    "--out", str(out)) == 0
    assert len(projected) == 2   # the symplectic basis and POD's
    manifest = _manifest(out)
    name = manifest["benchmark"]
    bench = sm.build_benchmark(name, sm.make_config(name, manifest["config"]))
    full = cli._integrate_full(bench)
    x, dx = full.snapshots.states, bench.system.dx
    x_norms = sm.reduction.weighted_norms(x, dx)
    peak = x_norms.max()
    sym_basis, _, _ = cli._make_basis(manifest["basis_method"],
                                      full.snapshots, 8)
    pod_v, _, _ = cli._make_basis("pod", full.snapshots, 8)
    eps = np.finfo(float).eps

    def split_rounding(lead, err2):
        """The rounding of the split at each node, first order in eps,
        for cells on the basis ``lead`` (N x m; a cell's basis is some of
        its columns).

        With e = x - A y = f + A d, f = x - A A^T x and d = A^T x - y,
        ||e||^2 - ||f||^2 - ||d||^2 = 2 (A^T f) . d + d^T (A^T A - I) d
        and A^T f = (I - A^T A) A^T x, so the first term is at most
        2 eta ||x|| ||e||, eta = ||I - A^T A||_2 (the second is inside
        rtol). Each vector is formed by one product with A or A^T, whose
        rounding is at most gamma_k |A| |v| entrywise, k the length of its
        sums (Higham, Accuracy and Stability of Numerical Algorithms,
        2nd ed., sec. 3.5), so in norm k u sqrt(m) ||v||, u = eps / 2,
        since || |A| ||_2 <= ||A||_F = sqrt(m). Its square gains twice
        its inner product with that rounding: e from A y (k = m, ||y|| <=
        ||x|| + ||e||), f from A (A^T x) (k = m; the rounding of A^T x
        moves f by A times it, orthogonal to f to first order), and d
        from A^T x (k = N). With ||f||, ||d|| <= ||e||, the sum is at most
        eps sqrt(m) (2 m + N) ||x|| ||e||, the ||e||^2 part of ||y||
        inside rtol. So c = 2 eta / eps + sqrt(m) (2 m + N), measured in
        the weighted norms, which scale every term alike. An error below
        1e-15 of the peak norm is rounding too: the greedy basis holds
        z0, so its t = 0 error is."""
        n_rows, m = lead.shape
        eta = np.linalg.norm(np.eye(m) - lead.T @ lead, 2)
        c = 2.0 * eta / eps + np.sqrt(m) * (2 * m + n_rows)
        return (1e-15 * peak) ** 2 + c * eps * x_norms * np.sqrt(err2)

    def assert_close(got, want, rounding):
        np.testing.assert_array_less(np.abs(got - want),
                                     1e-12 * np.abs(want) + rounding)
    header, errors = read_csv(out / "errors.csv")
    energy_header, energies = read_csv(out / "energy.csv")
    assert len(manifest["cells"]) == 6
    for key, cell in manifest["cells"].items():
        method, m = key.split("_k")[0], int(key.split("_k")[1])
        record = cli._METHODS[method]
        mapper = (pod_v[:, :m] if record.basis == "pod"
                  else sym_basis.truncate(m // 2))
        report, lift = record.run(cli._project(bench, mapper, record),
                                  bench.config)
        y = report.snapshots.states
        lifted = sm.reconstruct(lift, report.snapshots).states
        err2 = dx * np.sum((x - lifted) ** 2, axis=0)
        floor2 = dx * np.sum((x - lift @ (lift.T @ x)) ** 2, axis=0)
        drift2 = dx * np.sum((lift.T @ x - y) ** 2, axis=0)
        rounding = split_rounding(
            pod_v if record.basis == "pod" else sym_basis.matrix, err2)
        assert_close(floor2 + drift2, err2, rounding)
        assert_close(errors[:, header.index(f"err_{key}")] ** 2, err2,
                     rounding)
        assert cell["floor_max"] == pytest.approx(
            np.sqrt(floor2.max()) / peak, rel=1e-12)
        assert cell["drift_max"] == pytest.approx(
            np.sqrt(drift2.max()) / peak, rel=1e-12)
        h = bench.system.hamiltonian(lifted)
        np.testing.assert_allclose(
            energies[:, energy_header.index(f"H_{key}")], h, rtol=0.0,
            atol=1e-12 * np.abs(h).max())


def test_default_ladder_compare_manifest(tmp_path):
    """Every cell that ran records its speedup over the full run, every
    Verlet cell the spectral radius of its step map, at most 1 + 1e-9
    here, and every POD cell none; the run has nothing to warn of, and its
    artifacts pass ``check``."""
    out = tmp_path / "ladder"
    assert _run("compare", "--benchmark", "ladder", "--out", str(out)) == 0
    assert _run("check", "--manifest", str(out / "manifest.json")) == 0
    manifest = _manifest(out)
    assert manifest["warnings"] == []
    cells = manifest["cells"]
    assert len(cells) == 9
    for key, cell in cells.items():
        assert cell["speedup"] > 0.0
        assert cell["speedup"] == pytest.approx(
            manifest["full_run"]["wall_seconds"] / cell["wall_seconds"])
        if key.startswith("pod_"):
            assert cell["step_radius"] is None
        else:
            assert 0.0 < cell["step_radius"] <= 1.0 + 1e-9


@pytest.mark.parametrize("family, preset, argv, modes, table", [
    ("sine-gordon", {"n": 20, "t_final": 2.0}, ("--modes", "4"), [4],
     "kinetic.csv"),
    ("ladder", {"cells": 20, "t_final": 20.0}, (), [10, 20, 30],
     "component_errors.csv"),
], ids=["sine-gordon", "ladder"])
def test_a_registry_preset_keeps_its_family_tables(
        tmp_path, monkeypatch, family, preset, argv, modes, table):
    """compare reads no registry name: a preset registered under a name
    of its own writes its family's table, kinetic.csv for a model with a
    potential and component_errors.csv for one with a canonical transform,
    and runs its family's default mode counts."""
    cls, builder, _ = sm.benchmarks._REGISTRY[family]
    monkeypatch.setitem(sm.benchmarks._REGISTRY, f"{family}-preset",
                        (cls, builder, preset))
    out = tmp_path / "preset"
    assert _run("compare", "--benchmark", f"{family}-preset", "--methods",
                "rdh", *argv, "--out", str(out)) == 0
    manifest = _manifest(out)
    assert manifest["benchmark"] == f"{family}-preset"
    assert manifest["modes"] == modes
    assert table in manifest["files"]
    header, data = read_csv(out / table)
    assert header[-1].endswith(f"_rdh_k{modes[-1]}")
    assert np.isfinite(data).all()


def test_compare_sine_gordon_kinetic_table(tmp_path):
    out = tmp_path / "sg"
    assert _run("compare", "--benchmark", "sine-gordon", "--set", "n=20",
                "--set", "t_final=2.0", "--methods", "rdh",
                "--modes", "4", "--out", str(out)) == 0
    header, data = read_csv(out / "kinetic.csv")
    assert header == ["t", "kinetic_full", "kinetic_rdh_k4"]
    assert np.isfinite(data).all()
    assert data[:, 1].max() > 0.0


def test_sine_gordon_kink_error_is_the_reduction_floor(tmp_path):
    """With ``consistent_bc`` the sine-gordon model holds the kink's own
    tails as boundary values, so the largest rdh cell's error is within 2x
    its projection floor, and that floor is the basis's: at n = 100,
    t_final = 10 and 20 modes, 6.4e-4 against an error of 7.6e-4 (the
    default boundary's jump radiates into the momenta and lifts the floor
    to 0.049). Every rdh cell there also keeps its extended energy to
    1e-6 of max |H_full| (``hext_drift`` 3.3e-7 and 2.5e-7 at 10 and 20
    modes), since the closed run starts from the empty memory F = 0."""
    cells = {}
    for consistent in ("true", "false"):
        out = tmp_path / consistent
        assert _run("compare", "--benchmark", "sine-gordon", "--set", "n=100",
                    "--set", "t_final=10", "--set",
                    f"consistent_bc={consistent}", "--methods", "rdh",
                    "--modes", "10,20", "--out", str(out)) == 0
        manifest = _manifest(out)
        assert manifest["config"]["consistent_bc"] is (consistent == "true")
        cells[consistent] = manifest["cells"]
    kink = cells["true"]["rdh_k20"]
    assert kink["floor_max"] <= kink["max_relative"] <= 2 * kink["floor_max"]
    assert cells["false"]["rdh_k20"]["floor_max"] > 10 * kink["floor_max"]
    assert all(cell["hext_drift"] <= 1e-6 for cell in cells["true"].values())


SG_SMALL = ("--benchmark", "sine-gordon", "--set", "n=40",
            "--set", "t_final=4")


def _rejected(capsys, out, message):
    """One ``error:`` line holding ``message``, and nothing under ``out``."""
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0], errors
    assert not out.exists()


@pytest.mark.parametrize("methods", ["rdh", "psd", "rdh,psd,pod"])
def test_compare_rejects_a_nonlinear_model_on_a_mixing_basis(
        tmp_path, capsys, monkeypatch, methods):
    """A greedy basis mixes q and p, and rdh and psd reduce the sine-Gordon
    potential only onto a basis that keeps them apart: a compare with an
    rdh or psd cell on a greedy basis exits 2 before the full model is
    integrated, and writes nothing."""
    def integrate(*args, **kwargs):
        raise AssertionError("the full model was integrated")

    monkeypatch.setattr("sympmor.dynamics.integrate", integrate)
    out = tmp_path / "greedy"
    assert _run("compare", *SG_SMALL, "--modes", "4", "--methods", methods,
                "--basis-method", "greedy", "--out", str(out)) == 2
    _rejected(capsys, out, "a greedy basis mixes q and p")


WAVE_SMALL = ("--benchmark", "wave", "--set", "n=16", "--set", "t_final=1.0")


@pytest.mark.parametrize("argv, recorded", [
    ((*WAVE_SMALL, "--methods", "pod"), None),
    ((*WAVE_SMALL, "--methods", "pod", "--basis-method", "greedy"), None),
    ((*WAVE_SMALL, "--methods", "psd"), "cotangent"),
    ((*WAVE_SMALL, "--methods", "rdh,pod", "--basis-method", "greedy"),
     "greedy"),
    ((*SG_SMALL, "--methods", "pod", "--basis-method", "greedy"), None),
], ids=["pod", "pod-greedy", "psd", "rdh-greedy", "sine-gordon-pod-greedy"])
def test_compare_records_the_basis_method_of_its_symplectic_cells(
        tmp_path, argv, recorded):
    """The manifest's basis_method names the generator of the basis the
    rdh and psd cells reduce onto, and is null when no such cell runs; a
    POD-only compare builds no symplectic basis, so a greedy
    --basis-method has nothing to reject on sine-Gordon either."""
    out = tmp_path / "cmp"
    assert _run("compare", *argv, "--modes", "4", "--out", str(out)) == 0
    assert _manifest(out)["basis_method"] == recorded


@pytest.mark.parametrize("argv", [
    (*SG_SMALL, "--modes", "4,8"),
    (*WAVE_SMALL, "--modes", "4,8", "--basis-method", "greedy"),
], ids=["sine-gordon-cotangent", "wave-greedy"])
def test_compare_without_a_momentum_dependent_gradient(tmp_path, argv):
    """A cotangent basis keeps q and p apart, and the wave model has no
    nonlinear gradient: both compares run every rdh and psd cell, with
    nothing to warn of."""
    out = tmp_path / "quiet"
    assert _run("compare", *argv, "--methods", "rdh,psd",
                "--out", str(out)) == 0
    manifest = _manifest(out)
    assert manifest["warnings"] == []
    assert sorted(manifest["cells"]) == ["psd_k4", "psd_k8", "rdh_k4",
                                         "rdh_k8"]
    assert not any(cell["unstable"] for cell in manifest["cells"].values())


@pytest.mark.parametrize("argv", [
    ("run-reduced", "--method", "psd"),
    ("run-reduced", "--method", "rdh"),
    ("reduce",),
], ids=["run-reduced-psd", "run-reduced-rdh", "reduce"])
def test_single_runs_reject_a_nonlinear_model_on_a_mixing_basis(
        tmp_path, capsys, argv):
    """run-reduced and reduce on a greedy basis of sine-Gordon exit 2 with
    the reduction's error, and write nothing."""
    basis = tmp_path / "basis"
    assert _run("build-basis", *SG_SMALL, "--method", "greedy",
                "--modes", "4", "--out", str(basis)) == 0
    capsys.readouterr()
    out = tmp_path / "reduced"
    assert _run(*argv, *SG_SMALL, "--basis", str(basis / "basis_k4.mtx"),
                "--out", str(out)) == 2
    _rejected(capsys, out, "the 4-column basis mixes q and p")


def test_compare_records_the_rdh_extended_energy_drift(tmp_path):
    """Each rdh cell's hext_drift is max |H_ext - H_ext(0)| / max |H_full|
    of the energy table's columns."""
    out = tmp_path / "ladder"
    assert _run("compare", "--benchmark", "ladder", "--set", "cells=10",
                "--set", "t_final=5.0", "--modes", "4,8",
                "--out", str(out)) == 0
    header, data = read_csv(out / "energy.csv")
    scale = np.abs(data[:, header.index("H_full")]).max()
    cells = _manifest(out)["cells"]
    for key, cell in cells.items():
        if not key.startswith("rdh_"):
            assert "hext_drift" not in cell
            continue
        hext = data[:, header.index(f"Hext_{key}")]
        want = np.abs(hext - hext[0]).max() / scale
        assert cell["hext_drift"] == pytest.approx(want, rel=1e-12)


def test_compare_unknown_method(tmp_path, capsys):
    """An unknown, a missing or a repeated method, and an odd mode count
    of a POD-only compare, exit 2 with one error line and no --out
    directory."""
    rc = _run("compare", "--benchmark", "wave", "--set", "n=16",
              "--methods", "rdh,foo", "--out", str(tmp_path / "x"))
    assert rc == 2
    assert "unknown methods" in capsys.readouterr().err
    rc = _run("compare", "--benchmark", "wave", "--set", "n=16",
              "--methods", ",", "--out", str(tmp_path / "x"))
    assert rc == 2
    assert "names no method" in capsys.readouterr().err
    rc = _run("compare", "--benchmark", "wave", "--set", "n=16",
              "--methods", "rdh,psd,rdh", "--out", str(tmp_path / "x"))
    assert rc == 2
    assert capsys.readouterr().err == "error: --methods repeats rdh\n"
    rc = _run("compare", "--benchmark", "wave", "--set", "n=16",
              "--methods", "pod", "--modes", "5", "--out", str(tmp_path / "x"))
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: compare requires even mode counts, got [5]\n")
    assert not (tmp_path / "x").exists()


def test_compare_flags_blown_up_cells(tmp_path):
    """Reduced cells that leave floating point range are recorded as
    unstable with the step of the failure, not raised out of compare, and
    write an all-NaN column for every column of their method. Both record
    the spectral radius of their step map, about 2.111, and are warned
    of."""
    out = tmp_path / "blow"
    rc = _run("compare", "--benchmark", "wave-lowdiss",
              "--basis-method", "greedy", "--set", "n=100",
              "--modes", "50", "--methods", "rdh,psd", "--out", str(out))
    assert rc == 0
    assert _run("check", "--manifest", str(out / "manifest.json")) == 0
    manifest = _manifest(out)
    cells = manifest["cells"]
    for key in ("rdh_k50", "psd_k50"):
        assert cells[key]["unstable"] is True
        step = cells[key]["failure_step"]
        assert isinstance(step, int) and step >= 1
        assert cells[key]["step_radius"] == pytest.approx(2.111, abs=1e-3)
    warned = [w.split(":")[0] for w in manifest["warnings"]
              if "step_radius" in w]
    assert warned == ["rdh_k50", "psd_k50"]
    header, data = read_csv(out / "errors.csv")
    assert header == ["t", "err_rdh_k50", "err_psd_k50"]
    assert np.isnan(data[:, 1:]).all()
    header, data = read_csv(out / "energy.csv")
    assert header == ["t", "H_full", "Estring_full", "Hext_full",
                      "H_rdh_k50", "Estring_rdh_k50", "Hext_rdh_k50",
                      "H_psd_k50"]
    assert np.isfinite(data[:, :4]).all()
    assert np.isnan(data[:, 4:]).all()


def test_compare_cell_flags_an_overflowing_lifted_energy_without_warning():
    """A POD cell whose RK4 state stays finite while its lifted energy and
    error leave floating point range: at dt = 1.0 the wave n = 16 POD k8
    model does so from about node 155, its state only past node 300. The
    cell is flagged unstable, and computing it warns of nothing."""
    stable = sm.build_benchmark("wave", sm.make_config("wave", {"n": 16}))
    full = sm.integrate(stable.system, dt=stable.config.dt,
                        t_final=stable.config.t_final)
    v, _ = sm.pod_basis(full.snapshots, 8)
    config = sm.make_config("wave", {"n": 16, "dt": 1.0, "t_final": 250.0})
    bench = sm.build_benchmark("wave", config)
    # a hand-built reference on the cell's snapshot grid: z0 and its energy
    # at every node, seen through the cell's basis
    times = np.arange(0.0, config.t_final + 0.5, config.snapshot_stride)
    states = np.repeat(bench.system.z0[:, None], times.size, axis=1)
    energy = np.full(int(config.t_final / config.dt) + 1,
                     bench.system.hamiltonian(bench.system.z0))
    full = SimpleNamespace(snapshots=sm.SnapshotSet(times, states),
                           hamiltonian=energy, wall_seconds=1.0)
    reference = cli._Reference.of(bench, full, {"pod": v})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cell, columns = cli._compare_cell(bench, "pod", v, reference,
                                          bench.dissipative_model(), {})
    assert cell["unstable"] is True
    assert cell["energy_growth"] is True
    assert np.isfinite(columns["H"][0]) and not np.isfinite(columns["H"]).all()


def test_deterministic_artifacts(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run_full_small(a) == 0
    assert _run_full_small(b) == 0
    for name in ("full_report.csv", "snapshots.mtx", "snapshots_times.mtx"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert _manifest(a)["files"] == _manifest(b)["files"]

    c, d = tmp_path / "c", tmp_path / "d"
    for out in (c, d):
        assert _run("compare", "--benchmark", "wave", "--set", "n=16",
                    "--set", "t_final=1.0", "--methods", "rdh,psd",
                    "--modes", "4,8", "--out", str(out)) == 0
    assert (c / "errors.csv").read_bytes() == (d / "errors.csv").read_bytes()
    assert (c / "energy.csv").read_bytes() == (d / "energy.csv").read_bytes()


def test_stepped_closed_run_full_is_deterministic(tmp_path):
    """A stepped closed run-full (wave n = 140, a 420-column map, wider
    than _MAP_DIM) made twice in one process writes byte-identical
    reports and snapshots: its einsum reductions of the per-node series
    do not depend on where the run's buffers happen to lie."""
    assert 3 * 140 > dynamics._MAP_DIM
    runs = tmp_path / "a", tmp_path / "b"
    for out in runs:
        assert _run("run-full", "--benchmark", "wave", "--set", "n=140",
                    "--set", "t_final=2", "--out", str(out)) == 0
    for name in ("full_report.csv", "snapshots.mtx", "snapshots_times.mtx"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_check_command(tmp_path, capsys):
    out = tmp_path / "full"
    assert _run_full_small(out) == 0
    assert _run("check", "--manifest", str(out / "manifest.json")) == 0
    assert "verified" in capsys.readouterr().out

    data = (out / "snapshots.mtx").read_bytes()
    (out / "snapshots.mtx").write_bytes(data[:-2] + b"9\n")
    assert _run("check", "--manifest", str(out / "manifest.json")) == 2
    assert "FAIL" in capsys.readouterr().out

    assert _run("check", "--manifest", str(tmp_path / "absent.json")) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("not json", "not valid JSON"),
    ("[1, 2]", "must hold a JSON object"),
    ('{"files": {"a.mtx": 3}}', "'a.mtx' is not an object"),
], ids=["not-json", "json-list", "entry-not-object"])
def test_check_malformed_manifest_exits_2(tmp_path, capsys, text, message):
    (tmp_path / "a.mtx").write_text("present\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    assert _run("check", "--manifest", str(manifest)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]


def test_missing_snapshot_times_file_is_named(tmp_path, capsys):
    full = tmp_path / "full"
    assert _run_full_small(full) == 0
    (full / "snapshots_times.mtx").unlink()
    assert _run("build-basis", "--benchmark", "wave", "--set", "n=16",
                "--snapshots", str(full / "snapshots.mtx"), "--modes", "4",
                "--out", str(tmp_path / "basis")) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: input file not found: "
                   f"{full / 'snapshots_times.mtx'}"]


def test_a_config_file_or_the_chi_alias_is_rejected(tmp_path, capsys):
    """A run is configured by --benchmark and --set alone: --config is no
    option (argparse exits 2) and chi is no config key; neither writes an
    output directory."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"benchmark": "wave", "n": 16,
                               "t_final": 0.5}))
    out = tmp_path / "out"
    assert _run("run-full", "--benchmark", "wave", "--config", str(cfg),
                "--set", "n=20", "--out", str(out)) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()
    assert _run("run-full", "--benchmark", "wave", "--set", "n=16",
                "--set", "chi=0", "--out", str(out)) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert not out.exists()


def test_resolve_config_of_a_parsed_command_line(tmp_path):
    """The call perfbench makes: the benchmark's defaults with each --set
    applied."""
    name, config = cli.resolve_config(cli.build_parser().parse_args(
        ["compare", "--benchmark", "wave", "--set", "c2=0.09",
         "--out", str(tmp_path)]))
    assert name == "wave"
    assert isinstance(config, sm.WaveConfig)
    assert config.c2 == 0.09


def test_configuration_errors(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert _run("run-full", "--out", out) == 2
    assert ("the following arguments are required: --benchmark"
            in capsys.readouterr().err)
    assert _run("run-full", "--benchmark", "wave", "--set", "n",
                "--out", out) == 2
    assert "key=value" in capsys.readouterr().err
    assert _run("run-full", "--benchmark", "wave", "--set", "m=3",
                "--out", out) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert _run("run-full", "--benchmark", "wave", "--set", "n=2",
                "--out", out) == 2
    # the default greedy basis normalizes the initial state; the ladder's
    # is zero
    assert _run("build-basis", "--benchmark", "ladder", "--set", "cells=4",
                "--set", "t_final=0.1", "--out", out) == 2
    assert "first snapshot is zero" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_bases(tmp_path_factory):
    """Cotangent and POD bases (4 modes) of a 20-dimensional wave, two
    malformed basis files (one of an odd row count and one without
    columns), three 100-row bases that are not orthonormal (a paired
    basis scaled by 3, a sheared pair with lead columns e and e + e', and
    a POD basis scaled by 3), a paired basis with a NaN entry, a POD basis
    of 5 columns, an orthonormal basis whose columns are not paired, and
    three snapshot files that do not fit a 100-row state
    (20-row states, a NaN entry, and a times file one entry short), a text
    file that is not MatrixMarket, an orthonormal POD basis written in
    MatrixMarket's coordinate (sparse) format, and a 2 x 1 array, and a
    snapshot file with real times, of MatrixMarket's complex field."""
    root = tmp_path_factory.mktemp("bases")
    for method in ("cotangent", "pod"):
        assert _run("build-basis", "--benchmark", "wave", "--set", "n=10",
                    "--set", "t_final=0.5", "--method", method,
                    "--modes", "4", "--out", str(root / method)) == 0
    write_matrix(root / "odd_rows.mtx", np.eye(101)[:, :4])
    write_matrix(root / "no_columns.mtx", np.zeros((100, 0)))
    e = np.eye(100)[:, :2]
    write_matrix(root / "scaled.mtx",
                 3.0 * sm.OrthoSymplecticBasis(e).matrix)
    sheared = np.column_stack([e[:, 0], e[:, 0] + e[:, 1]])
    write_matrix(root / "sheared.mtx",
                 sm.OrthoSymplecticBasis(sheared).matrix)
    write_matrix(root / "pod_scaled.mtx", 3.0 * np.eye(100)[:, :4])
    non_finite = sm.OrthoSymplecticBasis(e).matrix
    non_finite[0, 0] = np.nan
    write_matrix(root / "non_finite.mtx", non_finite)
    write_matrix(root / "pod_odd.mtx", np.eye(100)[:, :5])
    write_matrix(root / "unpaired.mtx", np.eye(100)[:, :4])
    states = np.eye(100)[:, :3]
    write_snapshots(sm.SnapshotSet(np.arange(3.0), states[:20]),
                    root / "snaps_dim20.mtx")
    states[1, 1] = np.nan
    write_snapshots(sm.SnapshotSet(np.arange(3.0), states),
                    root / "snaps_nan.mtx")
    write_matrix(root / "snaps_short.mtx", np.eye(100)[:, :3])
    write_matrix(root / "snaps_short_times.mtx", np.arange(2.0))
    (root / "not_mtx.mtx").write_text("0.5 0.5\n")
    scipy.io.mmwrite(root / "sparse.mtx",
                     scipy.sparse.coo_matrix(np.eye(100)[:, :4]))
    complex_array = ("%%MatrixMarket matrix array complex general\n"
                     "2 1\n1.0 2.0\n3.0 -1.0\n")
    (root / "complex.mtx").write_text(complex_array)
    (root / "snaps_complex.mtx").write_text(complex_array)
    write_matrix(root / "snaps_complex_times.mtx", np.arange(1.0))
    return root


@pytest.mark.parametrize("argv, message", [
    (("run-reduced", "--method", "rdh", "--basis", "cotangent/basis_k4.mtx"),
     "does not match"),
    (("run-reduced", "--method", "psd", "--basis", "cotangent/basis_k4.mtx"),
     "does not match"),
    (("run-reduced", "--method", "pod", "--basis", "pod/basis_k4.mtx"),
     "does not match"),
    (("reduce", "--basis", "cotangent/basis_k4.mtx"), "does not match"),
    (("reduce", "--basis", "missing.mtx"), "not found"),
    (("run-reduced", "--basis", "missing.mtx"), "not found"),
    (("build-basis", "--snapshots", "missing.mtx"), "not found"),
    (("reduce", "--basis", "odd_rows.mtx"), "even number of rows"),
    (("run-reduced", "--method", "psd", "--basis", "odd_rows.mtx"),
     "even number of rows"),
    (("reduce", "--basis", "no_columns.mtx"), "positive even number"),
    (("run-reduced", "--method", "rdh", "--basis", "no_columns.mtx"),
     "positive even number"),
    (("reduce", "--basis", "scaled.mtx"), "not orthonormal"),
    (("reduce", "--basis", "sheared.mtx"), "not orthonormal"),
    (("run-reduced", "--method", "rdh", "--basis", "scaled.mtx"),
     "not orthonormal"),
    (("run-reduced", "--method", "rdh", "--basis", "sheared.mtx"),
     "not orthonormal"),
    (("run-reduced", "--method", "psd", "--basis", "scaled.mtx"),
     "not orthonormal"),
    (("run-reduced", "--method", "psd", "--basis", "sheared.mtx"),
     "not orthonormal"),
    (("run-reduced", "--method", "pod", "--basis", "pod_scaled.mtx"),
     "POD basis not orthonormal"),
    (("run-reduced", "--method", "pod", "--basis", "no_columns.mtx"),
     "at least one column"),
    (("reduce", "--basis", "unpaired.mtx"), "columns are not paired"),
    (("reduce", "--basis", "non_finite.mtx"), "non-finite"),
    (("run-reduced", "--method", "pod", "--basis", "non_finite.mtx"),
     "non-finite"),
    (("run-reduced", "--method", "pod", "--basis", "pod_odd.mtx"),
     "even column count"),
    (("build-basis", "--snapshots", "snaps_dim20.mtx"),
     "states of dimension 20, but wave has state dimension 100"),
    (("build-basis", "--method", "greedy", "--snapshots", "snaps_nan.mtx"),
     "non-finite"),
    (("build-basis", "--snapshots", "snaps_short.mtx"),
     "3 states vs 2 times"),
    (("reduce", "--basis", "not_mtx.mtx"), "not_mtx.mtx: "),
    (("run-reduced", "--method", "pod", "--basis", "sparse.mtx"),
     "coordinate (sparse) MatrixMarket format"),
    (("reduce", "--basis", "complex.mtx"), "complex MatrixMarket field"),
    (("build-basis", "--snapshots", "snaps_complex.mtx"),
     "complex MatrixMarket field"),
], ids=["run-reduced-rdh-dim", "run-reduced-psd-dim", "run-reduced-pod-dim",
        "reduce-dim", "reduce-missing", "run-reduced-missing",
        "build-basis-missing", "reduce-odd-rows", "run-reduced-odd-rows",
        "reduce-no-columns", "run-reduced-no-columns", "reduce-scaled",
        "reduce-sheared", "run-reduced-rdh-scaled", "run-reduced-rdh-sheared",
        "run-reduced-psd-scaled", "run-reduced-psd-sheared",
        "run-reduced-pod-scaled", "run-reduced-pod-no-columns",
        "reduce-unpaired", "reduce-non-finite", "run-reduced-pod-non-finite",
        "run-reduced-pod-odd-columns", "build-basis-snapshot-dim",
        "build-basis-snapshot-non-finite", "build-basis-snapshot-times",
        "reduce-not-matrix-market", "run-reduced-pod-coordinate-format",
        "reduce-complex-field", "build-basis-snapshot-complex-field"])
def test_input_file_mistakes_exit_2(tmp_path, capsys, small_bases, argv,
                                    message):
    """A basis of the wrong dimension or shape, a basis that is not
    orthonormal (paired or POD), not paired or not finite, a snapshot file
    that does not fit the benchmark, a missing input file, and one that is
    not a dense real MatrixMarket array are configuration errors: exit 2 with
    one ``error:`` line, which names the file at most once."""
    argv = [str(small_bases / a) if a.endswith(".mtx") else a for a in argv]
    rc = _run(*argv, "--benchmark", "wave", "--set", "n=50",
              "--set", "t_final=0.5", "--out", str(tmp_path / "x"))
    assert rc == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and message in errors[0]
    assert errors[0].count(str(small_bases)) <= 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ("compare", "--basis-method", "greedy"),
    ("build-basis", "--modes", "2"),
], ids=["compare", "build-basis"])
def test_greedy_basis_of_a_run_at_rest_exits_before_integrating(
        tmp_path, capsys, monkeypatch, argv):
    """The ladder starts at rest, and a greedy basis normalizes the first
    snapshot: the command is rejected before the full model is
    integrated."""
    def integrate(*args, **kwargs):
        raise AssertionError("the full model was integrated")

    monkeypatch.setattr("sympmor.dynamics.integrate", integrate)
    out = tmp_path / "x"
    assert _run(*argv, "--benchmark", "ladder", "--set", "cells=4",
                "--out", str(out)) == 2
    assert "error: first snapshot is zero" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("compare", "--methods", "pod"),
    ("compare", "--methods", "rdh"),
    ("build-basis", "--method", "pod", "--modes", "2"),
    ("build-basis", "--method", "cotangent", "--modes", "2"),
], ids=["compare-pod", "compare-cotangent", "build-basis-pod",
        "build-basis-cotangent"])
def test_rank_zero_snapshots_exit_2(tmp_path, capsys, argv):
    """The ladder starts at rest, so a run of length zero leaves only zero
    snapshots: an SVD basis of them is a configuration error."""
    out = tmp_path / "x"
    assert _run(*argv, "--benchmark", "ladder", "--set", "cells=4",
                "--set", "t_final=0", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "error: snapshot set has rank zero" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("compare", "--methods", "rdh", "--basis-method", "greedy",
     "--modes", "4"),
    ("compare", "--methods", "rdh", "--modes", "4"),
    ("compare", "--methods", "pod", "--modes", "2"),
    ("build-basis", "--method", "greedy", "--modes", "4"),
    ("build-basis", "--method", "cotangent", "--modes", "4"),
    ("build-basis", "--method", "pod", "--modes", "2"),
], ids=["compare-greedy", "compare-cotangent", "compare-pod",
        "build-basis-greedy", "build-basis-cotangent", "build-basis-pod"])
def test_modes_past_the_snapshot_rank_exit_2(tmp_path, capsys, argv):
    """A run of length zero leaves one snapshot, of rank 1 (the wave starts
    at rest in p, so its stacked q/p block has rank 1 too): a request past
    that rank is one ``error:`` line naming it, with no warning."""
    out = tmp_path / "x"
    assert _run(*argv, "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=0", "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: requested 2 ")
    assert "rank 1" in err[0]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_ladder_pod_past_its_snapshot_rank_exit_2(tmp_path, capsys):
    """A 5 s ladder run leaves 501 snapshots of 100 states, a wide block
    (the SVD helper's R-SVD route) of numerical rank 17: the default 30 POD
    modes are one ``error:`` line naming that rank."""
    out = tmp_path / "x"
    assert _run("compare", "--benchmark", "ladder", "--set", "t_final=5",
                "--methods", "pod", "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: requested 30 POD modes but the snapshots have rank 17\n")
    assert not out.exists()


def test_build_basis_rejects_odd_pod_modes(tmp_path, capsys):
    """A POD basis of odd width cannot be run (its reduced state would be
    odd), so build-basis rejects it before it integrates."""
    out = tmp_path / "x"
    assert _run("build-basis", "--benchmark", "wave", "--set", "n=16",
                "--method", "pod", "--modes", "4,5", "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: pod basis requires even mode counts, got [5]\n")
    assert not out.exists()


@pytest.mark.parametrize("name, setting, message", [
    ("wave", "snapshot_stride=0", "snapshot_stride must be at least 1"),
    ("wave", "n=10.5", "n must be an integer, got 10.5"),
    ("ladder", "cells=2.5", "cells must be an integer, got 2.5"),
    ("wave", "dt=nan", "dt must be a number, got 'nan'"),
    ("wave", "dt=NaN", "dt must be finite, got nan"),
    ("wave", "length=0", "length must be positive"),
    ("sine-gordon", "length=-5", "length must be positive"),
    ("wave", "dt=5e-324", "t_final / dt is not a finite step count"),
    ("wave", "t_final=1e300",
     "the snapshots of 5e+302 steps cannot be allocated"),
])
def test_config_field_errors(tmp_path, capsys, name, setting, message):
    out = tmp_path / "x"
    assert _run("run-full", "--benchmark", name, "--set", setting,
                "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name, settings, message", [
    ("wave", ("n=16", "c2=1e308"), "wave stiffness has a non-finite entry"),
    ("ladder", ("cells=2", "capacitance=1e-320"), "K has a non-finite entry"),
    # K and chi are finite, the baselines' stiffness K^T K is not
    ("ladder", ("cells=2", "capacitance=8e-155", "inductance=8e-155"),
     "ladder stiffness has a non-finite entry"),
], ids=["wave-c2", "ladder-capacitance", "ladder-stiffness"])
def test_a_config_value_that_overflows_an_operator_exits_2(
        tmp_path, capsys, name, settings, message):
    """A finite config value whose operator overflows exits 2 with one
    stderr line naming the non-finite entry, and warns of nothing."""
    sets = [arg for setting in settings for arg in ("--set", setting)]
    out = tmp_path / "x"
    assert _run("run-full", "--benchmark", name, *sets,
                "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, argv, integrates", [
    ("run-full", (), True),
    ("build-basis", ("--method", "cotangent", "--modes", "4"), True),
    ("reduce", ("--basis", "cotangent/basis_k4.mtx"), False),
    ("run-reduced", ("--basis", "cotangent/basis_k4.mtx"), True),
    ("compare", ("--methods", "rdh", "--modes", "4"), True),
], ids=["run-full", "build-basis", "reduce", "run-reduced", "compare"])
def test_every_manifest_records_its_run(tmp_path, small_bases, command, argv,
                                        integrates):
    """Every command's manifest names the command, the benchmark, its
    config, the seed and the warnings; a t_final off the step grid is
    warned of by each command that integrates. Each records the wall
    seconds of its stages."""
    argv = [str(small_bases / a) if a.endswith(".mtx") else a for a in argv]
    out = tmp_path / command
    assert _run(command, *argv, "--benchmark", "wave", "--set", "n=10",
                "--set", "t_final=0.503", "--seed", "7",
                "--out", str(out)) == 0
    manifest = _manifest(out)
    assert manifest["command"] == command
    assert manifest["benchmark"] == "wave"
    assert manifest["config"] == dataclasses.asdict(
        sm.make_config("wave", {"n": 10, "t_final": 0.503}))
    assert manifest["seed"] == 7
    if integrates:
        assert manifest["warnings"][0].startswith(
            "t_final 0.503 is not a whole number of steps")
    else:
        assert manifest["warnings"] == []
    stages = {"build-basis": {"snapshots", "basis", "write"},
              "compare": {"full_solve", "basis", "reduce", "integrate",
                          "measure", "write"},
              "reduce": {"reduce", "integrate", "write"},
              "run-full": {"full_solve", "write"},
              "run-reduced": {"reduce", "integrate", "write"}}
    assert set(manifest["stages"]) == stages[command]
    assert all(v >= 0.0 for v in manifest["stages"].values())


def test_lowdiss_structured_and_symplectic_agree(tmp_path):
    full = tmp_path / "full"
    assert _run("run-full", "--benchmark", "wave-lowdiss", "--set", "n=100",
                "--out", str(full)) == 0
    basis_dir = tmp_path / "basis"
    assert _run("build-basis", "--benchmark", "wave-lowdiss", "--set",
                "n=100", "--method", "cotangent", "--modes", "40",
                "--snapshots", str(full / "snapshots.mtx"),
                "--out", str(basis_dir)) == 0
    basis_file = basis_dir / "basis_k40.mtx"
    runs = {}
    for method in ("rdh", "psd"):
        out = tmp_path / method
        assert _run("run-reduced", "--benchmark", "wave-lowdiss", "--set",
                    "n=100", "--basis", str(basis_file), "--method", method,
                    "--out", str(out)) == 0
        runs[method] = read_snapshots(out / "reconstructed_k40.mtx")
    reference = read_snapshots(full / "snapshots.mtx")
    err_rdh = sm.l2_error(reference, runs["rdh"], 0.01).mean_weighted
    err_psd = sm.l2_error(reference, runs["psd"], 0.01).mean_weighted
    mutual = sm.l2_error(runs["rdh"], runs["psd"], 0.01).mean_weighted
    floor = 0.01 * min(err_rdh, err_psd)
    assert abs(err_rdh - err_psd) <= floor
    assert mutual <= floor


def _assert_script_run(command, tmp_path, env=None):
    out = tmp_path / "script"
    proc = subprocess.run(
        [*command, "run-full", "--benchmark", "wave", "--set", "n=16",
         "--set", "t_final=0.2", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "run-full wave" in proc.stdout
    assert (out / "manifest.json").is_file()


@pytest.mark.skipif(shutil.which("sympmor") is None,
                    reason="the sympmor console script is not installed")
def test_console_script_runs(tmp_path):
    _assert_script_run(["sympmor"], tmp_path)


def test_declared_entry_point_runs_without_install(tmp_path):
    """The entry point declared in pyproject.toml runs the way the
    generated ``sympmor`` wrapper runs it, from a checkout without an
    install."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, func = scripts["sympmor"].split(":")
    package_root = str(Path(sm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    _assert_script_run([sys.executable, "-c", wrapper], tmp_path, env=env)
