"""End-to-end checks of the command-line harness and its artifacts."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sympmor as sm
from sympmor.cli import main
from sympmor.storage import (read_csv, read_matrix, read_snapshots,
                             read_vector, verify_manifest, write_snapshots)


def _run(*argv):
    return main(list(argv))


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
    assert verify_manifest(out / "manifest.json") == []
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


def test_run_full_chi_alias_disables_dissipation(tmp_path):
    out = tmp_path / "cons"
    assert _run("run-full", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--set", "chi=0",
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

    with pytest.warns(UserWarning):
        rc = _run("build-basis", "--benchmark", "wave", "--set", "n=16",
                  "--method", "greedy", "--modes", "4",
                  "--snapshots", str(tmp_path / "snaps.mtx"),
                  "--out", str(tmp_path / "basis4"))
    assert rc == 2


def test_build_basis_cotangent_outputs(tmp_path):
    out = tmp_path / "basis"
    assert _run("build-basis", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=0.5", "--method", "cotangent",
                "--modes", "4,8", "--out", str(out)) == 0
    assert verify_manifest(out / "manifest.json") == []
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


def test_build_basis_rejects_bad_mode_lists(tmp_path, capsys):
    base = ("build-basis", "--benchmark", "wave", "--set", "n=16",
            "--set", "t_final=0.1", "--out", str(tmp_path / "x"))
    assert _run(*base, "--modes", "3") == 2
    assert "even mode counts" in capsys.readouterr().err
    assert _run(*base, "--modes", "0") == 2
    assert _run(*base, "--modes", "a,b") == 2


def test_reduce_and_run_reduced_roundtrip(tmp_path):
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

    run_dir = tmp_path / "run"
    assert _run("run-reduced", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--basis", str(basis_file),
                "--method", "rdh", "--out", str(run_dir)) == 0
    assert verify_manifest(run_dir / "manifest.json") == []
    header, data = read_csv(run_dir / "reduced_report_k8.csv")
    hext = data[:, 3]
    assert np.abs(hext - hext[0]).max() <= 1e-3 * abs(hext[0])
    recon = read_snapshots(run_dir / "reconstructed_k8.mtx", dx=1.0 / 16)
    full_snaps = read_snapshots(full / "snapshots.mtx", dx=1.0 / 16)
    err = sm.l2_error(full_snaps, recon)
    assert err.max_relative < 1.0


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


def test_compare_duplicate_method_is_zero_difference(tmp_path):
    out = tmp_path / "dup"
    assert _run("compare", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=1.0", "--methods", "rdh,rdh",
                "--modes", "8", "--out", str(out)) == 0
    header, data = read_csv(out / "errors.csv")
    assert header == ["t", "err_rdh_k8", "err_rdh_k8"]
    assert np.array_equal(data[:, 1], data[:, 2])


def test_compare_ladder_components(tmp_path, capsys):
    out = tmp_path / "ladder"
    assert _run("compare", "--benchmark", "ladder", "--set", "cells=10",
                "--set", "t_final=5.0", "--methods", "rdh",
                "--modes", "4", "--out", str(out)) == 0
    header, data = read_csv(out / "component_errors.csv")
    assert header == ["component", "avg_rdh_k4"]
    assert data.shape == (20, 2)
    assert np.isfinite(data).all()

    rc = _run("compare", "--benchmark", "ladder", "--set", "cells=10",
              "--set", "t_final=5.0", "--basis-method", "greedy",
              "--out", str(tmp_path / "nope"))
    assert rc == 2
    assert "starts at rest" in capsys.readouterr().err


def test_compare_sine_gordon_kinetic_table(tmp_path):
    out = tmp_path / "sg"
    assert _run("compare", "--benchmark", "sine-gordon", "--set", "n=20",
                "--set", "t_final=2.0", "--methods", "rdh",
                "--modes", "4", "--out", str(out)) == 0
    header, data = read_csv(out / "kinetic.csv")
    assert header == ["t", "kinetic_full", "kinetic_rdh_k4"]
    assert np.isfinite(data).all()
    assert data[:, 1].max() > 0.0


def test_compare_unknown_method(tmp_path, capsys):
    rc = _run("compare", "--benchmark", "wave", "--set", "n=16",
              "--methods", "rdh,foo", "--out", str(tmp_path / "x"))
    assert rc == 2
    assert "unknown methods" in capsys.readouterr().err


def test_compare_flags_blown_up_cells(tmp_path):
    """Reduced cells that leave floating point range are recorded as
    unstable with the step of the failure, not raised out of compare."""
    out = tmp_path / "blow"
    rc = _run("compare", "--benchmark", "wave-lowdiss",
              "--basis-method", "greedy", "--set", "n=100",
              "--modes", "50", "--methods", "rdh,psd", "--out", str(out))
    assert rc == 0
    assert _run("check", "--manifest", str(out / "manifest.json")) == 0
    cells = _manifest(out)["cells"]
    for key in ("rdh_k50", "psd_k50"):
        assert cells[key]["unstable"] is True
        step = cells[key]["failure_step"]
        assert isinstance(step, int) and step >= 1


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


def test_config_file_and_set_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"benchmark": "wave", "n": 16,
                               "t_final": 0.5}))
    out = tmp_path / "out"
    assert _run("run-full", "--config", str(cfg), "--set", "n=20",
                "--out", str(out)) == 0
    manifest = _manifest(out)
    assert manifest["benchmark"] == "wave"
    assert manifest["config"]["n"] == 20
    assert manifest["config"]["t_final"] == 0.5


def test_configuration_errors(tmp_path, capsys):
    out = str(tmp_path / "x")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"benchmark": "wave", "n": 16}))
    assert _run("run-full", "--benchmark", "ladder", "--config", str(cfg),
                "--out", out) == 2
    assert "conflicts" in capsys.readouterr().err
    assert _run("run-full", "--config", str(tmp_path / "nope.json"),
                "--out", out) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run("run-full", "--config", str(bad), "--out", out) == 2
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert _run("run-full", "--config", str(listy), "--out", out) == 2
    assert _run("run-full", "--out", out) == 2
    assert "no benchmark selected" in capsys.readouterr().err
    assert _run("run-full", "--benchmark", "wave", "--set", "n",
                "--out", out) == 2
    assert "key=value" in capsys.readouterr().err
    assert _run("run-full", "--benchmark", "wave", "--set", "m=3",
                "--out", out) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert _run("run-full", "--benchmark", "wave", "--set", "n=2",
                "--out", out) == 2


@pytest.mark.parametrize("name, setting, message", [
    ("wave", "snapshot_stride=0", "snapshot_stride must be at least 1"),
    ("wave", "n=10.5", "n must be an integer, got 10.5"),
    ("ladder", "cells=2.5", "cells must be an integer, got 2.5"),
    ("wave", "dt=nan", "dt must be a number, got 'nan'"),
    ("wave", "dt=NaN", "dt must be finite, got nan"),
])
def test_config_field_errors(tmp_path, capsys, name, setting, message):
    assert _run("run-full", "--benchmark", name, "--set", setting,
                "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err


def test_seed_is_recorded(tmp_path):
    out = tmp_path / "seeded"
    assert _run("compare", "--benchmark", "wave", "--set", "n=16",
                "--set", "t_final=0.5", "--methods", "rdh", "--modes", "4",
                "--seed", "7", "--out", str(out)) == 0
    assert _manifest(out)["seed"] == 7


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
        runs[method] = read_snapshots(out / "reconstructed_k40.mtx",
                                      dx=0.01)
    reference = read_snapshots(full / "snapshots.mtx", dx=0.01)
    err_rdh = sm.l2_error(reference, runs["rdh"]).mean_weighted
    err_psd = sm.l2_error(reference, runs["psd"]).mean_weighted
    mutual = sm.l2_error(runs["rdh"], runs["psd"]).mean_weighted
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
