"""Command-line harness.

Subcommands build benchmark systems, integrate full and reduced models,
generate reduction bases, compare methods across mode counts, and verify
emitted artifacts. All outputs are deterministic for a fixed configuration:
CSV tables with 17-significant-digit floats, MatrixMarket arrays, and a JSON
manifest with SHA-256 hashes of every artifact.

Exit codes: 0 success, 2 configuration errors, 3 numerical failure
(non-finite state during integration).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmarks, dynamics, reduction, storage
from .dynamics import NonFiniteError
from .symplectic import (OrthoSymplecticBasis, cotangent_lift, greedy_basis,
                         pod_basis)

SYMPLECTIC_METHODS = ("greedy", "cotangent")


class ConfigError(Exception):
    """Invalid configuration or arguments; maps to exit code 2."""


# -- configuration plumbing ---------------------------------------------------


def _parse_set_item(item: str):
    key, sep, raw = item.partition("=")
    if not sep:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    key = key.strip()
    if key == "chi":
        # convenience alias: scales the susceptibility ("chi=0" disables it)
        key = "chi_scale"
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def resolve_config(args):
    """Benchmark name and config from defaults, --config file and --set."""
    name = getattr(args, "benchmark", None)
    overrides = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") \
                from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        file_bench = data.pop("benchmark", None)
        if file_bench is not None:
            if name is not None and name != file_bench:
                raise ConfigError(
                    f"--benchmark {name} conflicts with config file "
                    f"benchmark {file_bench}"
                )
            name = file_bench
        overrides.update(data)
    for item in getattr(args, "set", None) or []:
        key, value = _parse_set_item(item)
        overrides[key] = value
    if name is None:
        raise ConfigError("no benchmark selected (--benchmark or config file)")
    try:
        config = benchmarks.make_config(name, overrides)
        config.validate()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    return name, config


def _build(name, config) -> benchmarks.Benchmark:
    try:
        return benchmarks.build_benchmark(name, config)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _parse_modes(text: str | None, default: list[int]) -> list[int]:
    if text is None:
        return list(default)
    try:
        modes = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"mode list must be integers, got {text!r}") from None
    if not modes or any(m < 1 for m in modes):
        raise ConfigError(f"mode counts must be positive, got {text!r}")
    return sorted(set(modes))


def _require_even(modes, what: str):
    odd = [m for m in modes if m % 2]
    if odd:
        raise ConfigError(f"{what} requires even mode counts, got {odd}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_dict(config) -> dict:
    return dataclasses.asdict(config)


def _basis_from_file(path) -> OrthoSymplecticBasis:
    """Load a paired basis written by build-basis and check the pairing."""
    a = storage.read_matrix(path)
    if a.ndim != 2 or a.shape[1] % 2:
        raise ConfigError(f"{path}: expected an even number of basis columns")
    basis = OrthoSymplecticBasis(a[:, : a.shape[1] // 2])
    if np.abs(basis.matrix - a).max() > 1e-12:
        raise ConfigError(
            f"{path}: columns are not paired (column k+i must be J^T "
            f"applied to column i)"
        )
    return basis


# -- subcommands --------------------------------------------------------------


def _grid(config) -> dict:
    """Time-grid keywords of every run of one configuration."""
    return {"dt": config.dt, "t_final": config.t_final,
            "snapshot_stride": config.snapshot_stride}


def _integrate_full(bench, config):
    return dynamics.integrate(bench.system, **_grid(config))


def cmd_run_full(args) -> int:
    name, config = resolve_config(args)
    out = _out_dir(args)
    bench = _build(name, config)
    report = _integrate_full(bench, config)
    files = [storage.write_report_csv(report, out / "full_report.csv")]
    files += storage.write_snapshots(report.snapshots, out / "snapshots.mtx")
    manifest = storage.build_manifest(
        "run-full", name, _config_dict(config), files, out,
        extra={
            "seed": args.seed,
            "n_steps": report.n_steps,
            "volterra_max": report.volterra_max,
            "kz_max": report.kz_max,
            "wall_seconds": report.wall_seconds,
        },
    )
    storage.write_manifest(manifest, out / "manifest.json")
    print(f"run-full {name}: {report.n_steps} steps, "
          f"H {report.hamiltonian[0]:.6g} -> {report.hamiltonian[-1]:.6g}, "
          f"max |residual| {report.volterra_max:.3e} -> {out}")
    return 0


def _collect_snapshots(args, bench, config):
    """Snapshots for basis generation: from file, or a fresh full run."""
    if getattr(args, "snapshots", None):
        return storage.read_snapshots(Path(args.snapshots), dx=bench.system.dx)
    return _integrate_full(bench, config).snapshots


def _make_symplectic_basis(method: str, snapshots, max_pairs: int):
    """Basis plus the per-mode diagnostic values (greedy errors or singular
    values)."""
    if method == "greedy":
        result = greedy_basis(snapshots, max_pairs)
        if result.basis.k < max_pairs:
            raise ConfigError(
                f"greedy produced only {result.basis.k} pairs out of "
                f"{max_pairs}; the snapshot set is too degenerate"
            )
        return result.basis, result.worst_errors, {"selected": result.selected}
    if method == "cotangent":
        basis, sv = cotangent_lift(snapshots, max_pairs)
        if basis.k < max_pairs:
            raise ConfigError(
                f"snapshot rank supports only {basis.k} cotangent pairs "
                f"out of {max_pairs}"
            )
        return basis, sv, {}
    raise ConfigError(f"unknown symplectic basis method {method!r}")


def cmd_build_basis(args) -> int:
    name, config = resolve_config(args)
    out = _out_dir(args)
    method = args.method
    modes = _parse_modes(args.modes, [20, 40, 60])
    bench = _build(name, config)
    snapshots = _collect_snapshots(args, bench, config)

    files = []
    info: dict = {"method": method, "modes": modes}
    if method in SYMPLECTIC_METHODS:
        _require_even(modes, f"{method} basis")
        basis, values, extra_info = _make_symplectic_basis(
            method, snapshots, max(modes) // 2)
        info.update(extra_info)
        checks = {}
        for m in modes:
            sub = basis.truncate(m // 2)
            sub.validate(tol=1e-10)
            checks[str(m)] = "pass"
            files.append(storage.write_matrix(out / f"basis_k{m}.mtx",
                                              sub.matrix))
        info["invariant_check"] = checks
        value_kind = ("greedy_worst_error" if method == "greedy"
                      else "stacked_singular_value")
    else:
        v, values = pod_basis(snapshots, max(modes))
        if v.shape[1] < max(modes):
            raise ConfigError(
                f"snapshot rank supports only {v.shape[1]} modes "
                f"out of {max(modes)}"
            )
        for m in modes:
            files.append(storage.write_matrix(out / f"basis_k{m}.mtx",
                                              v[:, :m]))
        value_kind = "singular_value"
    info["values_kind"] = value_kind
    files.append(storage.write_csv(
        out / "singular_values.csv",
        ["index", "value"],
        [np.arange(len(values)), np.asarray(values)],
    ))
    manifest = storage.build_manifest(
        "build-basis", name, _config_dict(config), files, out,
        extra={"seed": args.seed, "basis": info},
    )
    storage.write_manifest(manifest, out / "manifest.json")
    print(f"build-basis {name} [{method}]: modes {modes} -> {out}")
    return 0


def cmd_reduce(args) -> int:
    name, config = resolve_config(args)
    out = _out_dir(args)
    bench = _build(name, config)
    basis = _basis_from_file(args.basis)
    m = basis.n_columns
    try:
        red = reduction.rdh_reduce(bench.system, basis)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ConfigError(f"reduction failed: {exc}") from None
    files = [
        storage.write_matrix(out / f"reduced_K_k{m}.mtx", red.system.K),
        storage.write_matrix(out / f"reduced_chi_k{m}.mtx", red.system.chi),
        storage.write_matrix(out / f"reduced_z0_k{m}.mtx", red.system.z0),
    ]
    if red.system.input_vector is not None:
        files.append(storage.write_matrix(out / f"reduced_input_k{m}.mtx",
                                          red.system.input_vector))
    if red.system.boundary_vector is not None:
        files.append(storage.write_matrix(out / f"reduced_boundary_k{m}.mtx",
                                          red.system.boundary_vector))
    manifest = storage.build_manifest(
        "reduce", name, _config_dict(config), files, out,
        extra={"seed": args.seed,
               "reduction": {"modes": m}},
    )
    storage.write_manifest(manifest, out / "manifest.json")
    print(f"reduce {name}: {m} modes -> {out}")
    return 0


def _project(bench, mapper, method: str, model=None):
    """Reduced model of one method: a ReducedTdd for rdh, else a baseline
    projected from ``model`` (the benchmark's dissipative model when None)."""
    if method == "rdh":
        return reduction.rdh_reduce(bench.system, mapper)
    if method not in ("psd", "pod"):
        raise ConfigError(f"unknown reduction method {method!r}")
    if model is None:
        model = bench.dissipative_model()
    if method == "psd":
        return reduction.psd_baseline(model, mapper)
    return reduction.pod_baseline(model, mapper)


def _run_reduced(reduced, config, mapper, method: str):
    """Integrate one projected model; returns (report, lift)."""
    grid = _grid(config)
    if method == "rdh":
        return dynamics.integrate(reduced.system, **grid), mapper
    if method == "psd":
        return dynamics.integrate_dissipative(reduced.model, **grid), mapper
    return dynamics.integrate_rk4(reduced.rhs, reduced.y0, **grid), reduced.v


def cmd_run_reduced(args) -> int:
    name, config = resolve_config(args)
    out = _out_dir(args)
    bench = _build(name, config)
    if args.method == "pod":
        mapper = storage.read_matrix(args.basis)
        m = mapper.shape[1]
    else:
        mapper = _basis_from_file(args.basis)
        m = mapper.n_columns
    reduced = _project(bench, mapper, args.method)
    report, lift = _run_reduced(reduced, config, mapper, args.method)
    recon = reduction.reconstruct(lift, report.snapshots, dx=bench.system.dx)
    files = [storage.write_report_csv(report, out / f"reduced_report_k{m}.csv")]
    files += storage.write_snapshots(recon, out / f"reconstructed_k{m}.mtx")
    manifest = storage.build_manifest(
        "run-reduced", name, _config_dict(config), files, out,
        extra={"seed": args.seed,
               "reduced_run": {"method": args.method, "modes": m,
                               "wall_seconds": report.wall_seconds}},
    )
    storage.write_manifest(manifest, out / "manifest.json")
    print(f"run-reduced {name} [{args.method}, {m} modes]: "
          f"{report.n_steps} steps -> {out}")
    return 0


# -- compare ------------------------------------------------------------------


def _energy_series(hamiltonian, snapshots):
    return np.array([hamiltonian(snapshots.states[:, i])
                     for i in range(snapshots.count)])


def _on_snapshot_grid(series, report):
    """Subsample a per-step series onto the report's snapshot instants."""
    idx = np.rint(report.snapshots.times / report.dt).astype(int)
    return np.asarray(series)[idx]


def _lifted_kinetic(mapper, derivatives, n_full: int, dx: float):
    v = (mapper.lift(derivatives) if isinstance(mapper, OrthoSymplecticBasis)
         else mapper @ derivatives)[:n_full]
    return 0.5 * dx * np.sum(v * v, axis=0)


def _compare_cell(bench, config, method, basis_or_v, reference,
                  ref_energy, model):
    """One (method, mode-count) comparison cell.

    Every cell is measured against the one full closed-formulation run.
    A cell is flagged unstable when its trajectory leaves floating point
    range (blow-up) or its energy error shows sustained terminal growth;
    the spectral abscissa of the baseline generators is recorded as an
    additional diagnostic.
    """
    n_full = bench.system.n
    dx = bench.system.dx
    cell: dict = {"unstable": False}
    reduced = _project(bench, basis_or_v, method, model)
    if method != "rdh":   # the linear generator of a baseline model
        cell["abscissa"] = reduction.spectral_abscissa(
            reduced.model.linear_operator() if method == "psd"
            else reduced.matrix)
    m = reference.snapshots.count
    try:
        report, lift = _run_reduced(reduced, config, basis_or_v, method)
    except NonFiniteError as exc:
        cell["unstable"] = True
        cell["failure_step"] = exc.step
        for key in ("errors", "energy", "kinetic"):
            cell[key] = np.full(m, np.nan)
        cell["max_error"] = cell["mean_error"] = cell["energy_error"] = \
            float("inf")
        return cell
    recon = reduction.reconstruct(lift, report.snapshots, dx=dx)
    err = reduction.l2_error(reference.snapshots, recon)
    energy = _energy_series(bench.system.hamiltonian, recon)
    cell["errors"] = err.per_instant
    cell["max_error"] = err.max_weighted
    cell["mean_error"] = err.mean_weighted
    cell["max_relative"] = err.max_relative
    cell["mean_relative"] = err.mean_relative
    cell["energy"] = energy
    scale = max(float(np.abs(ref_energy).max()), 1e-300)
    cell["energy_error"] = float(np.abs(energy - ref_energy).mean()) / scale
    cell["energy_growth"] = reduction.terminal_growth(
        np.abs(energy - ref_energy))
    if cell["energy_growth"]:
        cell["unstable"] = True
    if method == "rdh":
        cell["string_energy"] = _on_snapshot_grid(report.string_energy,
                                                  report)
        cell["extended_energy"] = _on_snapshot_grid(report.extended_energy,
                                                    report)
    cell["kinetic"] = _lifted_kinetic(lift, report.derivatives, n_full, dx)
    cell["volterra_max"] = report.volterra_max
    cell["kz_max"] = report.kz_max
    cell["wall_seconds"] = report.wall_seconds
    cell["reconstructed"] = recon
    return cell


def cmd_compare(args) -> int:
    name, config = resolve_config(args)
    out = _out_dir(args)
    methods = [m.strip() for m in (args.methods or "rdh,psd,pod").split(",")
               if m.strip()]
    unknown = [m for m in methods if m not in ("rdh", "psd", "pod")]
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; valid: rdh, psd, pod")
    default_modes = [10, 20, 30] if name == "ladder" else [20, 40, 60]
    modes = _parse_modes(args.modes, default_modes)
    _require_even(modes, "symplectic reduction")
    basis_method = args.basis_method or "cotangent"
    # the greedy sweep normalizes the initial state; a rest start has none
    if basis_method == "greedy" and name == "ladder":
        raise ConfigError("the ladder starts at rest; use --basis-method "
                          "cotangent")
    bench = _build(name, config)

    full = _integrate_full(bench, config)
    sym_basis = None
    if "rdh" in methods or "psd" in methods:
        sym_basis, _, _ = _make_symplectic_basis(
            basis_method, full.snapshots, max(modes) // 2)
    pod_v = None
    if "pod" in methods:
        pod_v, _ = pod_basis(full.snapshots, max(modes))
        if pod_v.shape[1] < max(modes):
            raise ConfigError(
                f"snapshot rank supports only {pod_v.shape[1]} modes")

    ref_energy = _energy_series(bench.system.hamiltonian, full.snapshots)
    cells = [(method, m) for method in methods for m in modes]
    # the baselines all project one dissipative model
    model = (bench.dissipative_model()
             if "psd" in methods or "pod" in methods else None)

    by_cell = {}
    for method, m in cells:
        mapper = pod_v[:, :m] if method == "pod" else sym_basis.truncate(m // 2)
        by_cell[(method, m)] = _compare_cell(bench, config, method, mapper,
                                             full, ref_energy, model)

    times = full.snapshots.times
    files = []

    headers = ["t"]
    columns = [times]
    for (method, m) in cells:
        headers.append(f"err_{method}_k{m}")
        columns.append(by_cell[(method, m)]["errors"])
    files.append(storage.write_csv(out / "errors.csv", headers, columns))

    headers = ["t", "H_full", "Estring_full", "Hext_full"]
    columns = [times, ref_energy,
               _on_snapshot_grid(full.string_energy, full),
               _on_snapshot_grid(full.extended_energy, full)]
    for (method, m) in cells:
        cell = by_cell[(method, m)]
        headers.append(f"H_{method}_k{m}")
        columns.append(cell["energy"])
        if "string_energy" in cell:
            headers += [f"Estring_{method}_k{m}", f"Hext_{method}_k{m}"]
            columns += [cell["string_energy"], cell["extended_energy"]]
    files.append(storage.write_csv(out / "energy.csv", headers, columns))

    if name == "sine-gordon":
        headers = ["t", "kinetic_full"]
        columns = [times, full.kinetic_series()]
        for (method, m) in cells:
            headers.append(f"kinetic_{method}_k{m}")
            columns.append(by_cell[(method, m)]["kinetic"])
        files.append(storage.write_csv(out / "kinetic.csv", headers, columns))

    if name == "ladder":
        # time-averaged error per physical component (interleaved
        # charge/flux coordinates recovered through the transform)
        t_mat = bench.extras["transform"]
        headers = ["component"]
        columns = [np.arange(bench.system.dim)]
        for (method, m) in cells:
            cell = by_cell[(method, m)]
            if cell["unstable"] and "reconstructed" not in cell:
                comp = np.full(bench.system.dim, np.nan)
            else:
                diff = t_mat @ (full.snapshots.states
                                - cell["reconstructed"].states)
                comp = np.abs(diff).mean(axis=1)
            headers.append(f"avg_{method}_k{m}")
            columns.append(comp)
        files.append(storage.write_csv(out / "component_errors.csv",
                                       headers, columns))

    summary = {}
    for (method, m), cell in by_cell.items():
        summary[f"{method}_k{m}"] = {
            k: cell[k] for k in
            ("unstable", "energy_growth", "abscissa", "max_error",
             "mean_error", "max_relative", "mean_relative", "energy_error",
             "failure_step", "volterra_max", "kz_max", "wall_seconds")
            if k in cell
        }
    manifest = storage.build_manifest(
        "compare", name, _config_dict(config), files, out,
        extra={
            "seed": args.seed,
            "methods": methods,
            "modes": modes,
            "basis_method": basis_method,
            "cells": summary,
            "full_run": {
                "wall_seconds": full.wall_seconds,
                "volterra_max": full.volterra_max,
                "kz_max": full.kz_max,
            },
        },
    )
    storage.write_manifest(manifest, out / "manifest.json")
    flagged = [f"{m}_k{k}" for (m, k) in cells if by_cell[(m, k)]["unstable"]]
    note = f", unstable: {', '.join(flagged)}" if flagged else ""
    print(f"compare {name}: {len(cells)} cells ({', '.join(methods)}; "
          f"modes {modes}){note} -> {out}")
    return 0


def cmd_check(args) -> int:
    path = Path(args.manifest)
    if not path.is_file():
        raise ConfigError(f"manifest not found: {path}")
    problems = storage.verify_manifest(path)
    manifest = json.loads(path.read_text())
    n_files = len(manifest.get("files", {}))
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        print(f"check: {len(problems)} of {n_files} artifacts failed")
        return 2
    print(f"check: all {n_files} artifacts verified")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympmor",
        description="Structure-preserving model order reduction benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--benchmark", choices=benchmarks.benchmark_names(),
                        help="benchmark system to build")
    common.add_argument("--config", metavar="PATH.json",
                        help="JSON file with config overrides "
                             "(may include a 'benchmark' key)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="config override; repeatable ('chi=0' disables "
                             "the susceptibility)")
    common.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default: %(default)s)")
    common.add_argument("--seed", type=int, default=0,
                        help="recorded in the manifest; the pipeline itself "
                             "is deterministic")

    p = sub.add_parser("run-full", parents=[common],
                       help="integrate the full model, write report, "
                            "snapshots and manifest")
    p.set_defaults(func=cmd_run_full)

    p = sub.add_parser("build-basis", parents=[common],
                       help="build reduction bases from snapshots")
    p.add_argument("--method", choices=["greedy", "cotangent", "pod"],
                   default="greedy")
    p.add_argument("--modes", metavar="LIST",
                   help="comma-separated mode counts (default 20,40,60)")
    p.add_argument("--snapshots", metavar="PATH.mtx",
                   help="reuse snapshots from a previous run-full instead of "
                        "integrating")
    p.set_defaults(func=cmd_build_basis)

    p = sub.add_parser("reduce", parents=[common],
                       help="project the model onto a basis and write the "
                            "reduced operators")
    p.add_argument("--basis", required=True, metavar="PATH.mtx")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("run-reduced", parents=[common],
                       help="integrate a reduced model and write the "
                            "reconstructed trajectory")
    p.add_argument("--basis", required=True, metavar="PATH.mtx")
    p.add_argument("--method", choices=["rdh", "psd", "pod"], default="rdh")
    p.set_defaults(func=cmd_run_reduced)

    p = sub.add_parser("compare", parents=[common],
                       help="run full and reduced models across methods and "
                            "mode counts; write error/energy tables")
    p.add_argument("--methods", metavar="LIST",
                   help="subset of rdh,psd,pod (default all)")
    p.add_argument("--modes", metavar="LIST",
                   help="comma-separated mode counts "
                        "(default 20,40,60; ladder 10,20,30)")
    p.add_argument("--basis-method", choices=["greedy", "cotangent"],
                   help="symplectic basis generator (default cotangent)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check", help="verify artifact hashes in a manifest")
    p.add_argument("--manifest", required=True, metavar="PATH.json")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
