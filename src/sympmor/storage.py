"""Deterministic persistence: MatrixMarket arrays, CSV tables, manifests.

All floats carry 17 significant digits so that written artifacts are
byte-identical across runs with identical configuration; data files carry no
timestamps (wall-clock timings live in the manifest only).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.io

from .symplectic import SnapshotSet

FLOAT_FMT = "%.17g"


def write_matrix(path, array) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    a = np.asarray(array, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    scipy.io.mmwrite(path, a, precision=17)
    return path


def read_matrix(path) -> np.ndarray:
    try:
        m = scipy.io.mmread(Path(path))
    except FileNotFoundError as exc:
        # newer scipy mmread names the missing file in its message only
        if exc.filename is None:
            exc.filename = str(path)
        raise
    if not isinstance(m, np.ndarray):
        raise ValueError("coordinate (sparse) MatrixMarket format; expected "
                         "a dense array")
    if np.iscomplexobj(m):
        raise ValueError("complex MatrixMarket field; expected a real array")
    return np.asarray(m, dtype=float)


def read_vector(path) -> np.ndarray:
    m = read_matrix(path)
    if 1 not in m.shape and m.size != 0:
        raise ValueError(f"{path} does not hold a vector, shape {m.shape}")
    return m.reshape(-1)


def _times_path(states_path: Path) -> Path:
    return states_path.with_name(states_path.stem + "_times.mtx")


def write_snapshots(snapshots: SnapshotSet, path) -> list[Path]:
    """Snapshot states to ``path`` and the time grid to a companion file."""
    path = Path(path)
    write_matrix(path, snapshots.states)
    write_matrix(_times_path(path), snapshots.times)
    return [path, _times_path(path)]


def read_snapshots(path) -> SnapshotSet:
    path = Path(path)
    return SnapshotSet(times=read_vector(_times_path(path)),
                       states=read_matrix(path))


# rows of a CSV table formatted by one ``%`` and written at a time; few
# enough that a chunk's Python floats and text stay small next to the
# table (4096 rows of a 31-column table held 9 MB of them and ran slower)
_CSV_CHUNK = 64


def write_csv(path, header, columns) -> Path:
    """Comma-separated table; one column per array, 17 significant digits.
    The bytes are those of ``np.savetxt`` with the same format, but the
    rows are formatted _CSV_CHUNK at a time, one ``%`` per chunk."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} names for {len(columns)} columns")
    rows = {c.shape[0] for c in columns}
    if len(rows) > 1:
        raise ValueError(f"column lengths differ: {sorted(rows)}")
    table = np.column_stack(columns)
    row = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
    names = ",".join(header)
    with open(path, "w") as fh:
        if names:
            fh.write(names + "\n")
        for start in range(0, len(table), _CSV_CHUNK):
            chunk = table[start: start + _CSV_CHUNK]
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))
    return path


def write_report_csv(report, path) -> Path:
    return write_csv(
        path,
        ["t", "H", "E_string", "H_ext", "passivity_residual"],
        [report.times, report.hamiltonian, report.string_energy,
         report.extended_energy, report.passivity_residual],
    )


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, benchmark: str, config: dict,
                   files, base_dir, extra: dict | None = None) -> dict:
    """Manifest over artifact files: relative name -> size and sha256."""
    base_dir = Path(base_dir)
    entries = {}
    for f in files:
        f = Path(f)
        rel = f.relative_to(base_dir).as_posix()
        entries[rel] = {"bytes": f.stat().st_size, "sha256": sha256_file(f)}
    manifest = {
        "schema": "sympmor-manifest/1",
        "command": command,
        "benchmark": benchmark,
        "config": config,
        "files": entries,
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(manifest: dict, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def verify_manifest(path) -> tuple[int, list[str]]:
    """Check every file hash recorded in a manifest.

    Returns the number of files the manifest lists and the problems found;
    no problems means all good. Raises ``ValueError`` when the manifest is
    not a JSON object or a file entry is not an object.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path} must hold a JSON object")
    files = manifest.get("files")
    if not isinstance(files, dict):
        return 0, [f"{path}: no file table in manifest"]
    problems = []
    for rel, entry in sorted(files.items()):
        if not isinstance(entry, dict):
            raise ValueError(f"manifest {path}: entry {rel!r} is not an object")
        target = path.parent / rel
        if not target.is_file():
            problems.append(f"{rel}: missing")
            continue
        if target.stat().st_size != entry.get("bytes"):
            problems.append(f"{rel}: size {target.stat().st_size} != "
                            f"{entry.get('bytes')}")
            continue
        digest = sha256_file(target)
        if digest != entry.get("sha256"):
            problems.append(f"{rel}: sha256 mismatch")
    return len(files), problems
