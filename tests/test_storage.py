"""Artifact persistence: exact round trips and manifest verification."""

import numpy as np
import pytest

import sympmor as sm
from sympmor import SnapshotSet, storage
from sympmor.storage import (build_manifest, read_matrix, read_snapshots,
                             read_vector, sha256_file, verify_manifest,
                             write_csv, write_manifest, write_matrix,
                             write_report_csv, write_snapshots)

from conftest import build_oscillator, read_csv


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3))
    path = write_matrix(tmp_path / "a.mtx", a)
    assert np.array_equal(read_matrix(path), a)
    first = path.read_text().splitlines()[0]
    assert first.startswith("%%MatrixMarket")

    v = rng.standard_normal(7)
    vpath = write_matrix(tmp_path / "v.mtx", v)
    assert read_matrix(vpath).shape == (7, 1)
    assert np.array_equal(read_vector(vpath), v)


def test_read_vector_rejects_matrix(tmp_path):
    path = write_matrix(tmp_path / "m.mtx", np.eye(3))
    with pytest.raises(ValueError, match="vector"):
        read_vector(path)


def test_snapshots_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    snaps = SnapshotSet(times=np.linspace(0.0, 1.0, 4),
                        states=rng.standard_normal((6, 4)))
    paths = write_snapshots(snaps, tmp_path / "states.mtx")
    assert [p.name for p in paths] == ["states.mtx", "states_times.mtx"]
    back = read_snapshots(tmp_path / "states.mtx")
    assert np.array_equal(back.states, snaps.states)
    assert np.array_equal(back.times, snaps.times)


def test_write_csv_and_read_back(tmp_path):
    header = ["a", "b"]
    cols = [np.arange(4.0), np.array([0.1, -2.5e-17, 3e300, -0.0])]
    path = write_csv(tmp_path / "t.csv", header, cols)
    names, data = read_csv(path)
    assert names == header
    assert np.array_equal(data[:, 0], cols[0])
    assert np.array_equal(data[:, 1], cols[1])

    empty = write_csv(tmp_path / "e.csv", ["x"], [np.zeros(0)])
    names, data = read_csv(empty)
    assert names == ["x"]
    assert data.shape == (0, 1)

    with pytest.raises(ValueError, match="names for"):
        write_csv(tmp_path / "bad.csv", ["a"], cols)
    with pytest.raises(ValueError, match="lengths differ"):
        write_csv(tmp_path / "bad.csv", header, [np.zeros(3), np.zeros(2)])


def _savetxt_bytes(path, header, columns):
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    return path.read_bytes()


@pytest.mark.parametrize("rows", [0, 1, 7, 2 * storage._CSV_CHUNK + 3])
def test_write_csv_bytes_are_savetxt_bytes(tmp_path, rows):
    """The chunked writer gives np.savetxt's bytes, special values, an int
    column, an empty table and chunk boundaries included."""
    rng = np.random.default_rng(rows)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                        -1.7976931348623157e308])
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    floats[: special.size] = special[: rows]
    cols = [np.arange(rows), floats, np.resize(special, rows)]
    header = ["i", "x", "s"]
    want = _savetxt_bytes(tmp_path / "want.csv", header, cols)
    assert write_csv(tmp_path / "t.csv", header, cols).read_bytes() == want
    ints = [np.arange(rows) - 3]
    want = _savetxt_bytes(tmp_path / "want_int.csv", ["i"], ints)
    assert write_csv(tmp_path / "i.csv", ["i"], ints).read_bytes() == want


def test_format_float_round_trips(tmp_path):
    values = np.array([np.pi, 1.0 / 3.0, 1e-300, -0.0, 12345.6789,
                       2.0 ** -52])
    _, data = read_csv(write_csv(tmp_path / "floats.csv", ["v"], [values]))
    np.testing.assert_array_equal(data[:, 0], values)
    assert np.signbit(data[3, 0])


def test_report_csv_header_and_values(tmp_path):
    bench = build_oscillator()
    report = sm.integrate(bench.system, dt=0.1, n_steps=5)
    path = write_report_csv(report, tmp_path / "report.csv")
    names, data = read_csv(path)
    assert names == ["t", "H", "E_string", "H_ext", "passivity_residual"]
    assert data.shape == (6, 5)
    assert np.array_equal(data[:, 0], report.times)
    assert np.array_equal(data[:, 1], report.hamiltonian)
    assert np.array_equal(data[:, 2], report.string_energy)
    assert np.array_equal(data[:, 3], report.extended_energy)
    assert np.array_equal(data[:, 4], report.passivity_residual)


def test_manifest_cycle(tmp_path):
    a = write_matrix(tmp_path / "a.mtx", np.eye(2))
    b = write_csv(tmp_path / "sub" / "b.csv", ["x"], [np.arange(3.0)])
    manifest = build_manifest("run-full", "wave", {"n": 2}, [a, b], tmp_path,
                              extra={"seed": 7})
    assert manifest["schema"] == "sympmor-manifest/1"
    assert manifest["seed"] == 7
    assert sorted(manifest["files"]) == ["a.mtx", "sub/b.csv"]
    entry = manifest["files"]["a.mtx"]
    assert entry["bytes"] == a.stat().st_size
    assert entry["sha256"] == sha256_file(a)

    mpath = write_manifest(manifest, tmp_path / "manifest.json")
    assert verify_manifest(mpath) == (2, [])

    # same length, different bytes: the digest must catch it
    text = b.read_text()
    b.write_text(text.replace("0", "5", 1))
    assert verify_manifest(mpath) == (2, ["sub/b.csv: sha256 mismatch"])
    b.write_text(text + "extra\n")
    assert any("size" in p for p in verify_manifest(mpath)[1])
    a.unlink()
    assert "a.mtx: missing" in verify_manifest(mpath)[1]

    bare = write_manifest({"schema": "sympmor-manifest/1"},
                          tmp_path / "bare.json")
    assert verify_manifest(bare) == (0, [f"{bare}: no file table in manifest"])


def test_writes_are_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 2))
    p1 = write_matrix(tmp_path / "m1.mtx", a)
    p2 = write_matrix(tmp_path / "m2.mtx", a)
    assert p1.read_bytes() == p2.read_bytes()

    m1 = build_manifest("cmd", "wave", {"n": 8}, [p1], tmp_path)
    m2 = build_manifest("cmd", "wave", {"n": 8}, [p1], tmp_path)
    w1 = write_manifest(m1, tmp_path / "man1.json")
    w2 = write_manifest(m2, tmp_path / "man2.json")
    assert w1.read_bytes() == w2.read_bytes()
