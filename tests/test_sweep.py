import csv
import errno
import json
import os
import warnings

import numpy as np
import pytest

from tiltedbh import SweepConfig, run_chaos_map, run_cut
from tiltedbh import spectrum
from tiltedbh.config import ALLOWED_DIAGNOSTICS, ConfigError, load_config
from tiltedbh.sweep import (
    RESULT_COLUMNS,
    _entry_key,
    _worker_pool,
    cached_diagonalize,
    exit_code_for,
    run_point,
)
from tiltedbh import FockBasis, ModelParams, build, diagonalize, mean_gap_ratio


BASE = {
    "system_sizes": [[3, 3]],
    "u_values": [0.5],
    "d_values": [0.5, 2.0],
    "diagnostics": ["gap_ratio"],
    "seed": 5,
}


def _config(**overrides):
    raw = dict(BASE)
    raw.update(overrides)
    return SweepConfig.from_dict(raw)


def test_defaults_are_filled():
    config = _config()
    assert config.workers == 1
    assert config.edge_discard == 0.1
    assert config.survival_sample_count == 200
    assert config.hole_window == [20.0, 1000.0]


def test_validation_errors_carry_field_paths():
    with pytest.raises(ConfigError, match="u_values"):
        _config(u_values=[0.5, -1.0])
    with pytest.raises(ConfigError, match="diagnostics"):
        _config(diagnostics=["spin"])
    with pytest.raises(ConfigError, match="diagnostics"):
        _config(diagnostics=[])
    with pytest.raises(ConfigError, match="system_sizes"):
        _config(system_sizes=[[0, 3]])
    with pytest.raises(ConfigError, match="unknown"):
        _config(banana=3)
    with pytest.raises(ConfigError, match="smoothing_window"):
        _config(smoothing_window=4)
    with pytest.raises(ConfigError, match="required"):
        SweepConfig.from_dict({"system_sizes": [[3, 3]]})


def test_echoed_config_revalidates_to_itself(tmp_path):
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(BASE))
    config = SweepConfig.from_dict(load_config(cfg_file))
    config.echo(tmp_path / "out")
    echoed = tmp_path / "out" / "config_normalized.json"
    assert echoed.exists()
    again = SweepConfig.from_dict({
        k: v for k, v in json.loads(echoed.read_text()).items()
        if k not in ("config_hash", "version")
    })
    assert again == config
    assert again.config_hash == config.config_hash


def test_chaos_map_records_and_determinism(tmp_path):
    config = _config()
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    records = run_chaos_map(config, out1)
    assert len(records) == 2
    assert all(r["status"] == "ok" for r in records)
    for rec in records:
        assert rec["chaos_distance"] == pytest.approx(abs(rec["mean_r"] - 0.535))
        assert rec["dim"] == 10
    run_chaos_map(config, out2)
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    lines = (out1 / "results.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[3].split(",")[0] == "n_bosons"
    assert lines[4].split(",")[0] == "3"  # sorted records follow the header


def test_resume_skips_completed_points(tmp_path):
    config = _config()
    out = tmp_path / "sweep"
    run_chaos_map(config, out)
    journal = (out / "records.jsonl").read_text().splitlines()
    # poison one journaled value; a resumed run must keep it untouched
    entry = json.loads(journal[0])
    entry["record"]["mean_r"] = 123.0
    (out / "records.jsonl").write_text(
        "\n".join([json.dumps(entry, sort_keys=True)] + journal[1:]) + "\n")
    records = run_chaos_map(config, out, resume=True)
    poisoned = [r for r in records if r["mean_r"] == 123.0]
    assert len(poisoned) == 1
    # without resume the point is recomputed
    records = run_chaos_map(config, out)
    assert not [r for r in records if r["mean_r"] == 123.0]


def test_single_point_cut_agrees_with_chaos_map(tmp_path):
    config = _config(d_values=[0.5])
    map_records = run_chaos_map(config, tmp_path / "map")
    cut_records = run_cut(config, tmp_path / "cut")
    assert map_records[0]["mean_r"] == cut_records[0]["mean_r"]
    assert (tmp_path / "map" / "results.csv").read_bytes() == \
        (tmp_path / "cut" / "results.csv").read_bytes()


def test_cut_with_dynamics_and_artifacts(tmp_path):
    config = _config(
        system_sizes=[[4, 4]],
        u_values=[0.5],
        d_values=[0.5],
        diagnostics=["gap_ratio", "pr", "entropy", "imbalance", "survival",
                     "entropy_dynamics", "imbalance_dynamics"],
        survival_sample_count=6,
        entropy_sample_count=4,
        time_points=60,
        time_points_observables=40,
        hole_window=[5.0, 500.0],
        save_traces=True,
        save_eigenstate_profiles=True,
    )
    records = run_cut(config, tmp_path / "out")
    rec = records[0]
    assert rec["status"] == "ok"
    for column in ("mean_r", "pr_central_over_goe", "entropy_central_over_page",
                   "imbalance_central", "ipr", "sp_min", "hole_depth",
                   "hole_depth_over_goe", "entropy_relaxation",
                   "entropy_relaxation_over_page", "imbalance_relaxation"):
        assert isinstance(rec[column], float), column
    assert rec["u_over_nj"] == pytest.approx(0.5 / 4)
    assert rec["d_over_j"] == pytest.approx(0.5)
    stem = "4x4_u0.5_d0.5"
    for name in (f"traces/survival_{stem}.csv", f"traces/survival_{stem}.json",
                 f"traces/entropy_{stem}.csv", f"traces/imbalance_{stem}.csv",
                 f"eigenstates/{stem}.csv"):
        assert (tmp_path / "out" / name).exists(), name
    sidecar = json.loads((tmp_path / "out" / f"traces/survival_{stem}.json")
                         .read_text())
    assert sidecar["n_states"] == 6
    assert "hole_depth" in sidecar and "config_hash" in sidecar
    assert sidecar["protocol"]["rng_seed"] == 5


def test_points_that_agree_to_six_digits_get_files_of_their_own(tmp_path):
    config = _config(d_values=[0.1000001, 0.1000002],
                     diagnostics=["pr", "survival"], survival_sample_count=3,
                     time_points=20, save_traces=True,
                     save_eigenstate_profiles=True)
    records = run_cut(config, tmp_path / "out")
    assert [r["status"] for r in records] == ["ok", "ok"]
    out = tmp_path / "out"
    for stem in ("3x3_u0.5_d0.1000001", "3x3_u0.5_d0.1000002"):
        for name in (f"traces/survival_{stem}.csv",
                     f"traces/survival_{stem}.json", f"eigenstates/{stem}.csv"):
            assert (out / name).exists(), name
    assert len(list((out / "traces").iterdir())) == 4
    assert len(list((out / "eigenstates").iterdir())) == 2


def test_dimension_limit_points_are_skipped(tmp_path):
    config = _config(system_sizes=[[3, 3], [10, 10]],
                     diagnostics=["gap_ratio", "pr"],
                     u_values=[0.5], d_values=[0.5])
    records = run_cut(config, tmp_path / "out")
    by_size = {r["n_bosons"]: r for r in records}
    assert by_size[3]["status"] == "ok"
    assert by_size[10]["status"] == "skipped_dimension"
    assert exit_code_for(records) == 3


def test_failed_points_are_recorded_not_raised(tmp_path):
    config = _config()
    config.u_values = [-1.0]  # bypasses from_dict validation on purpose
    records = run_chaos_map(config, tmp_path / "out")
    assert records[0]["status"] == "error"
    assert "ValueError" in records[0]["error"]
    assert exit_code_for(records) == 2
    assert exit_code_for([{"status": "ok"}]) == 0
    # the message holds commas; it stays one quoted cell of results.csv
    assert "," in records[0]["error"]
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
    assert rows[0] == RESULT_COLUMNS
    assert all(len(row) == len(RESULT_COLUMNS) for row in rows)
    assert rows[1][RESULT_COLUMNS.index("error")] == records[0]["error"]


def test_empty_imbalance_ensemble_is_a_point_error():
    # N = 8 bosons, M = 4 sites: at the default occupation_cap 3 the two
    # right-half sites hold at most 6, so no state qualifies
    config = _config(system_sizes=[[8, 4]],
                     diagnostics=["gap_ratio", "pr", "survival",
                                  "imbalance_dynamics"],
                     survival_sample_count=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        record = run_point(config, 8, 4, 0.5, 0.5).record
    assert record["status"] == "error"
    assert "InsufficientCandidatesError" in record["error"]
    assert "occupation_cap 3" in record["error"]
    assert exit_code_for([record]) == 2
    # every ensemble is built before any trace: the static fields stay,
    # and no survival field is filled
    assert isinstance(record["mean_r"], float)
    assert isinstance(record["pr_central_over_goe"], float)
    assert "ipr" not in record


def test_parallel_workers_reproduce_serial_results(tmp_path):
    serial = _config(d_values=[0.4, 0.9, 1.7])
    parallel = _config(d_values=[0.4, 0.9, 1.7], workers=2)
    run_chaos_map(serial, tmp_path / "serial")
    run_chaos_map(parallel, tmp_path / "parallel")
    a = (tmp_path / "serial" / "results.csv").read_text().splitlines()
    b = (tmp_path / "parallel" / "results.csv").read_text().splitlines()
    assert a[1:] == b[1:]  # identical rows; header hash differs with workers


def test_pooled_cut_with_every_diagnostic_matches_the_serial_run(tmp_path):
    settings = dict(
        system_sizes=[[4, 4]], d_values=[0.5, 1.0, 2.0],
        diagnostics=list(ALLOWED_DIAGNOSTICS), survival_sample_count=6,
        entropy_sample_count=4, time_points=40, time_points_observables=30,
        hole_window=[5.0, 500.0], save_traces=True,
        save_eigenstate_profiles=True)
    serial, pooled = _config(**settings), _config(**settings, workers=2)
    run_cut(serial, tmp_path / "serial")
    run_cut(pooled, tmp_path / "pooled")
    a = (tmp_path / "serial" / "results.csv").read_text().splitlines()
    b = (tmp_path / "pooled" / "results.csv").read_text().splitlines()
    assert a[1:] == b[1:]  # identical rows; header hash differs with workers
    files = sorted(path.relative_to(tmp_path / "serial")
                   for sub in ("traces", "eigenstates")
                   for path in (tmp_path / "serial" / sub).iterdir())
    assert len(files) == 3 * 3 * 2 + 3
    for name in files:
        # the same bytes once the config hash, which holds workers, agrees
        pooled_bytes = (tmp_path / "pooled" / name).read_bytes().replace(
            pooled.config_hash.encode(), serial.config_hash.encode())
        assert pooled_bytes == (tmp_path / "serial" / name).read_bytes(), name
    assert sorted(path.relative_to(tmp_path / "pooled")
                  for sub in ("traces", "eigenstates")
                  for path in (tmp_path / "pooled" / sub).iterdir()) == files


def test_eigendata_cache_roundtrip(tmp_path):
    basis = FockBasis(3, 3)
    params = ModelParams(u=0.7, d=0.3)
    direct = diagonalize(build(basis, params))
    first = cached_diagonalize(basis, params, True, cache_dir=tmp_path)
    assert (tmp_path / "eig_3x3_u0.7_d0.3_vec.npz").exists()
    second = cached_diagonalize(basis, params, True, cache_dir=tmp_path)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    assert np.allclose(direct.eigenvalues, second.eigenvalues)
    stats_direct = mean_gap_ratio(direct.eigenvalues)
    stats_cached = mean_gap_ratio(second.eigenvalues)
    assert stats_direct == stats_cached


def test_workers_get_a_share_of_blas_threads_without_touching_parent_env(
        monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    calls = [(os.getenv, "OPENBLAS_NUM_THREADS"), (os.getenv, "OMP_NUM_THREADS")]
    with _worker_pool(2, calls) as futures:
        seen = [fut.result() for fut in futures]
    share = str(max(1, os.cpu_count() // 2))
    assert seen == [share, share]
    assert dict(os.environ) == before


def test_value_request_served_from_vector_entry(tmp_path, monkeypatch):
    basis = FockBasis(3, 3)
    params = ModelParams(u=0.7, d=0.3)
    full = cached_diagonalize(basis, params, True, cache_dir=tmp_path)

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve despite a cached vector entry")

    monkeypatch.setattr(spectrum, "diagonalize", no_eigensolve)
    values = cached_diagonalize(basis, params, False, cache_dir=tmp_path)
    assert np.array_equal(values.eigenvalues, full.eigenvalues)
    assert not values.has_vectors
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "eig_3x3_u0.7_d0.3_vec.npz"]


def _counting_compute_point(monkeypatch):
    import tiltedbh.sweep as sweep_mod

    calls = []
    real = sweep_mod._compute_point

    def counted(config, out_dir, n, m, u, d):
        calls.append((n, m, u, d))
        return real(config, out_dir, n, m, u, d)

    monkeypatch.setattr(sweep_mod, "_compute_point", counted)
    return calls


def _cut_last_line(journal):
    """Simulate a kill in mid-write: drop the newline and half the last line."""
    data = journal.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    journal.write_bytes(data[:start + (len(data) - start) // 2])


def test_resume_survives_repeated_interrupted_journal_writes(tmp_path,
                                                             monkeypatch):
    config = _config(d_values=[0.3, 0.6, 0.9, 1.2, 1.5])
    clean = tmp_path / "clean"
    run_chaos_map(config, clean)
    out = tmp_path / "sweep"
    run_chaos_map(config, out)
    journal = out / "records.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    # first interruption: two points done, the third half written
    journal.write_bytes(b"".join(lines[:3]))
    _cut_last_line(journal)
    calls = _counting_compute_point(monkeypatch)
    run_chaos_map(config, out, resume=True)
    assert [c[3] for c in calls] == [0.9, 1.2, 1.5]
    # second interruption: the last record half written
    _cut_last_line(journal)
    calls.clear()
    run_chaos_map(config, out, resume=True)
    assert [c[3] for c in calls] == [1.5]
    entries = [json.loads(line) for line in journal.read_text().splitlines()]
    assert sorted(e["record"]["d"] for e in entries) == [0.3, 0.6, 0.9, 1.2,
                                                         1.5]
    assert (out / "results.csv").read_bytes() == \
        (clean / "results.csv").read_bytes()


def test_point_interrupted_while_writing_files_is_recomputed_on_resume(
        tmp_path, monkeypatch):
    from tiltedbh import dynamics

    config = _config(system_sizes=[[4, 4]], d_values=[0.5, 2.0],
                     diagnostics=["survival", "entropy_dynamics"],
                     survival_sample_count=4, entropy_sample_count=3,
                     time_points=40, time_points_observables=20,
                     hole_window=[5.0, 500.0], save_traces=True)
    clean = tmp_path / "clean"
    run_cut(config, clean)
    out = tmp_path / "cut"
    real = dynamics.write_trace_csv

    def interrupted(path, *args):
        if path.name.startswith("entropy_") and "_d0.5" in path.name:
            raise KeyboardInterrupt  # a Ctrl-C between two of the point's files
        return real(path, *args)

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "write_trace_csv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cut(config, out)
    journal = out / "records.jsonl"
    assert not journal.exists() or journal.read_text() == ""  # none journaled
    calls = _counting_compute_point(monkeypatch)
    run_cut(config, out, resume=True)
    assert [c[3] for c in calls] == [0.5, 2.0]
    names = sorted(path.name for path in (clean / "traces").iterdir())
    assert len(names) == 8  # two observables, .csv and .json, two points
    assert sorted(path.name for path in (out / "traces").iterdir()) == names
    for name in names:
        assert (out / "traces" / name).read_bytes() == \
            (clean / "traces" / name).read_bytes()
    assert (out / "results.csv").read_bytes() == \
        (clean / "results.csv").read_bytes()


def test_journal_lines_that_do_not_decode_are_skipped(tmp_path, monkeypatch):
    config = _config(d_values=[0.3, 0.6, 0.9])
    out = tmp_path / "sweep"
    run_chaos_map(config, out)
    journal = out / "records.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text(lines[0] + "{not json\n" + "".join(lines[1:]))
    calls = _counting_compute_point(monkeypatch)
    records = run_chaos_map(config, out, resume=True)
    assert calls == []
    assert len(records) == 3


@pytest.mark.parametrize("damage", ["truncate", "wrong_size", "wrong_shape",
                                    "no_key", "other_point"])
def test_unreadable_cache_entry_is_a_miss_and_is_rewritten(tmp_path,
                                                           monkeypatch, damage):
    basis = FockBasis(3, 3)
    params = ModelParams(u=0.7, d=0.3)
    first = cached_diagonalize(basis, params, True, cache_dir=tmp_path)
    entry = tmp_path / "eig_3x3_u0.7_d0.3_vec.npz"
    if damage == "truncate":
        entry.write_bytes(entry.read_bytes()[:entry.stat().st_size // 2])
    elif damage == "wrong_size":
        np.savez(entry, eigenvalues=np.zeros(4), eigenvectors=np.eye(4))
    elif damage == "wrong_shape":  # this point's key, too few eigenvalues
        np.savez(entry, key=_entry_key(basis, params, True),
                 eigenvalues=first.eigenvalues[:4],
                 eigenvectors=first.eigenvectors)
    elif damage == "no_key":
        np.savez(entry, eigenvalues=first.eigenvalues,
                 eigenvectors=first.eigenvectors)
    else:  # a whole entry of the same dimension, under this point's name
        cached_diagonalize(basis, ModelParams(u=0.7, d=0.9), True,
                           cache_dir=tmp_path)
        os.replace(tmp_path / "eig_3x3_u0.7_d0.9_vec.npz", entry)
    solves = []
    real = spectrum.diagonalize

    def counted(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectrum, "diagonalize", counted)
    again = cached_diagonalize(basis, params, True, cache_dir=tmp_path)
    assert solves == [1]
    assert np.array_equal(again.eigenvalues, first.eigenvalues)
    # the rewritten entry serves the next request without an eigensolve
    served = cached_diagonalize(basis, params, True, cache_dir=tmp_path)
    assert solves == [1]
    assert np.array_equal(served.eigenvectors, first.eigenvectors)
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]


def test_interrupted_cache_write_leaves_no_file(tmp_path, monkeypatch):
    def interrupted(fh, **payload):
        fh.write(b"partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "savez", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cached_diagonalize(FockBasis(3, 3), ModelParams(u=0.7, d=0.3), True,
                           cache_dir=tmp_path / "cache")
    assert list((tmp_path / "cache").iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_cache_that_cannot_be_written_fails_no_point(tmp_path, capfd,
                                                     workers):
    from tiltedbh.cli import main

    blocker = tmp_path / "a_file"
    blocker.write_text("")
    cfg = tmp_path / "map.json"
    cfg.write_text(json.dumps(dict(BASE, workers=workers,
                                   cache_dir=str(blocker / "cache"))))
    out = tmp_path / "map"
    assert main(["chaos-map", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "results.csv", newline="") as fh:
        rows = [dict(zip(RESULT_COLUMNS, row)) for row in csv.reader(fh)
                if not row[0].startswith("#")][1:]
    assert [row["status"] for row in rows] == ["ok", "ok"]
    assert all(float(row["mean_r"]) > 0 for row in rows)
    err = capfd.readouterr().err
    # each process reports the directory once and then stops writing to it
    assert 1 <= err.count("NotADirectoryError") <= workers
    assert str(blocker / "cache" / "eig_3x3_u0.5_d0.5_val.npz") in err
    assert f"writing no further entries to {blocker / 'cache'}" in err


def test_full_cache_disk_leaves_no_file_and_the_point_solves(
        tmp_path, monkeypatch, capsys):
    writes = []

    def full(fh, **payload):
        writes.append(fh.name)
        fh.write(b"partial")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(np, "savez", full)
    cache = tmp_path / "cache"
    records = run_chaos_map(_config(cache_dir=str(cache)), tmp_path / "map")
    assert [r["status"] for r in records] == ["ok", "ok"]
    assert all(isinstance(r["mean_r"], float) for r in records)
    assert list(cache.iterdir()) == []
    # the first failed write is the last one tried in that directory
    assert len(writes) == 1
    err = capsys.readouterr().err
    assert err.count(os.strerror(errno.ENOSPC)) == 1
    assert str(cache / "eig_3x3_u0.5_d0.5_val.npz") in err


def _die_at_d_0_9(config, out_dir, n, m, u, d):
    """A sweep point whose worker process dies at d = 0.9, as if killed."""
    import tiltedbh.sweep as sweep_mod

    if d == 0.9:
        os._exit(1)
    return sweep_mod._compute_point(config, out_dir, n, m, u, d)


def test_dead_worker_fails_its_points_and_resume_recomputes_them(
        tmp_path, monkeypatch):
    import tiltedbh.sweep as sweep_mod
    from tiltedbh.cli import main

    d_values = [0.3, 0.6, 0.9, 1.2, 1.5, 1.8]
    cfg = tmp_path / "map.json"
    cfg.write_text(json.dumps(dict(BASE, d_values=d_values, workers=2)))
    clean = tmp_path / "clean"
    assert main(["chaos-map", "--config", str(cfg), "--out", str(clean)]) == 0

    out = tmp_path / "map"
    with monkeypatch.context() as patch:
        patch.setattr(sweep_mod, "_compute_point", _die_at_d_0_9)
        assert main(["chaos-map", "--config", str(cfg), "--out",
                     str(out)]) == 2
    with open(out / "results.csv", newline="") as fh:
        rows = [dict(zip(RESULT_COLUMNS, row)) for row in csv.reader(fh)
                if not row[0].startswith("#")][1:]
    assert [float(row["d"]) for row in rows] == d_values
    failed = {float(row["d"]) for row in rows if row["status"] == "error"}
    assert 0.9 in failed
    assert all("worker process died" in row["error"]
               for row in rows if row["status"] == "error")
    journal = out / "records.jsonl"
    journaled = [json.loads(line)["record"]["d"]
                 for line in journal.read_text().splitlines()]
    assert sorted(journaled) == sorted(set(d_values) - failed)

    assert main(["chaos-map", "--config", str(cfg), "--out", str(out),
                 "--resume"]) == 0
    # each point journaled once: only the failed ones were computed again
    journaled = [json.loads(line)["record"]["d"]
                 for line in journal.read_text().splitlines()]
    assert sorted(journaled) == d_values
    assert (out / "results.csv").read_bytes() == \
        (clean / "results.csv").read_bytes()


def test_each_point_releases_freed_heap_failed_points_included(tmp_path,
                                                                monkeypatch):
    import tiltedbh.sweep as sweep_mod

    released = []
    monkeypatch.setattr(sweep_mod, "_release_freed_heap",
                        lambda: released.append(1))
    config = _config(d_values=[0.5])
    config.u_values = [-1.0, 0.5, 1.0]  # the first point fails
    records = run_cut(config, tmp_path / "out")
    assert [r["status"] for r in records] == ["error", "ok", "ok"]
    assert released == [1, 1, 1]


def test_sweep_without_malloc_trim_gives_the_same_results(tmp_path,
                                                          monkeypatch):
    import ctypes

    import tiltedbh.sweep as sweep_mod

    run_cut(_config(), tmp_path / "with")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert sweep_mod._malloc_trim() is None
    monkeypatch.setattr(sweep_mod, "_MALLOC_TRIM", None)
    run_cut(_config(), tmp_path / "without")
    assert (tmp_path / "without" / "results.csv").read_bytes() == \
        (tmp_path / "with" / "results.csv").read_bytes()
