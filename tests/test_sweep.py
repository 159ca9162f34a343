import csv
import errno
import gc
import json
import os
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from tiltedbh import SweepConfig, __version__, run_chaos_map, run_cut
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

from conftest import run_in_fresh_python


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
    # a list entry is not coerced to a string
    with pytest.raises(ConfigError, match="diagnostics: expected a string, got 1"):
        _config(diagnostics=[1])
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
    run_cut(config, tmp_path / "out")
    echoed = tmp_path / "out" / "config_normalized.json"
    assert echoed.exists()
    again = SweepConfig.from_dict({
        k: v for k, v in json.loads(echoed.read_text()).items()
        if k not in ("config_hash", "version")
    })
    assert again == config
    assert again.metadata()["config_hash"] == config.metadata()["config_hash"]


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
    # every ensemble is built before the solve: no diagnostic is filled
    assert "mean_r" not in record
    assert "pr_central_over_goe" not in record
    assert "ipr" not in record


def test_window_too_narrow_fails_the_point_before_its_solve(tmp_path,
                                                            monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the ensembles were drawn")

    monkeypatch.setattr("tiltedbh.sweep.spectrum.diagonalize", no_eigensolve)
    # the 3x3 basis has 10 states, so no window holds 200
    config = _config(diagnostics=["survival"], survival_sample_count=200,
                     cache_dir=str(tmp_path / "cache"))
    record = run_point(config, 3, 3, 0.5, 0.5).record
    assert record["status"] == "error"
    assert record["error"].startswith("InsufficientCandidatesError")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("diagnostic, limit, kind", [
    ("gap_ratio", "DENSE_EIGENVALUE_LIMIT", "without"),
    ("survival", "DENSE_EIGENVECTOR_LIMIT", "with"),
])
def test_over_limit_point_is_refused_before_its_basis(monkeypatch, diagnostic,
                                                      limit, kind):
    calls = []
    monkeypatch.setattr(f"tiltedbh.spectrum.{limit}", 5)
    monkeypatch.setattr("tiltedbh.sweep.hamiltonian.build",
                        lambda *args, **kwargs: calls.append("build"))
    monkeypatch.setattr(FockBasis, "states",
                        property(lambda self: calls.append("states")))
    record = run_point(_config(diagnostics=[diagnostic]), 3, 3, 0.5, 0.5).record
    assert calls == []
    assert record["status"] == "skipped_dimension"
    assert record["error"] == \
        f"dimension 10 exceeds the dense limit 5 ({kind} eigenvectors)"


def test_chaos_map_is_the_cut_sweep():
    assert run_chaos_map is run_cut


def test_parallel_workers_reproduce_serial_results(tmp_path):
    serial = _config(d_values=[0.4, 0.9, 1.7])
    parallel = _config(d_values=[0.4, 0.9, 1.7], workers=2)
    run_chaos_map(serial, tmp_path / "serial")
    run_chaos_map(parallel, tmp_path / "parallel")
    a = (tmp_path / "serial" / "results.csv").read_text().splitlines()
    b = (tmp_path / "parallel" / "results.csv").read_text().splitlines()
    assert a[1:] == b[1:]  # identical rows; header hash differs with workers


def test_pooled_map_with_more_threads_than_cores_matches_the_serial_run(
        tmp_path):
    settings = dict(d_values=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                              1.0, 1.1, 1.2])
    serial = run_chaos_map(_config(**settings), tmp_path / "serial")
    pooled = _config(**settings, workers=2 * (os.cpu_count() or 1) + 1,
                     cache_dir=str(tmp_path / "cache"))
    done = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads change hands as often as they can
    try:
        runner = threading.Thread(target=lambda: done.append(
            run_chaos_map(pooled, tmp_path / "pooled")))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not runner.is_alive()
    assert done == [serial]
    journal = (tmp_path / "pooled" / "records.jsonl").read_text()
    assert sorted(json.loads(line)["record"]["d"]
                  for line in journal.splitlines()) == settings["d_values"]
    assert len(list((tmp_path / "cache").glob("eig_*_val.npz"))) == \
        len(settings["d_values"])


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
            pooled.metadata()["config_hash"].encode(),
            serial.metadata()["config_hash"].encode())
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


def test_cache_entry_key_keeps_its_format():
    # the hopping, once a parameter, is still written as 1.0, so the entries
    # already on disk stay hits
    key = _entry_key(FockBasis(3, 3), ModelParams(u=0.7, d=0.3), True)
    assert key.tolist() == ["3", "3", "0.7", "0.3", "1.0", __version__,
                            "evd", "True"]


@pytest.mark.skipif(spectrum._BLAS_THREADS is None,
                    reason="numpy's OpenBLAS thread functions do not resolve")
def test_workers_get_a_share_of_blas_threads_without_touching_parent_env(
        monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    threads = spectrum._BLAS_THREADS
    original = threads["get"]()
    share = max(1, os.cpu_count() // 2)
    threads["set"](share + 1)  # a caller's count that the pool does not use
    try:
        with _worker_pool(2) as pool:
            futures = [pool.submit(threads["get"]) for _ in range(4)]
            seen = [fut.result() for fut in futures]
        assert seen == [share] * 4
        assert threads["get"]() == share + 1
    finally:
        threads["set"](original)
    assert dict(os.environ) == before


def test_pooled_map_without_the_blas_thread_functions_solves_every_point(
        tmp_path, monkeypatch):
    monkeypatch.setattr(spectrum, "_BLAS_THREADS", None)
    records = run_chaos_map(_config(d_values=[0.4, 0.9, 1.7], workers=2),
                            tmp_path / "map")
    assert [r["status"] for r in records] == ["ok", "ok", "ok"]
    assert all(r["mean_r"] > 0 for r in records)


def test_a_failed_journal_write_cancels_the_queued_points(tmp_path,
                                                          monkeypatch):
    import tiltedbh.sweep as sweep_mod

    real_append, real_solve = sweep_mod._append_journal, spectrum.diagonalize
    handed, solves, failed = [], [], threading.Event()

    def fail_the_second(out_dir, key, record, config_hash):
        handed.append(key)
        if len(handed) == 2:
            failed.set()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_append(out_dir, key, record, config_hash)

    def gated(h, compute_vectors=True):
        # the solves after the first two start once the write has failed,
        # and last long enough for the parent's loop to end first
        solves.append(h.params.d)
        if len(solves) > 2:
            failed.wait(10)
            time.sleep(0.2)
        return real_solve(h, compute_vectors)

    monkeypatch.setattr(sweep_mod, "_append_journal", fail_the_second)
    monkeypatch.setattr(spectrum, "diagonalize", gated)
    cache = tmp_path / "cache"
    config = _config(d_values=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                               1.0, 1.1, 1.2],
                     workers=2, cache_dir=str(cache))
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        run_chaos_map(config, tmp_path / "map")
    journal = (tmp_path / "map" / "records.jsonl").read_text().splitlines()
    assert len(journal) == 1
    # the points handed to the journal and those running when its write
    # failed; no queued point is computed
    assert len(list(cache.glob("eig_*.npz"))) <= len(handed) + config.workers


def test_value_request_after_a_vector_entry_matches_a_cold_value_solve(
        tmp_path, monkeypatch):
    basis = FockBasis(3, 3)
    params = ModelParams(u=0.7, d=0.3)
    cold = cached_diagonalize(basis, params, False, cache_dir=tmp_path / "a")
    warm = tmp_path / "b"
    cached_diagonalize(basis, params, True, cache_dir=warm)
    values = cached_diagonalize(basis, params, False, cache_dir=warm)
    assert np.array_equal(values.eigenvalues, cold.eigenvalues)
    assert not values.has_vectors
    assert sorted(p.name for p in warm.iterdir()) == [
        "eig_3x3_u0.7_d0.3_val.npz", "eig_3x3_u0.7_d0.3_vec.npz"]

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve despite a cached value entry")

    monkeypatch.setattr(spectrum, "diagonalize", no_eigensolve)
    again = cached_diagonalize(basis, params, False, cache_dir=warm)
    assert np.array_equal(again.eigenvalues, cold.eigenvalues)


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
    # each thread reports the directory at most once, and the first report
    # stops every later write to it; with two threads either point's write
    # can fail first
    assert 1 <= err.count("NotADirectoryError") <= workers
    entries = [str(blocker / "cache" / f"eig_3x3_u0.5_d{d}_val.npz")
               for d in (["0.5"] if workers == 1 else ["0.5", "2"])]
    assert any(entry in err for entry in entries)
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


# Run in a fresh interpreter: a pooled map whose process dies at d = 0.9,
# as if killed.
_KILLED_RUN = """
import os

import tiltedbh.sweep as sweep
from tiltedbh.cli import main

compute = sweep._compute_point


def die_at_d_0_9(config, out_dir, n, m, u, d):
    if d == 0.9:
        os._exit(1)
    return compute(config, out_dir, n, m, u, d)


sweep._compute_point = die_at_d_0_9
main(["chaos-map", "--config", {config!r}, "--out", {out!r}])
"""


def test_killed_pooled_run_journals_complete_points_and_resume_finishes_it(
        tmp_path, monkeypatch):
    from tiltedbh.cli import main

    d_values = [0.3, 0.6, 0.9, 1.2, 1.5, 1.8]
    cfg = tmp_path / "map.json"
    cfg.write_text(json.dumps(dict(BASE, d_values=d_values, workers=2)))
    clean = tmp_path / "clean"
    assert main(["chaos-map", "--config", str(cfg), "--out", str(clean)]) == 0

    out = tmp_path / "map"
    run_in_fresh_python(_KILLED_RUN.format(config=str(cfg), out=str(out)),
                        returncode=1)
    assert not (out / "results.csv").exists()  # the kill ended the run
    journal = out / "records.jsonl"
    entries = [json.loads(line) for line in journal.read_text().splitlines()
               ] if journal.exists() else []
    assert all(e["record"]["status"] == "ok" for e in entries)
    done = [e["record"]["d"] for e in entries]
    assert len(set(done)) == len(done)
    assert set(done) <= set(d_values) - {0.9}

    calls = _counting_compute_point(monkeypatch)
    assert main(["chaos-map", "--config", str(cfg), "--out", str(out),
                 "--resume"]) == 0
    assert sorted(c[3] for c in calls) == sorted(set(d_values) - set(done))
    # each point journaled once: only the unjournaled ones were computed
    journaled = [json.loads(line)["record"]["d"]
                 for line in journal.read_text().splitlines()]
    assert sorted(journaled) == d_values
    assert (out / "results.csv").read_bytes() == \
        (clean / "results.csv").read_bytes()


# A block glibc maps on its own and then frees raises its dynamic mmap
# threshold to the block's size, up to 32 MiB: a later block of 16 MiB then
# comes from the brk heap, which keeps it once it is freed.
_HEAP_AFTER_A_POINT = """
import re
import numpy as np
from tiltedbh import SweepConfig
from tiltedbh.config import ALLOWED_DIAGNOSTICS
from tiltedbh.sweep import run_point

def rss_kib():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmRSS:\\s+(\\d+) kB", fh.read()).group(1))

config = SweepConfig.from_dict({
    "system_sizes": [[4, 4]], "u_values": [0.5], "d_values": [0.4],
    "diagnostics": list(ALLOWED_DIAGNOSTICS), "survival_sample_count": 4,
    "entropy_sample_count": 3, "seed": 5})
assert run_point(config, 4, 4, 0.5, 0.4).record["status"] == "ok"
start = rss_kib()
block = np.ones(3 << 20)  # 24 MiB
del block
block = np.ones(2 << 20)  # 16 MiB
del block
print((rss_kib() - start) / 1024)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS from /proc/self/status")
def test_point_fixes_the_mmap_threshold_so_freed_blocks_leave():
    # in MiB; the 16 MiB block stays resident where the threshold is dynamic
    assert abs(float(run_in_fresh_python(_HEAP_AFTER_A_POINT))) < 4


def test_point_leaves_no_array_for_the_cyclic_gc_to_free():
    # the small all-diagnostics cut point of the benchmark, at 4x4
    config = _config(system_sizes=[[4, 4]], d_values=[0.4],
                     diagnostics=list(ALLOWED_DIAGNOSTICS),
                     survival_sample_count=4, entropy_sample_count=3,
                     hole_window=[20.0, 1000.0])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert run_point(config, 4, 4, 0.5, 0.4).record["status"] == "ok"
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    # cycles may remain (closures of the stdlib), but none may hold an
    # array, which would stay allocated until a full collection
    held = [(type(obj).__name__, ref.shape) for obj in garbage
            for ref in gc.get_referents(obj) if isinstance(ref, np.ndarray)]
    del garbage
    assert held == []


def test_sweep_without_mallopt_gives_the_same_results(tmp_path, monkeypatch):
    import ctypes

    import tiltedbh.sweep as sweep_mod

    run_cut(_config(), tmp_path / "with")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert sweep_mod._mallopt() is None
    monkeypatch.setattr(sweep_mod, "_MALLOPT", None)
    run_cut(_config(), tmp_path / "without")
    assert (tmp_path / "without" / "results.csv").read_bytes() == \
        (tmp_path / "with" / "results.csv").read_bytes()
