import errno
import filecmp
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from tiltedbh import config as config_module
from tiltedbh.cli import main
from tiltedbh.config import (
    _COMMAND_KEYS,
    _POINT_KEYS,
    SweepConfig,
    basis_config,
    point_config,
)
from tiltedbh.sweep import CACHE_DIR_ENV

from conftest import fake_lapack, fresh_python_env


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_basis_command(tmp_path):
    cfg = _write(tmp_path / "c.json", {"n_bosons": 3, "n_sites": 3})
    out = tmp_path / "out"
    assert main(["basis", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "basis_summary.json").read_text())
    assert summary["dim"] == 10
    lines = (out / "basis_states.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0] == "index,n_1,n_2,n_3"
    assert rows[1] == "0,3,0,0"
    assert len(rows) == 11


def test_one_boson_on_eighty_sites_builds_and_solves(tmp_path):
    # dimension 80, though C(N + M, M) exceeds the 64-bit range
    basis_cfg = _write(tmp_path / "b.json",
                       {"n_bosons": 1, "n_sites": 80, "write_states": True})
    point_cfg = _write(tmp_path / "s.json",
                       {"n_bosons": 1, "n_sites": 80, "u": 0.5, "d": 0.5})
    out = tmp_path / "out"
    assert main(["basis", "--config", basis_cfg, "--out", str(out / "b")]) == 0
    rows = [l for l in (out / "b" / "basis_states.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 81
    assert rows[80] == "79," + ",".join(["0"] * 79 + ["1"])
    assert main(["spectrum", "--config", point_cfg, "--out", str(out / "s")]) == 0
    rows = [l for l in (out / "s" / "spectrum.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 81
    assert (out / "s" / "gap_statistics.json").exists()


def test_spectrum_command_with_matrix_export(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "n_bosons": 3, "n_sites": 3, "u": 0.5, "d": 0.5, "export_matrix": True,
    })
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    stats = json.loads((out / "gap_statistics.json").read_text())
    assert 0.0 <= stats["mean_r"] <= 1.0
    assert stats["edge_fraction_discarded"] == 0.1
    rows = [l for l in (out / "spectrum.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0] == "index,energy,normalized_energy"
    assert len(rows) == 11
    coo = [l for l in (out / "hamiltonian_coo.txt").read_text().splitlines()
           if not l.startswith("#")]
    dense = np.zeros((10, 10))
    for line in coo:
        r, c, v = line.split()
        dense[int(r), int(c)] += float(v)
    assert np.allclose(dense, dense.T)


def test_eigenstates_command(tmp_path):
    cfg = _write(tmp_path / "c.json",
                 {"n_bosons": 3, "n_sites": 3, "u": 0.5, "d": 0.5})
    out = tmp_path / "out"
    assert main(["eigenstates", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in (out / "eigenstates.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert rows[0].startswith("index,energy,normalized_energy,pr,s_site_1")
    assert len(rows) == 11
    summary = json.loads((out / "eigenstates_summary.json").read_text())
    assert 0.0 < summary["pr_central_over_goe"] <= 3.0
    assert summary["page_value"] > 0


def test_quench_command_writes_all_outputs(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "n_bosons": 4, "n_sites": 4, "u": 0.5, "d": 0.5,
        "survival_sample_count": 6, "entropy_sample_count": 4,
        "time_points": 50, "time_points_observables": 30,
        "hole_window": [5.0, 500.0], "seed": 3,
    })
    out = tmp_path / "out"
    assert main(["quench", "--config", cfg, "--out", str(out)]) == 0
    for name in ("survival_trace.csv", "survival_summary.json",
                 "survival_states.json", "survival_analytic.csv",
                 "entropy_trace.csv", "entropy_summary.json",
                 "entropy_states.json", "imbalance_trace.csv",
                 "imbalance_summary.json", "imbalance_states.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "survival_summary.json").read_text())
    assert summary["n_states"] == 6
    assert summary["ipr"] > 0
    assert summary["analytic_eta"] > 1
    manifest = json.loads((out / "imbalance_states.json").read_text())
    assert manifest["target_imbalance"] == -1.0
    trace_rows = [l for l in (out / "survival_trace.csv").read_text().splitlines()
                  if not l.startswith("#")]
    assert trace_rows[0] == "time,raw_mean,smoothed_mean"
    assert len(trace_rows) == 51


def test_quench_seed_override_changes_manifest(tmp_path):
    payload = {"n_bosons": 4, "n_sites": 4, "u": 0.5, "d": 0.5,
               "observables": ["survival"], "survival_sample_count": 6,
               "time_points": 20, "hole_window": [1.0, 50.0], "seed": 3}
    cfg = _write(tmp_path / "c.json", payload)
    assert main(["quench", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["quench", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--seed", "4"]) == 0
    a = json.loads((tmp_path / "a" / "survival_states.json").read_text())
    b = json.loads((tmp_path / "b" / "survival_states.json").read_text())
    assert a["rng_seed"] == 3 and b["rng_seed"] == 4
    assert a["basis_indices"] != b["basis_indices"]


def test_chaos_map_and_cut_commands(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "system_sizes": [[3, 3]], "u_values": [0.5],
        "d_values": [0.5, 1.5], "diagnostics": ["gap_ratio"],
    })
    out = tmp_path / "map"
    assert main(["chaos-map", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert (out / "config_normalized.json").exists()
    # resume with everything done is a no-op success
    assert main(["chaos-map", "--config", cfg, "--out", str(out),
                 "--resume"]) == 0
    cut_out = tmp_path / "cut"
    assert main(["cut", "--config", cfg, "--out", str(cut_out)]) == 0
    rows = [l for l in (cut_out / "results.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 3


def test_config_errors_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    assert main(["cut", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    cfg = _write(tmp_path / "c.json", {"system_sizes": [[3, 3]],
                                       "u_values": [-2.0], "d_values": [0.5],
                                       "diagnostics": ["gap_ratio"]})
    assert main(["cut", "--config", cfg, "--out", str(tmp_path / "o2")]) == 1
    missing = _write(tmp_path / "m.json", {"n_bosons": 3})
    assert main(["spectrum", "--config", missing,
                 "--out", str(tmp_path / "o3")]) == 1


def test_chaos_map_rejects_diagnostics_other_than_gap_ratio(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {
        "system_sizes": [[3, 3]], "u_values": [0.5], "d_values": [0.5],
        "diagnostics": ["gap_ratio", "pr"],
    })
    out = tmp_path / "out"
    assert main(["chaos-map", "--config", cfg, "--out", str(out)]) == 1
    assert "config error: diagnostics" in capsys.readouterr().err
    assert not out.exists()


def test_resource_limit_exit_three(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "system_sizes": [[10, 10]], "u_values": [0.5], "d_values": [0.5],
        "diagnostics": ["pr"],
    })
    assert main(["cut", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_value_only_dense_limit_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("tiltedbh.spectrum.DENSE_EIGENVALUE_LIMIT", 5)
    cfg = _write(tmp_path / "c.json",
                 {"n_bosons": 3, "n_sites": 3, "u": 0.5, "d": 0.5})
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
    assert ": skipped_dimension (" in capsys.readouterr().err
    assert not out.exists()


def test_basis_beyond_the_index_range_is_a_resource_limit(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {"n_bosons": 40, "n_sites": 40})
    out = tmp_path / "o"
    assert main(["basis", "--config", cfg, "--out", str(out)]) == 3
    assert "resource limit: basis dimension" in capsys.readouterr().err
    assert not out.exists()


def test_point_beyond_the_index_range_is_skipped(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json",
                 {"n_bosons": 40, "n_sites": 40, "u": 0.5, "d": 0.5})
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
    assert ": skipped_dimension (basis dimension" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("times, key", [
    ({"time_points": 2 ** 62}, "time_points"),
    ({"time_min": 0.1, "time_max": 0.10000000001, "time_points": 10 ** 6},
     "time_points"),
    ({"diagnostics": ["entropy_dynamics"], "time_points_observables": 2 ** 62},
     "time_points_observables"),
    ({"diagnostics": ["imbalance_dynamics"], "time_min": 0.1,
      "time_max_observables": 0.10000000001,
      "time_points_observables": 10 ** 6}, "time_points_observables"),
], ids=["too_many_points", "equal_times", "too_many_observable_points",
        "equal_observable_times"])
def test_unbuildable_survival_grid_is_a_config_error(tmp_path, capsys, times,
                                                      key):
    # the observable grid of the entropy and imbalance traces too
    cfg = _write(tmp_path / "c.json", {
        "system_sizes": [[3, 3]], "u_values": [0.5], "d_values": [0.5],
        "diagnostics": ["survival"], "hole_window": [0.1, 1.0], **times,
    })
    out = tmp_path / "o"
    assert main(["cut", "--config", cfg, "--out", str(out)]) == 1
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_memory_error_is_a_resource_limit(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    # the grid of 10**12 times is never allocated
    monkeypatch.setattr("tiltedbh.dynamics.log_time_grid", no_memory)
    cfg = _write(tmp_path / "c.json", {
        "system_sizes": [[3, 3]], "u_values": [0.5], "d_values": [0.5],
        "diagnostics": ["survival"], "time_points": 10 ** 12,
    })
    out = tmp_path / "o"
    assert main(["cut", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        "resource limit: Unable to allocate 7.28 TiB\n"
    assert not out.exists()


def test_bare_memory_error_names_itself_as_a_resource_limit(
        tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("tiltedbh.dynamics.log_time_grid", no_memory)
    cfg = _write(tmp_path / "c.json", {
        "system_sizes": [[3, 3]], "u_values": [0.5], "d_values": [0.5],
        "diagnostics": ["survival"],
    })
    out = tmp_path / "o"
    assert main(["cut", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "resource limit: MemoryError\n"
    assert not out.exists()


# the fresh mappings of a solve with eigenvectors, in the order it maps them
_VECTOR_MAPPINGS = ["dense matrix", "Householder reflectors", "eigenvectors",
                    "dstedc workspace", "dormtr workspace"]


@pytest.mark.parametrize("starved", ["matrix", "workspace",
                                     *_VECTOR_MAPPINGS[1:]])
def test_solve_the_system_cannot_allocate_is_a_resource_limit(
        tmp_path, capsys, monkeypatch, starved):
    import mmap

    def no_memory(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    command = "spectrum"
    if starved == "matrix":
        monkeypatch.setattr("mmap.mmap", no_memory)
        message = "cannot map the 800-byte dense matrix of dimension 10"
    elif starved == "workspace":  # 2^61 bytes, which no allocator grants
        fake_lapack(monkeypatch, "syevr", lwork=2 ** 58)
        message = "Unable to allocate 2.00 EiB"  # numpy's MemoryError
    else:  # the mappings before it are granted
        command, real_mmap, calls = "eigenstates", mmap.mmap, []

        def no_memory_for_this_one(*args, **kwargs):
            calls.append(args)
            if len(calls) > _VECTOR_MAPPINGS.index(starved):
                no_memory()
            return real_mmap(*args, **kwargs)

        monkeypatch.setattr("mmap.mmap", no_memory_for_this_one)
        message = f"-byte {starved} of dimension 10: Cannot allocate memory"
    cfg = _write(tmp_path / "c.json",
                 {"n_bosons": 3, "n_sites": 3, "u": 0.5, "d": 0.5})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert ": skipped_dimension (" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command, starved", [
    ("cut", "observable_trace"), ("chaos-map", "diagonalize")])
def test_memory_error_anywhere_in_a_sweep_point_skips_it(
        tmp_path, capsys, monkeypatch, command, starved, workers):
    from tiltedbh import dynamics, spectrum

    module = dynamics if starved == "observable_trace" else spectrum
    real = getattr(module, starved)

    def no_memory_at_d2(*args):
        # the trace's spectral data, or the solve's Hamiltonian
        if args[1 if starved == "observable_trace" else 0].params.d == 2.0:
            raise MemoryError("Unable to allocate 16.0 MiB")
        return real(*args)

    monkeypatch.setattr(module, starved, no_memory_at_d2)
    cfg = _write(tmp_path / "c.json", {
        **_SWEEP, "d_values": [0.5, 2.0],
        "diagnostics": (["entropy_dynamics"] if command == "cut"
                        else ["gap_ratio"]),
        "entropy_sample_count": 3, "time_points_observables": 20})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--workers", str(workers)]) == 3
    assert capsys.readouterr().err == ("point N=3 M=3 u=0.5 d=2.0: "
                                       "skipped_dimension (Unable to "
                                       "allocate 16.0 MiB)\n")
    journal = {entry["record"]["d"]: entry["record"] for entry in
               map(json.loads, (out / "records.jsonl").read_text()
                   .splitlines())}
    assert {d: rec["status"] for d, rec in journal.items()} == \
        {0.5: "ok", 2.0: "skipped_dimension"}
    assert journal[2.0]["error"] == "Unable to allocate 16.0 MiB"
    rows = [line.split(",") for line in
            (out / "results.csv").read_text().splitlines()
            if not line.startswith("#")]
    status = rows[0].index("status")
    assert [row[status] for row in rows[1:]] == ["ok", "skipped_dimension"]


@pytest.mark.parametrize("starved, error, message", [
    ("observable_trace", MemoryError("Unable to allocate 16.0 MiB"),
     "Unable to allocate 16.0 MiB"),
    # the analytic curve's, after the traces; a bare MemoryError names itself
    ("estimate_curve_inputs", MemoryError(), "MemoryError"),
], ids=["trace", "analytic_curve"])
def test_memory_error_in_a_quench_is_a_resource_limit(
        tmp_path, capsys, monkeypatch, starved, error, message):
    def no_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(f"tiltedbh.dynamics.{starved}", no_memory)
    cfg = _write(tmp_path / "c.json", {
        "n_bosons": 3, "n_sites": 3, "u": 0.5, "d": 0.5,
        "survival_sample_count": 3, "entropy_sample_count": 3,
        "time_points": 20, "time_points_observables": 20,
        "hole_window": [1.0, 50.0]})
    out = tmp_path / "o"
    assert main(["quench", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        f"point N=3 M=3 u=0.5 d=0.5: skipped_dimension ({message})\n"
    assert not out.exists()


def test_full_disk_mid_run_exits_one_and_resume_finishes_it(
        tmp_path, capsys, monkeypatch):
    import tiltedbh.sweep as sweep_mod

    real_append, handed = sweep_mod._append_journal, []

    def full_on_the_second(out_dir, key, record, config_hash):
        handed.append(key)
        if len(handed) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_append(out_dir, key, record, config_hash)

    monkeypatch.setattr(sweep_mod, "_append_journal", full_on_the_second)
    cfg = _write(tmp_path / "c.json", {**_SWEEP, "d_values": [0.5, 1.0, 1.5]})
    out = tmp_path / "map"
    assert main(["chaos-map", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"output error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    journal = [json.loads(line) for line in
               (out / "records.jsonl").read_text().splitlines()]
    assert [entry["key"] for entry in journal] == handed[:1]
    assert journal[0]["record"]["status"] == "ok"
    assert not (out / "results.csv").exists()

    monkeypatch.setattr(sweep_mod, "_append_journal", real_append)
    assert main(["chaos-map", "--config", cfg, "--out", str(out),
                 "--resume"]) == 0
    rows = [line for line in (out / "results.csv").read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == 4 and all(",ok," in row for row in rows[1:])


def test_partial_failure_exit_two(tmp_path, monkeypatch):
    import tiltedbh.sweep as sweep_mod

    real = sweep_mod.spectrum.mean_gap_ratio

    def flaky(eigenvalues, edge_discard=0.1):
        if eigenvalues.size == 10:  # only the (3, 3) point
            raise RuntimeError("synthetic failure")
        return real(eigenvalues, edge_discard)

    monkeypatch.setattr(sweep_mod.spectrum, "mean_gap_ratio", flaky)
    cfg = _write(tmp_path / "c.json", {
        "system_sizes": [[3, 3], [2, 2]], "u_values": [0.5], "d_values": [0.5],
        "diagnostics": ["gap_ratio"],
    })
    assert main(["chaos-map", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_workers_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "system_sizes": [[3, 3]], "u_values": [0.5], "d_values": [0.5, 1.0],
        "diagnostics": ["gap_ratio"], "workers": 1,
    })
    out = tmp_path / "out"
    assert main(["chaos-map", "--config", cfg, "--out", str(out),
                 "--workers", "2"]) == 0
    echoed = json.loads((out / "config_normalized.json").read_text())
    assert echoed["workers"] == 2


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_configs_load_through_the_schema(path):
    raw = json.loads(path.read_text())
    command = path.name.split("_")[0]
    if "system_sizes" in raw:
        config = SweepConfig.from_dict(raw)
        assert asdict(config) == asdict(SweepConfig.from_dict(
            asdict(config)))
    elif command == "basis":
        n, m, own = basis_config(raw)
        assert (n, m) == (raw["n_bosons"], raw["n_sites"])
    else:
        config, _ = point_config(raw, command)
        assert config.system_sizes == [[raw["n_bosons"], raw["n_sites"]]]
        assert (config.u_values, config.d_values) == ([raw["u"]], [raw["d"]])


# the config_hash each shipped config's command stamps on its outputs
_SHIPPED_CONFIG_HASHES = {
    "basis_8x8.json": "608de8cc345f",
    "chaos_map_6x6_quick.json": "55e51bb0ab14",
    "chaos_map_8x8.json": "940f396d3f4c",
    "eigenstates_8x8_chaotic.json": "d80a92f703a0",
    "interaction_cut_scaling.json": "79b26e4dbbb2",
    "quench_chaotic_8x8.json": "0ddaa41e3fdd",
    "spectrum_8x8_chaotic.json": "a249110f81fa",
    "tilt_cut_scaling.json": "e7fccfe0f544",
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                         ids=lambda p: p.name)
def test_shipped_config_hashes_stay_the_same(path, tmp_path):
    raw = json.loads(path.read_text())
    command = path.name.split("_")[0]
    if "system_sizes" in raw:
        metadata = SweepConfig.from_dict(raw).metadata()
    elif command == "basis":
        assert main(["basis", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
        metadata = json.loads((tmp_path / "basis_summary.json").read_text())
    else:
        config, own = point_config(raw, command)
        metadata = config.metadata(own)
    assert metadata["config_hash"] == _SHIPPED_CONFIG_HASHES[path.name]


def test_config_hash_is_sha256():
    for data in (b"", b"x", json.dumps({"u": 0.5}).encode(),
                 bytes(range(256)) * 9):
        assert config_module.sha256(data).hexdigest() == \
            hashlib.sha256(data).hexdigest()


def test_readme_config_table_names_every_config_key():
    readme = (CONFIGS.parent / "README.md").read_text().splitlines()
    start = readme.index("| field | default | read by |") + 2
    end = readme.index("", start)
    named = [name for row in readme[start:end]
             for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    keys = [spec.name for spec in fields(SweepConfig)] + list(_POINT_KEYS) + \
        [key for own in _COMMAND_KEYS.values() for key in own]
    assert len(named) == len(set(named)), "a key is listed twice"
    assert sorted(named) == sorted(keys)


@pytest.mark.parametrize("command", ["spectrum", "eigenstates", "quench"])
@pytest.mark.parametrize("bad", [{"time_mx": 50.0}, {"smoothing_window": 4},
                                 {"time_min": -1}, {"workers": 2},
                                 {"save_traces": True},
                                 {"save_eigenstate_profiles": True},
                                 {"seed": True}, {"time_points": 20.5},
                                 {"hole_window": "19"},
                                 {"u": float("inf")},
                                 {"n_bosons": "3"},
                                 {"export_matrix": "no"},
                                 {"cache_dir": 5},
                                 {"u": -1}, {"n_sites": 0}, {"d": "0.5"},
                                 {"seed": -1}, {"eigenvector_limit": 0},
                                 {"j": 2.0}, {"goe_reference": 0.536},
                                 {"eigenvalue_limit": 10},
                                 {"time_max_observables": 0.05},
                                 {"observables": ["entropy", "spin"]},
                                 {"observables": []},
                                 {"time_points": 1},
                                 {"time_points_observables": 1}],
                         ids=["typo", "even_window", "negative_time",
                              "workers", "save_traces",
                              "save_eigenstate_profiles", "boolean_seed",
                              "fractional_integer", "string_list",
                              "infinite_energy", "string_size",
                              "string_flag", "numeric_cache_dir",
                              "negative_energy", "zero_sites",
                              "string_energy", "negative_seed",
                              "zero_vector_limit", "hopping",
                              "goe_reference", "value_limit",
                              "observable_time_below_min",
                              "unknown_observable", "no_observables",
                              "one_time_point", "one_observable_time_point"])
def test_bad_point_config_exits_one_before_writing(tmp_path, capsys, command,
                                                   bad):
    cfg = _write(tmp_path / "c.json", {"n_bosons": 3, "n_sites": 3,
                                       "u": 0.5, "d": 0.5, **bad})
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    # the message names the key the config holds, not a field it maps to
    assert f"config error: {next(iter(bad))}:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


_SWEEP = {"system_sizes": [[3, 3]], "u_values": [0.5], "d_values": [0.5],
          "diagnostics": ["gap_ratio"]}


@pytest.mark.parametrize("bad", [{"save_traces": "false"},
                                 {"system_sizes": ["33"]},
                                 {"workers": 1.5},
                                 {"u_values": [float("inf")]},
                                 {"seed": -1}, {"eigenvector_limit": 0},
                                 {"j": 2.0}, {"goe_reference": 0.536},
                                 {"eigenvalue_limit": 10},
                                 {"time_max": 0.05},
                                 [_SWEEP],
                                 {"time_points": 1},
                                 {"time_points_observables": 1},
                                 {"diagnostics": ["survival"],
                                  "time_max": 10.0},
                                 {"system_sizes": [[3, 3], [4, 4], [3, 3]]},
                                 {"u_values": [0.5, 0.5]},
                                 # equal to 12 significant digits
                                 {"d_values": [0.5, 0.1, 0.5000000000001]}],
                         ids=["string_flag", "string_size",
                              "fractional_integer", "infinite_energy",
                              "negative_seed", "zero_vector_limit", "hopping",
                              "goe_reference", "value_limit",
                              "time_max_below_min", "json_array",
                              "one_time_point", "one_observable_time_point",
                              "hole_window_after_time_max",
                              "repeated_size", "repeated_u",
                              "repeated_d_to_12_digits"])
def test_bad_sweep_config_exits_one_before_writing(tmp_path, capsys, bad):
    cfg = _write(tmp_path / "c.json",
                 {**_SWEEP, **bad} if isinstance(bad, dict) else bad)
    out = tmp_path / "out"
    assert main(["cut", "--config", cfg, "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["basis", "spectrum", "eigenstates",
                                     "quench", "chaos-map", "cut"])
@pytest.mark.parametrize("under_file", [False, True],
                         ids=["file", "under_file"])
def test_unusable_out_exits_one_before_any_work(tmp_path, capsys, monkeypatch,
                                                command, under_file):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before --out was checked")

    monkeypatch.setattr("tiltedbh.spectrum.diagonalize", no_eigensolve)
    payload = {"n_bosons": 3, "n_sites": 3}
    if command in ("chaos-map", "cut"):
        payload = _SWEEP
    elif command != "basis":
        payload.update(u=0.5, d=0.5)
    cfg = _write(tmp_path / "c.json", payload)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    out = blocker / "out" if under_file else blocker
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: ") and err.count("\n") == 1
    assert blocker.read_text() == "kept"


def test_module_and_entry_point_exit_codes(tmp_path):
    def run(launcher, command, payload, out):
        cfg = _write(tmp_path / f"{out}.json", payload)
        return subprocess.run(
            [sys.executable, *launcher, command, "--config", cfg,
             "--out", str(tmp_path / out)],
            env=fresh_python_env(), capture_output=True, text=True)

    module = ["-m", "tiltedbh.cli"]
    done = run(module, "basis", {"n_bosons": 3, "n_sites": 3}, "basis")
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "basis").iterdir()) == [
        "basis_states.csv", "basis_summary.json"]
    done = run(module, "chaos-map", _SWEEP, "map")
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "map").iterdir()) == [
        "config_normalized.json", "records.jsonl", "results.csv"]
    entry = ["-c", "import tiltedbh.cli; tiltedbh.cli.entry_point()"]
    for launcher, out in ((module, "module"), (entry, "entry")):
        failed = run(launcher, "cut", {**_SWEEP, "j": 2.0}, out)
        assert failed.returncode == 1
        assert failed.stderr == \
            "config error: j: unknown configuration field\n"
        assert not (tmp_path / out).exists()
        # refused before its basis of 5 200 300 states is built
        limited = run(launcher, "spectrum", {"n_bosons": 13, "n_sites": 13,
                                             "u": 0.5, "d": 0.5}, f"{out}_13")
        assert limited.returncode == 3, limited.stderr
        assert ": skipped_dimension (dimension 5200300 exceeds the dense " \
            "limit 100000" in limited.stderr
        assert not (tmp_path / f"{out}_13").exists()


@pytest.mark.parametrize("command, flags", [
    ("basis", ["--seed", "5"]),
    ("basis", ["--workers", "4"]),
    ("basis", ["--resume"]),
    ("spectrum", ["--resume"]),
    ("eigenstates", ["--resume"]),
    ("quench", ["--resume"]),
], ids=["basis-seed", "basis-workers", "basis-resume", "spectrum-resume",
        "eigenstates-resume", "quench-resume"])
def test_flag_the_command_does_not_read_exits_one_before_writing(
        tmp_path, capsys, command, flags):
    point = {"n_bosons": 3, "n_sites": 3}
    if command != "basis":
        point.update(u=0.5, d=0.5)
    cfg = _write(tmp_path / "c.json", point)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 1
    assert f"config error: {flags[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "eigenstates", "quench",
                                     "chaos-map", "cut"])
def test_negative_seed_flag_exits_one_before_writing(tmp_path, capsys,
                                                     command):
    point = {"n_bosons": 3, "n_sites": 3, "u": 0.5, "d": 0.5}
    cfg = _write(tmp_path / "c.json",
                 _SWEEP if command in ("chaos-map", "cut") else point)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--seed", "-1"]) == 1
    assert "config error: seed:" in capsys.readouterr().err
    assert not out.exists()


def test_hole_window_missing_the_survival_grid_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path / "c.json", {
        "n_bosons": 3, "n_sites": 3, "u": 0.5, "d": 0.5,
        "observables": ["survival"], "survival_sample_count": 3,
        "time_points": 5, "time_max": 2.0, "hole_window": [5.0, 10.0]})
    out = tmp_path / "out"
    assert main(["quench", "--config", cfg, "--out", str(out)]) == 1
    assert "config error: hole_window:" in capsys.readouterr().err
    assert not out.exists()


def test_failed_point_command_exits_two_without_outputs(tmp_path, capsys):
    # an analytic curve whose fit fails after the traces fails the point
    cfg = _write(tmp_path / "c.json", {
        "n_bosons": 3, "n_sites": 3, "u": 1000.0, "d": 0.0,
        "observables": ["survival"], "survival_sample_count": 1,
        "time_points": 50, "hole_window": [0.5, 100.0],
        "window_halfwidth": 5.0})
    out = tmp_path / "out"
    assert main(["quench", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("point N=3 M=3")
    assert ": error (ValueError: eta must exceed 1" in err
    assert not out.exists()


def test_basis_config_typo_exits_one_before_writing(tmp_path):
    cfg = _write(tmp_path / "c.json",
                 {"n_bosons": 3, "n_sites": 3, "write_state": False})
    out = tmp_path / "out"
    assert main(["basis", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("bad", [{"n_bosons": "3"}, {"n_sites": 0}],
                         ids=["string_size", "zero_sites"])
def test_bad_basis_size_exits_one_naming_its_key(tmp_path, capsys, bad):
    cfg = _write(tmp_path / "c.json", {"n_bosons": 3, "n_sites": 3, **bad})
    out = tmp_path / "out"
    assert main(["basis", "--config", cfg, "--out", str(out)]) == 1
    assert f"config error: {next(iter(bad))}:" in capsys.readouterr().err
    assert not out.exists()


def _same_tree(a: Path, b: Path) -> bool:
    """Whether two directory trees hold the same names and file bytes."""
    cmp = filecmp.dircmp(a, b)
    _, differ, unreadable = filecmp.cmpfiles(a, b, cmp.common_files,
                                             shallow=False)
    return not (cmp.left_only or cmp.right_only or differ or unreadable) and \
        all(_same_tree(a / sub, b / sub) for sub in cmp.common_dirs)


def test_serial_reruns_are_byte_identical(tmp_path):
    cut = _write(tmp_path / "cut.json", {
        "system_sizes": [[4, 4]], "u_values": [0.5],
        "d_values": [0.5, 1.0, 2.0],
        "diagnostics": ["gap_ratio", "pr", "entropy", "imbalance", "survival",
                        "entropy_dynamics", "imbalance_dynamics"],
        "survival_sample_count": 10, "entropy_sample_count": 5,
        "time_points": 50, "time_points_observables": 50,
        "save_traces": True, "save_eigenstate_profiles": True, "seed": 2024})
    quench = _write(tmp_path / "quench.json", {
        "n_bosons": 4, "n_sites": 4, "u": 0.5, "d": 0.5,
        "survival_sample_count": 10, "entropy_sample_count": 5,
        "time_points": 50, "time_points_observables": 50, "seed": 2024})
    for run in ("a", "b"):
        assert main(["quench", "--config", quench, "--out",
                     str(tmp_path / run / "quench")]) == 0
        assert main(["cut", "--config", cut, "--out",
                     str(tmp_path / run / "cut")]) == 0
    assert len(list((tmp_path / "a" / "cut" / "traces").iterdir())) == 18
    assert _same_tree(tmp_path / "a", tmp_path / "b")


def test_spectrum_after_quench_on_a_shared_cache_writes_the_cold_bytes(
        tmp_path, monkeypatch):
    point = {"n_bosons": 4, "n_sites": 4, "u": 0.5, "d": 0.5}
    spectrum = _write(tmp_path / "spectrum.json", point)
    quench = _write(tmp_path / "quench.json", {
        **point, "observables": ["survival"], "survival_sample_count": 6,
        "time_points": 20, "hole_window": [1.0, 50.0]})
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cold_cache"))
    assert main(["spectrum", "--config", spectrum, "--out",
                 str(tmp_path / "cold")]) == 0
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "shared_cache"))
    assert main(["quench", "--config", quench, "--out",
                 str(tmp_path / "quench")]) == 0
    assert main(["spectrum", "--config", spectrum, "--out",
                 str(tmp_path / "warm")]) == 0
    assert _same_tree(tmp_path / "cold", tmp_path / "warm")


def test_console_script_resolves_to_a_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert list(scripts) == ["tiltedbh"]
    module, _, attr = scripts["tiltedbh"].partition(":")
    assert callable(getattr(import_module(module), attr))
