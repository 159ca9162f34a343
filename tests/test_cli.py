import filecmp
import json
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from tiltedbh.cli import main
from tiltedbh.config import SweepConfig, basis_config, point_config


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
        assert config.to_dict() == SweepConfig.from_dict(
            config.to_dict()).to_dict()
    elif command == "basis":
        n, m, own = basis_config(raw)
        assert (n, m) == (raw["n_bosons"], raw["n_sites"])
    else:
        config, _ = point_config(raw, command)
        assert config.system_sizes == [[raw["n_bosons"], raw["n_sites"]]]
        assert (config.u_values, config.d_values) == ([raw["u"]], [raw["d"]])


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
                                 {"time_max_observables": 0.05},
                                 {"observables": ["entropy", "spin"]},
                                 {"observables": []}],
                         ids=["typo", "even_window", "negative_time",
                              "workers", "save_traces",
                              "save_eigenstate_profiles", "boolean_seed",
                              "fractional_integer", "string_list",
                              "infinite_energy", "string_size",
                              "string_flag", "numeric_cache_dir",
                              "negative_energy", "zero_sites",
                              "string_energy", "negative_seed",
                              "zero_vector_limit",
                              "observable_time_below_min",
                              "unknown_observable", "no_observables"])
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
                                 {"time_max": 0.05},
                                 [_SWEEP]],
                         ids=["string_flag", "string_size",
                              "fractional_integer", "infinite_energy",
                              "negative_seed", "zero_vector_limit",
                              "time_max_below_min", "json_array"])
def test_bad_sweep_config_exits_one_before_writing(tmp_path, capsys, bad):
    cfg = _write(tmp_path / "c.json",
                 {**_SWEEP, **bad} if isinstance(bad, dict) else bad)
    out = tmp_path / "out"
    assert main(["cut", "--config", cfg, "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


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


def test_failed_point_command_exits_two_without_outputs(tmp_path, capsys):
    cases = [
        # a hole window holding no grid time fails the point, not the config
        ({"n_bosons": 3, "n_sites": 3, "u": 0.5, "d": 0.5,
          "observables": ["survival"], "survival_sample_count": 3,
          "time_points": 5, "time_max": 2.0, "hole_window": [5.0, 10.0]},
         "WindowEmptyError"),
        # so does an analytic curve whose fit fails after the traces
        ({"n_bosons": 3, "n_sites": 3, "u": 1000.0, "d": 0.0,
          "observables": ["survival"], "survival_sample_count": 1,
          "time_points": 50, "hole_window": [0.5, 100.0],
          "window_halfwidth": 5.0},
         "ValueError: eta must exceed 1"),
    ]
    for i, (payload, error) in enumerate(cases):
        cfg = _write(tmp_path / f"c{i}.json", payload)
        out = tmp_path / f"out{i}"
        assert main(["quench", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("point N=3 M=3") and f": error ({error}" in err
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


def test_console_script_resolves_to_a_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert list(scripts) == ["tiltedbh"]
    module, _, attr = scripts["tiltedbh"].partition(":")
    assert callable(getattr(import_module(module), attr))
