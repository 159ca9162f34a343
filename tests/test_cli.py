import json
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
                                 {"time_min": -1}],
                         ids=["typo", "even_window", "negative_time"])
def test_bad_point_config_exits_one_before_writing(tmp_path, capsys, command,
                                                   bad):
    cfg = _write(tmp_path / "c.json", {"n_bosons": 3, "n_sites": 3,
                                       "u": 0.5, "d": 0.5, **bad})
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_failed_point_command_exits_two_without_outputs(tmp_path, capsys):
    # a hole window holding no grid time fails the point, not the config
    cfg = _write(tmp_path / "c.json", {
        "n_bosons": 3, "n_sites": 3, "u": 0.5, "d": 0.5,
        "observables": ["survival"], "survival_sample_count": 3,
        "time_points": 5, "time_max": 2.0, "hole_window": [5.0, 10.0]})
    out = tmp_path / "out"
    assert main(["quench", "--config", cfg, "--out", str(out)]) == 2
    assert "WindowEmptyError" in capsys.readouterr().err
    assert not out.exists()


def test_basis_config_typo_exits_one_before_writing(tmp_path):
    cfg = _write(tmp_path / "c.json",
                 {"n_bosons": 3, "n_sites": 3, "write_state": False})
    out = tmp_path / "out"
    assert main(["basis", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()
