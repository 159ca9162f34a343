"""Workloads: the generated config of each, and how one round calls the library.

The seed reaches the library only through the ``seed`` field of the
generated config.  ``small=True`` gives the same workload on a chain small
enough for the self-test.
"""

from __future__ import annotations

ANCHORS = {"chaotic": (0.5, 0.5), "regular": (0.5, 4.0)}

_DIAGNOSTICS = ["gap_ratio", "pr", "entropy", "imbalance", "survival",
                "entropy_dynamics", "imbalance_dynamics"]

_ENSEMBLE = {"occupation_cap": 3, "window_halfwidth": 0.4,
             "reference_u": 0.5, "reference_d": 0.8}


def chaos_map_config(seed: int, small: bool = False) -> dict:
    size = 4 if small else 7
    return {
        "system_sizes": [[size, size]],
        "u_values": [0.5, 2.0] if small else [0.1, 0.25, 0.5, 1.0, 1.5, 2.0,
                                              3.5, 6.0],
        "d_values": [0.5, 4.0] if small else [0.1, 0.25, 0.5, 1.0, 2.0, 3.0,
                                              4.0, 8.0],
        "diagnostics": ["gap_ratio"],
        "edge_discard": 0.1,
        "workers": 1,
        "seed": seed,
    }


def chaos_map_parallel_config(seed: int, small: bool = False) -> dict:
    """The shipped 6x6 quick map (144 points at dim 462)."""
    values = [0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.2, 3.3, 5.0, 10.0]
    if small:
        values = [0.5, 4.0]
    size = 4 if small else 6
    return {"system_sizes": [[size, size]], "u_values": values,
            "d_values": values, "diagnostics": ["gap_ratio"],
            "edge_discard": 0.1, "seed": seed}


def cut_config(seed: int, cache_dir: str, small: bool = False) -> dict:
    """The shipped tilt cut at N = M = 7, on every other one of its tilts."""
    cfg = {
        "system_sizes": [[4, 4]] if small else [[7, 7]],
        "u_values": [0.5],
        "d_values": [0.4, 3.2] if small else [0.01, 0.8, 1.6, 2.4, 3.2],
        "diagnostics": list(_DIAGNOSTICS),
        "survival_sample_count": 4 if small else 200,
        "entropy_sample_count": 3 if small else 50,
        "imbalance_max_states": None,
        "time_points": 400,
        "time_points_observables": 200,
        "smoothing_window": 9,
        "hole_window": [20.0, 1000.0],
        "save_traces": True,
        "save_eigenstate_profiles": True,
        "cache_dir": cache_dir,
        "seed": seed,
    }
    cfg.update(_ENSEMBLE)
    return cfg


def quench_config(seed: int, small: bool = False) -> dict:
    """The shipped chaotic 8x8 quench with 64 observable times instead of 200."""
    size = 5 if small else 8
    cfg = {
        "n_bosons": size, "n_sites": size, "u": 0.5, "d": 0.5,
        "observables": ["survival", "entropy", "imbalance"],
        "survival_sample_count": 6 if small else 200,
        "entropy_sample_count": 4 if small else 50,
        "time_min": 0.1, "time_max": 10000.0,
        "time_points": 400, "time_points_observables": 64,
        "smoothing_window": 9, "hole_window": [20.0, 1000.0],
        "include_analytic": True,
        "seed": seed,
    }
    cfg.update(_ENSEMBLE)
    return cfg


# name -> entry point: a library sweep runner, or the command line
WORKLOADS = {
    "chaos_map": "run_chaos_map",
    "cut_7x7": "run_cut",
    "quench_8x8_warm": "cli",
    "chaos_map_parallel": "cli",
}


def cli_argv(workload: str, config_path: str, out_dir: str) -> list:
    if workload == "quench_8x8_warm":
        return ["quench", "--config", config_path, "--out", out_dir]
    return ["chaos-map", "--config", config_path, "--out", out_dir,
            "--workers", "2"]
