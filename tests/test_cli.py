import json
import math
import pathlib

import pytest

from heatloc import bench
from heatloc.cli import main

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
HUGE = 10**400  # a JSON integer beyond float range


def write_scenario(tmp_path, **overrides):
    doc = {
        "name": "cli",
        "dim": 1,
        "domain_lo": [0.0],
        "domain_hi": [2 * math.pi],
        "s": 2,
        "source_mode": "explicit",
        "source_positions": [[1.2], [4.0]],
        "n_sensors": 12,
        "grid_size": 64,
        "method": "refinement",
        "refinement": {"max_rounds": 6, "solver": {"max_iters": 20000}},
        "source_seed": 1,
        "noise_seed": 1,
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCli:
    def test_simulate_then_solve(self, tmp_path):
        cfg = write_scenario(tmp_path)
        sim_dir = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(sim_dir)]) == 0
        measurements = sim_dir / "measurements.csv"
        assert measurements.exists()
        lines = measurements.read_text().strip().split("\n")
        assert lines[0] == "index,value" and len(lines) == 13

        solve_dir = tmp_path / "solve"
        code = main(
            [
                "solve",
                "--config",
                cfg,
                "--measurements",
                str(measurements),
                "--out",
                str(solve_dir),
            ]
        )
        assert code in (0, 2)
        est = json.loads((solve_dir / "estimate.json").read_text())
        found = sorted(p[0] for p in est["positions"])
        assert abs(found[0] - 1.2) < 0.05 and abs(found[1] - 4.0) < 0.05

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"snr_db": 30.0}, {"method": "baseline", "n_sensors": 16}],
        ids=["noiseless", "noisy", "baseline"],
    )
    def test_solve_never_builds_the_truth(self, tmp_path, monkeypatch, overrides):
        # with the truth builders disabled, solve writes the same estimate
        # and returns the same exit code
        cfg = write_scenario(tmp_path, **overrides)
        sim_dir = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(sim_dir)]) == 0
        argv = ["solve", "--config", cfg, "--measurements", str(sim_dir / "measurements.csv")]
        code = main(argv + ["--out", str(tmp_path / "open")])

        def forbidden(*args, **kwargs):
            raise AssertionError("solve built the ground truth")

        monkeypatch.setattr(bench, "build_truth", forbidden)
        monkeypatch.setattr(bench, "synthesize", forbidden)
        assert main(argv + ["--out", str(tmp_path / "blind")]) == code
        estimate = (tmp_path / "blind" / "estimate.json").read_bytes()
        assert estimate == (tmp_path / "open" / "estimate.json").read_bytes()

    def test_bench_single(self, tmp_path):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "bench"
        code = main(["bench", "--config", cfg, "--out", str(out)])
        assert code in (0, 2)
        assert (out / "cli" / "record.json").exists()
        assert (out / "cli" / "run_meta.json").exists()

    def test_bench_off_grid_config_converges(self, tmp_path):
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "noiseless_1d_off_grid.json"
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        rec = json.loads((out / "noiseless_1d_off_grid" / "record.json").read_text())
        assert rec["refinement_stopped"] and rec["inner_solves_converged"]
        assert rec["schema_version"] == 4

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in CONFIGS.glob("*.json") if p.name != "certify_1d.json")
    )
    def test_bench_exits_zero_on_shipped_config(self, tmp_path, name):
        # every shipped scenario config stops by the rule with converged inner
        # solves: the gate that keeps configs/sweep_2d_snr.json green
        assert main(["bench", "--config", str(CONFIGS / name), "--out", str(tmp_path)]) == 0

    def test_bench_sweep(self, tmp_path):
        doc = json.loads(open(write_scenario(tmp_path)).read())
        doc["snr_db"] = None
        doc["sweep"] = [
            {"name": "a", "snr_db": 30.0},
            {"name": "b", "snr_db": 20.0},
        ]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(["bench", "--config", str(path), "--out", str(out)])
        assert code in (0, 2)
        assert (out / "a" / "record.json").exists()
        assert (out / "b" / "record.json").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "dim": 5}))
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, measurements",
        [
            ("{not json", None),
            ("[1, 2]", None),
            ({"s": "3"}, None),
            ({"domain_lo": 0.0}, None),
            ({"refinement": {"solver": {"max_iters": 0}}}, None),
            # every sl0 case is an unknown key: the SL0 settings are constants
            ({"method": "baseline", "sl0": {"step_mu": -1}}, None),
            ({"method": "baseline", "sl0": {"bogus": 1}}, None),
            # every initial_points_per_dim case is an unknown key: the start grid is a constant
            ({"refinement": {"initial_points_per_dim": 0}}, None),
            ({"refinement": {"max_rounds": 0}}, None),
            ({"sweep": [5]}, None),
            ({}, "index,value\n0,0.5\n1,abc\n"),
            ({"n_sensors": 12.5}, None),
            ({"grid_size": 64.5}, None),
            ({"s": True, "source_positions": [[1.2]]}, None),
            ({"refinement": {"stop_tol": 1e-6}}, None),
            ({"refinement": {"max_rounds": 2.5}}, None),
            ({"method": "baseline", "sl0": {"inner_iters": 2.5}}, None),
            ({"refinement": {"max_rounds": True}}, None),
            ({"refinement": {"solver": {"max_iters": True}}}, None),
            ({"refinement": {"initial_points_per_dim": 15.5}}, None),
            ({"snr_db": 30.0, "refinement": {"lasso_lambda": True}}, None),
            ({"snr_db": 30.0, "refinement": {"lasso_lambda": -1e-3}}, None),
            ({"refinement": {"lasso_lambda": 0.0}}, None),
            ({"rho": True}, None),
            ({"snr_db": True}, None),
            ({"method": "baseline", "sl0": {"sigma_min": 0.0}}, None),
            ({"amplitudes": [math.nan, 1.0]}, None),
            ({"domain_hi": [math.inf]}, None),
            ({"source_positions": [[math.nan], [4.0]]}, None),
            ({"rho": math.nan}, None),
            ({"rho": math.inf}, None),
            ({"snr_db": math.nan}, None),
            ({"amplitudes": [0.0, 0.0], "snr_db": 30.0}, None),
            ({"source_positions": [[1e3], [2e3]], "snr_db": 30.0}, None),
            ({}, "index,value\n" + "".join(f"{i},{'nan' if i == 3 else 0.5}\n" for i in range(12))),
            ({}, "index,value\n" + "".join(f"{i},{'inf' if i == 3 else 0.5}\n" for i in range(12))),
            ({"snr_db": 30.0}, "index,value\n" + "".join(f"{i},0\n" for i in range(12))),
            ({"noise_seed": -3}, None),
            ({"source_seed": 2**64}, None),
            ({"sweep": []}, None),
            ({"eval_mesh": 256}, None),
            ({"schema_version": 4}, None),
            ({"rho": HUGE}, None),
            ({"snr_db": HUGE}, None),
            ({"min_separation": HUGE}, None),
            ({"domain_hi": [HUGE]}, None),
            ({"amplitudes": [HUGE, 1]}, None),
            ({"source_positions": [[HUGE], [4]]}, None),
            ({"n_sensors": HUGE}, None),
            ({"n_times": HUGE}, None),
            ({"snr_db": 30.0, "refinement": {"lasso_lambda": HUGE}}, None),
            ({"refinement": {"solver": {"tol_primal": HUGE}}}, None),
            ({"refinement": {"initial_points_per_dim": HUGE}}, None),
            ({"n_sensors": 10**20}, None),
            ({"n_times": 10**20}, None),
            ({"refinement": {"initial_points_per_dim": 10**20}}, None),
            ({"n_sensors": 10**17}, None),
            ({"source_mode": "off_grid", "min_separation": "a"}, None),
            ({"source_mode": "off_grid", "min_separation": math.nan}, None),
            ({"source_mode": "off_grid", "min_separation": -1.0}, None),
            ({"method": "baseline", "grid_size": 8}, None),
            ({"sweep": [{"name": "a"}, {"name": "a"}]}, None),
            ({"sweep": [{"snr_db": 30.0}, {"snr_db": 20.0}]}, None),
            ({"name": "../escaped"}, None),
            ({"name": "a/b"}, None),
            ({"name": "a\\b"}, None),
            ({"name": "a\0b"}, None),
            ({"name": ""}, None),
            ({"name": "."}, None),
            ({"name": ".."}, None),
            ({"name": 5}, None),
        ],
        ids=[
            "malformed_json", "json_list", "string_count", "scalar_domain",
            "solver_max_iters_0", "sl0_negative_step", "sl0_unknown_key",
            "initial_points_0", "max_rounds_0", "sweep_entry_not_object",
            "non_numeric_measurement", "fractional_sensor_count",
            "fractional_grid_size", "bool_source_count", "removed_stop_tol",
            "fractional_max_rounds", "fractional_sl0_inner_iters", "bool_max_rounds",
            "bool_solver_max_iters", "fractional_initial_points", "bool_lasso_lambda",
            "negative_lasso_lambda", "zero_lasso_lambda", "bool_rho", "bool_snr_db",
            "sl0_zero_sigma_min", "nan_amplitude", "infinite_domain_bound", "nan_position",
            "nan_rho", "infinite_rho", "nan_snr_db", "zero_amplitudes_with_noise",
            "sources_beyond_every_sensor_with_noise",
            "nan_measurement", "infinite_measurement", "zero_measurements_universal_penalty",
            "negative_noise_seed", "seed_beyond_uint64", "empty_sweep", "removed_eval_mesh",
            "removed_schema_version",
            "huge_int_rho", "huge_int_snr_db", "huge_int_min_separation", "huge_int_domain_hi",
            "huge_int_amplitude", "huge_int_position", "huge_int_sensor_count", "huge_int_time_count",
            "huge_int_lasso_lambda", "huge_int_solver_tol", "huge_int_initial_points",
            "unaddressable_sensor_count", "unaddressable_time_count", "unaddressable_initial_points",
            "unallocatable_sensor_count",
            "string_min_separation", "nan_min_separation", "negative_min_separation",
            "baseline_more_samples_than_grid_points",
            "repeated_sweep_name", "sweep_inheriting_one_name", "parent_dir_name", "slash_name",
            "backslash_name", "nul_name", "empty_name", "dot_name", "dot_dot_name", "non_string_name",
        ],
    )
    def test_bad_inputs_are_config_errors(self, tmp_path, capsys, config, measurements):
        # bench (or solve, given measurements) exits 1 with a message, not a traceback
        path = pathlib.Path(write_scenario(tmp_path, **({} if isinstance(config, str) else config)))
        if isinstance(config, str):
            path.write_text(config)
        argv = ["bench", "--config", str(path), "--out", str(tmp_path / "o")]
        if measurements is not None:
            csv = tmp_path / "measurements.csv"
            csv.write_text(measurements)
            argv = ["solve", "--measurements", str(csv)] + argv[1:]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert main(["bench", "--config", path, "--out", str(tmp_path / "o"), "--seed", "-1"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"refinement": {"bogus": 1}},
            {"method": "baseline", "sl0": {"bogus": 1}},
        ],
        ids=["refinement_unknown_key", "sl0_unknown_key"],
    )
    def test_simulate_rejects_bad_method_section(self, tmp_path, capsys, config):
        # simulate checks the method section as bench does, before writing anything
        path, out = write_scenario(tmp_path, **config), tmp_path / "o"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_certify(self, tmp_path):
        doc = {
            "lam": 1 / 16,
            "m": 16,
            "p_jackson": 4,
            "dim": 1,
            "mesh_points": 1024,
            "source_positions": [[0.21]],
            "source_amplitudes": [1.0],
            "i0": 0,
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "cert_out"
        assert main(["certify", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "certificate_report.json").read_text())
        assert report["feasible"] is True
        assert report["sigma"] > 0 and 0 < report["tau"] <= 1
        lines = (out / "certificate.csv").read_text().strip().split("\n")
        assert lines[0] == "x,certificate"
        assert len(lines) == 1 + 1024

    def test_certify_bad_values_are_config_errors(self, tmp_path, capsys):
        cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "certify_1d.json"
        shipped = json.loads(cfg.read_text())
        # without p_jackson, whose default m // 4 needs an integer m
        no_p_jackson = {k: v for k, v in shipped.items() if k != "p_jackson"}
        docs = [no_p_jackson | {"m": m} for m in ("16", None, [16])]
        for override in (
            {"rho": 0.5},
            {"m": 0},
            {"mesh_point": 64},
            {"quadrature_points": 4096},
            {"mesh_points": 1},
            {"p_jackson": 2.5},
            {"i0": 5},
            {"i0": -1},
            {"lam": "0.0625"},
            {"lam": True},
            {"eps": [0.1]},
            {"rho": "1.05"},
            {"lam": math.nan},
            {"lam": math.inf},
            {"eps": math.nan},
            {"eps": math.inf},
            {"rho": math.nan},
            {"rho": math.inf},
            {"lam": HUGE},
            {"eps": HUGE},
            {"rho": HUGE},
            {"source_positions": [[HUGE], [0.31]]},
        ):
            docs.append(shipped | override)
        for doc in docs:
            path = tmp_path / "cert.json"
            path.write_text(json.dumps(doc))
            assert main(["certify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
            assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
