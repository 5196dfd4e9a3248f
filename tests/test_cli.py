"""End-to-end command-line pipeline: synth -> run -> cdf, plus oracle."""

import errno
import json
import os

import pytest

from dmimo import (
    ExperimentConfig,
    SceneSource,
    cli,
    config_to_dict,
    default_scene,
    harness,
    read_channel_file,
    read_result_rows,
)
from dmimo.cli import main


SCENE_OBJ = {
    "ap_positions": [[-0.5, -0.5, 2.0], [3.0, 5.5, 2.0]],
    "antennas_per_ap": 8,
    "region": {"origin": [0.0, 0.0, 0.8], "width": 2.5, "depth": 5.0},
    "condition_per_ap": ["los", "los"],
    "rice_k_db": 9.0,
    "num_scatterers": 6,
    "angular_spread_deg": 37.0,
    "carrier_hz": 5.6e9,
    "bandwidth_hz": 400e6,
    "num_subcarriers": 2,
    "num_snapshots": 1,
}


def write_synth_config(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"scene": SCENE_OBJ, "num_users": 3, "seed": 11}))
    return path


def write_run_config(tmp_path, channel_path):
    path = tmp_path / "experiment.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "source": {"type": "file", "path": str(channel_path)},
                "sweeps": {
                    "m_values": [8],
                    "n_values": [2],
                    "rho_db_values": [0.0, 10.0],
                    "k_values": [2],
                },
                "trials": 3,
                "seed": 21,
                "metrics": ["svs", "dpc", "zf", "fairness"],
            }
        )
    )
    return path


def synth_and_run(tmp_path):
    """(synth config, run config, results.csv) of a synth -> run pipeline."""
    synth_cfg = write_synth_config(tmp_path)
    assert main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "channels")]) == 0
    run_cfg = write_run_config(tmp_path, tmp_path / "channels" / "channel.dmct")
    assert main(["run", "--config", str(run_cfg), "--out", str(tmp_path / "results")]) == 0
    return synth_cfg, run_cfg, tmp_path / "results" / "results.csv"


def write_aggregates(directory, **sweep):
    """An aggregates.json in directory whose config has a scene source and
    the given m_values, n_values, k_values and trials, rho 0 dB and svs."""
    scene = SceneSource(scene=default_scene())
    cfg = ExperimentConfig(scene, rho_db_values=(0.0,), seed=1, metrics=("svs",), **sweep)
    (directory / "aggregates.json").write_text(json.dumps({"config": config_to_dict(cfg)}))


def one_error_line(capsys) -> str:
    """The stderr of a command that failed with one `error:` line and no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestPipeline:
    def test_synth_run_cdf(self, tmp_path, capsys):
        synth_cfg = write_synth_config(tmp_path)
        out1 = tmp_path / "channels"
        assert main(["synth", "--config", str(synth_cfg), "--out", str(out1)]) == 0
        channel = out1 / "channel.dmct"
        assert channel.exists()
        tensor = read_channel_file(channel)
        assert tensor.dims == (1, 2, 3, 16)
        assert tensor.num_aps == 2

        run_cfg = write_run_config(tmp_path, channel)
        out2 = tmp_path / "results"
        assert main(["run", "--config", str(run_cfg), "--out", str(out2)]) == 0
        rows = read_result_rows(out2 / "results.csv", cli._run_config(out2 / "results.csv"))
        assert len(rows) == 2 * 3 * 4  # rho cells x trials x metrics
        payload = json.loads((out2 / "aggregates.json").read_text())
        assert payload["version"] == 1
        assert len(payload["cells"]) == 8

        out3 = tmp_path / "cdfs"
        code = main(
            ["cdf", str(out2 / "results.csv"), "--grid-points", "32", "--out", str(out3)]
        )
        assert code == 0
        tables = json.loads((out3 / "cdf_tables.json").read_text())
        assert len(tables["cells"]) == 8
        finite_cells = [c for c in tables["cells"] if c["cdf"] is not None]
        assert all(len(c["cdf"]["grid"]) == 32 for c in finite_cells)
        capsys.readouterr()

    def test_run_overrides(self, tmp_path, capsys):
        synth_cfg = write_synth_config(tmp_path)
        out1 = tmp_path / "channels"
        main(["synth", "--config", str(synth_cfg), "--out", str(out1)])
        run_cfg = write_run_config(tmp_path, out1 / "channel.dmct")
        out2 = tmp_path / "r2"
        code = main(
            [
                "run",
                "--config", str(run_cfg),
                "--trials", "2",
                "--seed", "99",
                "--allocation-mode", "per-tl",
                "--workers", "2",
                "--out", str(out2),
            ]
        )
        assert code == 0
        # aggregates.json echoes the config the overrides made
        cfg = cli._run_config(out2 / "results.csv")
        assert (cfg.trials, cfg.seed) == (2, 99)
        rows = read_result_rows(out2 / "results.csv", cfg)
        assert max(r.trial for r in rows) == 1
        capsys.readouterr()

    def test_seed_reproducibility(self, tmp_path, capsys):
        synth_cfg = write_synth_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--config", str(synth_cfg), "--out", str(a)])
        main(["synth", "--config", str(synth_cfg), "--out", str(b)])
        assert (a / "channel.dmct").read_bytes() == (b / "channel.dmct").read_bytes()
        c = tmp_path / "c"
        main(["synth", "--config", str(synth_cfg), "--seed", "12", "--out", str(c)])
        assert (a / "channel.dmct").read_bytes() != (c / "channel.dmct").read_bytes()
        capsys.readouterr()


class TestErrors:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_synth_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"scene": "los", "num_users": 2, "bogus": 1}))
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_users", "four"),
            ("num_users", True),
            ("num_users", 2.5),
            ("min_spacing_m", "near"),
            ("max_spacing_m", False),
            ("max_spacing_m", None),
            ("seed", "x"),
            ("seed", True),
            ("seed", 1.5),
        ],
    )
    def test_malformed_synth_field_exits_2(self, tmp_path, capsys, field, value):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"scene": "los", "num_users": 2, field: value}))
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: synth config.{field} must be")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("num_users", 0, "num_users must be >= 1, got 0"),
            ("seed", -1, "seed must be an unsigned 64-bit integer, got -1"),
            ("seed", 2**64, f"seed must be an unsigned 64-bit integer, got {2**64}"),
        ],
    )
    def test_out_of_range_synth_field_exits_2(self, tmp_path, capsys, field, value, message):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"scene": "los", "num_users": 2, field: value}))
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: synth config.{message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", "two"),
            ("trials", True),
            ("trials", 2.5),
            ("seed", 1.5),
            ("seed", None),
            ("m_values", [16, "x"]),
            ("k_values", [True]),
            ("rho_db_values", [0.0, "high"]),
            ("rho_db_values", [3083.0]),
            ("rho_db_values", [-3076.0]),
            ("min_spacing_m", "near"),
            ("min_spacing_m", float("nan")),
            ("max_spacing_m", False),
        ],
    )
    def test_malformed_run_field_exits_2(self, tmp_path, capsys, field, value):
        cfg = {
            "source": {"type": "scene", "scene": "los"},
            "sweeps": {"m_values": [16], "n_values": [1], "rho_db_values": [0.0], "k_values": [2]},
            "trials": 2,
            "seed": 1,
        }
        if field in cfg["sweeps"]:
            cfg["sweeps"][field] = value
        elif field.endswith("spacing_m"):
            cfg["source"][field] = value
        else:
            cfg[field] = value
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "synth"])
    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("antennas_per_ap",), 8.7, "scene.antennas_per_ap"),
            (("num_scatterers",), True, "scene.num_scatterers"),
            (("rice_k_db",), "6", "scene.rice_k_db"),
            (("num_subcarriers",), 2.9, "scene.num_subcarriers"),
            (("ap_positions", 0, 0), "0", "scene.ap_positions[0][0]"),
            (("region", "origin", 2), True, "scene.region.origin[2]"),
            (("region", "width"), "3", "scene.region.width"),
            (("condition_per_ap",), 5, "scene.condition_per_ap"),
        ],
    )
    def test_malformed_scene_field_exits_2(self, tmp_path, capsys, command, path, value, field):
        scene = json.loads(json.dumps(SCENE_OBJ))
        target = scene
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        if command == "synth":
            cfg = {"scene": scene, "num_users": 2, "seed": 1}
        else:
            cfg = {
                "source": {"type": "scene", "scene": scene},
                "sweeps": {"m_values": [8], "n_values": [1], "rho_db_values": [0.0], "k_values": [2]},
                "trials": 1,
                "seed": 1,
            }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be a")
        assert not (tmp_path / "o").exists()

    def test_nan_spacing_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text('{"scene": "los", "num_users": 2, "min_spacing_m": NaN}')
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        expected = f"error: config {path}: min_spacing_m is NaN, which is not standard JSON\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "o").exists()

    # Python's json reads these, but no standard JSON parser does, and a run
    # would copy an infinite spacing into aggregates.json
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_non_standard_json_constant_exits_2(self, tmp_path, capsys, command, constant):
        if command == "synth":
            text, where = '{"scene": "los", "num_users": 2, "max_spacing_m": %s}', "max_spacing_m"
        else:
            text = (
                '{"source": {"type": "scene", "scene": "los"}, "sweeps": {"m_values": [16], '
                '"n_values": [1], "rho_db_values": [0.0, %s], "k_values": [2]}, '
                '"trials": 2, "seed": 1}'
            )
            where = "sweeps.rho_db_values[1]"
        path = tmp_path / "config.json"
        path.write_text(text % constant)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        expected = f"error: config {path}: {where} is {constant}, which is not standard JSON\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("num_users", 70000, "dimension K=70000 exceeds the format's u16 limit 65535"),
            ("num_snapshots", 65536, "dimension T=65536 exceeds the format's u16 limit 65535"),
            ("num_subcarriers", 65536, "dimension L=65536 exceeds the format's u16 limit 65535"),
            ("antennas_per_ap", 32768, "dimension M=65536 exceeds the format's u16 limit 65535"),
            ("num_aps", 257, "AP id 256 exceeds the format's u8 limit 255"),
        ],
    )
    def test_synth_checks_the_file_limits_before_any_work(
        self, tmp_path, capsys, monkeypatch, field, value, message
    ):
        def place_users(*args):
            raise AssertionError("users were placed before the file limits were checked")

        monkeypatch.setattr(cli, "gen_trajectory_users", place_users)
        scene = dict(SCENE_OBJ, num_subcarriers=1)
        cfg = {"scene": scene, "num_users": 2}
        if field == "num_aps":
            scene["ap_positions"] = [[0.1 * i, 0.0, 2.0] for i in range(value)]
            scene["condition_per_ap"] = ["los"] * value
        else:
            (cfg if field == "num_users" else scene)[field] = value
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(cfg))
        code = main(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_repeated_key_exits_2(self, tmp_path, capsys, command):
        if command == "synth":
            text = '{"scene": "los", "num_users": 2, "seed": 1, "num_users": 3}'
        else:
            text = (
                '{"source": {"type": "scene", "scene": "los"}, "sweeps": {"m_values": [16], '
                '"n_values": [1], "rho_db_values": [0.0], "k_values": [2], "k_values": [4]}, '
                '"trials": 2, "seed": 1}'
            )
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        key = "num_users" if command == "synth" else "k_values"
        assert capsys.readouterr().err == f"error: key '{key}' appears more than once in one object\n"
        assert not (tmp_path / "o").exists()

    def test_infeasible_sweep_exits_2(self, tmp_path, capsys):
        synth_cfg = write_synth_config(tmp_path)
        out1 = tmp_path / "channels"
        main(["synth", "--config", str(synth_cfg), "--out", str(out1)])
        cfg = json.loads(write_run_config(tmp_path, out1 / "channel.dmct").read_text())
        cfg["sweeps"]["n_values"] = [3]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        # a failed run removes the --out directories it made, and only those
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o" / "deep")])
        assert code == 2
        assert not (tmp_path / "o").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("mine\n")
        assert main(["run", "--config", str(bad), "--out", str(kept / "new")]) == 2
        assert main(["run", "--config", str(bad), "--out", str(kept)]) == 2
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]
        assert "(M=8, N=3) is infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_points", ["0", "-3"])
    def test_bad_grid_points_exits_2(self, tmp_path, capsys, grid_points):
        results = tmp_path / "results.csv"
        results.write_text(
            "trial,M,N,K,rho_db,metric,value,degenerate_flag\n0,8,2,2,0.0,svs,3.5,0\n"
        )
        write_aggregates(tmp_path, m_values=(8,), n_values=(2,), k_values=(2,), trials=1)
        out = tmp_path / "o"
        code = main(["cdf", str(results), "--grid-points", grid_points, "--out", str(out)])
        assert code == 2
        assert f"grid_points must be >= 1, got {grid_points}" in capsys.readouterr().err
        assert not (out / "cdf_tables.json").exists()

    def test_malformed_results_row_exits_2(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        out = tmp_path / "o"
        header = "trial,M,N,K,rho_db,metric,value,degenerate_flag\n"
        for sweep, rows, message in (
            (
                (16, 4, 12, 1),
                "abc,16,4,12,0.0,svs,1.0,0\n",
                "2: expected the config's row '0,16,4,12,0.0,svs', got 'abc,16,4,12,0.0,svs'",
            ),
            # a degenerate row with a -inf value, which no run writes
            (
                (8, 1, 2, 2),
                "0,8,1,2,0.0,svs,3.5,0\n1,8,1,2,0.0,svs,-inf,1\n",
                "3: value must not be -inf, got '-inf'",
            ),
            # a value no run spells this way
            (
                (8, 1, 2, 1),
                "0,8,1,2,0.0,svs,3.50,0\n",
                "2: value must be written '3.5', got '3.50'",
            ),
        ):
            m, n, k, trials = sweep
            write_aggregates(tmp_path, m_values=(m,), n_values=(n,), k_values=(k,), trials=trials)
            results.write_text(header + rows)
            assert main(["cdf", str(results), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {results}:{message}\n"
            assert not out.exists()

    def test_cdf_on_a_csv_missing_a_line_exits_2(self, tmp_path, capsys):
        *_, results = synth_and_run(tmp_path)
        lines = results.read_text().splitlines(keepends=True)
        del lines[5]  # row 5 of 24: the svs row of trial 1
        results.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "cdfs"
        assert main(["cdf", str(results), "--out", str(out)]) == 2
        # line 6 now holds row 6, the dpc row of trial 1, where row 5 belongs
        assert one_error_line(capsys) == (
            f"error: {results}:6: expected the config's row '1,8,2,2,0.0,svs', "
            "got '1,8,2,2,0.0,dpc'\n"
        )
        assert not (out / "cdf_tables.json").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_channel_file_exits_2(self, tmp_path, capsys, kind):
        channel = tmp_path / "channel.dmct"
        if kind == "directory":
            channel.mkdir()
        run_cfg = write_run_config(tmp_path, channel)
        out = tmp_path / "o"
        assert main(["run", "--config", str(run_cfg), "--out", str(out)]) == 2
        code = errno.ENOENT if kind == "missing" else errno.EISDIR
        assert one_error_line(capsys).startswith(f"error: [Errno {code}] ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "run", "cdf"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, monkeypatch, command):
        synth_cfg, run_cfg, results = synth_and_run(tmp_path)
        capsys.readouterr()

        def work(*args, **kwargs):
            raise AssertionError("the work ran before --out was made")

        # an unusable --out fails before any work runs
        monkeypatch.setattr(cli, "run_experiment", work)
        monkeypatch.setattr(cli, "geometric_link_blocks", work)
        monkeypatch.setattr(cli, "aggregate_result_rows", work)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        args = {
            "synth": ["synth", "--config", str(synth_cfg)],
            "run": ["run", "--config", str(run_cfg)],
            "cdf": ["cdf", str(results)],
        }[command]
        assert main(args + ["--out", str(taken)]) == 2
        assert one_error_line(capsys) == f"error: [Errno {errno.EEXIST}] File exists: '{taken}'\n"
        assert taken.read_text() == "a file\n"

    def test_channel_file_truncated_after_the_scan_exits_2(self, tmp_path, capsys, monkeypatch):
        synth_cfg = write_synth_config(tmp_path)
        assert main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "channels")]) == 0
        channel = tmp_path / "channels" / "channel.dmct"
        size = channel.stat().st_size
        capsys.readouterr()
        scanned = harness._trial_source

        def scan_then_truncate(cfg):
            source = scanned(cfg)
            os.truncate(channel, size - 8)
            return source

        monkeypatch.setattr(harness, "_trial_source", scan_then_truncate)
        run_cfg = write_run_config(tmp_path, channel)
        assert main(["run", "--config", str(run_cfg), "--out", str(tmp_path / "o")]) == 2
        err = one_error_line(capsys)
        assert err.startswith(f"error: file truncated: header promises {size} bytes")
        assert err.endswith(f"found {size - 8}\n")
        assert not (tmp_path / "o").exists()

    def test_channel_file_resynthesized_after_the_scan_exits_2(self, tmp_path, capsys, monkeypatch):
        # another seed gives a file of the same dims and size but other users
        synth_cfg = write_synth_config(tmp_path)
        out = tmp_path / "channels"
        assert main(["synth", "--config", str(synth_cfg), "--out", str(out)]) == 0
        channel = out / "channel.dmct"
        scanned = harness._trial_source

        def scan_then_resynthesize(cfg):
            source = scanned(cfg)
            assert main(["synth", "--config", str(synth_cfg), "--seed", "12", "--out", str(out)]) == 0
            return source

        monkeypatch.setattr(harness, "_trial_source", scan_then_resynthesize)
        run_cfg = write_run_config(tmp_path, channel)
        capsys.readouterr()
        assert main(["run", "--config", str(run_cfg), "--out", str(tmp_path / "o")]) == 2
        err = one_error_line(capsys)
        assert err == f"error: {channel} changed after it was checked\n"
        assert not (tmp_path / "o").exists()

    def test_negative_oracle_seed_exits_2(self, capsys):
        assert main(["oracle", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: seed must be >= 0, got -1")
        assert captured.out == ""

    def test_bad_workers_exits_2(self, tmp_path, capsys):
        synth_cfg = write_synth_config(tmp_path)
        main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "channels")])
        run_cfg = write_run_config(tmp_path, tmp_path / "channels" / "channel.dmct")
        out = tmp_path / "o"
        code = main(["run", "--config", str(run_cfg), "--workers", "0", "--out", str(out)])
        assert code == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not (out / "results.csv").exists()


class TestOracle:
    def test_selfcheck_passes(self, capsys):
        assert main(["oracle", "--seed", "2025"]) == 0
        out = capsys.readouterr().out
        assert "PASS dpc-per-slice-vs-tight-tol" in out
        assert "PASS dpc-damped-step-vs-joint-ascent" in out
        assert "PASS zf-gains-vs-svd-built-matrix" in out
        assert "FAIL" not in out
