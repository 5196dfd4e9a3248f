"""Monte-Carlo harness: determinism, row layout, aggregation, degeneracy."""

import contextlib
import hashlib
import json
import math
import os
import signal
import time

import numpy as np
import pytest

from dmimo import (
    ChannelTensor,
    ConfigError,
    ExperimentConfig,
    FileSource,
    InvalidInputError,
    Region,
    Scene,
    SceneSource,
    aggregate_result_rows,
    gen_iid_rayleigh,
    read_result_rows,
    run_experiment,
    write_channel_file,
    RngHandle,
)
from dmimo import cli, harness, synth
from dmimo.harness import RESULT_COLUMNS, ResultRow, _stream_id


def small_scene(**overrides):
    params = dict(
        ap_positions=((-0.5, -0.5, 2.0), (3.0, 5.5, 2.0)),
        antennas_per_ap=8,
        region=Region(origin=(0.0, 0.0, 0.8), width=2.5, depth=5.0),
        condition_per_ap=("los", "los"),
        rice_k_db=9.0,
        num_scatterers=6,
        angular_spread_deg=37.0,
        carrier_hz=5.6e9,
        bandwidth_hz=400e6,
    )
    params.update(overrides)
    return Scene(**params)


def scene_config(**overrides):
    fields = dict(
        source=SceneSource(scene=small_scene()),
        m_values=(8, 4),
        n_values=(1, 2),
        rho_db_values=(0.0, 10.0),
        k_values=(2,),
        trials=4,
        seed=123,
        metrics=("svs", "dpc", "zf", "fairness"),
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def mixed_file_config(tmp_path):
    """Three of six file users per trial, where user 4 copies user 1 (a trial
    holding both saturates its spread and fails ZF) and user 5 is all zero (a
    trial holding it cannot be normalized); the other trials are valid."""
    data = gen_iid_rayleigh((1, 1, 6, 8), RngHandle(94, 0)).data.copy()
    data[0, 0, 4] = data[0, 0, 1]
    data[0, 0, 5] = 0.0
    return file_config(
        tmp_path,
        data,
        np.repeat([0, 1], 4),
        m_values=(8, 4),
        rho_db_values=(0.0, 10.0),
        k_values=(3,),
        trials=12,
        seed=3,
    )


def file_config(tmp_path, data, ap_map, **overrides):
    ch = ChannelTensor(data, ap_map)
    path = tmp_path / "source.dmct"
    write_channel_file(ch, path)
    fields = dict(
        source=FileSource(path=str(path)),
        m_values=(8,),
        n_values=(2,),
        rho_db_values=(10.0,),
        k_values=(2,),
        trials=3,
        seed=5,
        metrics=("svs", "dpc", "zf", "fairness"),
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = scene_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.to_csv_text() == b.to_csv_text()
        assert json.dumps(a.aggregates_dict(), sort_keys=True) == json.dumps(
            b.aggregates_dict(), sort_keys=True
        )

    def test_thread_count_does_not_change_results(self, monkeypatch, chunk_pids):
        # one trial per chunk, so that each of four workers runs one of the four
        monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 1)
        cfg = scene_config()
        serial = run_experiment(cfg, workers=1)
        chunk_pids()
        pooled = run_experiment(cfg, workers=4)
        assert len(set(chunk_pids())) == 4
        assert serial.to_csv_text() == pooled.to_csv_text()
        assert json.dumps(serial.aggregates_dict(), sort_keys=True) == json.dumps(
            pooled.aggregates_dict(), sort_keys=True
        )

    def test_seed_changes_results(self):
        base = run_experiment(scene_config())
        other = run_experiment(scene_config(seed=124))
        assert base.to_csv_text() != other.to_csv_text()


class TestRowLayout:
    def test_row_count_and_order(self):
        cfg = scene_config()
        result = run_experiment(cfg)
        cells = 2 * 2 * 2 * 1  # M x N x rho x K
        assert len(result.rows) == cells * cfg.trials * len(cfg.metrics)
        m_order = [cfg.m_values.index(r.m) for r in result.rows]
        assert m_order == sorted(m_order)
        # within one (m, n, rho, k, trial) block metrics keep canonical order
        first = result.rows[: len(cfg.metrics)]
        assert [r.metric for r in first] == list(cfg.metrics)
        assert all(r.trial == 0 for r in first)
        # sweep values appear in config order (M=8 rows before M=4 rows)
        assert result.rows[0].m == 8
        assert result.rows[-1].m == 4

    def test_csv_format(self, tmp_path):
        cfg = scene_config(trials=2, metrics=("svs",))
        result = run_experiment(cfg)
        text = result.to_csv_text()
        lines = text.splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        parts = lines[1].split(",")
        assert len(parts) == 8
        assert parts[0] == "0" and parts[1] == "8" and parts[2] == "1"
        assert parts[4] == "0.0" and parts[5] == "svs"
        float(parts[6])
        assert parts[7] in ("0", "1")
        path = tmp_path / "results.csv"
        result.write_csv(path)
        assert path.read_text() == text

    def test_csv_round_trip(self, tmp_path):
        result = run_experiment(scene_config(trials=2))
        path = tmp_path / "results.csv"
        result.write_csv(path)
        back = read_result_rows(path)
        assert back == result.rows

    def test_read_result_rows_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,the,header\n")
        with pytest.raises(InvalidInputError):
            read_result_rows(bad)
        short = tmp_path / "short.csv"
        short.write_text(",".join(RESULT_COLUMNS) + "\n1,2,3\n")
        with pytest.raises(InvalidInputError):
            read_result_rows(short)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,8,1,2,0.0,capacity,1.5,0", "unknown metric 'capacity'"),
            ("0,8,1,2,0.0,dpc,1.5,2", "degenerate_flag must be 0 or 1, got '2'"),
            ("0,8,1,2,0.0,dpc,1.5,", "degenerate_flag must be 0 or 1, got ''"),
            ("abc,8,1,2,0.0,svs,1.0,0", "trial must be an integer, got 'abc'"),
            ("0,8.0,1,2,0.0,svs,1.0,0", "M must be an integer, got '8.0'"),
            ("0,8,1,2,high,svs,1.0,0", "rho_db must be a number, got 'high'"),
            ("0,8,1,2,nan,svs,1.0,0", "rho_db must be finite, got 'nan'"),
            # a value no run writes: the per-entry bounds a config accepts
            ("-1,0,-2,-3,0.0,svs,1.5,0", "trial must be >= 0, got -1"),
            ("0,0,1,2,0.0,svs,1.5,0", "M must be >= 1, got 0"),
            ("0,8,-2,2,0.0,svs,1.5,0", "N must be >= 1, got -2"),
            ("0,8,1,0,0.0,svs,1.5,0", "K must be >= 1, got 0"),
            ("0,8,1,2,3000.5,svs,1.5,0", "rho_db must lie within ±3000 dB, got '3000.5'"),
            ("0,8,1,2,-1e+300,svs,1.5,0", "rho_db must lie within ±3000 dB, got '-1e+300'"),
            ("0,8,1,2,0.0,svs,x,0", "value must be a number, got 'x'"),
            ("0,8,1,2,0.0,svs,x,1", "value must be a number, got 'x'"),
            ("0,8,1,2,0.0,svs,nan,0", "value must be finite when degenerate_flag is 0, got 'nan'"),
            ("0,8,1,2,0.0,svs,-inf,0", "value must be finite when degenerate_flag is 0, got '-inf'"),
            ("0,8,1,2,0.0,svs,-inf,1", "value must not be -inf, got '-inf'"),
            ("0,8,1,2,0.0,svs,4.5,1", "repeats an earlier (trial, M, N, K, rho_db, metric)"),
            # a field must be spelled as write_csv writes its value
            ("1_0,8,1,2,0.0,svs,1.0,0", "trial must be written '10', got '1_0'"),
            (" \u0663,8,1,2,0.0,svs,1.0,0", "trial must be written '3', got ' \u0663'"),
            ("08,8,1,2,0.0,svs,1.0,0", "trial must be written '8', got '08'"),
            ("1,+8,1,2,0.0,svs,1.0,0", "M must be written '8', got '+8'"),
            ("1,8,01,2,0.0,svs,1.0,0", "N must be written '1', got '01'"),
            ("1,8,1, 2,0.0,svs,1.0,0", "K must be written '2', got ' 2'"),
            ("1,8,1,2,+0.0,svs,1.0,0", "rho_db must be written '0.0', got '+0.0'"),
            ("1,8,1,2,0.00,svs,1.0,0", "rho_db must be written '0.0', got '0.00'"),
            ("1,8,1,2,0.0,svs, 2.5 ,0", "value must be written '2.5', got ' 2.5 '"),
            ("1,8,1,2,0.0,svs,INF,1", "value must be written 'inf', got 'INF'"),
            ("1,8,1,2,0.0,svs,1_5,0", "value must be written '15.0', got '1_5'"),
        ],
    )
    def test_read_result_rows_rejects_bad_fields(self, tmp_path, row, message):
        path = tmp_path / "results.csv"
        good = "0,8,1,2,0.0,svs,3.25,0"
        path.write_text("\n".join([",".join(RESULT_COLUMNS), good, row]) + "\n")
        with pytest.raises(InvalidInputError) as info:
            read_result_rows(path)
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("content", [None, b"\xff\xfe"])
    def test_read_result_rows_rejects_unreadable_file(self, tmp_path, content):
        path = tmp_path / "results.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(InvalidInputError) as info:
            read_result_rows(path)
        assert str(info.value).startswith(f"cannot read results {path}: ")

    def test_read_result_rows_parses_well_formed_file(self, tmp_path):
        path = tmp_path / "results.csv"
        lines = [
            ",".join(RESULT_COLUMNS),
            "0,8,1,2,0.0,svs,inf,1",
            "1,8,1,2,15.0,fairness,2.0,0",
        ]
        path.write_text("\n".join(lines) + "\n")
        assert read_result_rows(path) == (
            ResultRow(0, 8, 1, 2, 0.0, "svs", math.inf, True),
            ResultRow(1, 8, 1, 2, 15.0, "fairness", 2.0, False),
        )


class TestResultGrid:
    """ExperimentResult is the run's grid; rows, records and cells are views of it."""

    def test_run_and_writes_build_no_rows(self, tmp_path, monkeypatch):
        cfg = mixed_file_config(tmp_path)
        outputs = {}
        for name in ("unpatched", "stubbed"):
            if name == "stubbed":

                def no_rows(*args):
                    raise AssertionError("a ResultRow was built")

                monkeypatch.setattr(harness, "ResultRow", no_rows)
            result = run_experiment(cfg)
            result.write_csv(tmp_path / f"{name}.csv")
            result.write_aggregates(tmp_path / f"{name}.json")
            outputs[name] = [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("csv", "json")]
        assert outputs["stubbed"] == outputs["unpatched"]
        assert b",1\n" in outputs["stubbed"][0]  # degenerate rows went through the grid too

    def test_values_and_reasons_are_read_only(self):
        result = run_experiment(scene_config(trials=2))
        shape = (2, 2, 2, 1, 2, 4)  # M, N, rho, K, trial, metric
        for grid in (result.values, result.reasons):
            assert grid.shape == shape
            with pytest.raises(ValueError, match="read-only"):
                grid[0, 0, 0, 0, 0, 0] = 1.0

    def test_cdf_of_the_csv_gives_the_run_cells(self, tmp_path, capsys):
        result = run_experiment(mixed_file_config(tmp_path))
        # cells with saturated tail mass, and cells with NaN rows only counted
        assert any(c.cdf is not None and c.cdf.num_saturated for c in result.cells)
        assert any(c.num_degenerate > (c.cdf.num_saturated if c.cdf else 0) for c in result.cells)
        result.write_csv(tmp_path / "results.csv")
        assert cli.main(["cdf", str(tmp_path / "results.csv"), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        tables = json.loads((tmp_path / "cdf_tables.json").read_text())
        assert tables["cells"] == json.loads(json.dumps(result.aggregates_dict()))["cells"]

    @staticmethod
    def rejection(rows) -> str:
        with pytest.raises(InvalidInputError) as info:
            aggregate_result_rows(rows)
        return str(info.value)

    def test_rows_must_fill_the_grid_in_write_csv_order(self):
        rows = list(run_experiment(scene_config(trials=3)).rows)
        assert len(aggregate_result_rows(rows)) == 2 * 2 * 2 * 4
        last = len(rows)

        def misplaced(number, row):
            return f"result row {number} ({row}) is out of write_csv's order"

        # row 6 missing mid-grid, then the last row missing
        assert self.rejection(rows[:5] + rows[6:]) == misplaced(6, rows[6])
        assert self.rejection(rows[:-1]) == f"result row {last} is missing"
        # row 6 repeated next to itself, then row 1 repeated at the end
        assert self.rejection(rows[:6] + rows[5:]) == misplaced(7, rows[5])
        assert self.rejection(rows + rows[:1]) == misplaced(last + 1, rows[0])
        # rows 4 and 5 swapped
        assert self.rejection(rows[:3] + [rows[4], rows[3]] + rows[5:]) == misplaced(4, rows[4])


class TestAggregates:
    def test_cells_recompute_from_rows(self):
        result = run_experiment(scene_config(trials=6))
        by_key = {}
        for r in result.rows:
            by_key.setdefault((r.m, r.n, r.k, r.rho_db, r.metric), []).append(r)
        assert len(result.cells) == len(by_key)
        for cell in result.cells:
            rows = by_key[(cell.m, cell.n, cell.k, cell.rho_db, cell.metric)]
            valid = [r.value for r in rows if not r.degenerate]
            assert cell.num_trials == len(rows)
            assert cell.num_valid == len(valid)
            if valid:
                assert cell.mean == float(np.mean(valid))
                assert cell.median == float(np.median(valid))
            else:
                assert cell.mean is None and cell.median is None

    def test_aggregates_json_shape(self, tmp_path):
        result = run_experiment(scene_config(trials=2, metrics=("svs", "zf")))
        path = tmp_path / "aggregates.json"
        result.write_aggregates(path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert payload["config"]["trials"] == 2
        assert len(payload["cells"]) == 2 * 2 * 2 * 2  # M x N x rho x metrics
        cell = payload["cells"][0]
        assert set(cell) == {
            "m", "n", "k", "rho_db", "metric", "num_trials", "num_valid",
            "num_degenerate", "mean", "median", "cdf",
        }
        assert len(cell["cdf"]["grid"]) == 512
        assert cell["cdf"]["num_samples"] == 2

    def test_cdf_includes_saturated_tail(self):
        rows = [
            ResultRow(0, 8, 1, 2, 0.0, "svs", 5.0, False),
            ResultRow(1, 8, 1, 2, 0.0, "svs", 7.0, False),
            ResultRow(2, 8, 1, 2, 0.0, "svs", math.inf, True),
        ]
        (cell,) = aggregate_result_rows(rows, grid_points=8)
        assert cell.num_valid == 2
        assert cell.num_degenerate == 1
        assert cell.mean == 6.0
        assert cell.cdf.num_samples == 3
        assert cell.cdf.num_saturated == 1
        assert cell.cdf.probs[-1] == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("grid_points", [2.5, 0, -3, True, "8"])
    def test_bad_grid_points_raise(self, grid_points):
        rows = [ResultRow(0, 8, 1, 2, 0.0, "svs", 5.0, False)]
        with pytest.raises(ConfigError, match="grid_points"):
            aggregate_result_rows(rows, grid_points=grid_points)

    def test_all_nan_cell_has_no_stats(self):
        rows = [
            ResultRow(t, 8, 1, 2, 0.0, "zf", math.nan, True) for t in range(3)
        ]
        (cell,) = aggregate_result_rows(rows)
        assert cell.num_valid == 0
        assert cell.mean is None and cell.median is None and cell.cdf is None

    @pytest.mark.parametrize("value, name", [(math.nan, "NaN"), (-math.inf, "-inf")])
    def test_valid_row_without_a_number_raises(self, value, name):
        rows = [
            ResultRow(0, 8, 1, 2, 0.0, "zf", 5.0, False),
            ResultRow(1, 8, 1, 2, 0.0, "zf", value, False),
        ]
        with pytest.raises(InvalidInputError, match=f"must not contain {name}"):
            aggregate_result_rows(rows)


class TestDegenerateHandling:
    def test_duplicated_file_users_flagged(self, tmp_path):
        rng = np.random.default_rng(90)
        data = (rng.standard_normal((1, 1, 2, 8)) + 1j * rng.standard_normal((1, 1, 2, 8))) / np.sqrt(2)
        data[0, 0, 1] = data[0, 0, 0]
        cfg = file_config(tmp_path, data, np.repeat([0, 1], 4), m_values=(8,), n_values=(2,))
        result = run_experiment(cfg)
        by_metric = {}
        for r in result.rows:
            by_metric.setdefault(r.metric, []).append(r)
        assert all(r.degenerate and r.value == math.inf for r in by_metric["svs"])
        assert all(r.degenerate and math.isnan(r.value) for r in by_metric["zf"])
        assert all(r.degenerate and math.isnan(r.value) for r in by_metric["fairness"])
        # DPC handles a rank-1 pair without failing
        assert all(not r.degenerate for r in by_metric["dpc"])
        reasons = {d.metric: d.reason for d in result.degenerate}
        assert "rank-deficient" in reasons["zf"]
        assert "saturated" in reasons["svs"]
        # every flagged row is enumerated
        flagged = [r for r in result.rows if r.degenerate]
        assert len(result.degenerate) == len(flagged)

    def test_degenerate_rows_survive_csv(self, tmp_path):
        rng = np.random.default_rng(91)
        data = (rng.standard_normal((1, 1, 2, 8)) + 1j * rng.standard_normal((1, 1, 2, 8))) / np.sqrt(2)
        data[0, 0, 1] = data[0, 0, 0]
        cfg = file_config(tmp_path, data, np.repeat([0, 1], 4))
        result = run_experiment(cfg)
        path = tmp_path / "deg.csv"
        result.write_csv(path)
        text = path.read_text()
        assert "inf" in text and "nan" in text
        back = read_result_rows(path)
        assert sum(1 for r in back if r.degenerate) == len(result.degenerate)
        svs_rows = [r for r in back if r.metric == "svs"]
        assert all(r.value == math.inf for r in svs_rows)


    def test_infeasible_layout_flags_only_its_trial(self, monkeypatch):
        # with a 3-candidate rejection budget, trials 0, 1, 2 and 4 cannot place
        # three users 1.5 m apart; trials 3 and 5 place them within budget
        src = SceneSource(scene=small_scene(), min_spacing_m=1.5, max_spacing_m=5.0)
        cfg = scene_config(source=src, k_values=(3,), m_values=(8,), trials=6)
        full = run_experiment(cfg)
        monkeypatch.setattr(synth, "_MAX_PLACEMENT_REJECTS", 3)
        result = run_experiment(cfg)
        failed = {0, 1, 2, 4}
        assert len(result.rows) == len(full.rows)
        for row, ref in zip(result.rows, full.rows):
            if row.trial in failed:
                assert row.degenerate and math.isnan(row.value)
            else:
                assert row == ref
        assert {d.trial for d in result.degenerate} == failed
        assert len(result.degenerate) == sum(r.degenerate for r in result.rows)
        assert all("could not place 3 users" in d.reason for d in result.degenerate)

    def test_provably_infeasible_k_flags_only_its_rows(self):
        # no two users fit 6 m apart in the 2.5 x 5 m region; one user always fits
        src = SceneSource(scene=small_scene(), min_spacing_m=6.0, max_spacing_m=10.0)
        cfg = scene_config(source=src, k_values=(1, 3), m_values=(8,), trials=3)
        result = run_experiment(cfg)
        assert {r.k for r in result.rows if r.degenerate} == {3}
        assert all(r.degenerate for r in result.rows if r.k == 3)
        assert {(d.k, d.trial) for d in result.degenerate} == {(3, t) for t in range(3)}
        assert all("diagonal is only" in d.reason for d in result.degenerate)


class TestChunking:
    """Trials run in chunks; the chunk cap must never change a byte of output."""

    @staticmethod
    def outputs(cfg, workers=1):
        result = run_experiment(cfg, workers=workers)
        return result.to_csv_text(), json.dumps(
            result.aggregates_dict(), indent=2, sort_keys=True
        )

    @staticmethod
    def digest(outputs) -> str:
        """sha256 of the CSV text and the aggregates JSON without its config,
        whose source path differs between runs of the test."""
        csv_text, aggregates = outputs
        body = {k: v for k, v in json.loads(aggregates).items() if k != "config"}
        text = csv_text + json.dumps(body, indent=2, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_outputs_do_not_depend_on_chunk_cap_or_threads(
        self, tmp_path, monkeypatch, chunk_pids
    ):
        # user 4 copies user 1 (trials holding both are ZF rank-deficient);
        # user 5 is all zero (trials holding it cannot be normalized)
        data = gen_iid_rayleigh((1, 1, 6, 8), RngHandle(94, 0)).data.copy()
        data[0, 0, 4] = data[0, 0, 1]
        data[0, 0, 5] = 0.0
        pinned = {
            ("svs", "dpc", "zf", "fairness"): (
                "68ecb1069ed66a8804cb060a8203e0dd15f83edc989eaf7880010fe368f668b5"
            ),
            # a non-canonical subset: rows still come out in canonical metric order
            ("fairness", "svs"): (
                "2016bbe2dff4adc5859aa7a6861ce1fde30b6c95cb0f826e13300ecd9e7fbbb9"
            ),
        }
        for metrics, sha256 in pinned.items():
            cfg = file_config(
                tmp_path,
                data,
                np.repeat([0, 1], 4),
                m_values=(8, 4),
                rho_db_values=(0.0, 10.0),
                k_values=(3,),
                trials=12,
                seed=3,
                metrics=metrics,
            )
            reference = self.outputs(cfg)
            assert self.digest(reference) == sha256, metrics
            result = run_experiment(cfg)
            unnormalizable = {d.trial for d in result.degenerate if "all-zero" in d.reason}
            rank_deficient = {
                d.trial for d in result.degenerate if d.reason.startswith("rank-deficient")
            }
            # both kinds sit mid-chunk at 3 trials per chunk (0-2, 3-5, ...) and at 12
            assert any(t % 3 == 1 for t in unnormalizable)
            assert any(t % 3 == 1 for t in rank_deficient)
            trial_entries = 3 * 8  # K x T*L*M_total
            chunk_pids()
            for cap, chunks in (
                (1, 12),
                (3 * trial_entries, 4),
                (harness.CHUNK_ELEMENTS, 1),
            ):
                monkeypatch.setattr(harness, "CHUNK_ELEMENTS", cap)
                assert len(harness._chunks(cfg, 8)) == chunks
                for workers in (1, 3):
                    assert self.outputs(cfg, workers) == reference, (metrics, cap, workers)
                    # every chunk ran once, and each of min(W, chunks) workers
                    # ran at least one; worker 0 is this process
                    pids = chunk_pids()
                    assert len(pids) == chunks
                    assert len(set(pids)) == min(workers, chunks), (metrics, cap, workers)
                    assert os.getpid() in pids

    def test_mixed_k_outputs_do_not_depend_on_workers(self, tmp_path, monkeypatch, chunk_pids):
        data = gen_iid_rayleigh((1, 1, 6, 8), RngHandle(97, 0)).data
        cfg = file_config(tmp_path, data, np.repeat([0, 1], 4), k_values=(2, 5), trials=3)
        monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 1)
        started = []  # (K, first trial) of each chunk, in the order they start
        work = harness._chunk_worker

        def logged(cfg, draw, blocks, k_idx, trials):
            started.append((cfg.k_values[k_idx], trials.start))
            return work(cfg, draw, blocks, k_idx, trials)

        monkeypatch.setattr(harness, "_chunk_worker", logged)
        reference = self.outputs(cfg)
        # larger K first, trials ascending within a K
        assert started == [(5, 0), (5, 1), (5, 2), (2, 0), (2, 1), (2, 2)]
        chunk_pids()
        # 7 workers: more than the 6 chunks, and more than a small host's CPUs
        for workers in (2, 3, 7):
            assert self.outputs(cfg, workers) == reference, workers
            pids = chunk_pids()
            assert len(pids) == 6
            assert len(set(pids)) == min(workers, 6) and os.getpid() in pids, workers

    def test_chunk_cap_counts_entries_not_slices(self, tmp_path):
        data = gen_iid_rayleigh((1, 1, 2, 8), RngHandle(96, 0)).data
        cfg = file_config(tmp_path, data, np.repeat([0, 1], 4), k_values=(12, 256), trials=200)
        # the paper's sweep: one slice, K = 12 over 128 antennas
        paper, large = harness._chunks(cfg, 1 * 1 * 128)[:4], harness._chunks(cfg, 4096)
        assert [len(trials) for _, trials in paper] == [50, 50, 50, 50]
        # one slice over 4096 antennas: a K = 12 trial holds 49152 entries, K = 256 over 1M
        assert {len(trials) for k_idx, trials in large if k_idx == 0} == {2}
        assert {len(trials) for k_idx, trials in large if k_idx == 1} == {1}

    def test_chunks_are_balanced_capped_and_in_trial_order(self, tmp_path, monkeypatch):
        data = gen_iid_rayleigh((1, 1, 2, 8), RngHandle(95, 0)).data
        for trials in (1, 7, 64, 65, 200):
            cfg = file_config(tmp_path, data, np.repeat([0, 1], 4), k_values=(1, 2), trials=trials)
            for cap_trials in (1, 3, 64, 300):
                # 8 entries per user: a K = 1 trial holds 8 entries, a K = 2 trial 16
                monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 16 * cap_trials)
                chunks = harness._chunks(cfg, 8)
                for k_idx, cap in ((0, 2 * cap_trials), (1, cap_trials)):
                    ranges = [r for k, r in chunks if k == k_idx]
                    sizes = [len(r) for r in ranges]
                    assert [t for r in ranges for t in r] == list(range(trials))
                    assert len(ranges) == math.ceil(trials / cap)
                    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= cap
                assert [k for k, _ in chunks] == sorted(k for k, _ in chunks)

    def test_singular_trial_leaves_its_chunk_intact(self, tmp_path, monkeypatch):
        # user 2 is silent at (t=1, l=0) only: a trial holding it has an exactly
        # singular Gram matrix in that slice and nowhere else
        data = gen_iid_rayleigh((2, 2, 6, 8), RngHandle(95, 0)).data.copy()
        data[1, 0, 2] = 0.0
        cfg = file_config(
            tmp_path, data, np.repeat([0, 1], 4), rho_db_values=(0.0, 10.0), trials=6, seed=1
        )
        assert len(harness._chunks(cfg, 2 * 2 * 8)) == 1
        chunked = run_experiment(cfg)
        monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 1)
        single = run_experiment(cfg)

        def zf_rows(result, trial):
            return [
                r for r in result.rows if r.trial == trial and r.metric in ("zf", "fairness")
            ]

        failed = {d.trial for d in chunked.degenerate if d.metric == "zf"}
        assert failed == {1}
        assert {d.reason for d in chunked.degenerate if d.metric in ("zf", "fairness")} == {
            "rank-deficient slice at (t=1, l=0)"
        }
        for trial in (0, 2, 3, 4, 5):
            rows = zf_rows(chunked, trial)
            assert rows and not any(r.degenerate for r in rows)
            assert rows == zf_rows(single, trial)
        # every metric of every trial, DPC's per-trial share of the slice rates included
        assert chunked.to_csv_text() == single.to_csv_text()


class TestStreamId:
    def test_packs_fields(self):
        assert _stream_id(3, 2, 7, 5, 1) == (3 << 56) | (2 << 48) | (5 << 40) | (1 << 32) | 7
        assert _stream_id(255, 255, 2**32 - 1, 255, 255) == 2**64 - 1

    @pytest.mark.parametrize(
        "field, args",
        [
            ("tag", (256, 0, 0)),
            ("k_idx", (1, 256, 0)),
            ("trial", (1, 0, 2**32)),
            ("trial", (1, 0, -1)),
            ("m_idx", (1, 0, 0, 256)),
            ("n_idx", (1, 0, 0, 0, 256)),
        ],
    )
    def test_rejects_values_wider_than_their_field(self, field, args):
        with pytest.raises(ValueError, match=field):
            _stream_id(*args)


class TestFileSource:
    def test_user_subset_selection(self, tmp_path):
        ch = gen_iid_rayleigh((1, 1, 6, 8), RngHandle(92, 0))
        cfg = file_config(
            tmp_path, ch.data, np.repeat([0, 1], 4), k_values=(2,), trials=2
        )
        result = run_experiment(cfg)
        assert all(r.k == 2 for r in result.rows)
        again = run_experiment(cfg)
        assert result.to_csv_text() == again.to_csv_text()

    def test_k_equal_to_file_users_keeps_its_bytes(self, tmp_path):
        # K = 4 draws every file user, in file order
        data = gen_iid_rayleigh((2, 2, 4, 8), RngHandle(97, 0)).data
        cfg = file_config(
            tmp_path,
            data,
            np.repeat([0, 1], 4),
            m_values=(8, 4),
            rho_db_values=(0.0, 10.0),
            k_values=(2, 4),
        )
        for workers in (1, 2):
            csv_text = run_experiment(cfg, workers=workers).to_csv_text()
            assert hashlib.sha256(csv_text.encode()).hexdigest() == (
                "87281df7686ee8b6d6cba896999cf5e0e1ffea7bd47a48eb1a1c96bb01131a4e"
            )

    def test_k_beyond_file_rejected(self, tmp_path):
        ch = gen_iid_rayleigh((1, 1, 3, 8), RngHandle(93, 0))
        cfg = file_config(tmp_path, ch.data, np.repeat([0, 1], 4), k_values=(4,))
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestFeasibilityChecks:
    # the source has 2 APs of 8 antennas; each message names the first
    # infeasible (M, N) and the rule prep.check_topology applies to it
    def test_too_many_aps(self):
        with pytest.raises(
            ConfigError, match=r"^\(M=8, N=4\) is infeasible: requested 4 APs but the channel has 2$"
        ):
            run_experiment(scene_config(n_values=(4,)))
        with pytest.raises(ConfigError, match=r"^\(M=6, N=3\) is infeasible: requested 3 APs"):
            run_experiment(scene_config(m_values=(6,), n_values=(1, 3)))

    def test_indivisible_m(self):
        with pytest.raises(
            ConfigError, match=r"^\(M=9, N=2\) is infeasible: m_total=9 is not divisible by n_aps=2$"
        ):
            run_experiment(scene_config(m_values=(9,), n_values=(2,)))
        # N must divide M for every (M, N) pair, not just some
        for m_values, n_values in (((8, 9), (2,)), ((7,), (1, 2))):
            m = m_values[-1]
            with pytest.raises(ConfigError, match=rf"^\(M={m}, N=2\) is infeasible: m_total={m} is not"):
                run_experiment(scene_config(m_values=m_values, n_values=n_values))

    def test_per_ap_capacity(self):
        with pytest.raises(
            ConfigError,
            match=r"^\(M=16, N=1\) is infeasible: need W=16 elements per AP but the smallest AP has 8$",
        ):
            run_experiment(scene_config(m_values=(16,), n_values=(1,)))
        with pytest.raises(ConfigError, match=r"^\(M=18, N=2\) is infeasible: need W=9 elements"):
            run_experiment(scene_config(m_values=(8, 18), n_values=(2,)))

    def test_k_beyond_min_m(self):
        with pytest.raises(ConfigError):
            run_experiment(scene_config(m_values=(4, 8), k_values=(6,)))

    def test_k_beyond_min_m_allowed_for_dpc_only(self):
        cfg = scene_config(
            m_values=(4,), n_values=(1,), k_values=(6,), trials=1, metrics=("dpc",)
        )
        result = run_experiment(cfg)
        assert len(result.rows) == 2

    def test_threads_and_type_validation(self):
        with pytest.raises(ConfigError, match="workers must be >= 1"):
            run_experiment(scene_config(), workers=0)
        for workers in (2.5, True, "2"):
            with pytest.raises(ConfigError, match="workers must be an integer"):
                run_experiment(scene_config(), workers=workers)
        # None is the default: every usable CPU
        assert (
            run_experiment(scene_config(), workers=None).to_csv_text()
            == run_experiment(scene_config(), workers=1).to_csv_text()
        )
        with pytest.raises(ConfigError):
            run_experiment({"not": "a config"})


@contextlib.contextmanager
def within_60_s():
    """Raise TimeoutError in the block if it runs longer than 60 s."""

    def expire(signum, frame):
        raise TimeoutError("did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkers:
    """Chunks run in forked workers; a failure in any of them reaches the caller."""

    @staticmethod
    def assert_workers_reaped():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def run_with(monkeypatch, name, before):
        """Run three one-trial chunks on two workers, with `before(in_worker,
        *args)` called before each call of harness.<name>(*args); a run that
        hangs fails after 60 s."""
        parent = os.getpid()
        monkeypatch.setattr(harness, "CHUNK_ELEMENTS", 1)
        real = getattr(harness, name)

        def patched(*args):
            before(os.getpid() != parent, *args)
            return real(*args)

        monkeypatch.setattr(harness, name, patched)
        with within_60_s():
            return run_experiment(scene_config(trials=3), workers=2)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def fail(in_worker, ch):
            if in_worker:  # chunk 1, trial 1, runs in the forked worker
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="^boom$") as info:
            self.run_with(monkeypatch, "normalize", fail)
        assert "in worker 1" in str(info.value.__cause__)
        self.assert_workers_reaped()

    def test_caller_error_ends_the_workers(self, monkeypatch):
        def fail(in_worker, ch):
            if not in_worker:
                raise RuntimeError("boom in the caller")

        with pytest.raises(RuntimeError, match="^boom in the caller$"):
            self.run_with(monkeypatch, "normalize", fail)
        self.assert_workers_reaped()

    def test_worker_that_dies_is_an_error(self, monkeypatch):
        def fail(in_worker, ch):
            if in_worker:
                os._exit(3)

        with pytest.raises(RuntimeError, match="worker 1 exited with code 3"):
            self.run_with(monkeypatch, "normalize", fail)
        self.assert_workers_reaped()

    def test_worker_that_dies_holding_the_counter_is_an_error(self, monkeypatch, tmp_path):
        held = tmp_path / "held"

        def take(in_worker, counter):
            if in_worker:  # after chunk 1: die while holding the counter's lock
                os.lockf(counter, os.F_LOCK, 0)
                held.touch()
                time.sleep(0.2)  # the caller now waits on the lock
                os._exit(3)
            while not held.exists():
                time.sleep(0.01)

        with pytest.raises(RuntimeError, match="worker 1 exited with code 3"):
            self.run_with(monkeypatch, "_next_chunk", take)
        self.assert_workers_reaped()

    def test_caller_error_while_a_worker_pulls_ends_the_workers(self, monkeypatch, tmp_path):
        held = tmp_path / "held"

        def take(in_worker, counter):
            if in_worker:  # hold the counter's lock past the 60-s limit
                os.lockf(counter, os.F_LOCK, 0)
                held.touch()
                time.sleep(120)
            while not held.exists():
                time.sleep(0.01)
            raise RuntimeError("boom in the caller")

        with pytest.raises(RuntimeError, match="^boom in the caller$"):
            self.run_with(monkeypatch, "_next_chunk", take)
        self.assert_workers_reaped()

    def test_counter_hands_out_each_index_once(self):
        # more processes than a small host's CPUs; a lost update repeats an index
        processes, takes = 5, 2000
        counter, log = os.memfd_create("counter"), os.memfd_create("log")
        try:
            os.pwrite(counter, bytes(8), 0)
            with within_60_s():
                pids = []
                for p in range(processes):
                    pid = os.fork()
                    if pid == 0:
                        code = 1
                        try:
                            taken = [harness._next_chunk(counter) for _ in range(takes)]
                            data = np.array(taken, dtype=np.int64).tobytes()
                            os.pwrite(log, data, p * takes * 8)
                            code = 0
                        finally:
                            os._exit(code)
                    pids.append(pid)
                codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
            taken = np.frombuffer(os.pread(log, processes * takes * 8, 0), dtype=np.int64)
        finally:
            os.close(counter)
            os.close(log)
        assert codes == [0] * processes
        assert sorted(taken.tolist()) == list(range(processes * takes))


class TestJointModeThroughHarness:
    def test_joint_mode_runs(self):
        scene = small_scene(num_subcarriers=2)
        cfg = scene_config(
            source=SceneSource(scene=scene),
            allocation_mode="joint",
            trials=2,
            metrics=("dpc", "zf", "fairness"),
        )
        result = run_experiment(cfg)
        assert all(not math.isnan(r.value) for r in result.rows)
