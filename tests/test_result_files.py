"""Result files: the JSON writer's exact bytes, the bounded memory of writing
results and aggregates and of `dmimo cdf`, and the errors of malformed results CSVs."""

import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from dmimo import (
    ConfigError,
    ExperimentConfig,
    InvalidInputError,
    SceneSource,
    aggregate_result_rows,
    default_scene,
    iter_result_rows,
    read_result_rows,
)
from dmimo.cli import main
from dmimo.harness import RESULT_COLUMNS, ExperimentResult, _write_json

HEADER = ",".join(RESULT_COLUMNS)

SCALARS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 5e-324, 0.1, 2**70, -(2**70),
    0, -7, True, False, None, "", "é", "中文", "😀", '"quoted" \\ slash', "tab\tnew\nline\x00\x1f",
    " \x7f",
)


def random_scalar(rng):
    if rng.random() < 0.5:
        return rng.choice(SCALARS)
    return rng.choice((rng.uniform(-1e6, 1e6), rng.randint(-(10**9), 10**9), rng.random()))


def random_key(rng):
    if rng.random() < 0.3:
        return rng.choice(("", "é", "中", "😀", '"', "\\", "\n", "a b", "Z", "a"))
    return "".join(rng.choice("abcxyzAB_09") for _ in range(rng.randint(1, 6)))


def random_value(rng, depth=0):
    roll = rng.random()
    if depth >= 4 or roll < 0.35:
        return random_scalar(rng)
    size = rng.randint(0, 6)
    if roll < 0.55:  # a list of scalars, written by one C-encoder call
        items = [random_scalar(rng) for _ in range(size)]
    elif roll < 0.8:  # a list that may mix scalars and containers
        items = [random_value(rng, depth + 1) for _ in range(size)]
    else:
        return {random_key(rng): random_value(rng, depth + 1) for _ in range(size)}
    return tuple(items) if rng.random() < 0.3 else items


def expected_json(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def test_write_json_gives_json_dumps_bytes_on_random_payloads(tmp_path):
    rng = random.Random(23)
    path = tmp_path / "out.json"
    payloads = [{random_key(rng): random_value(rng) for _ in range(rng.randint(0, 5))} for _ in range(2500)]
    payloads += [{}, {"a": []}, {"a": {}}, {"a": [[], {}, ()]}, {"a": [1, [2, {"b": ()}], "c"]}]
    for payload in payloads:
        _write_json(payload, path)
        assert path.read_bytes() == expected_json(payload), payload


def synthetic_result(m_values=(16, 32, 64, 128), trials=200) -> ExperimentResult:
    """A (M, N=4, rho, K=12, trial, metric) grid of random values, built
    without a sweep. Some slots are degenerate: a few saturated SVS values
    (+inf tail mass), a few ZF NaNs, and one ZF cell that is NaN throughout
    (so its cdf is null)."""
    cfg = ExperimentConfig(
        source=SceneSource(scene=default_scene("los")),
        m_values=m_values,
        n_values=(4,),
        rho_db_values=(0.0, 15.0),
        k_values=(12,),
        trials=trials,
        seed=1,
        metrics=("svs", "dpc", "zf", "fairness"),
    )
    shape = (len(m_values), 1, 2, 1, trials, 4)
    rng = np.random.default_rng(5)
    values = rng.lognormal(size=shape)
    reasons = np.full(shape, None, dtype=object)
    values[0, 0, 0, 0, ::17, 0] = math.inf
    reasons[0, 0, 0, 0, ::17, 0] = "saturated: the smallest singular value is 0"
    values[1, 0, 1, 0, ::5, 2] = math.nan
    reasons[1, 0, 1, 0, ::5, 2] = "ZF gains are rank-deficient"
    values[-1, 0, 0, 0, :, 2] = math.nan
    reasons[-1, 0, 0, 0, :, 2] = "ZF gains are rank-deficient"
    for grid in (values, reasons):
        grid.setflags(write=False)
    return ExperimentResult(config=cfg, values=values, reasons=reasons)


def test_write_json_gives_json_dumps_bytes_on_aggregates(tmp_path):
    payload = synthetic_result(m_values=(16, 32), trials=12).aggregates_dict()
    assert any(cell["cdf"] is None for cell in payload["cells"])
    assert payload["degenerate"]
    _write_json(payload, tmp_path / "aggregates.json")
    assert (tmp_path / "aggregates.json").read_bytes() == expected_json(payload)


def traced_peak_mib(work) -> float:
    """The tracemalloc heap peak of work() above the heap at its start, in MiB."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        work()
        return (tracemalloc.get_traced_memory()[1] - start) / 2**20
    finally:
        tracemalloc.stop()


def test_aggregates_and_cdf_tables_are_written_in_bounded_memory(tmp_path, capsys):
    csv_path, agg_path = tmp_path / "results.csv", tmp_path / "aggregates.json"
    # both steps once on a small grid first: a first call imports and caches
    # what numpy loads lazily, which is no part of a step's own cost
    small = synthetic_result(m_values=(16, 32), trials=3)
    small.write_csv(csv_path)
    small.write_aggregates(agg_path)
    assert main(["cdf", str(csv_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # the paper's sweep size: 4 M x 2 rho x 200 trials x 4 metrics = 6,400 rows
    result = synthetic_result()
    result.write_csv(csv_path)
    assert traced_peak_mib(lambda: result.write_aggregates(agg_path)) <= 2.5
    assert traced_peak_mib(lambda: main(["cdf", str(csv_path), "--out", str(tmp_path)])) <= 2.5
    assert capsys.readouterr().out == f"wrote {tmp_path / 'cdf_tables.json'} (32 cells)\n"
    payload = result.aggregates_dict()
    assert agg_path.read_bytes() == expected_json(payload)
    tables = {"version": 1, "cells": payload["cells"]}
    assert (tmp_path / "cdf_tables.json").read_bytes() == expected_json(tables)


def test_results_csv_is_written_in_bounded_memory(tmp_path):
    path = tmp_path / "results.csv"
    synthetic_result(trials=3).write_csv(path)  # first call: numpy's lazy imports
    # ten times the paper's sweep: 64,000 rows
    result = synthetic_result(trials=2000)
    assert traced_peak_mib(lambda: result.write_csv(path)) <= 2.5
    assert path.read_bytes() == result.to_csv_text().encode()


# a complete (M, N, rho, K, trial, metric) grid: M 8 and 4, 2 trials, svs and dpc
GOOD_ROWS = [
    "0,8,2,2,0.0,svs,3.5,0",
    "0,8,2,2,0.0,dpc,2.25,0",
    "1,8,2,2,0.0,svs,inf,1",
    "1,8,2,2,0.0,dpc,4.0,0",
    "0,4,2,2,0.0,svs,7.5,0",
    "0,4,2,2,0.0,dpc,1.125,0",
    "1,4,2,2,0.0,svs,6.0,0",
    "1,4,2,2,0.0,dpc,0.5,0",
]


def with_rows(rows, header=HEADER) -> bytes:
    return ("\n".join([header, *rows]) + "\n").encode()


def replaced(index, row):
    return with_rows(GOOD_ROWS[:index] + [row] + GOOD_ROWS[index + 1:])


ROW_3 = "ResultRow(trial=1, m=8, n=2, k=2, rho_db=0.0, metric='svs', value=inf, degenerate=True)"
ROW_4 = "ResultRow(trial=1, m=8, n=2, k=2, rho_db=0.0, metric='dpc', value=4.0, degenerate=False)"

# (content, message with {path} for the file); the messages are those the
# reader and aggregator gave before rows were streamed
MALFORMED = {
    "repeated row": (
        with_rows(GOOD_ROWS[:3] + GOOD_ROWS[2:]),
        "{path}:5: repeats an earlier (trial, M, N, K, rho_db, metric)",
    ),
    # each cell's trials must ascend, so the reader keeps only the last one
    "descending trial": (
        with_rows(GOOD_ROWS[2:4] + GOOD_ROWS[:2] + GOOD_ROWS[4:]),
        "{path}:4: trial 0 follows trial 1 of the same (M, N, K, rho_db, metric); "
        "each cell's trials must ascend",
    ),
    "missing mid-grid row": (
        with_rows(GOOD_ROWS[:2] + GOOD_ROWS[3:]),
        f"result row 3 ({ROW_4}) is out of write_csv's order",
    ),
    "missing last row": (with_rows(GOOD_ROWS[:-1]), "result row 8 is missing"),
    "header only": (with_rows([]), "result row 1 is missing"),
    "swapped pair": (
        with_rows(GOOD_ROWS[:2] + [GOOD_ROWS[3], GOOD_ROWS[2]] + GOOD_ROWS[4:]),
        f"result row 3 ({ROW_4}) is out of write_csv's order",
    ),
    "3.50": (replaced(0, "0,8,2,2,0.0,svs,3.50,0"), "{path}:2: value must be written '3.5', got '3.50'"),
    "degenerate -inf": (
        replaced(2, "1,8,2,2,0.0,svs,-inf,1"),
        "{path}:4: value must not be -inf, got '-inf'",
    ),
    "bad header": (
        with_rows(GOOD_ROWS, header="trial,M,N,K,rho,metric,value,degenerate_flag"),
        "{path} does not start with the result header " + HEADER,
    ),
    "not UTF-8": (
        with_rows(GOOD_ROWS).replace(b"1.125", b"1.125\xff"),
        "cannot read results {path}: 'utf-8' codec can't decode byte 0xff in position 180: "
        "invalid start byte",
    ),
    "out of order after a later line error": (
        with_rows(GOOD_ROWS[:2] + GOOD_ROWS[3:5] + ["1,4,2,2,0.0,dpc,x,0"]),
        "{path}:6: value must be a number, got 'x'",
    ),
}


def test_the_good_rows_read_and_aggregate(tmp_path):
    path = tmp_path / "results.csv"
    path.write_bytes(with_rows(GOOD_ROWS))
    assert [str(row) for row in read_result_rows(path)[2:4]] == [ROW_3, ROW_4]
    assert len(aggregate_result_rows(iter_result_rows(path))) == 4


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_csv_gives_one_message_from_both_entry_points(tmp_path, capsys, case):
    content, message = MALFORMED[case]
    path = tmp_path / "results.csv"
    path.write_bytes(content)
    expected = message.format(path=path)
    with pytest.raises(InvalidInputError) as info:
        aggregate_result_rows(read_result_rows(path))
    assert str(info.value) == expected
    out = tmp_path / "cdfs"
    assert main(["cdf", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


def test_a_bad_grid_points_comes_before_an_empty_results_file(tmp_path, capsys):
    path = tmp_path / "results.csv"
    path.write_bytes(with_rows([]))
    with pytest.raises(ConfigError) as info:
        aggregate_result_rows(iter_result_rows(path), grid_points=0)
    assert str(info.value) == "grid_points must be >= 1, got 0"
    out = tmp_path / "cdfs"
    assert main(["cdf", str(path), "--grid-points", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: grid_points must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("m, n", [(8, 3), (4, 8)])
def test_rows_of_a_topology_no_run_draws_are_rejected(tmp_path, capsys, m, n):
    path = tmp_path / "results.csv"
    path.write_bytes(with_rows([GOOD_ROWS[0], f"0,{m},{n},2,0.0,svs,3.5,0"]))
    expected = f"{path}:3: N={n} does not divide M={m}, so no run draws it"
    with pytest.raises(InvalidInputError) as info:
        read_result_rows(path)
    assert str(info.value) == expected
    assert main(["cdf", str(path), "--out", str(tmp_path / "cdfs")]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
