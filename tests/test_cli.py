import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import blochvar
from blochvar import basis_for, cli, engine, regions, relations
from blochvar.cli import run
from blochvar.errors import NumericsError
from blochvar.sampling import SampleConfig


def _run(args):
    return run(args)


def test_basis_qubit_json(tmp_path):
    out = tmp_path / "b2.json"
    code, report = _run(["basis", "--dim", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert len(payload["generators"]) == 3
    assert payload["d"] == []
    assert payload["f"] == [[1, 2, 3, 1.0]]


def test_basis_qutrit_lists_tensors(capsys):
    code, report = _run(["basis", "--dim", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.split("\nbasis dim=")[0])
    assert payload["n_generators"] == 8
    assert len(payload["f"]) > 0 and len(payload["d"]) > 0
    assert payload["algebra_residual"] < 1e-11


def test_basis_alias_and_csv(tmp_path):
    out = tmp_path / "b3.csv"
    code, _ = _run(["structure-consts", "--dim", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,j,k,l,value"
    assert any(line.startswith("f,1,2,3,") for line in lines)
    assert any(line.startswith("d,1,1,8,") for line in lines)


def test_basis_dim_out_of_range_exits_2():
    for dim in ("1", "17", "2.0"):
        with pytest.raises(SystemExit) as err:
            _run(["basis", "--dim", dim])
        assert err.value.code == 2


def test_basis_runs_at_dim_cap(tmp_path):
    out = tmp_path / "b16.csv"
    code, report = _run(["basis", "--dim", "16", "--format", "csv", "--out", str(out)])
    assert code == 0
    assert report["n_generators"] == 255
    assert report["algebra_residual"] < 1e-11


# Each case's last entry is (checks, saturated, repr(worst_margin),
# repr(max_abs_margin)) at --samples 60 --seed 11: the equivalence oracle
# that pins every relation's report bit for bit.
_VERIFY_CASES = [
    ("triangle", [], (60, 0, "0.0001263849203851919", "1.6689901015814201")),
    ("theorem1", [], (60, 0, "1.876137637973896e-05", "0.8509320311150705")),
    ("mixed-limit", [], (60, 60, "-4.440892098500626e-16", "4.440892098500626e-16")),
    ("pure-limit", [], (60, 0, "2.152736703724123e-05", "0.9147899634357856")),
    ("unit-vector", [], (60, 0, "2.1527367038531864e-05", "0.9147899634357851")),
    (
        "three-obs-equality",
        ["--theta-ab", "0.7853981633974483"],
        (60, 60, "-6.661338147750939e-16", "8.881784197001252e-16"),
    ),
    ("appendix-b", [], (60, 60, "-8.881784197001252e-16", "8.881784197001252e-16")),
    ("appendix-c", ["--dim", "3"], (60, 0, "0.013823437363337939", "0.24872894013263963")),
    ("robertson", [], (60, 0, "2.2305296556668353e-05", "0.8715808448041095")),
    ("state-dependent", [], (120, 120, "-1.9984014443252818e-15", "1.9984014443252818e-15")),
    ("robertson", ["--dim", "3"], (60, 0, "0.016541796686640325", "0.7156078068992624")),
    ("appendix-c", ["--dim", "6"], (60, 0, "0.03098624722592142", "0.12948546731363955")),
    ("appendix-c", ["--dim", "10"], (60, 0, "0.02106429498159626", "0.04145167787947875")),
    ("robertson", ["--dim", "6"], (60, 0, "0.09030223673070588", "0.35809496990842704")),
    ("robertson", ["--dim", "10"], (60, 0, "0.08161752779085854", "0.25065294092272955")),
]


@pytest.mark.parametrize(
    "relation,extra,expected",
    _VERIFY_CASES,
    ids=[f"{case[0]}-extra{i}" for i, case in enumerate(_VERIFY_CASES)],
)
def test_verify_relations_hold(relation, extra, expected):
    code, report = _run(["verify", relation, "--samples", "60", "--seed", "11"] + extra)
    assert code == 0
    summary = report["results"][0]
    assert summary["holds"]
    assert summary["checks"] >= 60
    assert report["config"]["seed"] == 11
    got = (
        summary["checks"],
        summary["saturated"],
        repr(summary["worst_margin"]),
        repr(summary["max_abs_margin"]),
    )
    assert got == expected


def test_verify_appendix_b_residuals():
    code, report = _run(["verify", "appendix-b", "--samples", "1000", "--seed", "2"])
    assert code == 0
    assert report["results"][0]["max_abs_margin"] <= 1e-11


def test_verify_relation_dim_mismatch_exits_2():
    with pytest.raises(SystemExit) as err:
        _run(["verify", "theorem1", "--dim", "3", "--samples", "10"])
    assert err.value.code == 2


def test_verify_unknown_relation_exits_2():
    with pytest.raises(SystemExit) as err:
        _run(["verify", "nonsense"])
    assert err.value.code == 2


@pytest.mark.parametrize("dim", ["17", "40", "2.0"])
def test_verify_dim_above_cap_exits_2(dim):
    with pytest.raises(SystemExit) as err:
        _run(["verify", "appendix-c", "--dim", dim, "--samples", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("samples", ["0", str(regions.MAX_SAMPLES + 1), "100000000000", "1e3"])
def test_verify_samples_outside_the_cap_exit_2(monkeypatch, samples):
    # Rejected before any draw: the fuzz loop is never reached.
    def no_fuzz(*args):
        raise AssertionError("verify drew samples")

    monkeypatch.setattr(engine, "fuzz", no_fuzz)
    with pytest.raises(SystemExit) as err:
        _run(["verify", "theorem1", "--samples", samples])
    assert err.value.code == 2


def test_verify_samples_cap_is_admitted(monkeypatch):
    calls = []

    def fuzz(relation, dim, samples, seed, theta_ab):
        calls.append(samples)
        return {"relation": relation, "checks": samples, "holds": True, "worst_margin": 0.0,
                "max_abs_margin": 0.0, "saturated": 0}

    monkeypatch.setattr(engine, "fuzz", fuzz)
    code, report = _run(["verify", "theorem1", "--samples", str(regions.MAX_SAMPLES)])
    assert code == 0 and calls == [regions.MAX_SAMPLES]
    assert report["config"]["samples"] == regions.MAX_SAMPLES


@pytest.mark.parametrize("relation", ["appendix-c", "robertson"])
def test_verify_runs_at_dim_cap(relation):
    code, report = _run(["verify", relation, "--dim", "16", "--samples", "2"])
    assert code == 0
    assert report["results"][0]["checks"] >= 2


def test_verify_memory_at_dim_cap():
    # Robertson at N = 16, eleven 192-row chunks (sampling.lane_chunks).
    # d_contract's temporaries are no larger than its output; a
    # contraction over all 21,833 nonzeros at once would take 358 MB a
    # temporary.  Nothing holds a chunk's draws while the next chunk
    # draws, nor the directions while the chunk builds its observables.
    # The basis is built first, so that the peak is the run's whatever
    # ran before.  The traced peak is 11.4 MB (12.2 MB when the
    # directions were held through the build; 16.5 MB when a chunk's
    # draws were held while the next chunk drew; 71.75 MB in 2,048-row
    # chunks); the bound leaves 30 % over it.
    basis_for(16)
    tracemalloc.start()
    try:
        code, report = _run(["verify", "robertson", "--dim", "16", "--samples", "2100"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and report["results"][0]["checks"] == 2100
    assert peak < 15e6


def test_verify_appendix_c_memory():
    # Appendix-c at N = 6, a 1,365-row chunk and a 735-row one.  Each
    # round keeps only its own draws; the chunk keeps each lane's
    # accepted directions and state and hands the stores to `chunks` as
    # the chunk's draws, which builds A and B of every lane from them in
    # one call, scores them and frees them before the next chunk draws.
    # The traced peak, in a fresh interpreter with the basis built in the
    # run, is 10.63 MB, as when the lanes built A and B themselves (10.71
    # MB when each round built and scored its own tries; 18.2 MB holding
    # whole accepted tries in 2,048-row chunks); the bound leaves 12 %
    # over it.
    tracemalloc.start()
    try:
        code, report = _run(["verify", "appendix-c", "--dim", "6", "--samples", "2100"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and report["results"][0]["checks"] == 2100
    assert peak < 12e6


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "theorem1", "--seed", "-1"],
        ["verify", "theorem1", "--seed", "18446744073709551616"],
        ["verify", "theorem1", "--seed", "x"],
        ["verify", "theorem1", "--seed", "1.5"],
        ["region", "pair", "--theta-ab", "0.5", "--seed", "-1"],
        ["compare", "--state-seed", "-1", "--A", "sigma1", "--B", "sigma2"],
    ],
)
def test_bad_seed_exits_2(args):
    with pytest.raises(SystemExit) as err:
        _run(args)
    assert err.value.code == 2


def test_largest_seed_is_accepted():
    code, report = _run(["verify", "theorem1", "--samples", "2", "--seed", str(2**64 - 1)])
    assert code == 0
    assert report["config"]["seed"] == 2**64 - 1
    flags = ["--A", "sigma1", "--B", "sigma2"]
    _, by_flag = _run(["compare", "--state-seed", str(2**64 - 1)] + flags)
    _, by_spec = _run(["compare", "--state", f"seed:{2**64 - 1}"] + flags)
    assert by_flag["config"]["state_seed"] == 2**64 - 1
    assert by_flag["results"] == by_spec["results"]


def test_compare_state_seed_is_the_seed_state(capsys):
    # --state-seed K and --state seed:K are one grammar: the same state,
    # results and printed lines; a seed outside [0, 2**64 - 1] or not an
    # integer exits 2 either way.
    flags = ["--A", "n:(0.6,0.8,0)", "--B", "sigma3"]
    _, by_flag = _run(["compare", "--state-seed", "5"] + flags)
    flag_out = capsys.readouterr().out
    _, by_spec = _run(["compare", "--state", "seed:5"] + flags)
    assert capsys.readouterr().out == flag_out
    assert by_flag["results"] == by_spec["results"]
    assert by_flag["worst_margin"] == by_spec["worst_margin"]
    assert by_flag["config"]["state_seed"] == 5 and by_spec["config"]["state"] == "seed:5"
    for spec in ("seed:-1", "seed:x"):
        with pytest.raises(SystemExit) as err:
            _run(["compare", "--state", spec] + flags)
        assert err.value.code == 2


def test_parser_is_reused_and_usage_errors_still_exit_2(capsys):
    from blochvar.cli import build_parser

    assert build_parser() is not build_parser()  # each call still returns a new parser
    code, _ = _run(["verify", "theorem1", "--samples", "2"])
    assert code == 0
    for bad in (["verify", "theorem1", "--samples", "x"], ["verify", "nonsense"], ["basis"]):
        with pytest.raises(SystemExit) as err:
            _run(bad)
        assert err.value.code == 2
    code, report = _run(["verify", "appendix-b", "--samples", "3", "--seed", "4"])
    assert code == 0 and report["config"]["samples"] == 3 and report["config"]["seed"] == 4
    assert "usage: blochvar" in capsys.readouterr().err


def _fresh_python(probe):
    """stdout of ``probe`` run in a new interpreter that imports this blochvar."""
    src = os.path.dirname(os.path.dirname(blochvar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, blochvar.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_python(probe).strip() == "[]"


def test_basis_build_loads_no_numpy_ma():
    # np.unique imports numpy.ma on first use: about 13 ms of set-up on a 2 vCPU Xeon.
    probe = (
        "import sys, blochvar.cli; from blochvar import basis_for; "
        "basis_for(2); basis_for(10); print('numpy.ma' in sys.modules)"
    )
    assert _fresh_python(probe).strip() == "False"


def test_set_up_builds_no_jump_table():
    # Appendix-c's jump tables are built on the first side-by-side round,
    # so the set-up of a run (import and bases) costs what it did.
    probe = (
        "import blochvar.cli; from blochvar import basis_for, sampling; "
        "basis_for(2); basis_for(10); print(sampling._jump_table.cache_info().currsize)"
    )
    assert _fresh_python(probe).strip() == "0"


def test_verify_report_is_reproducible(tmp_path):
    args = ["verify", "theorem1", "--samples", "400", "--seed", "123"]
    _, first = _run(args)
    _, second = _run(args)
    assert first["worst_margin"] == second["worst_margin"]
    assert first["results"][0]["max_abs_margin"] == second["results"][0]["max_abs_margin"]


def test_verify_threads_do_not_change_results():
    args = ["verify", "pure-limit", "--samples", "300", "--seed", "5"]
    _, base = _run(args)
    os.environ["UR_THREADS"] = "4"
    try:
        _, threaded = _run(args)
    finally:
        del os.environ["UR_THREADS"]
    assert base["results"] == threaded["results"]
    assert base["config"] == threaded["config"]
    assert threaded["config"]["threads"] == 1


def test_region_pair_slice_and_artifacts(tmp_path):
    csv_path = tmp_path / "scan.csv"
    json_path = tmp_path / "scan.json"
    code, report = _run(
        [
            "region",
            "pair",
            "--theta-ab",
            "0.5235987755982988",
            "--samples",
            "30000",
            "--seed",
            "1",
            "--slice-da2",
            "0.25",
            "--csv",
            str(csv_path),
            "--json",
            str(json_path),
        ]
    )
    assert code == 0
    sl = report["results"][0]["slice"]
    assert sl["db_min"] <= 0.1
    assert abs(sl["db_max"] - math.sqrt(3) / 2) <= 0.02

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_index", "purity", "dA2", "dB2", "margin"]
    assert len(rows) == 30001
    raw = csv_path.read_bytes()
    assert b"\r\n" not in raw  # LF endings

    payload = json.loads(json_path.read_text())
    assert payload["schema"] == 1
    rle = payload["occupancy_rle"]
    assert sum(rle["runs"]) == payload["n_cells"] ** 2


def test_region_rle_round_trip(tmp_path):
    json_path = tmp_path / "scan.json"
    code, _ = _run(
        ["region", "pair", "--theta-ab", "1.0", "--samples", "2000", "--seed", "3",
         "--json", str(json_path)]
    )
    assert code == 0
    payload = json.loads(json_path.read_text())
    rle = payload["occupancy_rle"]
    flat = []
    value = rle["first"]
    for run in rle["runs"]:
        flat.extend([value] * run)
        value = 1 - value
    occupancy = np.array(flat, dtype=bool).reshape(payload["n_cells"], payload["n_cells"])
    assert occupancy.sum() > 0


def _rle_by_diff(occupancy):
    # The diff-based form the writer used before: the oracle for _rle.
    flat = occupancy.astype(np.int8).ravel()
    if flat.size == 0:
        return {"first": 0, "runs": []}
    change = np.flatnonzero(np.diff(flat)) + 1
    bounds = np.concatenate([[0], change, [flat.size]])
    return {"first": int(flat[0]), "runs": np.diff(bounds).tolist()}


def _one_cell(shape, index):
    grid = np.zeros(shape, dtype=bool)
    grid.flat[index] = True
    return grid


@pytest.mark.parametrize("shape", [(1, 1), (7, 7), (5, 5, 5)])
@pytest.mark.parametrize(
    "make",
    [
        lambda shape: np.zeros(shape, dtype=bool),
        lambda shape: np.ones(shape, dtype=bool),
        lambda shape: _one_cell(shape, 0),
        lambda shape: _one_cell(shape, -1),
    ],
    ids=["empty", "full", "first-cell", "last-cell"],
)
def test_rle_edge_grids_match_diff_form(shape, make):
    grid = make(shape)
    assert cli._rle(grid) == _rle_by_diff(grid)


@settings(max_examples=200, deadline=None)
@given(grid=hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=3, min_side=0, max_side=9)))
def test_rle_matches_diff_form(grid):
    assert cli._rle(grid) == _rle_by_diff(grid)


# Distinct bit patterns that json spells alike or that sort oddly.
_SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, 0.1, 1e-300, 5e-324, -5e-324, 2.225e-308, 1e308,
    math.nan, -math.nan, math.inf, -math.inf,
    np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0],  # NaN payload
]


@settings(max_examples=200, deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 40), st.sampled_from([1, 2, 3])),
        elements=st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(width=64)),
    )
)
def test_boundary_rows_are_written_as_json_dumps_writes_them(values):
    fh = io.StringIO()
    cli._write_json_rows(fh, values)
    assert fh.getvalue() == json.dumps(values.tolist())


def test_boundary_rows_span_several_blocks():
    # Blocks of ENGINE_CHUNK rows, and one row, against json.dumps; the
    # surface repeats values within and across rows.
    surface = regions._triple_surface(0.7)
    for values in (surface, np.tile(surface, (3, 1))[: 2 * cli.ENGINE_CHUNK + 1], surface[:1]):
        fh = io.StringIO()
        cli._write_json_rows(fh, values)
        assert fh.getvalue() == json.dumps(values.tolist())


def _csv_by_writer(path, scan):
    # The csv.writer form the CSV writer had before: the oracle for
    # _write_scan_csv.
    header = ["sample_index", "purity"] + list(scan.axes) + ["margin"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, len(scan.margins), cli.ENGINE_CHUNK):
            rows = slice(start, start + cli.ENGINE_CHUNK)
            columns = (scan.purities[rows], *scan.samples[rows].T, scan.margins[rows])
            writer.writerows(zip(range(start, start + cli.ENGINE_CHUNK), *(c.tolist() for c in columns)))


# And the first floats repr spells with an exponent.
_CSV_FLOATS = _SPECIAL_FLOATS + [1e-05, 1e16]


@settings(max_examples=150, deadline=None)
@given(
    columns=st.integers(2, 3).flatmap(
        lambda axes: hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 25), st.just(axes + 2)),
            elements=st.one_of(st.sampled_from(_CSV_FLOATS), st.floats(width=64)),
        )
    ),
    chunk=st.integers(1, 7),
)
def test_scan_csv_is_written_as_csv_writer_writes_it(columns, chunk):
    # Small blocks, so that rows cross block edges.
    axes = ("dA2", "dB2", "dC2")[: columns.shape[1] - 2]
    scan = regions.RegionScan(
        axes=axes, theta_ab=0.5, grid=0.1, samples=columns[:, 1:-1], purities=columns[:, 0],
        margins=columns[:, -1], occupancy=np.zeros((10,) * len(axes), dtype=bool),
    )
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "ENGINE_CHUNK", chunk):
        paths = [os.path.join(tmp, name) for name in ("new.csv", "old.csv")]
        cli._write_scan_csv(paths[0], scan)
        _csv_by_writer(paths[1], scan)
        new, old = (open(path, "rb").read() for path in paths)
    assert new == old


def _traced_peak(write):
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_region_writers_hold_one_block_at_a_time(tmp_path):
    # A triple scan of eight ENGINE_CHUNK blocks: a 1.5 MB CSV and a
    # 0.5 MB JSON artifact whose boundary spans four blocks.  Traced
    # peaks: the CSV writer 1.44 MB (a block's words; 0.49 MB with
    # csv.writer), the JSON and report writers 1.17 MB (1.26 MB with a
    # format a boundary row).  Written in one block, the CSV read 9.6 MB
    # and the JSON 2.0 MB.
    ensemble = SampleConfig(seed=5, dim=2, count=8 * cli.ENGINE_CHUNK, kind="haar_pure")
    scan = regions.scan_triple(0.7, ensemble, 0.01)
    paths = [str(tmp_path / name) for name in ("scan.csv", "scan.json", "report.json")]
    csv_peak = _traced_peak(lambda: cli._write_scan_csv(paths[0], scan))

    def json_and_report():
        cli._write_scan_json(paths[1], scan, {"seed": 5})
        cli._write_report({"worst_margin": float(scan.margins.min())}, paths[2])

    json_peak = _traced_peak(json_and_report)
    assert os.path.getsize(paths[0]) > 1.4e6 and os.path.getsize(paths[1]) > 0.4e6
    assert csv_peak < 2e6 and json_peak < 1.6e6


def test_region_triple_artifacts_memory(tmp_path):
    # The writers hold no grid-sized copy of the 200**3 occupancy cells
    # (8 MB as bools): with an int8 copy and its diff the traced peak was
    # 24.4 MB, and it is 9.5 MB without.
    flags = []
    for flag, name in (("--csv", "scan.csv"), ("--json", "scan.json"), ("--out", "report.json")):
        flags += [flag, str(tmp_path / name)]
    tracemalloc.start()
    try:
        code, _ = _run(
            ["region", "triple", "--theta-ab", "0.7", "--grid", "0.005", "--samples", "250"] + flags
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16e6


def test_region_degenerate_line_diagnostic():
    code, report = _run(["region", "pair", "--theta-ab", "0", "--samples", "2000", "--seed", "4"])
    assert code == 0
    assert report["results"][0]["degenerate_line"] <= 1e-9


def test_region_triple_residuals():
    code, report = _run(
        ["region", "triple", "--theta-ab", "0.7853981633974483", "--samples", "3000", "--seed", "5"]
    )
    assert code == 0
    assert report["results"][0]["max_abs_margin"] <= 1e-9


def test_region_usage_errors():
    for grid in ["0.5", "nan", "inf", "1e-4"]:
        with pytest.raises(SystemExit) as err:
            _run(["region", "pair", "--theta-ab", "1.0", "--grid", grid])
        assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        _run(["region", "triple", "--theta-ab", "1.0", "--ensemble", "mixed"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        _run(["region", "triple", "--theta-ab", "1.5", "--samples", "800", "--slice-da2", "0.3"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["pair", "--samples", str(regions.MAX_SAMPLES + 1)],
        ["pair", "--samples", "1000000000000"],
        ["triple", "--samples", "10", "--grid", "0.001"],
        ["triple", "--samples", "10", "--grid", "0.0046"],
    ],
    ids=["samples-cap", "samples-huge", "triple-finest-grid", "triple-grid-below-cap"],
)
def test_region_inputs_that_exhaust_memory_exit_2(tmp_path, capsys, args):
    outputs = []
    for flag, name in (("--csv", "scan.csv"), ("--json", "scan.json"), ("--out", "report.json")):
        outputs += [flag, str(tmp_path / name)]
    with pytest.raises(SystemExit) as err:
        _run(["region"] + args + ["--theta-ab", "1.0"] + outputs)
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""  # no scan ran


def test_region_size_caps_admit_their_limits():
    assert regions.occupancy_cells(0.001, 2) <= regions.MAX_CELLS
    assert regions.occupancy_cells(0.0047, 3) <= regions.MAX_CELLS < regions.occupancy_cells(0.0046, 3)
    for mode, grid in (("pair", "0.001"), ("triple", "0.0047")):
        code, report = _run(["region", mode, "--theta-ab", "1.0", "--samples", "10", "--grid", grid])
        assert code == 0 and report["results"][0]["count"] == 10


_OUTPUT_COMMANDS = {
    "basis": ["basis", "--dim", "2"],
    "verify": ["verify", "theorem1", "--samples", "5"],
    "region": ["region", "pair", "--theta-ab", "1.0", "--samples", "5"],
    "compare": ["compare", "--state", "mixed", "--A", "sigma1", "--B", "sigma2"],
}


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", sorted(_OUTPUT_COMMANDS))
def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys, command, where):
    path = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path
    with pytest.raises(SystemExit) as err:
        _run(_OUTPUT_COMMANDS[command] + ["--out", str(path)])
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == "" and repr(str(path)) in captured.err


@pytest.mark.parametrize(
    "flags", [("--csv", "--json", "--out"), ("--csv", "--out"), ("--json", "--csv")]
)
def test_outputs_naming_one_file_exit_2_before_any_work(tmp_path, capsys, flags):
    # Spelled apart, one file: only the last writer's bytes would survive.
    spellings = [str(tmp_path / "x.out"), f"{tmp_path}/./x.out", f"{tmp_path}//x.out"]
    with pytest.raises(SystemExit) as err:
        _run(_OUTPUT_COMMANDS["region"] + [x for item in zip(flags, spellings) for x in item])
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == "" and "names the file of --" in captured.err


@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_region_bad_artifact_path_writes_nothing(tmp_path, capsys, flag):
    # Only one artifact path is bad: no report and no other artifact.
    paths = {"--csv": "scan.csv", "--json": "scan.json", "--out": "report.json"}
    paths = {key: tmp_path / ("missing" if key == flag else "") / name for key, name in paths.items()}
    with pytest.raises(SystemExit) as err:
        _run(_OUTPUT_COMMANDS["region"] + [x for item in paths.items() for x in map(str, item)])
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == "" and repr(str(paths[flag])) in captured.err


@pytest.mark.parametrize("value", ["nan", "1.5", "-0.1", "x"])
def test_slice_da2_out_of_range_exits_2(value):
    with pytest.raises(SystemExit) as err:
        _run(["region", "pair", "--theta-ab", "1.0", "--samples", "2", "--slice-da2", value])
    assert err.value.code == 2


def test_empty_slice_says_no_samples(capsys):
    code, report = _run(
        ["region", "pair", "--theta-ab", "1.0", "--samples", "10", "--slice-da2", "0.5"]
    )
    assert code == 0
    assert report["results"][0]["slice"]["count"] == 0
    assert "slice dA2=0.5: no samples" in capsys.readouterr().out


@pytest.mark.parametrize("theta", ["7", "-0.1", "nan"])
@pytest.mark.parametrize(
    "args",
    [["verify", "three-obs-equality", "--samples", "2"], ["region", "pair", "--samples", "2"]],
    ids=["verify", "region"],
)
def test_theta_ab_out_of_range_exits_2(args, theta):
    with pytest.raises(SystemExit) as err:
        _run(args + ["--theta-ab", theta])
    assert err.value.code == 2


# Each case's last entry is (occupied_cells, repr(worst_margin),
# repr(max_abs_margin), SHA-256 of the --csv file, of the --json file and
# of the --out report less its wall_time_s line): the equivalence oracle
# that pins every region scan and artifact bit for bit.
_REGION_CASES = [
    (
        ["pair", "--ensemble", "pure", "--theta-ab", "1.0", "--samples", "400", "--seed", "21"],
        (367, "4.879722848016854e-09", "0.4596947791187995",
         "d8dde78106f97ec8cc39e3a8af98c3d90a2427e58108d758da7df8b0ec2e39f9",
         "ac08600a150c868f2a718b130844e8bd855a58fdf08ac25b6e516c892e3454ee",
         "0d3ba8a13d1b2d0d5307594d3461a3256080dfa4f54f8963c6cdabd969382711"),
    ),
    (
        ["pair", "--ensemble", "mixed", "--theta-ab", "1.0", "--samples", "400", "--seed", "22"],
        (325, "2.31327271412278e-05", "0.4542258021714687",
         "0f4b8d117c222cc43c736f4f1646871b86f5a77600e979d8a7c60e739696da9d",
         "2be87995fd0cf086846e8bbaf035ca6c64e897cda257301e76a49b53331f3b6b",
         "db6cd11170103155a3090cbeca767738626c48c5f3ebd8d24524219cd8ab829d"),
    ),
    (
        ["triple", "--theta-ab", "0.7853981633974483", "--samples", "300", "--seed", "23"],
        (296, "-8.881784197001252e-16", "8.881784197001252e-16",
         "359b96e25ac304df1db4cd51e5ba040715921f4b49568054f2ac311e0e47b9fb",
         "0dcd8e2f2ccd8420ed8b70eb20437d74e4ee0131d9b91302a238602dfb3d2052",
         "30786eab82dc9e6aa72a8c0821193bcc86140ce2aefb335bd638661b3c153c81"),
    ),
]


@pytest.mark.parametrize(
    "args,expected", _REGION_CASES, ids=["pair-pure", "pair-mixed", "triple"]
)
def test_region_scans_are_pinned(tmp_path, args, expected):
    paths = [tmp_path / name for name in ("scan.csv", "scan.json", "report.json")]
    flags = ["--csv", "--json", "--out"]
    code, report = _run(["region"] + args + [x for pair in zip(flags, map(str, paths)) for x in pair])
    assert code == 0
    summary = report["results"][0]
    report_lines = paths[2].read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in report_lines if not line.startswith(b'  "wall_time_s": '))
    assert len(kept) < sum(map(len, report_lines))
    got = (
        summary["occupied_cells"],
        repr(summary["worst_margin"]),
        repr(summary["max_abs_margin"]),
        hashlib.sha256(paths[0].read_bytes()).hexdigest(),
        hashlib.sha256(paths[1].read_bytes()).hexdigest(),
        hashlib.sha256(kept).hexdigest(),
    )
    assert got == expected


def test_region_margin_below_floor_raises_and_writes_nothing(tmp_path, monkeypatch):
    # The scans raise for any margin below -1e-9, so the CLI writes no
    # report: here theorem1's function gives a margin of -1e-6 on lanes
    # for sample 5 alone.
    shared = relations._theorem1

    def low_at_5(a, b, state):
        lhs, rhs, checks = shared(a, b, state)
        if state.p.ndim == 1:
            return lhs, rhs, checks
        return np.where(np.arange(lhs.size) == 5, rhs - 1e-6, lhs), rhs, checks

    monkeypatch.setattr(relations, "_theorem1", low_at_5)
    out = tmp_path / "report.json"
    with pytest.raises(NumericsError, match=r"sample 5 \(stream 5\)"):
        _run(["region", "pair", "--theta-ab", "1.0", "--samples", "40", "--out", str(out)])
    assert not out.exists()


def test_region_reports_reproduce():
    args = ["region", "pair", "--theta-ab", "1.0", "--samples", "3000", "--seed", "9"]
    _, first = _run(args)
    _, second = _run(args)
    assert first["worst_margin"] == second["worst_margin"]
    assert first["results"][0]["occupied_cells"] == second["results"][0]["occupied_cells"]


def test_compare_triviality_contrast():
    code, report = _run(
        ["compare", "--state", "pure:(1,0,0)", "--A", "sigma1", "--B", "sigma2"]
    )
    assert code == 0
    rows = {row["bound"]: row for row in report["results"]}
    assert rows["robertson"]["rhs"] == 0.0
    assert rows["robertson"]["lhs"] == 0.0
    span = rows["axis_angle_span"]
    assert span["span_db_any_state"] == [0.0, 1.0]
    assert span["span_db_given_da2"] == [1.0, 1.0]
    assert rows["state_dependent_plus"]["applicable"]
    assert rows["state_dependent_plus"]["holds"]


def test_compare_eq17_span_with_da2_flag():
    theta = math.pi / 6
    b_spec = f"n:({math.cos(theta)},{math.sin(theta)},0)"
    code, report = _run(
        ["compare", "--state", "pure:(0,0,1)", "--A", "sigma1", "--B", b_spec,
         "--da2", "0.25"]
    )
    assert code == 0
    span = next(r for r in report["results"] if r["bound"] == "axis_angle_span")
    lo, hi = span["span_db_given_da2"]
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi == pytest.approx(math.sqrt(3) / 2, abs=1e-9)
    assert span["da2_source"] == "flag"


def test_compare_mixed_state_marks_not_applicable():
    code, report = _run(["compare", "--state", "mixed", "--A", "sigma1", "--B", "sigma2"])
    assert code == 0
    rows = {row["bound"]: row for row in report["results"]}
    assert not rows["state_dependent_plus"]["applicable"]
    assert not rows["state_dependent_minus"]["applicable"]
    assert rows["robertson"]["applicable"]


def test_compare_accepts_an_observable_of_large_norm():
    # |a|^2 is about 1e6, and its check's residue, and the a' check's,
    # about 2e-10: rounding, within 1e-11 of max(1, |a|^2).
    obs = {"dim": 2, "re": [2000.1, 1500.3, 1500.3, 700.9], "im": [0, -999.7, 999.7, 0]}
    code, report = _run(["compare", "--state", "mixed", "--A", json.dumps(obs), "--B", "sigma2"])
    assert code == 0
    assert {row["bound"]: row for row in report["results"]}["robertson"]["holds"]


def test_compare_json_matrix_input(tmp_path):
    path = tmp_path / "obs.json"
    path.write_text(json.dumps({"dim": 2, "re": [0.0, 1.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]}))
    code, report = _run(
        ["compare", "--state-seed", "3", "--A", f"@{path}", "--B", "sigma2"]
    )
    assert code == 0
    assert all(row.get("holds", True) for row in report["results"] if row["applicable"])


def test_compare_reads_a_bloch_state(capsys):
    # bloch:(x,y,z) is the state's Bloch vector as given: inside the ball
    # it is compared, outside it is no state.
    code, report = _run(["compare", "--state", "bloch:(0.3,0.2,0.1)", "--A", "sigma1", "--B", "sigma2"])
    # Robertson's sides read p: ΔA ΔB = sqrt((1 - x²)(1 - y²)) and
    # |⟨[σ1, σ2]⟩|/2 = |z|.
    robertson = next(row for row in report["results"] if row["bound"] == "robertson")
    assert code == 0 and report["config"]["state"] == "bloch:(0.3,0.2,0.1)"
    assert robertson["lhs"] == pytest.approx(math.sqrt(0.91 * 0.96), abs=1e-12)
    assert robertson["rhs"] == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(SystemExit) as err:
        _run(["compare", "--state", "bloch:(0,0,2)", "--A", "sigma1", "--B", "sigma2"])
    assert err.value.code == 2
    assert "bad state 'bloch:(0,0,2)'" in capsys.readouterr().err


@pytest.mark.parametrize("im", [{"a": 1}, [0.0, 0.0, 0.0]], ids=["object", "wrong-length"])
def test_compare_rejects_a_malformed_im(capsys, im):
    state = json.dumps({"dim": 2, "re": [0.5, 0.0, 0.0, 0.5], "im": im})
    with pytest.raises(SystemExit) as err:
        _run(["compare", "--state", state, "--A", "sigma1", "--B", "sigma3"])
    assert err.value.code == 2
    assert "malformed matrix object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dim,message",
    [(10**6, "cannot reshape"), (2.5, "dim must be an integer"), (True, "dim must be an integer")],
    ids=["oversized", "fraction", "bool"],
)
def test_compare_rejects_a_malformed_dim(capsys, dim, message):
    # An oversized dim is refused by its entry count before an im of
    # dim² zeros is allocated; a fraction or a bool is not read as an int.
    obs = json.dumps({"dim": dim, "re": [1.0, 0.0, 0.0, 1.0]})
    with pytest.raises(SystemExit) as err:
        _run(["compare", "--state", "mixed", "--A", obs, "--B", "sigma1"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"malformed matrix object: {message}" in stderr and "Traceback" not in stderr


def test_compare_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as err:
        _run(["compare", "--A", "sigma1", "--B", "sigma2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        _run(["compare", "--state", "mixed", "--state-seed", "1", "--A", "sigma1", "--B", "sigma2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        _run(["compare", "--state", "mixed", "--A", "sigma9", "--B", "sigma2"])
    assert err.value.code == 2
    out = tmp_path / "report.json"
    for tail in [
        ["--A", "sigma1", "--da2", "nan"],
        ["--A", "sigma1", "--da2", "inf"],
        ["--A", "sigma1", "--da2=-inf"],
        ["--A", "sigma1", "--da2", "2"],
        ["--A", "sigma1", "--da2", "-0.5"],
        ["--A", "sigma1", "--da2", "1.0000001"],
        ["--A", "n:(nan,0,0)"],
        ["--A", "n:(inf,0,0)"],
    ]:
        with pytest.raises(SystemExit) as err:
            _run(["compare", "--state", "mixed", "--B", "sigma2", "--out", str(out)] + tail)
        assert err.value.code == 2
        assert not out.exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--A", "n:(1,2)", "--state", "mixed"],
         "observable: expected three comma-separated numbers, got '(1,2)'"),
        (["--A", "n:(a,b,c)", "--state", "mixed"], "observable: could not parse '(a,b,c)'"),
        (["--A", "sigma1", "--state", "@missing.json"], "could not read JSON matrix '@missing.json'"),
        (["--A", "sigma1", "--state", "foo"], "unrecognized state 'foo'"),
    ],
    ids=["triplet-length", "triplet-numbers", "unreadable-file", "unrecognized-state"],
)
def test_compare_rejects_unreadable_specs(tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.chdir(tmp_path)  # where no missing.json exists
    with pytest.raises(SystemExit) as err:
        _run(["compare", "--B", "sigma2"] + flags)
    assert err.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_main_returns_the_exit_code(capsys):
    assert cli.main(["verify", "theorem1", "--samples", "2"]) == 0
    assert "-> PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--A", "n:(1e200,0,0)", "--B", "sigma2", "--state", "pure:(0,0,1)"], "bad observable"),
        (["--A", "n:(1e200,0,0)", "--B", "sigma3", "--state", "mixed"], "bad observable"),
        # Its norm overflows to inf, and dividing by it would give I/2.
        (["--A", "sigma1", "--B", "sigma3", "--state", "pure:(1e200,1e200,0)"], "finite norm"),
    ],
    ids=["observable", "observable-mixed", "pure-direction"],
)
def test_compare_rejects_inputs_whose_squares_overflow(tmp_path, capsys, flags, message):
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as err:
            _run(["compare"] + flags + ["--out", str(out)])
    assert err.value.code == 2
    assert not out.exists() and message in capsys.readouterr().err
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("value", ["0", "1"])
def test_compare_da2_admits_its_limits(value):
    code, report = _run(
        ["compare", "--state-seed", "3", "--A", "sigma1", "--B", "sigma2", "--da2", value]
    )
    span = next(r for r in report["results"] if r["bound"] == "axis_angle_span")
    assert code == 0
    assert report["config"]["da2"] == span["da2"] == float(value)
    assert span["da2_source"] == "flag"


def test_reports_embed_seed_and_schema():
    _, report = _run(["verify", "robertson", "--samples", "50", "--seed", "77"])
    assert report["schema"] == 1
    assert report["config"]["seed"] == 77
    assert "wall_time_s" in report
