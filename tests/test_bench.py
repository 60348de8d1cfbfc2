import gc

import pytest

from p3dk import bench
from p3dk.bench import (
    ROTATION_KEPT,
    ROTATION_PASSES,
    WARMUP,
    _side_by_side_medians,
    avalanche,
    bench_filesize,
    bench_rotations,
    bench_sboxgen,
    render_csv,
    render_svg,
)
from p3dk.errors import UsageError


@pytest.fixture
def short_sweeps(monkeypatch):
    """One file size (1 KB) and two set-up bit lengths, so a sweep takes milliseconds."""
    monkeypatch.setattr(bench, "SIZES_KB", (1,))
    monkeypatch.setattr(bench, "BIT_LENGTHS", (3, 243))


def test_filesize_single_row(monkeypatch):
    monkeypatch.setattr(bench, "SIZES_KB", (20,))
    report = bench_filesize(trials=1)
    assert report.experiment == "filesize"
    assert len(report.rows) == 1
    assert report.rows[0][0] == "20"
    assert report.rows[0][1] > 0


def test_filesize_metadata_fields(short_sweeps):
    report = bench_filesize(trials=1)
    for field in ("timestamp", "trials", "warmup", "iterations", "ref_hardware_s"):
        assert field in report.metadata
    assert report.metadata["trials"] == "1"
    assert "512=501" in report.metadata["ref_hardware_s"]


def test_rotations_shape():
    report = bench_rotations(trials=1)
    assert [label for label, _ in report.rows] == [str(n) for n in range(17)]
    assert all(value >= 0 for _, value in report.rows)
    assert "slope_ms_per_rotation" in report.metadata
    assert "r_squared" in report.metadata
    assert report.metadata["iterations"] == str(ROTATION_PASSES)
    assert report.metadata["iterations_kept"] == str(ROTATION_KEPT)


def test_sboxgen_rows(short_sweeps):
    report = bench_sboxgen(trials=1)
    assert [label for label, _ in report.rows] == ["3", "243"]


@pytest.mark.parametrize(
    "measure", [bench_filesize, bench_rotations, bench_sboxgen], ids=["filesize", "rotations", "sboxgen"]
)
def test_experiments_reject_zero_trials(measure):
    with pytest.raises(UsageError, match=r"--trials must be >= 1, got 0"):
        measure(trials=0)


@pytest.mark.parametrize("enabled", [True, False])
def test_the_collector_is_off_in_every_timed_call(enabled):
    """Every call of a timed fn, warm-up included, sees the cycle collector off.

    The collector's prior state, on or off, is back after the sweep.
    """
    seen = []
    fns = [lambda: seen.append(gc.isenabled())] * 2
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        _side_by_side_medians(fns, trials=2, batch=3, passes=2, kept=1)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * len(fns) * (WARMUP + 2 * 2 * 3)
    assert after is enabled


def test_avalanche_statistics():
    report = avalanche(30)
    stats = dict(report.rows)
    assert 0 < stats["mean_flip_fraction"] < 1
    assert stats["stdev_flip_fraction"] >= 0
    assert report.metadata["trials"] == "30"


def test_avalanche_deterministic_for_fixed_seed():
    assert avalanche(25).rows == avalanche(25).rows


def test_avalanche_rejects_zero_trials():
    with pytest.raises(UsageError):
        avalanche(0)


def test_avalanche_needs_two_flips():
    with pytest.raises(UsageError):
        avalanche(1)
    assert avalanche(2).metadata["trials"] == "2"


def test_csv_round_trip(short_sweeps):
    report = bench_sboxgen(trials=1)
    lines = render_csv(report).splitlines()
    header = lines.index("label,value,unit")
    comments = dict(line[2:].split(": ", 1) for line in lines[:header])
    rows = [line.split(",") for line in lines[header + 1 :]]
    assert [(label, float(value)) for label, value, _ in rows] == report.rows
    assert comments["experiment"] == report.experiment
    assert {unit for _, _, unit in rows} == {report.unit}
    assert comments["trials"] == report.metadata["trials"]


def test_csv_layout(short_sweeps):
    report = bench_filesize(trials=1)
    lines = render_csv(report).strip().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    assert len(comments) >= 1
    assert data[0] == "label,value,unit"
    assert len(data) == 2
    assert data[1].endswith(",s")


def test_svg_output(short_sweeps):
    report = bench_sboxgen(trials=1)
    text = render_svg(report)
    assert text.startswith("<svg")
    assert "<polyline" in text
    assert "sboxgen" in text
    assert text.rstrip().endswith("</svg>")
