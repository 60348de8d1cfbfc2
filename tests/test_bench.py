import pytest

from p3dk.bench import (
    ROTATION_KEPT,
    ROTATION_PASSES,
    avalanche,
    bench_filesize,
    bench_rotations,
    bench_sboxgen,
    emit_csv,
    emit_svg,
)
from p3dk.errors import UsageError


def test_filesize_single_row():
    report = bench_filesize([20], trials=1)
    assert report.experiment == "filesize"
    assert len(report.rows) == 1
    assert report.rows[0][0] == "20"
    assert report.rows[0][1] > 0


def test_filesize_rejects_bad_sizes():
    with pytest.raises(UsageError):
        bench_filesize([])
    with pytest.raises(UsageError):
        bench_filesize([10, 0])


def test_filesize_metadata_fields():
    report = bench_filesize([1], trials=1)
    for field in ("timestamp", "trials", "warmup", "iterations", "ref_hardware_s"):
        assert field in report.metadata
    assert report.metadata["trials"] == "1"
    assert "512=501" in report.metadata["ref_hardware_s"]


def test_rotations_shape():
    report = bench_rotations(4, trials=2)
    assert [label for label, _ in report.rows] == ["0", "1", "2", "3", "4"]
    assert all(value >= 0 for _, value in report.rows)
    assert "slope_ms_per_rotation" in report.metadata
    assert "r_squared" in report.metadata
    assert report.metadata["iterations"] == str(ROTATION_PASSES)
    assert report.metadata["iterations_kept"] == str(ROTATION_KEPT)


def test_rotations_rejects_bad_count():
    with pytest.raises(UsageError):
        bench_rotations(17)
    with pytest.raises(UsageError):
        bench_rotations(-1)


def test_sboxgen_rows_and_validation():
    report = bench_sboxgen([3, 243], trials=1)
    assert [label for label, _ in report.rows] == ["3", "243"]
    with pytest.raises(UsageError):
        bench_sboxgen([])
    with pytest.raises(UsageError):
        bench_sboxgen([5])


@pytest.mark.parametrize(
    "measure",
    [
        lambda: bench_filesize([1], trials=0),
        lambda: bench_rotations(1, trials=0),
        lambda: bench_sboxgen([3], trials=0),
    ],
    ids=["filesize", "rotations", "sboxgen"],
)
def test_experiments_reject_zero_trials(measure):
    with pytest.raises(UsageError, match=r"--trials must be >= 1, got 0"):
        measure()


def test_avalanche_statistics():
    report = avalanche(1, 30)
    stats = dict(report.rows)
    assert 0 < stats["mean_flip_fraction"] < 1
    assert stats["stdev_flip_fraction"] >= 0
    assert report.metadata["trials"] == "30"


def test_avalanche_deterministic_for_fixed_seed():
    assert avalanche(1, 25).rows == avalanche(1, 25).rows


def test_avalanche_rejects_zero_trials():
    with pytest.raises(UsageError):
        avalanche(0, 10)
    with pytest.raises(UsageError):
        avalanche(10, 0)


def test_avalanche_needs_two_flips():
    with pytest.raises(UsageError):
        avalanche(1, 1)
    assert avalanche(1, 2).metadata["trials"] == "2"


def test_csv_round_trip(tmp_path):
    report = bench_rotations(3, trials=1)
    path = tmp_path / "rot.csv"
    emit_csv(report, str(path))
    lines = path.read_text(encoding="ascii").splitlines()
    header = lines.index("label,value,unit")
    comments = dict(line[2:].split(": ", 1) for line in lines[:header])
    rows = [line.split(",") for line in lines[header + 1 :]]
    assert [(label, float(value)) for label, value, _ in rows] == report.rows
    assert comments["experiment"] == report.experiment
    assert {unit for _, _, unit in rows} == {report.unit}
    assert comments["trials"] == report.metadata["trials"]


def test_csv_layout(tmp_path):
    report = bench_filesize([1], trials=1)
    path = tmp_path / "one.csv"
    emit_csv(report, str(path))
    lines = path.read_text().strip().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    assert len(comments) >= 1
    assert data[0] == "label,value,unit"
    assert len(data) == 2
    assert data[1].endswith(",s")


def test_csv_unwritable_path():
    report = bench_rotations(1, trials=1)
    with pytest.raises(FileNotFoundError):
        emit_csv(report, "/nonexistent-dir/report.csv")


def test_svg_output(tmp_path):
    report = bench_rotations(3, trials=1)
    path = tmp_path / "rot.svg"
    emit_svg(report, str(path))
    text = path.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text
    assert "rotations" in text
    assert text.rstrip().endswith("</svg>")


def test_svg_unwritable_path():
    report = bench_rotations(1, trials=1)
    with pytest.raises(FileNotFoundError):
        emit_svg(report, "/nonexistent-dir/report.svg")
