"""End-to-end CLI behavior: exit codes, JSON output, determinism."""

import json

from conefaces.cli import main
from conefaces.ideal_components import PointConfiguration


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_dims_random(capsys):
    code, data = run(
        capsys, "dims", "--n", "4", "--d", "2", "--random-size", "6",
        "--seed", "1", "--glp",
    )
    assert code == 0
    assert data["dim_Isym2_2d"] - data["dim_I2_2d"] == data["gap"]


def test_dims_deterministic(capsys):
    args = ["dims", "--n", "3", "--d", "2", "--random-size", "4", "--seed", "9"]
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_dims_config_file(tmp_path, capsys):
    path = tmp_path / "gamma.json"
    g = PointConfiguration(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    path.write_text(json.dumps(g.to_json()))
    code, data = run(capsys, "dims", "--n", "3", "--d", "2", "--config", str(path))
    assert code == 0
    assert data["gamma_size"] == 3


def test_independence_exit_codes(capsys):
    code, data = run(
        capsys, "independence", "--n", "3", "--d", "3", "--random-size", "7",
        "--seed", "2", "--require-independent",
    )
    assert code == 0 and data["verdict"] == "yes"
    # 7 plane points can never be 2-independent
    code, data = run(
        capsys, "independence", "--n", "3", "--d", "2", "--random-size", "7",
        "--seed", "2",
    )
    assert code == 1 and data["verdict"] == "no"


def test_construct_snd(capsys):
    code, data = run(capsys, "construct", "snd", "--n", "3", "--d", "3")
    assert code == 0
    assert len(data["points"]["points"]) == 7
    assert len(data["basis"]) == 3


def test_construct_schemes(capsys):
    code, data = run(capsys, "construct", "six4")
    assert code == 0 and len(data["Q"]) == 4
    code, data = run(capsys, "construct", "seven3")
    assert code == 0 and len(data["Q"]) == 3


def test_certify(capsys):
    code, data = run(
        capsys, "certify", "--case", "44", "--samples", "200", "--seed", "0"
    )
    assert code == 0
    assert data["not_sos"]
    assert data["numeric_min"]["value"] >= -1e-9


def test_certify_epsilon_zero_is_sos(capsys):
    code, data = run(
        capsys, "certify", "--case", "44", "--epsilon", "0", "--samples", "0"
    )
    assert code == 1
    assert data["not_sos_proof"]["in_ordinary_square"]


def test_gapscan(tmp_path, capsys):
    csv_path = tmp_path / "gaps.csv"
    code, data = run(
        capsys, "gapscan", "--n", "3", "--two-d", "6", "--csv", str(csv_path)
    )
    assert code == 0
    assert data["k_min_positive"] == 7
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,gap"
    assert len(lines) == 8


def test_random_roundtrip(tmp_path, capsys):
    out = tmp_path / "gamma.json"
    code = main(
        ["random", "--n", "3", "--size", "5", "--seed", "4", "--output", str(out)]
    )
    assert code == 0
    g = PointConfiguration.from_json(json.loads(out.read_text()))
    assert (g.n, g.size) == (3, 5)


def test_io_error_exit_code(capsys):
    code = main(["dims", "--n", "3", "--d", "2", "--config", "/nonexistent.json"])
    assert code == 11


def test_usage_error_exit_code(tmp_path, capsys):
    # guard failure surfaces as a usage-level error, not a traceback
    code = main(["certify", "--case", "36", "--config", "/nonexistent.json"])
    assert code == 11
    # usage errors exit with 10, never with 1, which means "no"
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({"n": 3, "points": [[1, 0, 0], [0, 1, 0]]}))
    no_n = tmp_path / "no_n.json"
    no_n.write_text(json.dumps({"points": [[1, 0, 0], [0, 1, 0]]}))
    for argv in (
        ["dims", "--n", "3", "--d", "2"],  # neither --config nor --random-size
        ["dims", "--n", "5", "--d", "2", "--config", str(plane)],
        ["dims", "--n", "3", "--d", "2", "--config", str(no_n)],
        ["independence", "--n", "5", "--d", "2", "--config", str(plane)],
    ):
        assert main(argv) == 10, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_unperturbed_guard_exit_code(tmp_path, capsys):
    path = tmp_path / "gamma.json"
    g = PointConfiguration(
        3,
        (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 1, 0),
            (1, 0, 1),
            (0, 1, 1),
            (1, 1, 1),
        ),
    )
    path.write_text(json.dumps(g.to_json()))
    code = main(["construct", "seven3", "--config", str(path)])
    assert code == 10
