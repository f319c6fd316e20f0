"""End-to-end CLI behavior: exit codes, JSON output, determinism."""

import hashlib
import json

import pytest

from conefaces.cli import main
from conefaces.constructions import (
    GenericityError,
    seven_point_scheme,
    six_point_scheme,
)
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
    for case in ("44", "36"):
        code, data = run(
            capsys, "certify", "--case", case, "--epsilon", "0", "--samples", "0"
        )
        assert code == 1
        assert data["not_sos_proof"]["in_ordinary_square"]


def test_certify_negative_epsilon(capsys):
    # -1/3 does not look like a number to argparse; it must still be read
    # as the value of --epsilon, as in the attached form
    argv = ["certify", "--case", "44", "--samples", "50", "--seed", "0"]
    code = main(argv + ["--epsilon", "-1/3"])
    separate = capsys.readouterr().out
    assert code == main(argv + ["--epsilon=-1/3"])
    assert separate == capsys.readouterr().out
    assert json.loads(separate)["epsilon"] == "-1/3"


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
    int_points = tmp_path / "int_points.json"
    int_points.write_text(json.dumps({"n": 3, "points": 5}))
    null_coord = tmp_path / "null_coord.json"
    null_coord.write_text(json.dumps({"n": 3, "points": [[1, None, 0]]}))
    float_n = tmp_path / "float_n.json"
    float_n.write_text(json.dumps({"n": 3.0, "points": [[1, 0, 0], [0, 1, 0]]}))
    # a zero denominator, and two coordinates that JSON reads as a float inf
    zero_den = tmp_path / "zero_den.json"
    zero_den.write_text(json.dumps({"n": 3, "points": [[1, "1/0", 0]]}))
    infinity = tmp_path / "infinity.json"
    infinity.write_text('{"n": 3, "points": [[1, Infinity, 0]]}')
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 3, "points": [[1, 1e400, 0]]}')
    for argv in (
        ["dims", "--n", "3", "--d", "2"],  # neither --config nor --random-size
        ["dims", "--n", "5", "--d", "2", "--config", str(plane)],
        ["dims", "--n", "3", "--d", "2", "--config", str(no_n)],
        ["dims", "--n", "3", "--d", "2", "--config", str(int_points)],
        ["dims", "--n", "3", "--d", "2", "--config", str(null_coord)],
        ["dims", "--n", "3", "--d", "2", "--config", str(float_n)],
        ["dims", "--n", "3", "--d", "2", "--config", str(zero_den)],
        ["dims", "--n", "3", "--d", "2", "--config", str(infinity)],
        ["dims", "--n", "3", "--d", "2", "--config", str(huge)],
        ["independence", "--n", "5", "--d", "2", "--config", str(plane)],
        # too few projective points to draw: these used to loop forever
        ["random", "--n", "1", "--size", "2"],
        ["dims", "--n", "0", "--d", "2", "--random-size", "1"],
        # one variable: alpha used to loop forever, as dim H_{1,t} = 1
        ["dims", "--n", "1", "--d", "1", "--random-size", "1"],
    ):
        assert main(argv) == 10, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
    # argparse's own errors too: its exit code 2 would read as "indeterminate"
    for argv in (
        ["dims", "--d", "2", "--random-size", "3"],  # no --n
        ["dims", "--n", "x", "--d", "2", "--random-size", "3"],
        ["certify", "--case", "99"],
        ["certify", "--case", "36", "--epsilon", "1/0"],
        ["certify", "--case", "36", "--samples", "-3"],
        ["gapscan", "--n", "3", "--two-d", "8", "--k-range", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 10, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err
    assert "a..b" in captured.err
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--help"])
    assert exc.value.code == 0


def test_singular_normals_exit_code(tmp_path, capsys):
    # 3-independent, but the lines through points 1, 2 / 3, 4 / 5, 6 meet
    # in one point, so their normals are dependent
    seven = PointConfiguration(3, (
        (0, -1, -1), (-1, 1, 1), (2, 0, -1), (-1, 0, -1), (-2, -1, 0),
        (0, 1, 0), (-1, 1, 0),
    ))
    # the normals of the four covering triples are dependent
    six = PointConfiguration(4, (
        (-2, 0, 0, 2), (0, -2, 0, 2), (0, -1, -2, 1), (0, -1, 2, -2),
        (0, 1, 0, 0), (0, 2, 2, 2),
    ))
    for g, build, argv in (
        (seven, seven_point_scheme, ["construct", "seven3"]),
        (six, six_point_scheme, ["certify", "--case", "44"]),
    ):
        with pytest.raises(GenericityError, match="^matrix is singular$"):
            build(g)
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(g.to_json()))
        assert main([*argv, "--config", str(path)]) == 10, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix is singular\n"


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


# SHA-256 of the stdout of exact commands (no sampled floats).  Recorded by
# running each command through main() at commit 55692b3, before products were
# routed through polynomials.product_rows; a change that keeps these bytes
# keeps every dimension, verdict, scheme and certificate they print.
GOLDEN_STDOUT = {
    "dims --n 4 --d 2 --random-size 6 --seed 1 --glp":
        "f43408e9fa3253f6426a8e58fc263ff7b9dc38d5e4b10dc3a80c28941e50ab0b",
    "dims --n 3 --d 3 --random-size 7 --seed 2":
        "d4a7bf8e98acfc7f52736a07fc78d0f0671019aa31043765f2560597b52b147e",
    "dims --n 3 --d 3 --random-size 8 --seed 3":
        "237e531b285165697c3ffc6219468ad1a78e34dc7a0c4183f52e60a38bb41f9c",
    "dims --n 3 --d 4 --random-size 12 --seed 5":
        "45c1681f62d92fb7f9b2e3f601b3c4062e6877bc33498f664a428a2ffcd0301e",
    "dims --n 3 --d 4 --random-size 10 --seed 5":
        "a58b4998fbf7e68f3b1c501ff8e786e61163246d76b73011d37a9756c5c9ef02",
    "independence --n 3 --d 2 --random-size 7 --seed 2":
        "98f76c281de283b126a638aaed0f45a6fb162bdb129a8efbdfdeae1104862d53",
    "independence --n 3 --d 3 --random-size 7 --seed 2":
        "e07ea12dc654f53ae5bfce7f2c8c2a21b2f7d21521b788235a78e3a8e9ae2b84",
    "independence --n 3 --d 3 --random-size 8 --seed 0":
        "b8da3fb4763f25978e1f504012ceb6218fb473c34501a60e8cb88657de0a700b",
    "construct six4":
        "533af068f96fdcdffcdcf898ca8097ff39b7035d66db605f2e0d7092badc2904",
    "construct seven3":
        "54f08e2cf345cc889ff5623b5c63e43c654747139f86a7e23ef36e9941f139ad",
    "construct snd --n 3 --d 3":
        "225544f47f05357eb1f2e5def5a20918e2a97985a7bc0b3bfb9663d7662446cb",
    "certify --case 36 --samples 0":
        "dc8036e27bd02e1fac9486b8cbc4e20611e20b39864839249b22454590552d60",
    "certify --case 44 --samples 0":
        "a7cd96cbe160330a6bcdfb8e3188aa144bbe48efa67f5d0b6fa554cd662de64a",
    "gapscan --n 3 --two-d 8":
        "39124ab38b3057ac6d8baf3cc925319ac181c495e6c62c0cfe895ccaf264396d",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(capsys, command):
    # the corpus has gaps 0, 1 and 3, verdicts "yes" and "no", and exit 1
    main(command.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]
