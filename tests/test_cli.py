import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliquellt
from cliquellt.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    config, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            k, _, v = line[2:].partition("=")
            config[k] = v
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return config, columns, rows


def test_moments_csv(capsys):
    code, out = run(["moments", "--n", "4", "--r", "3", "--p", "0.5"], capsys)
    assert code == 0
    config, columns, rows = parse_csv(out)
    assert config["n"] == "4"
    assert columns == ["quantity", "value"]
    table = {name: float(v) for name, v in rows}
    assert table["mu"] == pytest.approx(0.5)
    assert table["sigma2"] == pytest.approx(0.625)
    assert table["enum_mu"] == pytest.approx(0.5)


def test_moments_json_and_out_file(tmp_path, capsys):
    out_file = tmp_path / "m.json"
    code, _ = run(
        ["moments", "--n", "5", "--r", "3", "--p", "0.3", "--format", "json", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["config"]["n"] == 5
    table = {name: v for name, v in payload["rows"]}
    assert table["mu"] == pytest.approx(0.3**3 * 10)


def test_exact_dist(capsys):
    code, out = run(["exact-dist", "--n", "3", "--r", "3", "--p", "0.5"], capsys)
    assert code == 0
    config, columns, rows = parse_csv(out)
    assert columns == ["value", "probability"]
    masses = {float(x): float(m) for x, m in rows}
    assert masses[0.0] == pytest.approx(7.0 / 8.0)
    assert masses[1.0] == pytest.approx(1.0 / 8.0)
    assert "linf" in config


def test_llt_verify(capsys):
    code, out = run(["llt-verify", "--n", "6", "--r", "3", "--p", "0.5"], capsys)
    assert code == 0
    config, columns, rows = parse_csv(out)
    assert columns == ["n", "linf", "l1", "sigma"]
    assert config["scaled_linf_decreasing"] == "True"
    assert [r[0] for r in rows] == ["5", "6"]


def test_chf_scan_deterministic(capsys):
    argv = [
        "chf-scan", "--n", "8", "--r", "3", "--p", "0.5", "--seed", "11",
        "--samples", "500", "--workers", "2", "--t-min", "0", "--t-max", "2", "--t-steps", "3",
    ]
    _, out1 = run(argv, capsys)
    _, out2 = run(argv, capsys)
    assert out1 == out2
    _, columns, rows = parse_csv(out1)
    assert columns == ["t", "re", "im", "stderr"]
    assert len(rows) == 3
    assert float(rows[0][1]) == pytest.approx(1.0)  # t = 0


def test_chf_scan_self_check(capsys):
    argv = ["chf-scan", "--n", "8", "--r", "3", "--seed", "1", "--samples", "400", "--t-steps", "3"]
    code, out = run(argv + ["--self-check"], capsys)
    assert code == 0
    config, _, _ = parse_csv(out)
    assert float(config["self_check_max_delta"]) > 0.0
    # the self-check adds its one header line and prints the plain run's rows
    _, plain = run(argv, capsys)
    lines = [line for line in out.splitlines() if not line.startswith("# self_check_max_delta=")]
    assert lines == plain.splitlines()


def test_decoupling_check_cli(capsys):
    code, out = run(
        ["decoupling-check", "--n", "5", "--r", "3", "--seed", "2", "--samples", "800"],
        capsys,
    )
    assert code == 0
    config, columns, rows = parse_csv(out)
    assert config["all_pass"] == "True"
    assert [r[0] for r in rows] == ["0.5", "1", "2"]
    assert all(r[-1] == "1" for r in rows)


def test_bounds_check_cli(capsys):
    code, out = run(["bounds-check", "--p", "0.4"], capsys)
    assert code == 0
    config, _, rows = parse_csv(out)
    assert config["all_pass"] == "True"
    names = {r[0] for r in rows}
    assert names == {"bernoulli_chf", "berry_esseen", "hyperconc_moment", "hyperconc_tail", "mainchf"}


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--n", "2", "--r", "3"],
        ["moments", "--n", "400", "--r", "60"],
        ["chf-scan", "--n", "1", "--r", "3"],
        ["chf-scan", "--n", "2", "--r", "3"],
    ],
)
def test_library_error_is_one_line_on_stderr_and_exit_2(argv):
    # sigma = 0 at n < r, also with no edges at all (n = 1); the weights pass
    # the float range at (400, 60)
    env = dict(os.environ, PYTHONPATH=str(Path(cliquellt.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "cliquellt.cli", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("cliquellt: error: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr
