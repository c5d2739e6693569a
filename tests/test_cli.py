import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cliquellt
from cliquellt.cli import build_parser, main


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
        ["chf-scan", "--n", "8", "--t-steps", "-1"],
        ["chf-scan", "--n", "8", "--t-steps", "0"],
        ["chf-scan", "--n", "8", "--samples", "10", "--t-max", "inf"],
        ["chf-scan", "--n", "8", "--samples", "10", "--t-min", "nan"],
        ["llt-verify", "--n", "5"],
        ["llt-verify", "--n", "9", "--samples", "10", "--seed", "-1"],
        ["bounds-check", "--p", "1.5"],
        ["bounds-check", "--p", "-0.5"],
    ],
)
def test_library_error_is_one_line_on_stderr_and_exit_2(argv):
    # sigma = 0 at n < r, also with no edges at all (n = 1); the weights pass
    # the float range at (400, 60); an empty or non-finite t grid; llt-verify
    # with fewer than two exact rows to compare; a negative seed; a p outside
    # (0, 1), which bounds-check once met in a square root before any check
    env = dict(os.environ, PYTHONPATH=str(Path(cliquellt.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "cliquellt.cli", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("cliquellt: error: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["llt-verify", "--n", "7", "--workers", "0", "--samples", "0"],
        ["llt-verify", "--n", "7", "--samples", "0"],
        ["llt-verify", "--n", "6", "--workers", "0"],
    ],
)
def test_llt_verify_rejects_bad_monte_carlo_options_when_every_row_is_exact(argv, capsys, monkeypatch):
    # regression: with no n beyond the enumeration cap, these exited 0 and
    # echoed samples=0 / workers=0 in the header, where chf-scan exits 2
    monkeypatch.setattr(sys, "argv", ["cliquellt", *argv])
    assert cliquellt.cli._program() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cliquellt: error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("p", ["1e-15", "1e-12", "1e-9", "1e-6", "1e-3", "0.4", "0.999", "0.9999", "0.999999"])
def test_bounds_check_runs_at_any_p(p, capsys, monkeypatch):
    # regression: mainchf at a fixed t = 0.5 was past its validity limit at
    # p = 0.999, the Berry-Esseen grid started past its cap at p = 1e-6, and
    # the pruned degree-1 part of kappa left max() an empty sequence there
    monkeypatch.setattr(sys, "argv", ["cliquellt", "bounds-check", "--p", p])
    assert cliquellt.cli._program() in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    _, columns, rows = parse_csv(captured.out)
    assert columns == ["name", "margin", "pass"] and len(rows) == 5


def test_bounds_check_passes_every_margin_at_p_1e_100(capsys, monkeypatch):
    # regression: hyperconc_moment's norm2^4 underflowed to 0, a margin of -4e-300 and exit 1
    monkeypatch.setattr(sys, "argv", ["cliquellt", "bounds-check", "--p", "1e-100"])
    assert cliquellt.cli._program() == 0
    _, _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 5 and all(float(margin) >= 0 and ok == "1" for _, margin, ok in rows)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_llt_verify_rows_start_where_sigma_is_positive(r, capsys, monkeypatch):
    # regression: the rows started at n = 5 whatever r, and sigma = 0 there for r >= 6
    monkeypatch.setattr(sys, "argv", ["cliquellt", "llt-verify", "--n", "8", "--r", str(r), "--samples", "200"])
    assert cliquellt.cli._program() in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    _, _, rows = parse_csv(captured.out)
    assert [int(row[0]) for row in rows] == list(range(max(5, r), 9))


def test_llt_verify_without_two_exact_rows_is_one_line_and_exit_2(capsys, monkeypatch):
    # at r = 7 the rows start at n = 7, and n = 8 is past the enumeration cap
    monkeypatch.setattr(sys, "argv", ["cliquellt", "llt-verify", "--n", "8", "--r", "7", "--samples", "200"])
    assert cliquellt.cli._program() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cliquellt: error: llt-verify needs two exact rows") and captured.err.count("\n") == 1


def test_exhaustive_law_above_the_edge_cap_is_a_capacity_error():
    # exact-dist has no Monte Carlo fallback: 28 edges stay an error, with the same message
    env = dict(os.environ, PYTHONPATH=str(Path(cliquellt.__file__).resolve().parents[1]))
    argv = ["exact-dist", "--n", "8"]
    run = subprocess.run([sys.executable, "-m", "cliquellt.cli", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == "cliquellt: error: exhaustive enumeration capped at 21 edges, got 28\n"


def test_decoupling_check_above_the_table_cap_fails_before_building_f(capsys, monkeypatch):
    # regression: n = 12, r = 5 spent about 10 s in fr_function before the
    # truth table reported its cap; the check reads the clique counts, and
    # builds f_r at no size
    argv = ["decoupling-check", "--n", "6", "--r", "3", "--samples", "50"]
    _, plain = run(argv, capsys)

    def fail(spec):
        raise AssertionError("fr_function called by decoupling-check")

    monkeypatch.setattr(cliquellt.cli, "fr_function", fail)
    assert run(argv, capsys) == (0, plain)
    monkeypatch.setattr(sys, "argv", ["cliquellt", "decoupling-check", "--n", "12", "--r", "5"])
    assert cliquellt.cli._program() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cliquellt: error: exhaustive enumeration capped at 21 edges, got 66\n"


def test_decoupling_check_at_a_tiny_p_exits_0(capsys):
    # regression: p = 1e-300 exited 2 on the underflowing mean of f_r, which the check never reads
    code, out = run(["decoupling-check", "--n", "7", "--p", "1e-300", "--samples", "50"], capsys)
    assert code == 0
    config, _, rows = parse_csv(out)
    assert config["all_pass"] == "True" and len(rows) == 3


def test_decoupling_check_with_one_y_row_is_one_line_and_exit_2(capsys, monkeypatch):
    # regression: one row exited 0 on a zero stderr band
    monkeypatch.setattr(sys, "argv", ["cliquellt", "decoupling-check", "--n", "6", "--samples", "1"])
    assert cliquellt.cli._program() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cliquellt: error: need at least two Y rows") and captured.err.count("\n") == 1


def test_chf_scan_with_a_phase_past_the_float_range_is_one_line_and_exit_2(capsys, monkeypatch):
    # regression: t x overflowed in the chf's phases, and the rows read nan,nan,nan with exit 0
    def chf_scan(t):
        argv = ["chf-scan", "--n", "8", "--samples", "50", "--t-min", t, "--t-max", t, "--t-steps", "1"]
        monkeypatch.setattr(sys, "argv", ["cliquellt", *argv])
        return cliquellt.cli._program(), capsys.readouterr()

    rc, captured = chf_scan("1e308")
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("cliquellt: error: chf phase t x is not finite") and captured.err.count("\n") == 1
    rc, captured = chf_scan("1e307")  # |kappa| 1e307 is still finite
    assert rc == 0 and captured.err == ""
    _, _, rows = parse_csv(captured.out)
    assert len(rows) == 1 and all(math.isfinite(float(v)) for v in rows[0])


def test_python_dash_m_runs_the_program(capsys):
    argv = ["moments", "--n", "6", "--r", "3"]
    _, expected = run(argv, capsys)
    env = dict(os.environ, PYTHONPATH=str(Path(cliquellt.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cliquellt", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == expected


@pytest.mark.parametrize(
    "argv, keys, foreign",
    [
        (["moments", "--n", "4"], ["n", "r", "prob"], ["--seed", "1"]),
        (["exact-dist", "--n", "3"], ["n", "r", "prob"], ["--samples", "5"]),
        (["llt-verify", "--n", "6"], ["n", "r", "prob", "seed", "samples", "workers"], ["--t-max", "1"]),
        (["decoupling-check", "--n", "5", "--samples", "50"], ["n", "r", "prob", "seed", "samples", "workers"],
         ["--t-min", "1"]),
        (["chf-scan", "--n", "8", "--samples", "50"],
         ["n", "r", "prob", "seed", "samples", "workers", "t_min", "t_max", "t_steps"], None),
        (["bounds-check"], ["prob"], ["--n", "5"]),
    ],
    ids=["moments", "exact-dist", "llt-verify", "decoupling-check", "chf-scan", "bounds-check"],
)
def test_header_records_exactly_the_options_a_subcommand_reads(argv, keys, foreign, capsys):
    # regression: every subcommand took all twelve options and recorded nine
    # of them, read or not
    code, out = run([*argv, "--format", "json"], capsys)
    assert code == 0
    assert list(json.loads(out)["config"]) == [*keys, "version"]
    if foreign:
        with pytest.raises(SystemExit) as exc:
            main([*argv, *foreign])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + foreign[0] in capsys.readouterr().err


def test_readme_cli_block_parses_and_lists_each_subcommands_flags(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]
    assert len(commands) == 6
    for argv in commands:
        build_parser().parse_args(argv)
    # the flag table: `name`, `name` | `--flag --flag ...`
    documented = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            names, flags = line.split("|")[1:3]
            for name in re.findall(r"`([a-z-]+)`", names):
                documented[name] = set(flags.split("`")[1].split())
    assert set(documented) == {argv[0] for argv in commands}
    for name, flags in documented.items():
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--help"])
        usage = capsys.readouterr().out
        assert set(re.findall(r"--[a-z-]+", usage)) == flags | {"--help", "--out", "--format"}


GRID = ["--t-min", "0", "--t-max", "8", "--t-steps", "17"]
ROW_DIGESTS = {  # sha256 prefix of each command's rows; the header is left out, as it carries the version
    ("chf-scan", "--n", "30", "--r", "3", "--p", "0.5", "--samples", "20000", "--workers", "4", *GRID,
     "--format", "json", "--seed", "1"): "87cf9e99a1dff196",
    ("llt-verify", "--n", "10", "--r", "3", "--samples", "20000", "--seed", "1"): "7f922ad45332c80c",
    ("chf-scan", "--n", "30", "--r", "4", "--p", "0.5", "--samples", "200", "--workers", "4", *GRID,
     "--format", "json", "--seed", "1"): "4ab08d30c97a71d9",
    ("chf-scan", "--n", "70", "--r", "4", "--samples", "300", "--workers", "2"): "c2533ccad138d5fd",  # two words per row
    # the lhs is read off the law of f's values, the rhs is Monte Carlo
    ("decoupling-check", "--n", "6", "--r", "3", "--samples", "2000", "--seed", "5"): "54772e1925836cd4",
    # p = 0.3 reads the integer counts, which f_r's float table was off by up to 7.1e-15
    ("decoupling-check", "--p", "0.3", "--n", "6", "--r", "3", "--samples", "2000", "--seed", "5"): "1d11b4303d52ae91",
}


def _rows(out: str) -> str:
    if out.startswith("{"):
        payload = json.loads(out)
        return json.dumps([payload["columns"], payload["rows"], payload.get("summary")])
    return "\n".join(line for line in out.splitlines() if not line.startswith("# "))


@pytest.mark.parametrize("argv", ROW_DIGESTS, ids=lambda argv: " ".join(argv[:5]))
def test_monte_carlo_rows_keep_their_bits(argv, capsys):
    code, out = run(list(argv), capsys)
    assert code == 0
    assert hashlib.sha256(_rows(out).encode()).hexdigest()[:16] == ROW_DIGESTS[argv]


EXHAUSTIVE_DIGESTS = {  # as ROW_DIGESTS, for the commands whose rows come from the exact law
    ("exact-dist", "--n", "7", "--r", "3", "--format", "json"): "ebd4df1f58477ebb",
    ("exact-dist", "--n", "7", "--r", "3", "--p", "0.3", "--format", "json"): "691938a3071ee3b0",
    ("exact-dist", "--n", "6", "--r", "4", "--format", "json"): "82c83664c68a107a",
    ("moments", "--n", "7", "--r", "3", "--format", "json"): "207588b0301f30ec",
    ("bounds-check", "--p", "0.4"): "b7a517c1d56e6f14",  # every margin from exact sums, mainchf's from exact_chf
}


@pytest.mark.parametrize("argv", EXHAUSTIVE_DIGESTS, ids=" ".join)
def test_exhaustive_rows_keep_their_bits(argv, capsys):
    code, out = run(list(argv), capsys)
    assert code == 0
    assert hashlib.sha256(_rows(out).encode()).hexdigest()[:16] == EXHAUSTIVE_DIGESTS[argv]


def _outcome(call, argv, capsys):
    """(exit code, stdout, stderr) of one CLI call; argparse exits through SystemExit."""
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _on_a_fresh_parser(argv):
    args = build_parser().parse_args(argv)
    return args.func(args)


def test_the_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # main parses on one parser per process; a flag, a default or an error
    # of one call must not leak into the next
    built = []
    monkeypatch.setattr(cliquellt.cli, "build_parser", lambda: built.append(1) or build_parser())
    cliquellt.cli._parser.cache_clear()
    try:
        calls = [
            ["chf-scan", "--n", "8", "--samples", "50", "--self-check"],
            ["chf-scan", "--n", "8", "--samples", "50"],
            ["moments", "--n", "x"],  # a usage error
            ["decoupling-check", "--help"],
            ["bounds-check", "--p", "0.4", "--format", "json"],
        ]
        shared = [_outcome(main, argv, capsys) for argv in calls]
    finally:
        cliquellt.cli._parser.cache_clear()
    assert len(built) == 1
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0]
    assert "self_check_max_delta" in shared[0][1] and "self_check_max_delta" not in shared[1][1]
    for argv, outcome in zip(calls, shared):
        assert outcome == _outcome(_on_a_fresh_parser, argv, capsys), argv
