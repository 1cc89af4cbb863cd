import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from fyk import bubble, cli, pohozaev, solver
from fyk.specfun import ProblemIndex


def run(argv):
    return cli.main(argv)


def test_constants_ok(capsys):
    assert run(["constants", "--n", "3", "--gamma", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "kappa" in out
    # alpha = 2, kappa = 1 at (3, 1/2), printed in full precision
    assert ",2" in out.replace(" ", "")
    assert ",1" in out.replace(" ", "")


def test_invalid_index_is_usage_error(capsys):
    assert run(["constants", "--n", "0", "--gamma", "0.5"]) == 1
    assert run(["constants", "--n", "3", "--gamma", "1.5"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_unknown_flag_is_usage_error():
    assert run(["constants", "--n", "3", "--gamma", "0.5", "--bogus"]) == 1
    assert run(["no-such-command"]) == 1


def test_integrals_pass_and_tolerance_breach(capsys):
    assert run(["integrals", "--n", "5", "--gamma", "0.5"]) == 0
    capsys.readouterr()
    # an absurdly tight tolerance flips the verdict, not the computation
    assert run(["integrals", "--n", "5", "--gamma", "0.5", "--tol", "1e-30"]) == 3


def test_integrals_direct_route_meets_tol_at_3_045():
    # the half-ball route brings (3, 0.45) to 6.4e-12 relative
    argv = ["integrals", "--n", "3", "--gamma", "0.45", "--method", "direct_2d", "--tol", "1e-4"]
    assert run(argv) == 0


@pytest.mark.parametrize("n,gamma", [(5, 0.9), (10, 0.9)])
def test_integrals_direct_route_meets_tol_for_singular_weight(n, gamma):
    # the half-sphere rule's tanh-sinh equator panel resolves the weight
    # z^(1-2g), singular at the trace for g > 1/2
    argv = ["integrals", "--n", str(n), "--gamma", str(gamma), "--method", "direct_2d"]
    assert run(argv + ["--tol", "1e-4"]) == 0


def test_integrals_direct_route_at_4_099(capsys):
    # the half-sphere rule stops at d = 1e-200 for g > 0.96 (see
    # _quad._equator_stop), which leaves 7.5e-5 relative at (4, 0.99), a worst
    # absolute residual of 1.13e-2 (I2), so the run reports a breach
    argv = ["integrals", "--n", "4", "--gamma", "0.99", "--method", "direct_2d"]
    assert run(argv + ["--tol", "1e-4"]) == 3
    out = capsys.readouterr().out
    assert "worst residual 1.129e-02" in out
    rows = [line.split(",") for line in out.splitlines()[1:10]]
    worst = max(abs(float(got) / float(want) - 1.0) for _, got, want, _ in rows)
    assert 7e-5 <= worst <= 8e-5


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "green", "--n", "3", "--gamma", "0.5"],
        ["solve", "lambda1", "--n", "3", "--gamma", "0.5"],
        ["solve", "linearized", "--n", "4", "--gamma", "0.3"],
    ],
)
def test_resolution_below_8_is_a_usage_error(argv, capsys):
    # the three subcommands that read a resolution each declare their own
    # default; below 8 cells per axis the run stops before any solve
    assert run(argv + ["--resolution", "4"]) == 1
    assert "resolution must be at least 8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "lambda1", "--n", "4", "--gamma", "0.3", "--radii", "nan"],
        ["solve", "lambda1", "--n", "4", "--gamma", "0.3", "--radii", "inf"],
        ["solve", "green", "--n", "3", "--gamma", "0.5", "--radius", "nan"],
        ["solve", "linearized", "--n", "4", "--gamma", "0.3", "--eps", "nan"],
    ],
)
def test_non_finite_solver_inputs_are_usage_errors(argv, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "lambda1", "--n", "4", "--gamma", "0.3", "--radii", "1e15"],
        ["solve", "lambda1", "--n", "4", "--gamma", "0.3", "--resolution", "10000"],
        ["solve", "green", "--n", "3", "--gamma", "0.5", "--resolution", "4097"],
        ["solve", "linearized", "--n", "4", "--gamma", "0.3", "--resolution", "100000"],
        ["solve", "extension", "--n", "4", "--gamma", "0.3", "--sizes", "32,64,4097"],
    ],
)
def test_oversized_solver_grids_are_usage_errors(argv, capsys):
    # more than solver._MAX_CELLS cells per axis stops the run before any
    # solve (before, R = 1e15 ended in numpy's MemoryError for 682 PiB)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "at most 4096" in err


def test_integrals_rejects_divergent_index(capsys):
    # the library's own check refuses, with its message, on either route
    for method in ("bessel_moments", "direct_2d"):
        assert run(["integrals", "--n", "3", "--gamma", "0.5", "--method", method]) == 1
        assert capsys.readouterr().err == (
            "usage error: the quadratic integrals requires n > 2 + 2*gamma; "
            "(n, gamma) = (3, 0.5) violates it\n"
        )


@pytest.mark.parametrize(
    "argv, config",
    [
        (["constants", "--n", "3", "--gamma", "0.5", "--bogus"], None),
        (["pohozaev", "--n", "4", "--gamma", "0.3", "--radii", "1,x"], None),
        (["solve", "extension", "--n", "4", "--gamma", "0.3", "--sizes", "32,64,1.5"], None),
        (["integrals", "--n", "5", "--gamma", "0.5", "--tol", "nan"], None),
        (["constants", "--n", "3", "--gamma", "0.5"], "resolution = 16\n"),
        (["constants", "--n", "0", "--gamma", "0.5"], None),
        (["solve", "linearized", "--n", "4", "--gamma", "0.3", "--eps", "nan"], None),
    ],
    ids=["argparse", "float-list", "int-list", "run-config", "config-file", "problem-index", "library"],
)
def test_each_refusal_prints_one_usage_line(argv, config, tmp_path, capsys):
    if config is not None:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        argv = argv + ["--config", str(cfgfile)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("usage error: ")


def test_csv_output_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run(
            ["integrals", "--n", "5", "--gamma", "0.7", "--out", str(d)]
        ) == 0
    (f1,), (f2,) = sorted(d1.iterdir()), sorted(d2.iterdir())
    assert f1.name == f2.name
    assert f1.read_bytes() == f2.read_bytes()


def test_json_format(tmp_path):
    assert run(
        [
            "constants",
            "--n",
            "4",
            "--gamma",
            "0.3",
            "--format",
            "json",
            "--out",
            str(tmp_path),
        ]
    ) == 0
    (f,) = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
    data = json.loads(f.read_text())
    rows = {r["name"]: float(r["value"]) for r in data}
    import math

    want = 2.0 ** (2 * 0.3 - 1) * math.gamma(0.3) / math.gamma(0.7)
    assert rows["kappa"] == pytest.approx(want, rel=1e-12)


def test_config_file_sets_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("tol = 1e-30\nformat = csv\n")
    code = run(
        ["integrals", "--n", "5", "--gamma", "0.5", "--config", str(cfgfile)]
    )
    assert code == 3  # the configured tolerance is honored
    cfgfile.write_text("tol = not-a-number\n")
    assert run(
        ["integrals", "--n", "5", "--gamma", "0.5", "--config", str(cfgfile)]
    ) == 1


def test_json_format_needs_an_output_directory(tmp_path, capsys):
    # without --out a json run once printed the csv table
    argv = ["constants", "--n", "4", "--gamma", "0.3"]
    assert run(argv + ["--format", "json"]) == 1
    assert "--out" in capsys.readouterr().err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("format = json\n")
    assert run(argv + ["--config", str(cfgfile)]) == 1
    assert run(argv + ["--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    assert [p.suffix for p in tmp_path.iterdir() if p != cfgfile] == [".json"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-6"])
def test_tolerance_must_be_finite_and_positive(tol, tmp_path, capsys):
    # a NaN tolerance made every verdict a breach (exit 3), an infinite one
    # passed every residual
    argv = ["integrals", "--n", "5", "--gamma", "0.5"]
    assert run(argv + ["--tol", tol]) == 1
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("tol = %s\n" % tol)
    assert run(argv + ["--config", str(cfgfile)]) == 1
    assert "tolerance must be finite and positive" in capsys.readouterr().err


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    # resolution is a per-subcommand flag, not a config key
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("resolution = 16\n")
    assert run(
        ["solve", "lambda1", "--n", "3", "--gamma", "0.5", "--config", str(cfgfile)]
    ) == 1
    assert "resolution" in capsys.readouterr().err


def test_coeff_scan_verdict(capsys):
    assert run(
        ["coeff-scan", "--n-min", "3", "--n-max", "8", "--gamma-step", "0.05"]
    ) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert run(["coeff-scan", "--n-min", "2", "--n-max", "8"]) == 1


def _coeff_scan_one_row_at_a_time(n_min, n_max, step):
    """Oracle for the coeff-scan table: the scalar ``pohozaev.coefficient``
    per grid point, printed as the CLI prints it; also the number of points
    where sign and gate are compared (n > 2 + 2 gamma, off the zero set)."""

    def fmt(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        return format(x, ".17g") if isinstance(x, float) else str(x)

    lines = ["n,gamma,c_value,positive,gate,boundary_zero"]
    compared = 0
    for n in range(n_min, n_max + 1):
        for g in np.arange(step, 1.0, step):
            rep = pohozaev.coefficient(ProblemIndex(n, float(g)))
            row = (n, float(g), rep.c_value, rep.positive, rep.gate_1_2, rep.boundary_zero)
            lines.append(",".join(fmt(v) for v in row))
            compared += n > 2 + 2 * g and not rep.boundary_zero
    return "\n".join(lines) + "\n", compared


@pytest.mark.parametrize(
    "argv, grid, compared",
    [
        ([], (3, 30, 1e-3), 27471),
        (["--n-min", "3", "--n-max", "8", "--gamma-step", "0.01"], (3, 8, 0.01), 543),
    ],
    ids=["defaults", "n3-8_step0.01"],
)
def test_coeff_scan_table_matches_scalar_coefficient(capsys, argv, grid, compared):
    assert run(["coeff-scan", *argv]) == 0
    out = capsys.readouterr().out
    table, count = _coeff_scan_one_row_at_a_time(*grid)
    # the zero of the numerator at (5, 0.5) is listed but not compared
    assert count == compared
    assert out == table + "equivalence verdict: PASS (%d points checked, 0 mismatches)\n" % count


def test_coefficient_scalar_and_array_paths_agree_bitwise():
    n, g = np.meshgrid(np.arange(3, 65), np.arange(0.01, 1.0, 0.01), indexing="ij")
    c = pohozaev.c_value(n, g)
    gate = pohozaev.dimension_gate(n, g)
    num = pohozaev.coefficient_numerator(n, g)
    for k in np.ndindex(n.shape):
        rep = pohozaev.coefficient(ProblemIndex(int(n[k]), float(g[k])))
        assert rep.c_value == c[k] and rep.gate_1_2 == gate[k], (n[k], g[k])
        assert rep.boundary_zero == (abs(num[k]) < 1e-12)


def test_coeff_scan_rows_are_bounded(capsys):
    # a row costs about 350 bytes: a step of 1e-6 asked for 28M rows (about
    # 10 GB) and 1e-9 for an 8 GB np.arange before the first row; past
    # _MAX_SCAN_ROWS the run stops before the grid is built
    assert run(["coeff-scan", "--gamma-step", "1e-9"]) == 1
    assert "more than %d" % cli._MAX_SCAN_ROWS in capsys.readouterr().err


def test_coeff_scan_grid_rounding_up_to_one_is_usage_error(capsys):
    # np.arange(1/3, 1, 1/3) ends at 1.0, outside the open interval
    assert run(["coeff-scan", "--gamma-step", repr(1.0 / 3.0)]) == 1
    assert "gamma must lie in (0,1)" in capsys.readouterr().err


def test_pohozaev_identity_run(capsys):
    assert run(["pohozaev", "--n", "3", "--gamma", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "limit" in out or "surface" in out


def test_pohozaev_beyond_the_s_rule_is_a_numeric_failure(capsys):
    # the half-sphere's fields at r = 1e300 once asked for an s-rule that
    # never finished building
    assert run(["pohozaev", "--n", "4", "--gamma", "0.3", "--radii", "1e300"]) == 2
    assert "largest key" in capsys.readouterr().err


def test_solve_lambda1(capsys):
    assert run(
        ["solve", "lambda1", "--n", "3", "--gamma", "0.5", "--radii", "0.5,1"]
    ) == 0


def test_solve_extension_orders(tmp_path):
    assert run(
        [
            "solve",
            "extension",
            "--n",
            "3",
            "--gamma",
            "0.5",
            "--sizes",
            "16,32,64",
            "--out",
            str(tmp_path),
        ]
    ) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert any(n.endswith(".npz") for n in names)


def test_solve_extension_evaluates_one_bubble_field_per_grid(monkeypatch, capsys):
    # at the default sizes 32, 64 and 128 one radial_profiles call per grid
    # gives the reference and the Dirichlet table: the trace column, the
    # top row and the side column
    fields, solutions = [], []
    radial_profiles, solve_extension = bubble.radial_profiles, solver.solve_extension

    def profiles_spy(*args, **kwargs):
        fields.append(radial_profiles(*args, **kwargs))
        return fields[-1]

    def solve_spy(*args, **kwargs):
        solutions.append(solve_extension(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(bubble, "radial_profiles", profiles_spy)
    monkeypatch.setattr(solver, "solve_extension", solve_spy)
    assert run(["solve", "extension", "--n", "4", "--gamma", "0.3"]) == 0
    assert len(fields) == len(solutions) == 3
    for f, u in zip(fields, solutions):
        W = f["W"]
        assert W.shape == (u.shape[0] + 1, u.shape[1])
        assert np.array_equal(u[:, 0], W[:-1, 0])
        assert np.array_equal(u[:, -1], W[:-1, -1])


def test_solve_linearized_small(capsys):
    assert run(
        [
            "solve",
            "linearized",
            "--n",
            "4",
            "--gamma",
            "0.3",
            "--resolution",
            "64",
            "--box",
            "10",
        ]
    ) == 0


def test_linearized_bad_pi():
    assert run(
        [
            "solve",
            "linearized",
            "--n",
            "4",
            "--gamma",
            "0.3",
            "--pi",
            "diag(1,1)",
        ]
    ) == 1


# one small run of every subcommand
SUBCOMMANDS = [
    ["constants", "--n", "3", "--gamma", "0.5"],
    ["integrals", "--n", "5", "--gamma", "0.7"],
    ["coeff-scan"],
    ["pohozaev", "--n", "4", "--gamma", "0.3"],
    ["solve", "extension", "--n", "3", "--gamma", "0.5", "--sizes", "8,16,32"],
    ["solve", "green", "--n", "3", "--gamma", "0.5", "--resolution", "128"],
    ["solve", "lambda1", "--n", "3", "--gamma", "0.5", "--radii", "0.5,1", "--resolution", "16"],
    ["solve", "linearized", "--n", "4", "--gamma", "0.3", "--resolution", "16", "--box", "10"],
]


@pytest.mark.parametrize(
    "argv",
    [argv for argv in SUBCOMMANDS if argv[0] not in ("integrals", "pohozaev")],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_tol_is_an_option_only_where_a_verdict_reads_it(argv, tmp_path, capsys):
    # integrals and pohozaev compare their residuals with the tolerance; the
    # other subcommands refuse --tol, and a config file's tol key, which
    # those two read, stays legal for them
    assert run(argv + ["--tol", "1e-3"]) == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("tol = 1e-3\n")
    assert run(argv + ["--config", str(cfgfile)]) in (0, 3)


def _one_table(monkeypatch, argv):
    """Run ``argv`` and return the (header, rows) of its one table."""
    tables = []
    emit = cli._emit

    def spy(cfg, name, header, rows, notes=()):
        tables.append((header, rows))
        return emit(cfg, name, header, rows, notes)

    monkeypatch.setattr(cli, "_emit", spy)
    assert run(argv) in (0, 3)
    (table,) = tables
    return table


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_row_text_is_the_per_value_format(monkeypatch, capsys, argv):
    # every subcommand's rows, the mixed ones too (pohozaev's limit row, the
    # extension table's empty first order), print as ",".join(map(_fmt, row))
    _, rows = _one_table(monkeypatch, argv)
    assert cli._rows_text(rows) == [",".join(map(cli._fmt, row)) for row in rows]
    out = capsys.readouterr().out.splitlines()
    assert out[1:len(rows) + 1] == cli._rows_text(rows)


@pytest.mark.parametrize(
    "argv",
    # pohozaev once more with a tolerance no radius meets, so its within_tol
    # column holds false as well as true
    SUBCOMMANDS + [["pohozaev", "--n", "4", "--gamma", "0.3", "--tol", "1e-30"]],
    ids=[argv[0] if argv[0] != "solve" else "-".join(argv[:2]) for argv in SUBCOMMANDS]
    + ["pohozaev-breach"],
)
def test_boolean_columns_print_true_false(monkeypatch, capsys, argv):
    # a column holding any boolean holds Python bools only (np.bool_ prints
    # True/False), and prints them as true/false
    header, rows = _one_table(monkeypatch, argv)
    lines = capsys.readouterr().out.splitlines()[1:len(rows) + 1]
    cells = [line.split(",") for line in lines]
    for j, name in enumerate(header):
        col = [row[j] for row in rows]
        if not any(isinstance(v, (bool, np.bool_)) for v in col):
            continue
        assert all(type(v) is bool for v in col), name
        assert [c[j] for c in cells] == ["true" if v else "false" for v in col], name
    if argv[0] == "pohozaev":
        assert header[-1] == "within_tol"
        assert {row[-1] for row in rows} == ({True, False} if "--tol" in argv else {True})


# sha256 of the tables whose accuracy figures the benchmark's err_drift
# reads, and of the linearized summary, which feeds no accuracy figure, as
# written at OPENBLAS_NUM_THREADS=1
PINNED_TABLES = {
    ("integrals", "7", "0.25"): (
        "integrals_n7_g0.25_direct_2d.csv",
        "7b26b491fec2636d396af7fa4d4f2d10f243764165c1e268264f35061ebd2104",
    ),
    ("integrals", "4", "0.8"): (
        "integrals_n4_g0.8_direct_2d.csv",
        "c8ed0c37d587316106a69a1690487903eb5950f1475a8ce79644dde8433eb818",
    ),
    ("pohozaev", "4", "0.3"): (
        "pohozaev_n4_g0.3.csv",
        "5a07fe53d6afd8726c8eeb68dcd0d427461f543bf14912c9575e9b0a94e8f41f",
    ),
    ("solve", "green", "3", "0.5"): (
        "green_summary_n3_g0.5.csv",
        "add21441207dab58b19f794a53d4aab374a025253553215f75497a4267ae7776",
    ),
    ("solve", "lambda1", "4", "0.3"): (
        "lambda1_n4_g0.3.csv",
        "fa026489e7a8df806a48525c5d8bed912b42fb82ac45917529417cbd1389cc84",
    ),
    ("solve", "extension", "4", "0.3"): (
        "extension_summary_n4_g0.3.csv",
        "5b1e0f2fd1620e67c1e27d3a0270a35dbb65d4c9e86b1e1dbc75735b4760f871",
    ),
    ("solve", "linearized", "4", "0.3"): (
        "linearized_summary_n4_g0.3.csv",
        "1c4cbbf50fa056b97def0158c3c4e9a7215b05019c8650a47d86831cc852309e",
    ),
}


def test_pinned_tables_are_byte_identical(tmp_path):
    # a fresh interpreter with one BLAS thread, whose dgemm sums in a fixed
    # order, so that the tables' last digits do not depend on the machine's
    # thread count
    jobs = [
        [*cmd, "--n", n, "--gamma", g, "--out", str(tmp_path)]
        + (["--method", "direct_2d"] if cmd == ["integrals"] else [])
        for *cmd, n, g in PINNED_TABLES
    ]
    code = f"from fyk import cli\nfor argv in {jobs!r}:\n    assert cli.main(argv) == 0\n"
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
    for name, want in PINNED_TABLES.values():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == want, (
            f"{name} changed (sha256 {got}); a deliberate change of these tables "
            "moves the benchmark's err_drift and must be recorded in CHANGES.md, "
            "with the new sha256 here"
        )
