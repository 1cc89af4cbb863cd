import json

import pytest

from fyk import cli


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
    # the nine-exponent tail fit brings (3, 0.45) to about 2.5e-6
    argv = ["integrals", "--n", "3", "--gamma", "0.45", "--method", "direct_2d", "--tol", "1e-4"]
    assert run(argv) == 0


def test_integrals_rejects_divergent_index():
    assert run(["integrals", "--n", "3", "--gamma", "0.5"]) == 1


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


def test_pohozaev_identity_run(capsys):
    assert run(["pohozaev", "--n", "3", "--gamma", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "limit" in out or "surface" in out


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
