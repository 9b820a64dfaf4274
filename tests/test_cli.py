"""CLI behavior: flags, config files, exit codes, output files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from helmdeconv import cli_main
from helmdeconv.cli import ConfigError, parse_config_file


def test_no_subcommand_prints_usage(capsys):
    assert cli_main([]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "subcommand is required" in err


def test_unknown_subcommand(capsys):
    assert cli_main(["shrink"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_unknown_flag(capsys):
    assert cli_main(["stopping", "--frobnicate"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "compare" in capsys.readouterr().out


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# stopping study\n"
        "seed = 7\n"
        "alpha = 0.2   # inline comment\n"
        "\n"
        "jmax=12\n"
    )
    assert parse_config_file(path) == {"seed": "7", "alpha": "0.2", "jmax": "12"}


def test_parse_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("jmax 12\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)
    path.write_text("jmax = 12\njmax = 13\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jmax = 3\n")  # a stopping key, invalid for compare
    code = cli_main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_config_file_is_an_error(tmp_path, capsys):
    code = cli_main(["stopping", "--config", str(tmp_path / "absent.cfg")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_value_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jmax = soon\n")
    code = cli_main(["stopping", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "bad value" in capsys.readouterr().err


def test_stopping_subcommand_runs(tmp_path, capsys):
    out = tmp_path / "results"
    code = cli_main(["stopping", "--seed", "3", "--j", "8", "--out", str(out)])
    assert code == 0
    assert (out / "stopping_run.csv").exists()
    assert (out / "stopping_summary.txt").exists()
    assert "stop index" in capsys.readouterr().out


def test_stopping_simpson_quadrature_runs(tmp_path):
    # the noise bound used to be set in the Simpson norm but checked in the trapezoid one
    out = tmp_path / "results"
    code = cli_main(["stopping", "--quadrature", "simpson", "--seed", "1",
                     "--out", str(out)])
    assert code == 0
    assert (out / "stopping_run.csv").exists()


def test_compare_subcommand_writes_three_csvs(tmp_path):
    out = tmp_path / "results"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha_count = 4\n")
    code = cli_main(["compare", "--preset", "compare1d", "--config", str(cfg),
                     "--out", str(out)])
    assert code == 0
    for j in (1, 2, 3):
        assert (out / f"compare_J{j}.csv").exists()


def test_cli_flag_overrides_config_file(tmp_path):
    out = tmp_path / "results"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\njmax = 6\n")
    code = cli_main(["stopping", "--config", str(cfg), "--seed", "9",
                     "--out", str(out)])
    assert code == 0
    header = (out / "stopping_run.csv").read_text().splitlines()[0]
    assert "seed=9" in header
    assert header.count(",") >= 5
    lines = (out / "stopping_run.csv").read_text().splitlines()
    assert len(lines) == 2 + 6  # jmax from the file survives


def test_filter_subcommand(tmp_path, capsys):
    out = tmp_path / "results"
    code = cli_main(["filter", "--preset", "stopping1d", "--out", str(out)])
    assert code == 0
    assert (out / "filtered_signal.csv").exists()
    summary = (out / "filter_summary.txt").read_text()
    assert "roundtrip_residual" in summary
    assert "roundtrip residual" in capsys.readouterr().out


def test_rates_subcommand_small(tmp_path):
    out = tmp_path / "results"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("refinements = 8,16\nsignal = 1:1:1,0.5:3:3\n")
    code = cli_main(["rates", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "rates_mitlar_J0.csv").exists()
    assert (out / "rates_summary.txt").exists()


def test_rates_rejects_non_doubling_refinements(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("refinements = 8,20\n")
    code = cli_main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "double" in capsys.readouterr().err


@pytest.mark.parametrize("cases", ["tl:3", "mitlar:1,mtl:2"])
def test_rates_rejects_updates_on_single_step_schemes(tmp_path, capsys, cases):
    out = tmp_path / "o"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"refinements = 8,16\ncases = {cases}\n")
    code = cli_main(["rates", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert "takes no updates" in capsys.readouterr().err
    assert not out.exists()


def test_custom_signal_flag_roundtrip(tmp_path):
    out = tmp_path / "results"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("signal = 1:1,0.25:8\nn = 64\nlevel = 0.0\njmax = 3\n")
    code = cli_main(["stopping", "--config", str(cfg), "--out", str(out)])
    assert code == 0


def test_byte_identical_reruns(tmp_path):
    def run_all(base):
        cfg = tmp_path / "compare.cfg"
        cfg.write_text("alpha_count = 3\nj_list = 1\nn = 200\nsignal = 1:1,0.1:20\n")
        rates_cfg = tmp_path / "rates.cfg"
        rates_cfg.write_text("refinements = 8,16\nsignal = 1:1:1\n")
        assert cli_main(["compare", "--config", str(cfg), "--out", str(base / "c")]) == 0
        assert cli_main(["rates", "--config", str(rates_cfg), "--out", str(base / "r")]) == 0
        assert cli_main(["stopping", "--seed", "4", "--j", "5", "--out", str(base / "s")]) == 0
        assert cli_main(["filter", "--out", str(base / "f")]) == 0
        return {
            p.relative_to(base): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()
        }

    first = run_all(tmp_path / "one")
    second = run_all(tmp_path / "two")
    assert first == second


def _run_python(*args):
    """Run a fresh interpreter that imports helmdeconv from this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_python_m_helmdeconv_runs_the_cli(tmp_path):
    out = tmp_path / "results"
    proc = _run_python("-m", "helmdeconv", "filter", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "filter_summary.txt").exists()
    assert "roundtrip residual" in proc.stdout


def test_python_m_helmdeconv_cli_runs_without_runtime_warning(tmp_path):
    out = tmp_path / "results"
    proc = _run_python("-W", "error::RuntimeWarning", "-m", "helmdeconv.cli",
                       "filter", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "filter_summary.txt").exists()


def test_import_loads_no_scipy():
    proc = _run_python("-c", "import sys, helmdeconv; "
                             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_main_resolves_lazily():
    import helmdeconv
    from helmdeconv import cli

    assert helmdeconv.cli_main is cli.cli_main is cli_main
    assert not hasattr(helmdeconv, "no_such_name")
