"""CLI behavior: flags, config files, exit codes, output files."""

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_rates_rejects_a_repeated_case(tmp_path, capsys):
    # both copies of a case used to share one error list; --j 0 repeats mitlar:0
    out = tmp_path / "o"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("refinements = 8,16\ncases = mitlar:1,tl,mitlar:1\n")
    assert cli_main(["rates", "--config", str(cfg), "--out", str(out)]) == 1
    assert "repeat mitlar:1" in capsys.readouterr().err
    assert cli_main(["rates", "--j", "0", "--out", str(out)]) == 1
    assert "repeat mitlar:0" in capsys.readouterr().err
    assert not out.exists()


UNREAD_FLAGS = [("compare", "--alpha"), ("compare", "--level"), ("rates", "--n"),
                ("rates", "--alpha"), ("rates", "--level"), ("filter", "--alpha"),
                ("filter", "--level"), ("filter", "--j")]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_subcommand_rejects_a_flag_it_never_reads(tmp_path, capsys, command, flag):
    # each of these used to exit 0 with output byte-identical to the defaults
    out = tmp_path / "o"
    assert cli_main([command, flag, "1", "--out", str(out)]) == 1
    assert flag in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = 1\n")
    assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    assert not out.exists()


# one value strategy per config key, with small sizes only, so that no example
# allocates much or runs long
FLOATS = st.one_of(st.floats().map(repr), st.sampled_from(["1e308", "-1e300", "0", "x", ""]))
SIGNAL_TERM = st.lists(st.one_of(FLOATS, st.integers(0, 30).map(str)), min_size=1, max_size=4)
VALUES = {
    "preset": st.sampled_from(["compare1d", "rates2d", "stopping1d", "bogus"]),
    "seed": st.integers(-2, 2**70).map(str),
    "quadrature": st.sampled_from(["trapezoid", "simpson", "midpoint"]),
    "n": st.integers(-1, 24).map(str),
    "j": st.integers(-1, 4).map(str),
    "jmax": st.integers(-1, 4).map(str),
    "mc_runs": st.integers(-1, 3).map(str),
    "alpha_count": st.sampled_from(["-1", "1", "2", "5", "100000000000"]),
    "j_list": st.lists(st.integers(-1, 4), max_size=3).map(lambda js: ",".join(map(str, js))),
    "refinements": st.sampled_from(["4,8", "6,12,24", "4,9", "", "0,0", "-4,-8", "1,2"]),
    "cases": st.sampled_from(["mitlar:0,tl", "itl:2,mtl", "tl:3", "mitlar:1,mitlar:1", "x", ""]),
    "mode": st.sampled_from(["halt", "record_only", "stop"]),
    "signal": st.one_of(st.sampled_from(["compare1d", "rates2d", "stopping1d"]),
                        st.lists(SIGNAL_TERM.map(":".join), max_size=2).map(",".join)),
    **dict.fromkeys(("level", "alpha", "delta", "delta_h_multiple", "alpha_min", "alpha_max",
                     "delta_coeff", "delta_exp", "alpha_coeff", "alpha_exp"), FLOATS),
}
FLAGS = ("preset", "seed", "quadrature", "alpha", "delta", "j", "n", "level")


def _epilog_keys(command, capsys):
    assert cli_main([command, "--help"]) == 0
    epilog = capsys.readouterr().out.split("config file keys:\n", 1)[1]
    return [line.split()[0] for line in epilog.splitlines() if line.strip()]


def test_help_epilog_lists_exactly_the_accepted_config_keys(tmp_path, capsys):
    commands = ("compare", "rates", "stopping", "filter")
    listed = {command: _epilog_keys(command, capsys) for command in commands}
    every_key = {"out", *VALUES}
    assert set().union(*listed.values()) == every_key
    cfg = tmp_path / "run.cfg"
    for command in commands:
        for key in sorted(every_key):
            # the bad seed stops every run before it starts, whether or not the key is known
            cfg.write_text(f"{key} = @\n" + ("seed = x\n" if key != "seed" else ""))
            assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
            unknown = "unknown config keys" in capsys.readouterr().err
            assert unknown == (key not in listed[command]), (command, key)
    assert not (tmp_path / "o").exists()


SMALL_RATES = "refinements = 8,16\n"


@pytest.mark.parametrize("argv,cfg,named", [
    (["stopping", "--level", "nan"], "", "'level'"),
    (["stopping", "--level", "inf"], "", "'level'"),
    (["stopping"], "signal = inf:1\n", "'signal'"),
    (["stopping"], "signal = 1:nan\n", "'signal'"),
    (["rates"], SMALL_RATES + "delta_coeff = inf\n", "'delta_coeff'"),
    (["compare"], "alpha_max = inf\n", "'alpha_max'"),
    (["filter"], "delta_h_multiple = inf\n", "'delta_h_multiple'"),
    (["filter", "--delta", "inf"], "", "'delta'"),
    (["filter", "--delta", "1e200"], "", "filter radius"),
    (["compare", "--delta", "1e155"], "", "filter radius"),
    (["rates"], SMALL_RATES + "delta_exp = -1e300\n", "exponent=-1e+300"),
    (["rates"], SMALL_RATES + "alpha_exp = -1e300\n", "exponent=-1e+300"),
    (["stopping", "--level", "1e308"], "", "noise level"),
    (["compare"], "alpha_count = 100000000000\n", "'alpha_count'"),
    (["compare"], "j_list =\n", "'j_list'"),
    (["rates"], "refinements =\n", "'refinements'"),
    (["rates"], SMALL_RATES + "signal =\n", "positive finite errors"),
    (["filter"], "signal =\n", "zero true signal"),
    (["filter"], "signal = 1:1e308\n", "sine frequency"),
])
def test_bad_value_exits_1_naming_the_key_or_rule(tmp_path, capsys, argv, cfg, named):
    (tmp_path / "run.cfg").write_text(cfg)
    code = cli_main([*argv, *(["--n", "20"] if argv[0] != "rates" else []),
                     "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert named in capsys.readouterr().err


def _is_non_finite(text):
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return False


def _has_non_finite_float(key, value):
    if key == "signal":
        return any(map(_is_non_finite, value.replace(",", ":").split(":")))
    return VALUES[key] is FLOATS and _is_non_finite(value)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["compare", "rates", "stopping", "filter"]),
       st.dictionaries(st.sampled_from(sorted(VALUES)), st.none(), max_size=4),
       st.dictionaries(st.sampled_from(FLAGS), st.none(), max_size=3), st.data())
def test_cli_contract(command, file_keys, flag_keys, data):
    """Any argv and config file exits 0, 1 or 2; a non-finite float always exits 1."""
    entries = {key: data.draw(VALUES[key], label=key) for key in file_keys}
    flags = {key: data.draw(VALUES[key], label="--" + key) for key in flag_keys}
    # keep every run small: few nodes, two or three meshes
    if command == "rates":
        entries.setdefault("refinements", "4,8")
    else:
        flags.setdefault("n", "12")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
        argv = [command, "--config", str(cfg), "--out", str(Path(tmp) / "o"),
                *(f"--{key}={value}" for key, value in flags.items())]
        code = cli_main(argv)
    assert code in (0, 1, 2)
    if any(_has_non_finite_float(k, v) for k, v in [*entries.items(), *flags.items()]):
        assert code == 1


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
