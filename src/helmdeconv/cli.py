"""Command line interface: compare, rates, stopping, and filter subcommands.

Settings come from three layers, later layers overriding earlier ones:
preset defaults, an optional flat ``key = value`` config file ('#' starts a
comment, unknown keys are errors), and command line flags.  ``KEYS`` is the
one table of settings: each subcommand accepts exactly the keys and flags
listed for it there, and every value is parsed and applied through it.

Exit codes: 0 success, 1 configuration error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .experiments import (
    ExperimentConfig,
    ScaleRule,
    alpha_sweep,
    preset_config,
    run_comparison,
    run_filter_check,
    run_rates,
    run_stopping,
)
from .operators import SolverError
from .regularizers import Method
from .signals import SIGNAL_PRESETS, SignalSpec, signal_preset


class ConfigError(ValueError):
    """Bad CLI arguments or config file contents."""


def parse_config_file(path) -> dict[str, str]:
    """Parse flat ``key = value`` lines; '#' comments and blanks are skipped."""
    entries: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _choice(*choices: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return text
    return parse


def _int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("empty list")
    return values


def _signal(text: str) -> SignalSpec:
    """Parse a preset name, or 'amp:k' (1D) or 'amp:kx:ky' (2D) terms separated by commas."""
    if text in SIGNAL_PRESETS:
        return signal_preset(text)
    terms = []
    for chunk in filter(None, map(str.strip, text.split(","))):
        parts = [_finite(part) for part in chunk.split(":")]
        if len(parts) not in (2, 3):
            raise ValueError(f"bad signal term {chunk!r}: expected amp:k or amp:kx:ky")
        terms.append((parts[0], tuple(parts[1:])))
    if len({len(freqs) for _, freqs in terms}) > 1:
        raise ValueError("signal terms mix 1D and 2D frequencies")
    return SignalSpec(tuple(terms))


def _cases(text: str) -> tuple[tuple[Method, int], ...]:
    """Parse rate cases like 'mitlar:0,mitlar:1,tl,itl:1'."""
    cases = []
    for chunk in filter(None, map(str.strip, text.split(","))):
        name, _, j_text = chunk.partition(":")
        method = Method(name)
        j = int(j_text) if j_text else (1 if method.iterated else 0)
        if j and not method.iterated:
            raise ValueError(f"{name} takes no updates, got {chunk!r}")
        cases.append((method, j))
    if not cases:
        raise ValueError("empty cases list")
    return tuple(cases)


def _set(field: str) -> Callable:
    return lambda config, value, command: setattr(config, field, value)


def _delta(kind: str) -> Callable:
    return lambda config, value, command: setattr(config, "delta_rule", ScaleRule(kind, value))


def _power_law(field: str, part: int) -> Callable:
    """Replace the coefficient (part 0) or exponent (part 1) of a power-law rule."""
    def update(config, value, command):
        rule = getattr(config, field) or ScaleRule("power_law", 0.1, 0.5)
        parts = [rule.value, rule.exponent]
        parts[part] = value
        setattr(config, field, ScaleRule("power_law", *parts))
    return update


def _sweep(part: int) -> Callable:
    """Replace the low end (part 0), high end (1) or count (2) of the alpha sweep."""
    def update(config, value, command):
        alphas = config.alphas
        parts = [alphas[0], alphas[-1], len(alphas)] if alphas else [1e-3, 1.0, 25]
        parts[part] = value
        config.alphas = alpha_sweep(*parts)
    return update


def _set_j(config: ExperimentConfig, j: int, command: str) -> None:
    if command == "stopping":
        config.j_max = j
    elif command == "rates":
        config.rate_cases = ((Method.MITLAR, 0), (Method.MITLAR, j),
                             (Method.TL, 0), (Method.ITL, j))
    else:
        config.j_list = (j,)


@dataclass(frozen=True)
class Key:
    """One setting: the subcommands that read it, its parser, its update and help."""

    commands: tuple[str, ...]
    parse: Callable[[str], object]
    update: Callable[[ExperimentConfig, object, str], None]
    help: str
    flag: bool = False


COMMANDS = {  # subcommand: (default preset, help)
    "compare": ("compare1d", "four-method error sweep over alpha (noise free)"),
    "rates": ("rates2d", "mesh-refinement convergence study"),
    "stopping": ("stopping1d", "noisy stopping-rule demonstration"),
    "filter": ("stopping1d", "filter the preset signal and check the roundtrip"),
}
ALL = tuple(COMMANDS)
ONE_MESH = ("compare", "stopping", "filter")  # rates reads refinements, not n

KEYS: dict[str, Key] = {
    # the preset is resolved before any other key is applied
    "preset": Key(ALL, str, lambda config, value, command: None,
                  "experiment preset (compare1d, rates2d, stopping1d)", flag=True),
    "seed": Key(ALL, int, _set("seed"), "base RNG seed; only stopping draws noise", flag=True),
    "out": Key(ALL, Path, _set("out_dir"), "output directory (default: results)", flag=True),
    "quadrature": Key(ALL, _choice("trapezoid", "simpson"), _set("quadrature"),
                      "norm quadrature rule: trapezoid or simpson", flag=True),
    "n": Key(ONE_MESH, int, _set("n"), "intervals per axis", flag=True),
    "level": Key(("stopping",), _finite, _set("noise_level"), "relative noise level", flag=True),
    "alpha": Key(("stopping",), _finite, _set("alpha"), "regularization parameter", flag=True),
    "delta": Key(ALL, _finite, _delta("absolute"), "absolute filter radius", flag=True),
    "delta_h_multiple": Key(ALL, _finite, _delta("h_multiple"), "filter radius over h"),
    "j": Key(("compare", "rates", "stopping"), int, _set_j,
             "update count: the one J (compare), J of mitlar and itl (rates), jmax (stopping)",
             flag=True),
    "signal": Key(ALL, _signal, _set("signal"), "preset name or amp:k / amp:kx:ky terms"),
    "alpha_min": Key(("compare",), _finite, _sweep(0), "smallest alpha of the sweep"),
    "alpha_max": Key(("compare",), _finite, _sweep(1), "largest alpha of the sweep"),
    "alpha_count": Key(("compare",), int, _sweep(2), "number of sweep points"),
    "j_list": Key(("compare",), _int_list, _set("j_list"), "update counts, e.g. 1,2,3"),
    "refinements": Key(("rates",), _int_list, _set("refinements"),
                       "doubling interval counts, e.g. 60,120,240,480"),
    "delta_coeff": Key(("rates",), _finite, _power_law("delta_rule", 0),
                       "delta = delta_coeff (2 pi/n)^delta_exp"),
    "delta_exp": Key(("rates",), _finite, _power_law("delta_rule", 1), "see delta_coeff"),
    "alpha_coeff": Key(("rates",), _finite, _power_law("alpha_rule", 0),
                       "alpha = alpha_coeff (2 pi/n)^alpha_exp"),
    "alpha_exp": Key(("rates",), _finite, _power_law("alpha_rule", 1), "see alpha_coeff"),
    "cases": Key(("rates",), _cases, _set("rate_cases"), "method:J list, e.g. mitlar:0,tl,itl:1"),
    "jmax": Key(("stopping",), int, _set("j_max"), "recorded updates"),
    "mode": Key(("stopping",), _choice("halt", "record_only"), _set("mode"),
                "halt or record_only"),
    "mc_runs": Key(("stopping",), int, _set("mc_runs"), "Monte Carlo runs over seeds"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit code 1
        raise ConfigError(message)


def _keys_of(command: str) -> dict[str, Key]:
    return {name: key for name, key in KEYS.items() if command in key.commands}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="helmdeconv",
        description="Differential-filter deconvolution experiments",
    )
    sub = parser.add_subparsers(dest="command", metavar="{compare,rates,stopping,filter}")
    for name, (_, help_text) in COMMANDS.items():
        keys = _keys_of(name)
        epilog = "config file keys:\n" + "\n".join(
            f"  {key:<18}{spec.help}" for key, spec in keys.items())
        cmd = sub.add_parser(name, help=help_text, epilog=epilog,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
        cmd.add_argument("--config", type=Path, help="flat key=value config file")
        for key, spec in keys.items():
            if spec.flag:
                cmd.add_argument(f"--{key}", help=spec.help)
    return parser


def _build_config(ns: argparse.Namespace) -> ExperimentConfig:
    command = ns.command
    keys = _keys_of(command)
    file_entries = parse_config_file(ns.config) if ns.config else {}
    unknown = set(file_entries) - set(keys)
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command!r}: {sorted(unknown)}; "
            f"allowed: {sorted(keys)}"
        )
    flags = {key: value for key, value in vars(ns).items() if key in keys and value is not None}

    preset = ns.preset or file_entries.get("preset") or COMMANDS[command][0]
    config = preset_config(preset)
    for key, value in [*file_entries.items(), *flags.items()]:
        try:
            keys[key].update(config, keys[key].parse(value), command)
        except ValueError as err:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({err})") from None
    if config.out_dir is None:
        config.out_dir = Path("results")
    return config


def cli_main(argv=None) -> int:
    """Run the CLI; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except ConfigError as err:
        parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        config = _build_config(ns)
        # runners are looked up at call time, so rebinding a module global takes effect
        result = {"compare": run_comparison, "rates": run_rates, "stopping": run_stopping,
                  "filter": run_filter_check}[ns.command](config)
        note = ""
        if ns.command == "stopping":
            first = result.runs[0]
            note = f"stop index {first.stop_index} (reason: {first.reason}); "
        elif ns.command == "filter":
            note = f"roundtrip residual {result.residual:.3e}; "
        print(f"{note}wrote {len(result.files)} files to {config.out_dir}")
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
