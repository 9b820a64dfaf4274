"""Command line interface: compare, rates, stopping, and filter subcommands.

Settings come from three layers, later layers overriding earlier ones:
preset defaults, an optional flat ``key = value`` config file ('#' starts a
comment, unknown keys are errors), and command line flags.

Exit codes: 0 success, 1 configuration error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

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


DEFAULT_PRESETS = {
    "compare": "compare1d",
    "rates": "rates2d",
    "stopping": "stopping1d",
    "filter": "stopping1d",
}

COMMON_KEYS = {
    "preset", "seed", "out", "quadrature", "n", "level", "alpha",
    "delta", "delta_h_multiple", "j", "signal",
}
COMMAND_KEYS = {
    "compare": {"alpha_min", "alpha_max", "alpha_count", "j_list"},
    "rates": {"refinements", "delta_coeff", "delta_exp", "alpha_coeff", "alpha_exp", "cases"},
    "stopping": {"jmax", "mode", "mc_runs"},
    "filter": set(),
}


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


def _parse_signal(text: str) -> SignalSpec:
    """Parse 'amp:k' (1D) or 'amp:kx:ky' (2D) terms separated by commas."""
    if text in SIGNAL_PRESETS:
        return signal_preset(text)
    terms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"bad signal term {chunk!r}: expected amp:k or amp:kx:ky"
            )
        amp = float(parts[0])
        freqs = tuple(float(p) for p in parts[1:])
        terms.append((amp, freqs))
    if terms and len({len(f) for _, f in terms}) != 1:
        raise ConfigError("signal terms mix 1D and 2D frequencies")
    return SignalSpec(tuple(terms))


def _parse_int_list(text: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad integer list for {key!r}: {text!r}") from None


def _parse_cases(text: str) -> tuple[tuple[Method, int], ...]:
    """Parse rate cases like 'mitlar:0,mitlar:1,tl,itl:1'."""
    cases = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, j_text = chunk.partition(":")
        try:
            method = Method(name)
        except ValueError:
            raise ConfigError(f"unknown method {name!r} in cases") from None
        j = int(j_text) if j_text else (1 if method.iterated else 0)
        if j and not method.iterated:
            raise ConfigError(f"{name} takes no updates, got {chunk!r} in cases")
        cases.append((method, j))
    if not cases:
        raise ConfigError("empty cases list")
    return tuple(cases)


def _apply_entry(config: ExperimentConfig, command: str, key: str, value: str) -> None:
    try:
        if key == "seed":
            config.seed = int(value)
        elif key == "out":
            config.out_dir = Path(value)
        elif key == "quadrature":
            if value not in ("trapezoid", "simpson"):
                raise ConfigError(f"unknown quadrature {value!r}")
            config.quadrature = value
        elif key == "n":
            config.n = int(value)
        elif key == "level":
            config.noise_level = float(value)
        elif key == "alpha":
            config.alpha = float(value)
        elif key == "delta":
            config.delta_rule = ScaleRule("absolute", float(value))
        elif key == "delta_h_multiple":
            config.delta_rule = ScaleRule("h_multiple", float(value))
        elif key == "signal":
            config.signal = _parse_signal(value)
        elif key == "j":
            j = int(value)
            if command == "stopping":
                config.j_max = j
            elif command == "rates":
                config.rate_cases = ((Method.MITLAR, 0), (Method.MITLAR, j),
                                     (Method.TL, 0), (Method.ITL, j))
            else:
                config.j_list = (j,)
        elif key == "j_list":
            config.j_list = _parse_int_list(value, key)
        elif key in ("alpha_min", "alpha_max", "alpha_count"):
            low, high, count = _sweep_parts(config)
            if key == "alpha_min":
                low = float(value)
            elif key == "alpha_max":
                high = float(value)
            else:
                count = int(value)
            config.alphas = alpha_sweep(low, high, count)
        elif key == "refinements":
            config.refinements = _parse_int_list(value, key)
        elif key == "delta_coeff":
            config.delta_rule = ScaleRule("power_law", float(value),
                                          config.delta_rule.exponent)
        elif key == "delta_exp":
            config.delta_rule = ScaleRule("power_law", config.delta_rule.value,
                                          float(value))
        elif key == "alpha_coeff":
            rule = config.alpha_rule or ScaleRule("power_law", 0.1, 0.5)
            config.alpha_rule = ScaleRule("power_law", float(value), rule.exponent)
        elif key == "alpha_exp":
            rule = config.alpha_rule or ScaleRule("power_law", 0.1, 0.5)
            config.alpha_rule = ScaleRule("power_law", rule.value, float(value))
        elif key == "cases":
            config.rate_cases = _parse_cases(value)
        elif key == "jmax":
            config.j_max = int(value)
        elif key == "mode":
            if value not in ("halt", "record_only"):
                raise ConfigError(f"mode must be halt or record_only, got {value!r}")
            config.mode = value
        elif key == "mc_runs":
            config.mc_runs = int(value)
        else:
            raise ConfigError(f"unhandled key {key!r}")
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"bad value for {key!r}: {value!r}") from None


def _sweep_parts(config: ExperimentConfig) -> tuple[float, float, int]:
    if config.alphas:
        return config.alphas[0], config.alphas[-1], len(config.alphas)
    return 1e-3, 1.0, 25


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit code 1
        raise ConfigError(message)


CONFIG_KEY_DOCS = {
    "compare": "alpha_min, alpha_max, alpha_count, j_list (e.g. 1,2,3)",
    "rates": ("refinements (doubling, e.g. 60,120,240,480), delta_coeff, "
              "delta_exp, alpha_coeff, alpha_exp, cases (e.g. mitlar:0,tl,itl:1)"),
    "stopping": "jmax, mode (halt|record_only), mc_runs",
    "filter": "none",
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="helmdeconv",
        description="Differential-filter deconvolution experiments",
    )
    sub = parser.add_subparsers(dest="command", metavar="{compare,rates,stopping,filter}")
    common_doc = ("common config keys: preset, seed, out, quadrature, n, level, "
                  "alpha, delta, delta_h_multiple, j, signal (preset name or "
                  "amp:k / amp:kx:ky terms)")
    for name, help_text in (
        ("compare", "four-method error sweep over alpha (noise free)"),
        ("rates", "mesh-refinement convergence study"),
        ("stopping", "noisy stopping-rule demonstration"),
        ("filter", "filter the preset signal and check the roundtrip"),
    ):
        cmd = sub.add_parser(
            name, help=help_text,
            epilog=f"{common_doc}; {name} keys: {CONFIG_KEY_DOCS[name]}",
        )
        cmd.add_argument("--config", type=Path, help="flat key=value config file")
        cmd.add_argument("--preset", help="experiment preset (compare1d, rates2d, stopping1d)")
        cmd.add_argument("--seed", type=int, help="base RNG seed")
        cmd.add_argument("--out", type=Path, help="output directory (default: results)")
        cmd.add_argument("--quadrature", choices=("trapezoid", "simpson"),
                         help="norm quadrature rule")
        cmd.add_argument("--alpha", type=float, help="regularization parameter")
        cmd.add_argument("--delta", type=float, help="absolute filter radius")
        cmd.add_argument("--j", type=int, help="update count (jmax for stopping)")
        cmd.add_argument("--n", type=int, help="intervals per axis")
        cmd.add_argument("--level", type=float, help="relative noise level")
    return parser


def _build_config(ns: argparse.Namespace) -> ExperimentConfig:
    command = ns.command
    file_entries = parse_config_file(ns.config) if ns.config else {}
    allowed = COMMON_KEYS | COMMAND_KEYS[command]
    unknown = set(file_entries) - allowed
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command!r}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )

    preset = ns.preset or file_entries.get("preset") or DEFAULT_PRESETS[command]
    config = preset_config(preset)
    for key, value in file_entries.items():
        if key == "preset":
            continue
        _apply_entry(config, command, key, value)
    for key in ("seed", "out", "quadrature", "alpha", "delta", "j", "n", "level"):
        value = getattr(ns, key)
        if value is not None:
            _apply_entry(config, command, key, str(value))
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
        if ns.command == "compare":
            result = run_comparison(config)
            print(f"wrote {len(result.files)} files to {config.out_dir}")
        elif ns.command == "rates":
            result = run_rates(config)
            print(f"wrote {len(result.files)} files to {config.out_dir}")
        elif ns.command == "stopping":
            result = run_stopping(config)
            first = result.runs[0]
            print(f"stop index {first.stop_index} (reason: {first.reason}); "
                  f"wrote {len(result.files)} files to {config.out_dir}")
        else:
            result = run_filter_check(config)
            print(f"roundtrip residual {result.residual:.3e}; "
                  f"wrote {len(result.files)} files to {config.out_dir}")
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
