"""Command-line entry point.

    cellsim run --config scenario.cfg --out curves.csv

runs the configured experiment and writes the per-threshold outage table.
Command-line flags override the corresponding config keys.  Exit code 0 on
success, 1 with a diagnostic line on stderr otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .scenario import (
    ARCHITECTURE_CHOICES,
    COMBINER_MODES,
    ConfigError,
    ScenarioConfig,
    emit_csv,
    format_report,
    parse_config_file,
    parse_value,
    run_experiment,
)


def _names(values) -> str:
    """A flag's accepted values for --help, spelled as argparse spells ``choices``.

    The flags take no ``choices``: their values are checked as a config
    file's are, so a bad one fails with one ``error:`` line.
    """
    return "{" + ",".join(values) + "}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellsim",
        description="Uplink outage simulator: sectored (used) vs microzone architectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an outage experiment and write a CSV curve table")
    run.add_argument("--config", metavar="PATH", help="config file (omit for the default scenario)")
    run.add_argument("--seed", metavar="U64", help="override master_seed")
    run.add_argument("--drops", metavar="N", help="override n_drops")
    run.add_argument("--arch", metavar=_names(ARCHITECTURE_CHOICES), help="override architecture")
    run.add_argument("--out", metavar="PATH", required=True, help="output CSV path")
    run.add_argument(
        "--thresholds",
        metavar="START:STOP:STEP_dB",
        help="override the threshold sweep, e.g. -10:10:1",
    )
    run.add_argument("--paired", metavar=_names(("true", "false")), help="override drop pairing")
    run.add_argument("--combiner", metavar=_names(COMBINER_MODES), help="override combiner_mode")
    run.add_argument(
        "--workers", default="1", metavar="N",
        help="parallel drop workers, capped at the CPU count (default 1)",
    )
    return parser


# The field each override flag sets; a flag's value is read as that field's
# config text.
_FLAG_FIELDS = {
    "seed": "master_seed", "drops": "n_drops", "arch": "architecture",
    "thresholds": "thresholds", "paired": "paired", "combiner": "combiner_mode",
}


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    updates = {}
    for flag, name in _FLAG_FIELDS.items():
        text = getattr(args, flag)
        if text is not None:
            try:
                updates[name] = parse_value(name, text)
            except ValueError as exc:
                raise ConfigError(f"--{flag}: {exc}") from None
    return replace(cfg, **updates) if updates else cfg


def _normalize_argv(argv):
    """Join '--thresholds -10:...' into one token so argparse does not read
    the leading-minus sweep value as an option."""
    if argv is None:
        argv = sys.argv[1:]
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--thresholds" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"--thresholds={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    args = build_parser().parse_args(_normalize_argv(argv))
    try:
        cfg = parse_config_file(args.config) if args.config else ScenarioConfig()
        cfg = _apply_overrides(cfg, args)
        try:
            workers = int(args.workers)
        except ValueError:
            raise ConfigError(f"--workers: not an integer: {args.workers!r}") from None
        if workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {workers}")
        # Fail on an unwritable --out before the run rather than after it.
        # Append mode creates a missing file and leaves an existing one as is.
        try:
            open(args.out, "a").close()
        except OSError as exc:
            raise OSError(f"cannot write CSV to {args.out}: {exc}") from exc

        result = run_experiment(cfg, workers=workers)
        emit_csv(result, args.out)

        print(format_report(result))
        print(
            f"wrote {args.out} ({cfg.n_drops} drops, seed {cfg.master_seed}, "
            f"{result.elapsed_seconds:.1f} s)"
        )
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return 0
    except BrokenPipeError:
        # The reader of stdout has gone, as with `| head`.  Point stdout at
        # devnull so the interpreter's final flush stays silent, and exit 1
        # as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
