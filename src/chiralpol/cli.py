"""Command-line front end.

Subcommands: scan-cavity, scan-n, scan-dispersion, oracle. Each reads an
optional flat `key = value` config file, applies repeatable --set overrides,
and writes a deterministic CSV (stdout by default; --out opens before the
run, so an unwritable path fails at once, and a failed run leaves it empty,
as a shell redirect would). Exit codes: 0 ok,
1 config error: a bad key or value, an unreadable config file, an
unwritable --out, a closed stdout, a failed oracle worker, a numeric
overflow or a run too large for the memory available; 2 the run's own check
failed (oracle deviation above tol), 3 instability rows present with
--strict. `main` is the one place where an exception becomes an exit code.
"""

import argparse
import contextlib
import functools
import os
import sys

from .config import ConfigError, load_config_file, merge_config, parse_config_text
from .scans import SCAN_COMMANDS


# built on first use and shared by every later call in the process; parsing
# leaves it unchanged (the --set action appends to a copy of its default)
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralpol",
        description="Chiral-cavity polariton scans and oracle regression runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_lines = {
        "scan-cavity": "polariton spectra over an (omega_k, xi) grid",
        "scan-n": "enantio-discrimination observables over the ensemble size",
        "scan-dispersion": "bright polaritons along the in-plane dispersion",
        "oracle": "randomized analytic-vs-Fock regression grid, each set at "
        "the smallest Fock cutoff its residual bound certifies",
    }
    for name, text in help_lines.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", help="flat key = value config file")
        cmd.add_argument("--out", help="output CSV path (default stdout)")
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="overrides",
            help="override a single config key (repeatable)",
        )
        cmd.add_argument("--seed", type=int, help="override the seed key")
        cmd.add_argument(
            "--strict",
            action="store_true",
            help="exit 3 when any scan row is flagged unstable",
        )
    return parser


def _effective_config(args) -> dict:
    defaults, _ = SCAN_COMMANDS[args.command]
    file_layer = load_config_file(args.config) if args.config else {}
    override_layer = parse_config_text("\n".join(args.overrides))
    merged = merge_config(defaults, file_layer, override_layer)
    if args.seed is not None:
        if "seed" not in defaults:
            raise ConfigError("this subcommand has no seed key")
        merged["seed"] = str(args.seed)
    return merged


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:  # argparse exits; keep our code space
        return 0 if exit_request.code in (0, None) else 1

    try:
        table_config = _effective_config(args)
        _, runner = SCAN_COMMANDS[args.command]
        # --out opens before the run, as a shell redirect would, so that an
        # unwritable path fails before the computation instead of after it
        with (
            open(args.out, "w", encoding="utf-8", newline="\n")
            if args.out
            else contextlib.nullcontext(sys.stdout)
        ) as handle:
            table = runner(table_config)
            table.write(handle)
            handle.flush()  # a closed pipe fails here, not at exit
    except (ValueError, OverflowError, OSError) as err:
        if isinstance(err, BrokenPipeError):
            with contextlib.suppress(OSError):  # a stream with no descriptor
                descriptor = sys.stdout.fileno()
                # the interpreter flushes stdout at exit: to os.devnull, not the pipe
                os.dup2(os.open(os.devnull, os.O_WRONLY), descriptor)
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        print(f"config error: out of memory ({str(err) or 'no detail'})", file=sys.stderr)
        return 1

    if table.failure:
        print(table.failure, file=sys.stderr)
        return 2
    if args.strict and "unstable" in table.column_names:
        if any(v != 0.0 for v in table.column("unstable")):
            print("unstable rows present (strict mode)", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
