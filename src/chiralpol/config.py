"""Flat `key = value` configuration files.

One key per line, `#` comments, comma-separated lists for vectors and
row-major matrices. Unknown or malformed keys raise ConfigError naming the
offending key. The same syntax is used for the metadata block echoed into
every CSV, so a result file's header is itself a valid configuration that
reproduces the run.
"""

import math

import numpy as np

from .scantable import format_number


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict:
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in table:
            raise ConfigError(f"duplicate key '{key}' (line {lineno})")
        table[key] = value
    return table


def load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return parse_config_text(text)


def read_csv_metadata(path) -> dict:
    """Recover the effective configuration from a result CSV's `#` header."""
    with open(path, encoding="utf-8") as handle:
        lines = [line[1:].strip() for line in handle if line.startswith("#")]
    return parse_config_text("\n".join(line for line in lines if "=" in line))


def merge_config(defaults: dict, *layers: dict) -> dict:
    """Defaults overlaid by config-file and --set layers; unknown keys rejected."""
    merged = dict(defaults)
    for layer in layers:
        for key, value in layer.items():
            if key not in defaults:
                raise ConfigError(f"unknown key '{key}'")
            merged[key] = value
    return merged


def config_float(table: dict, key: str) -> float:
    try:
        value = float(table[key])
    except ValueError as err:
        raise ConfigError(f"key '{key}': expected a number, got {table[key]!r}") from err
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': expected a finite number, got {table[key]!r}")
    return value


def config_int(table: dict, key: str) -> int:
    try:
        return int(table[key])
    except ValueError as err:
        raise ConfigError(
            f"key '{key}': expected an integer, got {table[key]!r}"
        ) from err


def config_choice(table: dict, key: str, options) -> str:
    value = table[key]
    if value not in options:
        raise ConfigError(
            f"key '{key}': expected one of {sorted(options)}, got {value!r}"
        )
    return value


def config_bool(table: dict, key: str) -> bool:
    value = table[key].lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ConfigError(f"key '{key}': expected a boolean (0/1), got {table[key]!r}")


def config_floats(table: dict, key: str, count: int) -> np.ndarray:
    parts = [p for p in table[key].split(",") if p.strip()]
    if len(parts) != count:
        raise ConfigError(
            f"key '{key}': expected {count} comma-separated numbers, got {len(parts)}"
        )
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as err:
        raise ConfigError(
            f"key '{key}': expected numbers, got {table[key]!r}"
        ) from err
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"key '{key}': expected finite numbers, got {table[key]!r}")
    return values


def render_value(value) -> str:
    """Canonical string form used for metadata echoes (17 significant digits)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_number(float(value))
    if isinstance(value, np.ndarray):
        return ",".join(format_number(float(v)) for v in value.ravel())
    return str(value)
