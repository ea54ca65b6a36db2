"""Run configuration files: one `key = value` per line, `#` comments.

Keys match the parameter names; values are plain numbers except probes, which
is a comma separated list of grid locations (may be empty). Parsing errors
carry the 1-based line number; a syntactically valid file whose values break a
model invariant raises InvalidParams with every violation listed.
"""

from dataclasses import fields

from .core import SimParams, validate_params
from .errors import ConfigParseError, InvalidParams

# each key's kind is its SimParams annotation: float, int, str, or tuple (probes)
_KINDS = {f.name: f.type for f in fields(SimParams)}


def _convert(key, raw, lineno):
    raw = raw.strip()
    kind = _KINDS[key]
    if kind is tuple:
        if not raw:
            return ()
        try:
            return tuple(float(p.strip()) for p in raw.split(","))
        except ValueError:
            raise ConfigParseError(
                f"{key} must be comma separated numbers, got {raw!r}", line=lineno, key=key
            ) from None
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigParseError(f"{key} must be {noun}, got {raw!r}", line=lineno, key=key) from None


def parse_config_text(text):
    """Text of a config file -> validated SimParams."""
    assigned = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigParseError(f"expected key = value, got {stripped!r}", line=lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KINDS:
            raise ConfigParseError(f"unknown key {key!r}", line=lineno, key=key)
        if key in assigned:
            raise ConfigParseError(f"duplicate key {key!r}", line=lineno, key=key)
        assigned[key] = _convert(key, raw, lineno)
    params = SimParams(**assigned)
    violations = validate_params(params)
    if violations:
        raise InvalidParams(violations)
    return params


def parse_config(path):
    """Load and validate a config file; OS level read errors propagate."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
