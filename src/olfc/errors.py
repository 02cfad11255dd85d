"""Exception hierarchy shared across the package.

Validation problems (bad files, broken invariants) are kept distinct from
numerical failures (divergence, iteration caps) so the CLI can map them to
different exit codes.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path


class OlfcError(Exception):
    """Base class for all package errors."""


class ValidationError(OlfcError):
    """Input data violates a documented invariant (bad file, bad shape)."""


class NumericalError(OlfcError):
    """A computation failed to converge or left the finite range."""


class InfeasibleProblemError(OlfcError):
    """The steady-state allocation problem has no feasible point."""

    def __init__(self, message: str, certificate: object | None = None):
        super().__init__(message)
        self.certificate = certificate


def require_finite(where: str, **values: float | None) -> None:
    """Raise ValidationError naming the first value that is NaN or infinite.

    None stands for an absent optional field and passes.
    """
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{where}: {name} must be finite, got {value}")


def read_json(path: str | Path, what: str) -> object:
    """The decoded JSON document in `path`; `what` names the kind of file when it cannot be read."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


# The type a field may be declared with, and the decoded JSON values it
# accepts. JSON true and false decode to bool, a subclass of int; no field
# accepts them.
_FIELD_TYPES = {
    "a number": (int, float),
    "a number or null": (int, float, type(None)),
    "an integer": int,
    "a string": str,
    "an array": list,
    "an object": dict,
}


def require_fields(obj: object, where: str, required: dict[str, str], optional: dict[str, str] | None = None) -> dict:
    """`obj` itself, once checked to be an object with exactly the given fields, each of its declared type.

    `required` and `optional` map each field name to its type, a key of
    `_FIELD_TYPES`. Every error starts with `where`, the object's place in
    its document.
    """
    optional = optional or {}
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"{where}: unknown fields {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing fields {sorted(missing)}")
    for name, kind in {**required, **optional}.items():
        value = obj.get(name)
        if name in obj and (isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[kind])):
            raise ValidationError(f"{where}: field {name!r} must be {kind}, got {value!r}")
    return obj


@contextmanager
def naming(source: str | Path):
    """Put `source` in front of the message of every ValidationError raised inside the block."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from None
