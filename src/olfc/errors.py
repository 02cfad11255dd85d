"""Exception hierarchy shared across the package.

Validation problems (bad files, broken invariants) are kept distinct from
numerical failures (divergence, iteration caps) so the CLI can map them to
different exit codes.
"""

from __future__ import annotations

import math


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
