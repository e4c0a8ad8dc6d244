"""Exception types shared across the package, and ``require``, the field range check."""

import math
from typing import Optional


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class FieldError(ValueError):
    """A value of ``field`` (at ``axis`` of a per-axis field, else None) that breaks
    ``rule``, "must ...". The message is "<field> <rule>"; a parser names the key."""

    def __init__(self, field: str, rule: str, axis: Optional[int] = None):
        super().__init__(f"{field} {rule}")
        self.field, self.rule, self.axis = field, rule, axis


def require(field: str, value: float, ok: bool, rule: str, axis: Optional[int] = None) -> None:
    """Raise a FieldError unless ``value`` is finite and ``ok`` (its range, "be ...") holds."""
    if not math.isfinite(value):
        raise FieldError(field, f"must be finite, got {value}", axis)
    if not ok:
        raise FieldError(field, f"must {rule}, got {value}", axis)


class StabilityError(RuntimeError):
    """No finite positive timestep exists: the stability bound or dt_max is not finite and positive."""


class DivergenceError(RuntimeError):
    """A field left the finite range during time stepping."""


class StiffnessError(RuntimeError):
    """The reference ODE integrator produced a significantly negative component."""
