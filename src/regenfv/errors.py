"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class StabilityError(RuntimeError):
    """No finite positive timestep exists: the stability bound or dt_max is not finite and positive."""


class DivergenceError(RuntimeError):
    """A field left the finite range during time stepping."""


class StiffnessError(RuntimeError):
    """The reference ODE integrator produced a significantly negative component."""
