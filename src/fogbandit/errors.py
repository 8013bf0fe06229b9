"""Exception types shared across the package, and the one integer check."""

import numbers


class ConfigurationError(ValueError):
    """Invalid game or experiment configuration (bad shapes, ranges, params)."""


def require_integer(name: str, value, least: int) -> int:
    """Reject anything but an integer (numpy's included, bools not) >= least;
    return it as a Python int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class ProtocolError(RuntimeError):
    """Learner driven out of its act/observe contract."""


class FeedbackError(ValueError):
    """Non-finite or otherwise unusable feedback handed to a learner."""
