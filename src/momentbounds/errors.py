"""Exception types shared across the package."""


class InfeasibleSequenceError(ValueError):
    """A moment sequence admits no positive measure on the real line."""
