"""Exception types shared across the package."""


class CapacityError(RuntimeError):
    """An operation would exceed the configured sieve memory budget."""


class CertificateError(RuntimeError):
    """A certificate witness failed its check or the two counting routes disagree."""


class ScaleError(ValueError):
    """A prime is too large for the requested scale x."""
