"""Exception types shared across the package."""


class CapacityError(RuntimeError):
    """An operation would exceed the configured sieve memory budget."""


class CertificateError(RuntimeError):
    """A computed count failed its independent check: a certificate witness,
    the certificate's two counting routes, or phi's primes against pi(x)."""


class ScaleError(ValueError):
    """A prime is too large for the requested scale x."""
