"""Exception types shared across the package.

Bad input is a plain ValueError (exit 2 in the CLI).  These are the other
two failures: a memory budget exceeded (exit 3) and a failed independent
check (exit 1)."""


class CapacityError(RuntimeError):
    """An operation would exceed the configured sieve memory budget."""


class CertificateError(RuntimeError):
    """A computed count failed its independent check: a certificate witness,
    the certificate's two counting routes, or phi's primes against pi(x)."""
