"""Exception types shared across the package.

Every error raised on purpose derives from P3DKError so callers (and the
CLI exit-code mapping) can tell deliberate failures from plain bugs.
"""


class P3DKError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(P3DKError):
    """A value falls outside its permitted range."""


class IntegrityError(P3DKError):
    """A decoded symbol triple fails its internal consistency check."""


class LengthError(P3DKError):
    """A buffer has the wrong length for the requested operation."""


class FormatError(P3DKError):
    """A ciphertext container is malformed (magic, version, flags, header)."""


class KeyFormatError(P3DKError):
    """A key file violates the 31-byte / zero-tail-bits key format."""


class UsageError(P3DKError):
    """Invalid arguments to a benchmark or CLI operation."""
