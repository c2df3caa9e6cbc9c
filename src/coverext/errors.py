"""Exception types shared across the package."""


class CoverextError(Exception):
    """Base class for errors raised by this package."""


class MalformedProgramError(CoverextError, ValueError):
    """A linear program violates its structural invariants (dimensions, relations, exactness)."""


class CapExceededError(CoverextError):
    """An operation would enumerate past the configured exhaustive-enumeration cap."""


class SeedExhaustedError(CoverextError):
    """A randomized generator failed validation for every attempt allowed by its retry cap."""


class InstanceParseError(CoverextError, ValueError):
    """An input file is malformed; the message carries the offending location."""
