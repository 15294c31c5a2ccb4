"""Shared exception types.

Everything raised on purpose by this package derives from PSWAError so
callers can catch one base class.  The split mirrors how the errors are
meant to be handled:

* ConfigurationError / UsageError -- the caller built something invalid
  (bad shapes are DimensionError, a subclass of ConfigurationError).
  The CLI maps these to exit code 2.
* DomainError -- arguments are structurally fine but out of range
  (off-grid position, timestep outside the schedule).
* NumericsError -- a computation produced something unusable
  (non-finite values, degenerate attention maps).
"""


class PSWAError(Exception):
    pass


class ConfigurationError(PSWAError):
    pass


class DimensionError(ConfigurationError):
    """Shape or extent mismatch."""


class UsageError(PSWAError):
    """An API was called in a way its contract forbids."""


class DomainError(PSWAError):
    """A value falls outside the domain an operation is defined on."""


class NumericsError(PSWAError):
    """A computation produced non-finite or otherwise unusable values."""


class DegenerateMapError(NumericsError):
    """An attention map has no mass to normalize or measure."""
