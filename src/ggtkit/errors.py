"""Exception hierarchy shared by all ggtkit modules."""


class GgtError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(GgtError):
    """Malformed configuration: bad group spec, bad flag value, bad file."""


class DomainError(GgtError):
    """Structurally valid input outside an operation's domain."""


class ModelMismatch(DomainError):
    """Elements from different group models were combined."""


class ResourceCapError(GgtError):
    """A configured resource cap (ball size, basis size) was exceeded."""


class LengthCapError(DomainError):
    """An exact word length was required beyond the configured radius cap."""


class DegenerateDelta(DomainError):
    """delta = 0 makes the quasi-geodesic stability formula undefined."""


class OracleInconsistency(DomainError):
    """A subgroup membership oracle is not closed under the group operation."""


class PartitionViolation(GgtError):
    """A boundary map did not respect the conjugacy-class block structure.

    This is a build-stopping defect, never a recoverable condition.
    """


class UnsupportedCase(DomainError):
    """Input is valid but outside the cases this solver handles."""
