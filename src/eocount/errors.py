"""Exception types shared across the package."""


class EOError(Exception):
    """Base class for all package-specific errors."""


class FormatError(EOError):
    """Malformed signature or instance text."""


class SizeCapExceeded(EOError):
    """A size cap was exceeded."""


class NotAffineError(EOError):
    """An operation requiring an affine signature got a non-affine one."""


class PairingError(EOError):
    """Pairwise-opposite matching failed; indicates a bug, not bad input."""


class StructureViolation(EOError):
    """A structural guarantee did not hold; indicates a bug, not bad input."""


class BudgetExceeded(EOError):
    """A recursion or enumeration budget ran out."""


class InstanceError(EOError):
    """A structurally invalid instance, or a solver precondition failure."""
