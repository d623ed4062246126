"""Exception hierarchy for ncqo."""


class NcqoError(Exception):
    """Base class for all ncqo errors."""


class DimensionError(NcqoError, ValueError):
    """Invalid or mismatched truncated-basis dimensions."""


class HermiticityError(NcqoError, ValueError):
    """Operator violates a hermiticity contract."""


class SingularMetricError(NcqoError, ValueError):
    """Operator has a non-positive eigenvalue where positivity is required."""


class DegenerateStateError(NcqoError, ValueError):
    """Requested state is degenerate (e.g. odd cat at alpha ~ 0)."""


class CutoffError(NcqoError, ValueError):
    """Basis cutoff too small for the requested accuracy."""


class ConfigError(NcqoError, ValueError):
    """Invalid scan or CLI configuration."""
