"""Exception types shared across the package."""


class InvalidDistribution(ValueError):
    """A probability table fails normalization or nonnegativity."""


class SupportMismatch(ValueError):
    """Two distributions that must share a support do not."""


class ModelFormatError(ValueError):
    """A model config file is malformed; message carries the JSON path."""


class InfeasiblePolytope(ValueError):
    """The selection-frequency constraint set is empty."""


class NotChernoffForm(ValueError):
    """Model is not in the single-availability, singleton-action, no-budget form."""


class DimensionMismatch(ValueError):
    """An exponent tuple has the wrong shape for the region."""


class UnsupportedDimension(ValueError):
    """Slice extraction requested in a dimension the implementation does not cover."""


class NoExplorationPossible(RuntimeError):
    """Zero-rate budgets prune the exploration support below what discrimination needs."""


class InvalidBeta(ValueError):
    """A selection-frequency tuple lies outside the constraint set."""


class InvalidPmf(RuntimeError):
    """An action PMF came out inconsistent; indicates a bug upstream, not a data error."""


class TrialBudgetExceeded(RuntimeError):
    """A trial hit the hard step cap before the stopping rule fired."""
