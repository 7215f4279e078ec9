"""Error taxonomy shared across the package.

Three failure channels, kept distinct so callers (and the CLI exit-code
mapping) can react differently: bad inputs, exhausted resource budgets,
and broken internal contracts that indicate a defect rather than misuse.
"""


class UsageError(ValueError):
    """A caller violated a documented precondition or passed bad input."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size or iteration budget.

    Carries enough context in the message to rerun with a feasible budget;
    for summations, achievable is the smallest tolerance within reach.
    """

    def __init__(self, message: str, achievable: float | None = None):
        super().__init__(message)
        self.achievable = achievable


class ContractViolationError(RuntimeError):
    """An internal invariant failed; the result cannot be trusted."""
