"""Error taxonomy shared across the package.

Usage errors (bad inputs, invalid parameters, malformed scenarios) derive from
UsageError; numerical failures (quadrature budget exhausted, root finder left
without a bracket or out of iterations) derive from NumericalError. The CLI maps the former to exit
code 2 and the latter to exit code 3.
"""


class UsageError(ValueError):
    """Caller handed us something invalid."""


class InvalidParamsError(UsageError):
    """Electorate or extension parameters violate the model assumptions."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid parameters: " + "; ".join(self.violations))


class ScenarioError(UsageError):
    """A scenario file failed to parse or validate."""


class NumericalError(RuntimeError):
    """A numerical routine could not reach its accuracy contract."""


class QuadratureError(NumericalError):
    """Adaptive quadrature ran out of subdivisions.

    Carries the tolerance actually achieved so callers can report how far off
    the result is.
    """

    def __init__(self, message, achieved_tol):
        self.achieved_tol = achieved_tol
        super().__init__(f"{message} (achieved tolerance {achieved_tol:.3e})")


class RootFindError(NumericalError):
    """Root finding failed to bracket or converge."""
