"""The two failures the CLI maps to their own exit codes.

They live apart from the integrator and the fits that raise them, so that
`cli.main` can catch them without importing either.
"""


class ConvergenceError(RuntimeError):
    """Grid refinement hit its cap without meeting the tolerance."""

    def __init__(self, message, best_result=None):
        super().__init__(message)
        self.best_result = best_result


class FitError(RuntimeError):
    """A fit could not produce a usable parameter estimate."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
