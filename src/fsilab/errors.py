"""Exception types shared across the package.

Exit-code mapping used by the command line driver:
ConfigError -> 2, NumericsError -> 3, GeometryError -> 4.
"""


class FsilabError(Exception):
    """Base class for all package errors."""


class ConfigError(FsilabError):
    """Invalid configuration, arguments, or input data.

    `problems` holds every violation the raise found, one message each;
    a raise built by from_problems lists them all in its message.
    """

    def __init__(self, message: str, problems: tuple = ()):
        super().__init__(message)
        self.problems = tuple(problems) or (message,)

    @classmethod
    def from_problems(cls, problems) -> "ConfigError":
        n = len(problems)
        noun = "problem" if n == 1 else "problems"
        return cls(f"invalid configuration ({n} {noun}):\n  - " + "\n  - ".join(problems), problems)


class NumericsError(FsilabError):
    """Linear solve failure, non-finite values, or non-convergence.

    A failure found in a stack of samples carries the index of the
    first failing sample, and its message ends with it.
    """

    def __init__(self, message, sample=None):
        super().__init__(message if sample is None else f"{message} at sample {sample}")
        self.reason = message
        self.sample = sample


class GeometryError(FsilabError):
    """Geometric admissibility violation (margins, contact)."""


class DiffeoFailure(GeometryError):
    """Jacobian determinant dropped to or below its floor.

    Carries the offending node index and the determinant value there;
    for a stack of maps also the index of the first failing sample.
    """

    def __init__(self, message, node=None, value=None, sample=None):
        super().__init__(message)
        self.node = node
        self.value = value
        self.sample = sample


def _rebased(err: DiffeoFailure | NumericsError, start: int) -> DiffeoFailure | NumericsError:
    """err as raised on the samples of a stack from `start` on, with its
    sample counted from the first sample of the whole stack."""
    if err.sample is None:
        return err
    if isinstance(err, DiffeoFailure):
        return DiffeoFailure(str(err), node=err.node, value=err.value, sample=start + err.sample)
    return NumericsError(err.reason, sample=start + err.sample)
