"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
InternalError -> 3.  Plain ValueError marks misuse of a function
(precondition violations); one that escapes a subcommand means the
input could not be processed, and the CLI reports it as a data error.
"""


class MfiRankError(Exception):
    """Base class for package-specific failures."""


class ConfigError(MfiRankError):
    """Bad configuration or contradictory command-line flags."""


class DataError(MfiRankError):
    """Input data cannot be parsed or is inconsistent beyond repair."""


class InternalError(MfiRankError):
    """An internal invariant was violated (e.g. solver disagreement)."""
