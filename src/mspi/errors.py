"""Exception hierarchy shared across the pipeline.

Each class carries the CLI's exit code and the prefix of its message on
stderr: MspiError 1 "error", ConfigError 2 "config error", DataError 3
"data error", NumericError 4 "numeric error".
"""


class MspiError(Exception):
    """Base class for pipeline errors."""

    exit_code = 1
    label = "error"


class ConfigError(MspiError):
    """Invalid configuration value; message names the offending field."""

    exit_code = 2
    label = "config error"


class DataError(MspiError):
    """Malformed, missing, or inconsistent input data."""

    exit_code = 3
    label = "data error"


class NumericError(MspiError):
    """A numeric procedure failed (divergence, non-finite loss, degenerate resample)."""

    exit_code = 4
    label = "numeric error"
