"""Exception hierarchy shared across the simulator.

Each class carries the CLI exit code its category maps to:
1 usage/spec error, 2 data error, 3 internal invariant violation.
"""


class MininsError(Exception):
    exit_code = 1


class ScenarioError(MininsError):
    """Bad scenario text or semantically invalid scenario (exit 1)."""

    exit_code = 1


class SimulationError(MininsError):
    """Simulator misuse: scheduling into the past, forwarding toward an
    unroutable destination, a non-positive exponential mean (exit 1)."""

    exit_code = 1


class TraceError(MininsError):
    """Malformed trace data; carries the 1-based offending line number."""

    exit_code = 2

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class InternalError(MininsError):
    """A simulator invariant broke; indicates a bug, not user error."""

    exit_code = 3
