"""Exception hierarchy shared across the simulator.

Each class carries the CLI exit code its category maps to:
1 usage/spec error, 2 data error.
"""


class MininsError(Exception):
    exit_code = 1


class ScenarioError(MininsError):
    """Bad scenario text or semantically invalid scenario (exit 1)."""


class SimulationError(MininsError):
    """Simulator misuse: scheduling an event before the one being
    dispatched (exit 1)."""


class TraceError(MininsError):
    """Malformed trace data; carries the 1-based offending line number."""

    exit_code = 2

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno
