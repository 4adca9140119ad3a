"""Shared exception types."""


class PoleError(ValueError):
    """Evaluation would divide by a vanishing denominator."""


class EngineError(RuntimeError):
    """An internal consistency check failed (signals a bug, not bad input), or
    the worker processes a run asked for could not be started."""
