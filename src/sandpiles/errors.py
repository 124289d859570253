"""Shared exception types."""


class SizeCapError(Exception):
    """An enumeration or counting request exceeds its configured cap."""


class PrecisionError(Exception):
    """A floating-point result failed an integer rounding guard.

    No package code raises it: every count is computed in exact integer
    arithmetic.  The class is kept for callers that catch it.
    """


class SymmetryError(Exception):
    """A configuration violates a required group symmetry."""
