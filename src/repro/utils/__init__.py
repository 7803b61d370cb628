"""Utility helpers shared across the :mod:`repro` package."""

from repro.utils.timing import Stopwatch

__all__ = ["Stopwatch"]
