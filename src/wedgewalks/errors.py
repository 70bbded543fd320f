"""Shared error types."""


class BudgetError(RuntimeError):
    """A requested computation exceeds the documented resource budget."""

