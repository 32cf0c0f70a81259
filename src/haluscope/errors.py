"""Shared exception types. Each maps to a CLI exit code family."""

from __future__ import annotations


class HaluscopeError(Exception):
    """Base class for all harness errors."""


class ConfigError(HaluscopeError):
    """Bad configuration or usage: an unknown flag or config key, an invalid
    setting, a missing or unreadable input. CLI exit code 1."""


class IngestionError(HaluscopeError):
    """A data file could not be parsed; the message starts with
    `path:line:`, naming the offending line. CLI exit code 2."""


class ValidationError(HaluscopeError):
    """A loaded value violates a domain invariant. CLI exit code 2."""


class ReportError(HaluscopeError):
    """Report computation is impossible (empty benchmark, missing
    subcategory cells). CLI exit code 2."""


class HarnessFault(HaluscopeError):
    """Harness-side fault unrelated to the program under test. CLI exit
    code 3."""
