"""Exception types shared across the package."""

from __future__ import annotations


class CudfError(Exception):
    """Base class for all errors raised by this package."""


class DuplicatePackage(CudfError):
    """Two package stanzas share the same (name, version) pair."""

    def __init__(self, name: str, version: int) -> None:
        super().__init__(f"duplicate package {name} version {version}")
        self.name = name
        self.version = version


class InvalidVersion(CudfError):
    """A version is not a positive integer within the supported range, or
    a package name is not one CUDF allows."""


class InvalidProvide(CudfError):
    """A provides formula uses something other than single, optionally
    pinned (``name = n``) atoms."""


class UnknownName(CudfError):
    """A package name does not occur in the document."""


class BadCriteria(CudfError):
    """An optimization criteria string could not be understood."""


class ScopeTooLarge(CudfError):
    """Exhaustive search was asked to enumerate too many packages."""
