"""Diagnostic types shared across the compiler.

Every error carries an optional source span and the name of the typing or
translation rule it enforces, so the command-line driver can print
diagnostics like ``error[T-LOWER-CONSTR]: ...`` that are auditable against
the formal system.
"""

from __future__ import annotations

from collections import namedtuple


class Span(namedtuple("Span", ("line", "col"))):
    """A 1-based source position.  It is a tuple, so ``Span(1, 2) == (1, 2)``.
    The lexer keeps positions as line and column numbers; the parsers make a
    span only for a node, pattern, heaplet or diagnostic that keeps one."""
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class PikaError(Exception):
    """Base class for all compiler diagnostics."""

    rule: str | None = None

    def __init__(self, message: str, span: Span | None = None, rule: str | None = None):
        super().__init__(message)
        self.message = message
        self.span = span
        if rule is not None:
            self.rule = rule

    def __str__(self) -> str:
        loc = f" at {self.span}" if self.span else ""
        tag = f"[{self.rule}] " if self.rule else ""
        return f"{tag}{self.message}{loc}"


# --- syntax ---

class LexError(PikaError):
    pass


class ParseError(PikaError):
    pass


# --- typing ---

class TypeMismatch(PikaError):
    rule = "T-VAR"

    def __init__(self, expected, found, span=None, rule=None):
        super().__init__(f"expected {expected}, found {found}", span, rule)


class UnboundVariable(PikaError):
    rule = "T-VAR"


class LayoutAdtMismatch(PikaError):
    rule = "T-LOWER-VAR"


class NotConcrete(PikaError):
    rule = "T-LOWER-CONSTR"


class ArityMismatch(PikaError):
    rule = "T-CONSTR"


class DuplicateName(PikaError):
    rule = "G-FN"


class UnknownAdtInLayout(PikaError):
    """Any ill-formed layout definition."""
    rule = "G-LAYOUT"


class NonConstructibleBody(PikaError):
    pass


# --- translation ---

class NoSuchBranch(PikaError):
    pass


class AmbiguousBranches(PikaError):
    pass


class UnsupportedConstruct(PikaError):
    pass


# --- abstract machine ---

class UngroundedHeaplet(PikaError):
    pass


class NotAConstructorValue(PikaError):
    pass


class NoMatchingFnCase(PikaError):
    pass


# --- model checking ---

class SortMismatch(PikaError):
    pass


class PreconditionViolated(PikaError):
    pass
