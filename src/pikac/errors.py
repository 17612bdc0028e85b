"""Diagnostic types shared across the compiler.

Every error carries an optional source span and the name of the typing or
translation rule it enforces, so the command-line driver can print
diagnostics like ``error[T-LOWER-CONSTR]: ...`` that are auditable against
the formal system.
"""

from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
    """A 1-based source position.  It is a tuple, so ``Span(1, 2) == (1, 2)``;
    the lexer makes one per token and builds it with ``tuple.__new__``."""

    line: int
    col: int

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
    def __init__(self, message, span=None, expected=frozenset(), rule=None):
        super().__init__(message, span, rule)
        self.expected = frozenset(expected)


# --- typing ---

class TypeMismatch(PikaError):
    rule = "T-VAR"

    def __init__(self, expected, found, span=None, rule=None):
        super().__init__(f"expected {expected}, found {found}", span, rule)
        self.expected = expected
        self.found = found


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
    rule = "G-FN"


class MissingGenerateDirective(PikaError):
    pass


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


class HeapOverlap(PikaError):
    pass


class NoMatchingFnCase(PikaError):
    pass


# --- model checking ---

class SortMismatch(PikaError):
    pass


class PreconditionViolated(PikaError):
    pass
