"""Tiny S-expression tokenizer shared by the certificate serializers."""

from __future__ import annotations

import re
from typing import NamedTuple

from .core import ParseError


class Token(NamedTuple):
    text: str
    offset: int


_TOKEN = re.compile(r"[()]|[^\s()]+")


def tokenize(text: str) -> list[Token]:
    return [Token(m.group(), m.start()) for m in _TOKEN.finditer(text)]


class TokenStream:
    def __init__(self, text: str) -> None:
        self._tokens = tokenize(text)
        self._pos = 0
        self._length = len(text)

    def peek(self) -> Token | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def next(self, expected: str | None = None) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"syntax error at offset {self._length}: unexpected end of input")
        self._pos += 1
        if expected is not None and tok.text != expected:
            raise ParseError(
                f"syntax error at offset {tok.offset}: expected {expected!r}, got {tok.text!r}"
            )
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"syntax error at offset {tok.offset}: trailing input {tok.text!r}")

    def error(self, tok: Token, message: str) -> ParseError:
        return ParseError(f"syntax error at offset {tok.offset}: {message}")
