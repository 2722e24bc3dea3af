"""S-expression tokens for the certificate reader.

A text is tokenized once into plain strings: parentheses, and the runs of
other characters between whitespace and parentheses.  Offsets are computed
only when an error is reported, by finding the tokens in the text in order
(a character index, which is the byte offset for the ASCII texts that
certificates are).
"""

from __future__ import annotations


def tokenize(text: str) -> list[str]:
    """The tokens of ``text``, in order; whitespace is any ``str.isspace`` character."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


def offset_of(text: str, tokens: list[str], k: int) -> int:
    """Offset of ``tokens[k]`` in ``text``, or ``len(text)`` past the last token.

    Only whitespace separates one token from the next, so the first match
    of a token after the end of the previous one is where it starts.
    """
    if k >= len(tokens):
        return len(text)
    pos = 0
    for tok in tokens[:k]:
        pos = text.find(tok, pos) + len(tok)
    return text.find(tokens[k], pos)

