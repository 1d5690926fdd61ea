"""SQL tokenizer and statement fingerprints.

A hand-rolled scanner producing a flat token list. It recognizes the SQL
subset the engine supports plus the AISQL extension keywords (``MODEL``,
``PREDICT``, ...), which are tokenized as ordinary identifiers/keywords and
interpreted by the declarative layer.

:func:`fingerprint` is the same lexical rules as one regex scan: it
blanks a statement's literals to ``?`` and returns their texts, which
:func:`literal_value` — the conversion :func:`tokenize` itself uses —
turns into values.
"""

import re
from enum import Enum

from repro.common import ParseError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "JOIN", "INNER", "ON",
    "GROUP", "ORDER", "BY", "ASC", "DESC", "LIMIT", "AS", "CREATE", "TABLE",
    "INDEX", "INSERT", "INTO", "VALUES", "ANALYZE", "USING", "DISTINCT",
    "COUNT", "SUM", "AVG", "MIN", "MAX", "MODEL", "PREDICT", "FEATURES",
    "TARGET", "WITH", "DROP", "VIEW", "MATERIALIZED", "BETWEEN", "HYPOTHETICAL",
}


class TokenType(Enum):
    """Lexical token categories."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OP = "op"
    PUNCT = "punct"
    EOF = "eof"


class Token:
    """One lexical token with its source position."""

    __slots__ = ("type", "value", "position")

    def __init__(self, type_, value, position):
        self.type = type_
        self.value = value
        self.position = position

    def matches(self, type_, value=None):
        """Type (and optionally case-insensitive value) equality test."""
        if self.type is not type_:
            return False
        if value is None:
            return True
        if isinstance(self.value, str):
            return self.value.upper() == value.upper()
        return self.value == value

    def __repr__(self):
        return "Token(%s, %r)" % (self.type.value, self.value)


_TWO_CHAR_OPS = ("<=", ">=", "!=", "<>")
_ONE_CHAR_OPS = ("=", "<", ">")
_PUNCT = "(),.;*"


def literal_value(lexeme, position=None):
    """The value of one literal lexeme, as :func:`tokenize` reads it:
    ``'it''s'`` is the string ``it's``, a number with a ``.`` or an
    exponent is a float and any other an int.

    Raises:
        ParseError: on a malformed number (``1e+``, or a digit ``int()``
            rejects such as ``²``).
    """
    if lexeme[0] == "'":
        return lexeme[1:-1].replace("''", "'")
    try:
        if "." in lexeme or "e" in lexeme or "E" in lexeme:
            return float(lexeme)
        return int(lexeme)
    except ValueError:
        raise ParseError("malformed number %r" % lexeme, position) from None


#: A line comment: ``--`` to the end of the line.
_COMMENT = r"--[^\n]*"

#: One match per comment or literal, with :func:`tokenize`'s extents:
#: a comment runs to the newline; a string ends at a quote not followed
#: by another; a number is a digit not inside a word (or a sign and a
#: digit), then digits, one ``.`` and one exponent ``e`` + digit/sign.
#: The lookahead only lets the scan skip other characters fast. ASCII
#: only — :func:`fingerprint` declines other text.
_LEXEME = re.compile(
    r"(?=[-+'\d])(?:" + _COMMENT +
    r"|'(?:[^']|'')*'"
    r"|(?:[-+]|(?<!\w))\d+(?:\.\d*)?(?:[eE][-+\d]\d*)?)",
    re.ASCII,
)

#: Whitespace and line comments before a statement's first token.
_LEADING = re.compile(r"\s*(?:" + _COMMENT + r"\s*)*")


def skip_leading_comments(text):
    """``text`` from its first token on: leading whitespace and ``--``
    line comments (the extent :func:`tokenize` skips) removed."""
    return text[_LEADING.match(text).end():]


def fingerprint(text):
    """``(shape, literal_texts)``: ``text`` with comments removed and each
    literal replaced by ``?``, and the literals' lexemes in text order.

    Two texts with one shape tokenize alike but for their literals' values
    (:func:`literal_value` of each lexeme). Text this scan cannot vouch
    for has no shape — ``(None, ())``: non-ASCII text, or a raw ``?``
    (which the tokenizer rejects). An unterminated string leaves a quote
    in the shape, which no valid text's shape has.
    """
    if not text.isascii():
        return None, ()
    literals = []

    def blank(match):
        lexeme = match.group()
        if lexeme.startswith("--"):
            return ""
        literals.append(lexeme)
        return "?"

    shape = _LEXEME.sub(blank, text)
    if shape.count("?") != len(literals):
        return None, ()
    return shape, tuple(literals)


def tokenize(text):
    """Tokenize SQL text into a list of :class:`Token` ending with EOF.

    Raises:
        ParseError: on unterminated strings, malformed numbers or
            unexpected characters.
    """
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":
            # Line comment.
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit() or (
            ch in "+-" and i + 1 < n and text[i + 1].isdigit()
        ):
            start = i
            i += 1
            seen_dot = False
            seen_exp = False
            while i < n:
                c = text[i]
                if c.isdigit():
                    i += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    i += 1
                elif c in "eE" and not seen_exp and i + 1 < n and (
                    text[i + 1].isdigit() or text[i + 1] in "+-"
                ):
                    seen_exp = True
                    i += 2
                else:
                    break
            tokens.append(Token(TokenType.NUMBER,
                                literal_value(text[start:i], start), start))
            continue
        if ch == "'":
            start = i
            while True:
                i = text.find("'", i + 1)
                if i < 0:
                    raise ParseError("unterminated string literal", start)
                if not text.startswith("'", i + 1):
                    break
                i += 1  # '' is an escaped quote
            i += 1
            tokens.append(Token(TokenType.STRING,
                                literal_value(text[start:i]), start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            if word.upper() in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, word.upper(), start))
            else:
                tokens.append(Token(TokenType.IDENT, word, start))
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            op = "!=" if two == "<>" else two
            tokens.append(Token(TokenType.OP, op, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(TokenType.OP, ch, i))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    tokens.append(Token(TokenType.EOF, None, n))
    return tokens
