"""SQL tokenizer.

A hand-rolled scanner producing a flat token list. It recognizes the SQL
subset the engine supports plus the AISQL extension keywords (``MODEL``,
``PREDICT``, ...), which are tokenized as ordinary identifiers/keywords and
interpreted by the declarative layer.
"""

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
            raw = text[start:i]
            try:
                value = float(raw) if (seen_dot or seen_exp) else int(raw)
            except ValueError:  # "1e+", or a digit int() rejects ("²")
                raise ParseError("malformed number %r" % raw, start) from None
            tokens.append(Token(TokenType.NUMBER, value, start))
            continue
        if ch == "'":
            start = i
            i += 1
            chunks = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string literal", start)
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        chunks.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                chunks.append(text[i])
                i += 1
            tokens.append(Token(TokenType.STRING, "".join(chunks), start))
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
