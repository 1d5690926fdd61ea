"""Recursive-descent parser for the supported SQL subset.

Grammar (informally)::

    statement   := select | create_table | create_index | insert | analyze
    select      := SELECT [DISTINCT] items FROM table_ref (,"" table_ref)*
                   (JOIN table_ref ON comparison)*
                   [WHERE comparison (AND comparison)*]
                   [GROUP BY column_ref (, column_ref)*]
                   [ORDER BY column_ref [ASC|DESC]]
                   [LIMIT number]
    items       := * | item (, item)*
    item        := column_ref | agg '(' (column_ref | *) ')'
    comparison  := column_ref op (literal | column_ref)
    create_table:= CREATE TABLE name '(' col type (, col type)* ')'
    create_index:= CREATE [HYPOTHETICAL] INDEX name ON table '(' column ')'
                   [USING (btree|hash)]
    insert      := INSERT INTO name ['(' cols ')'] VALUES tuple (, tuple)*
    analyze     := ANALYZE [name]

OR, subqueries and expressions beyond a single comparison are intentionally
out of scope; the AI4DB experiments operate on conjunctive queries (see
DESIGN.md). ``BETWEEN`` is desugared into two comparisons.
"""

from repro.common import ParseError
from repro.engine.sql.ast_nodes import (
    AggCall,
    AnalyzeStmt,
    ColumnRef,
    Comparison,
    CreateIndexStmt,
    CreateTableStmt,
    InsertStmt,
    Literal,
    SelectStmt,
    TableRef,
)
from repro.engine.sql.lexer import TokenType, tokenize

_AGG_KEYWORDS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

#: Keywords no native rule reads (only AISQL's): native SQL takes them
#: as identifiers.
_NON_RESERVED = {"MODEL", "PREDICT", "FEATURES", "TARGET", "WITH", "VIEW",
                 "MATERIALIZED", "DROP"}


class Parser:
    """Token-stream parser; one instance per statement string."""

    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token helpers --------------------------------------------------
    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.EOF:
            self.pos += 1
        return tok

    def _check(self, type_, value=None):
        return self._peek().matches(type_, value)

    def _accept(self, type_, value=None):
        if self._check(type_, value):
            return self._advance()
        return None

    def _expect(self, type_, value=None):
        tok = self._accept(type_, value)
        if tok is None:
            got = self._peek()
            raise ParseError(
                "expected %s%s but found %r"
                % (type_.value, " %r" % value if value else "", got.value),
                got.position,
            )
        return tok

    def _check_ident(self):
        tok = self._peek()
        return tok.type is TokenType.IDENT or (
            tok.type is TokenType.KEYWORD and tok.value in _NON_RESERVED)

    def _expect_ident(self):
        tok = self._peek()
        if not self._check_ident():
            raise ParseError("expected identifier, found %r" % (tok.value,),
                             tok.position)
        self._advance()
        if tok.type is TokenType.KEYWORD:
            # Spelled as written: the lexer upper-cased the keyword.
            return self.text[tok.position:tok.position + len(tok.value)]
        return tok.value

    # -- entry points ---------------------------------------------------
    def parse_statement(self):
        """Parse one statement and require EOF (a trailing ';' is allowed)."""
        stmt = self._statement()
        self._accept(TokenType.PUNCT, ";")
        if not self._check(TokenType.EOF):
            tok = self._peek()
            raise ParseError(
                "unexpected trailing input %r" % (tok.value,), tok.position
            )
        return stmt

    def _statement(self):
        if self._check(TokenType.KEYWORD, "SELECT"):
            return self._select()
        if self._check(TokenType.KEYWORD, "CREATE"):
            return self._create()
        if self._check(TokenType.KEYWORD, "INSERT"):
            return self._insert()
        if self._check(TokenType.KEYWORD, "ANALYZE"):
            return self._analyze()
        tok = self._peek()
        raise ParseError(
            "statement must start with SELECT/CREATE/INSERT/ANALYZE, found %r"
            % (tok.value,),
            tok.position,
        )

    # -- SELECT ----------------------------------------------------------
    def _select(self):
        self._expect(TokenType.KEYWORD, "SELECT")
        distinct = bool(self._accept(TokenType.KEYWORD, "DISTINCT"))
        items = self._select_items()
        self._expect(TokenType.KEYWORD, "FROM")
        tables = [self._table_ref()]
        while self._accept(TokenType.PUNCT, ","):
            tables.append(self._table_ref())
        joins = []
        while True:
            if self._accept(TokenType.KEYWORD, "INNER"):
                self._expect(TokenType.KEYWORD, "JOIN")
            elif not self._accept(TokenType.KEYWORD, "JOIN"):
                break
            ref = self._table_ref()
            self._expect(TokenType.KEYWORD, "ON")
            cond = self._comparison()
            if not cond.is_join:
                raise ParseError("ON clause must be an equi-join between columns")
            joins.append((ref, cond))
        where = []
        if self._accept(TokenType.KEYWORD, "WHERE"):
            where.extend(self._comparison_or_between())
            while self._accept(TokenType.KEYWORD, "AND"):
                where.extend(self._comparison_or_between())
            if self._check(TokenType.KEYWORD, "OR"):
                tok = self._peek()
                raise ParseError(
                    "OR is not supported by the conjunctive-query engine",
                    tok.position,
                )
        group_by = []
        if self._accept(TokenType.KEYWORD, "GROUP"):
            self._expect(TokenType.KEYWORD, "BY")
            group_by.append(self._column_ref())
            while self._accept(TokenType.PUNCT, ","):
                group_by.append(self._column_ref())
        order_by = None
        if self._accept(TokenType.KEYWORD, "ORDER"):
            self._expect(TokenType.KEYWORD, "BY")
            col = self._column_ref()
            descending = False
            if self._accept(TokenType.KEYWORD, "DESC"):
                descending = True
            else:
                self._accept(TokenType.KEYWORD, "ASC")
            order_by = (col, descending)
        limit = None
        if self._accept(TokenType.KEYWORD, "LIMIT"):
            tok = self._expect(TokenType.NUMBER)
            if not isinstance(tok.value, int) or tok.value < 0:
                raise ParseError("LIMIT needs a non-negative integer", tok.position)
            limit = tok.value
        return SelectStmt(
            items, tables, joins, where, group_by, order_by, limit, distinct
        )

    def _select_items(self):
        if self._accept(TokenType.PUNCT, "*"):
            return "*"
        items = [self._select_item()]
        while self._accept(TokenType.PUNCT, ","):
            items.append(self._select_item())
        return items

    def _select_item(self):
        tok = self._peek()
        if tok.type is TokenType.KEYWORD and tok.value in _AGG_KEYWORDS:
            self._advance()
            self._expect(TokenType.PUNCT, "(")
            if self._accept(TokenType.PUNCT, "*"):
                if tok.value != "COUNT":
                    raise ParseError("only COUNT(*) may take *", tok.position)
                arg = None
            else:
                arg = self._column_ref()
            self._expect(TokenType.PUNCT, ")")
            return AggCall(tok.value, arg)
        return self._column_ref()

    def _table_ref(self):
        name = self._expect_ident()
        alias = None
        if self._accept(TokenType.KEYWORD, "AS"):
            alias = self._expect_ident()
        elif self._check(TokenType.IDENT):
            alias = self._advance().value
        return TableRef(name, alias)

    def _column_ref(self):
        first = self._expect_ident()
        if self._accept(TokenType.PUNCT, "."):
            second = self._expect_ident()
            return ColumnRef(second, table=first)
        return ColumnRef(first)

    def _comparison(self):
        left = self._column_ref()
        op_tok = self._expect(TokenType.OP)
        right = self._operand()
        return Comparison(left, op_tok.value, right)

    def _comparison_or_between(self):
        """Parse one predicate; BETWEEN desugars into two comparisons."""
        left = self._column_ref()
        if self._accept(TokenType.KEYWORD, "BETWEEN"):
            low = self._literal()
            self._expect(TokenType.KEYWORD, "AND")
            high = self._literal()
            return [
                Comparison(left, ">=", low),
                Comparison(left, "<=", high),
            ]
        op_tok = self._expect(TokenType.OP)
        right = self._operand()
        return [Comparison(left, op_tok.value, right)]

    def _operand(self):
        tok = self._peek()
        if tok.type in (TokenType.NUMBER, TokenType.STRING):
            self._advance()
            return Literal(tok.value)
        return self._column_ref()

    def _literal(self):
        tok = self._peek()
        if tok.type in (TokenType.NUMBER, TokenType.STRING):
            self._advance()
            return Literal(tok.value)
        raise ParseError("expected a literal, found %r" % (tok.value,), tok.position)

    # -- CREATE ----------------------------------------------------------
    def _create(self):
        self._expect(TokenType.KEYWORD, "CREATE")
        hypothetical = bool(self._accept(TokenType.KEYWORD, "HYPOTHETICAL"))
        if self._accept(TokenType.KEYWORD, "TABLE"):
            if hypothetical:
                raise ParseError("HYPOTHETICAL applies only to indexes")
            return self._create_table()
        if self._accept(TokenType.KEYWORD, "INDEX"):
            return self._create_index(hypothetical)
        tok = self._peek()
        raise ParseError(
            "CREATE must be followed by TABLE or INDEX, found %r" % (tok.value,),
            tok.position,
        )

    def _create_table(self):
        name = self._expect_ident()
        self._expect(TokenType.PUNCT, "(")
        columns = []
        while True:
            col = self._expect_ident()
            type_tok = self._peek()
            if type_tok.type is TokenType.IDENT:
                type_name = self._advance().value
            else:
                raise ParseError(
                    "expected a type name for column %r" % col, type_tok.position
                )
            columns.append((col, type_name))
            if not self._accept(TokenType.PUNCT, ","):
                break
        self._expect(TokenType.PUNCT, ")")
        return CreateTableStmt(name, columns)

    def _create_index(self, hypothetical):
        name = self._expect_ident()
        self._expect(TokenType.KEYWORD, "ON")
        table = self._expect_ident()
        self._expect(TokenType.PUNCT, "(")
        column = self._expect_ident()
        self._expect(TokenType.PUNCT, ")")
        kind = "btree"
        if self._accept(TokenType.KEYWORD, "USING"):
            kind = self._expect_ident().lower()
        return CreateIndexStmt(name, table, column, kind, hypothetical)

    # -- INSERT ----------------------------------------------------------
    def _insert(self):
        self._expect(TokenType.KEYWORD, "INSERT")
        self._expect(TokenType.KEYWORD, "INTO")
        table = self._expect_ident()
        columns = None
        if self._accept(TokenType.PUNCT, "("):
            columns = [self._expect_ident()]
            while self._accept(TokenType.PUNCT, ","):
                columns.append(self._expect_ident())
            self._expect(TokenType.PUNCT, ")")
        self._expect(TokenType.KEYWORD, "VALUES")
        rows = [self._value_tuple()]
        while self._accept(TokenType.PUNCT, ","):
            rows.append(self._value_tuple())
        return InsertStmt(table, columns, rows)

    def _value_tuple(self):
        self._expect(TokenType.PUNCT, "(")
        values = [self._literal().value]
        while self._accept(TokenType.PUNCT, ","):
            values.append(self._literal().value)
        self._expect(TokenType.PUNCT, ")")
        return values

    # -- ANALYZE ---------------------------------------------------------
    def _analyze(self):
        self._expect(TokenType.KEYWORD, "ANALYZE")
        table = self._expect_ident() if self._check_ident() else None
        return AnalyzeStmt(table)


def parse_sql(text):
    """Parse one SQL statement string into an AST node."""
    return Parser(text).parse_statement()
