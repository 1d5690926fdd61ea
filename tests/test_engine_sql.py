"""Tests for the SQL front end: lexer, parser, lowering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import ParseError
from repro.engine.sql import (
    AggCall,
    AnalyzeStmt,
    CreateIndexStmt,
    CreateTableStmt,
    InsertStmt,
    SelectStmt,
    TokenType,
    lower_select,
    parse_sql,
    tokenize,
)
from repro.engine.sql.lexer import fingerprint, literal_value


class TestLexer:
    def test_keywords_vs_identifiers(self):
        toks = tokenize("SELECT foo FROM bar")
        assert toks[0].matches(TokenType.KEYWORD, "SELECT")
        assert toks[1].matches(TokenType.IDENT, "foo")

    def test_numbers(self):
        toks = tokenize("1 2.5 -3 1e3 2.5E-2")
        values = [t.value for t in toks[:-1]]
        assert values == [1, 2.5, -3, 1000.0, 0.025]
        assert isinstance(values[0], int)
        assert isinstance(values[1], float)

    def test_strings_with_escapes(self):
        toks = tokenize("'it''s'")
        assert toks[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_operators(self):
        toks = tokenize("= != <> <= >= < >")
        ops = [t.value for t in toks[:-1]]
        assert ops == ["=", "!=", "!=", "<=", ">=", "<", ">"]

    def test_comments_stripped(self):
        toks = tokenize("SELECT 1 -- trailing comment\n")
        assert len(toks) == 3  # SELECT, 1, EOF

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            tokenize("SELECT @")
        assert err.value.position == 7

    def test_eof_token_present(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].type is TokenType.EOF

    @pytest.mark.parametrize("text, position", [
        ("SELECT x FROM t WHERE x < 1e+", 26),
        ("SELECT x FROM t WHERE x < 2.5e-", 26),
        ("SELECT x FROM t WHERE x < ²", 26),
        ("SELECT x FROM t WHERE x < 3²", 26),
        ("SELECT x FROM t WHERE x < -1.²", 26),
    ])
    def test_malformed_number_is_a_parse_error(self, text, position):
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert err.value.position == position

    def test_malformed_number_reaches_the_session_as_engine_error(self):
        from repro.common import EngineError
        from repro.engine import Database
        from repro.engine.session import AuditLog

        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        audit = AuditLog()
        session = db.session(audit=audit)
        with pytest.raises(EngineError):
            session.execute("SELECT x FROM t WHERE x < 1e+")
        assert audit.records()[-1].status == "error"

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789²³٣.eE+- x", max_size=12))
    def test_numeric_text_tokenizes_or_raises_parse_error(self, text):
        try:
            toks = tokenize(text)
        except ParseError:
            return
        for tok in toks:
            if tok.type is TokenType.NUMBER:
                assert isinstance(tok.value, (int, float))


class TestParserSelect:
    def test_simple_select(self):
        stmt = parse_sql("SELECT a, b FROM t WHERE a > 5")
        assert isinstance(stmt, SelectStmt)
        assert [c.column for c in stmt.items] == ["a", "b"]
        assert len(stmt.where) == 1

    def test_select_star(self):
        stmt = parse_sql("SELECT * FROM t")
        assert stmt.items == "*"

    def test_qualified_columns_and_joins(self):
        stmt = parse_sql(
            "SELECT t.a FROM t JOIN s ON t.id = s.tid WHERE s.x = 3"
        )
        assert len(stmt.joins) == 1
        ref, cond = stmt.joins[0]
        assert ref.name == "s"
        assert cond.is_join

    def test_inner_join_keyword(self):
        stmt = parse_sql("SELECT a FROM t INNER JOIN s ON t.a = s.b")
        assert len(stmt.joins) == 1

    def test_aggregates(self):
        stmt = parse_sql("SELECT COUNT(*), SUM(x), AVG(t.y) FROM t")
        assert isinstance(stmt.items[0], AggCall)
        assert stmt.items[0].arg is None
        assert stmt.items[1].func == "sum"
        assert stmt.items[2].arg.table == "t"

    def test_count_star_only(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT SUM(*) FROM t")

    def test_group_order_limit(self):
        stmt = parse_sql(
            "SELECT region, COUNT(*) FROM t GROUP BY region "
            "ORDER BY region DESC LIMIT 10"
        )
        assert len(stmt.group_by) == 1
        assert stmt.order_by[1] is True
        assert stmt.limit == 10

    def test_negative_limit_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a FROM t LIMIT -1")

    def test_between_desugars(self):
        stmt = parse_sql("SELECT a FROM t WHERE a BETWEEN 3 AND 9")
        ops = sorted(c.op for c in stmt.where)
        assert ops == ["<=", ">="]

    def test_or_rejected_with_message(self):
        with pytest.raises(ParseError) as err:
            parse_sql("SELECT a FROM t WHERE a = 1 OR a = 2")
        assert "OR" in str(err.value)

    def test_aliases(self):
        stmt = parse_sql("SELECT u.a FROM users AS u")
        assert stmt.tables[0].alias == "u"
        stmt2 = parse_sql("SELECT u.a FROM users u")
        assert stmt2.tables[0].alias == "u"

    def test_distinct(self):
        assert parse_sql("SELECT DISTINCT a FROM t").distinct

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a FROM t zzz qqq")

    def test_trailing_semicolon_ok(self):
        parse_sql("SELECT a FROM t;")


class TestFingerprint:
    def test_literals_blanked_in_text_order(self):
        shape, literals = fingerprint(
            "SELECT d1.a FROM d1 -- 5 'x'\n"
            "WHERE d1.b >= -5 AND d1.c = 'it''s' AND d1.e < 1e5")
        assert shape == ("SELECT d1.a FROM d1 \n"
                         "WHERE d1.b >= ? AND d1.c = ? AND d1.e < ?")
        assert literals == ("-5", "'it''s'", "1e5")
        assert [literal_value(t) for t in literals] == [-5, "it's", 1e5]

    def test_text_the_scan_cannot_vouch_for_has_no_shape(self):
        assert fingerprint("SELECT a FROM t WHERE a = ?") == (None, ())
        assert fingerprint("SELECT a FROM t WHERE a = ٣") == (None, ())

    def test_malformed_number(self):
        with pytest.raises(ParseError):
            literal_value("1e+")

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="ab_19 .eE+-'\n=<(),?", max_size=40))
    def test_scan_agrees_with_tokenize(self, text):
        """Wherever the tokenizer succeeds, the scan finds its literals —
        same values, same types, same order — and blanking them leaves
        its other tokens."""
        try:
            tokens = tokenize(text)
        except ParseError:
            return
        shape, literals = fingerprint(text)
        literal_types = (TokenType.NUMBER, TokenType.STRING)
        assert [(type(v), v) for v in map(literal_value, literals)] == [
            (type(t.value), t.value) for t in tokens
            if t.type in literal_types]
        rest = tokenize(shape.replace("?", " 0 "))
        assert [(t.type, t.value) for t in rest
                if t.type not in literal_types] == [
            (t.type, t.value) for t in tokens if t.type not in literal_types]


class TestParserDDL:
    def test_create_table(self):
        stmt = parse_sql("CREATE TABLE t (a INT, b TEXT, c FLOAT)")
        assert isinstance(stmt, CreateTableStmt)
        assert stmt.columns == [("a", "INT"), ("b", "TEXT"), ("c", "FLOAT")]

    def test_create_index(self):
        stmt = parse_sql("CREATE INDEX i ON t (a) USING hash")
        assert isinstance(stmt, CreateIndexStmt)
        assert stmt.kind == "hash"
        assert not stmt.hypothetical

    def test_create_hypothetical_index(self):
        stmt = parse_sql("CREATE HYPOTHETICAL INDEX i ON t (a)")
        assert stmt.hypothetical

    def test_hypothetical_table_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("CREATE HYPOTHETICAL TABLE t (a INT)")

    def test_insert(self):
        stmt = parse_sql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, InsertStmt)
        assert stmt.columns == ["a", "b"]
        assert stmt.rows == [[1, "x"], [2, "y"]]

    def test_insert_without_columns(self):
        stmt = parse_sql("INSERT INTO t VALUES (1, 2)")
        assert stmt.columns is None

    def test_analyze(self):
        assert isinstance(parse_sql("ANALYZE"), AnalyzeStmt)
        stmt = parse_sql("ANALYZE users")
        assert stmt.table == "users"

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_sql("DELETE FROM t")

    def test_aisql_words_are_native_identifiers(self):
        """Keywords only AISQL reads name columns and tables in native
        SQL, spelled as written; the lexer still calls them keywords."""
        stmt = parse_sql("CREATE TABLE m (id INT, target INT, Model TEXT)")
        assert stmt.columns == [("id", "INT"), ("target", "INT"),
                                ("Model", "TEXT")]
        stmt = parse_sql("SELECT predict, m.features FROM model m "
                         "WHERE drop = 1 AND with > view")
        assert [c.column for c in stmt.items] == ["predict", "features"]
        assert stmt.tables[0].name == "model"
        assert parse_sql("ANALYZE materialized").table == "materialized"
        assert tokenize("DROP TABLE users")[0].matches(
            TokenType.KEYWORD, "DROP")
        with pytest.raises(ParseError):
            parse_sql("CREATE TABLE m (select INT)")

    def test_aisql_words_as_columns_end_to_end(self):
        from repro.engine import Database

        db = Database()
        db.execute("CREATE TABLE m (id INT, target INT, model TEXT)")
        db.execute("INSERT INTO m (id, target, model) VALUES (1, 7, 'lr')")
        assert db.query("SELECT target, model FROM m WHERE target > 2") \
            == [(7, "lr")]


class TestLowering:
    def test_binds_unqualified_columns(self, tiny_db):
        stmt = parse_sql("SELECT name FROM users WHERE age > 30")
        query = lower_select(stmt, tiny_db.catalog)
        assert query.projections == [("users", "name")]
        assert query.predicates[0].table == "users"

    def test_classifies_join_predicates(self, tiny_db):
        stmt = parse_sql(
            "SELECT name FROM users, orders WHERE id = user_id AND amount > 5"
        )
        query = lower_select(stmt, tiny_db.catalog)
        assert len(query.join_edges) == 1
        assert len(query.predicates) == 1

    def test_ambiguous_column_rejected(self, tiny_db):
        tiny_db.execute("CREATE TABLE extra (id INT)")
        stmt = parse_sql("SELECT id FROM users, extra")
        with pytest.raises(ParseError):
            lower_select(stmt, tiny_db.catalog)

    def test_unknown_column_rejected(self, tiny_db):
        stmt = parse_sql("SELECT nonexistent FROM users")
        with pytest.raises(ParseError):
            lower_select(stmt, tiny_db.catalog)

    def test_alias_resolution(self, tiny_db):
        stmt = parse_sql("SELECT u.name FROM users AS u WHERE u.age < 30")
        query = lower_select(stmt, tiny_db.catalog)
        assert query.projections == [("users", "name")]

    def test_self_join_rejected(self, tiny_db):
        stmt = parse_sql("SELECT a.name FROM users a, users b")
        with pytest.raises(ParseError):
            lower_select(stmt, tiny_db.catalog)

    def test_nonaggregated_projection_needs_group_by(self, tiny_db):
        stmt = parse_sql("SELECT name, COUNT(*) FROM users")
        from repro.common import PlanError
        with pytest.raises(PlanError):
            lower_select(stmt, tiny_db.catalog)

    def test_group_by_projection_allowed(self, tiny_db):
        stmt = parse_sql("SELECT age, COUNT(*) FROM users GROUP BY age")
        query = lower_select(stmt, tiny_db.catalog)
        assert query.group_by == [("users", "age")]

    def test_distinct_carried(self, tiny_db):
        stmt = parse_sql("SELECT DISTINCT age FROM users")
        query = lower_select(stmt, tiny_db.catalog)
        assert query.distinct
