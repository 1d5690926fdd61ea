"""AISQL: SQL extended with in-database model training and inference.

The tutorial's DB4AI section opens with declarative language models:
"SQL can be extended to support AI models [66]". This module adds three
statements to the engine through its one extension point,
``db.pipeline.extensions``::

    CREATE MODEL churn KIND classifier ON users TARGET churned
        FEATURES (age, logins, spend) WHERE age > 18
        WITH (epochs = 200, hidden = 32)

    PREDICT churn ON users WHERE age > 18 LIMIT 10

    EVALUATE churn ON users_holdout

Training data never leaves the database: feature extraction runs through
the engine's own planner/executor, the fitted model lands in the
ModelDB-lite registry with lineage recording exactly which rows trained
it, and PREDICT executes inference next to the data — the import/export
cost the tutorial complains about simply never happens.
"""

import numpy as np

from repro.common import ParseError
from repro.engine.query import ConjunctiveQuery, Predicate
from repro.engine.sql.lexer import TokenType, tokenize
from repro.engine.types import DataType
from repro.db4ai.training.registry import ModelRegistry
from repro.ml import (
    LinearRegression,
    MLPClassifier,
    MLPRegressor,
    StandardScaler,
    accuracy,
    r2_score,
)

_KINDS = ("regressor", "classifier", "linear")


class CreateModelStmt:
    """Parsed ``CREATE MODEL`` statement."""

    def __init__(self, name, kind, table, target, features, predicates,
                 params):
        self.name = name
        self.kind = kind
        self.table = table
        self.target = target
        self.features = features
        self.predicates = predicates
        self.params = params


class PredictStmt:
    """Parsed ``PREDICT`` statement."""

    def __init__(self, model, table, predicates, limit):
        self.model = model
        self.table = table
        self.predicates = predicates
        self.limit = limit


class EvaluateStmt:
    """Parsed ``EVALUATE`` statement."""

    def __init__(self, model, table, predicates):
        self.model = model
        self.table = table
        self.predicates = predicates


class PredictResult:
    """Rows with an appended prediction column."""

    def __init__(self, columns, rows, model_name):
        self.columns = list(columns)
        self.rows = rows
        self.model_name = model_name

    def __repr__(self):
        return "PredictResult(%d rows from %s)" % (len(self.rows), self.model_name)


class _AISQLParser:
    """Parses the three AISQL statements from a token stream."""

    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos]

    def _advance(self):
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.EOF:
            self.pos += 1
        return tok

    def _accept(self, type_, value=None):
        if self._peek().matches(type_, value):
            return self._advance()
        return None

    def _expect(self, type_, value=None):
        tok = self._accept(type_, value)
        if tok is None:
            got = self._peek()
            raise ParseError(
                "AISQL: expected %s%s, found %r"
                % (type_.value, " %r" % value if value else "", got.value),
                got.position,
            )
        return tok

    def _ident(self):
        tok = self._peek()
        if tok.type is TokenType.IDENT:
            return self._advance().value
        raise ParseError("AISQL: expected identifier, found %r" % (tok.value,),
                         tok.position)

    def _predicates(self, table):
        preds = []
        if not self._accept(TokenType.KEYWORD, "WHERE"):
            return preds
        while True:
            col = self._ident()
            op = self._expect(TokenType.OP).value
            vtok = self._peek()
            if vtok.type not in (TokenType.NUMBER, TokenType.STRING):
                raise ParseError("AISQL: WHERE needs literal values",
                                 vtok.position)
            self._advance()
            preds.append(Predicate(table, col, op, vtok.value))
            if not self._accept(TokenType.KEYWORD, "AND"):
                break
        return preds

    def parse(self):
        """Dispatch on the statement head; returns a parsed statement."""
        if self._accept(TokenType.KEYWORD, "CREATE"):
            self._expect(TokenType.KEYWORD, "MODEL")
            return self._create_model()
        if self._accept(TokenType.KEYWORD, "PREDICT"):
            return self._predict()
        head = self._peek()
        if head.type is TokenType.IDENT and head.value.upper() == "EVALUATE":
            self._advance()
            return self._evaluate()
        raise ParseError("not an AISQL statement")

    def _create_model(self):
        name = self._ident()
        kind = "regressor"
        tok = self._peek()
        if tok.type is TokenType.IDENT and tok.value.upper() == "KIND":
            self._advance()
            ktok = self._peek()
            if ktok.type is TokenType.STRING:
                kind = self._advance().value.lower()
            else:
                kind = self._ident().lower()
            if kind not in _KINDS:
                raise ParseError(
                    "AISQL: KIND must be one of %s" % (", ".join(_KINDS),)
                )
        self._expect(TokenType.KEYWORD, "ON")
        table = self._ident()
        self._expect(TokenType.KEYWORD, "TARGET")
        target = self._ident()
        self._expect(TokenType.KEYWORD, "FEATURES")
        self._expect(TokenType.PUNCT, "(")
        features = [self._ident()]
        while self._accept(TokenType.PUNCT, ","):
            features.append(self._ident())
        self._expect(TokenType.PUNCT, ")")
        predicates = self._predicates(table)
        params = {}
        if self._accept(TokenType.KEYWORD, "WITH"):
            self._expect(TokenType.PUNCT, "(")
            while True:
                key = self._ident()
                self._expect(TokenType.OP, "=")
                vtok = self._peek()
                if vtok.type not in (TokenType.NUMBER, TokenType.STRING):
                    raise ParseError("AISQL: WITH values must be literals",
                                     vtok.position)
                self._advance()
                params[key.lower()] = vtok.value
                if not self._accept(TokenType.PUNCT, ","):
                    break
            self._expect(TokenType.PUNCT, ")")
        return CreateModelStmt(name, kind, table, target, features,
                               predicates, params)

    def _predict(self):
        model = self._ident()
        self._expect(TokenType.KEYWORD, "ON")
        table = self._ident()
        predicates = self._predicates(table)
        limit = None
        if self._accept(TokenType.KEYWORD, "LIMIT"):
            tok = self._expect(TokenType.NUMBER)
            limit = int(tok.value)
        return PredictStmt(model, table, predicates, limit)

    def _evaluate(self):
        model = self._ident()
        self._expect(TokenType.KEYWORD, "ON")
        table = self._ident()
        predicates = self._predicates(table)
        return EvaluateStmt(model, table, predicates)


class AISQLExtension:
    """AISQL statement handling for a :class:`Database`: a pipeline
    extension (``describe`` + ``run``).

    Args:
        registry: an optional shared :class:`ModelRegistry`.

    Usage::

        ext = AISQLExtension()
        ext.install(db)
        db.execute("CREATE MODEL m KIND regressor ON t TARGET y FEATURES (a, b)")
    """

    _HEADS = ("CREATE MODEL", "PREDICT", "EVALUATE")

    def __init__(self, registry=None):
        self.registry = registry or ModelRegistry()

    def install(self, database):
        """Register this extension on the database's query pipeline.

        Returns self for chaining. The session layer then classifies
        AISQL statements through :meth:`describe` (so dry runs and policy
        gates see their tables, feature columns and plannable feature
        query without executing them) and executes them through
        :meth:`run`. Feature extraction for ``CREATE MODEL`` /
        ``PREDICT`` / ``EVALUATE`` runs through the staged pipeline, so
        repeated ``PREDICT`` statements over the same feature query hit
        the plan cache instead of replanning.
        """
        database.pipeline.extensions.append(self)
        return self

    # ------------------------------------------------------------------
    def run(self, database, sql_text):
        """Execute an AISQL statement :meth:`describe` claimed."""
        stmt = _AISQLParser(sql_text).parse()
        if isinstance(stmt, CreateModelStmt):
            return self._train(database, stmt)
        if isinstance(stmt, PredictStmt):
            return self._predict(database, stmt)
        return self._evaluate(database, stmt)

    def describe(self, database, sql_text):
        """Describe an AISQL statement without executing it.

        Returns ``None`` for statements this extension doesn't own, else
        a dict with the statement's kind, referenced tables and columns,
        and — when the feature set is known — the plannable feature
        :class:`ConjunctiveQuery` the session layer can cost.
        """
        head = sql_text.lstrip().upper()
        if not any(head.startswith(h) for h in self._HEADS):
            return None
        stmt = _AISQLParser(sql_text).parse()
        limit = None
        if isinstance(stmt, CreateModelStmt):
            kind = "CREATE MODEL"
            feature_cols = list(stmt.features) + [stmt.target]
        else:
            kind = "PREDICT" if isinstance(stmt, PredictStmt) else "EVALUATE"
            limit = getattr(stmt, "limit", None)
            try:
                bundle = self.registry.get(stmt.model).model
                feature_cols = list(bundle["features"])
                if kind == "EVALUATE":
                    feature_cols.append(bundle["target"])
            except Exception:
                # Unknown model: the statement would fail at execution,
                # but kind/table gates should still see it.
                feature_cols = []
        columns = [(stmt.table, c) for c in feature_cols]
        columns.extend((stmt.table, p.column) for p in stmt.predicates)
        query = None
        if feature_cols:
            query = ConjunctiveQuery(
                tables=[stmt.table],
                predicates=stmt.predicates,
                projections=[(stmt.table, c) for c in feature_cols],
                limit=limit,
            )
        return {
            "kind": kind,
            "tables": [stmt.table],
            "columns": columns,
            "query": query,
        }

    # ------------------------------------------------------------------
    def _fetch(self, database, table, columns, predicates, limit=None):
        """Pull columns through the engine (predicates pushed down)."""
        schema = database.catalog.table(table).schema
        for c in columns:
            col = schema.column(c)
            if col.dtype is DataType.TEXT:
                raise ParseError(
                    "AISQL supports numeric features; %r is TEXT" % (c,)
                )
        query = ConjunctiveQuery(
            tables=[table],
            predicates=predicates,
            projections=[(table, c) for c in columns],
            limit=limit,
        )
        result = database.run_query_object(query)
        data = np.asarray(result.rows, dtype=float)
        if data.size == 0:
            data = data.reshape(0, len(columns))
        return data

    def _build_model(self, kind, params, seed=0):
        epochs = int(params.get("epochs", 150))
        hidden = int(params.get("hidden", 32))
        lr = float(params.get("lr", 1e-3))
        if kind == "regressor":
            return MLPRegressor(hidden=(hidden, hidden), epochs=epochs,
                                lr=lr, seed=seed)
        if kind == "classifier":
            return MLPClassifier(hidden=(hidden, hidden), epochs=epochs,
                                 lr=lr, seed=seed)
        return LinearRegression()

    def _train(self, database, stmt):
        data = self._fetch(
            database, stmt.table, stmt.features + [stmt.target],
            stmt.predicates,
        )
        if len(data) == 0:
            raise ParseError("CREATE MODEL: training query returned no rows")
        X, y = data[:, :-1], data[:, -1]
        scaler = StandardScaler()
        Xs = scaler.fit_transform(X)
        seed = int(stmt.params.get("seed", 0))
        model = self._build_model(stmt.kind, stmt.params, seed=seed)
        model.fit(Xs, y)
        if stmt.kind == "classifier":
            train_metric = {"train_accuracy": accuracy(y, model.predict(Xs))}
        else:
            train_metric = {"train_r2": r2_score(y, model.predict(Xs))}
        bundle = {"model": model, "scaler": scaler, "kind": stmt.kind,
                  "features": stmt.features, "target": stmt.target}
        record = self.registry.register(
            stmt.name,
            bundle,
            params=stmt.params,
            metrics=train_metric,
            lineage={
                "table": stmt.table,
                "predicates": [str(p) for p in stmt.predicates],
                "n_rows": len(y),
                "features": stmt.features,
                "target": stmt.target,
            },
        )
        return "CREATE MODEL %s v%d (%s)" % (
            record.name, record.version,
            ", ".join("%s=%.4g" % kv for kv in train_metric.items()),
        )

    def _predict(self, database, stmt):
        record = self.registry.get(stmt.model)
        bundle = record.model
        X = self._fetch(
            database, stmt.table, bundle["features"], stmt.predicates,
            limit=stmt.limit,
        )
        if len(X) == 0:
            return PredictResult(
                bundle["features"] + ["prediction"], [], stmt.model
            )
        preds = bundle["model"].predict(bundle["scaler"].transform(X))
        rows = [tuple(x) + (float(p),) for x, p in zip(X, preds)]
        return PredictResult(
            bundle["features"] + ["prediction"], rows, stmt.model
        )

    def _evaluate(self, database, stmt):
        record = self.registry.get(stmt.model)
        bundle = record.model
        data = self._fetch(
            database, stmt.table, bundle["features"] + [bundle["target"]],
            stmt.predicates,
        )
        if len(data) == 0:
            raise ParseError("EVALUATE: query returned no rows")
        X, y = data[:, :-1], data[:, -1]
        preds = bundle["model"].predict(bundle["scaler"].transform(X))
        if bundle["kind"] == "classifier":
            metric = {"accuracy": accuracy(y, preds)}
        else:
            metric = {"r2": r2_score(y, preds)}
        record.metrics.update(metric)
        return metric
