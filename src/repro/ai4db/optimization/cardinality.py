"""Learned cardinality estimation (MSCN-lite).

Reproduces the shape of the learned-estimator results the tutorial cites
(Sun & Li [70], Dutt et al. [13], Yang et al. [82]): a small neural model
over query features learns the column correlations that break the
traditional independence assumption, collapsing tail q-error by orders of
magnitude on correlated data.

The featurization is a flattened variant of MSCN's set encoding: one-hot
table membership, one-hot join edges, and per-(table, column) predicate
slots holding normalized range bounds. The model regresses
``log(cardinality + 1)`` with an MLP. It implements the engine's
:class:`~repro.engine.optimizer.cardinality.CardinalityEstimator` contract,
so it can drive the standard planner directly (experiment E8).
"""

import numpy as np

from repro.ai4db.optimization.estimators import count_join_rows
from repro.ai4db.optimization.feedback import induced_subquery
from repro.common import ModelError, NotFittedError, ensure_rng
from repro.engine.optimizer.cardinality import CardinalityEstimator
from repro.engine.query import ConjunctiveQuery, Predicate
from repro.engine.types import DataType
from repro.ml import MLPRegressor


class QueryFeaturizer:
    """Encodes conjunctive queries over a fixed schema as dense vectors.

    Args:
        catalog: catalog providing schemas and statistics (for bounds
            normalization).
        tables: the schema's table names (feature-space vocabulary).
        join_edges: all join edges that can appear in queries (vocabulary).

    Vector layout:
        ``[table one-hots | edge one-hots | per-(table,numeric column):
        (has_eq, eq_norm, lower_norm, upper_norm)]``
        with lower/upper defaulting to 0/1 when unconstrained.
    """

    def __init__(self, catalog, tables, join_edges):
        self.catalog = catalog
        self.tables = [t.lower() for t in tables]
        self._table_pos = {t: i for i, t in enumerate(self.tables)}
        self.edges = list(join_edges)
        self._edge_pos = {e.key(): i for i, e in enumerate(self.edges)}
        self.columns = []
        self._bounds = {}
        for t in tables:
            schema = catalog.table(t).schema
            stats = catalog.stats(t)
            for col in schema.columns:
                if col.dtype is DataType.TEXT:
                    continue
                key = (t.lower(), col.name.lower())
                self.columns.append(key)
                cstats = stats.column(col.name)
                lo = cstats.min if cstats.min is not None else 0.0
                hi = cstats.max if cstats.max is not None else 1.0
                if hi <= lo:
                    hi = lo + 1.0
                self._bounds[key] = (lo, hi)
        self._col_pos = {c: i for i, c in enumerate(self.columns)}

    @property
    def dim(self):
        """Feature-vector length."""
        return len(self.tables) + len(self.edges) + 4 * len(self.columns)

    def _norm(self, key, value):
        lo, hi = self._bounds[key]
        return float(np.clip((float(value) - lo) / (hi - lo), -0.5, 1.5))

    def featurize(self, query):
        """Encode one :class:`ConjunctiveQuery` (tables must be in-vocab)."""
        vec = np.zeros(self.dim)
        for t in query.tables:
            key = t.lower()
            if key not in self._table_pos:
                raise ModelError("table %r not in featurizer vocabulary" % (t,))
            vec[self._table_pos[key]] = 1.0
        base = len(self.tables)
        for e in query.join_edges:
            pos = self._edge_pos.get(e.key())
            if pos is not None:
                vec[base + pos] = 1.0
        pbase = base + len(self.edges)
        # Default slots: lower=0, upper=1 ("unconstrained full range").
        for i, key in enumerate(self.columns):
            vec[pbase + 4 * i + 2] = 0.0
            vec[pbase + 4 * i + 3] = 1.0
        for p in query.predicates:
            key = (p.table.lower(), p.column.lower())
            if key not in self._col_pos or not isinstance(p.value, (int, float)):
                continue
            i = self._col_pos[key]
            slot = pbase + 4 * i
            v = self._norm(key, p.value)
            if p.op == "=":
                vec[slot] = 1.0
                vec[slot + 1] = v
                vec[slot + 2] = max(vec[slot + 2], v)
                vec[slot + 3] = min(vec[slot + 3], v)
            elif p.op in (">", ">="):
                vec[slot + 2] = max(vec[slot + 2], v)
            elif p.op in ("<", "<="):
                vec[slot + 3] = min(vec[slot + 3], v)
            # "!=" carries almost no selectivity signal; leave slots as-is.
        return vec


class LearnedCardinalityEstimator(CardinalityEstimator):
    """MLP cardinality estimator implementing the planner's contract.

    Args:
        featurizer: a :class:`QueryFeaturizer` for the schema.
        hidden: MLP hidden sizes.
        epochs: training epochs.
        seed: init/shuffle seed.
    """

    def __init__(self, featurizer, hidden=(128, 64), epochs=120, lr=1e-3, seed=0):
        self.featurizer = featurizer
        self.model = MLPRegressor(hidden=hidden, epochs=epochs, lr=lr, seed=seed)
        self._fitted = False
        self._base_queries = []
        self._base_cards = []

    def _fit(self, queries, true_cardinalities):
        X = np.stack([self.featurizer.featurize(q) for q in queries])
        y = np.log1p(np.maximum(np.asarray(true_cardinalities, dtype=float), 0.0))
        self.model.fit(X, y)
        self._fitted = True

    def fit(self, queries, true_cardinalities):
        """Train on queries with oracle (or executed) cardinalities.

        The training set is stashed as the *base* corpus so later
        :meth:`refit_from_feedback` calls can retrain on base + observed
        pairs without the caller re-supplying the originals.
        """
        if len(queries) != len(true_cardinalities):
            raise ModelError("queries and cardinalities must align")
        self._base_queries = list(queries)
        self._base_cards = list(true_cardinalities)
        self._fit(self._base_queries, self._base_cards)
        return self

    def refit_from_feedback(self, store):
        """Retrain on the base corpus plus a feedback store's observations.

        Args:
            store: a :class:`~repro.ai4db.optimization.feedback.
                QueryFeedbackStore` whose remembered (sub-query → actual
                cardinality) pairs extend the training set. Out-of-vocab
                observations (tables the featurizer never saw) are
                skipped.

        Returns:
            the number of feedback pairs actually used.
        """
        fb_queries, fb_cards = store.pairs()
        used_q, used_c = [], []
        for q, card in zip(fb_queries, fb_cards):
            try:
                self.featurizer.featurize(q)
            except ModelError:
                continue
            used_q.append(q)
            used_c.append(card)
        if not used_q and not self._base_queries:
            raise NotFittedError(
                "refit_from_feedback needs a base fit or usable feedback"
            )
        self._fit(self._base_queries + used_q, self._base_cards + used_c)
        return len(used_q)

    def predict(self, queries):
        """Estimated cardinalities for a list of queries."""
        if not self._fitted:
            raise NotFittedError("LearnedCardinalityEstimator used before fit")
        X = np.stack([self.featurizer.featurize(q) for q in queries])
        return np.maximum(np.expm1(self.model.predict(X)), 0.0)

    # -- CardinalityEstimator contract ---------------------------------
    def _induced_subquery(self, query, tables):
        # Shared with the feedback store so sub-query signatures agree.
        return induced_subquery(query, tables)

    def estimate_table(self, query, table):
        return self.estimate_subset(query, [table])

    def estimate_subset(self, query, tables):
        sub = self._induced_subquery(query, tables)
        return float(self.predict([sub])[0])


def generate_training_queries(catalog, table, columns, n_queries=600,
                              n_values=100, seed=0, joins=None,
                              max_predicates=3, min_card=1,
                              max_attempts_factor=20):
    """Random selection (and optional join) queries with true cardinalities.

    Queries with true cardinality below ``min_card`` are resampled (the
    MSCN convention — empty-result queries make q-error degenerate on both
    sides and are excluded from the standard benchmarks).

    Args:
        catalog: catalog holding the data.
        table: the primary table to filter.
        columns: filterable numeric column names on ``table``.
        n_queries: how many queries to produce.
        n_values: value-domain upper bound for constants.
        joins: optional list of ``(JoinEdge, other_table)`` to sample from.
        max_predicates: predicates per query upper bound.
        min_card: smallest admissible true cardinality.
        max_attempts_factor: resampling budget multiplier.

    Returns:
        ``(queries, true_cards)`` with truths from exact execution.
    """
    rng = ensure_rng(seed)
    queries = []
    cards = []
    ops = ["=", "<", ">", "<=", ">="]
    attempts = 0
    max_attempts = n_queries * max_attempts_factor
    while len(queries) < n_queries and attempts < max_attempts:
        attempts += 1
        n_preds = int(rng.integers(1, max_predicates + 1))
        cols = rng.choice(columns, size=min(n_preds, len(columns)), replace=False)
        predicates = [
            Predicate(table, c, ops[int(rng.integers(0, len(ops)))],
                      int(rng.integers(0, n_values)))
            for c in cols
        ]
        tables = [table]
        edges = []
        if joins and rng.random() < 0.5:
            edge, other = joins[int(rng.integers(0, len(joins)))]
            tables.append(other)
            edges.append(edge)
        q = ConjunctiveQuery(tables=tables, join_edges=edges, predicates=predicates)
        card = count_join_rows(catalog, q, q.tables)
        if card < min_card:
            continue
        queries.append(q)
        cards.append(card)
    return queries, cards
