"""Shared fixtures for the test suite."""

import faulthandler
import os

import numpy as np
import pytest

from repro.engine import Database
from repro.engine.catalog import Catalog
from repro.sim import datagen

#: Per-test watchdog in seconds (0 disables). ``make test-concurrency``
#: sets it so a deadlocked thread test dumps every stack and dies instead
#: of hanging CI; implemented with the stdlib faulthandler (no plugin).
_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "0") or 0.0)

if _TEST_TIMEOUT > 0:

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        faulthandler.dump_traceback_later(_TEST_TIMEOUT, exit=True)
        try:
            yield
        finally:
            faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    """A fixed-seed generator for test-local randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def star_db():
    """A small star-schema database (analyzed) shared by planner tests."""
    db = Database()
    datagen.make_star_schema(
        db.catalog, n_customers=300, n_products=60, n_dates=60,
        n_sales=3000, seed=0,
    )
    return db


@pytest.fixture
def star_workload():
    """A small analytical workload over the star schema."""
    return datagen.star_workload(n_queries=12, seed=1)


@pytest.fixture
def correlated_catalog():
    """Catalog with the correlated 'facts' table for estimator tests."""
    catalog = Catalog()
    datagen.make_correlated_table(
        catalog, "facts", n_rows=3000, n_values=40, correlation=0.9, seed=0
    )
    return catalog


@pytest.fixture
def chain_catalog():
    """Catalog with a 4-table chain join graph."""
    catalog = Catalog()
    names, edges = datagen.make_join_graph_schema(
        catalog, "chain", n_tables=4, rows_per_table=400, seed=0
    )
    return catalog, names, edges


@pytest.fixture
def tiny_db():
    """A hand-populated two-table database with known contents."""
    db = Database()
    db.execute("CREATE TABLE users (id INT, name TEXT, age INT)")
    db.execute(
        "INSERT INTO users VALUES "
        "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 41), "
        "(4, 'dave', 25), (5, 'erin', 35)"
    )
    db.execute("CREATE TABLE orders (oid INT, user_id INT, amount FLOAT)")
    db.execute(
        "INSERT INTO orders VALUES "
        "(10, 1, 9.5), (11, 1, 20.0), (12, 2, 5.25), (13, 3, 7.75), "
        "(14, 9, 1.0)"
    )
    db.execute("ANALYZE")
    return db
