"""Import-layering guards.

The dependency direction is one-way: ``repro.ai4db``, ``repro.db4ai``
and the simulators in ``repro.sim`` build *on* the engine, never the
other way around. In particular the
physical-operator layer (``repro.engine.operators``) must stay free of
AI-layer imports, or the differential fuzzer's oracle would depend on the
models it is supposed to referee. Enforced two ways: a static AST scan of
every engine module's import statements, and a runtime check that
importing the engine pulls in no AI-layer module.

The same file guards the executor's shape: one evaluation method per
operator, no knob or keyword that selects a second evaluator, the
reference executor stays under ``tests/``, and every plan-node type the
operator layer registers is one the planner (or the fusion pass) emits.
And the engine's edge: the simulator files live in ``repro.sim``, the
session backends are exactly ``read``/``write``, and the server's commit
path has one body.
"""

import ast
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import repro.engine
import repro.sim
from repro.engine.operators.base import _REGISTRY

ENGINE_ROOT = os.path.dirname(repro.engine.__file__)
FORBIDDEN_PREFIXES = ("repro.ai4db", "repro.db4ai", "repro.sim")


def _engine_modules():
    for dirpath, dirnames, filenames in os.walk(ENGINE_ROOT):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _imported_modules(path):
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, node.lineno


def test_engine_never_imports_ai_layers_statically():
    violations = []
    for path in _engine_modules():
        for module, lineno in _imported_modules(path):
            if module.startswith(FORBIDDEN_PREFIXES):
                violations.append("%s:%d imports %s" % (path, lineno, module))
    assert not violations, "\n".join(violations)


def test_session_layer_never_imports_the_parser():
    """The SQL front end has one owner, the pipeline: the session layer
    classifies what ``QueryPipeline.front_end`` parsed."""
    session_root = os.path.join(ENGINE_ROOT, "session") + os.sep
    scanned = [p for p in _engine_modules() if p.startswith(session_root)]
    assert scanned
    violations = [
        "%s:%d imports %s" % (path, lineno, module)
        for path in scanned
        for module, lineno in _imported_modules(path)
        if module.startswith("repro.engine.sql.parser")
    ]
    assert not violations, "\n".join(violations)


def test_operators_package_exists_and_is_scanned():
    # Guard the guard: the scan must actually cover the operators package.
    paths = list(_engine_modules())
    assert any(os.sep + "operators" + os.sep in p for p in paths), paths


def test_importing_operators_loads_no_ai_modules():
    """Runtime check in a fresh interpreter: importing the engine (and
    the operators package explicitly) must not load ai4db/db4ai/sim, nor
    any feedback module — cardinality feedback is installed from
    ``repro.ai4db``."""
    code = (
        "import sys\n"
        "import repro.engine\n"
        "import repro.engine.operators\n"
        "bad = [m for m in sys.modules if m.startswith(%r)]\n"
        "assert not bad, bad\n"
        "assert not [m for m in sys.modules if 'feedback' in m]\n"
        % (FORBIDDEN_PREFIXES,)
    )
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(ENGINE_ROOT, "..", ".."))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_the_simulators_live_outside_the_engine():
    """``engine/`` holds only the engine: the simulator files are gone
    from it, ``telemetry.py`` defines the span tree, its one aggregate
    and their two helpers — not the per-layer records it replaced — and
    no ``repro.sim`` name is re-exported."""
    for rel in ("txn.py", "knobs.py", "datagen.py",
                os.path.join("server", "driver.py")):
        assert not os.path.exists(os.path.join(ENGINE_ROOT, rel)), rel
    telemetry = Path(ENGINE_ROOT, "telemetry.py").read_text(encoding="utf-8")
    defined = {
        node.name for node in ast.parse(telemetry).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined == {
        "q_error", "percentile", "Span", "StatementTrace",
        "_RollupBucket", "ServingRollup",
    }
    for package in (repro.engine, repro.engine.server):
        assert not set(repro.sim.__all__) & set(dir(package)), package


def test_one_trace_per_statement_and_nothing_beside_it():
    """The statement's record is the trace it was handed: the executor's
    per-run state is an object, not a thread-local; nothing staples a
    telemetry record or an admission ticket onto a result after it was
    built; and the names of the records the trace replaced appear
    nowhere under ``engine/``."""
    executor = Path(ENGINE_ROOT, "executor.py").read_text(encoding="utf-8")
    assert "threading" not in executor
    stapled = re.compile(
        r"(?<!self)\.(pipeline_telemetry|admission)\s*=[^=]")
    gone = re.compile(
        r"ExecutionTelemetry|PipelineTelemetry|pretty_analyze"
        r"|threading\.local")
    for path in _engine_modules():
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            assert not stapled.search(line), (path, lineno, line)
            assert not gone.search(line), (path, lineno, line)


def test_backends_are_exactly_read_and_write():
    """The backend protocol is two operations: ``read(prepared)`` and
    ``write(info)`` — the classified statement, not its text, so a
    write is never parsed a second time."""
    from repro.engine.session import (
        LocalBackend, ServerBackend, SnapshotBackend,
    )

    for backend in (LocalBackend, SnapshotBackend, ServerBackend):
        public = {n for n in dir(backend) if not n.startswith("_")}
        assert public == {"read", "write"}, (backend.__name__, public)
        for name, arg in (("read", "prepared"), ("write", "info")):
            params = inspect.signature(getattr(backend, name)).parameters
            assert list(params) == ["self", arg], (backend.__name__, name)


def test_the_commit_path_has_one_body():
    """SQL writes and ``Session.insert_rows`` hand their write (and the
    statement's trace) to the same admit → lock → apply → log → settle
    sequence; nothing in it asks which kind of write it was given."""
    run_write = repro.engine.QueryServer._run_write
    assert list(inspect.signature(run_write).parameters) == [
        "self", "session", "apply", "trace"]
    body = inspect.getsource(run_write).split('"""')[2]  # past the docstring
    assert body.count("apply()") == 1
    assert not re.search("sql_text|run_sql|insert_rows|is not None", body)


def test_operators_have_one_evaluation_method():
    """Every operator evaluates through ``evaluate`` and nothing else —
    no second backend hides behind the registry or in the sources."""
    assert _REGISTRY
    for op in set(_REGISTRY.values()):
        public = {
            name for name, __ in inspect.getmembers(op, inspect.ismethod)
            if not name.startswith("_")
        }
        assert public == {"evaluate"}, (type(op).__name__, public)
    ops_root = os.path.join(ENGINE_ROOT, "operators") + os.sep
    for path in _engine_modules():
        if path.startswith(ops_root):
            assert "def row(" not in Path(path).read_text(encoding="utf-8")


def test_nothing_selects_a_second_evaluator():
    """One executor cell: no config field, constructor keyword or
    environment variable names an executor mode or a fusion switch."""
    import dataclasses

    fields = {f.name for f in dataclasses.fields(repro.engine.EngineConfig)}
    assert not fields & {"executor_mode", "fusion_enabled"}
    params = set(inspect.signature(repro.engine.Executor.__init__).parameters)
    assert params == {"self", "catalog", "cost_model"}
    hits = [
        path for path in _engine_modules()
        if re.search("REPRO_EXECUTOR_MODE|REPRO_FUSION|EXECUTOR_MODES",
                     Path(path).read_text(encoding="utf-8"))
    ]
    assert not hits, hits


def test_removed_options_stay_removed():
    """One admission discipline, pruning that is not a switch, a regret
    cap that is a constant: no engine module names the options that
    used to select otherwise."""
    pattern = re.compile(r"fifo|ADMISSION_POLICIES|pruning_enabled|"
                         r"zone_map_discount|REPRO_REGRET_CAP")
    hits = [
        "%s: %s" % (os.path.relpath(path, ENGINE_ROOT), match.group(0))
        for path in _engine_modules()
        for match in pattern.finditer(Path(path).read_text(encoding="utf-8"))
    ]
    assert not hits, hits


def test_ai4db_owns_the_experiment_only_modules():
    """The rule library (E4) and the sampling and exact-count estimators
    (E6, E8) live in ``repro.ai4db`` and install from outside; no engine
    module defines, names or imports them, and the pipeline keeps no
    stage hook, rewrite stage or statement-hook pair to install them
    through."""
    from repro.ai4db.config import rules
    from repro.ai4db.optimization import estimators

    assert Path(rules.__file__).parent.name == "config"
    assert Path(estimators.__file__).parent.name == "optimization"
    assert rules.__name__.startswith("repro.ai4db.")
    assert estimators.__name__.startswith("repro.ai4db.")
    assert not os.path.exists(os.path.join(ENGINE_ROOT, "optimizer",
                                           "rules.py"))
    for cls in (estimators.SamplingEstimator,
                estimators.TrueCardinalityEstimator, rules.RewriteRule):
        assert cls.__module__ in (rules.__name__, estimators.__name__)
    gone = re.compile(
        r"SamplingEstimator|TrueCardinalityEstimator|RewriteRule"
        r"|apply_rules_fixed_order|optimizer\.rules|add_stage_hook"
        r"|stage_hooks|_apply_hooks|statement_hooks|statement_inspectors"
        r"|run_sql|_EXTENSION_KINDS|\.rewriter\b|_rewriter\b")
    hits = [
        "%s: %s" % (os.path.relpath(path, ENGINE_ROOT), match.group(0))
        for path in _engine_modules()
        for match in gone.finditer(Path(path).read_text(encoding="utf-8"))
    ]
    assert not hits, hits


def test_the_engine_keeps_one_join_enumerator():
    """The engine plans with Selinger DP; the UES, greedy and random
    orderers live in ``repro.ai4db.optimization`` and reach the planner
    only as an explicit ``order=``. No engine module defines, names or
    imports them, and ``repro.engine.optimizer.ues`` does not import."""
    import importlib

    from repro.ai4db.optimization import estimators, join_order, ues

    assert not os.path.exists(os.path.join(ENGINE_ROOT, "optimizer",
                                           "ues.py"))
    try:
        importlib.import_module("repro.engine.optimizer.ues")
    except ModuleNotFoundError:
        pass
    else:
        raise AssertionError("repro.engine.optimizer.ues imports")
    assert ues.ues_order.__module__ == ues.__name__
    assert estimators.UpperBoundEstimator.__module__ == estimators.__name__
    for fn in (join_order.greedy_order, join_order.random_order):
        assert fn.__module__ == join_order.__name__
    gone = re.compile(
        r"ues_order|ues_bounds|UpperBoundEstimator|greedy_order"
        r"|random_order|ENUMERATORS|left_deep_order|optimizer\.ues"
        r"|\benumerator\b|use_indexes")
    hits = [
        "%s: %s" % (os.path.relpath(path, ENGINE_ROOT), match.group(0))
        for path in _engine_modules()
        for match in gone.finditer(Path(path).read_text(encoding="utf-8"))
    ]
    assert not hits, hits


def test_the_engine_neither_prices_orders_nor_counts_joins():
    """The planner keeps its own objective and one DP entry point. The
    objective that prices whole orders for the orderer race (E7) and
    the exact counter behind the oracle estimator (E8) are defined in
    ``repro.ai4db.optimization``; ``join_enum.py`` defines ``dp_order``
    alone, and no engine module defines, names or exports them — nor
    the predicate-stripping view, ``true_cardinality`` or the page
    model nothing read."""
    from repro.ai4db.optimization import estimators, join_order
    from repro.engine.optimizer import join_enum

    for fn in (join_order.order_cost, join_order.dp_left_deep):
        assert fn.__module__ == join_order.__name__
    assert estimators.count_join_rows.__module__ == estimators.__name__
    tree = ast.parse(Path(join_enum.__file__).read_text(encoding="utf-8"))
    assert [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))] == [
        "dp_order"]
    names = ("order_cost", "dp_left_deep", "_NoPredicateView",
             "count_join_rows", "true_cardinality", "PAGE_BYTES",
             "n_pages", "column_pages")
    gone = re.compile(r"\b(%s)\b" % "|".join(names))
    hits = [
        "%s: %s" % (os.path.relpath(path, ENGINE_ROOT), match.group(0))
        for path in _engine_modules()
        for match in gone.finditer(Path(path).read_text(encoding="utf-8"))
    ]
    assert not hits, hits
    for package in (repro.engine, repro.engine.optimizer):
        assert not set(names) & set(dir(package)), package


def test_src_never_imports_from_tests():
    """The reference executor is the test suite's, not a shipped mode:
    nothing under ``src/`` may import it (or anything else in tests/)."""
    tests_root = Path(__file__).resolve().parent
    test_modules = {p.stem for p in tests_root.glob("*.py")} | {"tests"}
    src_root = Path(ENGINE_ROOT).parents[1]
    violations = [
        "%s:%d imports %s" % (path, lineno, module)
        for path in map(str, src_root.rglob("*.py"))
        for module, lineno in _imported_modules(path)
        if module.split(".")[0] in test_modules
    ]
    assert not violations, "\n".join(violations)


def test_every_registered_plan_node_is_one_the_engine_emits():
    """A plan-node type with an operator but no producer is dead weight
    the fuzzer never reaches (the standalone ``Filter`` was one): each
    registered type must be constructed in the optimizer or the fusion
    pass."""
    producers = [p for p in _engine_modules()
                 if os.sep + "optimizer" + os.sep in p
                 or p.endswith(os.sep + "fusion.py")]
    source = "\n".join(
        Path(p).read_text(encoding="utf-8") for p in producers)
    never_built = [
        node_type.__name__ for node_type in _REGISTRY
        if not re.search(r"\bP\.%s\(" % node_type.__name__, source)
    ]
    assert not never_built, never_built


def test_operator_layer_starts_no_threads():
    """Operators are single-threaded NumPy; concurrency is the server's
    (many statements, one thread each), never intra-query."""
    ops_root = os.path.join(ENGINE_ROOT, "operators") + os.sep
    scanned = [p for p in _engine_modules() if p.startswith(ops_root)]
    assert scanned
    violations = [
        "%s:%d imports %s" % (path, lineno, module)
        for path in scanned
        for module, lineno in _imported_modules(path)
        if module.split(".")[0] in ("threading", "concurrent")
    ]
    assert not violations, "\n".join(violations)


TABLE_READS = ("row_groups", "column_array", "sorted_column", "rows",
               "column_arrays", "row", "column_value_counts", "n_segments",
               "n_rows", "name")
CATALOG_READS = ("schema_epoch", "version", "version_vector", "table",
                 "has_table", "table_names", "indexes", "index_on", "views",
                 "matching_view")


def test_each_read_surface_is_written_once():
    """The live object and its snapshot share one definition per read:
    the same function (or property) object on both classes, so the two
    cannot drift apart."""
    from repro.engine import Catalog, CatalogSnapshot, Table, TableSnapshot

    for live, pinned, names in ((Table, TableSnapshot, TABLE_READS),
                                (Catalog, CatalogSnapshot, CATALOG_READS)):
        for name in names:
            assert getattr(live, name) is getattr(pinned, name), (
                live.__name__, name)


def test_an_index_is_metadata_and_the_write_hook_reads_no_rows():
    """The engine holds no index structure: nothing under ``engine/``
    names ``BPlusTree``/``HashIndex``, ``IndexDef`` carries no
    ``structure``, and the catalog's write hook only bumps the versions,
    drops views and compares the row-count bands of the counts it is
    handed — "index matches its rows" follows from the sort living on
    the table snapshot, not from rebuilding on write."""
    from repro.engine import Catalog, IndexDef

    hits = [
        path for path in _engine_modules()
        if re.search(r"BPlusTree|HashIndex|\.structure\b",
                     Path(path).read_text(encoding="utf-8"))
    ]
    assert not hits, hits
    assert not os.path.exists(os.path.join(ENGINE_ROOT, "indexes.py"))
    idx = IndexDef("i", "t", "c")
    assert sorted(vars(idx)) == ["column", "hypothetical", "kind", "name",
                                 "table"]

    hook = ast.parse(textwrap.dedent(
        inspect.getsource(Catalog._on_table_write)))
    called = {
        ast.unparse(node.func) for node in ast.walk(hook)
        if isinstance(node, ast.Call)
    }
    assert called == {"self._bump_table", "self._drop_views_over",
                      "table.name.lower", "before.bit_length",
                      "after.bit_length"}, called
    drop = inspect.getsource(Catalog._drop_views_over)
    assert "table(" not in drop and "rows" not in drop


def test_no_restore_point_anywhere_under_src():
    """A restore point *is* a snapshot — no second captured state."""
    src_root = Path(ENGINE_ROOT).parents[1]
    hits = [
        str(path) for path in src_root.rglob("*.py")
        if re.search("RestorePoint|restore_point",
                     path.read_text(encoding="utf-8"))
    ]
    assert not hits, hits


def test_the_tail_has_one_representation():
    """Typed NumPy buffers, however the tail came to be — there is no
    Python-list tail to convert to or from, and nothing selects one."""
    import numpy as np

    from repro.engine import Table, storage
    from repro.engine.segments import ZoneMap
    from repro.engine.types import ColumnSchema, TableSchema

    schema = TableSchema("t", [ColumnSchema("a", "INT"),
                               ColumnSchema("c", "TEXT")])

    def typed(table):
        return [(type(buf), buf.dtype) for buf in table._tail.values()] == [
            (np.ndarray, np.dtype(np.int64)), (np.ndarray, np.dtype(object))]

    table = Table(schema, segment_rows=4)
    assert typed(table)
    table.insert_rows([(1, "x"), (2, None)])
    snap = table.snapshot()
    assert typed(table)
    table.insert_rows([(i, "y") for i in range(7)])  # seals twice
    assert typed(table) and table._tail_rows == 1
    table.replace_column("a", list(range(9)))
    assert typed(table)
    table.restore(snap)
    assert typed(table) and table.rows() == [(1, "x"), (2, None)]
    built = Table(schema, columns={"a": [1, 2, 3, 4, 5], "c": list("vwxyz")},
                  segment_rows=4)
    assert typed(built) and built._tail_rows == 1

    source = Path(storage.__file__).read_text(encoding="utf-8")
    assert not re.search(r"_tail.*tolist|tolist.*_tail", source)
    assert not hasattr(ZoneMap, "distinct_est")
