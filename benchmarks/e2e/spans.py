"""Per-layer spans recorded from outside the engine.

:class:`Tracer` wraps the public callables listed in :data:`TARGETS` —
by replacing the attribute on its class or module while installed — and
records one span per call: ``(name, start, end, parent, statement,
client)``. Nothing inside ``src/`` knows it is being traced; spans
inside the program are a later change (ROADMAP, "one trace per
statement"). Spans stay in memory until :meth:`Tracer.write_jsonl`.

A span's *self time* is its duration minus the part its direct child
spans cover, so the self times of one statement's spans sum to the root
span's duration — the "parts sum to the whole" check.

Robustness: later non-benchmark PRs may not edit these files, so a
target whose attribute no longer exists is skipped with one warning
line; a layer left with no wrapped target reads ``None`` in every metric
that needs it, and the rest of the run is unaffected.
"""

import importlib
import json
import sys
import threading
import time

#: ``(span name, module, class or None, attribute)``. A ``None`` class
#: means a module global (a function another module imported by name).
TARGETS = (
    ("server.execute", "repro.engine.server.server", "Session", "execute"),
    ("server.insert_rows", "repro.engine.server.server", "Session",
     "insert_rows"),
    ("server.pin_snapshot", "repro.engine.server.server", "QueryServer",
     "pin_snapshot"),
    ("session.execute", "repro.engine.session.context", "SessionContext",
     "execute"),
    ("admission.admit", "repro.engine.server.admission",
     "AdmissionController", "admit"),
    ("admission.settle", "repro.engine.server.admission",
     "AdmissionController", "settle"),
    ("pipeline.prepare", "repro.engine.pipeline", "QueryPipeline",
     "prepare_sql"),
    ("pipeline.execute_prepared", "repro.engine.pipeline", "QueryPipeline",
     "execute_prepared"),
    ("sql.parse", "repro.engine.pipeline", None, "parse_sql"),
    ("sql.parse", "repro.engine.session.context", None, "parse_sql"),
    ("sql.lower", "repro.engine.pipeline", None, "lower_select"),
    ("optimizer.plan", "repro.engine.optimizer.planner", "Planner", "plan"),
    ("optimizer.plan", "repro.engine.optimizer.planner", "Planner",
     "plan_candidates"),
    ("executor.execute", "repro.engine.executor", "Executor", "execute"),
    ("catalog.snapshot", "repro.engine.catalog", "Catalog", "snapshot"),
    ("catalog.analyze", "repro.engine.catalog", "Catalog", "analyze"),
    ("storage.insert_rows", "repro.engine.storage", "Table", "insert_rows"),
    ("storage.row_groups", "repro.engine.storage", "Table", "row_groups"),
    ("segments.decode", "repro.engine.segments", "ColumnSegment", "decode"),
    ("segments.encode", "repro.engine.segments", "ColumnSegment", "encode"),
)

# Span record layout (a list, mutated in place while the span is open).
NAME, START, END, PARENT, STMT, CLIENT, CHILD = range(7)


class _ThreadState:
    __slots__ = ("spans", "stack", "stmt", "client")

    def __init__(self, client):
        self.spans = []
        self.stack = []
        self.stmt = -1
        self.client = client


class Tracer:
    """Installs the wrappers, owns the spans."""

    def __init__(self, warn=None):
        #: Span names none of whose targets could be wrapped.
        self.missing = set()
        self._warn = warn or (lambda msg: print(msg, file=sys.stderr))
        self._installed = []
        self._states = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- per-thread bookkeeping ----------------------------------------
    def _state(self):
        state = getattr(self._tls, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._tls.state = state
        return state

    def begin_statement(self, stmt, client):
        """Tag the calling thread's next spans with a statement id."""
        state = self._state()
        state.stmt = stmt
        state.client = client

    # -- install / uninstall -------------------------------------------
    def _wrap(self, name, fn):
        get_state = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = get_state()
            spans, stack = state.spans, state.stack
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, state.stmt, state.client, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = t1 = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += t1 - t0

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target that still exists; returns ``self``."""
        wrapped_names = set()
        for name, module_name, class_name, attr in TARGETS:
            where = "%s.%s" % (module_name, attr if class_name is None
                               else "%s.%s" % (class_name, attr))
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                raw = owner.__dict__[attr] if class_name else getattr(
                    owner, attr)
            except (ImportError, AttributeError, KeyError):
                self._warn("trace: %s no longer exists; not wrapped as %r"
                           % (where, name))
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))
            wrapped_names.add(name)
        self.missing = {t[0] for t in TARGETS} - wrapped_names
        return self

    def uninstall(self):
        """Put every original attribute back."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    # -- reading the spans ---------------------------------------------
    def threads(self):
        """Each recording thread's span list (parents index into it)."""
        return [state.spans for state in self._states]

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds.

        Returns ``(by_name, n_roots, root_seconds, root_self_seconds)``.
        Inclusive time skips spans nested in a same-named span, so
        recursion is not counted twice.
        """
        by_name = {}
        n_roots = 0
        root_seconds = root_self = 0.0
        for spans in self.threads():
            for span in spans:
                duration = span[END] - span[START]
                entry = by_name.setdefault(span[NAME], [0, 0.0, 0.0])
                entry[0] += 1
                entry[2] += duration - span[CHILD]
                parent = span[PARENT]
                while parent >= 0 and spans[parent][NAME] != span[NAME]:
                    parent = spans[parent][PARENT]
                if parent < 0:
                    entry[1] += duration
                if span[PARENT] < 0:
                    n_roots += 1
                    root_seconds += duration
                    root_self += duration - span[CHILD]
        return by_name, n_roots, root_seconds, root_self

    def write_jsonl(self, path):
        """One JSON object per span: name, start, end, parent, stmt,
        client, self (seconds; ``parent`` indexes the same client's
        spans in file order, -1 for a statement's root)."""
        with open(path, "w") as out:
            for spans in self.threads():
                for span in spans:
                    out.write(json.dumps({
                        "name": span[NAME], "start": span[START],
                        "end": span[END], "parent": span[PARENT],
                        "stmt": span[STMT], "client": span[CLIENT],
                        "self": span[END] - span[START] - span[CHILD],
                    }) + "\n")


def check_tree(spans):
    """Well-formedness of one thread's spans: every child lies inside
    its parent, and per statement the self times sum to the root's
    duration. Returns a list of problems (empty when sound)."""
    problems = []
    self_sum = {}
    root_of = {}
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            if not (parent < i and outer[START] <= span[START]
                    and span[END] <= outer[END]):
                problems.append("span %d (%s) escapes its parent" % (
                    i, span[NAME]))
            root_of[i] = root_of[parent]
        else:
            root_of[i] = i
        root = root_of[i]
        self_sum[root] = (self_sum.get(root, 0.0)
                          + span[END] - span[START] - span[CHILD])
    for root, total in self_sum.items():
        duration = spans[root][END] - spans[root][START]
        if abs(total - duration) > 1e-6 + 1e-6 * duration:
            problems.append("statement at span %d: self times sum to "
                            "%.9f, root lasts %.9f" % (root, total, duration))
    return problems
