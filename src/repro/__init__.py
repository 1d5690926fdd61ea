"""repro: AI4DB + DB4AI — learned database components and in-database ML.

A laptop-scale, NumPy-only reproduction of the technique taxonomy surveyed
in *AI Meets Database: AI4DB and DB4AI* (Li, Zhou, Cao — SIGMOD 2021).

Subpackages
-----------
``repro.ml``
    Machine-learning substrate (linear/tree/MLP/GP models, RL agents, MCTS,
    bandits, graph networks) — no external ML frameworks.
``repro.engine``
    In-memory relational database substrate: SQL parser, catalog with
    statistics, cost-based optimizer, executor, indexes, sessions, the
    query server.
``repro.sim``
    Simulators standing in for production substrates: data/workload
    generators, knob simulator, transaction simulator, trace generators,
    traffic driver. Imports the engine; never imported by it.
``repro.ai4db``
    AI-for-DB components: learned configuration (knobs/indexes/views/
    rewriting/partitioning), learned optimization (cardinality, cost, join
    order, end-to-end), learned design (learned indexes, KV design,
    transaction scheduling), learned monitoring, learned security.
``repro.db4ai``
    DB-for-AI components: declarative AISQL, data governance (discovery,
    cleaning, labeling, lineage), training optimization, in-database
    inference optimization.
``repro.harness``
    Experiment runner shared by the benchmark suite and EXPERIMENTS.md.
"""

__version__ = "1.0.0"
