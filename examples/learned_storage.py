"""Learned database design: indexes, KV design continuum, transactions.

The tutorial's "learning-based database design" category in one script:

1. **learned indexes** (RMI / PGM / ALEX-lite) vs. B+Tree on size and
   probe cost, including inserts into ALEX-lite,
2. the **design continuum** search finding a KV design per workload,
3. **learned transaction scheduling** cutting contention on a hotspot
   OLTP batch.

Run:  python examples/learned_storage.py
"""

import numpy as np

from repro.ai4db.design.btree import BPlusTree
from repro.ai4db.design.learned_index import (
    ALEXLiteIndex,
    BinarySearchIndex,
    PGMIndex,
    RMIIndex,
    evaluate_index,
)
from repro.ai4db.design.learned_kv import (
    DesignContinuumSearch,
    KVCostModel,
    KVWorkload,
    classic_designs,
)
from repro.ai4db.design.txn_mgmt import ConflictClassifier, evaluate_schedulers
from repro.sim.txn import hotspot_workload


def main():
    rng = np.random.default_rng(0)

    print("== 1. Learned indexes on 200k lognormal keys ==")
    keys = np.unique(rng.lognormal(10, 1.5, 200000))
    probe = keys[rng.choice(len(keys), 2000, replace=False)]
    gaps = keys[:-1] + np.diff(keys) / 2
    absent = gaps[rng.choice(len(gaps), 2000, replace=False)]
    btree = BPlusTree.bulk_load([(float(k), i) for i, k in enumerate(keys)])
    print("  %-14s %10s %12s" % ("index", "avg-cmps", "size-bytes"))
    for index in (BinarySearchIndex(keys),
                  RMIIndex(keys, n_models=1024),
                  PGMIndex(keys, epsilon=32),
                  ALEXLiteIndex(keys)):
        metrics = evaluate_index(index, probe, absent)
        print("  %-14s %10.1f %12d" %
              (index.name, metrics["mean_hit_comparisons"],
               metrics["size_bytes"]))
    print("  %-14s %10.1f %12d  (height %d)" %
          ("b+tree", btree.height * np.ceil(np.log2(btree.order)),
           btree.size_bytes(), btree.height))

    print("\n  Inserting 5k new keys into ALEX-lite (updatable)...")
    alex = ALEXLiteIndex(keys[:100000])
    new_keys = rng.lognormal(10, 1.5, 5000)
    for k in new_keys:
        alex.insert(float(k))
    found, __ = alex.lookup(float(new_keys[42]))
    print("  inserted key found:", found is not None,
          "| size now %d entries" % len(alex))

    print("\n== 2. KV design continuum (data-structure alchemy) ==")
    cost_model = KVCostModel()
    search = DesignContinuumSearch(cost_model)
    for workload in (KVWorkload("read-heavy", 0.85, 0.10, 0.05),
                     KVWorkload("write-heavy", 0.15, 0.80, 0.05)):
        design, cost, trajectory = search.search(workload)
        best_fixed = min(
            (cost_model.total_cost(d, workload), name)
            for name, d in classic_designs().items()
        )
        print("  %-12s searched cost %.2f (best fixed: %s at %.2f) in %d "
              "moves" % (workload.name, cost, best_fixed[1], best_fixed[0],
                         len(trajectory)))
        print("    -> %r" % design)

    print("\n== 3. Learned transaction scheduling ==")
    train = hotspot_workload(n_txns=250, hot_fraction=0.7, seed=1)
    classifier = ConflictClassifier(seed=0).fit(train, n_pairs=1500, seed=2)
    txns = hotspot_workload(n_txns=250, hot_fraction=0.7, seed=0)
    results = evaluate_schedulers(txns, n_workers=4, classifier=classifier)
    print("  %-14s %12s %10s %8s" % ("scheduler", "makespan", "waits",
                                     "aborts"))
    for name in ("fifo", "cost-ordered", "learned"):
        r = results[name]
        print("  %-14s %12.1f %10.1f %8d" %
              (name, r.makespan, r.total_wait, r.aborts))


if __name__ == "__main__":
    main()
