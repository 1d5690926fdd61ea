"""Learned database security and monitoring in one incident-response loop.

Plays out a day in the life of a learned security/monitoring stack
(paper §2.1, categories 4–5):

1. the **SQL-injection detector** screens incoming statements,
2. **sensitive-data discovery** flags columns needing masking,
3. the **access controller** adjudicates requests against those columns,
4. the **bandit activity monitor** spends its audit budget on risky
   activity types,
5. the **root-cause diagnoser** explains a slow-query incident.

Run:  python examples/security_monitoring.py
"""

import numpy as np

from repro.ai4db.monitoring.activity_monitor import (
    BanditAuditPolicy,
    RandomAuditPolicy,
    run_audit_simulation,
)
from repro.ai4db.monitoring.root_cause import ClusterDiagnoser, RuleBasedDiagnoser
from repro.ai4db.security.access_control import (
    AccessRequestGenerator,
    LearnedAccessController,
    StaticACLBaseline,
    false_permit_rate,
)
from repro.ai4db.security.discovery import (
    LearnedSensitiveDiscovery,
    RegexRuleDiscovery,
    SensitiveColumnGenerator,
    discovery_f1,
)
from repro.ai4db.security.sql_injection import (
    InjectionCorpusGenerator,
    LearnedInjectionDetector,
    SignatureRuleDetector,
    evaluate_detector,
)
from repro.ml import accuracy
from repro.sim.traces import ACTIVITY_TYPES, kpi_episodes


def main():
    print("== 1. SQL-injection screening ==")
    gen = InjectionCorpusGenerator(seed=0)
    train_x, train_y, __ = gen.generate(500, 250)
    test_x, test_y, test_f = gen.generate(300, 150)
    rules = SignatureRuleDetector()
    learned = LearnedInjectionDetector("tree", seed=0).fit(train_x, train_y)
    for det in (rules, learned):
        r = evaluate_detector(det, test_x, test_y, test_f)
        obf = [v for k, v in r["family_recall"].items() if k.endswith("+obf")]
        print("  %-16s recall=%.2f obfuscated-recall=%.2f precision=%.2f" %
              (det.name, r["recall"], float(np.mean(obf)), r["precision"]))
    example_attack = "SELECT * FROM users WHERE id = 7 /**/ oR 2>1"
    print("  obfuscated sample -> rules: %s, learned: %s" % (
        "FLAGGED" if rules.predict([example_attack])[0] else "missed",
        "FLAGGED" if learned.predict([example_attack])[0] else "missed",
    ))

    print("\n== 2. Sensitive-data discovery ==")
    sgen = SensitiveColumnGenerator(seed=1)
    names_tr, vals_tr, labels_tr, __ = sgen.generate(150)
    names_te, vals_te, labels_te, kinds_te = sgen.generate(80)
    for method in (RegexRuleDiscovery(),
                   LearnedSensitiveDiscovery(seed=0).fit(names_tr, vals_tr,
                                                         labels_tr)):
        p, r, f1 = discovery_f1(method, names_te, vals_te, labels_te)
        print("  %-12s precision=%.2f recall=%.2f f1=%.2f" %
              (method.name, p, r, f1))

    print("\n== 3. Purpose-based access control ==")
    agen = AccessRequestGenerator(seed=2)
    req_tr, y_tr = agen.generate(1500)
    req_te, y_te = agen.generate(500)
    for method in (StaticACLBaseline(), LearnedAccessController(seed=0)):
        method.fit(req_tr, y_tr)
        preds = method.predict(req_te)
        print("  %-12s accuracy=%.3f false-permits=%.3f" %
              (method.name, accuracy(y_te, preds),
               false_permit_rate(y_te, preds)))

    print("\n== 4. Bandit-driven activity auditing ==")
    means = np.array([m for __, m in ACTIVITY_TYPES])
    for policy in (RandomAuditPolicy(seed=0),
                   BanditAuditPolicy("thompson", seed=0)):
        r = run_audit_simulation(policy, means, n_steps=1500, seed=3)
        print("  %-16s risk captured=%.0f (regret %.0f)" %
              (policy.name, r["captured"], r["regret"]))

    print("\n== 5. Root-cause diagnosis of a slow-query incident ==")
    X, labels = kpi_episodes(n_episodes=240, seed=4)
    diagnoser = ClusterDiagnoser(seed=0).fit(X[:180], lambda i: labels[i])
    rules_diag = RuleBasedDiagnoser()
    y_true = np.array(labels[180:], dtype=object)
    print("  kpi-rules accuracy: %.3f" % accuracy(
        y_true, np.array(rules_diag.diagnose_batch(X[180:]), dtype=object)))
    print("  cluster+label accuracy: %.3f (%d DBA labels)" % (
        accuracy(y_true,
                 np.array(diagnoser.diagnose_batch(X[180:]), dtype=object)),
        diagnoser.labels_used_))


if __name__ == "__main__":
    main()
