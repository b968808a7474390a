"""Event-driven simulation substrate.

The paper's results come from mean-value analysis (``repro.core``).  This
subpackage adds a discrete-event simulator for the things MVA cannot
express — sampled (not expected) query outcomes, churn and cluster
availability, and the Section 5.3 adaptive local rules — and doubles as
an independent check of the analytical engine: on the same instance, the
simulator's long-run average loads must converge to the MVA's
expectations.

``simpy`` is not available in this environment, so ``engine`` implements
the event scheduler from scratch (binary heap, cancellable events).
"""
