"""The paper's primary contribution, formalised.

* :mod:`repro.core.safety` — the safety levels and their two-axis
  classification (Table 1).
* :mod:`repro.core.criteria` — the criterion statements and the mapping from
  replication techniques to levels.
* :mod:`repro.core.matrix` — derivations of Tables 1, 2 and 3.
* :mod:`repro.core.durability` / :mod:`repro.core.audit` — the execution
  audit: does a run actually provide the guarantee its technique claims?
* :mod:`repro.core.reliability` — the Sect. 7 scaling analysis (lazy vs
  group-safe ACID-violation probability as the group grows).
* :mod:`repro.core.layers` — the protocol-stack layer contracts
  (``@implements`` / ``@uses``) the ``layer-contract`` lint rule enforces.
"""

from .audit import (AuditReport, SafetyAudit, classify_result,
                    classify_results, weakest_guarantee)
from .layers import (LAYER_ORDER, implemented_layers, implements, layer_index,
                     used_layers, uses)
from .criteria import (CRITERIA, TECHNIQUE_SAFETY, SafetyCriterion,
                       criterion_for, safety_of_technique)
from .durability import TransactionFate, committed_state_of, transaction_fate
from .matrix import (CrashToleranceRow, LossCondition, crash_tolerance_table,
                     group_safety_comparison_table, loss_condition,
                     partitioned_loss_condition, render_loss_table,
                     render_safety_matrix, safety_matrix)
from .reliability import (ScalingPoint, acid_violation_probability,
                          group_failure_probability,
                          lazy_conflict_probability,
                          pairwise_conflict_probability, scaling_comparison)
from .safety import (DeliveredOn, LoggedOn, SafetyLevel, classify,
                     classify_notification)

__all__ = [
    "SafetyLevel",
    "DeliveredOn",
    "LoggedOn",
    "classify",
    "classify_notification",
    "SafetyCriterion",
    "CRITERIA",
    "TECHNIQUE_SAFETY",
    "criterion_for",
    "safety_of_technique",
    "safety_matrix",
    "render_safety_matrix",
    "crash_tolerance_table",
    "CrashToleranceRow",
    "loss_condition",
    "partitioned_loss_condition",
    "group_safety_comparison_table",
    "LossCondition",
    "render_loss_table",
    "SafetyAudit",
    "AuditReport",
    "classify_result",
    "classify_results",
    "weakest_guarantee",
    "TransactionFate",
    "transaction_fate",
    "committed_state_of",
    "group_failure_probability",
    "lazy_conflict_probability",
    "pairwise_conflict_probability",
    "acid_violation_probability",
    "scaling_comparison",
    "ScalingPoint",
    "LAYER_ORDER",
    "layer_index",
    "implements",
    "uses",
    "implemented_layers",
    "used_layers",
]
