"""Bitwise equivalence of ``--fuse --residency --resilient --inject``.

These checks are rows of the differential harness (``test_equivalence.py``);
the ids stay as aliases of the harness checks that make them, and solve
nothing of their own.
"""

from tests.models import test_equivalence as harness
from tests.models.test_equivalence import MODELS, Row, flags

RESILIENT = [Row("jac_diag", m, flags("fuse+residency+resilient")) for m in MODELS]


def checked_by(test):
    return lambda self: harness.check(*RESILIENT, only=[test])


recovery = checked_by(harness.test_recovery_matches_the_reference)
solution = checked_by(harness.test_solution_matches_the_reference)


class TestResilientFusedEquivalence:
    # Each id names the harness check that makes it on every row above.
    test_every_model_recovers = recovery
    test_fusion_stays_on_where_supported = checked_by(
        harness.test_fallbacks_follow_the_support_table
    )
    test_u_bitwise_identical_to_unfused_resilient = solution
    test_iteration_trajectories_identical = solution
    test_summaries_bit_identical = solution
    test_recovery_event_counts_identical = recovery
