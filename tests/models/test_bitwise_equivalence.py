"""Cross-port bitwise equivalence on the shipped deck.

These checks are rows of the differential harness (``test_equivalence.py``);
the ids stay as aliases of the harness checks that make them, and solve
nothing of their own.
"""

from tests.models import test_equivalence as harness
from tests.models.test_equivalence import MODELS, PLAIN, Row

SHIPPED = [Row("shipped", m, PLAIN) for m in MODELS]


def solutions(self):
    harness.check(*SHIPPED, only=[harness.test_solution_matches_the_reference])


def golden_traces(self):
    # The golden traces pin each port's reduction passes and launches.
    for model in MODELS:
        harness.test_golden_trace(model)


class TestBitwiseBenchmark:
    # Each id names the harness check that makes it on every row above.
    test_all_ports_bit_identical_u = solutions
    test_iteration_trajectories_identical = solutions
    test_summaries_bit_identical = solutions
    test_reduction_pass_structure_preserved = golden_traces
    test_launch_counts_stable_across_ports_of_one_family = golden_traces
