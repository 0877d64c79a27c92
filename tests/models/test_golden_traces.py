"""Golden-trace regression: every port's kernel schedule is frozen.

These checks are rows of the differential harness (``test_equivalence.py``);
the ids stay as aliases of the harness checks that make them, and solve
nothing of their own.
"""

from tests.models import test_equivalence as harness

test_snapshots_cover_every_registered_model = (
    harness.test_golden_traces_cover_every_registered_model
)
test_golden_trace_matches = harness.test_golden_trace
