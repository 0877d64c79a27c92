"""``--codegen`` is a host-only flag: it must not move the modelled clock.

These checks are rows of the differential harness (``test_equivalence.py``);
the ids stay as aliases of the harness checks that make them, and solve
nothing of their own.
"""

import pytest

from tests.models import test_equivalence as harness
from tests.models.test_equivalence import MODELS, SETUPS, Row, flags


@pytest.mark.parametrize(
    "residency", [False, True], ids=["residency-off", "residency-on"]
)
@pytest.mark.parametrize("setup", sorted(SETUPS))
@pytest.mark.parametrize("model", MODELS)
def test_codegen_traces_like_the_interpreter(model, setup, residency):
    harness.check(Row(setup, model, flags("codegen+residency" if residency else "codegen")))


test_every_fusing_model_is_pinned = harness.test_every_fusing_model_is_pinned
test_fused_traces_match_their_pinned_digest = harness.test_fused_traces_match_their_pinned_digest
