"""OpenACC directives: data regions, kernels regions, loop markers."""

import numpy as np
import pytest

from repro.models.openacc.directives import AccDataRegion, kernels_region, loop
from repro.models.openmp.directives import DeviceDataEnvironment
from repro.models.tracing import EventKind, Trace
from repro.util.errors import ModelError


@pytest.fixture
def env():
    return DeviceDataEnvironment(Trace())


class TestAccData:
    def test_copyin_copy_create(self, env):
        a, b, c = np.arange(3.0), np.zeros(3), np.zeros(3)
        with AccDataRegion(env, copyin={"a": a}, copy={"b": b}, create={"c": c}):
            assert np.array_equal(env.device("a"), a)
            env.device("b")[...] = 5.0
            env.device("c")[...] = 6.0
        assert np.all(b == 5.0)  # copy: back-transferred
        assert np.all(c == 0.0)  # create: never copied

    def test_copyout_semantics(self, env):
        out = np.zeros(4)
        with AccDataRegion(env, copyout={"o": out}):
            assert np.all(env.device("o") == 0.0)  # no copy in
            env.device("o")[...] = 2.5
        assert np.all(out == 2.5)

    def test_reentry_rejected(self, env):
        region = AccDataRegion(env, copyin={"a": np.zeros(1)})
        with region:
            with pytest.raises(ModelError, match="twice"):
                region.__enter__()


class TestKernelsRegion:
    def test_present_check_passes_when_mapped(self, env):
        env.map("a", np.zeros(2))
        with kernels_region(env, env.trace, "k1", present=["a"]):
            pass
        assert env.trace.region_entries() == 1

    def test_present_check_fails_when_absent(self, env):
        with pytest.raises(ModelError, match="not present"):
            with kernels_region(env, env.trace, "k1", present=["nope"]):
                pass

    def test_region_event_name(self, env):
        with kernels_region(env, env.trace, "solve_kernel"):
            pass
        events = env.trace.filtered(kind=EventKind.REGION)
        assert events[0].name == "acc_kernels:solve_kernel"


class TestLoopMarker:
    def test_clauses_attached(self):
        @loop(independent=True, collapse=2)
        def body(i):
            return i + 1

        assert body(1) == 2
        assert body.__acc_loop__ == {"independent": True, "collapse": 2}

    def test_default_clauses(self):
        @loop()
        def body():
            return 0

        assert body.__acc_loop__["independent"] is True
        assert body.__acc_loop__["collapse"] == 1
