"""Model registry and capability metadata (Table 1, §3)."""

import pytest

from repro.comm.multichunk import MultiChunkPort
from repro.core.grid import Grid2D
from repro.harness.numdiff import LockstepPort
from repro.machine.workload import TracingStubPort
from repro.models.base import (
    DeviceKind,
    Port,
    available_models,
    get_model,
    make_port,
    register_model,
)
from repro.models.plan import OPS
from repro.util.errors import ModelError

EXPECTED_MODELS = {
    "cuda",
    "kokkos",
    "kokkos-hp",
    "openacc",
    "opencl",
    "openmp-cpp",
    "openmp-f90",
    "openmp4",
    "openmp45",
    "raja",
    "raja-gpu",
    "raja-simd",
}


class TestRegistry:
    def test_all_paper_models_registered(self):
        assert set(available_models()) == EXPECTED_MODELS

    def test_get_model_round_trip(self):
        for name in available_models():
            assert get_model(name).capabilities.name == name

    def test_unknown_model(self):
        with pytest.raises(ModelError, match="unknown model"):
            get_model("chapel")

    def test_duplicate_registration_rejected(self):
        model = get_model("cuda")
        with pytest.raises(ModelError, match="already registered"):
            register_model(model)


class TestCapabilities:
    def test_cross_platform_partition_matches_section3(self):
        """§3: cross-platform = {OpenCL, Kokkos, RAJA, OpenACC, OpenMP 4.0};
        platform-specific = {CUDA, OpenMP 3.0}."""
        cross = {
            name
            for name in available_models()
            if get_model(name).capabilities.cross_platform
        }
        assert cross == {
            "opencl", "kokkos", "kokkos-hp", "raja", "raja-simd", "raja-gpu",
            "openacc", "openmp4", "openmp45",
        }

    def test_cuda_is_gpu_only(self):
        caps = get_model("cuda").capabilities
        assert caps.supports(DeviceKind.GPU)
        assert not caps.supports(DeviceKind.CPU)
        assert not caps.supports(DeviceKind.KNC)

    def test_raja_has_no_gpu_support(self):
        """§3: the unreleased RAJA available to the paper excluded GPUs."""
        assert not get_model("raja").capabilities.supports(DeviceKind.GPU)

    def test_directive_based_flags(self):
        directives = {
            name
            for name in available_models()
            if get_model(name).capabilities.directive_based
        }
        assert directives == {
            "openmp-f90", "openmp-cpp", "openmp4", "openmp45", "openacc",
        }

    def test_cpp11_requirement(self):
        """§3: Kokkos and RAJA require C++11 compilation."""
        for name in ("kokkos", "kokkos-hp", "raja", "raja-simd", "raja-gpu"):
            assert "C++11" in get_model(name).capabilities.language

    def test_display_names_distinct(self):
        names = [get_model(m).capabilities.display_name for m in available_models()]
        assert len(names) == len(set(names))


class TestPortContract:
    """Every port enters kernels through the shared dispatch core."""

    @staticmethod
    def registered_ports():
        grid = Grid2D(nx=8, ny=8)
        return {name: make_port(name, grid) for name in available_models()}

    def test_no_port_overrides_a_public_kernel_method(self):
        # There is none to override: no port class, Port included, has a
        # method named after an op.  Every op runs through Port.dispatch,
        # which wrapping and stub ports hook (or their _primitive).
        classes = {type(p) for p in self.registered_ports().values()}
        classes |= {MultiChunkPort, LockstepPort, TracingStubPort}
        named = {
            f"{klass.__name__}.{op}"
            for cls in classes
            for klass in cls.__mro__[: cls.__mro__.index(Port) + 1]
            for op in OPS
            if op in vars(klass)
        }
        assert named == set()

    def test_fusing_ports_have_no_data_region(self):
        # The plan compiler hoists begin/end_solve across fused groups,
        # which is only sound while both are no-ops on every fusing port.
        fusing = {
            name: type(port)
            for name, port in self.registered_ports().items()
            if port.supports_fusion
        }
        assert fusing
        for name, cls in fusing.items():
            assert cls.begin_solve is Port.begin_solve, name
            assert cls.end_solve is Port.end_solve, name

    def test_fusing_ports_compile(self):
        # A fused group only runs lowered: a port that fuses must also
        # run compiled kernels, or every --fuse run would fall back.
        for name, port in self.registered_ports().items():
            if port.supports_fusion:
                assert port.supports_codegen, name

    def test_fusing_ports_refresh_halos_reflectively(self):
        # A halo prefix runs Port._reflect inside the consumer's launch;
        # that gives the separate launch's bits only while the port's
        # update_halo is that same local reflective refresh.
        fusing = {
            name: type(port)
            for name, port in self.registered_ports().items()
            if port.supports_fusion
        }
        assert fusing
        for name, cls in fusing.items():
            assert cls.update_halo is Port.update_halo, name
            assert cls._reflect is Port._reflect, name

    def test_wrapping_and_decomposed_ports_do_not_fuse(self):
        # Their exchanges are not local reflections (MultiChunkPort), or
        # they must observe every halo call (LockstepPort, TracingStubPort).
        for cls in (MultiChunkPort, LockstepPort, TracingStubPort):
            assert cls.supports_fusion is False, cls.__name__
