"""Profile x model interaction: the §8 'different requirements' findings."""

import pytest

from repro.machine.devices import GPU_K20X, KNC_5110P
from repro.models.base import DeviceKind
from repro.profiles.analysis import (
    PROFILES,
    compare_profiles,
    profile_runtime,
)
from repro.util.errors import MachineError


class TestProfileDefinitions:
    def test_registry(self):
        assert set(PROFILES) == {"tealeaf_stencil", "eos", "advection", "sweep"}

    def test_sweep_has_linear_dependent_steps(self):
        assert PROFILES["sweep"].dependent_steps(128) == 255
        assert PROFILES["eos"].dependent_steps(128) == 1

    def test_eos_has_highest_intensity(self):
        ais = {name: p.arithmetic_intensity() for name, p in PROFILES.items()}
        assert ais["eos"] == max(ais.values())


class TestRuntimeModel:
    def test_unknown_profile(self):
        with pytest.raises(MachineError, match="unknown profile"):
            profile_runtime("hydro", "cuda", DeviceKind.GPU, 64)

    def test_invalid_size(self):
        with pytest.raises(MachineError):
            profile_runtime("eos", "cuda", DeviceKind.GPU, 0)

    def test_repeats_scale_linearly(self):
        one = profile_runtime("eos", "cuda", DeviceKind.GPU, 256, repeats=1)
        ten = profile_runtime("eos", "cuda", DeviceKind.GPU, 256, repeats=10)
        assert ten == pytest.approx(10 * one)

    def test_device_accepts_spec_or_kind(self):
        a = profile_runtime("eos", "cuda", DeviceKind.GPU, 128)
        b = profile_runtime("eos", "cuda", GPU_K20X, 128)
        assert a == b


class TestSection8Findings:
    """The qualitative conclusions of the profile exploration."""

    def test_sweep_punishes_offload_models(self):
        """On the KNC, OpenMP 4.0 offload is mildly slower than native on
        the stencil profile but catastrophically slower on the sweep:
        per-diagonal target regions dominate."""
        n = 2048  # large enough to amortise the stencil's single launch
        stencil_penalty = profile_runtime(
            "tealeaf_stencil", "openmp4", DeviceKind.KNC, n
        ) / profile_runtime("tealeaf_stencil", "openmp-f90", DeviceKind.KNC, n)
        sweep_penalty = profile_runtime(
            "sweep", "openmp4", DeviceKind.KNC, n
        ) / profile_runtime("sweep", "openmp-f90", DeviceKind.KNC, n)
        assert stencil_penalty < 2.0
        assert sweep_penalty > 3.0
        assert sweep_penalty > 2 * stencil_penalty

    def test_compute_rich_kernels_compress_model_differences(self):
        """On the GPU, the Kokkos CG-efficiency gap that shows on the
        stencil shrinks on the compute-rich EOS: the bandwidth term leaves
        the critical path."""
        n = 1024
        gap = {}
        for profile in ("tealeaf_stencil", "eos"):
            kokkos = profile_runtime(profile, "kokkos", DeviceKind.GPU, n)
            cuda = profile_runtime(profile, "cuda", DeviceKind.GPU, n)
            gap[profile] = kokkos / cuda
        assert gap["eos"] < gap["tealeaf_stencil"]

    def test_sweep_wastes_device_parallelism(self):
        """Per-cell time of the sweep greatly exceeds the pointwise kernel
        on a launch-expensive device even for the *same* model — the
        dependency, not the model, is the bottleneck."""
        n = 512
        sweep = profile_runtime("sweep", "cuda", DeviceKind.GPU, n)
        eos = profile_runtime("eos", "cuda", DeviceKind.GPU, n)
        assert sweep > 5 * eos

    def test_rankings_are_profile_dependent(self):
        """The §8 punchline: the model ranking changes with the profile."""
        models = ["openmp-f90", "openmp4", "kokkos", "opencl"]
        table = compare_profiles(DeviceKind.KNC, models, n=512)
        orders = {
            profile: tuple(sorted(models, key=lambda m: table[profile][m]))
            for profile in table
        }
        assert len(set(orders.values())) > 1, orders
        # ... and even where the order coincides, the *magnitudes* differ
        # wildly: the sweep's worst-case penalty dwarfs the stencil's.
        assert max(table["sweep"].values()) > 3 * max(
            table["tealeaf_stencil"].values()
        )

    def test_knc_offload_collapses_only_on_the_sweep(self):
        """On the KNC at 1024^2 the sweep's per-diagonal regions collapse
        OpenMP 4.0 offload, the stencil keeps it within the usual window
        (at 512^2 its launches are not yet amortised), and compute-rich
        kernels compress the spread between models."""
        models = ["openmp-f90", "openmp4", "kokkos", "kokkos-hp", "opencl", "raja"]
        table = compare_profiles(DeviceKind.KNC, models, n=1024)
        assert set(table) == set(PROFILES)
        assert table["sweep"]["openmp4"] > 5.0
        assert table["tealeaf_stencil"]["openmp4"] < 2.5
        assert max(table["eos"].values()) < max(table["tealeaf_stencil"].values())

    def test_winner_has_penalty_one(self):
        table = compare_profiles(DeviceKind.GPU, ["cuda", "opencl", "kokkos"], n=512)
        for profile, penalties in table.items():
            assert min(penalties.values()) == pytest.approx(1.0)
