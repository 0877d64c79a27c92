"""Roofline analysis: the §6 memory-bound premise, verified."""

import pytest

from repro.core.kernels import KERNELS
from repro.machine.devices import DEVICES
from repro.machine.roofline import (
    kernel_intensity,
    render_roofline,
    ridge_point,
    roofline_report,
)


class TestIntensity:
    def test_matvec_intensity(self):
        spec = KERNELS["cg_calc_w"]
        expected = spec.flops / (spec.doubles_per_cell * 8)
        assert kernel_intensity(spec) == pytest.approx(expected)

    def test_stream_copy_is_zero_intensity(self):
        assert kernel_intensity(KERNELS["stream_copy"]) == 0.0


class TestRidge:
    def test_ridge_points_are_high(self):
        """Every device needs several flops/byte to leave the bandwidth
        roof — far above TeaLeaf's densest kernel (~0.3 flops/byte)."""
        for device in DEVICES.values():
            assert ridge_point(device) > 3.0


class TestPaperPremise:
    @pytest.mark.parametrize("device", list(DEVICES.values()), ids=lambda d: d.kind.value)
    def test_every_tealeaf_kernel_is_memory_bound(self, device):
        """§6: TeaLeaf is a memory-bandwidth-bound application — every
        solver kernel sits left of the ridge on every device."""
        points = roofline_report(device)
        assert points, "no solver kernels found"
        for p in points:
            assert p.memory_bound, p.kernel
            assert p.attainable_flops < device.peak_flops

    def test_attainable_far_below_peak(self):
        device = DEVICES[next(iter(DEVICES))]
        for p in roofline_report(device):
            assert p.peak_fraction < 0.35, p.kernel

    def test_solver_only_filter(self):
        device = DEVICES[next(iter(DEVICES))]
        solver_kernels = {p.kernel for p in roofline_report(device)}
        assert "halo_update" not in solver_kernels
        everything = {
            p.kernel for p in roofline_report(device, solver_kernels_only=False)
        }
        assert "halo_update" in everything

    def test_report_sorted_by_intensity(self):
        device = DEVICES[next(iter(DEVICES))]
        ais = [p.arithmetic_intensity for p in roofline_report(device)]
        assert ais == sorted(ais)


class TestRendering:
    def test_render_mentions_bounds(self):
        device = DEVICES[next(iter(DEVICES))]
        text = render_roofline(device)
        assert "ridge" in text
        assert "[memory bound]" in text
