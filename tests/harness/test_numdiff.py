"""First-divergence numerics debugger.

The debugger's contract is precision: agreeing ports produce a clean
report, and a single one-ULP perturbation injected into one kernel call
must be localised to exactly that (iteration, kernel, field).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.harness.numdiff import (
    LockstepPort,
    Perturbation,
    run_numdiff,
    scalar_ulp,
    ulp_distance,
)
from repro.models.base import make_port


class TestUlpDistance:
    def test_identical(self):
        x = np.asarray([0.0, 1.0, -3.5, 1e300])
        assert np.all(ulp_distance(x, x) == 0)

    def test_adjacent_doubles(self):
        a = np.asarray([1.0, -1.0, 1e-300])
        b = np.nextafter(a, np.inf)
        assert np.all(ulp_distance(a, b) == 1)
        assert np.all(ulp_distance(b, a) == 1)

    def test_signed_zero(self):
        assert ulp_distance(np.asarray([0.0]), np.asarray([-0.0]))[0] == 0

    def test_crosses_zero(self):
        tiny = np.nextafter(0.0, 1.0)
        # +tiny and -tiny are two representable steps apart (through zero).
        assert ulp_distance(np.asarray([tiny]), np.asarray([-tiny]))[0] == 2

    def test_nan_mismatch_is_maximal(self):
        d = ulp_distance(np.asarray([np.nan]), np.asarray([1.0]))
        assert d[0] == np.iinfo(np.uint64).max

    def test_nan_pair_is_zero(self):
        d = ulp_distance(np.asarray([np.nan]), np.asarray([np.nan]))
        assert d[0] == 0

    def test_scalar_helper(self):
        assert scalar_ulp(1.0, np.nextafter(1.0, 2.0)) == 1


class TestLockstep:
    def test_agreeing_ports_report_no_divergence(self):
        deck = default_deck(n=16, solver="cg", end_step=1, eps=1e-9)
        report = run_numdiff("openmp-f90", "kokkos", deck)
        assert report.agreed
        assert report.divergence is None
        assert report.iterations > 0
        assert report.kernel_calls > report.iterations
        assert "agree bitwise" in report.describe()

    def test_one_ulp_perturbation_localised_exactly(self):
        """Satellite check: nudge one element of r by one ULP after the 3rd
        cg_calc_ur on the Kokkos side; numdiff must name that exact call."""
        deck = default_deck(n=16, solver="cg", end_step=1, eps=1e-9)
        report = run_numdiff(
            "openmp-f90",
            "kokkos",
            deck,
            perturbation=Perturbation(kernel="cg_calc_ur", call_index=3, field=F.R),
        )
        assert not report.agreed
        d = report.divergence
        assert d.kernel == "cg_calc_ur"
        assert d.call_index == 3
        assert d.iteration == 3
        assert d.field == F.R
        assert d.max_ulp == 1
        # The nudge lands on the centre interior cell.
        grid = deck.grid()
        assert d.where == (grid.halo + grid.ny // 2, grid.halo + grid.nx // 2)
        assert "cg_calc_ur" in report.describe()

    def test_perturbed_scalar_return_detected(self):
        """A perturbation of p before cg_calc_w surfaces in the *returned*
        reduction scalar of the next call that consumes it."""
        deck = default_deck(n=16, solver="cg", end_step=1, eps=1e-9)
        report = run_numdiff(
            "openmp-f90",
            "kokkos",
            deck,
            perturbation=Perturbation(kernel="cg_calc_p", call_index=2, field=F.P),
        )
        assert not report.agreed
        d = report.divergence
        # Detected at the injection site itself (field compare), not later.
        assert d.kernel == "cg_calc_p"
        assert d.field == F.P
        assert d.max_ulp == 1

    @pytest.mark.parametrize("solver", ["jacobi", "chebyshev"])
    def test_other_solvers_run_in_lockstep(self, solver):
        deck = default_deck(n=12, solver=solver, end_step=1, eps=1e-6)
        report = run_numdiff("openmp-f90", "cuda", deck)
        assert report.agreed, report.describe()


class TestNumdiffCli:
    def test_cli_agreement_exit_zero(self, capsys):
        from repro.cli import main

        rc = main(
            ["numdiff", "--models", "kokkos,openmp-f90", "--mesh", "12", "--steps", "1"]
        )
        assert rc == 0
        assert "agree bitwise" in capsys.readouterr().out

    def test_cli_perturbation_exit_one(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "numdiff",
                "--models", "openmp-f90,kokkos",
                "--mesh", "12",
                "--steps", "1",
                "--perturb", "cg_calc_ur:2:r",
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "cg_calc_ur" in out
        assert "1 ULP" in out

    def test_cli_rejects_bad_model_list(self, capsys):
        from repro.cli import main

        assert main(["numdiff", "--models", "kokkos", "--mesh", "8"]) == 2
        assert main(["numdiff", "--models", "kokkos,nope", "--mesh", "8"]) == 2


class TestLockstepUnderDeviceArrayFlags:
    """Compiled kernels and dead-field poison write through
    ``_device_array``, which reaches only the reference port.  The
    lockstep facade refuses both, so the candidate runs every call too
    and agreeing ports are not reported as diverging."""

    DECK = default_deck(n=16, solver="cg", end_step=1, eps=1e-9)

    @pytest.mark.parametrize(
        "flags",
        [
            {"tl_codegen": True},
            {
                "tl_codegen": True,
                "tl_fuse_kernels": True,
                "tl_residency_tracking": True,
            },
            {"tl_poison_dead_fields": True},
        ],
        ids=["codegen", "codegen-fuse-residency", "poison"],
    )
    def test_agreeing_ports_agree(self, flags):
        deck = dataclasses.replace(self.DECK, **flags)
        report = run_numdiff("openmp-f90", "kokkos", deck)
        assert report.agreed, report.describe()
        assert report.iterations > 0

    def test_perturbation_localised_under_codegen(self):
        deck = dataclasses.replace(self.DECK, tl_codegen=True)
        report = run_numdiff(
            "openmp-f90",
            "kokkos",
            deck,
            perturbation=Perturbation(kernel="cg_calc_ur", call_index=3, field=F.R),
        )
        d = report.divergence
        assert d is not None
        assert (d.iteration, d.kernel, d.call_index, d.field, d.max_ulp) == (
            3,
            "cg_calc_ur",
            3,
            F.R,
            1,
        )

    def test_refusals_are_recorded_as_fallbacks(self):
        deck = dataclasses.replace(
            self.DECK, tl_codegen=True, tl_poison_dead_fields=True
        )
        grid = deck.grid()
        lock = LockstepPort(
            grid,
            reference=make_port("openmp-f90", grid),
            candidate=make_port("kokkos", grid),
        )
        fallbacks = TeaLeaf(deck, port=lock).run().fallbacks
        assert any(f.startswith("codegen requested") for f in fallbacks)
        assert any(f.startswith("tl_poison_dead_fields") for f in fallbacks)
