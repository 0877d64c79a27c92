"""Kokkos substrate: Views, spaces, policies, reducers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.kokkos import (
    Layout,
    MemorySpace,
    MultiSum,
    RangePolicy,
    Sum,
    TeamPolicy,
    View,
    create_mirror_view,
    deep_copy,
    parallel_for,
    parallel_reduce,
)
from repro.models.tracing import EventKind, Trace, TransferDirection
from repro.util.errors import ModelError


class TestViews:
    def test_layout_right_is_c_order(self):
        v = View("a", (3, 4), Layout.RIGHT)
        assert v.data.flags["C_CONTIGUOUS"]
        assert v.extent(0) == 3 and v.extent(1) == 4
        assert v.span() == 12

    def test_layout_left_is_f_order(self):
        v = View("a", (3, 4), Layout.LEFT)
        assert v.data.flags["F_CONTIGUOUS"]

    def test_flat_respects_layout(self):
        v = View("a", (2, 3), Layout.LEFT)
        v[0, 1] = 7.0
        # Fortran order: (0,1) is the third flat element (after column 0)
        assert v.flat[2] == 7.0
        w = View("b", (2, 3), Layout.RIGHT)
        w[0, 1] = 7.0
        assert w.flat[1] == 7.0

    def test_flat_is_a_view_not_a_copy(self):
        v = View("a", (2, 2))
        v.flat[3] = 5.0
        assert v[1, 1] == 5.0

    def test_copy_construction_aliases(self):
        """View copy semantics are shared_ptr-like (§2.4)."""
        v = View("a", (2, 2))
        alias = View(v)
        alias[0, 0] = 1.0
        assert v[0, 0] == 1.0
        assert alias.aliases(v)

    def test_shape_required(self):
        with pytest.raises(ModelError, match="shape"):
            View("a")

    def test_repr_mentions_layout(self):
        assert "LayoutRight" in repr(View("a", (2, 2)))


class TestMirrorsAndDeepCopy:
    def test_mirror_of_device_view(self):
        dev = View("a", (2, 3), space=MemorySpace.DEVICE)
        mirror = create_mirror_view(dev)
        assert mirror.space is MemorySpace.HOST
        assert mirror.shape == dev.shape
        assert not mirror.aliases(dev)

    def test_mirror_of_host_view_is_itself(self):
        host = View("a", (2, 2), space=MemorySpace.HOST)
        assert create_mirror_view(host).aliases(host)

    def test_deep_copy_traces_cross_space_transfer(self):
        trace = Trace()
        dev = View("a", (4,), space=MemorySpace.DEVICE)
        host = View("b", (4,), space=MemorySpace.HOST)
        host.data[...] = 3.0
        deep_copy(dev, host, trace)
        assert np.all(dev.data == 3.0)
        t = trace.filtered(kind=EventKind.TRANSFER)
        assert len(t) == 1 and t[0].direction is TransferDirection.H2D

    def test_deep_copy_same_space_not_traced(self):
        trace = Trace()
        a = View("a", (4,))
        b = View("b", (4,))
        deep_copy(a, b, trace)
        assert trace.transfer_bytes() == 0

    def test_deep_copy_shape_mismatch(self):
        with pytest.raises(ModelError, match="shape mismatch"):
            deep_copy(View("a", (2,)), View("b", (3,)))


class TestRangePolicy:
    def test_batch_dispatch(self):
        v = View("a", (10,))
        parallel_for(RangePolicy(0, 10), lambda idx: v.flat.__setitem__(idx, idx))
        np.testing.assert_array_equal(v.data, np.arange(10.0))

    def test_scalar_dispatch_equivalence(self):
        """The scalar validation mode matches the batch mode exactly."""
        a = View("a", (16,))
        b = View("b", (16,))

        def body_factory(view):
            flat = view.flat

            def body(i):
                flat[i] = 3.0 * i + 1.0

            return body

        parallel_for(RangePolicy(0, 16), body_factory(a))
        parallel_for(RangePolicy(0, 16, scalar=True), body_factory(b))
        np.testing.assert_array_equal(a.data, b.data)

    def test_reduce_batch_vs_scalar(self):
        data = np.arange(20.0)

        def batch_body(idx):
            return data[idx] * 2.0

        total_batch = parallel_reduce(RangePolicy(0, 20), batch_body)

        def scalar_body(i):
            return data[i] * 2.0

        total_scalar = parallel_reduce(RangePolicy(0, 20, scalar=True), scalar_body)
        assert total_batch == pytest.approx(total_scalar)
        assert total_batch == pytest.approx(data.sum() * 2)

    def test_invalid_range(self):
        with pytest.raises(ModelError):
            RangePolicy(5, 2)


class TestTeamPolicy:
    def test_league_dispatch(self):
        v = View("rows", (4, 8))

        def team_body(member):
            v.data[member.league_rank, :] = member.league_rank

        parallel_for(TeamPolicy(league_size=4, team_size=8), team_body)
        for r in range(4):
            assert np.all(v.data[r] == r)

    def test_team_reduction_joins_per_team_partials(self):
        data = np.arange(12.0).reshape(3, 4)
        total = parallel_reduce(
            TeamPolicy(league_size=3, team_size=4),
            lambda member: float(data[member.league_rank].sum()),
        )
        assert total == pytest.approx(data.sum())

    def test_team_thread_range(self):
        from repro.models.kokkos.parallel import TeamMember

        member = TeamMember(0, 2, 8)
        np.testing.assert_array_equal(member.team_thread_range(5), np.arange(5))

    def test_invalid_team(self):
        with pytest.raises(ModelError):
            TeamPolicy(league_size=-1)


class TestReducers:
    def test_default_sum_zero_initialised(self):
        assert Sum().init() == 0.0
        assert Sum().join(2.0, 3.0) == 5.0

    def test_multisum_width(self):
        red = MultiSum(3)
        assert red.init() == (0.0, 0.0, 0.0)
        assert red.join((1, 2, 3), (4, 5, 6)) == (5, 7, 9)

    def test_multisum_arity_errors(self):
        red = MultiSum(2)
        with pytest.raises(ModelError):
            red.join((1,), (2, 3))
        with pytest.raises(ModelError):
            red.combine_contributions((np.ones(3),))

    def test_multisum_invalid_width(self):
        with pytest.raises(ModelError):
            MultiSum(0)

    def test_multi_reduce_through_policy(self):
        data = np.arange(10.0)
        result = parallel_reduce(
            RangePolicy(0, 10),
            lambda idx: (data[idx], np.ones_like(idx, dtype=float)),
            reducer=MultiSum(2),
        )
        assert result == (pytest.approx(45.0), pytest.approx(10.0))

    @given(n=st.integers(1, 200), seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_reduce_matches_numpy(self, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(n)
        total = parallel_reduce(RangePolicy(0, n), lambda idx: data[idx])
        assert total == pytest.approx(float(data.sum()), rel=1e-12, abs=1e-12)


class TestLayoutPolymorphism:
    """§2.4/§8: the same functors run over either data layout."""

    def test_layouts_produce_identical_solutions(self):
        import numpy as np

        from repro.core import fields as F
        from repro.core.deck import default_deck
        from repro.core.driver import TeaLeaf
        from repro.models.kokkos_port import KokkosPort

        deck = default_deck(n=20, solver="cg", end_step=1, eps=1e-9)
        g = deck.grid()
        results = {}
        for layout in (Layout.RIGHT, Layout.LEFT):
            app = TeaLeaf(deck, port=KokkosPort(g, layout=layout))
            run = app.run()
            results[layout] = (run.total_iterations, app.field(F.U)[g.inner()])
        assert results[Layout.RIGHT][0] == results[Layout.LEFT][0]
        np.testing.assert_allclose(
            results[Layout.LEFT][1], results[Layout.RIGHT][1], rtol=1e-13
        )

    def test_layout_left_refuses_codegen_loudly(self):
        """The compiled bodies index C-contiguous rows, so a LayoutLeft
        port falls back to its functors and the run says so."""
        import dataclasses

        from repro.core import fields as F
        from repro.core.deck import default_deck
        from repro.core.driver import TeaLeaf
        from repro.models.kokkos_port import KokkosPort

        deck = default_deck(n=20, solver="cg", end_step=1, eps=1e-9)
        g = deck.grid()
        plain = TeaLeaf(deck, port=KokkosPort(g, layout=Layout.LEFT))
        plain.run()
        app = TeaLeaf(
            dataclasses.replace(deck, tl_codegen=True),
            port=KokkosPort(g, layout=Layout.LEFT),
        )
        result = app.run()
        assert app.executor.codegen is False
        assert len(result.fallbacks) == 1
        assert "codegen" in result.fallbacks[0]
        assert "'kokkos'" in result.fallbacks[0]
        np.testing.assert_array_equal(app.field(F.U), plain.field(F.U))
        assert KokkosPort(g).supports_codegen

    def test_layout_left_refuses_fusion_for_want_of_codegen(self):
        """A fused group only runs compiled, so a LayoutLeft port, which
        fuses but cannot compile, runs unfused and names the reason."""
        import dataclasses

        from repro.core import fields as F
        from repro.core.deck import default_deck
        from repro.core.driver import TeaLeaf
        from repro.models.kokkos_port import KokkosPort

        deck = default_deck(n=20, solver="cg", end_step=1, eps=1e-9)
        g = deck.grid()
        plain = TeaLeaf(deck, port=KokkosPort(g, layout=Layout.LEFT))
        plain_result = plain.run()
        app = TeaLeaf(
            dataclasses.replace(deck, tl_fuse_kernels=True),
            port=KokkosPort(g, layout=Layout.LEFT),
        )
        result = app.run()
        assert app.port.supports_fusion
        assert app.executor.fuse is False
        assert len(result.fallbacks) == 1
        assert result.fallbacks[0].startswith("fuse requested")
        assert "(supports_codegen=False)" in result.fallbacks[0]
        np.testing.assert_array_equal(app.field(F.U), plain.field(F.U))
        assert (
            result.trace.kernel_launches() == plain_result.trace.kernel_launches()
        )

    def test_layout_left_strides(self):
        from repro.core.grid import Grid2D
        from repro.models.kokkos_port import _Geometry

        g = Grid2D(nx=5, ny=3)
        geo = _Geometry(g, Layout.LEFT)
        assert geo.east == g.ny + 2 * g.halo  # column stride
        assert geo.north == 1

    def test_layout_left_decode_round_trip(self):
        import numpy as np

        from repro.core.grid import Grid2D
        from repro.models.kokkos_port import _Geometry

        g = Grid2D(nx=5, ny=3)
        geo = _Geometry(g, Layout.LEFT)
        idx = np.arange(geo.NX * geo.NY)
        k, j = geo.decode(idx)
        # re-encode: LayoutLeft flat index = k + j * NY
        np.testing.assert_array_equal(k + j * geo.NY, idx)
