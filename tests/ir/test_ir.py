"""Unit tests for the kernel IR: descriptors, plans, ledger, executor.

The IR is the single home of the paper's Sec.-6 traffic accounting; the
tests here pin its arithmetic and the dialect quirks it deliberately
preserves (int vs float byte counts, first-vs-last dtype attribution)
independent of either parloop engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    Access,
    AccessDescriptor,
    InstrumentedExecutor,
    KernelPlan,
    LoopTraffic,
    TrafficLedger,
    describe,
)


def _d(name="u", access=Access.READ, **kw):
    return AccessDescriptor(name, access, **kw)


class TestAccessDescriptor:
    def test_transfers_follow_paper_table(self):
        # Sec. 6 / Fig. 8 accounting: read/write move once, rw/inc twice.
        assert Access.READ.transfers == 1
        assert Access.WRITE.transfers == 1
        assert Access.RW.transfers == 2
        assert Access.INC.transfers == 2
        assert Access.MIN.transfers == 0
        assert Access.MAX.transfers == 0

    def test_slots_direct_vs_indirect(self):
        assert _d().slots == 1
        one = _d(map_name="e2c", map_arity=4, map_index=2)
        assert one.slots == 1
        every = _d(map_name="e2c", map_arity=4, map_index=None)
        assert every.slots == 4

    def test_bytes_per_point(self):
        assert _d(access=Access.RW, width_bytes=8).bytes_per_point == 16
        ind = _d(access=Access.INC, width_bytes=24, map_name="e2c",
                 map_arity=2, map_index=None)
        assert ind.bytes_per_point == 24 * 2 * 2
        gbl = _d("gbl", Access.INC, is_global=True)
        assert gbl.bytes_per_point == 0

    def test_describe_strings(self):
        # The exact formats the tracer has always attached to spans.
        assert _d("gbl", Access.INC, is_global=True).describe() == "gbl:inc"
        assert _d("u", Access.READ, radius=1).describe() == "u:read/r1"
        assert _d("u", Access.WRITE).describe() == "u:write"
        assert _d("q", Access.READ, map_name="e2c",
                  map_index=0).describe() == "q@e2c[0]:read"
        assert _d("q", Access.INC, map_name="e2c", map_arity=3,
                  map_index=None).describe() == "q@e2c[*]:inc"
        assert describe([_d(), _d("v", Access.WRITE)]) == ("u:read", "v:write")


class TestKernelPlan:
    def test_nbytes_counts_transfers_and_slots(self):
        plan = KernelPlan("k", "ops", 100, (
            _d("u", Access.READ, width_bytes=8),
            _d("v", Access.INC, width_bytes=8),
            _d("gbl", Access.INC, is_global=True),
        ))
        assert plan.nbytes == 100 * (8 + 16)
        assert plan.streams == 2  # globals carry no traffic stream

    def test_nbytes_type_follows_dialect(self):
        # The unstructured engine has always reported float byte counts
        # (its accumulator started at 0.0), the structured one ints;
        # span attributes and records preserve that distinction.
        args = (_d("u", Access.READ, width_bytes=8),)
        assert isinstance(KernelPlan("k", "ops", 10, args).nbytes, int)
        op2 = KernelPlan("k", "op2", 10, args).nbytes
        assert isinstance(op2, float)
        assert op2 == 80.0

    def test_read_radius_ignores_writes(self):
        plan = KernelPlan("k", "ops", 1, (
            _d("u", Access.READ, radius=2),
            _d("v", Access.WRITE, radius=9),
        ))
        assert plan.read_radius == 2

    def test_indirect_accounting(self):
        plan = KernelPlan("k", "op2", 50, (
            _d("x", Access.READ, width_bytes=24, map_name="e2n",
               map_arity=2, map_index=None),
            _d("r", Access.INC, width_bytes=8, map_name="e2n",
               map_arity=2, map_index=0),
            _d("area", Access.READ, width_bytes=8),
        ))
        assert plan.indirect_accesses == 50 * 2 + 50 * 1
        assert plan.indirect_bytes == 50 * (24 * 1 * 2 + 8 * 2 * 1)
        assert plan.has_indirect_inc
        assert plan.flops == 0.0

    def test_access_summary(self):
        plan = KernelPlan("k", "op2", 1, (
            _d("q", Access.READ, map_name="m", map_index=1),
            _d("gbl", Access.MAX, is_global=True),
        ))
        assert plan.access_summary() == ("q@m[1]:read", "gbl:max")


# The traffic formulas as KernelPlan and Access computed them before the
# plan tally: the properties must keep their values and their types.
def _reads(access):
    return access in (Access.READ, Access.RW, Access.INC)


def _transfers(access):
    return {"read": 1, "write": 1, "rw": 2, "inc": 2}.get(access.value, 0)


def _reference(plan):
    dats = tuple(d for d in plan.args if not d.is_global)
    total = sum(plan.points * d.width_bytes * _transfers(d.access) * d.slots
                for d in dats)
    return {
        "dat_args": dats,
        "nbytes": float(total) if plan.dialect == "op2" else total,
        "read_radius": max((d.radius for d in dats if _reads(d.access)),
                           default=0),
        "streams": len(dats),
        "indirect_accesses": sum(plan.points * d.slots
                                 for d in dats if d.is_indirect),
        "indirect_bytes": sum(
            plan.points * d.width_bytes * _transfers(d.access) * d.slots
            for d in dats if d.is_indirect),
        "has_indirect_inc": any(d.is_indirect and d.access is Access.INC
                                for d in plan.args),
    }


@st.composite
def _descriptors(draw):
    mapped = draw(st.booleans())
    arity = draw(st.integers(1, 4))
    return AccessDescriptor(
        draw(st.sampled_from(["u", "v", "q", "gbl"])),
        draw(st.sampled_from(list(Access))),
        is_global=draw(st.booleans()),
        width_bytes=draw(st.integers(1, 72)),
        dtype_bytes=draw(st.sampled_from([4, 8])),
        radius=draw(st.integers(0, 4)),
        map_name="m" if mapped else None,
        map_arity=arity,
        map_index=draw(st.none() | st.integers(0, arity - 1)),
    )


class TestPlanTally:
    def test_access_tables_match_definitions(self):
        for access in Access:
            assert access.reads is _reads(access)
            assert access.writes is (
                access in (Access.WRITE, Access.RW, Access.INC))
            assert access.transfers == _transfers(access)
            assert type(access.transfers) is int

    @given(
        dialect=st.sampled_from(["ops", "op2"]),
        points=st.integers(0, 10**7),
        args=st.lists(_descriptors(), max_size=8).map(tuple),
    )
    @settings(max_examples=300, deadline=None)
    def test_properties_match_pre_tally_formulas(self, dialect, points, args):
        plan = KernelPlan("k", dialect, points, args)
        for name, want in _reference(plan).items():
            got = getattr(plan, name)
            assert type(got) is type(want), name
            assert got == want, name


class TestTrafficLedger:
    def _plan(self, dialect, name="k", points=10, dtype_bytes=8):
        return KernelPlan(name, dialect, points, (
            _d("first", Access.READ, width_bytes=4, dtype_bytes=4),
            _d("last", Access.WRITE, width_bytes=8, dtype_bytes=dtype_bytes),
        ))

    def test_record_accumulates(self):
        ledger = TrafficLedger("ops")
        ledger.record(self._plan("ops"))
        ledger.record(self._plan("ops"))
        rec = ledger.records["k"]
        assert rec.calls == 2
        assert rec.points == 20
        assert rec.bytes == 2 * 10 * (4 + 8)
        assert ledger.loop_order == ["k"]

    def test_dtype_rule_first_for_ops_last_for_op2(self):
        # The structured engine has always taken the loop's dtype from
        # its first dat argument, the unstructured one from its last.
        ops, op2 = TrafficLedger("ops"), TrafficLedger("op2")
        ops.record(self._plan("ops", dtype_bytes=8))
        op2.record(self._plan("op2", dtype_bytes=8))
        assert ops.records["k"].dtype_bytes == 4
        assert op2.records["k"].dtype_bytes == 8

    def test_loop_traffic_aliases(self):
        # Op2LoopRecord's historical vocabulary survives as aliases.
        ledger = TrafficLedger("op2")
        ledger.record(self._plan("op2", points=4))
        rec = ledger.records["k"]
        assert rec.elements == rec.points == 4
        assert rec.bytes_per_elem == rec.bytes_per_point
        assert rec.flops_per_elem == rec.flops_per_point

    def test_loop_specs_match_from_traffic(self):
        from repro.perfmodel.kernelmodel import LoopSpec

        ledger = TrafficLedger("ops")
        for _ in range(3):
            ledger.record(self._plan("ops"))
        (spec,) = ledger.loop_specs(iterations=3)
        assert spec == LoopSpec.from_traffic(ledger.records["k"], iterations=3)
        assert spec.points == 10
        assert spec.invocations == 1.0


class _Host:
    """Minimal executor host: no communicator, optional timing model."""

    comm = None

    def __init__(self, timing=None):
        self.timing = timing


class TestInstrumentedExecutor:
    def test_finish_records_and_leaves_clock_alone_untimed(self):
        ex = InstrumentedExecutor(_Host(), "ops")
        token = ex.begin()
        ex.finish(KernelPlan("k", "ops", 10, (_d(),)), token)
        assert ex.ledger.records["k"].calls == 1
        assert ex.simulated_time == 0.0

    def test_finish_charges_timing_model(self):
        from repro.machine import XEON_MAX_9480, best_practice_config
        from repro.ops import TimingModel

        timing = TimingModel(XEON_MAX_9480, best_practice_config(XEON_MAX_9480))
        ex = InstrumentedExecutor(_Host(timing), "op2")
        ex.finish(KernelPlan("k", "op2", 1000, (_d(),)), ex.begin())
        assert ex.simulated_time > 0.0

    def test_zero_point_plans_are_not_charged(self):
        from repro.machine import XEON_MAX_9480, best_practice_config
        from repro.ops import TimingModel

        timing = TimingModel(XEON_MAX_9480, best_practice_config(XEON_MAX_9480))
        ex = InstrumentedExecutor(_Host(timing), "ops")
        ex.finish(KernelPlan("k", "ops", 0, (_d(),)), ex.begin())
        assert ex.simulated_time == 0.0
        assert ex.ledger.records["k"].calls == 1


class TestBackCompatSurface:
    def test_access_enum_is_shared(self):
        from repro.op2 import Access as Op2Access
        from repro.ops import Access as OpsAccess

        assert OpsAccess is Access
        assert Op2Access is Access

    def test_loop_record_aliases(self):
        from repro.op2.parloop import Op2LoopRecord
        from repro.ops.runtime import LoopRecord

        assert LoopRecord is LoopTraffic
        assert Op2LoopRecord is LoopTraffic

    def test_describe_helpers_delegate_to_ir(self):
        import repro.op2.parloop as op2_parloop
        import repro.ops.parloop as ops_parloop

        assert callable(ops_parloop.describe_access)
        assert callable(op2_parloop.describe_args)
        assert "lower_access" in ops_parloop.__all__
        assert "lower_args" in op2_parloop.__all__

    def test_ops_lowering_round_trip(self):
        from repro.ops import OpsContext, arg_dat, arg_gbl, star_stencil
        from repro.ops.parloop import describe_access, lower_access

        block = OpsContext().block("grid", (8,))
        u = block.dat("u", halo=1)
        g = np.zeros(1)
        args = (arg_dat(u, star_stencil(1, 1), Access.READ),
                arg_gbl(g, Access.INC))
        low = lower_access(args)
        assert low[0].radius == 1 and not low[0].is_global
        assert low[1].is_global
        assert describe_access(args) == ("u:read/r1", "gbl:inc")

    def test_op2_lowering_round_trip(self):
        from repro.op2 import Global, Map, Op2Context, Set, arg, arg_global
        from repro.op2.parloop import describe_args, lower_args

        ctx = Op2Context()
        cells = ctx.set("cells", 4)
        edges = ctx.set("edges", 4)
        e2c = ctx.map("e2c", edges, cells,
                      np.array([[i, (i + 1) % 4] for i in range(4)]))
        q = ctx.dat(cells, 3, "q")
        tot = Global(0.0, "tot")
        args = (arg(q, e2c, None, Access.INC), arg_global(tot, Access.INC))
        low = lower_args(args)
        assert low[0].width_bytes == 3 * 8
        assert low[0].map_arity == 2 and low[0].map_index is None
        assert describe_args(args) == ("q@e2c[*]:inc", "gbl:inc")
