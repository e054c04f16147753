"""Attribution trees: additivity invariant, taxonomy, what-if algebra."""

import math

import pytest

from repro.apps import APP_ORDER
from repro.engine import build_plan, default_engine
from repro.harness import best_attribution
from repro.machine import ALL_PLATFORMS
from repro.obs.attribution import (
    WHAT_IF_KNOBS,
    attribute_estimate,
    leaf_index,
    what_if,
)
from repro.obs.diff import project

PLATFORM_NAMES = [p.short_name for p in ALL_PLATFORMS]
PAIRS = [(a, p) for a in APP_ORDER for p in ALL_PLATFORMS]


def _tree(app, platform):
    _cfg, est, tree = best_attribution(app, platform)
    return est, tree


class TestAdditivity:
    @pytest.mark.parametrize(
        "app,platform", PAIRS,
        ids=[f"{a}-{p.short_name}" for a, p in PAIRS])
    def test_leaves_sum_to_estimate_total(self, app, platform):
        """The tree invariant for every app x platform pair: every
        interior node is the sum of its children and the leaf total
        recomposes ``AppEstimate.total_time`` within 1e-9 relative."""
        est, tree = _tree(app, platform)
        assert tree.seconds == est.total_time
        assert tree.max_additivity_error() <= 1e-9
        assert math.isclose(
            tree.leaf_total(), est.total_time, rel_tol=1e-9, abs_tol=0.0)

    def test_limb_seconds_exact_per_loop(self):
        """Per loop the limb split plus overhead is a float *identity*
        with the blended time (remainder construction), not just close."""
        est, _ = _tree("cloverleaf2d", ALL_PLATFORMS[0])
        for lt in est.per_loop:
            limbs = lt.limb_seconds()
            assert sum(limbs.values()) + lt.overhead == lt.time


@pytest.fixture(scope="module")
def plan_points():
    """(job, estimate, tree) at every runnable job of the default plan
    over all applications and platforms."""
    plan = build_plan(list(APP_ORDER), list(ALL_PLATFORMS))
    results = [r for r in default_engine().run_plan(plan)
               if r.status != "skipped"]
    assert len(results) == len(plan.jobs) and all(r.ok for r in results)
    return [(r.job, r.estimate, attribute_estimate(r.estimate))
            for r in results]


class TestPlanInvariants:
    """Invariants at every point of the default plan, not only at each
    pair's best run."""

    def test_leaves_sum_to_total_time(self, plan_points):
        off = [
            job.label() for job, est, tree in plan_points
            if not math.isclose(tree.leaf_total(), est.total_time,
                                rel_tol=1e-9, abs_tol=0.0)
        ]
        assert not off, f"{len(off)} points off: {off[:5]}"

    @pytest.mark.parametrize("knob", list(WHAT_IF_KNOBS))
    def test_speeding_up_a_resource_never_slows_a_point(self, plan_points, knob):
        """Against ``project``'s rebuilt baseline (the same leaf sum),
        not ``tree.seconds``: the two differ by leaf-sum rounding."""
        slowed = [
            job.label() for job, _est, tree in plan_points
            if not project(tree, {knob: 2.0})["speedup"] >= 1.0
        ]
        assert not slowed, f"{len(slowed)} points slowed: {slowed[:5]}"


class TestTaxonomy:
    def test_memory_leaves_carry_technology(self):
        est, tree = _tree("cloverleaf2d", ALL_PLATFORMS[0])  # max9480
        mem = [l for l in tree.leaves() if l.kind == "memory"]
        assert mem, "a bandwidth-bound app must have memory leaves"
        assert any(l.name == "memory[hbm2e]" for l in mem)

    def test_sections_and_iterations(self):
        est, tree = _tree("cloverleaf2d", ALL_PLATFORMS[0])
        names = [c.name for c in tree.children]
        assert names[0] == "kernels"
        assert "mpi" in names
        kernels = tree.children[0]
        assert kernels.seconds == est.compute_time
        mpi = tree.children[names.index("mpi")]
        assert mpi.seconds == est.mpi_time
        assert tree.meta["iterations"] >= 1

    def test_leaf_index_is_platform_independent(self):
        """Same app, two platforms: the structural keys align exactly,
        even though the memory technology labels differ."""
        _e1, t1 = _tree("miniweather", ALL_PLATFORMS[0])
        _e2, t2 = _tree("miniweather", ALL_PLATFORMS[1])
        assert set(leaf_index(t1)) == set(leaf_index(t2))

    def test_works_on_store_roundtripped_estimate(self):
        from repro.engine.store import estimate_from_dict, estimate_to_dict

        est, tree = _tree("volna", ALL_PLATFORMS[0])
        thawed = estimate_from_dict(estimate_to_dict(est))
        tree2 = attribute_estimate(thawed)
        assert tree2.seconds == tree.seconds
        assert tree2.max_additivity_error() <= 1e-9


class TestWhatIf:
    def test_factor_one_is_exact_noop(self):
        _est, tree = _tree("mgcfd", ALL_PLATFORMS[0])
        same = what_if(tree, {k: 1.0 for k in WHAT_IF_KNOBS})
        for (d1, n1), (d2, n2) in zip(tree.walk(), same.walk()):
            assert d1 == d2
            assert n2.seconds == n1.seconds or (
                not n2.is_leaf
                and math.isclose(n2.seconds, n1.seconds, rel_tol=1e-12)
            )
        for l1, l2 in zip(tree.leaves(), same.leaves()):
            assert l2.seconds == l1.seconds  # x / 1.0 == x, exactly

    def test_inf_zeroes_mpi_wait(self):
        _est, tree = _tree("cloverleaf2d", ALL_PLATFORMS[0])
        gone = what_if(tree, {"mpi": float("inf")})
        assert all(l.seconds == 0.0 for l in gone.leaves()
                   if l.kind.startswith("mpi-"))
        assert gone.seconds < tree.seconds

    def test_dram_speedup_reduces_memory_leaves_only(self):
        _est, tree = _tree("cloverleaf2d", ALL_PLATFORMS[0])
        faster = what_if(tree, {"dram_bw": 2.0})
        idx, fidx = leaf_index(tree), leaf_index(faster)
        for key, leaf in idx.items():
            if leaf.kind == "memory" and leaf.meta.get("level") == "memory":
                assert fidx[key].seconds == leaf.seconds / 2.0
            else:
                assert fidx[key].seconds == leaf.seconds

    def test_unknown_knob_raises(self):
        _est, tree = _tree("volna", ALL_PLATFORMS[0])
        with pytest.raises(KeyError, match="unknown what-if knob"):
            what_if(tree, {"warp_drive": 2.0})

    def test_nonpositive_factor_raises(self):
        _est, tree = _tree("volna", ALL_PLATFORMS[0])
        with pytest.raises(ValueError, match="must be > 0"):
            what_if(tree, {"dram_bw": 0.0})


class TestInternodeLeaf:
    """Cluster-shaped estimates grow an 'internode-wire' leaf; single-node
    golden trees stay untouched (their inter share is zero)."""

    @staticmethod
    def _cluster_estimate(nodes=4):
        import dataclasses

        from repro.harness.runner import app_spec
        from repro.machine import XEON_MAX_9480, Compiler, Parallelization, RunConfig
        from repro.perfmodel import estimate_app, estimate_comm

        cfg = RunConfig(Compiler.ONEAPI, Parallelization.MPI)
        spec = app_spec("cloverleaf3d")
        est = estimate_app(spec, XEON_MAX_9480, cfg)
        comm = estimate_comm(spec, XEON_MAX_9480, cfg, nodes=nodes)
        n = spec.iterations
        mpi = comm.time_per_iter * n
        return dataclasses.replace(
            est, comm=comm, mpi_time=mpi,
            total_time=est.compute_time + mpi)

    def test_internode_leaf_present(self):
        est = self._cluster_estimate()
        tree = attribute_estimate(est)
        leaves = leaf_index(tree)
        inter = [l for l in leaves.values() if l.kind == "mpi-internode"]
        assert len(inter) == 1
        assert inter[0].name == "internode-wire"
        n = round(est.mpi_time / est.comm.time_per_iter)
        assert inter[0].seconds == pytest.approx(
            est.comm.internode_wire_per_iter * n)

    def test_additivity_holds_on_cluster_tree(self):
        est = self._cluster_estimate()
        tree = attribute_estimate(est)
        assert tree.max_additivity_error() <= 1e-9
        assert math.isclose(tree.leaf_total(), est.total_time,
                            rel_tol=1e-9, abs_tol=0.0)

    def test_single_node_trees_have_no_internode_leaf(self):
        for platform in ALL_PLATFORMS:
            _, tree = _tree("cloverleaf2d", platform)
            kinds = {l.kind for l in leaf_index(tree).values()}
            assert "mpi-internode" not in kinds

    def test_internode_bw_knob_targets_only_the_new_leaf(self):
        est = self._cluster_estimate()
        tree = attribute_estimate(est)
        assert "internode_bw" in WHAT_IF_KNOBS
        scaled = what_if(tree, {"internode_bw": 2.0})
        leaves, new = leaf_index(tree), leaf_index(scaled)
        for path, leaf in leaves.items():
            if leaf.kind == "mpi-internode":
                assert new[path].seconds == pytest.approx(leaf.seconds / 2)
            elif leaf.kind != "group":
                assert new[path].seconds == leaf.seconds

    def test_net_bw_knob_covers_both_wire_leaves(self):
        est = self._cluster_estimate()
        tree = attribute_estimate(est)
        scaled = what_if(tree, {"net_bw": 2.0})
        leaves, new = leaf_index(tree), leaf_index(scaled)
        for path, leaf in leaves.items():
            if leaf.kind in ("mpi-wire", "mpi-internode"):
                assert new[path].seconds == pytest.approx(leaf.seconds / 2)
