"""Workload spec and trace-generation tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.isa import ComputeOp, LoadOp, StoreOp
from repro.workloads import (
    Category,
    POLYBENCH,
    WorkloadSpec,
    all_workloads,
    generate_traces,
    workload,
    workloads_in,
)
from repro.workloads.trace import BLOCK_BYTES, OUTPUT_BASE


class TestSuiteTable:
    def test_fifteen_workloads(self):
        assert len(POLYBENCH) == 15

    def test_paper_category_assignments(self):
        read = {w.name for w in workloads_in(Category.READ_INTENSIVE)}
        assert read == {"durbin", "dynpro", "gemver", "trisolv"}
        write = {w.name for w in workloads_in(Category.WRITE_INTENSIVE)}
        assert write == {"chol", "doitg", "lu", "seidel"}
        compute = {w.name for w in workloads_in(Category.COMPUTE_INTENSIVE)}
        assert compute == {"adi", "fdtdap", "floyd"}
        memory = {w.name for w in workloads_in(Category.MEMORY_INTENSIVE)}
        assert memory == {"jaco1D", "jaco2D", "regd", "trmm"}

    def test_write_intensive_have_high_write_ratios(self):
        for spec in workloads_in(Category.WRITE_INTENSIVE):
            assert spec.write_ratio >= 0.4, spec.name
            assert spec.is_write_heavy

    def test_read_intensive_have_low_write_ratios(self):
        for spec in workloads_in(Category.READ_INTENSIVE):
            assert spec.write_ratio <= 0.15, spec.name
            assert not spec.is_write_heavy

    def test_compute_intensive_have_high_ops_per_byte(self):
        floor = max(s.compute_ops_per_byte for s in all_workloads()
                    if s.category is not Category.COMPUTE_INTENSIVE)
        for spec in workloads_in(Category.COMPUTE_INTENSIVE):
            assert spec.compute_ops_per_byte > floor

    def test_memory_intensive_have_largest_footprints(self):
        memory_min = min(s.total_kb
                         for s in workloads_in(Category.MEMORY_INTENSIVE))
        read_max = max(s.total_kb
                       for s in workloads_in(Category.READ_INTENSIVE))
        assert memory_min > read_max

    def test_lookup_by_name(self):
        assert workload("gemver").name == "gemver"
        with pytest.raises(KeyError):
            workload("nonsense")

    def test_all_workloads_sorted(self):
        names = [w.name for w in all_workloads()]
        assert names == sorted(names)


class TestSpecValidation:
    def test_bad_footprint(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", "x", Category.READ_INTENSIVE,
                         input_kb=0, output_kb=0, compute_ops_per_byte=1.0)

    def test_bad_intensity(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", "x", Category.READ_INTENSIVE,
                         input_kb=1, output_kb=0, compute_ops_per_byte=0.0)

    def test_bad_reuse(self):
        with pytest.raises(ValueError):
            WorkloadSpec("x", "x", Category.READ_INTENSIVE,
                         input_kb=1, output_kb=0,
                         compute_ops_per_byte=1.0, reuse_factor=1.0)


class TestTraceGeneration:
    def test_deterministic_for_same_seed(self):
        spec = workload("gemver")
        a = generate_traces(spec, agents=3, scale=0.1, seed=7)
        b = generate_traces(spec, agents=3, scale=0.1, seed=7)
        assert a.traces == b.traces

    def test_different_seeds_differ_for_irregular(self):
        spec = workload("trmm")  # shuffled order
        a = generate_traces(spec, agents=2, scale=0.1, seed=1)
        b = generate_traces(spec, agents=2, scale=0.1, seed=2)
        assert a.traces != b.traces

    def test_regions_match_footprint(self):
        spec = workload("doitg")
        bundle = generate_traces(spec, agents=7, scale=1.0)
        assert bundle.input_region[0] == 0
        assert bundle.input_bytes == pytest.approx(
            spec.input_kb * 1024, rel=0.05)
        assert bundle.output_region[0] == OUTPUT_BASE
        assert bundle.output_bytes == pytest.approx(
            spec.output_kb * 1024, rel=0.05)

    def test_loads_stay_in_input_region(self):
        bundle = generate_traces(workload("gemver"), agents=4, scale=0.2)
        lo, size = bundle.input_region
        for trace in bundle.traces:
            for op in trace:
                if isinstance(op, LoadOp):
                    assert lo <= op.address < lo + size

    def test_stores_stay_in_output_region(self):
        bundle = generate_traces(workload("doitg"), agents=4, scale=0.2)
        lo, size = bundle.output_region
        for trace in bundle.traces:
            for op in trace:
                if isinstance(op, StoreOp):
                    assert lo <= op.address < lo + size

    def test_every_output_block_stored_exactly_once(self):
        bundle = generate_traces(workload("seidel"), agents=3, scale=0.2)
        stored = []
        for trace in bundle.traces:
            stored += [op.address for op in trace
                       if isinstance(op, StoreOp)]
        assert len(stored) == len(set(stored))
        assert len(stored) == bundle.output_bytes // BLOCK_BYTES

    def test_agents_cover_disjoint_input_slices(self):
        bundle = generate_traces(workload("jaco1D"), agents=4, scale=0.2)
        seen = [set() for _ in bundle.traces]
        for i, trace in enumerate(bundle.traces):
            for op in trace:
                if isinstance(op, LoadOp):
                    seen[i].add(op.address // BLOCK_BYTES)
        for i in range(len(seen)):
            for j in range(i + 1, len(seen)):
                assert not (seen[i] & seen[j])

    def test_sequential_workload_preserves_order(self):
        bundle = generate_traces(workload("gemver"), agents=1, scale=0.1)
        loads = [op.address for op in bundle.traces[0]
                 if isinstance(op, LoadOp)]
        fresh = sorted(set(loads))
        first_occurrences = []
        seen = set()
        for address in loads:
            if address not in seen:
                seen.add(address)
                first_occurrences.append(address)
        # First touches happen in ascending address order.
        assert first_occurrences == fresh

    def test_compute_ops_scale_with_intensity(self):
        light = generate_traces(workload("jaco1D"), agents=1, scale=0.1)
        heavy = generate_traces(workload("fdtdap"), agents=1, scale=0.1)

        def ops_per_load(bundle):
            compute = sum(op.scalar_ops for op in bundle.traces[0]
                          if isinstance(op, ComputeOp))
            loads = sum(1 for op in bundle.traces[0]
                        if isinstance(op, LoadOp))
            return compute / loads

        assert ops_per_load(heavy) > ops_per_load(light) * 4

    def test_validation(self):
        spec = workload("gemver")
        with pytest.raises(ValueError):
            generate_traces(spec, agents=0)
        with pytest.raises(ValueError):
            generate_traces(spec, scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be finite"):
            generate_traces(workload("gemver"), scale=scale)

    @given(st.sampled_from(sorted(POLYBENCH)),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_trace_volume_conservation_property(self, name, agents):
        """Loads cover the whole input, stores the whole output,
        regardless of agent count."""
        bundle = generate_traces(workload(name), agents=agents, scale=0.05)
        loaded = set()
        stored = 0
        for trace in bundle.traces:
            for op in trace:
                if isinstance(op, LoadOp):
                    loaded.add(op.address // BLOCK_BYTES)
                elif isinstance(op, StoreOp):
                    stored += 1
        assert len(loaded) == bundle.input_bytes // BLOCK_BYTES
        assert stored == bundle.output_bytes // BLOCK_BYTES
