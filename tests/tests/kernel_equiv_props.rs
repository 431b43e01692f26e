//! Differential properties for the data-oriented (SoA) hot-path kernels.
//!
//! Every optimized kernel in `scalesim-memory` keeps its original scalar
//! implementation as a twin (`scalesim_memory::scalar`, compiled under the
//! `scalar-twins` feature). This suite drives both sides with identical
//! inputs — random and adversarial — and asserts observational equality:
//!
//! * `IntervalSet` (parallel sorted vectors, binary probes, fused
//!   insert-with-gaps) ≡ `ScalarIntervalSet` (the original `BTreeMap`).
//! * `AddrRuns::extend_runs` (bulk memcpy append) ≡ per-run push loop.
//! * `RunBuffer` (span-batched FIFO) ≡ `DoubleBuffer` (element-granular
//!   FIFO) on real OS/WS/IS demand streams from conv and GEMM layers.
//! * `ReuseProfile::from_runs` (batched per-span Fenwick updates) ≡
//!   `ReuseProfile::from_demands` (element walk) — `from_demands` is the
//!   scalar twin of the run-granular profile.
//! * The production fold loop (arena-pooled buffers, lending demand
//!   iterator, deferred output installs) performs **zero heap allocation**
//!   once warm, measured with a counting global allocator.

use proptest::prelude::*;

use scalesim_memory::scalar::{extend_runs_scalar, ScalarIntervalSet};
use scalesim_memory::{
    AddrRuns, BufferPool, ConvAddressMap, DoubleBuffer, DramModel, GemmAddressMap, IntervalSet,
    OperandBufferSpec, RegionOffsets, ReuseProfile, RunBuffer,
};
use scalesim_systolic::{
    fold_demand_runs, fold_demand_runs_in, ArrayShape, Dataflow, DemandScratch,
};
use scalesim_topology::{ConvLayerBuilder, GemmShape};

// ---------------------------------------------------------------------------
// Counting allocator: thread-local so parallel test threads don't interfere.
// ---------------------------------------------------------------------------

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counter is a plain
// thread-local `Cell<u64>` with const initialization (no lazy allocation,
// no destructor), so the bookkeeping itself never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth may move or extend the block: either way it is heap
        // traffic the steady-state fold loop must not produce.
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    ALLOC_COUNT.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// IntervalSet ≡ ScalarIntervalSet
// ---------------------------------------------------------------------------

/// One mutation step of the differential interval-set walk.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(u64, u64),
    InsertWithGaps(u64, u64),
    RemoveCoveredAt(u64, u64),
}

fn arb_set_op(max_addr: u64) -> impl Strategy<Value = SetOp> {
    let span = move || (0..max_addr, 0u64..24);
    prop_oneof![
        span().prop_map(|(s, l)| SetOp::Insert(s, s + l)),
        span().prop_map(|(s, l)| SetOp::InsertWithGaps(s, s + l)),
        span().prop_map(|(s, l)| SetOp::RemoveCoveredAt(s, l)),
    ]
}

/// Applies `op` to both sets and asserts every observable agrees.
fn step_both(
    soa: &mut IntervalSet,
    scalar: &mut ScalarIntervalSet,
    op: &SetOp,
    probe_to: u64,
) -> Result<(), TestCaseError> {
    match *op {
        SetOp::Insert(s, e) => {
            soa.insert(s, e);
            scalar.insert(s, e);
        }
        SetOp::InsertWithGaps(s, e) => {
            let mut soa_gaps = Vec::new();
            let mut scalar_gaps = Vec::new();
            soa.insert_with_gaps(s, e, |a, b| soa_gaps.push((a, b)));
            scalar.insert_with_gaps(s, e, |a, b| scalar_gaps.push((a, b)));
            prop_assert_eq!(soa_gaps, scalar_gaps, "gap enumeration diverged");
        }
        SetOp::RemoveCoveredAt(s, l) => {
            // Only remove what is actually covered by one span (the
            // documented precondition), trimmed identically on both sides.
            if let Some((_, span_end)) = soa.span_at(s) {
                let e = (s + l).min(span_end);
                if s < e {
                    soa.remove_covered(s, e);
                    scalar.remove_covered(s, e);
                }
            }
        }
    }
    prop_assert_eq!(soa.len(), scalar.len());
    prop_assert_eq!(soa.span_count(), scalar.span_count());
    prop_assert_eq!(
        soa.iter_spans().collect::<Vec<_>>(),
        scalar.iter_spans().collect::<Vec<_>>()
    );
    for probe in (0..probe_to).step_by(3) {
        prop_assert_eq!(
            soa.contains(probe),
            scalar.contains(probe),
            "contains {}",
            probe
        );
        prop_assert_eq!(
            soa.span_at(probe),
            scalar.span_at(probe),
            "span_at {}",
            probe
        );
        prop_assert_eq!(
            soa.first_start_at_or_after(probe),
            scalar.first_start_at_or_after(probe),
            "first_start_at_or_after {}",
            probe
        );
        prop_assert_eq!(
            soa.len_at_or_above(probe),
            scalar.len_at_or_above(probe),
            "len_at_or_above {}",
            probe
        );
    }
    let mut soa_gaps = Vec::new();
    let mut scalar_gaps = Vec::new();
    soa.for_gaps(0, probe_to, |a, b| soa_gaps.push((a, b)));
    scalar.for_gaps(0, probe_to, |a, b| scalar_gaps.push((a, b)));
    prop_assert_eq!(soa_gaps, scalar_gaps, "for_gaps diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences over a dense address range: maximal span
    /// overlap, adjacency, splits and full removals.
    #[test]
    fn interval_set_matches_scalar_twin(
        ops in prop::collection::vec(arb_set_op(180), 1..60),
    ) {
        let mut soa = IntervalSet::new();
        let mut scalar = ScalarIntervalSet::new();
        for op in &ops {
            step_both(&mut soa, &mut scalar, op, 220)?;
        }
    }

    /// The same walk at the u32 boundary: spans straddling `u32::MAX`
    /// exercise the index arithmetic the SoA probes rely on.
    #[test]
    fn interval_set_matches_scalar_twin_at_u32_boundary(
        ops in prop::collection::vec(arb_set_op(120), 1..40),
    ) {
        const BASE: u64 = u32::MAX as u64 - 60;
        let shift = |op: &SetOp| match *op {
            SetOp::Insert(s, e) => SetOp::Insert(BASE + s, BASE + e),
            SetOp::InsertWithGaps(s, e) => SetOp::InsertWithGaps(BASE + s, BASE + e),
            SetOp::RemoveCoveredAt(s, l) => SetOp::RemoveCoveredAt(BASE + s, l),
        };
        let mut soa = IntervalSet::new();
        let mut scalar = ScalarIntervalSet::new();
        for op in &ops {
            // Probing the full shifted range would be slow; spot-check the
            // spans themselves instead of a probe sweep.
            match shift(op) {
                SetOp::Insert(s, e) => {
                    soa.insert(s, e);
                    scalar.insert(s, e);
                }
                SetOp::InsertWithGaps(s, e) => {
                    let mut a_gaps = Vec::new();
                    let mut b_gaps = Vec::new();
                    soa.insert_with_gaps(s, e, |a, b| a_gaps.push((a, b)));
                    scalar.insert_with_gaps(s, e, |a, b| b_gaps.push((a, b)));
                    prop_assert_eq!(a_gaps, b_gaps);
                }
                SetOp::RemoveCoveredAt(s, l) => {
                    if let Some((_, span_end)) = soa.span_at(s) {
                        let e = (s + l).min(span_end);
                        if s < e {
                            soa.remove_covered(s, e);
                            scalar.remove_covered(s, e);
                        }
                    }
                }
            }
            prop_assert_eq!(soa.len(), scalar.len());
            prop_assert_eq!(
                soa.iter_spans().collect::<Vec<_>>(),
                scalar.iter_spans().collect::<Vec<_>>()
            );
        }
    }

    /// Bulk `extend_runs` ≡ the per-run push loop, including the
    /// boundary-coalescing case and empty streams on either side.
    #[test]
    fn extend_runs_matches_scalar_twin(
        left in prop::collection::vec((0u64..300, 0u64..12), 0..12),
        right in prop::collection::vec((0u64..300, 0u64..12), 0..12),
        force_adjacent in (0u64..2).prop_map(|b| b == 1),
    ) {
        let build = |spans: &[(u64, u64)]| {
            let mut runs = AddrRuns::new();
            for &(s, l) in spans {
                runs.push(s, l);
            }
            runs
        };
        let base = build(&left);
        let mut other = build(&right);
        if force_adjacent {
            // Adversarial: make `other` start exactly where `base` ends, so
            // the boundary pair must coalesce.
            if let (Some(last), false) = (
                (!base.is_empty()).then(|| base.run(base.run_count() - 1)),
                other.is_empty(),
            ) {
                let mut adjacent = AddrRuns::new();
                adjacent.push(last.end(), 5);
                adjacent.extend_runs(&other);
                other = adjacent;
            }
        }
        let mut bulk = base.clone();
        bulk.extend_runs(&other);
        let mut scalar = base.clone();
        extend_runs_scalar(&mut scalar, &other);
        prop_assert_eq!(&bulk, &scalar, "streams diverged");
        prop_assert_eq!(bulk.element_count(), scalar.element_count());
        prop_assert_eq!(
            bulk.iter_elements().collect::<Vec<_>>(),
            scalar.iter_elements().collect::<Vec<_>>()
        );
    }

    /// Run-granular Mattson profile ≡ the element-walk twin on random
    /// overlapping interval streams.
    #[test]
    fn reuse_from_runs_matches_element_twin(
        spans in prop::collection::vec((0u64..80, 1u64..30), 1..20),
    ) {
        let mut runs = AddrRuns::new();
        for &(s, l) in &spans {
            runs.push(s, l);
        }
        let by_runs = ReuseProfile::from_runs(&runs);
        let by_elems = ReuseProfile::from_demands(runs.iter_elements());
        prop_assert_eq!(by_runs, by_elems);
    }
}

/// Deterministic adversarial span sets: exact adjacency chains, zero-length
/// inserts, nested overlaps, and total coverage collapse.
#[test]
fn interval_set_adversarial_cases_match_scalar_twin() {
    let cases: &[&[SetOp]] = &[
        // Zero-length operations are no-ops on both sides.
        &[
            SetOp::Insert(5, 5),
            SetOp::InsertWithGaps(7, 7),
            SetOp::Insert(5, 6),
            SetOp::RemoveCoveredAt(5, 0),
        ],
        // Adjacency chain collapsing to one span, built in reverse.
        &[
            SetOp::Insert(40, 50),
            SetOp::Insert(30, 40),
            SetOp::Insert(20, 30),
            SetOp::Insert(10, 20),
            SetOp::InsertWithGaps(0, 60),
        ],
        // A comb of single-address spans bridged by one big insert.
        &[
            SetOp::Insert(0, 1),
            SetOp::Insert(2, 3),
            SetOp::Insert(4, 5),
            SetOp::Insert(6, 7),
            SetOp::Insert(8, 9),
            SetOp::InsertWithGaps(0, 9),
        ],
        // Remove the middle of a span, then re-bridge it.
        &[
            SetOp::Insert(0, 100),
            SetOp::RemoveCoveredAt(30, 40),
            SetOp::InsertWithGaps(20, 80),
            SetOp::RemoveCoveredAt(0, 100),
        ],
    ];
    for (i, ops) in cases.iter().enumerate() {
        let mut soa = IntervalSet::new();
        let mut scalar = ScalarIntervalSet::new();
        for op in *ops {
            step_both(&mut soa, &mut scalar, op, 110).unwrap_or_else(|e| {
                panic!("case {i}, op {op:?}: {e:?}");
            });
        }
    }
}

// ---------------------------------------------------------------------------
// RunBuffer ≡ DoubleBuffer on real demand streams
// ---------------------------------------------------------------------------

/// Feeds each operand stream of every fold through a RunBuffer and its
/// element-granular twin, asserting identical stats and residency per fold.
fn check_buffers_match_on(
    dims: &scalesim_topology::MappedDims,
    array: ArrayShape,
    map: &(impl scalesim_memory::AddressMap + ?Sized),
    capacity: u64,
) {
    // One buffer pair per operand stream, as in the DRAM model.
    let mut pairs: Vec<(RunBuffer, DoubleBuffer)> = (0..4)
        .map(|_| {
            (
                RunBuffer::new(capacity),
                DoubleBuffer::new(capacity as usize),
            )
        })
        .collect();
    for (fold_no, demand) in fold_demand_runs(dims, array, map).enumerate() {
        let streams = [&demand.a, &demand.b, &demand.o_spill, &demand.o_writes];
        for (which, (runs_buf, elems_buf)) in streams.iter().zip(pairs.iter_mut()) {
            let mut misses = AddrRuns::new();
            let rs = runs_buf.epoch_with_misses(which, &mut misses);
            let (es, elem_misses) = elems_buf.epoch_with_misses(which.iter_elements());
            assert_eq!(rs, es, "fold {fold_no}: epoch stats diverged");
            assert_eq!(
                misses.iter_elements().collect::<Vec<_>>(),
                elem_misses,
                "fold {fold_no}: miss order diverged"
            );
            assert_eq!(runs_buf.resident_count(), elems_buf.resident_count() as u64);
        }
        // The O-write stream also exercises the install (write-allocate)
        // path, as `DramModel::fold_runs` uses it.
        let (runs_buf, elems_buf) = &mut pairs[3];
        let rb_ev = runs_buf.install(&demand.o_writes);
        let mut db_ev = 0;
        for addr in demand.o_writes.iter_elements() {
            db_ev += elems_buf.install(addr);
        }
        assert_eq!(rb_ev, db_ev, "fold {fold_no}: install evictions diverged");
        assert_eq!(runs_buf.resident_count(), elems_buf.resident_count() as u64);
    }
}

#[test]
fn run_buffer_matches_double_buffer_gemm_all_dataflows() {
    let shape = GemmShape::new(24, 18, 20);
    let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
    for df in Dataflow::ALL {
        let dims = shape.project(df);
        for capacity in [0u64, 7, 64, 100_000] {
            check_buffers_match_on(&dims, ArrayShape::new(8, 4), &map, capacity);
        }
    }
}

#[test]
fn run_buffer_matches_double_buffer_conv_all_dataflows() {
    let layer = ConvLayerBuilder::new("t")
        .ifmap(12, 12)
        .filter(3, 3)
        .channels(3)
        .num_filters(4)
        .stride(1)
        .build()
        .unwrap();
    let map = ConvAddressMap::new(&layer, RegionOffsets::default());
    for df in Dataflow::ALL {
        let dims = layer.shape().project(df);
        for capacity in [5u64, 33, 50_000] {
            check_buffers_match_on(&dims, ArrayShape::new(4, 8), &map, capacity);
        }
    }
}

// ---------------------------------------------------------------------------
// Deferred O-install equivalence
// ---------------------------------------------------------------------------

/// `DramModel::fold_runs` defers OFMAP installs until a spill probes the
/// buffer. Interleave spill-free and spilling folds (including back-to-back
/// spills and a trailing deferred tail) and check the deferred model
/// against an *eager* element-granular OFMAP buffer that installs every
/// write the moment it is produced.
#[test]
fn deferred_o_installs_match_eager_element_path() {
    let spec = |bytes: u64| OperandBufferSpec {
        size_bytes: bytes,
        word_bytes: 1,
    };
    // Tiny OFMAP buffer so installs evict aggressively.
    let mut deferred = DramModel::new(spec(1024), spec(1024), spec(24));
    let mut eager_o = DoubleBuffer::new(24);
    for step in 0..12u64 {
        let writes: Vec<u64> = (step * 10..step * 10 + 10).collect();
        // Two of every three folds spill a window reaching back two folds;
        // consecutive spills exercise the flushed-then-empty pending state.
        let spill: Vec<u64> = if step % 3 != 0 && step > 0 {
            ((step * 10).saturating_sub(15)..step * 10 + 5).collect()
        } else {
            Vec::new()
        };
        let eager_stats = eager_o.epoch(spill.iter().copied());
        for &addr in &writes {
            eager_o.install(addr);
        }
        let a_runs: AddrRuns = (0..30u64).collect();
        let spill_runs: AddrRuns = spill.into_iter().collect();
        let write_runs: AddrRuns = writes.into_iter().collect();
        let traffic = deferred.fold_runs(7, &a_runs, &AddrRuns::new(), &spill_runs, &write_runs);
        assert_eq!(
            traffic.o_spill_misses, eager_stats.misses,
            "fold {step}: spill misses diverged from eager install"
        );
    }
}

// ---------------------------------------------------------------------------
// Zero steady-state allocation in the fold loop
// ---------------------------------------------------------------------------

/// Runs one layer's fold loop exactly as the simulator does (pooled
/// buffers, lending iterator, reclaimed demand scratch) and returns the
/// allocations it performed.
fn fold_loop_allocations(
    dims: &scalesim_topology::MappedDims,
    array: ArrayShape,
    map: &(impl scalesim_memory::AddressMap + ?Sized),
    specs: (OperandBufferSpec, OperandBufferSpec, OperandBufferSpec),
    pool: &mut BufferPool,
    scratch: DemandScratch,
) -> (u64, DemandScratch) {
    let before = allocations_on_this_thread();
    let mut dram = DramModel::new_in(specs.0, specs.1, specs.2, pool);
    let mut demands = fold_demand_runs_in(dims, array, map, scratch);
    while let Some(demand) = demands.next_fold() {
        dram.fold_runs(
            demand.fold.duration,
            &demand.a,
            &demand.b,
            &demand.o_spill,
            &demand.o_writes,
        );
    }
    let scratch = demands.into_scratch();
    let _ = dram.finish_into(pool);
    (allocations_on_this_thread() - before, scratch)
}

/// Warms a fresh pool and scratch on one layer, then asserts a third pass
/// over the same layer allocates nothing.
fn assert_warm_fold_loop_is_allocation_free(
    what: &str,
    dims: &scalesim_topology::MappedDims,
    array: ArrayShape,
    map: &(impl scalesim_memory::AddressMap + ?Sized),
) {
    let spec = |kb: u64| OperandBufferSpec::from_kb(kb, 1);
    let specs = (spec(4), spec(4), spec(2));
    let mut pool = BufferPool::new();
    let mut scratch = DemandScratch::default();
    // Two warm-up passes: scratch buffers cycle through the LIFO pool and
    // reach their high-water marks.
    for _ in 0..2 {
        (_, scratch) = fold_loop_allocations(dims, array, map, specs, &mut pool, scratch);
    }
    let (allocs, _) = fold_loop_allocations(dims, array, map, specs, &mut pool, scratch);
    assert_eq!(allocs, 0, "{what}: warm fold loop must not touch the heap");
}

#[test]
fn fold_loop_is_allocation_free_after_warmup() {
    // WS and IS exercise the spill path (real flushes of deferred
    // installs); OS exercises pure deferral; OS and WS also reuse the
    // per-row-fold A cache across column folds. The conv map adds
    // window-overlap dedup to the A stream. All must be allocation-free
    // once warm.
    let shape = GemmShape::new(96, 64, 80);
    let gemm = GemmAddressMap::from_shape(shape, RegionOffsets::default());
    let layer = ConvLayerBuilder::new("alloc")
        .ifmap(14, 14)
        .filter(3, 3)
        .channels(8)
        .num_filters(24)
        .build()
        .unwrap();
    let conv = ConvAddressMap::new(&layer, RegionOffsets::default());
    for df in Dataflow::ALL {
        let array = ArrayShape::square(8);
        let dims = shape.project(df);
        assert_warm_fold_loop_is_allocation_free(&format!("GEMM {df:?}"), &dims, array, &gemm);
        let dims = layer.shape().project(df);
        assert_warm_fold_loop_is_allocation_free(&format!("conv {df:?}"), &dims, array, &conv);
    }
}
