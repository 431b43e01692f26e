//! Fold-granular demand streams for the DRAM model.
//!
//! The double-buffered DRAM model (in `scalesim-memory`) only needs to know,
//! per fold: how long the fold computes and which *unique* addresses it
//! touches, in first-use order. Enumerating that directly is orders of
//! magnitude cheaper than generating the full per-cycle trace, and the test
//! suite proves the two views consistent (every address a fold demands here
//! appears in its trace window, and vice versa).

use scalesim_memory::{AddrRuns, AddrSet, AddressMap, IntervalSet};
use scalesim_topology::{Dataflow, MappedDims};

use crate::fold::{Fold, FoldPlan};
use crate::ArrayShape;

/// One fold's memory demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldDemand {
    /// The fold this demand belongs to.
    pub fold: Fold,
    /// Unique operand-A (IFMAP) addresses, first-use order.
    pub a: Vec<u64>,
    /// Unique operand-B (filter) addresses, first-use order.
    pub b: Vec<u64>,
    /// Partial-sum addresses re-read for accumulation (WS/IS row folds
    /// beyond the first; empty otherwise).
    pub o_spill: Vec<u64>,
    /// Output addresses written by this fold.
    pub o_writes: Vec<u64>,
}

/// Iterator over the per-fold demands of a workload. Created by
/// [`fold_demands`].
#[derive(Debug)]
pub struct FoldDemands<'a, M: ?Sized> {
    dims: MappedDims,
    map: &'a M,
    plan: FoldPlan,
}

/// Enumerates each fold's unique address demand for `dims` on `array`.
///
/// ```
/// use scalesim_systolic::{fold_demands, ArrayShape};
/// use scalesim_memory::{GemmAddressMap, RegionOffsets};
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let shape = GemmShape::new(8, 4, 8);
/// let dims = shape.project(Dataflow::OutputStationary);
/// let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
/// let folds: Vec<_> = fold_demands(&dims, ArrayShape::square(4), &map).collect();
/// assert_eq!(folds.len(), 4);
/// assert_eq!(folds[0].a.len(), 4 * 4); // 4 rows x T=4 unique elements
/// ```
pub fn fold_demands<'a, M: AddressMap + ?Sized>(
    dims: &MappedDims,
    array: ArrayShape,
    map: &'a M,
) -> FoldDemands<'a, M> {
    FoldDemands {
        dims: *dims,
        map,
        plan: FoldPlan::new(dims, array),
    }
}

impl<'a, M: AddressMap + ?Sized> Iterator for FoldDemands<'a, M> {
    type Item = FoldDemand;

    fn next(&mut self) -> Option<FoldDemand> {
        let fold = self.plan.next()?;
        Some(demand_for_fold(&self.dims, &fold, self.map))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.plan.size_hint()
    }
}

impl<'a, M: AddressMap + ?Sized> ExactSizeIterator for FoldDemands<'a, M> {}

/// Pushes `addr` if it has not been seen yet (first-use-order dedup).
fn push_unique(seen: &mut AddrSet, out: &mut Vec<u64>, addr: u64) {
    if seen.insert(addr) {
        out.push(addr);
    }
}

fn demand_for_fold<M: AddressMap + ?Sized>(dims: &MappedDims, fold: &Fold, map: &M) -> FoldDemand {
    let t = dims.temporal;
    let ru = fold.rows_used;
    let cu = fold.cols_used;
    let mut a = Vec::new();
    let mut b = Vec::new();
    let mut o_spill = Vec::new();
    let mut o_writes = Vec::new();
    // Only IFMAP-side (operand A) addresses can repeat within a fold
    // (convolution window overlap); B and O coordinates are distinct by
    // construction, so they skip the dedup set.
    let mut a_seen = AddrSet::default();

    match dims.dataflow {
        Dataflow::OutputStationary => {
            for i in 0..ru {
                let m = fold.row_base + i;
                for k in 0..t {
                    push_unique(&mut a_seen, &mut a, map.a(m, k));
                }
            }
            for j in 0..cu {
                let n = fold.col_base + j;
                for k in 0..t {
                    b.push(map.b(k, n));
                }
            }
            for i in 0..ru {
                let m = fold.row_base + i;
                for j in 0..cu {
                    o_writes.push(map.o(m, fold.col_base + j));
                }
            }
        }
        Dataflow::WeightStationary => {
            let k_base = fold.row_base;
            let n_base = fold.col_base;
            for i in 0..ru {
                for j in 0..cu {
                    b.push(map.b(k_base + i, n_base + j));
                }
            }
            for mt in 0..t {
                for i in 0..ru {
                    push_unique(&mut a_seen, &mut a, map.a(mt, k_base + i));
                }
            }
            let spill = fold.fr > 0;
            for mt in 0..t {
                for j in 0..cu {
                    let addr = map.o(mt, n_base + j);
                    if spill {
                        o_spill.push(addr);
                    }
                    o_writes.push(addr);
                }
            }
        }
        Dataflow::InputStationary => {
            let k_base = fold.row_base;
            let m_base = fold.col_base;
            for j in 0..cu {
                for i in 0..ru {
                    push_unique(&mut a_seen, &mut a, map.a(m_base + j, k_base + i));
                }
            }
            for nt in 0..t {
                for i in 0..ru {
                    b.push(map.b(k_base + i, nt));
                }
            }
            let spill = fold.fr > 0;
            for nt in 0..t {
                for j in 0..cu {
                    let addr = map.o(m_base + j, nt);
                    if spill {
                        o_spill.push(addr);
                    }
                    o_writes.push(addr);
                }
            }
        }
    }

    FoldDemand {
        fold: *fold,
        a,
        b,
        o_spill,
        o_writes,
    }
}

/// One fold's memory demand in run-length-compressed form — the hot-path
/// equivalent of [`FoldDemand`]. Produced by [`fold_demand_runs`].
///
/// The **A** stream carries *real* IFMAP addresses (convolution window
/// overlap — the reuse the DRAM model measures — lives in the real address
/// structure), deduplicated to first-use order exactly like the legacy
/// enumeration. Under OS and WS it depends only on the row fold, so the
/// iterator builds it once per row fold and copies it into every later
/// column fold.
///
/// The **B** and **O** streams carry *fold-blocked canonical labels*
/// rather than real addresses: each fold owns one contiguous block of
/// labels and walks it in ascending order, so every B, `o_spill` and
/// `o_writes` stream is exactly one run. The address-map contract
/// guarantees B and O coordinates map to distinct real addresses, so the
/// relabeling is a bijection applied consistently across the layer — and
/// FIFO buffer hit/miss/eviction counts depend only on the equality
/// pattern of the stream, not on the address values. The resulting
/// [`DramSummary`](scalesim_memory::DramSummary) is therefore identical to
/// the legacy element path (the workspace equivalence property suite pins
/// this). Real-address consumers (trace export) keep using
/// [`fold_demands`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldDemandRuns {
    /// The fold this demand belongs to.
    pub fold: Fold,
    /// Unique operand-A (IFMAP) address runs, real addresses, first-use
    /// order.
    pub a: AddrRuns,
    /// Operand-B (filter) demand runs, canonical labels.
    pub b: AddrRuns,
    /// Partial-sum re-read runs (WS/IS row folds beyond the first),
    /// canonical labels shared with `o_writes`.
    pub o_spill: AddrRuns,
    /// Output write runs, canonical labels.
    pub o_writes: AddrRuns,
}

impl FoldDemandRuns {
    /// Total demanded elements across all four streams.
    pub fn element_count(&self) -> u64 {
        self.a.element_count()
            + self.b.element_count()
            + self.o_spill.element_count()
            + self.o_writes.element_count()
    }

    /// Total runs across all four streams.
    pub fn run_count(&self) -> u64 {
        (self.a.run_count()
            + self.b.run_count()
            + self.o_spill.run_count()
            + self.o_writes.run_count()) as u64
    }

    /// Empties all four streams, keeping their allocations — the reset
    /// used by [`FoldDemandsRuns::next_into`] scratch reuse.
    pub fn clear(&mut self) {
        self.a.clear();
        self.b.clear();
        self.o_spill.clear();
        self.o_writes.clear();
    }
}

impl Default for FoldDemandRuns {
    /// An empty demand attached to a zeroed placeholder fold — scratch
    /// state for [`FoldDemandsRuns::next_into`], which overwrites it.
    fn default() -> FoldDemandRuns {
        FoldDemandRuns {
            fold: Fold {
                fr: 0,
                fc: 0,
                row_base: 0,
                col_base: 0,
                rows_used: 0,
                cols_used: 0,
                base_cycle: 0,
                duration: 0,
            },
            a: AddrRuns::new(),
            b: AddrRuns::new(),
            o_spill: AddrRuns::new(),
            o_writes: AddrRuns::new(),
        }
    }
}

/// Reusable scratch for [`FoldDemandsRuns`]: the fold's demand streams,
/// filled in place, plus the A stream's dedup state and per-row-fold
/// cache. Loan it to [`fold_demand_runs_in`] and take it back with
/// [`FoldDemandsRuns::into_scratch`], so repeated layer simulations on one
/// worker reuse the grown storage and the fold loop allocates nothing in
/// steady state.
#[derive(Debug, Default)]
pub struct DemandScratch {
    /// The current fold's demand, filled by [`FoldDemandsRuns::next_fold`].
    demand: FoldDemandRuns,
    /// First-use dedup set for the A stream.
    a_seen: IntervalSet,
    /// Raw `a_span` output before dedup.
    a_span: AddrRuns,
    /// The A stream last built — once per row fold under OS and WS (by
    /// its first column fold), once per fold under IS — and copied into
    /// each fold's demand.
    a_row: AddrRuns,
}

/// Iterator over run-compressed per-fold demands. Created by
/// [`fold_demand_runs`].
#[derive(Debug)]
pub struct FoldDemandsRuns<'a, M: ?Sized> {
    dims: MappedDims,
    map: &'a M,
    plan: FoldPlan,
    scratch: DemandScratch,
}

/// Enumerates each fold's demand as address runs — the run-compressed
/// counterpart of [`fold_demands`], feeding
/// [`DramModel::fold_runs`](scalesim_memory::DramModel::fold_runs).
///
/// ```
/// use scalesim_systolic::{fold_demand_runs, ArrayShape};
/// use scalesim_memory::{GemmAddressMap, RegionOffsets};
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let shape = GemmShape::new(8, 4, 8);
/// let dims = shape.project(Dataflow::OutputStationary);
/// let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
/// let folds: Vec<_> = fold_demand_runs(&dims, ArrayShape::square(4), &map).collect();
/// assert_eq!(folds.len(), 4);
/// assert_eq!(folds[0].a.element_count(), 4 * 4); // 4 rows x T=4 elements
/// assert_eq!(folds[0].a.run_count(), 1); // ... adjacent rows fuse to one run
/// assert_eq!(folds[0].o_writes.run_count(), 1); // one label block per fold
/// ```
pub fn fold_demand_runs<'a, M: AddressMap + ?Sized>(
    dims: &MappedDims,
    array: ArrayShape,
    map: &'a M,
) -> FoldDemandsRuns<'a, M> {
    fold_demand_runs_in(dims, array, map, DemandScratch::default())
}

/// [`fold_demand_runs`] with caller-provided scratch, so repeated layer
/// simulations on one worker reuse the grown storage. Reclaim it with
/// [`FoldDemandsRuns::into_scratch`] when the iterator is exhausted.
pub fn fold_demand_runs_in<'a, M: AddressMap + ?Sized>(
    dims: &MappedDims,
    array: ArrayShape,
    map: &'a M,
    scratch: DemandScratch,
) -> FoldDemandsRuns<'a, M> {
    FoldDemandsRuns {
        dims: *dims,
        map,
        plan: FoldPlan::new(dims, array),
        scratch,
    }
}

impl<'a, M: AddressMap + ?Sized> FoldDemandsRuns<'a, M> {
    /// Produces the next fold's demand in the iterator's own scratch and
    /// lends it out; `None` when the plan is exhausted.
    ///
    /// This is the hot-path form of the [`Iterator`] impl: the simulator
    /// fold loop reuses one [`DemandScratch`] for the whole layer, so
    /// steady-state demand generation performs no heap allocation.
    pub fn next_fold(&mut self) -> Option<&FoldDemandRuns> {
        let fold = self.plan.next()?;
        let DemandScratch {
            demand,
            a_seen,
            a_span,
            a_row,
        } = &mut self.scratch;
        demand.clear();
        fill_demand_runs_for_fold(&self.dims, &fold, self.map, a_seen, a_span, a_row, demand);
        Some(demand)
    }

    /// [`next_fold`](Self::next_fold) into caller-owned scratch instead:
    /// returns `false` when the plan is exhausted (leaving `out` cleared).
    pub fn next_into(&mut self, out: &mut FoldDemandRuns) -> bool {
        out.clear();
        let Some(fold) = self.plan.next() else {
            return false;
        };
        let DemandScratch {
            a_seen,
            a_span,
            a_row,
            ..
        } = &mut self.scratch;
        fill_demand_runs_for_fold(&self.dims, &fold, self.map, a_seen, a_span, a_row, out);
        true
    }

    /// Returns the scratch for reuse by the next layer's iterator — the
    /// counterpart of [`fold_demand_runs_in`].
    pub fn into_scratch(self) -> DemandScratch {
        self.scratch
    }
}

impl<'a, M: AddressMap + ?Sized> Iterator for FoldDemandsRuns<'a, M> {
    type Item = FoldDemandRuns;

    fn next(&mut self) -> Option<FoldDemandRuns> {
        let mut out = FoldDemandRuns::default();
        self.next_into(&mut out).then_some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.plan.size_hint()
    }
}

impl<'a, M: AddressMap + ?Sized> ExactSizeIterator for FoldDemandsRuns<'a, M> {}

/// Appends `A[m][k0..k0+len]` to `out`, deduplicated against `seen`
/// (first-use order): each maximal novel sub-range of each span run is
/// emitted in ascending `k` order — exactly the order the element-wise
/// `push_unique` loop produces.
fn push_a_dedup<M: AddressMap + ?Sized>(
    map: &M,
    m: u64,
    k0: u64,
    len: u64,
    seen: &mut IntervalSet,
    span: &mut AddrRuns,
    out: &mut AddrRuns,
) {
    span.clear();
    map.a_span(m, k0, len, span);
    for run in span.iter_runs() {
        // Fused probe: enumerate the novel sub-ranges and mark them seen
        // with one binary search over the dedup set.
        seen.insert_with_gaps(run.start, run.end(), |s, e| out.push(s, e - s));
    }
}

/// Fills `out` with the fold's demand. `out` must be cleared by the
/// caller; its stream buffers (and the A scratch) are reused across folds
/// so the generator allocates nothing in steady state.
///
/// A keeps real addresses. Under OS and WS it depends only on the row
/// fold, so the first column fold (`fc == 0`, which the row-major plan
/// always visits first) dedups it into `a_row` and every column fold
/// copies that with one `extend_runs`; IS dedups a fresh A every fold.
///
/// B and O use fold-blocked labels (T = temporal, SR/SC = spatial
/// rows/cols, ru/cu = the fold's rows/cols used): each fold's coordinates
/// map onto one contiguous, ascending label block, disjoint from every
/// other fold's block of the same operand.
///
/// | Dataflow | B `(k, n)` | O `(m, n)` |
/// |---|---|---|
/// | OS | `n·T + k` | `row_base·SC + col_base·ru + (m−row_base)·cu + (n−col_base)` |
/// | WS | `n_base·SR + k·cu + (n−n_base)` | `n_base·T + m·cu + (n−n_base)` |
/// | IS | `k_base·T + n·ru + (k−k_base)` | `m_base·T + n·cu + (m−m_base)` |
fn fill_demand_runs_for_fold<M: AddressMap + ?Sized>(
    dims: &MappedDims,
    fold: &Fold,
    map: &M,
    a_seen: &mut IntervalSet,
    a_span: &mut AddrRuns,
    a_row: &mut AddrRuns,
    out: &mut FoldDemandRuns,
) {
    let t = dims.temporal;
    let ru = fold.rows_used;
    let cu = fold.cols_used;
    out.fold = *fold;

    // A: real addresses. Under OS and WS they depend only on the row fold,
    // so only its first column fold rebuilds them; IS rebuilds every fold.
    if fold.fc == 0 || dims.dataflow == Dataflow::InputStationary {
        a_row.clear();
        a_seen.clear();
        match dims.dataflow {
            // Loop (i, k) over A[row_base+i][k]: one span per row.
            Dataflow::OutputStationary => {
                for i in 0..ru {
                    push_a_dedup(map, fold.row_base + i, 0, t, a_seen, a_span, a_row);
                }
            }
            // Loop (mt, i) over A[mt][k_base+i].
            Dataflow::WeightStationary => {
                for mt in 0..t {
                    push_a_dedup(map, mt, fold.row_base, ru, a_seen, a_span, a_row);
                }
            }
            // Loop (j, i) over A[m_base+j][k_base+i].
            Dataflow::InputStationary => {
                for j in 0..cu {
                    let m = fold.col_base + j;
                    push_a_dedup(map, m, fold.row_base, ru, a_seen, a_span, a_row);
                }
            }
        }
    }
    out.a.extend_runs(a_row);

    // B and O: one label block per fold (see the table above).
    let ((b_start, b_len), (o_start, o_len)) = match dims.dataflow {
        Dataflow::OutputStationary => (
            (fold.col_base * t, cu * t),
            (
                fold.row_base * dims.spatial_cols + fold.col_base * ru,
                ru * cu,
            ),
        ),
        Dataflow::WeightStationary => (
            (
                fold.col_base * dims.spatial_rows + fold.row_base * cu,
                ru * cu,
            ),
            (fold.col_base * t, t * cu),
        ),
        Dataflow::InputStationary => ((fold.row_base * t, ru * t), (fold.col_base * t, t * cu)),
    };
    out.b.push(b_start, b_len);
    // WS/IS row folds beyond the first re-read the partial sums they
    // accumulate into; OS never spills.
    if fold.fr > 0 && dims.dataflow != Dataflow::OutputStationary {
        out.o_spill.push(o_start, o_len);
    }
    out.o_writes.push(o_start, o_len);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use crate::trace::TraceSink;
    use scalesim_memory::{ConvAddressMap, GemmAddressMap, RegionOffsets};
    use scalesim_topology::{ConvLayer, GemmShape};
    use std::collections::HashSet;

    /// Unique addresses per stream: (a_reads, b_reads, o_reads, o_writes).
    type StreamSets = (HashSet<u64>, HashSet<u64>, HashSet<u64>, HashSet<u64>);

    /// A sink that collects the unique addresses per fold, for comparing
    /// against the demand iterator.
    #[derive(Default)]
    struct DemandCollector {
        current: Option<StreamSets>,
        folds: Vec<StreamSets>,
    }

    impl TraceSink for DemandCollector {
        fn fold_begin(&mut self, _fold: &Fold) {
            self.current = Some(Default::default());
        }
        fn read_a(&mut self, _cycle: u64, addr: u64) {
            self.current.as_mut().unwrap().0.insert(addr);
        }
        fn read_b(&mut self, _cycle: u64, addr: u64) {
            self.current.as_mut().unwrap().1.insert(addr);
        }
        fn read_o(&mut self, _cycle: u64, addr: u64) {
            self.current.as_mut().unwrap().2.insert(addr);
        }
        fn write_o(&mut self, _cycle: u64, addr: u64) {
            self.current.as_mut().unwrap().3.insert(addr);
        }
        fn fold_end(&mut self, _fold: &Fold) {
            self.folds.push(self.current.take().unwrap());
        }
    }

    fn check_demands_match_trace<M: AddressMap>(dims: &MappedDims, array: ArrayShape, map: &M) {
        let mut collector = DemandCollector::default();
        simulate(dims, array, map, &mut collector);
        let demands: Vec<FoldDemand> = fold_demands(dims, array, map).collect();
        assert_eq!(demands.len(), collector.folds.len());
        for (d, (ta, tb, tor, tow)) in demands.iter().zip(&collector.folds) {
            let da: HashSet<u64> = d.a.iter().copied().collect();
            let db: HashSet<u64> = d.b.iter().copied().collect();
            let dor: HashSet<u64> = d.o_spill.iter().copied().collect();
            let dow: HashSet<u64> = d.o_writes.iter().copied().collect();
            assert_eq!(&da, ta, "A demand mismatch in fold {:?}", d.fold);
            assert_eq!(&db, tb, "B demand mismatch in fold {:?}", d.fold);
            assert_eq!(&dor, tor, "spill mismatch in fold {:?}", d.fold);
            assert_eq!(&dow, tow, "write mismatch in fold {:?}", d.fold);
        }
    }

    #[test]
    fn demands_match_traces_for_gemm_all_dataflows() {
        let shape = GemmShape::new(10, 7, 9);
        for df in Dataflow::ALL {
            let dims = shape.project(df);
            let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
            check_demands_match_trace(&dims, ArrayShape::new(4, 4), &map);
        }
    }

    #[test]
    fn demands_match_traces_for_conv_all_dataflows() {
        let layer = ConvLayer::new("t", 8, 8, 3, 3, 2, 5, 1).unwrap();
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        for df in Dataflow::ALL {
            let dims = layer.shape().project(df);
            check_demands_match_trace(&dims, ArrayShape::new(8, 4), &map);
        }
    }

    #[test]
    fn conv_overlap_dedups_ifmap_demand() {
        // Stride-1 3x3 conv: adjacent output pixels share 2/3 of their
        // window, so a fold's unique A demand is far below rows x T.
        let layer = ConvLayer::new("t", 10, 10, 3, 3, 1, 4, 1).unwrap();
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        let dims = layer.shape().project(Dataflow::OutputStationary);
        let first = fold_demands(&dims, ArrayShape::new(16, 4), &map)
            .next()
            .unwrap();
        assert!(first.a.len() < (16 * dims.temporal) as usize / 2);
    }

    #[test]
    fn gemm_demand_sizes_are_exact() {
        let shape = GemmShape::new(8, 4, 8);
        let dims = shape.project(Dataflow::OutputStationary);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        for d in fold_demands(&dims, ArrayShape::square(4), &map) {
            assert_eq!(d.a.len() as u64, d.fold.rows_used * dims.temporal);
            assert_eq!(d.b.len() as u64, d.fold.cols_used * dims.temporal);
            assert_eq!(d.o_writes.len() as u64, d.fold.rows_used * d.fold.cols_used);
            assert!(d.o_spill.is_empty());
        }
    }

    /// Checks the run-compressed generator against the legacy enumeration:
    /// A element sequences must be identical; B/O streams must have equal
    /// per-fold sizes and be related by one layer-wide bijection per
    /// operand.
    fn check_runs_match_legacy<M: AddressMap>(dims: &MappedDims, array: ArrayShape, map: &M) {
        use std::collections::HashMap;
        let legacy: Vec<FoldDemand> = fold_demands(dims, array, map).collect();
        let runs: Vec<FoldDemandRuns> = fold_demand_runs(dims, array, map).collect();
        assert_eq!(legacy.len(), runs.len());
        let mut b_fwd: HashMap<u64, u64> = HashMap::new();
        let mut b_rev: HashMap<u64, u64> = HashMap::new();
        let mut o_fwd: HashMap<u64, u64> = HashMap::new();
        let mut o_rev: HashMap<u64, u64> = HashMap::new();
        let check_bijection = |fwd: &mut HashMap<u64, u64>,
                               rev: &mut HashMap<u64, u64>,
                               real: &[u64],
                               label: Vec<u64>| {
            assert_eq!(real.len(), label.len());
            for (&r, &l) in real.iter().zip(&label) {
                assert_eq!(*fwd.entry(r).or_insert(l), l, "label not a function");
                assert_eq!(*rev.entry(l).or_insert(r), r, "label not injective");
            }
        };
        for (d, dr) in legacy.iter().zip(&runs) {
            assert_eq!(d.fold, dr.fold);
            // A: exact element equality (real addresses, first-use order).
            assert_eq!(
                d.a,
                dr.a.iter_elements().collect::<Vec<u64>>(),
                "A stream diverged in fold {:?}",
                d.fold
            );
            check_bijection(&mut b_fwd, &mut b_rev, &d.b, dr.b.iter_elements().collect());
            check_bijection(
                &mut o_fwd,
                &mut o_rev,
                &d.o_spill,
                dr.o_spill.iter_elements().collect(),
            );
            check_bijection(
                &mut o_fwd,
                &mut o_rev,
                &d.o_writes,
                dr.o_writes.iter_elements().collect(),
            );
        }
    }

    #[test]
    fn run_demands_match_legacy_for_gemm_all_dataflows() {
        let shape = GemmShape::new(10, 7, 9);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        for df in Dataflow::ALL {
            let dims = shape.project(df);
            check_runs_match_legacy(&dims, ArrayShape::new(4, 4), &map);
        }
    }

    #[test]
    fn run_demands_match_legacy_for_conv_all_dataflows() {
        for stride in [1, 2] {
            let layer = ConvLayer::new("t", 8, 8, 3, 3, 2, 5, stride).unwrap();
            let map = ConvAddressMap::new(&layer, RegionOffsets::default());
            for df in Dataflow::ALL {
                let dims = layer.shape().project(df);
                check_runs_match_legacy(&dims, ArrayShape::new(8, 4), &map);
            }
        }
    }

    /// Every B, `o_spill` and `o_writes` stream is at most one run per
    /// fold, and under OS/WS every column fold repeats its row fold's A.
    fn check_stream_shape<M: AddressMap>(dims: &MappedDims, map: &M) {
        let array = ArrayShape::new(4, 4);
        let plan = FoldPlan::new(dims, array);
        assert!(plan.fold_rows() > 1 && plan.fold_cols() > 2, "{dims:?}");
        let mut row_a = AddrRuns::new();
        for d in fold_demand_runs(dims, array, map) {
            for stream in [&d.b, &d.o_spill, &d.o_writes] {
                assert!(
                    stream.run_count() <= 1,
                    "{:?} fold {:?}",
                    dims.dataflow,
                    d.fold
                );
            }
            assert_eq!(
                d.o_spill.is_empty(),
                d.fold.fr == 0 || dims.dataflow == Dataflow::OutputStationary
            );
            if dims.dataflow == Dataflow::InputStationary {
                continue;
            }
            if d.fold.fc == 0 {
                row_a = d.a;
            } else {
                assert_eq!(d.a, row_a, "{:?} fold {:?}", dims.dataflow, d.fold);
            }
        }
    }

    #[test]
    fn streams_are_fold_blocked_and_a_is_per_row_fold() {
        let shape = GemmShape::new(40, 12, 36);
        let gemm = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        let layer = ConvLayer::new("t", 10, 10, 3, 3, 4, 20, 1).unwrap();
        let conv = ConvAddressMap::new(&layer, RegionOffsets::default());
        for df in Dataflow::ALL {
            check_stream_shape(&shape.project(df), &gemm);
            check_stream_shape(&layer.shape().project(df), &conv);
        }
    }

    #[test]
    fn run_compression_is_effective_on_gemm() {
        // The whole point: far fewer runs than elements.
        let shape = GemmShape::new(64, 64, 64);
        let dims = shape.project(Dataflow::OutputStationary);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        for d in fold_demand_runs(&dims, ArrayShape::square(16), &map) {
            assert!(d.run_count() * 8 <= d.element_count());
        }
    }
}
