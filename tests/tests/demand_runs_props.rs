//! Equivalence properties for the run-compressed hot path: the
//! interval-compressed demand streams ([`fold_demand_runs`]) driven through
//! the run-native DRAM model must be indistinguishable — fold for fold,
//! count for count, stall for stall — from the element-granular legacy
//! path ([`fold_demands`] + `DramModel::fold`) on any workload, dataflow
//! and buffer sizing.
//!
//! The contract being checked (see `scalesim_systolic::demand`): the A
//! stream carries *real* addresses in first-use order and must match the
//! legacy stream element for element; the B and O streams use canonical
//! labels, so they must be a per-layer bijective relabeling of the legacy
//! addresses — which is exactly the property that makes every FIFO
//! hit/miss/eviction decision, and therefore every traffic figure,
//! identical. (`SramCounts` come from the compute-side `analyze`, which
//! the demand representation never touches, so they are covered by the
//! layer-cache equality test on whole `LayerReport`s in `scalesim`.)

use proptest::prelude::*;
use std::collections::HashMap;

use scalesim_memory::{
    AddrRuns, AddressMap, ConvAddressMap, DoubleBuffer, DramModel, GemmAddressMap,
    OperandBufferSpec, RegionOffsets, RunBuffer, StallModel, SubGemmMap,
};
use scalesim_systolic::{fold_demand_runs, fold_demands, ArrayShape, Dataflow};
use scalesim_topology::{ConvLayerBuilder, GemmShape, MappedDims};

fn spec(bytes: u64) -> OperandBufferSpec {
    OperandBufferSpec {
        size_bytes: bytes,
        word_bytes: 1,
    }
}

/// Runs both demand paths over the same workload and checks every
/// observable: per-fold traffic, the final DRAM summary, and the stall
/// model's verdict under a starved interface.
fn check_paths_agree(
    dims: &MappedDims,
    array: ArrayShape,
    map: &(impl AddressMap + ?Sized),
    bufs: (u64, u64, u64),
) -> Result<(), TestCaseError> {
    let mut legacy_dram = DramModel::new(spec(bufs.0), spec(bufs.1), spec(bufs.2));
    let mut runs_dram = DramModel::new(spec(bufs.0), spec(bufs.1), spec(bufs.2));
    let mut legacy_stall = StallModel::new(2.0);
    let mut runs_stall = StallModel::new(2.0);

    let legacy: Vec<_> = fold_demands(dims, array, map).collect();
    let runs: Vec<_> = fold_demand_runs(dims, array, map).collect();
    prop_assert_eq!(legacy.len(), runs.len(), "fold counts must agree");

    for (ld, rd) in legacy.into_iter().zip(runs) {
        prop_assert_eq!(ld.fold, rd.fold);
        let lt = legacy_dram.fold(ld.fold.duration, ld.a, ld.b, ld.o_spill, ld.o_writes);
        let rt = runs_dram.fold_runs(rd.fold.duration, &rd.a, &rd.b, &rd.o_spill, &rd.o_writes);
        prop_assert_eq!(lt, rt, "per-fold traffic must agree");
        legacy_stall.fold(lt.duration, lt.read_bytes, lt.write_bytes);
        runs_stall.fold(rt.duration, rt.read_bytes, rt.write_bytes);
    }
    prop_assert_eq!(legacy_dram.finish(), runs_dram.finish());
    prop_assert_eq!(legacy_stall.finish(), runs_stall.finish());
    Ok(())
}

/// A stream: exact element equality. B/O streams: one layer-wide
/// bijection between legacy addresses and canonical labels.
fn check_streams_are_faithful(
    dims: &MappedDims,
    array: ArrayShape,
    map: &(impl AddressMap + ?Sized),
) -> Result<(), TestCaseError> {
    let legacy: Vec<_> = fold_demands(dims, array, map).collect();
    let runs: Vec<_> = fold_demand_runs(dims, array, map).collect();
    prop_assert_eq!(legacy.len(), runs.len());

    // One bijection per operand buffer: B labels feed the filter FIFO,
    // while o_spill and o_writes share both the output FIFO and one label
    // space. (B and O label spaces are independent — a numeric collision
    // between them is harmless because the buffers are separate.)
    #[derive(Default)]
    struct Bijection {
        fwd: HashMap<u64, u64>,
        rev: HashMap<u64, u64>,
    }
    impl Bijection {
        fn check(&mut self, legacy: &[u64], runs: &AddrRuns) -> Result<(), TestCaseError> {
            prop_assert_eq!(legacy.len() as u64, runs.element_count());
            for (&addr, label) in legacy.iter().zip(runs.iter_elements()) {
                let seen = *self.fwd.entry(addr).or_insert(label);
                prop_assert_eq!(seen, label, "one address, two labels");
                let seen = *self.rev.entry(label).or_insert(addr);
                prop_assert_eq!(seen, addr, "one label, two addresses");
            }
            Ok(())
        }
    }
    let mut b_map = Bijection::default();
    let mut o_map = Bijection::default();

    for (ld, rd) in legacy.iter().zip(&runs) {
        // A: real addresses, first-use order, element for element.
        let a_elems: Vec<u64> = rd.a.iter_elements().collect();
        prop_assert_eq!(&ld.a, &a_elems, "A must carry real addresses");
        b_map.check(&ld.b, &rd.b)?;
        o_map.check(&ld.o_spill, &rd.o_spill)?;
        o_map.check(&ld.o_writes, &rd.o_writes)?;
    }
    Ok(())
}

/// Cuts `shape`'s `M × N` output space into a `pr × pc` grid of
/// ceiling-share tiles, the way the scale-out simulator partitions a layer
/// (Eq. 5), and checks both demand paths agree on every tile's `SubGemmMap`
/// view of `map`.
fn check_tiles_agree(
    shape: GemmShape,
    (pr, pc): (u64, u64),
    df: Dataflow,
    map: &(impl AddressMap + ?Sized),
    bufs: (u64, u64, u64),
) -> Result<(), TestCaseError> {
    let chunk_m = shape.m.div_ceil(pr);
    let chunk_n = shape.n.div_ceil(pc);
    for m_off in (0..shape.m).step_by(chunk_m as usize) {
        for n_off in (0..shape.n).step_by(chunk_n as usize) {
            let tile = GemmShape::new(
                chunk_m.min(shape.m - m_off),
                shape.k,
                chunk_n.min(shape.n - n_off),
            );
            let sub_map = SubGemmMap::new(map, m_off, n_off);
            check_paths_agree(&tile.project(df), ArrayShape::new(4, 4), &sub_map, bufs)?;
        }
    }
    Ok(())
}

/// The partition grids the tile properties cover.
const GRIDS: [(u64, u64); 2] = [(2, 2), (1, 4)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// GEMM, all dataflows: run path == element path on every observable.
    #[test]
    fn gemm_run_path_matches_element_path(
        m in 1u64..60,
        k in 1u64..32,
        n in 1u64..60,
        a_buf in 8u64..4096,
        b_buf in 8u64..4096,
        o_buf in 8u64..4096,
        df_idx in 0usize..3,
    ) {
        let shape = GemmShape::new(m, k, n);
        let dims = shape.project(Dataflow::ALL[df_idx]);
        let array = ArrayShape::new(8, 8);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        check_paths_agree(&dims, array, &map, (a_buf, b_buf, o_buf))?;
    }

    /// Convolution (window-overlap aliasing in the A stream), all
    /// dataflows and strides: run path == element path.
    #[test]
    fn conv_run_path_matches_element_path(
        ifmap in 4u64..12,
        filter in 1u64..4,
        channels in 1u64..5,
        filters in 1u64..8,
        stride in 1u64..3,
        a_buf in 8u64..2048,
        b_buf in 8u64..2048,
        o_buf in 8u64..2048,
        df_idx in 0usize..3,
    ) {
        prop_assume!(filter <= ifmap);
        let layer = ConvLayerBuilder::new("p")
            .ifmap(ifmap, ifmap)
            .filter(filter, filter)
            .channels(channels)
            .num_filters(filters)
            .stride(stride)
            .build()
            .unwrap();
        let dims = layer.shape().project(Dataflow::ALL[df_idx]);
        let array = ArrayShape::new(4, 4);
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        check_paths_agree(&dims, array, &map, (a_buf, b_buf, o_buf))?;
    }

    /// Partitioned GEMM tiles (2x2 and 1x4 grids), all dataflows, small
    /// SRAM: run path == element path on every tile.
    #[test]
    fn gemm_tiles_run_path_matches_element_path(
        m in 1u64..48,
        k in 1u64..24,
        n in 1u64..48,
        a_buf in 8u64..256,
        b_buf in 8u64..256,
        o_buf in 8u64..256,
        grid_idx in 0usize..2,
        df_idx in 0usize..3,
    ) {
        let shape = GemmShape::new(m, k, n);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        check_tiles_agree(shape, GRIDS[grid_idx], Dataflow::ALL[df_idx], &map, (a_buf, b_buf, o_buf))?;
    }

    /// Partitioned conv tiles: a tile's rows are a window of ofmap pixels,
    /// so its A stream carries the layer's window overlap at an offset.
    #[test]
    fn conv_tiles_run_path_matches_element_path(
        ifmap in 4u64..12,
        filter in 1u64..4,
        channels in 1u64..5,
        filters in 1u64..12,
        stride in 1u64..3,
        a_buf in 8u64..256,
        b_buf in 8u64..256,
        o_buf in 8u64..256,
        grid_idx in 0usize..2,
        df_idx in 0usize..3,
    ) {
        prop_assume!(filter <= ifmap);
        let layer = ConvLayerBuilder::new("p")
            .ifmap(ifmap, ifmap)
            .filter(filter, filter)
            .channels(channels)
            .num_filters(filters)
            .stride(stride)
            .build()
            .unwrap();
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        check_tiles_agree(layer.shape(), GRIDS[grid_idx], Dataflow::ALL[df_idx], &map, (a_buf, b_buf, o_buf))?;
    }

    /// The stream contract itself: A is the legacy stream verbatim; B/O
    /// are bijective relabelings (GEMM).
    #[test]
    fn gemm_streams_are_faithful(
        m in 1u64..40,
        k in 1u64..24,
        n in 1u64..40,
        df_idx in 0usize..3,
    ) {
        let shape = GemmShape::new(m, k, n);
        let dims = shape.project(Dataflow::ALL[df_idx]);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        check_streams_are_faithful(&dims, ArrayShape::new(8, 8), &map)?;
    }

    /// The stream contract for convolutions.
    #[test]
    fn conv_streams_are_faithful(
        ifmap in 4u64..10,
        filter in 1u64..4,
        channels in 1u64..4,
        filters in 1u64..6,
        stride in 1u64..3,
        df_idx in 0usize..3,
    ) {
        prop_assume!(filter <= ifmap);
        let layer = ConvLayerBuilder::new("p")
            .ifmap(ifmap, ifmap)
            .filter(filter, filter)
            .channels(channels)
            .num_filters(filters)
            .stride(stride)
            .build()
            .unwrap();
        let dims = layer.shape().project(Dataflow::ALL[df_idx]);
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        check_streams_are_faithful(&dims, ArrayShape::new(4, 4), &map)?;
    }

    /// RunBuffer is the same FIFO double buffer as DoubleBuffer, for any
    /// epoch stream of runs and any capacity — including pathological
    /// capacities smaller than a single run.
    #[test]
    fn run_buffer_matches_double_buffer(
        epochs in prop::collection::vec(
            prop::collection::vec((0u64..400, 1u64..16), 1..12),
            1..10,
        ),
        capacity in 0u64..512,
    ) {
        let mut runs_buf = RunBuffer::new(capacity);
        let mut elems_buf = DoubleBuffer::new(capacity as usize);
        for epoch in &epochs {
            let mut demand = AddrRuns::new();
            let mut elems = Vec::new();
            for &(start, len) in epoch {
                demand.push(start, len);
                elems.extend(start..start + len);
            }
            let rs = runs_buf.epoch(&demand);
            let es = elems_buf.epoch(elems.iter().copied());
            prop_assert_eq!(rs, es, "epoch stats must agree");
            prop_assert_eq!(runs_buf.resident_count(), elems_buf.resident_count() as u64);
            for addr in (0..440).step_by(7) {
                prop_assert_eq!(runs_buf.contains(addr), elems_buf.contains(addr));
            }
        }
    }
}
