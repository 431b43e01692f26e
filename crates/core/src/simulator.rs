//! The simulator facade: one layer or a whole topology, monolithic or
//! partitioned, cycle-accurate compute plus the DRAM interface model.

use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

use scalesim_analytical::PartitionGrid;
use scalesim_energy::EnergyModel;
use scalesim_memory::{
    AddressMap, ConvAddressMap, DramModel, DramSummary, DramTraceWriter, GemmAddressMap,
    StallModel, StallSummary, SubGemmMap,
};
use scalesim_systolic::{
    analyze, fold_demand_runs_in, fold_demands, simulate, ComputeReport, CsvTraceSink, SramCounts,
};
use scalesim_topology::{GemmShape, Layer, Topology};

use crate::config::SimConfig;
use crate::layer_cache;
use crate::report::{LayerReport, NetworkReport};

/// The SCALE-Sim simulator: a hardware configuration bound to an optional
/// partition grid and an energy model.
///
/// With the default 1×1 grid this is the classic monolithic tool; with a
/// larger grid every layer's output space is tiled across `P_R × P_C`
/// identical arrays that execute in parallel, with the SRAM budget divided
/// evenly (Sections III-C / IV-A of the paper). The partitions model
/// concurrent hardware; the host simulates them one after another on the
/// calling thread.
///
/// See the crate-level docs for examples.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
    grid: PartitionGrid,
    energy_model: EnergyModel,
    auto_dataflow: bool,
}

impl Simulator {
    /// Creates a monolithic simulator for `config`.
    pub fn new(config: SimConfig) -> Self {
        Simulator {
            config,
            grid: PartitionGrid::monolithic(),
            energy_model: EnergyModel::default(),
            auto_dataflow: false,
        }
    }

    /// Runs on a `P_R × P_C` partition grid instead of a single array.
    pub fn with_grid(mut self, grid: PartitionGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Overrides the energy constants.
    pub fn with_energy_model(mut self, model: EnergyModel) -> Self {
        self.energy_model = model;
        self
    }

    /// Selects the fastest dataflow *per layer* (by the analytical model,
    /// Sec. III-B) instead of the configured one. Models a mapper that is
    /// free to re-map every layer — the configured dataflow becomes a
    /// fallback label only.
    pub fn with_auto_dataflow(mut self) -> Self {
        self.auto_dataflow = true;
        self
    }

    /// The hardware configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The partition grid.
    pub fn grid(&self) -> PartitionGrid {
        self.grid
    }

    /// The configuration `layer` actually runs with: under
    /// [`Simulator::with_auto_dataflow`] the dataflow is re-selected per
    /// layer by the analytical model, otherwise the configured one is kept.
    ///
    /// [`Simulator::run_layer`], [`Simulator::write_traces`] and
    /// [`Simulator::write_dram_traces`] all route through this, so reports
    /// and exported traces always describe the same schedule.
    pub fn effective_config(&self, layer: &Layer) -> SimConfig {
        if self.auto_dataflow {
            let best = scalesim_analytical::best_dataflow(
                layer.shape(),
                self.config.array,
                &scalesim_analytical::AnalyticalModel,
            );
            SimConfig {
                dataflow: best.dataflow,
                ..self.config
            }
        } else {
            self.config
        }
    }

    /// Simulates one layer end to end: cycle-accurate compute schedule plus
    /// the double-buffered DRAM interface model, per partition, aggregated.
    ///
    /// Telemetry: records wall time, cycle totals and per-phase (compute /
    /// dram / energy) timings into the
    /// [`scalesim_telemetry::global`] registry under the metric names in
    /// [`telemetry_names`].
    pub fn run_layer(&self, layer: &Layer) -> LayerReport {
        let started = Instant::now();
        let _span = scalesim_telemetry::span!("run_layer", layer = layer.name());
        let mut phases = PhaseNanos::default();
        let shape = layer.shape();
        let config = self.effective_config(layer);

        // Sub-problem memoization: the result is a pure function of
        // (geometry, effective config, grid, energy constants) — the name
        // is a label. Whole networks repeat shapes, and sweeps re-run the
        // unchanged layers of neighbouring design points, so this removes
        // entire simulations from the cold path.
        let cache_key = layer_cache::key(&config, self.grid, &self.energy_model, layer);
        let registry = scalesim_telemetry::global();
        let cached = {
            let _phase = scalesim_telemetry::trace::span("phase.cache_probe");
            layer_cache::lookup(cache_key)
        };
        if let Some(cached) = cached {
            registry
                .counter(
                    telemetry_names::LAYER_CACHE_HITS,
                    "Layer simulations answered from the layer-result cache.",
                )
                .inc();
            let mut report = (*cached).clone();
            report.name = layer.name().to_owned();
            // A hit is still a simulated layer as far as observers are
            // concerned: cycle/energy/traffic totals must keep adding up.
            record_layer_telemetry(&report, started.elapsed(), &phases);
            return report;
        }
        registry
            .counter(
                telemetry_names::LAYER_CACHE_MISSES,
                "Layer simulations that ran the full cold path.",
            )
            .inc();

        let map = layer_map(layer, &config);
        let tiles = partition_tiles(shape, self.grid);
        let provisioned = self.grid.count();

        // Each partition gets an even share of the interface bandwidth.
        let per_partition_bw = config.dram_bandwidth.map(|bw| bw / provisioned as f64);
        let mut volume = DemandVolume::default();

        // Partitions are concurrent hardware, not host threads: the tiles
        // run one after another on this thread and fold straight into the
        // layer aggregate, in tile order.
        let active_partitions = tiles.len();
        let mut per_partition_cycles = Vec::with_capacity(active_partitions);
        let mut sram = SramCounts::default();
        let mut dram = DramSummary::default();
        let mut mapping_util_sum = 0.0;
        let mut total_cycles = 0u64;
        let mut worst_stall: Option<StallSummary> = None;
        for tile in &tiles {
            let (compute, part_dram, part_stall) = run_tile(
                tile,
                &*map,
                shape,
                &config,
                provisioned,
                per_partition_bw,
                &mut phases,
                &mut volume,
            );
            per_partition_cycles.push(compute.total_cycles);
            total_cycles = total_cycles.max(compute.total_cycles);
            sram.a_reads += compute.sram.a_reads;
            sram.b_reads += compute.sram.b_reads;
            sram.o_reads += compute.sram.o_reads;
            sram.o_writes += compute.sram.o_writes;
            mapping_util_sum += compute.mapping_utilization;
            if dram.folds == 0 && dram.total_accesses() == 0 {
                dram = part_dram;
            } else {
                dram.merge_concurrent(&part_dram);
            }
            if let Some(ps) = part_stall {
                let slower = match &worst_stall {
                    Some(ws) => ps.stalled_cycles > ws.stalled_cycles,
                    None => true,
                };
                if slower {
                    worst_stall = Some(ps);
                }
            }
        }
        record_demand_telemetry(&volume);
        // Report the stall result at the layer level: the slowest
        // partition gates the layer, and the configured (total) bandwidth
        // is what the user asked about. Bus utilization must be recomputed
        // in the same scope — the worst partition's figure measures its
        // traffic against its 1/P bandwidth share, not against the total
        // interface the summary reports.
        let stall = worst_stall.map(|ws| {
            let bandwidth = config.dram_bandwidth.expect("stall implies bandwidth");
            let stalled_cycles = ws.stalled_cycles.max(total_cycles);
            let bus_utilization = if stalled_cycles == 0 {
                0.0
            } else {
                // All partitions drain their traffic concurrently within the
                // layer's stalled horizon; each fits its share, so the
                // aggregate never exceeds 1 (the clamp guards the model's
                // per-fold ceil rounding only).
                (dram.total_bytes() as f64 / (bandwidth * stalled_cycles as f64)).min(1.0)
            };
            StallSummary {
                bandwidth,
                compute_cycles: total_cycles,
                stalled_cycles,
                stall_cycles: stalled_cycles - total_cycles,
                bus_utilization,
            }
        });

        let mac_ops = shape.macs();
        // Idle accounting covers every provisioned PE for the whole layer
        // runtime — including partitions that finished early or had no work.
        let pe_cycles = provisioned * config.array.macs() * total_cycles;
        let energy_started = Instant::now();
        let energy = {
            let _phase = scalesim_telemetry::trace::span("phase.energy");
            self.energy_model
                .evaluate(mac_ops, pe_cycles, sram.total(), dram.total_accesses())
        };
        phases.energy += energy_started.elapsed().as_nanos() as u64;

        let report = LayerReport {
            name: layer.name().to_owned(),
            grid: self.grid,
            array: config.array,
            total_cycles,
            active_partitions: active_partitions as u64,
            per_partition_cycles,
            mac_ops,
            sram,
            dram,
            mapping_utilization: if active_partitions == 0 {
                0.0
            } else {
                mapping_util_sum / active_partitions as f64
            },
            // A layer with no work (zero cycles) must report 0, not NaN —
            // NaN is not JSON and silently turns into `null` downstream.
            compute_utilization: if pe_cycles == 0 {
                0.0
            } else {
                mac_ops as f64 / pe_cycles as f64
            },
            energy,
            stall,
        };
        layer_cache::store(cache_key, Arc::new(report.clone()));
        record_layer_telemetry(&report, started.elapsed(), &phases);
        report
    }

    /// Simulates every layer of `topology` in order (SCALE-Sim serializes
    /// layers — Section II-E).
    pub fn run_topology(&self, topology: &Topology) -> NetworkReport {
        let _span = scalesim_telemetry::span!("run_topology", network = topology.name());
        let layers = topology.iter().map(|l| self.run_layer(l)).collect();
        scalesim_telemetry::global()
            .counter(
                telemetry_names::NETWORK_RUNS,
                "Topologies simulated end to end.",
            )
            .inc();
        NetworkReport::new(topology.name(), layers)
    }

    /// Writes the cycle-accurate SRAM traces of `layer` in the original
    /// tool's CSV format (`cycle, addr, …` rows): reads to `reads`, writes
    /// to `writes`. Traces are generated for a single monolithic array (the
    /// configured shape); the partition grid is ignored. The dataflow is
    /// resolved per layer exactly as in [`Simulator::run_layer`], so traces
    /// agree with the report under [`Simulator::with_auto_dataflow`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error raised by the writers.
    pub fn write_traces<W: Write>(
        &self,
        layer: &Layer,
        reads: W,
        writes: W,
    ) -> io::Result<ComputeReport> {
        let config = self.effective_config(layer);
        let map = layer_map(layer, &config);
        let dims = layer.shape().project(config.dataflow);
        let mut sink = CsvTraceSink::new(reads, writes);
        let report = simulate(&dims, config.array, &*map, &mut sink);
        sink.finish()?;
        Ok(report)
    }

    /// Writes the DRAM interface traces of `layer` (prefetch reads and
    /// streamed writes, `cycle, addr, …` rows — the "DRAM R/W" output of
    /// Fig. 2), for a single monolithic array, with the dataflow resolved
    /// per layer exactly as in [`Simulator::run_layer`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error raised by the writers.
    pub fn write_dram_traces<W: Write>(
        &self,
        layer: &Layer,
        reads: W,
        writes: W,
    ) -> io::Result<DramSummary> {
        let config = self.effective_config(layer);
        let map = layer_map(layer, &config);
        let dims = layer.shape().project(config.dataflow);
        let mut dram = DramModel::new(
            config.ifmap_buffer(1),
            config.filter_buffer(1),
            config.ofmap_buffer(1),
        );
        let mut tracer = DramTraceWriter::new(reads, writes);
        for d in fold_demands(&dims, config.array, &*map) {
            dram.fold_traced(
                d.fold.duration,
                d.a,
                d.b,
                d.o_spill,
                d.o_writes,
                &mut tracer,
            )?;
        }
        tracer.finish()?;
        Ok(dram.finish())
    }
}

/// Metric names the simulator records into the
/// [`scalesim_telemetry::global`] registry. Servers and profilers read
/// these back by name, so they are part of the public API.
pub mod telemetry_names {
    /// Counter, `{layer}`: layers simulated.
    pub const LAYER_RUNS: &str = "scalesim_layer_runs_total";
    /// Counter, `{layer}`: cumulative stall-free cycles per layer tag.
    pub const LAYER_CYCLES: &str = "scalesim_layer_cycles_total";
    /// Counter, `{layer}`: cumulative simulation wall time per layer tag.
    pub const LAYER_WALL_MICROS: &str = "scalesim_layer_wall_micros_total";
    /// Counter, `{phase}` in `compute` / `dram` / `energy`: wall time spent
    /// in each simulation phase.
    pub const PHASE_MICROS: &str = "scalesim_sim_phase_micros_total";
    /// Counter: modeled DRAM traffic across all simulated layers.
    pub const DRAM_BYTES: &str = "scalesim_sim_dram_bytes_total";
    /// Counter: modeled SRAM accesses across all simulated layers.
    pub const SRAM_ACCESSES: &str = "scalesim_sim_sram_accesses_total";
    /// Float counter: modeled energy across all simulated layers.
    pub const ENERGY: &str = "scalesim_sim_energy_total";
    /// Counter: whole topologies simulated.
    pub const NETWORK_RUNS: &str = "scalesim_network_runs_total";
    /// Counter: layer simulations answered from the layer-result cache.
    pub const LAYER_CACHE_HITS: &str = "scalesim_layer_cache_hits_total";
    /// Counter: layer simulations that ran the full cold path.
    pub const LAYER_CACHE_MISSES: &str = "scalesim_layer_cache_misses_total";
    /// Counter: layer-result cache LRU evictions.
    pub const LAYER_CACHE_EVICTIONS: &str = "scalesim_layer_cache_evictions_total";
    /// Gauge: layer-result cache live entries.
    pub const LAYER_CACHE_RESIDENT: &str = "scalesim_layer_cache_resident_entries";
    /// Counter: demand-stream elements fed to the DRAM model (what the
    /// element-granular representation would have walked).
    pub const DEMAND_ELEMENTS: &str = "scalesim_demand_elements_total";
    /// Counter: run-length records the DRAM model actually walked.
    pub const DEMAND_RUNS: &str = "scalesim_demand_runs_total";
    /// Gauge: cumulative elements-per-run compression ratio, rounded down
    /// to an integer (gauges are integral).
    pub const DEMAND_COMPRESSION: &str = "scalesim_demand_compression_ratio";
}

/// Per-phase wall-time accumulators, in nanoseconds.
#[derive(Debug, Default)]
struct PhaseNanos {
    compute: u64,
    dram: u64,
    energy: u64,
}

impl PhaseNanos {
    fn micros(&self) -> [(&'static str, u64); 3] {
        [
            ("compute", self.compute / 1_000),
            ("dram", self.dram / 1_000),
            ("energy", self.energy / 1_000),
        ]
    }
}

/// Demand-stream volume accumulators: how many elements the DRAM
/// interface model was asked about, and how many run-length records it
/// walked to answer.
#[derive(Debug, Default)]
struct DemandVolume {
    elements: u64,
    runs: u64,
}

/// Publishes one layer's demand-stream volume and the cumulative
/// compression ratio to the global metric registry.
fn record_demand_telemetry(volume: &DemandVolume) {
    let registry = scalesim_telemetry::global();
    let elements = registry.counter(
        telemetry_names::DEMAND_ELEMENTS,
        "Demand-stream elements fed to the DRAM model.",
    );
    elements.add(volume.elements);
    let runs = registry.counter(
        telemetry_names::DEMAND_RUNS,
        "Run-length records the DRAM model walked.",
    );
    runs.add(volume.runs);
    registry
        .gauge(
            telemetry_names::DEMAND_COMPRESSION,
            "Cumulative elements-per-run compression ratio (integer).",
        )
        .set((elements.get() / runs.get().max(1)) as i64);
}

/// Publishes one finished layer's results to the global metric registry.
fn record_layer_telemetry(report: &LayerReport, wall: std::time::Duration, phases: &PhaseNanos) {
    let registry = scalesim_telemetry::global();
    let labels = [("layer", report.name.as_str())];
    registry
        .counter_with(telemetry_names::LAYER_RUNS, "Layers simulated.", &labels)
        .inc();
    registry
        .counter_with(
            telemetry_names::LAYER_CYCLES,
            "Cumulative stall-free cycles per layer tag.",
            &labels,
        )
        .add(report.total_cycles);
    registry
        .counter_with(
            telemetry_names::LAYER_WALL_MICROS,
            "Cumulative simulation wall time per layer tag.",
            &labels,
        )
        .add(wall.as_micros() as u64);
    for (phase, micros) in phases.micros() {
        registry
            .counter_with(
                telemetry_names::PHASE_MICROS,
                "Wall time spent in each simulation phase.",
                &[("phase", phase)],
            )
            .add(micros);
    }
    registry
        .counter(
            telemetry_names::DRAM_BYTES,
            "Modeled DRAM traffic across all simulated layers.",
        )
        .add(report.dram.total_bytes());
    registry
        .counter(
            telemetry_names::SRAM_ACCESSES,
            "Modeled SRAM accesses across all simulated layers.",
        )
        .add(report.sram.total());
    registry
        .float_counter(
            telemetry_names::ENERGY,
            "Modeled energy across all simulated layers.",
        )
        .add(report.energy.total());
}

/// Builds the operand address map for a layer.
fn layer_map(layer: &Layer, config: &SimConfig) -> Box<dyn AddressMap> {
    match layer {
        Layer::Conv(conv) => Box::new(ConvAddressMap::new(conv, config.offsets)),
        Layer::Gemm { shape, .. } => Box::new(GemmAddressMap::from_shape(*shape, config.offsets)),
    }
}

/// One partition's tile of the output space.
#[derive(Debug, Clone, Copy)]
struct Tile {
    m_off: u64,
    m_len: u64,
    n_off: u64,
    n_len: u64,
}

/// Tiles the `M × N` output space across the grid (Eq. 5 of the paper,
/// applied in output coordinates so every partition computes complete
/// outputs regardless of dataflow). Partitions whose ceiling share starts
/// past the end of a dimension receive no work and are skipped.
fn partition_tiles(shape: GemmShape, grid: PartitionGrid) -> Vec<Tile> {
    let chunk_m = shape.m.div_ceil(grid.rows());
    let chunk_n = shape.n.div_ceil(grid.cols());
    let mut tiles = Vec::new();
    for pi in 0..grid.rows() {
        let m_off = pi * chunk_m;
        if m_off >= shape.m {
            break;
        }
        let m_len = chunk_m.min(shape.m - m_off);
        for pj in 0..grid.cols() {
            let n_off = pj * chunk_n;
            if n_off >= shape.n {
                break;
            }
            let n_len = chunk_n.min(shape.n - n_off);
            tiles.push(Tile {
                m_off,
                m_len,
                n_off,
                n_len,
            });
        }
    }
    tiles
}

/// Simulates one tile: compute schedule plus DRAM model. Phase wall time
/// (compute schedule vs DRAM interface walk) accumulates into `phases`,
/// and demand-stream volume (elements vs runs) into `volume`.
#[allow(clippy::too_many_arguments)]
fn run_tile(
    tile: &Tile,
    map: &dyn AddressMap,
    shape: GemmShape,
    config: &SimConfig,
    provisioned: u64,
    bandwidth_share: Option<f64>,
    phases: &mut PhaseNanos,
    volume: &mut DemandVolume,
) -> (ComputeReport, DramSummary, Option<StallSummary>) {
    let sub_map = SubGemmMap::new(map, tile.m_off, tile.n_off);
    let sub_shape = GemmShape::new(tile.m_len, shape.k, tile.n_len);
    let dims = sub_shape.project(config.dataflow);
    let compute_started = Instant::now();
    let compute = {
        let _phase = scalesim_telemetry::trace::span("phase.compute");
        analyze(&dims, config.array)
    };
    phases.compute += compute_started.elapsed().as_nanos() as u64;
    let dram_started = Instant::now();
    let (dram, stall) = {
        let _phase = scalesim_telemetry::trace::span("phase.dram");
        // The fold loop draws all of its scratch from this thread's arena:
        // operand buffers from the pool, the per-fold demand streams
        // filled in place. After the thread's first layer the loop
        // performs no steady-state heap allocation.
        crate::arena::with_arena(|arena| {
            let mut dram = DramModel::new_in(
                config.ifmap_buffer(provisioned),
                config.filter_buffer(provisioned),
                config.ofmap_buffer(provisioned),
                &mut arena.pool,
            );
            let mut stall = bandwidth_share.map(StallModel::new);
            let mut demands = fold_demand_runs_in(
                &dims,
                config.array,
                &sub_map,
                std::mem::take(&mut arena.demand),
            );
            while let Some(demand) = demands.next_fold() {
                volume.elements += demand.element_count();
                volume.runs += demand.run_count();
                let traffic = dram.fold_runs(
                    demand.fold.duration,
                    &demand.a,
                    &demand.b,
                    &demand.o_spill,
                    &demand.o_writes,
                );
                if let Some(stall) = stall.as_mut() {
                    stall.fold(traffic.duration, traffic.read_bytes, traffic.write_bytes);
                }
            }
            arena.demand = demands.into_scratch();
            (
                dram.finish_into(&mut arena.pool),
                stall.map(StallModel::finish),
            )
        })
    };
    phases.dram += dram_started.elapsed().as_nanos() as u64;
    (compute, dram, stall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_systolic::ArrayShape;
    use scalesim_topology::{networks, ConvLayer, Dataflow};

    fn small_config() -> SimConfig {
        SimConfig::builder()
            .array(ArrayShape::square(16))
            .sram_kb(64, 64, 32)
            .build()
    }

    #[test]
    fn monolithic_layer_report_is_consistent() {
        let sim = Simulator::new(small_config());
        let layer = Layer::gemm("g", 100, 40, 60);
        let report = sim.run_layer(&layer);
        assert_eq!(report.active_partitions, 1);
        assert_eq!(report.mac_ops, 100 * 40 * 60);
        assert_eq!(report.per_partition_cycles.len(), 1);
        assert_eq!(report.per_partition_cycles[0], report.total_cycles);
        assert!(report.dram.total_bytes() > 0);
        assert!(report.energy.total() > 0.0);
    }

    #[test]
    fn partitioned_run_is_faster_but_hungrier() {
        // The central trade-off of the paper (Fig. 11): more partitions ->
        // lower runtime, higher DRAM bandwidth requirement.
        let layer = networks::language_model("TF1").unwrap();
        let mono = Simulator::new(small_config()).run_layer(&layer);
        let quad = Simulator::new(small_config())
            .with_grid(PartitionGrid::new(2, 2))
            .run_layer(&layer);
        assert!(quad.total_cycles < mono.total_cycles);
        assert!(quad.required_bandwidth() >= mono.required_bandwidth());
        // Same useful work either way.
        assert_eq!(quad.mac_ops, mono.mac_ops);
    }

    #[test]
    fn partitioned_layer_warms_the_calling_threads_arena() {
        // The tiles of a partitioned layer run on the thread that runs the
        // layer, so its arena keeps their grown scratch for the next layer.
        // A shape no other test simulates, so the layer cache cannot answer.
        let layer = Layer::gemm("arena_probe", 71, 29, 53);
        let report = Simulator::new(small_config())
            .with_grid(PartitionGrid::new(2, 2))
            .run_layer(&layer);
        assert_eq!(report.active_partitions, 4);
        crate::arena::with_arena(|arena| {
            // One retired buffer per operand (A, B, O), shared by all four
            // tiles in turn.
            assert_eq!(arena.pool.pooled(), 3);
        });
    }

    #[test]
    fn partitioned_layer_folds_tiles_in_tile_order() {
        // A 3x2 grid over 70x45 gives uneven edge tiles, so a reordered or
        // dropped tile changes `per_partition_cycles`.
        let layer = Layer::gemm("tile_order_probe", 70, 31, 45);
        let grid = PartitionGrid::new(3, 2);
        let config = small_config();
        let report = Simulator::new(config).with_grid(grid).run_layer(&layer);

        let shape = layer.shape();
        let map = layer_map(&layer, &config);
        let tiles = partition_tiles(shape, grid);
        let mut phases = PhaseNanos::default();
        let mut volume = DemandVolume::default();
        let computes: Vec<ComputeReport> = tiles
            .iter()
            .map(|tile| {
                let (compute, _, stall) = run_tile(
                    tile,
                    &*map,
                    shape,
                    &config,
                    grid.count(),
                    None,
                    &mut phases,
                    &mut volume,
                );
                assert!(stall.is_none());
                compute
            })
            .collect();

        assert_eq!(report.active_partitions, tiles.len() as u64);
        let cycles: Vec<u64> = computes.iter().map(|c| c.total_cycles).collect();
        assert_eq!(report.per_partition_cycles, cycles);
        assert_eq!(report.total_cycles, cycles.iter().copied().max().unwrap());
        let a_reads: u64 = computes.iter().map(|c| c.sram.a_reads).sum();
        let o_writes: u64 = computes.iter().map(|c| c.sram.o_writes).sum();
        assert_eq!(report.sram.a_reads, a_reads);
        assert_eq!(report.sram.o_writes, o_writes);
    }

    #[test]
    fn run_tile_accumulates_demand_volume_across_tiles() {
        let layer = Layer::gemm("volume_probe", 40, 24, 36);
        let config = small_config();
        let shape = layer.shape();
        let map = layer_map(&layer, &config);
        let tiles = partition_tiles(shape, PartitionGrid::new(1, 2));
        assert_eq!(tiles.len(), 2);
        let mut phases = PhaseNanos::default();
        let mut volume = DemandVolume::default();

        run_tile(
            &tiles[0],
            &*map,
            shape,
            &config,
            2,
            None,
            &mut phases,
            &mut volume,
        );
        let (first_elements, first_runs) = (volume.elements, volume.runs);
        let (first_compute, first_dram) = (phases.compute, phases.dram);
        assert!(first_elements > 0);
        assert!(first_runs > 0 && first_runs <= first_elements);

        // The second tile has the same shape, so it adds the same volume on
        // top of the first: the accumulators sum, they do not overwrite.
        run_tile(
            &tiles[1],
            &*map,
            shape,
            &config,
            2,
            None,
            &mut phases,
            &mut volume,
        );
        assert_eq!(volume.elements, 2 * first_elements);
        assert_eq!(volume.runs, 2 * first_runs);
        assert!(phases.compute >= first_compute);
        assert!(phases.dram >= first_dram);
        assert_eq!(phases.energy, 0);
    }

    #[test]
    fn partition_tiles_cover_output_exactly() {
        let shape = GemmShape::new(10, 5, 7);
        let tiles = partition_tiles(shape, PartitionGrid::new(3, 2));
        let covered: u64 = tiles.iter().map(|t| t.m_len * t.n_len).sum();
        assert_eq!(covered, 70);
        // Ceil split of 10 over 3 = 4: partitions at m = 0, 4, 8.
        assert_eq!(tiles.len(), 6);
    }

    #[test]
    fn oversized_grid_drops_empty_partitions() {
        let shape = GemmShape::new(2, 5, 1);
        let tiles = partition_tiles(shape, PartitionGrid::new(8, 8));
        assert_eq!(tiles.len(), 2);
        let sim = Simulator::new(small_config()).with_grid(PartitionGrid::new(8, 8));
        let report = sim.run_layer(&Layer::gemm("tiny", 2, 5, 1));
        assert_eq!(report.active_partitions, 2);
    }

    #[test]
    fn partitioned_macs_match_monolithic_for_conv() {
        let conv = ConvLayer::new("c", 16, 16, 3, 3, 8, 16, 1).unwrap();
        let layer: Layer = conv.into();
        let mono = Simulator::new(small_config()).run_layer(&layer);
        let split = Simulator::new(small_config())
            .with_grid(PartitionGrid::new(2, 2))
            .run_layer(&layer);
        assert_eq!(mono.mac_ops, split.mac_ops);
        // Losing spatial reuse costs extra DRAM reads, never fewer.
        assert!(split.dram.reads_a + split.dram.reads_b >= mono.dram.reads_a + mono.dram.reads_b);
    }

    #[test]
    fn run_topology_covers_all_layers_in_order() {
        let sim = Simulator::new(small_config());
        let net = networks::alexnet();
        let report = sim.run_topology(&net);
        assert_eq!(report.layers().len(), net.len());
        for (lr, l) in report.layers().iter().zip(net.iter()) {
            assert_eq!(lr.name, l.name());
        }
        assert_eq!(
            report.total_cycles(),
            report.layers().iter().map(|l| l.total_cycles).sum::<u64>()
        );
    }

    #[test]
    fn traces_round_trip_basic_shape() {
        let sim = Simulator::new(small_config());
        let layer = Layer::gemm("g", 8, 4, 8);
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let report = sim.write_traces(&layer, &mut reads, &mut writes).unwrap();
        let read_text = String::from_utf8(reads).unwrap();
        let write_text = String::from_utf8(writes).unwrap();
        assert!(!read_text.is_empty());
        assert!(!write_text.is_empty());
        // Every row is `cycle,addr[,addr...]`; the largest cycle stamp is
        // within the reported horizon.
        let max_cycle = write_text
            .lines()
            .map(|l| l.split(',').next().unwrap().parse::<u64>().unwrap())
            .max()
            .unwrap();
        assert_eq!(max_cycle + 1, report.total_cycles);
    }

    #[test]
    fn stall_model_engages_when_bandwidth_is_set() {
        let layer = Layer::gemm("g", 200, 64, 200);
        let free = Simulator::new(small_config()).run_layer(&layer);
        assert!(free.stall.is_none());
        assert_eq!(free.effective_cycles(), free.total_cycles);

        // Starve the interface: far below the stall-free requirement.
        let starved_cfg = SimConfig {
            dram_bandwidth: Some(1.0),
            ..small_config()
        };
        let starved = Simulator::new(starved_cfg).run_layer(&layer);
        let stall = starved.stall.expect("stall analysis must run");
        assert!(stall.stalled_cycles > starved.total_cycles);
        assert!(stall.slowdown() > 1.0);
        assert_eq!(starved.effective_cycles(), stall.stalled_cycles);

        // Ample bandwidth: stalls vanish (cold start aside).
        let ample_cfg = SimConfig {
            dram_bandwidth: Some(1e9),
            ..small_config()
        };
        let ample = Simulator::new(ample_cfg).run_layer(&layer);
        assert!(ample.stall.unwrap().stalled_cycles <= starved.stall.unwrap().stalled_cycles);
    }

    #[test]
    fn stall_slowdown_decreases_with_more_bandwidth() {
        let layer = Layer::gemm("g", 300, 32, 300);
        let slowdown = |bw: f64| {
            let cfg = SimConfig {
                dram_bandwidth: Some(bw),
                ..small_config()
            };
            Simulator::new(cfg)
                .run_layer(&layer)
                .stall
                .unwrap()
                .slowdown()
        };
        let s1 = slowdown(1.0);
        let s8 = slowdown(8.0);
        let s64 = slowdown(64.0);
        assert!(s1 >= s8);
        assert!(s8 >= s64);
    }

    #[test]
    fn dram_trace_export_covers_all_misses() {
        let sim = Simulator::new(small_config());
        let layer = Layer::gemm("g", 32, 8, 32);
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let summary = sim
            .write_dram_traces(&layer, &mut reads, &mut writes)
            .unwrap();
        let count_addrs = |buf: &[u8]| -> u64 {
            String::from_utf8(buf.to_vec())
                .unwrap()
                .lines()
                .map(|l| l.split(',').count() as u64 - 1)
                .sum()
        };
        assert_eq!(
            count_addrs(&reads),
            summary.reads_a + summary.reads_b + summary.reads_o
        );
        assert_eq!(count_addrs(&writes), summary.writes_o);
    }

    #[test]
    fn auto_dataflow_never_loses_to_the_fixed_default() {
        // Per-layer selection must match or beat the configured dataflow
        // on every layer's runtime.
        let net = networks::alexnet();
        let fixed = Simulator::new(small_config());
        let auto = Simulator::new(small_config()).with_auto_dataflow();
        for layer in &net {
            let f = fixed.run_layer(layer);
            let a = auto.run_layer(layer);
            assert!(
                a.total_cycles <= f.total_cycles,
                "{}: auto {} > fixed {}",
                layer.name(),
                a.total_cycles,
                f.total_cycles
            );
        }
    }

    #[test]
    fn auto_dataflow_helps_fat_output_gemms() {
        // GNMT3 (2048 x 32 x 4096) has a tiny contraction: OS pays a fold
        // per output tile, while WS keeps the whole contraction resident.
        // Auto selection must find that and win by a wide margin.
        let layer = networks::language_model("GNMT3").unwrap();
        let fixed = Simulator::new(small_config()).run_layer(&layer);
        let auto = Simulator::new(small_config())
            .with_auto_dataflow()
            .run_layer(&layer);
        assert!(
            (auto.total_cycles as f64) < 0.7 * fixed.total_cycles as f64,
            "auto {} vs fixed {}",
            auto.total_cycles,
            fixed.total_cycles
        );
    }

    #[test]
    fn degenerate_layer_reports_zero_utilization() {
        // A layer with no output space yields no tiles, hence zero cycles;
        // utilization must be 0.0, never NaN (regression: 0/0 divide).
        let layer = Layer::Gemm {
            name: "empty".into(),
            shape: GemmShape { m: 0, k: 8, n: 8 },
        };
        let report = Simulator::new(small_config()).run_layer(&layer);
        assert_eq!(report.total_cycles, 0);
        assert_eq!(report.active_partitions, 0);
        assert_eq!(report.compute_utilization, 0.0);
        assert!(report.compute_utilization.is_finite());
        assert_eq!(report.mapping_utilization, 0.0);
    }

    #[test]
    fn trace_export_respects_auto_dataflow() {
        // A fat-output GEMM with a tiny contraction: the analytical model
        // picks a different dataflow than the configured OS default, and
        // the exported traces must follow that per-layer choice.
        let layer = Layer::gemm("fat", 64, 4, 96);
        let sim = Simulator::new(small_config()).with_auto_dataflow();
        let effective = sim.effective_config(&layer);
        assert_ne!(
            effective.dataflow,
            sim.config().dataflow,
            "test needs a shape where auto selection changes the dataflow"
        );

        let report = sim.run_layer(&layer);
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let compute = sim.write_traces(&layer, &mut reads, &mut writes).unwrap();
        assert_eq!(compute.total_cycles, report.total_cycles);
        let max_cycle = String::from_utf8(writes)
            .unwrap()
            .lines()
            .map(|l| l.split(',').next().unwrap().parse::<u64>().unwrap())
            .max()
            .unwrap();
        assert_eq!(max_cycle + 1, report.total_cycles);

        // Regression: the fixed-dataflow schedule is genuinely different,
        // so the old behavior (tracing `config.dataflow`) would disagree.
        let fixed = Simulator::new(small_config()).run_layer(&layer);
        assert_ne!(fixed.total_cycles, report.total_cycles);
    }

    #[test]
    fn partitioned_stall_bus_utilization_is_layer_scoped() {
        // Regression: the layer summary used to report the *total*
        // bandwidth next to the worst partition's utilization of its own
        // 1/P share — mixed scopes. The reported utilization must equal
        // total traffic over total interface capacity across the stalled
        // horizon.
        let layer = Layer::gemm("g", 256, 64, 256);
        let cfg = SimConfig {
            dram_bandwidth: Some(16.0),
            ..small_config()
        };
        let report = Simulator::new(cfg)
            .with_grid(PartitionGrid::new(2, 2))
            .run_layer(&layer);
        let stall = report.stall.expect("stall analysis must run");
        assert_eq!(stall.bandwidth, 16.0);
        let expected =
            report.dram.total_bytes() as f64 / (stall.bandwidth * stall.stalled_cycles as f64);
        assert!(
            (stall.bus_utilization - expected.min(1.0)).abs() < 1e-9,
            "bus_utilization {} != layer-level {}",
            stall.bus_utilization,
            expected
        );
        assert!(stall.bus_utilization > 0.0 && stall.bus_utilization <= 1.0);
    }

    #[test]
    fn run_layer_records_telemetry() {
        let registry = scalesim_telemetry::global();
        let labels = [("layer", "telemetry_probe")];
        let before = registry
            .counter_value(telemetry_names::LAYER_CYCLES, &labels)
            .unwrap_or(0);
        let report =
            Simulator::new(small_config()).run_layer(&Layer::gemm("telemetry_probe", 64, 32, 64));
        let cycles = registry
            .counter_value(telemetry_names::LAYER_CYCLES, &labels)
            .expect("layer cycles recorded");
        assert_eq!(cycles - before, report.total_cycles);
        assert!(registry
            .counter_value(telemetry_names::LAYER_WALL_MICROS, &labels)
            .is_some());
        // Phase counters exist once any layer ran (values are cumulative
        // across concurrently running tests, so only presence is asserted).
        for phase in ["compute", "dram", "energy"] {
            assert!(registry
                .counter_value(telemetry_names::PHASE_MICROS, &[("phase", phase)])
                .is_some());
        }
    }

    #[test]
    fn layer_cache_hit_reproduces_the_cold_report() {
        let registry = scalesim_telemetry::global();
        let sim = Simulator::new(small_config());
        // A shape no other test simulates with this config, so the first
        // run is the one that populates the cache.
        let cold = sim.run_layer(&Layer::gemm("cache_probe_cold", 97, 43, 81));
        let hits_before = registry
            .counter_value(telemetry_names::LAYER_CACHE_HITS, &[])
            .unwrap_or(0);
        let warm = sim.run_layer(&Layer::gemm("cache_probe_warm", 97, 43, 81));
        let hits_after = registry
            .counter_value(telemetry_names::LAYER_CACHE_HITS, &[])
            .unwrap_or(0);
        assert!(hits_after > hits_before, "second run must hit the cache");
        // The memoized result is the cold result with the name patched.
        assert_eq!(warm.name, "cache_probe_warm");
        let mut renamed = warm;
        renamed.name = cold.name.clone();
        assert_eq!(renamed, cold);
    }

    #[test]
    fn dataflow_choice_changes_sram_profile() {
        let layer = Layer::gemm("g", 256, 64, 128);
        let os = Simulator::new(small_config()).run_layer(&layer);
        let ws_cfg = SimConfig {
            dataflow: Dataflow::WeightStationary,
            ..small_config()
        };
        let ws = Simulator::new(ws_cfg).run_layer(&layer);
        assert_ne!(os.sram, ws.sram);
        assert_eq!(os.mac_ops, ws.mac_ops);
    }
}
