//! The traced replay: every layer simulation of a workload run again,
//! serially, through the public functions of each layer — `analyze`
//! (systolic compute), `fold_demand_runs`/`FoldDemandsRuns::next_into`
//! (systolic demand) and `DramModel::new`/`fold_runs`/`finish` (memory) —
//! over the Eq. 5 tiling of the output space, timing each call from
//! outside. It must reproduce `Simulator::run_layer`'s cycles and
//! `DramSummary` exactly, so the split measures the same work.
//!
//! Per-fold call times are summed into per-tile counters (fig9 has
//! millions of folds); one span is kept per workload, point, layer and
//! tile, and written out as Chrome trace-event JSON when the run ends.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use scalesim::{layer_cache, DramSummary, EnergyModel, GemmShape, Layer, PartitionGrid, SimConfig};
use scalesim_memory::{AddressMap, ConvAddressMap, DramModel, GemmAddressMap, SubGemmMap};
use scalesim_systolic::{analyze, fold_demand_runs, FoldDemandRuns};

/// One layer simulation of a workload: what `Simulator::run_layer` was
/// called with.
pub struct Task<'a> {
    /// The point or job the layer belongs to (its span name).
    pub group: String,
    /// The effective configuration (dataflow resolved).
    pub config: SimConfig,
    pub grid: PartitionGrid,
    pub layer: &'a Layer,
}

impl Task<'_> {
    /// The simulator's layer-cache key: tasks sharing it are one
    /// simulation, in the program and in the replay.
    pub fn key(&self) -> u128 {
        layer_cache::key(&self.config, self.grid, &EnergyModel::default(), self.layer).0
    }
}

/// A replayed layer's result, as `run_layer` reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResult {
    pub cycles: u64,
    pub dram: DramSummary,
}

/// A closed trace span. Times are offsets from the replay's start.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub args: Vec<(&'static str, f64)>,
}

/// Totals of one replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub wall: Duration,
    /// `analyze`.
    pub compute: Duration,
    /// `fold_demand_runs` plus every `next_into`.
    pub demand: Duration,
    /// `DramModel::new` plus every `fold_runs` plus `finish`.
    pub dram: Duration,
    pub folds: u64,
    pub runs: u64,
    pub elements: u64,
    pub tiles: u64,
    /// Distinct layer simulations replayed.
    pub layer_sims: u64,
    /// Layer tasks, counting repeats of a memoized shape.
    pub layer_tasks: u64,
    pub results: HashMap<u128, LayerResult>,
    pub spans: Vec<Span>,
}

impl Replay {
    /// Time inside the replay not spent in a timed layer call, over the
    /// replay's wall time.
    pub fn unattributed_frac(&self) -> f64 {
        let timed = self.compute + self.demand + self.dram;
        self.wall.saturating_sub(timed).as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Writes spans as Chrome trace-event JSON (loads in Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}",
            json_escape(&s.name),
            s.start.as_secs_f64() * 1e6,
            (s.end - s.start).as_secs_f64() * 1e6,
            s.id,
            s.parent,
        );
        for (k, v) in &s.args {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Sums elapsed time into accumulators between successive laps; with
/// tracing off it reads no clock at all.
struct Clock {
    on: bool,
    last: Instant,
}

impl Clock {
    fn lap(&mut self, acc: &mut Duration) {
        if self.on {
            let now = Instant::now();
            *acc += now - self.last;
            self.last = now;
        }
    }
}

/// One partition's tile of the output space.
struct Tile {
    m_off: u64,
    m_len: u64,
    n_off: u64,
    n_len: u64,
}

/// Eq. 5 of the paper in output coordinates: a ceiling split of `M × N`
/// over the grid; partitions that would start past the end get no work.
fn tiles(shape: GemmShape, grid: PartitionGrid) -> Vec<Tile> {
    let chunk_m = shape.m.div_ceil(grid.rows());
    let chunk_n = shape.n.div_ceil(grid.cols());
    let mut out = Vec::new();
    for pi in 0..grid.rows() {
        let m_off = pi * chunk_m;
        if m_off >= shape.m {
            break;
        }
        for pj in 0..grid.cols() {
            let n_off = pj * chunk_n;
            if n_off >= shape.n {
                break;
            }
            out.push(Tile {
                m_off,
                m_len: chunk_m.min(shape.m - m_off),
                n_off,
                n_len: chunk_n.min(shape.n - n_off),
            });
        }
    }
    out
}

/// Partition tiles `task` splits into (no simulation).
pub fn tile_count(task: &Task<'_>) -> u64 {
    tiles(task.layer.shape(), task.grid).len() as u64
}

/// Replays `tasks` in order, once per distinct layer simulation. With
/// `traced` off no clock is read inside the loop and no span is kept, so
/// the two walls differ by the tracing overhead.
pub fn replay(workload: &str, tasks: &[Task<'_>], traced: bool) -> Replay {
    let origin = Instant::now();
    let mut out = Replay::default();
    let mut seen = HashSet::new();
    let mut scratch = FoldDemandRuns::default();
    let mut next_id = 1u64;
    let mut open_group: Option<(String, u64, Duration)> = None;
    let root = next_id;
    next_id += 1;

    for task in tasks {
        out.layer_tasks += 1;
        if open_group.as_ref().map(|g| &g.0) != Some(&task.group) {
            close_group(&mut out, &mut open_group, root, origin, traced);
            open_group = Some((task.group.clone(), next_id, origin.elapsed()));
            next_id += 1;
        }
        let key = task.key();
        if !seen.insert(key) {
            continue;
        }
        let group_id = open_group.as_ref().map_or(root, |g| g.1);
        let layer_id = next_id;
        next_id += 1;
        let layer_start = origin.elapsed();
        let result = replay_layer(
            task,
            &mut out,
            &mut scratch,
            &mut next_id,
            layer_id,
            origin,
            traced,
        );
        if traced {
            out.spans.push(Span {
                id: layer_id,
                parent: group_id,
                name: task.layer.name().to_owned(),
                start: layer_start,
                end: origin.elapsed(),
                args: vec![("cycles", result.cycles as f64)],
            });
        }
        out.results.insert(key, result);
        out.layer_sims += 1;
    }
    close_group(&mut out, &mut open_group, root, origin, traced);
    out.wall = origin.elapsed();
    if traced {
        out.spans.push(Span {
            id: root,
            parent: 0,
            name: workload.to_owned(),
            start: Duration::ZERO,
            end: out.wall,
            args: vec![
                ("layer_tasks", out.layer_tasks as f64),
                ("layer_sims", out.layer_sims as f64),
                ("tiles", out.tiles as f64),
                ("folds", out.folds as f64),
                ("runs", out.runs as f64),
                ("elements", out.elements as f64),
            ],
        });
    }
    out
}

fn close_group(
    out: &mut Replay,
    open: &mut Option<(String, u64, Duration)>,
    root: u64,
    origin: Instant,
    traced: bool,
) {
    if let Some((name, id, start)) = open.take() {
        if traced {
            out.spans.push(Span {
                id,
                parent: root,
                name,
                start,
                end: origin.elapsed(),
                args: Vec::new(),
            });
        }
    }
}

/// Replays one layer over its partition tiles and aggregates them the
/// way `run_layer` does: the slowest tile's cycles, and the tiles' DRAM
/// summaries merged as concurrent traffic.
fn replay_layer(
    task: &Task<'_>,
    out: &mut Replay,
    scratch: &mut FoldDemandRuns,
    next_id: &mut u64,
    layer_id: u64,
    origin: Instant,
    traced: bool,
) -> LayerResult {
    let config = &task.config;
    let shape = task.layer.shape();
    let map: Box<dyn AddressMap> = match task.layer {
        Layer::Conv(conv) => Box::new(ConvAddressMap::new(conv, config.offsets)),
        Layer::Gemm { shape, .. } => Box::new(GemmAddressMap::from_shape(*shape, config.offsets)),
    };
    let provisioned = task.grid.count();
    let mut cycles = 0u64;
    let mut dram_total = DramSummary::default();
    for tile in tiles(shape, task.grid) {
        let tile_start = origin.elapsed();
        let (mut compute_t, mut demand_t, mut dram_t) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut folds, mut runs, mut elements) = (0u64, 0u64, 0u64);
        let sub_map = SubGemmMap::new(&*map, tile.m_off, tile.n_off);
        let dims = GemmShape::new(tile.m_len, shape.k, tile.n_len).project(config.dataflow);

        let mut clock = Clock {
            on: traced,
            last: Instant::now(),
        };
        let compute = analyze(&dims, config.array);
        clock.lap(&mut compute_t);
        let mut dram = DramModel::new(
            config.ifmap_buffer(provisioned),
            config.filter_buffer(provisioned),
            config.ofmap_buffer(provisioned),
        );
        clock.lap(&mut dram_t);
        let mut demands = fold_demand_runs(&dims, config.array, &sub_map);
        loop {
            let more = demands.next_into(scratch);
            clock.lap(&mut demand_t);
            if !more {
                break;
            }
            folds += 1;
            runs += scratch.run_count();
            elements += scratch.element_count();
            dram.fold_runs(
                scratch.fold.duration,
                &scratch.a,
                &scratch.b,
                &scratch.o_spill,
                &scratch.o_writes,
            );
            clock.lap(&mut dram_t);
        }
        let part = dram.finish();
        clock.lap(&mut dram_t);

        cycles = cycles.max(compute.total_cycles);
        if dram_total.folds == 0 && dram_total.total_accesses() == 0 {
            dram_total = part;
        } else {
            dram_total.merge_concurrent(&part);
        }
        out.compute += compute_t;
        out.demand += demand_t;
        out.dram += dram_t;
        out.folds += folds;
        out.runs += runs;
        out.elements += elements;
        out.tiles += 1;
        if traced {
            out.spans.push(Span {
                id: *next_id,
                parent: layer_id,
                name: format!(
                    "tile m{}+{} n{}+{}",
                    tile.m_off, tile.m_len, tile.n_off, tile.n_len
                ),
                start: tile_start,
                end: origin.elapsed(),
                args: vec![
                    ("folds", folds as f64),
                    ("runs", runs as f64),
                    ("elements", elements as f64),
                    ("compute_ns", compute_t.as_nanos() as f64),
                    ("demand_ns", demand_t.as_nanos() as f64),
                    ("dram_ns", dram_t.as_nanos() as f64),
                ],
            });
            *next_id += 1;
        }
    }
    LayerResult {
        cycles,
        dram: dram_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim::{ArrayShape, ConvLayer, Dataflow, Simulator};

    #[test]
    fn replay_equals_run_layer_on_every_dataflow_and_layer_kind() {
        let conv: Layer = ConvLayer::new("conv", 12, 12, 3, 3, 6, 20, 1)
            .unwrap()
            .into();
        let gemm = Layer::gemm("gemm", 40, 24, 36);
        let layers = [conv, gemm];
        let grid = PartitionGrid::new(2, 2);
        let mut tasks = Vec::new();
        for df in [
            Dataflow::OutputStationary,
            Dataflow::WeightStationary,
            Dataflow::InputStationary,
        ] {
            let config = SimConfig::builder()
                .array(ArrayShape::square(4))
                .dataflow(df)
                .sram_kb(1, 1, 1)
                .build();
            for layer in &layers {
                tasks.push(Task {
                    group: format!("{df:?}"),
                    config,
                    grid,
                    layer,
                });
            }
        }
        for traced in [false, true] {
            let replay = replay("small", &tasks, traced);
            assert_eq!(replay.layer_sims, 6);
            for task in &tasks {
                let report = Simulator::new(task.config)
                    .with_grid(task.grid)
                    .run_layer(task.layer);
                let replayed = &replay.results[&task.key()];
                assert_eq!(replayed.cycles, report.total_cycles, "{}", task.group);
                assert_eq!(replayed.dram, report.dram, "{}", task.group);
            }
            assert!(replay.tiles >= 6 * 4 - 2, "partitioned tiles replayed");
            assert!(replay.runs > 0 && replay.elements >= replay.runs);
            if traced {
                // Root, 3 groups, 6 layers, one span per tile.
                assert_eq!(replay.spans.len() as u64, 1 + 3 + 6 + replay.tiles);
                assert!(replay.demand > Duration::ZERO && replay.dram > Duration::ZERO);
                let trace = scalesim_server::Json::parse(&chrome_json(&replay.spans)).unwrap();
                let events = trace.get("traceEvents").and_then(|e| e.as_array()).unwrap();
                assert_eq!(events.len(), replay.spans.len());
            } else {
                assert!(replay.spans.is_empty());
                assert_eq!(replay.demand, Duration::ZERO);
            }
        }
    }

    #[test]
    fn repeated_shapes_replay_once() {
        let a = Layer::gemm("a", 16, 8, 16);
        let b = Layer::gemm("b", 16, 8, 16);
        let config = SimConfig::builder().array(ArrayShape::square(4)).build();
        let tasks: Vec<Task> = [&a, &b]
            .into_iter()
            .map(|layer| Task {
                group: "p".into(),
                config,
                grid: PartitionGrid::monolithic(),
                layer,
            })
            .collect();
        let replay = replay("w", &tasks, true);
        assert_eq!((replay.layer_sims, replay.layer_tasks), (1, 2));
    }
}
