//! Analytical-guided design-space exploration: successive refinement from
//! the full cartesian candidate space down to a cycle-accurate Pareto
//! frontier.
//!
//! The paper's methodology (Sec. III–IV) is not "simulate everything": the
//! closed-form runtime model (Eqs. 1–4) bounds the design space first, and
//! cycle-accurate simulation is spent only where the analytical picture is
//! incomplete. [`ExploreEngine`] packages that workflow over a normal
//! [`SweepPlan`] in three stages:
//!
//! * **Stage 0 — analytical evaluation.** Every candidate point is scored
//!   with [`predict_cycles`], an exact reimplementation of the simulator's
//!   stall-free runtime (Eq. 3 summed over folds of the worst partition
//!   tile). Candidates are generated lazily through [`SweepPlan::points`],
//!   so million-point spaces never materialize.
//! * **Stage 1 — frontier pruning.** Per workload, the per-budget best
//!   predictions form a cost/runtime [`Frontier`]; only candidates within
//!   `keep_within` percent of the frontier at their budget (or cheaper)
//!   survive ([`Frontier::within_band`]). Survivors are ranked by
//!   predicted runtime.
//! * **Stage 2 — budgeted refinement.** Survivors are simulated through
//!   the shared [`SweepEngine`] (inheriting its result cache, the
//!   process-wide layer cache and its worker threads) in fixed-size
//!   batches. After each batch the measured frontier and the
//!   measured/predicted error distribution are updated, and the next batch
//!   is chosen by [`acquisition_score`] — the candidates whose corrected
//!   predictions fall furthest below the measured frontier, i.e. the
//!   largest analytical-vs-measured gaps in the frontier neighborhood.
//!
//! Determinism: with [`ExploreBudget::Sims`] (or unlimited), the same plan
//! and budget produce byte-identical output at any `jobs` count — batch
//! composition depends only on deterministic simulation results and ties
//! break on plan order. [`ExploreBudget::WallClock`] necessarily trades
//! that away: it stops at a machine-dependent batch boundary.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scalesim_analytical::{
    acquisition_score, best_dataflow, exact_scaleup, AnalyticalModel, ErrorStats, Frontier,
    PartitionGrid,
};
use scalesim_systolic::ArrayShape;
use scalesim_telemetry::json::Escaped;
use scalesim_telemetry::{Counter, Gauge, Histogram, Registry};
use scalesim_topology::{GemmShape, Topology};

use crate::report::NetworkReport;
use crate::sweep::{
    sweep_row_fields, DataflowChoice, NullSink, PointSpec, SweepEngine, SweepError, SweepPlan,
};

/// Metric names the explore engine records. Part of the public API:
/// servers and dashboards read these back by name.
pub mod telemetry_names {
    /// Counter: candidate points evaluated analytically (stage 0).
    pub const CANDIDATES: &str = "scalesim_explore_candidates_total";
    /// Counter: candidates discarded by frontier pruning (stage 1).
    pub const PRUNED: &str = "scalesim_explore_pruned_total";
    /// Counter: candidates simulated cycle-accurately (stage 2).
    pub const SIMULATED: &str = "scalesim_explore_simulated_total";
    /// Histogram: wall time per stage, seconds, labeled `stage=analytical
    /// |prune|simulate`.
    pub const STAGE_SECONDS: &str = "scalesim_explore_stage_seconds";
    /// Gauge: measured-frontier points across workloads after the last
    /// explore run.
    pub const FRONTIER_SIZE: &str = "scalesim_explore_frontier_size";
}

/// How many survivors stage 2 simulates per refinement step. A fixed
/// constant — never derived from the worker count — so batch composition,
/// and therefore the output, is identical at any `jobs` value.
pub const REFINE_BATCH: usize = 8;

/// Stage-2 simulation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreBudget {
    /// Simulate every survivor (the refinement loop runs dry).
    Unlimited,
    /// At most this many survivor points go through cycle-accurate
    /// simulation (cache hits count: the budget bounds *points*, keeping
    /// the outcome independent of what earlier runs left in the caches).
    Sims(usize),
    /// Stop at the first batch boundary past this wall-clock duration.
    /// Best-effort: the measured set becomes machine-dependent, so the
    /// byte-identical-output contract does not apply.
    WallClock(Duration),
}

/// Explore parameters beyond the plan itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreOptions {
    /// Stage-1 slack band: survivors are within this percentage of the
    /// analytical frontier at their budget or cheaper.
    pub keep_within_pct: f64,
    /// Stage-2 simulation budget.
    pub budget: ExploreBudget,
    /// Parallel workers for stage-2 simulation batches.
    pub jobs: usize,
    /// Emit live progress lines on stderr: one per stage boundary plus
    /// one per refinement batch, with an ETA extrapolated from the
    /// stage-0 predicted-cycle totals. Off by default; when off the cost
    /// is one branch per batch.
    pub progress: bool,
}

impl Default for ExploreOptions {
    /// 10 % slack, unlimited simulation budget, single worker, no
    /// progress output.
    fn default() -> ExploreOptions {
        ExploreOptions {
            keep_within_pct: 10.0,
            budget: ExploreBudget::Unlimited,
            jobs: 1,
            progress: false,
        }
    }
}

/// The analytical lower bound the explore pipeline prunes with: the exact
/// stall-free cycles the simulator would report for `topology` on a
/// `grid` of `array`s — computed in closed form, no simulation.
///
/// Mirrors the simulator's partitioning convention exactly: the `M × N`
/// output space splits into `grid` tiles of at most
/// `⌈M/P_R⌉ × ⌈N/P_C⌉`; partitions run in parallel, so a layer costs its
/// largest tile, which is the first one. Under [`DataflowChoice::Auto`]
/// the per-layer dataflow is re-selected from the *unsplit* shape, exactly
/// as [`crate::Simulator`] does. Because fold cycles (Eq. 3) are monotone
/// in the spatial extents, the first tile dominates every edge tile, and
/// the sum over layers equals [`NetworkReport::total_cycles`] — the
/// stall-free component of the measured runtime. Memory stalls only add
/// cycles, so this never exceeds
/// [`NetworkReport::total_effective_cycles`].
///
/// ```
/// use scalesim::explore::predict_cycles;
/// use scalesim::{DataflowChoice, Simulator, SimConfig};
/// use scalesim_analytical::PartitionGrid;
/// use scalesim_systolic::ArrayShape;
/// use scalesim_topology::{Layer, Topology};
///
/// let topo = Topology::from_layers("t", vec![Layer::gemm("l0", 100, 32, 60)]);
/// let config = SimConfig { array: ArrayShape::new(16, 16), ..SimConfig::default() };
/// let grid = PartitionGrid::new(2, 2);
/// let predicted = predict_cycles(
///     &topo, config.array, grid, DataflowChoice::Fixed(config.dataflow));
/// let report = Simulator::new(config).with_grid(grid).run_topology(&topo);
/// assert_eq!(predicted, report.total_cycles());
/// ```
pub fn predict_cycles(
    topology: &Topology,
    array: ArrayShape,
    grid: PartitionGrid,
    dataflow: DataflowChoice,
) -> u64 {
    topology
        .layers()
        .iter()
        .map(|layer| {
            let shape = layer.shape();
            if shape.m == 0 || shape.k == 0 || shape.n == 0 {
                return 0;
            }
            let df = match dataflow {
                DataflowChoice::Fixed(df) => df,
                DataflowChoice::Auto => best_dataflow(shape, array, &AnalyticalModel).dataflow,
            };
            let tile = GemmShape::new(
                shape.m.div_ceil(grid.rows()),
                shape.k,
                shape.n.div_ceil(grid.cols()),
            );
            exact_scaleup(&tile.project(df), array)
        })
        .sum()
}

/// A candidate that survived stage-1 pruning, with its prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivorPoint {
    /// The design point (plan-order `index` preserved).
    pub spec: PointSpec,
    /// Stage-0 predicted stall-free cycles.
    pub predicted: u64,
}

/// A survivor that went through cycle-accurate simulation.
#[derive(Debug, Clone)]
pub struct MeasuredPoint {
    /// The design point.
    pub spec: PointSpec,
    /// Stage-0 predicted stall-free cycles.
    pub predicted: u64,
    /// The full simulation report.
    pub report: Arc<NetworkReport>,
}

impl MeasuredPoint {
    /// Measured effective (stall-inclusive) cycles.
    pub fn measured(&self) -> u64 {
        self.report.total_effective_cycles()
    }

    /// Measured/predicted ratio — ≥ 1.0 by the lower-bound contract.
    pub fn error_ratio(&self) -> f64 {
        self.measured() as f64 / (self.predicted.max(1)) as f64
    }
}

/// The result of stages 0–1 alone: the analytical evaluation and pruning
/// of a plan's candidate space, before any simulation.
#[derive(Debug, Clone)]
pub struct PruneOutcome {
    /// Candidate points evaluated analytically.
    pub candidates: usize,
    /// Survivors of the slack band, ranked by predicted runtime (plan
    /// order on ties).
    pub survivors: Vec<SurvivorPoint>,
    /// Wall-clock of stage 0 (lazy analytical evaluation), seconds.
    pub analytical_seconds: f64,
    /// Wall-clock of stage 1 (frontier construction + band), seconds.
    pub prune_seconds: f64,
}

/// Wall-clock spent per explore stage, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSeconds {
    /// Stage 0: lazy analytical evaluation of every candidate.
    pub analytical: f64,
    /// Stage 1: frontier construction and slack-band pruning.
    pub prune: f64,
    /// Stage 2: budgeted cycle-accurate refinement.
    pub simulate: f64,
}

/// The result of an explore run.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// The plan's name.
    pub plan_name: String,
    /// Candidate points evaluated analytically (stage 0).
    pub candidates: usize,
    /// Candidates discarded by frontier pruning (stage 1).
    pub pruned: usize,
    /// Survivors of pruning (`candidates - pruned`).
    pub survivors: usize,
    /// Survivor points actually simulated (bounded by the budget).
    pub simulated: usize,
    /// Points served by the sweep engine without a fresh simulation.
    pub cache_hits: u64,
    /// Simulated points in plan order.
    pub measured: Vec<MeasuredPoint>,
    /// Distribution of measured/predicted ratios over `measured`.
    pub error_stats: ErrorStats,
    /// Wall-clock per stage.
    pub stage_seconds: StageSeconds,
}

impl ExploreOutcome {
    /// The measured Pareto frontiers, one `(workload, points)` entry per
    /// workload in order of first appearance: the simulated points where
    /// spending more MACs strictly reduced effective cycles.
    pub fn frontiers(&self) -> Vec<(&str, Vec<&MeasuredPoint>)> {
        let mut order: Vec<&str> = Vec::new();
        let mut groups: HashMap<&str, Vec<&MeasuredPoint>> = HashMap::new();
        for point in &self.measured {
            let entry = groups.entry(point.spec.workload.as_str()).or_default();
            if entry.is_empty() {
                order.push(point.spec.workload.as_str());
            }
            entry.push(point);
        }
        order
            .into_iter()
            .map(|workload| {
                let mut members = groups.remove(workload).expect("group recorded in order");
                members.sort_by_key(|p| (p.spec.budget, p.measured(), p.spec.index));
                let mut frontier: Vec<&MeasuredPoint> = Vec::new();
                for point in members {
                    match frontier.last() {
                        Some(last) if point.measured() >= last.measured() => {}
                        _ => frontier.push(point),
                    }
                }
                (workload, frontier)
            })
            .collect()
    }

    /// Whether `point` (by plan index) is on its workload's measured
    /// frontier.
    fn on_frontier(&self, index: usize) -> bool {
        self.frontiers()
            .iter()
            .any(|(_, points)| points.iter().any(|p| p.spec.index == index))
    }

    /// Writes the measured points as CSV ([`EXPLORE_CSV_HEADER`] + one row
    /// per point, plan order).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_csv<W: io::Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(EXPLORE_CSV_HEADER.as_bytes())?;
        let on_frontier: Vec<bool> = self
            .measured
            .iter()
            .map(|p| self.on_frontier(p.spec.index))
            .collect();
        for (point, frontier) in self.measured.iter().zip(on_frontier) {
            let (prefix, suffix) = sweep_row_fields(&point.spec, &point.report);
            writeln!(
                writer,
                "{prefix},{},{suffix},{}",
                point.predicted, frontier as u8
            )?;
        }
        writer.flush()
    }

    /// Writes the measured points as JSON Lines: one object per point,
    /// fixed key order, plan order.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_jsonl<W: io::Write>(&self, mut writer: W) -> io::Result<()> {
        for point in &self.measured {
            let report = &point.report;
            writeln!(
                writer,
                "{{\"workload\":\"{}\",\"budget\":{},\"partitions\":{},\"grid\":\"{}\",\
                 \"array\":\"{}\",\"dataflow\":\"{}\",\"predicted_cycles\":{},\"cycles\":{},\
                 \"effective_cycles\":{},\"macs\":{},\"overall_util\":{:.4},\"dram_bytes\":{},\
                 \"peak_bw_bytes_per_cycle\":{:.3},\"energy\":{:.1},\"on_frontier\":{}}}",
                Escaped(&point.spec.workload),
                point.spec.budget,
                point.spec.partitions(),
                point.spec.grid,
                point.spec.array,
                point.spec.dataflow,
                point.predicted,
                report.total_cycles(),
                report.total_effective_cycles(),
                report.total_macs(),
                report.overall_utilization(),
                report.total_dram_bytes(),
                report.peak_required_bandwidth(),
                report.total_energy().total(),
                self.on_frontier(point.spec.index),
            )?;
        }
        writer.flush()
    }
}

/// The CSV columns emitted by [`ExploreOutcome::write_csv`], terminated by
/// a newline. The sweep columns plus the stage-0 prediction and a
/// frontier-membership flag.
pub const EXPLORE_CSV_HEADER: &str = "workload,budget,partitions,grid,array,dataflow,\
     predicted_cycles,cycles,effective_cycles,macs,overall_util,dram_bytes,\
     peak_bw_bytes_per_cycle,energy,on_frontier\n";

/// The successive-refinement executor. Wraps a [`SweepEngine`] (stage-2
/// simulation inherits its result cache and telemetry) and adds the
/// explore counters.
pub struct ExploreEngine {
    sweep: SweepEngine,
    candidates: Arc<Counter>,
    pruned: Arc<Counter>,
    simulated: Arc<Counter>,
    frontier_size: Arc<Gauge>,
    stage_analytical: Arc<Histogram>,
    stage_prune: Arc<Histogram>,
    stage_simulate: Arc<Histogram>,
}

impl ExploreEngine {
    /// An engine whose stage-2 sweep caches up to `cache_capacity`
    /// distinct results, with telemetry in the process-global registry.
    pub fn new(cache_capacity: usize) -> ExploreEngine {
        ExploreEngine::with_registry(cache_capacity, scalesim_telemetry::global())
    }

    /// An engine recording its metrics into `registry`.
    pub fn with_registry(cache_capacity: usize, registry: &Registry) -> ExploreEngine {
        let stage = |label: &str| {
            registry.histogram_with(
                telemetry_names::STAGE_SECONDS,
                "Wall time per explore stage.",
                &Histogram::duration_buckets(),
                &[("stage", label)],
            )
        };
        ExploreEngine {
            sweep: SweepEngine::with_registry(cache_capacity, registry),
            candidates: registry.counter(
                telemetry_names::CANDIDATES,
                "Explore candidates evaluated analytically.",
            ),
            pruned: registry.counter(
                telemetry_names::PRUNED,
                "Explore candidates discarded by frontier pruning.",
            ),
            simulated: registry.counter(
                telemetry_names::SIMULATED,
                "Explore candidates simulated cycle-accurately.",
            ),
            frontier_size: registry.gauge(
                telemetry_names::FRONTIER_SIZE,
                "Measured-frontier points across workloads, last explore run.",
            ),
            stage_analytical: stage("analytical"),
            stage_prune: stage("prune"),
            stage_simulate: stage("simulate"),
        }
    }

    /// The wrapped sweep engine (e.g. to inspect its result cache).
    pub fn sweep_engine(&self) -> &SweepEngine {
        &self.sweep
    }

    /// Installs a fault-injection plan on the wrapped sweep engine, so
    /// tests can panic or delay stage-2 simulations. See
    /// [`crate::exec::FaultPlan`]; an empty plan clears injection.
    pub fn inject_faults(&self, plan: crate::exec::FaultPlan) {
        self.sweep.inject_faults(plan);
    }

    /// Runs stages 0–1 only: analytically evaluates every candidate and
    /// prunes to the slack band around the per-workload frontier. This is
    /// the shared front half of [`ExploreEngine::run`], public so callers
    /// can inspect (or exhaustively simulate) the surviving region.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] for invalid plans.
    pub fn prune(
        &self,
        plan: &SweepPlan,
        keep_within_pct: f64,
    ) -> Result<PruneOutcome, SweepError> {
        // Stage 0: lazy analytical evaluation. One u64 per candidate is
        // the only allocation proportional to the space.
        let stage0_span = scalesim_telemetry::trace::span("explore.stage0");
        let started = Instant::now();
        let topologies: HashMap<&str, &Topology> = plan
            .workloads
            .iter()
            .map(|w| (w.label.as_str(), &w.topology))
            .collect();
        let mut predictions: Vec<u64> = Vec::with_capacity(plan.points()?.len());
        // (workload label, budget) -> minimum prediction.
        let mut best: HashMap<(String, u64), u64> = HashMap::new();
        for spec in plan.points()? {
            let predicted = predict_cycles(
                topologies[spec.workload.as_str()],
                spec.array,
                spec.grid,
                spec.dataflow,
            );
            predictions.push(predicted);
            best.entry((spec.workload, spec.budget))
                .and_modify(|b| *b = (*b).min(predicted))
                .or_insert(predicted);
        }
        let candidates = predictions.len();
        self.candidates.add(candidates as u64);
        let analytical_seconds = started.elapsed().as_secs_f64();
        self.stage_analytical.observe(analytical_seconds);
        drop(stage0_span);

        // Stage 1: per-workload analytical frontiers; keep the slack band.
        let stage1_span = scalesim_telemetry::trace::span("explore.stage1");
        let started = Instant::now();
        let mut frontiers: HashMap<&str, Frontier> = HashMap::new();
        for w in &plan.workloads {
            let points = best
                .iter()
                .filter(|((label, _), _)| label == &w.label)
                .map(|(&(_, budget), &cycles)| (budget, cycles));
            frontiers.insert(w.label.as_str(), Frontier::build(points));
        }
        let mut survivors: Vec<SurvivorPoint> = Vec::new();
        for (spec, &predicted) in plan.points()?.zip(&predictions) {
            let frontier = &frontiers[spec.workload.as_str()];
            if frontier.within_band(spec.budget, predicted, keep_within_pct) {
                survivors.push(SurvivorPoint { spec, predicted });
            }
        }
        self.pruned.add((candidates - survivors.len()) as u64);
        // Rank by predicted runtime, plan order on ties.
        survivors.sort_by_key(|s| (s.predicted, s.spec.index));
        let prune_seconds = started.elapsed().as_secs_f64();
        self.stage_prune.observe(prune_seconds);
        drop(stage1_span);

        Ok(PruneOutcome {
            candidates,
            survivors,
            analytical_seconds,
            prune_seconds,
        })
    }

    /// Runs the three-stage refinement over `plan`.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] for invalid plans.
    pub fn run(
        &self,
        plan: &SweepPlan,
        options: &ExploreOptions,
    ) -> Result<ExploreOutcome, SweepError> {
        let _run_span = scalesim_telemetry::trace::span("explore.run");
        let pruned_space = self.prune(plan, options.keep_within_pct)?;
        let candidates = pruned_space.candidates;
        let survivor_count = pruned_space.survivors.len();
        let pruned = candidates - survivor_count;
        if options.progress {
            eprintln!(
                "explore {}: stage 0 evaluated {candidates} candidates in {:.2}s",
                plan.name, pruned_space.analytical_seconds,
            );
            eprintln!(
                "explore {}: stage 1 kept {survivor_count}/{candidates} ({pruned} pruned, {:.1}%)",
                plan.name,
                100.0 * pruned as f64 / candidates.max(1) as f64,
            );
        }
        let mut stage_seconds = StageSeconds {
            analytical: pruned_space.analytical_seconds,
            prune: pruned_space.prune_seconds,
            simulate: 0.0,
        };

        // Stage 2: budgeted refinement through the sweep engine.
        let stage2_span = scalesim_telemetry::trace::span("explore.stage2");
        let started = Instant::now();
        let mut remaining = pruned_space.survivors;
        let mut measured: Vec<MeasuredPoint> = Vec::new();
        let mut cache_hits = 0u64;
        let sims_allowed = match options.budget {
            ExploreBudget::Sims(n) => n,
            ExploreBudget::Unlimited | ExploreBudget::WallClock(_) => usize::MAX,
        };
        // Progress bookkeeping: ETA extrapolates wall time per predicted
        // cycle over the predicted cycles still queued for measurement.
        let target = remaining.len().min(sims_allowed);
        let predicted_total: u128 = if options.progress {
            // Cap at the sims budget: the cheapest-predicted points go
            // first, so the first `target` entries approximate the set
            // that will actually be measured.
            remaining
                .iter()
                .take(target)
                .map(|s| u128::from(s.predicted))
                .sum()
        } else {
            0
        };
        let mut predicted_done: u128 = 0;
        while !remaining.is_empty() && measured.len() < sims_allowed {
            if let ExploreBudget::WallClock(limit) = options.budget {
                if started.elapsed() >= limit {
                    break;
                }
            }
            let take = REFINE_BATCH
                .min(remaining.len())
                .min(sims_allowed - measured.len());
            // Acquisition ordering: before any measurement the predicted
            // ranking stands; afterwards, corrected predictions furthest
            // below the measured frontier come first.
            if !measured.is_empty() {
                let global = median_ratio(measured.iter());
                let corrections: HashMap<&str, f64> = plan
                    .workloads
                    .iter()
                    .map(|w| {
                        let of_workload = measured.iter().filter(|p| p.spec.workload == w.label);
                        let ratio = if of_workload.clone().next().is_some() {
                            median_ratio(of_workload)
                        } else {
                            global
                        };
                        (w.label.as_str(), ratio)
                    })
                    .collect();
                let measured_frontiers: HashMap<&str, Frontier> = plan
                    .workloads
                    .iter()
                    .map(|w| {
                        let points = measured
                            .iter()
                            .filter(|p| p.spec.workload == w.label)
                            .map(|p| (p.spec.budget, p.measured()));
                        (w.label.as_str(), Frontier::build(points))
                    })
                    .collect();
                remaining.sort_by(|a, b| {
                    let score = |s: &SurvivorPoint| {
                        acquisition_score(
                            s.spec.budget,
                            s.predicted,
                            corrections[s.spec.workload.as_str()],
                            &measured_frontiers[s.spec.workload.as_str()],
                        )
                    };
                    score(b)
                        .total_cmp(&score(a))
                        .then(a.spec.index.cmp(&b.spec.index))
                });
            }
            let batch: Vec<SurvivorPoint> = remaining.drain(..take).collect();
            let specs: Vec<PointSpec> = batch.iter().map(|s| s.spec.clone()).collect();
            let outcome = self
                .sweep
                .run_points(plan, specs, options.jobs, &mut NullSink)?;
            cache_hits += outcome.cache_hits;
            for (survivor, result) in batch.into_iter().zip(outcome.results) {
                predicted_done += u128::from(survivor.predicted);
                measured.push(MeasuredPoint {
                    spec: survivor.spec,
                    predicted: survivor.predicted,
                    report: result.report,
                });
            }
            if options.progress {
                let elapsed = started.elapsed().as_secs_f64();
                let eta = if predicted_done > 0 {
                    elapsed / predicted_done as f64
                        * predicted_total.saturating_sub(predicted_done) as f64
                } else {
                    0.0
                };
                eprintln!(
                    "explore {}: stage 2 measured {}/{target} points ({cache_hits} cache hits), ETA {eta:.0}s",
                    plan.name,
                    measured.len(),
                );
            }
        }
        drop(stage2_span);
        measured.sort_by_key(|p| p.spec.index);
        let simulated = measured.len();
        self.simulated.add(simulated as u64);
        stage_seconds.simulate = started.elapsed().as_secs_f64();
        self.stage_simulate.observe(stage_seconds.simulate);

        let error_stats =
            ErrorStats::from_ratios(measured.iter().map(|p| p.error_ratio()).collect());
        let outcome = ExploreOutcome {
            plan_name: plan.name.clone(),
            candidates,
            pruned,
            survivors: survivor_count,
            simulated,
            cache_hits,
            measured,
            error_stats,
            stage_seconds,
        };
        let frontier_points: usize = outcome.frontiers().iter().map(|(_, p)| p.len()).sum();
        self.frontier_size.set(frontier_points as i64);
        Ok(outcome)
    }
}

/// Median measured/predicted ratio over an iterator of measured points.
fn median_ratio<'a>(points: impl Iterator<Item = &'a MeasuredPoint>) -> f64 {
    ErrorStats::from_ratios(points.map(MeasuredPoint::error_ratio).collect()).p50
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::Simulator;
    use crate::sweep::{AspectAxis, SweepWorkload};
    use scalesim_topology::{Dataflow, Layer};

    fn synthetic_plan(bandwidth: Option<f64>) -> SweepPlan {
        let mut plan = SweepPlan::new("explore-test");
        plan.base.dram_bandwidth = bandwidth;
        for (i, (m, k, n)) in [(100u64, 32u64, 60u64), (48, 96, 24), (320, 16, 120)]
            .iter()
            .enumerate()
        {
            let label = format!("G{i}");
            plan.workloads.push(SweepWorkload {
                label: label.clone(),
                topology: Topology::from_layers(&label, vec![Layer::gemm("l0", *m, *k, *n)]),
            });
        }
        plan.budgets = vec![1 << 10, 1 << 12];
        plan.aspects = AspectAxis::All;
        plan.dataflows = vec![
            DataflowChoice::Fixed(Dataflow::OutputStationary),
            DataflowChoice::Auto,
        ];
        plan
    }

    #[test]
    fn prediction_matches_simulator_stall_free_cycles() {
        let plan = synthetic_plan(Some(16.0));
        for spec in plan.points().unwrap() {
            let w = plan
                .workloads
                .iter()
                .find(|w| w.label == spec.workload)
                .unwrap();
            let predicted = predict_cycles(&w.topology, spec.array, spec.grid, spec.dataflow);
            let config = spec.config(&plan.base);
            let mut sim = Simulator::new(config).with_grid(spec.grid);
            if spec.dataflow == DataflowChoice::Auto {
                sim = sim.with_auto_dataflow();
            }
            let report = sim.run_topology(&w.topology);
            assert_eq!(
                predicted,
                report.total_cycles(),
                "stall-free mismatch at {spec:?}"
            );
            assert!(
                predicted <= report.total_effective_cycles(),
                "lower bound violated at {spec:?}"
            );
        }
    }

    /// Compares explore's frontiers against frontiers rebuilt from an
    /// independent exhaustive sweep of `specs`.
    fn assert_frontiers_match(plan: &SweepPlan, outcome: &ExploreOutcome, specs: Vec<PointSpec>) {
        let sweep = SweepEngine::with_registry(1024, &Registry::new());
        let all = sweep
            .run_points(plan, specs, 1, &mut crate::sweep::NullSink)
            .unwrap();
        let mut exhaustive: HashMap<&str, Vec<(u64, u64)>> = HashMap::new();
        for r in &all.results {
            exhaustive
                .entry(r.spec.workload.as_str())
                .or_default()
                .push((r.spec.budget, r.report.total_effective_cycles()));
        }
        for (workload, points) in exhaustive {
            let full = Frontier::build(points);
            let explored = outcome
                .frontiers()
                .into_iter()
                .find(|(w, _)| *w == workload)
                .map(|(_, pts)| Frontier::build(pts.iter().map(|p| (p.spec.budget, p.measured()))))
                .unwrap();
            assert_eq!(explored, full, "frontier diverged for {workload}");
        }
    }

    #[test]
    fn explore_recovers_exhaustive_frontier_of_surviving_region() {
        // Bandwidth on, so effective cycles > predicted and the band
        // genuinely matters.
        let plan = synthetic_plan(Some(8.0));
        let options = ExploreOptions {
            keep_within_pct: 10.0,
            budget: ExploreBudget::Unlimited,
            jobs: 2,
            progress: false,
        };
        let engine = ExploreEngine::with_registry(1024, &Registry::new());
        let outcome = engine.run(&plan, &options).unwrap();
        assert_eq!(outcome.candidates, plan.expand().unwrap().len());
        assert_eq!(outcome.candidates, outcome.pruned + outcome.survivors);
        assert_eq!(outcome.simulated, outcome.survivors); // unlimited budget

        // The surviving region, recomputed independently.
        let survivors = ExploreEngine::with_registry(64, &Registry::new())
            .prune(&plan, options.keep_within_pct)
            .unwrap()
            .survivors;
        assert_eq!(survivors.len(), outcome.survivors);
        assert_frontiers_match(
            &plan,
            &outcome,
            survivors.into_iter().map(|s| s.spec).collect(),
        );
    }

    #[test]
    fn wide_band_explore_recovers_the_full_space_frontier() {
        // With an unbounded band nothing is pruned, so explore's frontier
        // must equal the frontier of the full exhaustive sweep — the same
        // answer through two different pipelines.
        let plan = synthetic_plan(Some(8.0));
        let options = ExploreOptions {
            keep_within_pct: 1e9,
            budget: ExploreBudget::Unlimited,
            jobs: 2,
            progress: false,
        };
        let engine = ExploreEngine::with_registry(1024, &Registry::new());
        let outcome = engine.run(&plan, &options).unwrap();
        assert_eq!(outcome.pruned, 0);
        assert_frontiers_match(&plan, &outcome, plan.expand().unwrap());
    }

    #[test]
    fn sims_budget_is_respected_and_deterministic_across_jobs() {
        let plan = synthetic_plan(Some(8.0));
        let options = |jobs| ExploreOptions {
            keep_within_pct: 25.0,
            budget: ExploreBudget::Sims(10),
            jobs,
            progress: false,
        };
        let run = |jobs| {
            let engine = ExploreEngine::with_registry(256, &Registry::new());
            let outcome = engine.run(&plan, &options(jobs)).unwrap();
            let mut csv = Vec::new();
            outcome.write_csv(&mut csv).unwrap();
            (outcome.simulated, csv)
        };
        let (sims1, csv1) = run(1);
        let (sims4, csv4) = run(4);
        assert_eq!(sims1, 10);
        assert_eq!(sims1, sims4);
        assert_eq!(csv1, csv4, "explore output must not depend on jobs");
    }

    #[test]
    fn pruning_shrinks_with_tighter_band() {
        let plan = synthetic_plan(None);
        let run = |pct| {
            let engine = ExploreEngine::with_registry(256, &Registry::new());
            let outcome = engine
                .run(
                    &plan,
                    &ExploreOptions {
                        keep_within_pct: pct,
                        budget: ExploreBudget::Sims(0),
                        jobs: 1,
                        progress: false,
                    },
                )
                .unwrap();
            outcome.survivors
        };
        assert!(run(0.0) <= run(50.0));
        assert!(run(50.0) <= run(1e9));
    }

    #[test]
    fn error_stats_respect_the_lower_bound() {
        let plan = synthetic_plan(Some(4.0));
        let engine = ExploreEngine::with_registry(256, &Registry::new());
        let outcome = engine.run(&plan, &ExploreOptions::default()).unwrap();
        assert!(outcome.error_stats.count > 0);
        assert!(outcome.error_stats.p50 >= 1.0);
        assert!(outcome.error_stats.p95 >= outcome.error_stats.p50);
        for point in &outcome.measured {
            assert!(point.predicted <= point.measured());
        }
    }

    #[test]
    fn csv_output_shape() {
        let plan = synthetic_plan(None);
        let engine = ExploreEngine::with_registry(256, &Registry::new());
        let outcome = engine.run(&plan, &ExploreOptions::default()).unwrap();
        let mut csv = Vec::new();
        outcome.write_csv(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            EXPLORE_CSV_HEADER.trim_end_matches('\n')
        );
        assert_eq!(lines.count(), outcome.simulated);
        assert!(text.contains(",1\n") || text.contains(",0\n"));

        let mut jsonl = Vec::new();
        outcome.write_jsonl(&mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(text.lines().count(), outcome.simulated);
        assert!(text.lines().all(|l| l.contains("\"predicted_cycles\":")));
    }

    #[test]
    fn telemetry_counters_add_up() {
        let registry = Registry::new();
        let plan = synthetic_plan(None);
        let engine = ExploreEngine::with_registry(256, &registry);
        let outcome = engine
            .run(
                &plan,
                &ExploreOptions {
                    keep_within_pct: 10.0,
                    budget: ExploreBudget::Sims(5),
                    jobs: 2,
                    progress: false,
                },
            )
            .unwrap();
        let read = |name| registry.counter_value(name, &[]).unwrap();
        assert_eq!(read(telemetry_names::CANDIDATES), outcome.candidates as u64);
        assert_eq!(read(telemetry_names::PRUNED), outcome.pruned as u64);
        assert_eq!(read(telemetry_names::SIMULATED), outcome.simulated as u64);
    }
}
