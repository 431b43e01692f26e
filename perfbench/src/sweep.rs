//! The two sweep workloads: one untraced repetition of a plan, the layer
//! tasks its traced replay walks, and the traced run's cache and keying
//! probes.

use std::io;
use std::time::{Duration, Instant};

use scalesim::sweep::{canonical_job_text, CsvSink, SweepSink};
use scalesim::{
    layer_cache, ContentKey, DataflowChoice, NetworkReport, PointSpec, Simulator, SweepEngine,
    SweepOutcome, SweepPlan,
};
use scalesim_topology::topology_to_csv;

use crate::counters::Counters;
use crate::replay::Task;
use crate::sys;

/// The paper's own Fig. 9 study, exactly as the repository ships it.
pub const FIG9_PLAN: &str = include_str!("../../examples/fig9_tf0.plan");
pub const YOLO_PLAN: &str = include_str!("../plans/yolo_ws_is.plan");

/// Result-cache capacity, as `scale-sim sweep` defaults it.
const CACHE_CAPACITY: usize = 1024;

/// One untraced run of a plan, from a cold process-wide layer cache.
pub struct SweepRep {
    pub plan: SweepPlan,
    pub outcome: SweepOutcome,
    /// The engine the plan ran on; its result cache now holds every point.
    pub engine: SweepEngine,
    /// Plan parse and validation plus engine construction; the median of
    /// [`crate::SETUPS`] set-ups.
    pub setup: Duration,
    /// Host time to finish the plan.
    pub wall: Duration,
    /// Process CPU time over the plan.
    pub cpu: Duration,
    /// Per point, time from the start of the run until its row reached
    /// the sink — the latency a user streaming the CSV sees.
    pub row_ms: Vec<f64>,
    /// The CSV output, line by line (header first).
    pub csv_lines: Vec<String>,
    pub counters: Counters,
}

/// A CSV sink that also stamps when each row arrives.
struct TimedCsv {
    csv: CsvSink<Vec<u8>>,
    start: Instant,
    row_ms: Vec<f64>,
}

impl SweepSink for TimedCsv {
    fn begin(&mut self, plan: &SweepPlan, points: usize) -> io::Result<()> {
        self.csv.begin(plan, points)
    }

    fn point(&mut self, spec: &PointSpec, report: &NetworkReport) -> io::Result<()> {
        self.row_ms.push(self.start.elapsed().as_secs_f64() * 1e3);
        self.csv.point(spec, report)
    }

    fn end(&mut self) -> io::Result<()> {
        self.csv.end()
    }
}

/// Runs `plan_text` once on `jobs` workers.
pub fn run(plan_text: &str, origin: &str, jobs: usize) -> Result<SweepRep, String> {
    layer_cache::clear();
    let before = Counters::read();

    let mut setups = Vec::with_capacity(crate::SETUPS);
    let mut built = None;
    for _ in 0..crate::SETUPS {
        let started = Instant::now();
        let plan = SweepPlan::parse_named(plan_text, origin).map_err(|e| e.to_string())?;
        let points = plan.expand().map_err(|e| e.to_string())?;
        let engine = SweepEngine::new(CACHE_CAPACITY);
        setups.push(started.elapsed().as_secs_f64());
        built = Some((plan, points, engine));
    }
    let (plan, points, engine) = built.expect("at least one set-up");
    let setup = Duration::from_secs_f64(crate::metrics::median(&setups));

    let cpu_before = sys::usage().cpu;
    let streamed = stream(&engine, &plan, points, jobs)?;
    let cpu = sys::usage().cpu.saturating_sub(cpu_before);
    Ok(SweepRep {
        plan,
        outcome: streamed.outcome,
        engine,
        setup,
        wall: streamed.wall,
        cpu,
        row_ms: streamed.row_ms,
        csv_lines: streamed.csv_lines,
        counters: Counters::read().since(&before),
    })
}

struct Streamed {
    outcome: SweepOutcome,
    wall: Duration,
    row_ms: Vec<f64>,
    csv_lines: Vec<String>,
}

/// Runs `points` on `engine`, streaming CSV rows and stamping each.
fn stream(
    engine: &SweepEngine,
    plan: &SweepPlan,
    points: Vec<PointSpec>,
    jobs: usize,
) -> Result<Streamed, String> {
    let mut sink = TimedCsv {
        csv: CsvSink::new(Vec::new()),
        start: Instant::now(),
        row_ms: Vec::new(),
    };
    let outcome = engine
        .run_points(plan, points, jobs, &mut sink)
        .map_err(|e| e.to_string())?;
    let wall = sink.start.elapsed();
    let csv = String::from_utf8(sink.csv.into_inner()).map_err(|e| e.to_string())?;
    Ok(Streamed {
        outcome,
        wall,
        row_ms: sink.row_ms,
        csv_lines: csv.lines().map(str::to_owned).collect(),
    })
}

/// Runs the plan again on the run's now-warm engine, so every point is a
/// result-cache hit. Returns each point's latency (the time since the
/// previous row) and whether the CSV equals the cold run's.
pub fn warm_rerun(rep: &SweepRep, jobs: usize) -> Result<(Vec<f64>, bool), String> {
    let points = rep.plan.expand().map_err(|e| e.to_string())?;
    let warm = stream(&rep.engine, &rep.plan, points, jobs)?;
    let latencies = warm
        .row_ms
        .iter()
        .scan(0.0, |previous, &t| Some(t - std::mem::replace(previous, t)))
        .collect();
    Ok((latencies, warm.csv_lines == rep.csv_lines))
}

/// Mean microseconds to key one point the way the sweep engine does: its
/// configuration and canonical job text, hashed. The plan's points are
/// keyed over and over until [`crate::serve::REQUESTS`] keys are timed, as
/// many as serve_mix keys.
pub fn key_us(rep: &SweepRep) -> f64 {
    let plan = &rep.plan;
    let csvs: Vec<String> = plan
        .workloads
        .iter()
        .map(|w| topology_to_csv(&w.topology))
        .collect();
    let specs: Vec<(&PointSpec, &str)> = rep
        .outcome
        .results
        .iter()
        .map(|r| {
            let w = plan
                .workloads
                .iter()
                .position(|w| w.label == r.spec.workload)
                .expect("every point names a plan workload");
            (&r.spec, csvs[w].as_str())
        })
        .collect();
    let keys = crate::serve::REQUESTS.max(specs.len());
    let started = Instant::now();
    for (spec, csv) in specs.iter().cycle().take(keys) {
        let config = spec.config(&plan.base);
        let auto = spec.dataflow == DataflowChoice::Auto;
        let text = canonical_job_text(&config, &spec.workload, spec.grid, csv, auto);
        std::hint::black_box(ContentKey::from_content(text.as_bytes()));
    }
    started.elapsed().as_secs_f64() * 1e6 / keys as f64
}

/// Every `(point, layer)` of a finished sweep as a replay task, with the
/// `run_layer` result the sweep reported for it.
pub fn tasks(rep: &SweepRep) -> Vec<(Task<'_>, &scalesim::LayerReport)> {
    let mut out = Vec::new();
    for result in &rep.outcome.results {
        let spec = &result.spec;
        let workload = rep
            .plan
            .workloads
            .iter()
            .find(|w| w.label == spec.workload)
            .expect("every point names a plan workload");
        let sim = Simulator::new(spec.config(&rep.plan.base)).with_grid(spec.grid);
        let group = format!(
            "{} {} grid {} array {}",
            spec.workload, spec.dataflow, spec.grid, spec.array
        );
        for (layer, report) in workload.topology.iter().zip(result.report.layers()) {
            out.push((
                Task {
                    group: group.clone(),
                    config: sim.effective_config(layer),
                    grid: spec.grid,
                    layer,
                },
                report,
            ));
        }
    }
    out
}
