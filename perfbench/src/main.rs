//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig9_os_gemm|yolo_ws_is|serve_mix> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload, each repetition in a fresh
//! child process with empty caches, for `--seconds`, checks every output
//! against `digests.txt`, and prints the end-to-end metrics (medians over
//! the repetitions). With `--trace 1` it runs the workload once untraced
//! and then replays its layer simulations serially through the public
//! layer functions, timing each call from outside, and prints the
//! per-layer metrics. The last stdout line is always the JSON result;
//! a wrong output makes the exit code nonzero. README.md documents the
//! workloads and metrics.

mod counters;
mod digest;
mod metrics;
mod replay;
mod serve;
mod sweep;
mod sys;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use scalesim_server::Json;

use crate::digest::Digests;
use crate::metrics::{median, quantile, ratio};
use crate::replay::{Replay, Span, Task};

/// Repetitions every untraced run makes, however long they take.
const MIN_REPS: usize = 3;
/// Set-ups per repetition; `setup_s` is their median, so a one-off stall
/// in a single set-up does not move it.
const SETUPS: usize = 15;
/// No repetition starts after this much of a run has passed, so a run on
/// a slow host still ends well inside three minutes.
const HARD_LIMIT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fig9OsGemm,
    YoloWsIs,
    ServeMix,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Fig9OsGemm, Workload::YoloWsIs, Workload::ServeMix];

    fn name(self) -> &'static str {
        match self {
            Workload::Fig9OsGemm => "fig9_os_gemm",
            Workload::YoloWsIs => "yolo_ws_is",
            Workload::ServeMix => "serve_mix",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The plan text and its origin label, for the sweep workloads.
    fn plan(self) -> Option<(&'static str, &'static str)> {
        match self {
            Workload::Fig9OsGemm => Some((sweep::FIG9_PLAN, "examples/fig9_tf0.plan")),
            Workload::YoloWsIs => Some((sweep::YOLO_PLAN, "perfbench/plans/yolo_ws_is.plan")),
            Workload::ServeMix => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig9_os_gemm|yolo_ws_is|serve_mix> \
                     --seed <n> --seconds <n> --trace <0|1>\n       perfbench record";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace `{value}` (want 0 or 1)")),
            },
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("rep") => rep_main(&args[1..]),
        Some("client") => client_main(&args[1..]),
        Some("record") => record_main(),
        _ => parse_args(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|a| {
                if a.trace {
                    traced_main(&a)
                } else {
                    untraced_main(&a)
                }
            }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Where results and span files go (ignored by git).
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Output checks of one repetition: operations attempted and failed,
/// with the first few failure messages.
#[derive(Debug, Default)]
struct Check {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Check {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}

/// Checks each sweep point's CSV row (and the header) against the
/// recorded digests.
fn check_sweep(workload: Workload, rep: &sweep::SweepRep, digests: &Digests) -> Check {
    let mut check = Check {
        attempted: rep.outcome.results.len() as u64,
        ..Check::default()
    };
    let name = workload.name();
    let expected_lines = rep.outcome.results.len() + 1;
    if rep.csv_lines.len() != expected_lines {
        check.fail(format!(
            "{name}: {} CSV lines, expected {expected_lines}",
            rep.csv_lines.len()
        ));
    }
    for (i, line) in rep.csv_lines.iter().enumerate() {
        if digests.expected(name, &format!("line:{i}"))
            != Some(digest::fnv64(line.as_bytes()).as_str())
        {
            check.fail(format!(
                "{name}: CSV line {i} differs from the recorded digest: {line}"
            ));
        }
    }
    check
}

/// Checks every response: status 200, a cache tag, and the recorded body.
fn check_serve(
    rep: &serve::ServeRep,
    jobs: &[serve::Job],
    seq: &[usize],
    digests: &Digests,
) -> Check {
    let mut check = Check {
        attempted: seq.len() as u64,
        ..Check::default()
    };
    if rep.records.len() != seq.len() {
        check.fail(format!(
            "{} responses for {} requests",
            rep.records.len(),
            seq.len()
        ));
    }
    for r in &rep.records {
        let job = &jobs[seq[r.index]];
        let ok = r.status == 200
            && matches!(r.cache.as_str(), "miss" | "hit" | "joined")
            && digests.expected("serve_mix", &job.id) == Some(r.digest.as_str());
        if !ok {
            check.fail(format!(
                "request {} ({}): status {} cache {} digest {}",
                r.index, job.id, r.status, r.cache, r.digest
            ));
        }
    }
    check
}

/// What a child repetition reports to the parent, as one JSON line.
#[derive(Debug)]
struct RepSummary {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// Per-operation latency: row-emission time for sweep points,
    /// client-observed latency for requests.
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Workload properties (points, tiles, shares, ...).
    props: Vec<(String, f64)>,
}

impl RepSummary {
    fn to_json(&self) -> Json {
        let num = |v: f64| Json::Float(metrics::finite(v));
        Json::obj(vec![
            ("setup_s", num(self.setup_s)),
            ("wall_s", num(self.wall_s)),
            ("cpu_s", num(self.cpu_s)),
            ("peak_rss_mb", num(self.peak_rss_mb)),
            (
                "op_ms",
                Json::Arr(self.op_ms.iter().map(|&v| num(v)).collect()),
            ),
            ("attempted", Json::Int(self.attempted.into())),
            ("failed", Json::Int(self.failed.into())),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| Json::str(e.clone())).collect()),
            ),
            (
                "props",
                Json::Obj(
                    self.props
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Result<RepSummary, String> {
        let f = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("repetition summary lacks `{key}`"))
        };
        let u = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("repetition summary lacks `{key}`"))
        };
        Ok(RepSummary {
            setup_s: f("setup_s")?,
            wall_s: f("wall_s")?,
            cpu_s: f("cpu_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            op_ms: json
                .get("op_ms")
                .and_then(Json::as_array)
                .ok_or("repetition summary lacks `op_ms`")?
                .iter()
                .filter_map(Json::as_f64)
                .collect(),
            attempted: u("attempted")?,
            failed: u("failed")?,
            errors: json
                .get("errors")
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|e| e.as_str().map(str::to_owned))
                .collect(),
            props: json
                .get("props")
                .and_then(Json::as_object)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
        })
    }
}

/// Properties of a sweep's work: points, layer tasks, distinct layer
/// simulations and their partition tiles, demand elements per run.
fn sweep_props(rep: &sweep::SweepRep) -> Vec<(String, f64)> {
    let tasks = sweep::tasks(rep);
    let mut seen = HashSet::new();
    let mut tiles = 0;
    for (task, _) in &tasks {
        if seen.insert(task.key()) {
            tiles += replay::tile_count(task);
        }
    }
    vec![
        ("points".into(), rep.outcome.results.len() as f64),
        ("layer_tasks".into(), tasks.len() as f64),
        ("layer_sims".into(), seen.len() as f64),
        ("tiles".into(), tiles as f64),
        (
            "elements_per_run".into(),
            ratio(
                rep.counters.demand_elements as f64,
                rep.counters.demand_runs as f64,
            ),
        ),
    ]
}

/// The `serve_mix` request sequence for a seed and its distinct jobs,
/// normalized (every universe job is a single layer).
struct ServeJobs {
    jobs: Vec<serve::Job>,
    seq: Vec<usize>,
    normalized: Vec<(usize, scalesim_server::NormalizedJob)>,
}

impl ServeJobs {
    fn new(seed: u64) -> Result<ServeJobs, String> {
        let jobs = serve::universe();
        let seq = serve::sequence(seed, jobs.len(), serve::REQUESTS);
        let normalized = serve::distinct_jobs(&jobs, &seq)?;
        Ok(ServeJobs {
            jobs,
            seq,
            normalized,
        })
    }

    fn tasks(&self) -> Vec<Task<'_>> {
        serve::tasks(&self.jobs, &self.normalized)
    }
}

/// Properties of a serve run: requests, distinct-job share, and the share
/// of fresh jobs whose layer shape an earlier fresh job had simulated.
fn serve_props(rep: &serve::ServeRep, sj: &ServeJobs) -> Vec<(String, f64)> {
    let tasks = sj.tasks();
    let key_of: HashMap<usize, u128> = sj
        .normalized
        .iter()
        .zip(&tasks)
        .map(|((j, _), task)| (*j, task.key()))
        .collect();
    let mut fresh: Vec<&serve::Record> = rep.records.iter().filter(|r| r.cache == "miss").collect();
    fresh.sort_by_key(|r| r.start_us + r.latency_us);
    let mut seen = HashSet::new();
    let repeated = fresh
        .iter()
        .filter(|r| !seen.insert(key_of[&sj.seq[r.index]]))
        .count();
    vec![
        ("requests".into(), sj.seq.len() as f64),
        ("distinct_frac".into(), serve::distinct_frac(&sj.seq)),
        ("fresh".into(), fresh.len() as f64),
        (
            "fresh_shape_repeat_frac".into(),
            ratio(repeated as f64, fresh.len() as f64),
        ),
        (
            "elements_per_run".into(),
            ratio(
                rep.counters.demand_elements as f64,
                rep.counters.demand_runs as f64,
            ),
        ),
    ]
}

/// `perfbench rep --workload <w> --seed <n>`: one untraced repetition in
/// this (fresh) process; prints a [`RepSummary`] line.
fn rep_main(args: &[String]) -> Result<bool, String> {
    let mut full: Vec<String> = args.to_vec();
    full.extend(["--seconds".into(), "1".into(), "--trace".into(), "0".into()]);
    let args = parse_args(&full)?;
    let digests = Digests::recorded();
    let summary = match args.workload.plan() {
        Some((text, origin)) => {
            let rep = sweep::run(text, origin, sys::nproc())?;
            let check = check_sweep(args.workload, &rep, &digests);
            RepSummary {
                setup_s: rep.setup.as_secs_f64(),
                wall_s: rep.wall.as_secs_f64(),
                cpu_s: rep.cpu.as_secs_f64(),
                peak_rss_mb: 0.0,
                op_ms: rep.row_ms.clone(),
                attempted: check.attempted,
                failed: check.failed,
                errors: check.errors,
                props: sweep_props(&rep),
            }
        }
        None => {
            let sj = ServeJobs::new(args.seed)?;
            let rep = serve::run(args.seed)?;
            rep.engine.shutdown();
            let check = check_serve(&rep, &sj.jobs, &sj.seq, &digests);
            RepSummary {
                setup_s: rep.setup.as_secs_f64(),
                wall_s: rep.wall.as_secs_f64(),
                cpu_s: rep.cpu.as_secs_f64(),
                peak_rss_mb: 0.0,
                op_ms: rep
                    .records
                    .iter()
                    .map(|r| r.latency_us as f64 / 1e3)
                    .collect(),
                attempted: check.attempted,
                failed: check.failed,
                errors: check.errors,
                props: serve_props(&rep, &sj),
            }
        }
    };
    let summary = RepSummary {
        peak_rss_mb: sys::usage().max_rss_kib as f64 / 1024.0,
        ..summary
    };
    println!("{}", summary.to_json());
    Ok(true)
}

/// `perfbench client --addr <a> --seed <n>`: the serve_mix load generator.
fn client_main(args: &[String]) -> Result<bool, String> {
    match args {
        [a, addr, s, seed] if a == "--addr" && s == "--seed" => {
            let addr = addr.parse().map_err(|e| format!("bad --addr: {e}"))?;
            let seed = seed.parse().map_err(|e| format!("bad --seed: {e}"))?;
            serve::client(addr, seed)?;
            Ok(true)
        }
        _ => Err("usage: perfbench client --addr <host:port> --seed <n>".into()),
    }
}

/// Runs one repetition in a child process and parses its summary.
fn spawn_rep(workload: Workload, seed: u64) -> Result<RepSummary, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "rep",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!("repetition exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().ok_or("repetition printed nothing")?;
    RepSummary::from_json(&Json::parse(line)?)
}

fn print_provenance(args: &Args, reps: usize) -> sys::Provenance {
    let p = sys::Provenance::collect();
    println!(
        "perfbench {} seed={} trace={} reps={reps} nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        p.nproc,
        p.cpu_model,
        p.rustc,
        p.commit
    );
    p
}

fn print_metrics(metrics: &BTreeMap<&'static str, f64>, note: &str) {
    for (name, value) in metrics {
        let def = metrics::lookup(name).expect("every printed metric is defined");
        println!(
            "  {name:<28} {value:>18.6} {:<9}({} is better) {note}",
            def.unit,
            def.better.as_str()
        );
    }
}

/// Writes a result record (provenance, properties, metrics) beside the
/// span files, so every figure is kept with the host it came from.
fn write_record(
    args: &Args,
    p: &sys::Provenance,
    reps: usize,
    props: &[(String, f64)],
    metrics: &BTreeMap<&'static str, f64>,
    check: &Check,
) -> Result<(), String> {
    let num = |v: f64| Json::Float(metrics::finite(v));
    let record = Json::obj(vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed.into())),
        ("trace", Json::Bool(args.trace)),
        ("repetitions", Json::Int((reps as u64).into())),
        ("nproc", Json::Int((p.nproc as u64).into())),
        ("cpu_model", Json::str(p.cpu_model.clone())),
        ("rustc", Json::str(p.rustc.clone())),
        ("commit", Json::str(p.commit.clone())),
        (
            "properties",
            Json::Obj(props.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
        ),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), num(*v)))
                    .collect(),
            ),
        ),
        ("attempted", Json::Int(check.attempted.into())),
        ("failed", Json::Int(check.failed.into())),
        (
            "errors",
            Json::Arr(check.errors.iter().map(|e| Json::str(e.clone())).collect()),
        ),
    ]);
    let path = out_dir()?.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, format!("{record}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the human-readable block and the result line; `Ok(false)` when
/// any output was wrong.
fn finish(
    args: &Args,
    reps: usize,
    props: &[(String, f64)],
    metrics: BTreeMap<&'static str, f64>,
    check: &Check,
    note: &str,
) -> Result<bool, String> {
    let p = print_provenance(args, reps);
    let props_line: Vec<String> = props.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("properties: {}", props_line.join(" "));
    print_metrics(&metrics, note);
    for e in &check.errors {
        println!("FAILED: {e}");
    }
    write_record(args, &p, reps, props, &metrics, check)?;
    println!(
        "{}",
        metrics::result_line(check.attempted, check.failed, &metrics)
    );
    Ok(check.failed == 0)
}

/// `--trace 0`: repetitions in child processes for `--seconds`, medians.
fn untraced_main(args: &Args) -> Result<bool, String> {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut rep_times = Vec::new();
    loop {
        let t = Instant::now();
        reps.push(spawn_rep(args.workload, args.seed)?);
        rep_times.push(t.elapsed().as_secs_f64());
        let next = Duration::from_secs_f64(median(&rep_times));
        let elapsed = started.elapsed();
        if elapsed + next > HARD_LIMIT || (reps.len() >= MIN_REPS && elapsed + next > budget) {
            break;
        }
    }

    // Percentiles are taken per repetition, then the median across them:
    // pooling a sweep's few rows per repetition would make the pooled
    // median jump between the clusters of consecutive rows.
    let of = |f: &dyn Fn(&RepSummary) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut m = BTreeMap::new();
    m.insert("wall_s", of(&|r| r.wall_s));
    m.insert("cpu_s", of(&|r| r.cpu_s));
    m.insert("peak_rss_mb", of(&|r| r.peak_rss_mb));
    m.insert("setup_s", of(&|r| r.setup_s));
    m.insert("p50_ms", of(&|r| quantile(&r.op_ms, 0.5)));
    m.insert("p95_ms", of(&|r| quantile(&r.op_ms, 0.95)));
    m.insert("ops_per_s", of(&|r| ratio(r.attempted as f64, r.wall_s)));

    let mut check = Check::default();
    for r in &reps {
        check.attempted += r.attempted;
        check.failed += r.failed;
        check
            .errors
            .extend(r.errors.iter().take(5 - check.errors.len().min(5)).cloned());
    }
    let note = format!(
        "median of {} reps of {} operations",
        reps.len(),
        reps[0].op_ms.len()
    );
    finish(args, reps.len(), &reps[0].props, m, &check, &note)
}

/// Per-layer metrics every workload reports from its replay.
fn replay_metrics(m: &mut BTreeMap<&'static str, f64>, traced: &Replay, untraced: &Replay) {
    let runs = traced.runs as f64;
    m.insert("systolic.demand_s", traced.demand.as_secs_f64());
    m.insert(
        "systolic.demand_ns_per_run",
        ratio(traced.demand.as_nanos() as f64, runs),
    );
    m.insert("systolic.compute_s", traced.compute.as_secs_f64());
    m.insert("memory.dram_s", traced.dram.as_secs_f64());
    m.insert(
        "memory.dram_ns_per_run",
        ratio(traced.dram.as_nanos() as f64, runs),
    );
    m.insert("core.unattributed_frac", traced.unattributed_frac());
    m.insert("replay.traced_wall_s", traced.wall.as_secs_f64());
    m.insert("replay.untraced_wall_s", untraced.wall.as_secs_f64());
}

fn counter_metrics(m: &mut BTreeMap<&'static str, f64>, c: &counters::Counters) {
    m.insert("demand.elements", c.demand_elements as f64);
    m.insert("demand.runs", c.demand_runs as f64);
    m.insert(
        "demand.elements_per_run",
        ratio(c.demand_elements as f64, c.demand_runs as f64),
    );
    m.insert("core.layer_sims", c.layer_misses as f64);
    m.insert("core.layer_cache_hit_rate", c.layer_cache_hit_rate());
}

/// Latency, simulation and waiting time of the operations that ran a
/// fresh simulation.
fn fresh_metrics(m: &mut BTreeMap<&'static str, f64>, latency_ms: &[f64], sim_s: f64, wait_s: f64) {
    m.insert("fresh.p50_ms", median(latency_ms));
    m.insert("fresh.p95_ms", quantile(latency_ms, 0.95));
    m.insert("fresh.max_ms", quantile(latency_ms, 1.0));
    m.insert("fresh.sim_s", sim_s);
    m.insert("fresh.wait_s", wait_s);
}

/// Every per-layer metric at 0: the counts and ratios of a layer the
/// workload does not exercise keep that value.
fn zeroed_per_layer() -> BTreeMap<&'static str, f64> {
    metrics::PER_LAYER.iter().map(|d| (d.name, 0.0)).collect()
}

fn write_spans(args: &Args, kind: &str, spans_json: &str) -> Result<(), String> {
    let path = out_dir()?.join(format!(
        "{}-seed{}-{kind}.trace.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, spans_json).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--trace 1`: one untraced run in this process, then the replay, untraced
/// and traced, checked against the run's own layer results.
fn traced_main(args: &Args) -> Result<bool, String> {
    let digests = Digests::recorded();
    let mut m = zeroed_per_layer();
    let (check, props) = match args.workload.plan() {
        Some((text, origin)) => {
            let rep = sweep::run(text, origin, sys::nproc())?;
            let mut check = check_sweep(args.workload, &rep, &digests);
            let (tasks, reports): (Vec<Task>, Vec<_>) = sweep::tasks(&rep).into_iter().unzip();
            let untraced = replay::replay(args.workload.name(), &tasks, false);
            let traced = replay::replay(args.workload.name(), &tasks, true);
            check.attempted += tasks.len() as u64;
            for (task, report) in tasks.iter().zip(&reports) {
                let got = &traced.results[&task.key()];
                if got.cycles != report.total_cycles || got.dram != report.dram {
                    check.fail(format!(
                        "replay of {} / {} differs from run_layer",
                        task.group,
                        task.layer.name()
                    ));
                }
            }
            replay_metrics(&mut m, &traced, &untraced);
            counter_metrics(&mut m, &rep.counters);
            let exec = &rep.outcome.exec;
            m.insert("exec.steals", exec.steals as f64);
            m.insert(
                "exec.busy_min",
                exec.worker_busy
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min),
            );
            // A cold plan without duplicate points simulates every point,
            // in plan order: latency i belongs to row i.
            let point_ms: Vec<f64> = rep
                .outcome
                .point_latencies_micros
                .iter()
                .map(|&us| us as f64 / 1e3)
                .collect();
            let waited: f64 = rep
                .row_ms
                .iter()
                .zip(&point_ms)
                .map(|(row, sim)| row - sim)
                .sum();
            fresh_metrics(
                &mut m,
                &point_ms,
                point_ms.iter().sum::<f64>() / 1e3,
                waited / 1e3,
            );
            let (hit_ms, same) = sweep::warm_rerun(&rep, sys::nproc())?;
            check.attempted += 1;
            if !same {
                check.fail("the warm re-run's CSV differs from the cold run's".into());
            }
            m.insert("hit.p50_ms", median(&hit_ms));
            m.insert("core.key_us", sweep::key_us(&rep));
            write_spans(args, "replay", &replay::chrome_json(&traced.spans))?;
            (check, sweep_props(&rep))
        }
        None => {
            let sj = ServeJobs::new(args.seed)?;
            let rep = serve::run(args.seed)?;
            let mut check = check_serve(&rep, &sj.jobs, &sj.seq, &digests);
            let tasks = sj.tasks();
            let untraced = replay::replay(args.workload.name(), &tasks, false);
            let traced = replay::replay(args.workload.name(), &tasks, true);
            // The engine still holds every result: each lookup is a hit
            // returning the report `run_layer` produced for the job.
            check.attempted += tasks.len() as u64;
            for ((j, job), task) in sj.normalized.iter().zip(&tasks) {
                let reference = rep.engine.run_normalized(job.clone());
                let got = &traced.results[&task.key()];
                let same = reference.is_ok_and(|(result, _)| {
                    result
                        .report
                        .layers()
                        .first()
                        .is_some_and(|l| l.total_cycles == got.cycles && l.dram == got.dram)
                });
                if !same {
                    check.fail(format!(
                        "replay of {} differs from run_layer",
                        sj.jobs[*j].id
                    ));
                }
            }
            rep.engine.shutdown();
            replay_metrics(&mut m, &traced, &untraced);
            counter_metrics(&mut m, &rep.counters);
            let latencies = |tag: &str| -> Vec<f64> {
                rep.records
                    .iter()
                    .filter(|r| r.cache == tag)
                    .map(|r| r.latency_us as f64 / 1e3)
                    .collect()
            };
            fresh_metrics(&mut m, &latencies("miss"), rep.sim_s, rep.queue_wait_s);
            m.insert("hit.p50_ms", median(&latencies("hit")));
            m.insert("server.hit_frac", rep.hit_frac);
            m.insert("server.join_frac", rep.join_frac);
            let bodies: Vec<&str> = sj.seq.iter().map(|&j| sj.jobs[j].body.as_str()).collect();
            m.insert("core.key_us", serve::key_us(&bodies)?);
            m.insert("server.shed", rep.shed as f64);
            m.insert("server.deadline_expired", rep.deadline_expired as f64);
            write_spans(args, "replay", &replay::chrome_json(&traced.spans))?;
            write_spans(
                args,
                "requests",
                &replay::chrome_json(&request_spans(&rep.records, &sj.jobs, &sj.seq)),
            )?;
            (check, serve_props(&rep, &sj))
        }
    };
    finish(args, 1, &props, m, &check, "one traced run")
}

/// One span per request, timed from the client's start, named by job and
/// cache outcome.
fn request_spans(records: &[serve::Record], jobs: &[serve::Job], seq: &[usize]) -> Vec<Span> {
    records
        .iter()
        .map(|r| Span {
            id: r.index as u64 + 1,
            parent: 0,
            name: format!("{} {}", jobs[seq[r.index]].id, r.cache),
            start: Duration::from_micros(r.start_us),
            end: Duration::from_micros(r.start_us + r.latency_us),
            args: vec![("status", f64::from(r.status))],
        })
        .collect()
}

/// `perfbench record`: runs every workload's operations once and rewrites
/// `digests.txt`. Only for a change that is meant to alter results.
fn record_main() -> Result<bool, String> {
    let mut entries = Vec::new();
    for workload in [Workload::Fig9OsGemm, Workload::YoloWsIs] {
        let (text, origin) = workload.plan().expect("sweep workload");
        let rep = sweep::run(text, origin, sys::nproc())?;
        for (i, line) in rep.csv_lines.iter().enumerate() {
            entries.push((
                workload.name().to_owned(),
                format!("line:{i}"),
                line.clone().into_bytes(),
            ));
        }
    }
    let engine = scalesim_server::Engine::new(sys::nproc(), 1024);
    for job in serve::universe() {
        let sim = scalesim_server::SimJob::from_json(&Json::parse(&job.body)?)
            .map_err(|e| e.to_string())?;
        let (result, _) = engine.run(&sim).map_err(|e| e.to_string())?;
        let body = serve::strip_wall(&result.to_json().to_string());
        entries.push(("serve_mix".to_owned(), job.id, body.into_bytes()));
    }
    engine.shutdown();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("digests.txt");
    std::fs::write(&path, digest::render(&entries))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {} digests to {}", entries.len(), path.display());
    Ok(true)
}
