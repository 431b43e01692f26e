//! `POST /sweep`: design-space sweeps over the engine's shared cache.
//!
//! The request body is a JSON rendering of a core [`SweepPlan`]. Its
//! fields map one-to-one onto plan-file keys (plural `workloads`,
//! `budgets`, `grids`, `dataflows`; `config{K: v}` is `config.K = v`), each
//! array item is one plan entry, and values use plan-file syntax, so
//! `budgets` also takes `"2^14"` strings. [`parse_sweep_plan`] only renames
//! fields; [`PlanBuilder`] owns all validation.
//!
//! Every expanded point runs as a [`NormalizedJob`] through
//! [`Engine::run_normalized`], one submitter thread per engine worker, so
//! sweep points share the engine's result cache and single-flight dedup
//! with `POST /simulate` traffic (they hash the same
//! [`canonical_job_text`](scalesim::sweep::canonical_job_text)). Points
//! come back in plan order, so identical plans give byte-identical figures;
//! only the per-point `served` markers (miss / hit / joined) and the
//! summary's `simulations` / `cache_hits` reflect cache state. Summary
//! groups come from [`summarize_groups`], as in the CLI.
//!
//! Plan JSON:
//!
//! ```json
//! {
//!   "name": "fig9_tf0",
//!   "workloads": ["TF0"],
//!   "budgets": [1024, "2^12"],
//!   "min_dim": 8,
//!   "grids": "all",            // or ["1x1", "2x2", ...]
//!   "aspect": "all",           // or "squareish" (default)
//!   "dataflows": ["os"],       // os/ws/is/auto; default: base dataflow
//!   "config": {"IfmapSramSz": 64},
//!   "bandwidth": 32
//! }
//! ```

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use scalesim::sweep::{
    summarize_groups, telemetry_names, DataflowChoice, PlanBuilder, SweepPlan, SweepResult,
};
use scalesim_telemetry::Histogram;

use crate::batch::submit_in_order;
use crate::engine::{Engine, JobContext, Served, SimResult};
use crate::job::{JobError, NormalizedJob};
use crate::json::Json;

/// JSON field → plan-file key, for every field but `config`.
const PLAN_FIELDS: [(&str, &str); 8] = [
    ("name", "name"),
    ("workloads", "workload"),
    ("budgets", "budget"),
    ("min_dim", "min_dim"),
    ("grids", "grid"),
    ("aspect", "aspect"),
    ("dataflows", "dataflow"),
    ("bandwidth", "bandwidth"),
];

/// Parses the `POST /sweep` body into a core [`SweepPlan`] by feeding
/// each field (each item, for arrays) to a [`PlanBuilder`] under its
/// plan-file key.
///
/// # Errors
///
/// [`JobError::BadRequest`] on a non-object body, a missing `workloads` or
/// `budgets`, an unknown field, a value that is not a string or number, or
/// any entry the plan grammar rejects.
pub fn parse_sweep_plan(value: &Json) -> Result<SweepPlan, JobError> {
    let obj = value
        .as_object()
        .ok_or_else(|| JobError::bad_request("sweep plan must be a JSON object"))?;
    for required in ["workloads", "budgets"] {
        if value.get(required).is_none() {
            return Err(JobError::bad_request(format!(
                "sweep plan needs `{required}`"
            )));
        }
    }
    let mut builder = PlanBuilder::default();
    for (field, val) in obj {
        if field == "config" {
            let pairs = val
                .as_object()
                .ok_or_else(|| JobError::bad_request("`config` must be an object"))?;
            for (key, v) in pairs {
                builder.apply(&format!("config.{key}"), &entry_text(key, v)?)?;
            }
            continue;
        }
        let (_, key) = PLAN_FIELDS
            .iter()
            .find(|(name, _)| name == field)
            .ok_or_else(|| JobError::bad_request(format!("unknown sweep plan field `{field}`")))?;
        let items = match val {
            Json::Arr(items) => items.as_slice(),
            scalar => std::slice::from_ref(scalar),
        };
        for item in items {
            builder.apply(key, &entry_text(field, item)?)?;
        }
    }
    Ok(builder.finish()?)
}

/// A JSON scalar as plan-file value text.
fn entry_text<'a>(field: &str, value: &'a Json) -> Result<Cow<'a, str>, JobError> {
    match value {
        Json::Str(s) => Ok(Cow::Borrowed(s)),
        Json::Int(i) => Ok(Cow::Owned(i.to_string())),
        Json::Float(f) => Ok(Cow::Owned(f.to_string())),
        _ => Err(JobError::bad_request(format!(
            "`{field}` values must be strings or numbers"
        ))),
    }
}

/// Parses, expands and runs a sweep plan against `engine`, returning the
/// full response body. Blocks until every point is served.
///
/// # Errors
///
/// [`JobError::BadRequest`] for invalid plans, [`JobError::Internal`] when
/// a point's simulation fails.
pub fn run_sweep(engine: &Engine, body: &Json) -> Result<Json, JobError> {
    let plan = parse_sweep_plan(body)?;
    let points = plan.expand()?;

    let registry = engine.registry();
    let points_total = registry.counter(
        telemetry_names::POINTS,
        "Sweep points completed (any path).",
    );
    let cache_hits_metric = registry.counter(
        telemetry_names::CACHE_HITS,
        "Sweep points served without a fresh simulation.",
    );
    let simulations_metric = registry.counter(
        telemetry_names::SIMULATIONS,
        "Simulations executed for sweep points.",
    );
    let point_seconds = registry.histogram(
        telemetry_names::POINT_SECONDS,
        "Wall time per freshly simulated sweep point.",
        &Histogram::duration_buckets(),
    );

    let outcomes = submit_in_order(points.len(), engine.workers(), |i| {
        let spec = &points[i];
        let workload = plan
            .workloads
            .iter()
            .find(|w| w.label == spec.workload)
            .expect("every point names a plan workload");
        let job = NormalizedJob {
            config: spec.config(&plan.base),
            topology: workload.topology.clone(),
            grid: spec.grid,
            auto_dataflow: spec.dataflow == DataflowChoice::Auto,
        };
        let started = Instant::now();
        let context = JobContext {
            route: "/sweep",
            request_id: "",
        };
        let outcome = engine.run_normalized_with_context(job, None, context);
        if matches!(outcome, Ok((_, Served::Fresh))) {
            point_seconds.observe_duration(started.elapsed());
        }
        outcome
    });

    let mut results = Vec::with_capacity(points.len());
    let mut served = Vec::with_capacity(points.len());
    for (spec, outcome) in points.into_iter().zip(outcomes) {
        let (result, how) = outcome?;
        results.push(SweepResult {
            spec,
            report: Arc::clone(&result.report),
        });
        served.push((result, how));
    }

    let simulations = served
        .iter()
        .filter(|(_, how)| *how == Served::Fresh)
        .count() as u64;
    let cache_hits = results.len() as u64 - simulations;
    points_total.add(results.len() as u64);
    simulations_metric.add(simulations);
    cache_hits_metric.add(cache_hits);

    let rows: Vec<Json> = results
        .iter()
        .zip(&served)
        .map(|(point, (result, how))| point_json(point, result, *how))
        .collect();
    Ok(Json::obj(vec![
        ("plan", Json::str(plan.name.clone())),
        ("points", Json::Arr(rows)),
        (
            "summary",
            Json::obj(vec![
                ("points", Json::Int((results.len() as u64).into())),
                ("simulations", Json::Int(simulations.into())),
                ("cache_hits", Json::Int(cache_hits.into())),
                ("groups", Json::Arr(group_json(&results))),
            ]),
        ),
    ]))
}

fn point_json(point: &SweepResult, result: &SimResult, served: Served) -> Json {
    let (spec, report) = (&point.spec, &point.report);
    Json::obj(vec![
        ("workload", Json::str(spec.workload.clone())),
        ("budget", Json::Int(spec.budget.into())),
        ("partitions", Json::Int(spec.partitions().into())),
        ("grid", Json::str(spec.grid.to_string())),
        ("array", Json::str(spec.array.to_string())),
        ("dataflow", Json::str(spec.dataflow.to_string())),
        ("cycles", Json::Int(report.total_cycles().into())),
        (
            "effective_cycles",
            Json::Int(report.total_effective_cycles().into()),
        ),
        ("macs", Json::Int(report.total_macs().into())),
        (
            "overall_utilization",
            Json::Float(report.overall_utilization()),
        ),
        ("dram_bytes", Json::Int(report.total_dram_bytes().into())),
        (
            "peak_bw_bytes_per_cycle",
            Json::Float(report.peak_required_bandwidth()),
        ),
        ("energy", Json::Float(report.total_energy().total())),
        ("key", Json::str(result.key.to_string())),
        ("served", Json::str(served.tag())),
    ])
}

/// One JSON object per [`summarize_groups`] group: the fastest point and
/// the runtime/bandwidth sweet spot, each named by its plan-order index.
fn group_json(results: &[SweepResult]) -> Vec<Json> {
    let point_ref = |r: &SweepResult| {
        Json::obj(vec![
            ("index", Json::Int((r.spec.index as u64).into())),
            ("grid", Json::str(r.spec.grid.to_string())),
            ("array", Json::str(r.spec.array.to_string())),
            ("partitions", Json::Int(r.spec.partitions().into())),
            (
                "effective_cycles",
                Json::Int(r.report.total_effective_cycles().into()),
            ),
        ])
    };
    summarize_groups(results)
        .into_iter()
        .map(|group| {
            Json::obj(vec![
                ("workload", Json::str(group.workload)),
                ("budget", Json::Int(group.budget.into())),
                ("dataflow", Json::str(group.dataflow.to_string())),
                ("best", point_ref(group.best)),
                (
                    "sweet_spot",
                    group.sweet_spot.map(point_ref).unwrap_or(Json::Null),
                ),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_json(extra: &str) -> Json {
        Json::parse(&format!(
            r#"{{"name":"t","workloads":["TF1"],"budgets":[1024],
                 "config":{{"IfmapSramSz":64,"FilterSramSz":64,"OfmapSramSz":32}}{extra}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn plan_parses_and_expands() {
        let plan = parse_sweep_plan(&plan_json("")).unwrap();
        assert_eq!(plan.name, "t");
        assert_eq!(plan.workloads[0].label, "TF1");
        assert_eq!(plan.expand().unwrap().len(), 5);
    }

    #[test]
    fn plan_rejects_bad_requests() {
        assert!(parse_sweep_plan(&Json::parse(r#"{"budgets":[1]}"#).unwrap()).is_err());
        assert!(parse_sweep_plan(
            &Json::parse(r#"{"workloads":["nope"],"budgets":[1024]}"#).unwrap()
        )
        .is_err());
        assert!(parse_sweep_plan(&plan_json(r#","bogus":1"#)).is_err());
        assert!(parse_sweep_plan(&plan_json(r#","grids":"some""#)).is_err());
        assert!(parse_sweep_plan(&plan_json(r#","dataflows":["rs"]"#)).is_err());
        assert!(parse_sweep_plan(&plan_json(r#","bandwidth":-1"#)).is_err());
    }

    /// Every shipped plan file parses to the same plan as its JSON
    /// rendering: one grammar behind both front ends.
    #[test]
    fn shipped_plans_match_their_json_renderings() {
        let small_sram = r#""config":{"IfmapSramSz":64,"FilterSramSz":64,"OfmapSramSz":32}"#;
        let cases = [
            (
                include_str!("../../../examples/fig9_tf0.plan"),
                r#"{"name":"fig9-tf0","workloads":["TF0"],"budgets":["2^10","2^12"],
                   "aspect":"all","dataflows":["os"],
                   "config":{"IfmapSramSz":512,"FilterSramSz":512,"OfmapSramSz":256}}"#
                    .to_owned(),
            ),
            (
                include_str!("../../../examples/sweep_hetero.plan"),
                format!(
                    r#"{{"name":"sweep-hetero","workloads":["TF0","TF1"],
                        "budgets":[256,1024],{small_sram}}}"#
                ),
            ),
            (
                include_str!("../../../examples/explore_smoke.plan"),
                format!(
                    r#"{{"name":"explore-smoke","workloads":["TF0","TF1"],
                        "budgets":["2^10",4096,"2^14"],"aspect":"all",
                        "dataflows":["os","auto"],{small_sram}}}"#
                ),
            ),
            (
                include_str!("../../../examples/ws_is_conv.plan"),
                format!(
                    r#"{{"name":"ws-is-conv","workloads":["yolo_tiny"],"budgets":["2^8"],
                        "grids":["1x1","2x2"],"dataflows":["os","ws","is"],{small_sram}}}"#
                ),
            ),
            (
                "workload = TF1\nbudget = 2^10\nmin_dim = 16\ngrid = all\nbandwidth = 32.5\n",
                r#"{"workloads":["TF1"],"budgets":[1024],"min_dim":16,"grids":"all",
                   "bandwidth":32.5}"#
                    .to_owned(),
            ),
        ];
        for (plan_text, json) in cases {
            let from_file = SweepPlan::parse(plan_text).unwrap();
            let from_json = parse_sweep_plan(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(from_file, from_json, "plan `{}`", from_file.name);
        }
    }

    /// `/sweep` summary groups name the same best and sweet-spot points
    /// as the core engine's summary of the same plan.
    #[test]
    fn groups_match_the_core_summary() {
        let body = Json::parse(
            r#"{"workloads":["NCF0","NCF1"],"budgets":[1024],"dataflows":["os","ws"],
                "config":{"IfmapSramSz":64,"FilterSramSz":64,"OfmapSramSz":32}}"#,
        )
        .unwrap();
        let engine = Engine::new(2, 64);
        let response = run_sweep(&engine, &body).unwrap();
        engine.shutdown();
        let groups = response
            .get("summary")
            .and_then(|s| s.get("groups"))
            .and_then(Json::as_array)
            .unwrap();

        let plan = parse_sweep_plan(&body).unwrap();
        let outcome =
            scalesim::SweepEngine::with_registry(64, &scalesim_telemetry::Registry::new())
                .run(&plan, 2)
                .unwrap();
        let core = outcome.summarize();
        assert_eq!(groups.len(), 4);
        assert_eq!(groups.len(), core.len());
        let index = |v: Option<&Json>| v.and_then(|p| p.get("index")).and_then(Json::as_u64);
        for (json, group) in groups.iter().zip(&core) {
            assert_eq!(
                json.get("workload").and_then(Json::as_str),
                Some(group.workload)
            );
            assert_eq!(index(json.get("best")), Some(group.best.spec.index as u64));
            assert_eq!(
                index(json.get("sweet_spot")),
                group.sweet_spot.map(|r| r.spec.index as u64)
            );
        }
    }

    #[test]
    fn sweep_runs_through_the_engine_cache() {
        let engine = Engine::new(4, 64);
        let body = plan_json("");
        let first = run_sweep(&engine, &body).unwrap();
        let summary = first.get("summary").unwrap();
        assert_eq!(summary.get("points").and_then(Json::as_u64), Some(5));
        assert_eq!(summary.get("simulations").and_then(Json::as_u64), Some(5));
        assert_eq!(summary.get("cache_hits").and_then(Json::as_u64), Some(0));

        // Re-running the identical plan is served entirely from cache and
        // the points (minus the `served` marker) are identical.
        let second = run_sweep(&engine, &body).unwrap();
        let summary = second.get("summary").unwrap();
        assert_eq!(summary.get("simulations").and_then(Json::as_u64), Some(0));
        assert_eq!(summary.get("cache_hits").and_then(Json::as_u64), Some(5));
        // Point rows are byte-identical modulo the served marker (the
        // summary's simulations/cache_hits legitimately differ per run).
        let strip = |v: &Json| {
            v.get("points")
                .unwrap()
                .to_string()
                .replace("\"served\":\"miss\"", "")
                .replace("\"served\":\"hit\"", "")
        };
        assert_eq!(strip(&first), strip(&second));

        // Sweep metrics land in the engine registry.
        let registry = engine.registry();
        assert_eq!(
            registry.counter_value(telemetry_names::POINTS, &[]),
            Some(10)
        );
        assert_eq!(
            registry.counter_value(telemetry_names::SIMULATIONS, &[]),
            Some(5)
        );
        assert_eq!(
            registry.counter_value(telemetry_names::CACHE_HITS, &[]),
            Some(5)
        );
        engine.shutdown();
    }

    #[test]
    fn sweep_points_match_simulate_responses() {
        // A sweep point and an equivalent /simulate job share one cache
        // entry: the job arriving second must be a hit, not a fresh run.
        let engine = Engine::new(2, 64);
        run_sweep(&engine, &plan_json("")).unwrap();
        let sims_after_sweep = engine.stats().simulations.get();

        let mut job = crate::job::SimJob::builtin("TF1");
        job.config = vec![
            ("IfmapSramSz".into(), "64".into()),
            ("FilterSramSz".into(), "64".into()),
            ("OfmapSramSz".into(), "32".into()),
            ("ArrayHeight".into(), "32".into()),
            ("ArrayWidth".into(), "32".into()),
        ];
        let (_, served) = engine.run(&job).unwrap();
        assert_eq!(served, Served::Cache);
        assert_eq!(engine.stats().simulations.get(), sims_after_sweep);
        engine.shutdown();
    }

    #[test]
    fn groups_carry_best_and_sweet_spot() {
        let engine = Engine::new(4, 64);
        let body = plan_json("");
        let response = run_sweep(&engine, &body).unwrap();
        let groups = response
            .get("summary")
            .and_then(|s| s.get("groups"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(groups.len(), 1);
        let group = &groups[0];
        assert_eq!(group.get("workload").and_then(Json::as_str), Some("TF1"));
        assert!(group.get("best").unwrap().get("grid").is_some());
        assert!(group.get("sweet_spot").unwrap().get("partitions").is_some());
        engine.shutdown();
    }
}
