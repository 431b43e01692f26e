//! `POST /explore`: analytical-guided design-space exploration.
//!
//! The request body is a sweep plan (same fields as `POST /sweep`, which
//! map one-to-one onto plan-file keys — see
//! [`crate::sweep::parse_sweep_plan`]) plus the explore knobs:
//!
//! ```json
//! {
//!   "name": "fig9_tf0",
//!   "workloads": ["TF0"],
//!   "budgets": [1024, 4096],
//!   "aspect": "all",
//!   "keep_within": 10,        // slack band, percent (default 10)
//!   "budget": 50,             // max points simulated (optional)
//!   "budget_seconds": 30,     // or a wall-clock limit (optional)
//!   "jobs": 4                 // simulation parallelism (default 4)
//! }
//! ```
//!
//! The handler runs the three-stage pipeline of
//! [`scalesim::explore`](scalesim::ExploreEngine): analytical lower-bound
//! prediction over every candidate, Pareto-band pruning, then
//! cycle-accurate simulation of the survivors under the budget. Each
//! request uses its own [`ExploreEngine`] (stage 2 needs full simulation
//! reports, which the shared `/simulate` result cache does not retain), but
//! its telemetry lands in the engine registry so the
//! `scalesim_explore_*` series show up on `GET /metrics`.

use std::collections::HashSet;
use std::time::Duration;

use scalesim::sweep::SweepError;
use scalesim::{ExploreBudget, ExploreEngine, ExploreOptions, ExploreOutcome, MeasuredPoint};

use crate::engine::Engine;
use crate::job::JobError;
use crate::json::Json;

/// Cache capacity for the per-request explore engine: big enough that the
/// refinement loop never evicts a survivor's report mid-request.
const EXPLORE_CACHE: usize = 4096;

/// Splits the request body into the core sweep plan and the explore
/// options.
///
/// # Errors
///
/// [`JobError::BadRequest`] on malformed explore knobs or (via
/// [`crate::sweep::parse_sweep_plan`]) a malformed plan.
pub fn parse_explore_request(
    value: &Json,
) -> Result<(scalesim::SweepPlan, ExploreOptions), JobError> {
    let obj = value
        .as_object()
        .ok_or_else(|| JobError::bad_request("explore request must be a JSON object"))?;

    let mut options = ExploreOptions {
        jobs: 4,
        ..ExploreOptions::default()
    };
    let mut plan_fields: Vec<(String, Json)> = Vec::new();
    let mut sim_budget = None;
    let mut wall_budget = None;
    for (key, val) in obj {
        match key.as_str() {
            "keep_within" => {
                let pct = val
                    .as_f64()
                    .filter(|p| p.is_finite() && *p >= 0.0)
                    .ok_or_else(|| {
                        JobError::bad_request("`keep_within` must be a nonnegative percentage")
                    })?;
                options.keep_within_pct = pct;
            }
            "budget" => {
                let n = val.as_u64().ok_or_else(|| {
                    JobError::bad_request("`budget` must be an integer point count")
                })?;
                sim_budget = Some(ExploreBudget::Sims(n as usize));
            }
            "budget_seconds" => {
                let secs = val
                    .as_f64()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| {
                        JobError::bad_request("`budget_seconds` must be a positive number")
                    })?;
                wall_budget = Some(ExploreBudget::WallClock(Duration::from_secs_f64(secs)));
            }
            "jobs" => {
                let n = val
                    .as_u64()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| JobError::bad_request("`jobs` must be a positive integer"))?;
                options.jobs = n as usize;
            }
            _ => plan_fields.push((key.clone(), val.clone())),
        }
    }
    if sim_budget.is_some() && wall_budget.is_some() {
        return Err(JobError::bad_request(
            "`budget` and `budget_seconds` are mutually exclusive",
        ));
    }
    options.budget = sim_budget
        .or(wall_budget)
        .unwrap_or(ExploreBudget::Unlimited);

    let plan = crate::sweep::parse_sweep_plan(&Json::Obj(plan_fields))?;
    Ok((plan, options))
}

/// Parses and runs an explore request, returning the full response body.
/// Blocks until the budget is exhausted or the survivors are simulated.
///
/// # Errors
///
/// [`JobError::BadRequest`] for invalid requests, including plans the
/// explore engine rejects ([`SweepError::Plan`]); [`JobError::Internal`]
/// when a survivor's simulation fails.
pub fn run_explore(engine: &Engine, body: &Json) -> Result<Json, JobError> {
    let (plan, options) = parse_explore_request(body)?;
    let explorer = ExploreEngine::with_registry(EXPLORE_CACHE, engine.registry());
    let outcome = explorer.run(&plan, &options).map_err(|e| match e {
        SweepError::Plan(_) => JobError::from(e),
        e => JobError::Internal(format!("explore failed: {e}")),
    })?;
    Ok(outcome_json(&outcome))
}

fn outcome_json(outcome: &ExploreOutcome) -> Json {
    let frontiers = outcome.frontiers();
    let on_frontier: HashSet<*const MeasuredPoint> = frontiers
        .iter()
        .flat_map(|(_, points)| points.iter().map(|p| *p as *const MeasuredPoint))
        .collect();

    let point_json = |p: &MeasuredPoint| {
        Json::obj(vec![
            ("workload", Json::str(p.spec.workload.clone())),
            ("budget", Json::Int(p.spec.budget.into())),
            ("partitions", Json::Int(p.spec.partitions().into())),
            ("grid", Json::str(p.spec.grid.to_string())),
            ("array", Json::str(p.spec.array.to_string())),
            ("dataflow", Json::str(p.spec.dataflow.to_string())),
            ("predicted_cycles", Json::Int(p.predicted.into())),
            ("cycles", Json::Int(p.report.total_cycles().into())),
            ("effective_cycles", Json::Int(p.measured().into())),
            (
                "on_frontier",
                Json::Bool(on_frontier.contains(&(p as *const MeasuredPoint))),
            ),
        ])
    };

    let frontier_json: Vec<Json> = frontiers
        .iter()
        .map(|(workload, points)| {
            Json::obj(vec![
                ("workload", Json::str(*workload)),
                (
                    "points",
                    Json::Arr(points.iter().map(|p| point_json(p)).collect()),
                ),
            ])
        })
        .collect();

    Json::obj(vec![
        ("plan", Json::str(outcome.plan_name.clone())),
        (
            "summary",
            Json::obj(vec![
                ("candidates", Json::Int((outcome.candidates as u64).into())),
                ("pruned", Json::Int((outcome.pruned as u64).into())),
                ("survivors", Json::Int((outcome.survivors as u64).into())),
                ("simulated", Json::Int((outcome.simulated as u64).into())),
                ("cache_hits", Json::Int(outcome.cache_hits.into())),
                (
                    "stage_seconds",
                    Json::obj(vec![
                        ("analytical", Json::Float(outcome.stage_seconds.analytical)),
                        ("prune", Json::Float(outcome.stage_seconds.prune)),
                        ("simulate", Json::Float(outcome.stage_seconds.simulate)),
                    ]),
                ),
                (
                    "analytical_error",
                    Json::obj(vec![
                        (
                            "count",
                            Json::Int((outcome.error_stats.count as u64).into()),
                        ),
                        ("p50", Json::Float(outcome.error_stats.p50)),
                        ("p95", Json::Float(outcome.error_stats.p95)),
                        ("mean", Json::Float(outcome.error_stats.mean)),
                        ("max", Json::Float(outcome.error_stats.max)),
                    ]),
                ),
            ]),
        ),
        (
            "points",
            Json::Arr(outcome.measured.iter().map(point_json).collect()),
        ),
        ("frontiers", Json::Arr(frontier_json)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(extra: &str) -> Json {
        Json::parse(&format!(
            r#"{{"name":"e","workloads":["TF1"],"budgets":[1024],
                 "config":{{"IfmapSramSz":64,"FilterSramSz":64,"OfmapSramSz":32}}{extra}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn request_parses_with_defaults() {
        let (plan, options) = parse_explore_request(&body("")).unwrap();
        assert_eq!(plan.name, "e");
        assert_eq!(options.keep_within_pct, 10.0);
        assert_eq!(options.budget, ExploreBudget::Unlimited);
        assert_eq!(options.jobs, 4);
    }

    #[test]
    fn request_parses_explore_knobs() {
        let (_, options) =
            parse_explore_request(&body(r#","keep_within":25,"budget":7,"jobs":2"#)).unwrap();
        assert_eq!(options.keep_within_pct, 25.0);
        assert_eq!(options.budget, ExploreBudget::Sims(7));
        assert_eq!(options.jobs, 2);

        let (_, options) = parse_explore_request(&body(r#","budget_seconds":1.5"#)).unwrap();
        assert_eq!(
            options.budget,
            ExploreBudget::WallClock(Duration::from_secs_f64(1.5))
        );
    }

    #[test]
    fn request_rejects_bad_knobs() {
        assert!(parse_explore_request(&body(r#","keep_within":-1"#)).is_err());
        assert!(parse_explore_request(&body(r#","budget":"lots""#)).is_err());
        assert!(parse_explore_request(&body(r#","budget_seconds":0"#)).is_err());
        assert!(parse_explore_request(&body(r#","jobs":0"#)).is_err());
        assert!(parse_explore_request(&body(r#","budget":1,"budget_seconds":1"#)).is_err());
        // Unknown fields still fall through to the plan parser and fail.
        assert!(parse_explore_request(&body(r#","bogus":1"#)).is_err());
    }

    #[test]
    fn explore_runs_and_reports_a_frontier() {
        let engine = Engine::new(2, 16);
        let response = run_explore(&engine, &body(r#","jobs":2"#)).unwrap();
        let summary = response.get("summary").unwrap();
        let candidates = summary.get("candidates").and_then(Json::as_u64).unwrap();
        let pruned = summary.get("pruned").and_then(Json::as_u64).unwrap();
        let survivors = summary.get("survivors").and_then(Json::as_u64).unwrap();
        let simulated = summary.get("simulated").and_then(Json::as_u64).unwrap();
        assert_eq!(candidates, 5);
        assert_eq!(candidates, pruned + survivors);
        assert!(simulated <= survivors);

        let frontiers = response.get("frontiers").and_then(Json::as_array).unwrap();
        assert_eq!(frontiers.len(), 1);
        let points = frontiers[0].get("points").and_then(Json::as_array).unwrap();
        assert!(!points.is_empty(), "frontier must be nonempty");
        for p in points {
            assert_eq!(p.get("on_frontier"), Some(&Json::Bool(true)));
            let predicted = p.get("predicted_cycles").and_then(Json::as_u64).unwrap();
            let cycles = p.get("cycles").and_then(Json::as_u64).unwrap();
            assert!(predicted <= cycles, "prediction must stay a lower bound");
        }

        // The explore telemetry landed in the engine registry.
        let registry = engine.registry();
        let read = |name| registry.counter_value(name, &[]).unwrap_or(0);
        assert_eq!(
            read(scalesim::explore::telemetry_names::CANDIDATES),
            candidates
        );
        assert_eq!(read(scalesim::explore::telemetry_names::PRUNED), pruned);
        assert_eq!(
            read(scalesim::explore::telemetry_names::SIMULATED),
            simulated
        );
        engine.shutdown();
    }
}
