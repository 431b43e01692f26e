//! Batch mode: run a manifest of jobs through the [`Engine`] with several
//! concurrent submitters and collect one CSV report.
//!
//! A manifest is a text file with one job per line. Blank lines and `#`
//! comments are skipped. Each job line is either a JSON object (the
//! `POST /simulate` body format — the line must start with `{`) or
//! whitespace-separated `key=value` pairs:
//!
//! ```text
//! # ResNet-50 first layer at two grid sizes
//! network=resnet50 layer=Conv1
//! network=resnet50 layer=Conv1 grid=2x2
//! {"network": "alexnet", "dataflow": "ws"}
//! ```
//!
//! Duplicate jobs in a manifest deduplicate through the engine's cache and
//! single-flight table exactly like HTTP traffic does, so a manifest that
//! lists every job twice reports a 50% cache-hit rate and simulates each
//! distinct job once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use scalesim::NetworkReport;

use crate::engine::{Engine, Served, SimResult};
use crate::job::{JobError, SimJob};
use crate::json::Json;

/// Retry policy for shed jobs: exponential backoff with deterministic
/// jitter, honoring the server's `Retry-After` hint when one is larger.
/// Only *retryable* errors ([`JobError::is_retryable`], i.e. overload
/// shedding) are retried — bad requests and internal errors fail the job
/// immediately.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = fail on first shed).
    pub retries: u32,
    /// First-retry delay; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling on any single delay (applied after hint and jitter).
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 0,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// A policy with `retries` attempts and the default delays.
    pub fn with_retries(retries: u32) -> RetryPolicy {
        RetryPolicy {
            retries,
            ..RetryPolicy::default()
        }
    }

    /// The delay before retry number `attempt` (0-based) of job `job_idx`:
    /// `base * 2^attempt`, raised to the server's `Retry-After` hint if
    /// that is larger, scaled by a deterministic 0.75–1.25x jitter keyed on
    /// (job, attempt) so concurrent shed submitters spread out instead of
    /// retrying in lockstep, then capped at `max_delay`.
    pub fn backoff_delay(&self, attempt: u32, job_idx: usize, hint_ms: Option<u64>) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
        let floor = Duration::from_millis(hint_ms.unwrap_or(0));
        let delay = exp.max(floor);
        // FNV-1a over (job_idx, attempt) → fraction in [0, 1); no `rand`
        // available offline, and determinism makes the schedule testable.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in job_idx
            .to_le_bytes()
            .iter()
            .chain(attempt.to_le_bytes().iter())
        {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let jitter = 0.75 + 0.5 * (h % 1000) as f64 / 1000.0;
        delay.mul_f64(jitter).min(self.max_delay)
    }
}

/// Parses a batch manifest into jobs, in file order.
pub fn parse_manifest(text: &str) -> Result<Vec<SimJob>, JobError> {
    let mut jobs = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let job = if line.starts_with('{') {
            Json::parse(line)
                .map_err(|e| JobError::bad_request(format!("line {}: {e}", idx + 1)))
                .and_then(|json| SimJob::from_json(&json))
        } else {
            SimJob::from_kv_line(line)
        }
        .map_err(|e| JobError::bad_request(format!("manifest line {}: {e}", idx + 1)))?;
        jobs.push(job);
    }
    if jobs.is_empty() {
        return Err(JobError::bad_request("manifest contains no jobs"));
    }
    Ok(jobs)
}

/// One manifest entry's outcome, in manifest order.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// The job as written in the manifest.
    pub job: SimJob,
    /// How it was served.
    pub served: Served,
    /// The simulation result.
    pub result: std::sync::Arc<SimResult>,
}

/// The collected outcome of a batch run.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-job outcomes, in manifest order.
    pub entries: Vec<BatchEntry>,
    /// Simulations that actually ran.
    pub simulations: u64,
    /// Requests served from cache or by joining an in-flight duplicate.
    pub cache_hits: u64,
}

impl BatchOutcome {
    /// Cache-hit rate over the whole batch, in percent.
    pub fn hit_rate_percent(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            100.0 * self.cache_hits as f64 / self.entries.len() as f64
        }
    }

    /// The combined REPORT CSV: one header, then every job's per-layer rows
    /// in manifest order. Rows are byte-identical to each job's standalone
    /// `NetworkReport::to_csv` output.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(NetworkReport::CSV_HEADER);
        for entry in &self.entries {
            out.push_str(&entry.result.report.csv_rows());
        }
        out
    }

    /// One-line human summary, e.g.
    /// `48 jobs, 24 simulations, cache-hit rate 50.0% (24/48)`.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs, {} simulations, cache-hit rate {:.1}% ({}/{})",
            self.entries.len(),
            self.simulations,
            self.hit_rate_percent(),
            self.cache_hits,
            self.entries.len(),
        )
    }
}

/// Runs `job(i)` for every `i` in `0..n` on up to `submitters` scoped
/// threads that claim indices in ascending order, and returns the outcomes
/// in index order regardless of completion order. The submitter loop
/// behind both batch manifests and `POST /sweep`: the engine's worker pool
/// bounds simulation parallelism, submitters only keep it fed.
pub(crate) fn submit_in_order<T: Send>(
    n: usize,
    submitters: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..submitters.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let outcome = job(i);
                slots.lock().unwrap()[i] = Some(outcome);
            });
        }
    });
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("every index was claimed by a submitter"))
        .collect()
}

/// Runs `jobs` through `engine` using `submitters` concurrent submitter
/// threads, without retries. See [`run_batch_with_retry`].
pub fn run_batch(
    engine: &Engine,
    jobs: &[SimJob],
    submitters: usize,
) -> Result<BatchOutcome, JobError> {
    run_batch_with_retry(engine, jobs, submitters, RetryPolicy::default())
}

/// Runs `jobs` through `engine` using `submitters` concurrent submitter
/// threads. Results come back in manifest order regardless of completion
/// order. Jobs shed by an overloaded engine are retried per `policy`
/// (backoff + jitter, honoring the retry hint); other errors are not
/// retried, and the first failed job in manifest order fails the batch.
pub fn run_batch_with_retry(
    engine: &Engine,
    jobs: &[SimJob],
    submitters: usize,
    policy: RetryPolicy,
) -> Result<BatchOutcome, JobError> {
    let outcomes = submit_in_order(jobs.len(), submitters, |idx| {
        let mut attempt = 0u32;
        loop {
            match engine.run(&jobs[idx]) {
                Err(e) if e.is_retryable() && attempt < policy.retries => {
                    std::thread::sleep(policy.backoff_delay(attempt, idx, e.retry_after_ms()));
                    attempt += 1;
                }
                outcome => return outcome,
            }
        }
    });

    let mut entries = Vec::with_capacity(jobs.len());
    let mut cache_hits = 0u64;
    let mut simulations = 0u64;
    for (idx, (job, outcome)) in jobs.iter().zip(outcomes).enumerate() {
        let (result, served) =
            outcome.map_err(|e| JobError::BadRequest(format!("job {}: {e}", idx + 1)))?;
        match served {
            Served::Fresh => simulations += 1,
            Served::Cache | Served::Joined => cache_hits += 1,
        }
        entries.push(BatchEntry {
            job: job.clone(),
            served,
            result,
        });
    }
    Ok(BatchOutcome {
        entries,
        simulations,
        cache_hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_CSV: &str = "Layer,IfmapH,IfmapW,FilterH,FilterW,Channels,Filters,Strides\n\
                            L1,8,8,3,3,4,8,1\nL2,8,8,1,1,8,8,1\n";

    fn tiny_manifest_job(dataflow: &str) -> SimJob {
        SimJob {
            workload: crate::job::Workload::InlineCsv {
                name: "tiny".into(),
                csv: TINY_CSV.into(),
            },
            layer: None,
            config: vec![
                ("ArrayHeight".into(), "8".into()),
                ("ArrayWidth".into(), "8".into()),
            ],
            grid: (1, 1),
            dataflow: Some(dataflow.into()),
            bandwidth: None,
            batch: None,
        }
    }

    #[test]
    fn manifest_parses_kv_json_comments() {
        let text = "\n# comment\nnetwork=resnet50 layer=Conv1\n\
                    {\"network\": \"alexnet\", \"dataflow\": \"ws\"}\n";
        let jobs = parse_manifest(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].layer.as_deref(), Some("Conv1"));
        assert_eq!(jobs[1].dataflow.as_deref(), Some("ws"));
        assert!(parse_manifest("# only comments\n").is_err());
        assert!(parse_manifest("network=resnet50 nonsense\n").is_err());
    }

    #[test]
    fn duplicated_jobs_hit_fifty_percent() {
        let engine = Engine::new(4, 64);
        let jobs: Vec<SimJob> = ["os", "ws", "is"]
            .iter()
            .flat_map(|df| [tiny_manifest_job(df), tiny_manifest_job(df)])
            .collect();
        let outcome = run_batch(&engine, &jobs, 4).unwrap();
        assert_eq!(outcome.entries.len(), 6);
        assert_eq!(outcome.simulations, 3);
        assert_eq!(outcome.cache_hits, 3);
        assert!((outcome.hit_rate_percent() - 50.0).abs() < 1e-9);
        assert!(outcome.summary().contains("cache-hit rate 50.0% (3/6)"));
        engine.shutdown();
    }

    #[test]
    fn csv_rows_match_standalone_reports() {
        let engine = Engine::new(2, 16);
        let jobs = vec![tiny_manifest_job("os"), tiny_manifest_job("ws")];
        let outcome = run_batch(&engine, &jobs, 2).unwrap();
        let combined = outcome.to_csv();
        let expected: String = String::from(NetworkReport::CSV_HEADER)
            + &outcome.entries[0].result.report.csv_rows()
            + &outcome.entries[1].result.report.csv_rows();
        assert_eq!(combined, expected);
        // And each job's standalone to_csv is header + its rows.
        let standalone = outcome.entries[0].result.report.to_csv();
        assert!(standalone.ends_with(&outcome.entries[0].result.report.csv_rows()));
        engine.shutdown();
    }

    #[test]
    fn bad_job_fails_the_batch() {
        let engine = Engine::new(1, 4);
        let jobs = vec![SimJob::builtin("no_such_net")];
        assert!(run_batch(&engine, &jobs, 2).is_err());
        engine.shutdown();
    }

    #[test]
    fn backoff_is_deterministic_and_honors_hints() {
        let policy = RetryPolicy::with_retries(3);
        // Deterministic: same (attempt, job) always yields the same delay.
        assert_eq!(
            policy.backoff_delay(0, 7, None),
            policy.backoff_delay(0, 7, None)
        );
        // Jitter bounds: 0.75–1.25x of the 50 ms base.
        let d0 = policy.backoff_delay(0, 0, None);
        assert!(d0 >= Duration::from_micros(37_500) && d0 <= Duration::from_micros(62_500));
        // Exponential growth between attempts (jitter can't mask a 2x step
        // entirely: 2 * 0.75 > 1.25).
        assert!(policy.backoff_delay(3, 0, None) > policy.backoff_delay(0, 0, None));
        // A server hint larger than the exponential term becomes the floor.
        let hinted = policy.backoff_delay(0, 0, Some(2_000));
        assert!(hinted >= Duration::from_millis(1_500));
        // The cap always wins.
        assert!(policy.backoff_delay(30, 0, Some(60_000)) <= policy.max_delay);
    }

    #[test]
    fn shed_jobs_retry_until_the_queue_drains() {
        use crate::engine::{EngineOptions, FaultPlan};
        // One slow worker and a one-deep queue: three concurrent distinct
        // jobs guarantee shedding. With retries the whole batch completes.
        let engine = Engine::with_options(EngineOptions {
            workers: 1,
            cache_capacity: 16,
            queue_depth: 1,
        });
        engine.inject_faults(FaultPlan::new().delay("tiny", Duration::from_millis(80)));
        let jobs: Vec<SimJob> = ["os", "ws", "is"]
            .iter()
            .map(|df| tiny_manifest_job(df))
            .collect();
        let policy = RetryPolicy {
            retries: 20,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(250),
        };
        let outcome = run_batch_with_retry(&engine, &jobs, 3, policy).unwrap();
        assert_eq!(outcome.entries.len(), 3);
        assert_eq!(outcome.simulations, 3);
        engine.shutdown();
    }
}
