//! The `serve_mix` workload: an in-process HTTP server and one client
//! process running a closed loop over [`CONNECTIONS`] connections. The
//! client sends a seeded sequence of `POST /simulate` jobs; the server
//! sees only those requests.
//!
//! The job universe is fixed: every single ResNet-50 layer × {os, ws, is}
//! × {1×1, 2×2} grids × {16², 32²} arrays, 648 jobs. A sequence holds each
//! job once plus Zipf(1)-distributed repeats over a seeded popularity
//! ranking, shuffled. Every seed therefore simulates the same set of
//! fresh jobs (so host cost does not depend on the seed), while order,
//! popularity, cache hits and single-flight joins do.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use scalesim::layer_cache;
use scalesim_server::engine::EngineOptions;
use scalesim_server::{Engine, Json, NormalizedJob, Server, ServerHandle, ServerOptions, SimJob};

use crate::counters::Counters;
use crate::digest::fnv64;
use crate::replay::Task;
use crate::sys;

/// Requests per sequence: with 648 distinct jobs, 27% are distinct.
pub const REQUESTS: usize = 2400;
/// Concurrent client connections, each a closed loop.
pub const CONNECTIONS: usize = 2;
/// Server result-cache capacity: 16x the job universe, so nothing the
/// sequence repeats is evicted.
const CACHE_CAPACITY: usize = 16 * 1024;

const DATAFLOWS: [&str; 3] = ["os", "ws", "is"];
const GRIDS: [u64; 2] = [1, 2];
const ARRAYS: [u64; 2] = [16, 32];

/// One job of the universe.
#[derive(Debug, Clone)]
pub struct Job {
    /// `layer/dataflow/grid/array`, the digest file's operation id.
    pub id: String,
    pub body: String,
}

/// The fixed job universe, in a fixed order.
pub fn universe() -> Vec<Job> {
    let net = scalesim_topology::networks::resnet50();
    let mut jobs = Vec::new();
    for layer in net.iter() {
        for df in DATAFLOWS {
            for g in GRIDS {
                for a in ARRAYS {
                    jobs.push(Job {
                        id: format!("{}/{df}/{g}x{g}/{a}", layer.name()),
                        body: format!(
                            "{{\"network\":\"resnet50\",\"layer\":\"{}\",\"dataflow\":\"{df}\",\
                             \"grid\":\"{g}x{g}\",\"config\":{{\"ArrayHeight\":{a},\"ArrayWidth\":{a}}}}}",
                            layer.name()
                        ),
                    });
                }
            }
        }
    }
    jobs
}

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The request sequence for `seed`, as indices into [`universe`].
pub fn sequence(seed: u64, universe_len: usize, requests: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut ranking: Vec<usize> = (0..universe_len).collect();
    rng.shuffle(&mut ranking);
    // Zipf(1) over popularity ranks, by inverse CDF.
    let mut cdf = Vec::with_capacity(universe_len);
    let mut total = 0.0;
    for rank in 0..universe_len {
        total += 1.0 / (rank + 1) as f64;
        cdf.push(total);
    }
    let mut seq: Vec<usize> = (0..universe_len).collect();
    while seq.len() < requests {
        let u = rng.unit() * total;
        let rank = cdf.partition_point(|&c| c <= u).min(universe_len - 1);
        seq.push(ranking[rank]);
    }
    rng.shuffle(&mut seq);
    seq
}

/// Share of a sequence's requests that name a job for the first time.
pub fn distinct_frac(seq: &[usize]) -> f64 {
    let distinct: HashSet<usize> = seq.iter().copied().collect();
    crate::metrics::ratio(distinct.len() as f64, seq.len() as f64)
}

/// A response body without its `sim_wall_micros` field, the one part of
/// a result that is a host measurement rather than a simulated figure.
pub fn strip_wall(body: &str) -> String {
    const FIELD: &str = "\"sim_wall_micros\":";
    match body.find(FIELD) {
        Some(at) => {
            let rest = &body[at + FIELD.len()..];
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            let rest = &rest[digits..];
            let rest = rest.strip_prefix(',').unwrap_or(rest);
            format!("{}{rest}", &body[..at])
        }
        None => body.to_owned(),
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Position in the sequence.
    pub index: usize,
    pub status: u16,
    /// `X-Scalesim-Cache`: `miss`, `hit` or `joined`.
    pub cache: String,
    /// Send time, from the client's start.
    pub start_us: u64,
    pub latency_us: u64,
    /// Digest of the body without `sim_wall_micros`.
    pub digest: String,
}

/// Sends one request on a fresh connection (the server closes each
/// connection after its response) and reads the whole response.
fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_nodelay(true)?;
    let method = if body.is_empty() { "GET" } else { "POST" };
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without a header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    let cache = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("x-scalesim-cache")
                .then(|| value.trim().to_owned())
        })
        .unwrap_or_default();
    Ok((status, cache, body.to_owned()))
}

/// The client process: sends the sequence for `seed` to `addr` over
/// [`CONNECTIONS`] closed loops and prints one `req` line per request,
/// then `wall_us <n>`.
pub fn client(addr: SocketAddr, seed: u64) -> Result<(), String> {
    let jobs = universe();
    let seq = sequence(seed, jobs.len(), REQUESTS);
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(seq.len()));
    let start = Instant::now();
    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&job) = seq.get(index) else {
                            return Ok(());
                        };
                        let sent = start.elapsed();
                        let (status, cache, body) = post(addr, "/simulate", &jobs[job].body)
                            .map_err(|e| format!("request {index}: {e}"))?;
                        let latency = start.elapsed() - sent;
                        records
                            .lock()
                            .expect("no client thread panics")
                            .push(Record {
                                index,
                                status,
                                cache,
                                start_us: sent.as_micros() as u64,
                                latency_us: latency.as_micros() as u64,
                                digest: fnv64(strip_wall(&body).as_bytes()),
                            });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread panicked").err())
            .collect()
    });
    let wall = start.elapsed();
    if let Some(first) = failures.first() {
        return Err(first.clone());
    }
    let mut records = records.into_inner().expect("client threads joined");
    records.sort_by_key(|r| r.index);
    let mut out = std::io::stdout().lock();
    for r in &records {
        writeln!(
            out,
            "req {} {} {} {} {} {}",
            r.index,
            r.status,
            if r.cache.is_empty() { "-" } else { &r.cache },
            r.start_us,
            r.latency_us,
            r.digest
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(out, "wall_us {}", wall.as_micros()).map_err(|e| e.to_string())?;
    Ok(())
}

fn parse_client_output(text: &str) -> Result<(Vec<Record>, Duration), String> {
    let mut records = Vec::new();
    let mut wall = None;
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad client line `{line}`"))
        };
        match fields.first() {
            Some(&"req") if fields.len() == 7 => records.push(Record {
                index: num(1)? as usize,
                status: num(2)? as u16,
                cache: fields[3].to_owned(),
                start_us: num(4)?,
                latency_us: num(5)?,
                digest: fields[6].to_owned(),
            }),
            Some(&"wall_us") => wall = Some(Duration::from_micros(num(1)?)),
            _ => return Err(format!("bad client line `{line}`")),
        }
    }
    Ok((records, wall.ok_or("client printed no wall time")?))
}

/// One untraced repetition: a fresh engine and server, cold caches.
pub struct ServeRep {
    /// Engine, bind and accept thread up to the first `/healthz` answer;
    /// the median of [`crate::SETUPS`] set-ups.
    pub setup: Duration,
    /// Client-observed time to finish the sequence.
    pub wall: Duration,
    /// Server-process CPU time over the sequence.
    pub cpu: Duration,
    pub records: Vec<Record>,
    pub counters: Counters,
    pub hit_frac: f64,
    pub join_frac: f64,
    pub sim_s: f64,
    pub queue_wait_s: f64,
    pub shed: u64,
    pub deadline_expired: u64,
    /// The stopped server's engine: it still holds every result, and its
    /// workers run until [`Engine::shutdown`].
    pub engine: Engine,
}

/// Starts a server on a fresh engine and waits for its first `/healthz`.
fn start_server() -> Result<ServerHandle, String> {
    let engine = Engine::with_options(EngineOptions {
        workers: sys::nproc(),
        cache_capacity: CACHE_CAPACITY,
        ..EngineOptions::default()
    });
    let server = Server::bind_with("127.0.0.1:0", engine, ServerOptions::default())
        .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn();
    match post(handle.addr(), "/healthz", "") {
        Ok((200, ..)) => Ok(handle),
        answer => {
            handle.engine().shutdown();
            handle.stop();
            Err(format!("healthz: {answer:?}"))
        }
    }
}

/// Runs the client process for `seed` against a fresh in-process server.
pub fn run(seed: u64) -> Result<ServeRep, String> {
    layer_cache::clear();
    let before = Counters::read();

    let mut setups = Vec::with_capacity(crate::SETUPS);
    let mut handle: Option<ServerHandle> = None;
    for _ in 0..crate::SETUPS {
        if let Some(old) = handle.take() {
            old.engine().shutdown();
            old.stop();
        }
        let started = Instant::now();
        handle = Some(start_server()?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let handle = handle.expect("at least one set-up");
    let setup = Duration::from_secs_f64(crate::metrics::median(&setups));

    let cpu_before = sys::usage().cpu;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "client",
            "--addr",
            &handle.addr().to_string(),
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let cpu = sys::usage().cpu.saturating_sub(cpu_before);
    let engine = handle.engine().clone();
    handle.stop();
    let output = output.map_err(|e| format!("client process: {e}"))?;
    if !output.status.success() {
        return Err(format!("client process exited with {}", output.status));
    }
    let (records, wall) = parse_client_output(&String::from_utf8_lossy(&output.stdout))?;

    let stats = engine.stats();
    let completed = stats.completed.get() as f64;
    Ok(ServeRep {
        setup,
        wall,
        cpu,
        records,
        counters: Counters::read().since(&before),
        hit_frac: crate::metrics::ratio(stats.lru_hits.get() as f64, completed),
        join_frac: crate::metrics::ratio(stats.joins.get() as f64, completed),
        sim_s: stats.total_sim_micros.get() as f64 / 1e6,
        queue_wait_s: stats.queue_wait.sum(),
        shed: stats.shed.get(),
        deadline_expired: stats.deadline_expired.get(),
        engine,
    })
}

/// Mean microseconds to key one request the way the server does: parse
/// the body, build and normalize the job, hash its canonical text.
pub fn key_us(bodies: &[&str]) -> Result<f64, String> {
    let started = Instant::now();
    for body in bodies {
        let json = Json::parse(body)?;
        let job = SimJob::from_json(&json).map_err(|e| e.to_string())?;
        let key = job.normalize().map_err(|e| e.to_string())?.key();
        std::hint::black_box(key);
    }
    Ok(started.elapsed().as_secs_f64() * 1e6 / bodies.len().max(1) as f64)
}

/// The normalized distinct jobs of a sequence, in first-request order.
pub fn distinct_jobs(jobs: &[Job], seq: &[usize]) -> Result<Vec<(usize, NormalizedJob)>, String> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for &j in seq {
        if seen.insert(j) {
            let json = Json::parse(&jobs[j].body)?;
            let job = SimJob::from_json(&json).and_then(|job| job.normalize());
            out.push((j, job.map_err(|e| e.to_string())?));
        }
    }
    Ok(out)
}

/// Replay tasks for normalized jobs: one per layer, grouped by job id.
pub fn tasks<'a>(jobs: &[Job], normalized: &'a [(usize, NormalizedJob)]) -> Vec<Task<'a>> {
    let mut out = Vec::new();
    for (j, job) in normalized {
        let mut sim = scalesim::Simulator::new(job.config).with_grid(job.grid);
        if job.auto_dataflow {
            sim = sim.with_auto_dataflow();
        }
        for layer in job.topology.iter() {
            out.push(Task {
                group: jobs[*j].id.clone(),
                config: sim.effective_config(layer),
                grid: job.grid,
                layer,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_deterministic_per_seed() {
        let a = sequence(7, 648, REQUESTS);
        assert_eq!(a, sequence(7, 648, REQUESTS));
        let b = sequence(8, 648, REQUESTS);
        assert_ne!(a, b, "another seed reorders the requests");
        assert_eq!(a.len(), REQUESTS);
    }

    #[test]
    fn every_seed_covers_the_universe_with_a_similar_distinct_share() {
        for seed in [1, 2, 99] {
            let seq = sequence(seed, 648, REQUESTS);
            let share = distinct_frac(&seq);
            assert!((share - 0.27).abs() < 0.001, "seed {seed}: {share}");
        }
    }

    #[test]
    fn repeats_follow_a_popularity_skew() {
        let seq = sequence(3, 648, REQUESTS);
        let mut counts = vec![0usize; 648];
        for &j in &seq {
            counts[j] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // The most popular job draws ~1752/H(648) ~ 250 repeats, the ten
        // most popular over a quarter of all requests; the tail once.
        assert!(counts[0] > 150, "{}", counts[0]);
        assert!(counts[..10].iter().sum::<usize>() > REQUESTS / 4);
        assert_eq!(counts[647], 1);
    }

    #[test]
    fn universe_bodies_are_valid_jobs() {
        let jobs = universe();
        assert_eq!(jobs.len(), 648);
        for job in jobs.iter().step_by(37) {
            let json = Json::parse(&job.body).unwrap();
            let normalized = SimJob::from_json(&json).unwrap().normalize().unwrap();
            assert_eq!(normalized.topology.len(), 1, "{}", job.id);
        }
    }

    #[test]
    fn strip_wall_drops_only_the_wall_field() {
        assert_eq!(
            strip_wall("{\"a\":1,\"sim_wall_micros\":1234,\"layers\":[]}"),
            "{\"a\":1,\"layers\":[]}"
        );
        assert_eq!(strip_wall("{\"a\":1}"), "{\"a\":1}");
    }
}
