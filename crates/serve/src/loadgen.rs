//! Deterministic in-process load generator for the serving layer.
//!
//! Two measurements, written together into `results/BENCH_serve.json`:
//!
//! * **Closed loop** — N keep-alive loopback clients send requests
//!   back-to-back over a deterministic endpoint mix; reports req/s and
//!   client-observed p50/p99 per concurrency level. (Latency
//!   percentiles are computed here, client-side, from raw samples —
//!   the obs registry's deterministic sections must never carry clock
//!   values, so they are not the place for latency data.)
//! * **Ingest interference** — the reason this layer exists. A paced
//!   ingest run (absolute-deadline schedule, like [`Pacer`]'s
//!   discipline: lateness never compounds) executes twice, without and
//!   with a fleet of polling HTTP readers. If readers could block the
//!   publish path, the loaded run would miss its schedule; the
//!   recorded slowdown pins that they cannot.
//!
//! Everything that *can* be deterministic is: the workload mix is a
//! pure function of `(seed, client, request-index)`, the synthetic
//! campaign is a pure function of the seed, and thread results are
//! merged in client order. Wall-clock durations are the measurement —
//! they are exactly what a bench file is allowed to contain.
//!
//! [`Pacer`]: marauder_stream::Pacer

use crate::http::MAX_HEAD_BYTES;
use crate::server::{start, ServeConfig};
use crate::state::{PublisherConfig, TrackerPublisher};
use crate::ServeError;
use marauder_core::apdb::{ApDatabase, ApRecord};
use marauder_core::pipeline::{AttackConfig, KnowledgeLevel, MaraudersMap};
use marauder_geo::Point;
use marauder_obs::json::{Json, Layout};
use marauder_stream::{StreamConfig, StreamEngine};
use marauder_wifi::channel::Channel;
use marauder_wifi::frame::Frame;
use marauder_wifi::mac::MacAddr;
use marauder_wifi::sniffer::CapturedFrame;
use marauder_wifi::ssid::Ssid;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Seed for the workload mix and the synthetic campaign.
    pub seed: u64,
    /// Closed-loop concurrency levels to sweep.
    pub concurrency_levels: Vec<usize>,
    /// Requests each closed-loop client sends.
    pub requests_per_client: usize,
    /// Frames the paced interference run ingests (per run).
    pub frames: usize,
    /// Polling HTTP readers during the loaded interference run.
    pub readers: usize,
    /// Synthetic mobiles in the campaign.
    pub devices: usize,
    /// Paced ingest schedule: one frame per this interval.
    pub paced_interval: Duration,
    /// Interval between one reader's polls.
    pub reader_interval: Duration,
    /// Slowdown budget for the loaded ingest run (0.05 = 5%).
    pub max_slowdown: f64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: 42,
            concurrency_levels: vec![1, 8, 64],
            requests_per_client: 250,
            frames: 4000,
            readers: 64,
            devices: 8,
            paced_interval: Duration::from_micros(500),
            reader_interval: Duration::from_millis(10),
            max_slowdown: 0.05,
        }
    }
}

/// One closed-loop sweep row.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopRow {
    /// Concurrent clients.
    pub concurrency: usize,
    /// Requests completed with a 200.
    pub requests: u64,
    /// Responses that were not 200 (should be zero).
    pub errors: u64,
    /// Wall time for the whole level.
    pub elapsed: Duration,
    /// Completed requests per second.
    pub req_per_s: f64,
    /// Median client-observed latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile client-observed latency, microseconds.
    pub p99_us: u64,
}

/// The interference measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceReport {
    /// Frames ingested per run.
    pub frames: usize,
    /// Readers polling during the loaded run.
    pub readers: usize,
    /// Reader poll responses observed during the loaded run.
    pub reader_responses: u64,
    /// The schedule both runs were paced to.
    pub scheduled: Duration,
    /// Elapsed without readers.
    pub base_elapsed: Duration,
    /// Elapsed with readers.
    pub loaded_elapsed: Duration,
    /// `loaded/base − 1`, clamped at 0 below.
    pub slowdown: f64,
    /// The budget the run was checked against.
    pub max_slowdown: f64,
    /// Whether `slowdown ≤ max_slowdown`.
    pub within_budget: bool,
}

/// Everything one bench run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Seed the run used.
    pub seed: u64,
    /// Cores on the machine that produced the numbers — perf-guard
    /// refuses to compare thread-scaling rows across differing counts.
    pub host_cores: usize,
    /// Closed-loop sweep, one row per concurrency level.
    pub rows: Vec<ClosedLoopRow>,
    /// The ingest-interference measurement.
    pub interference: InterferenceReport,
}

impl BenchReport {
    /// No closed-loop request failed, and ingest stayed within budget.
    pub fn pass(&self) -> bool {
        self.rows.iter().all(|row| row.errors == 0) && self.interference.within_budget
    }

    /// Renders the `marauder-serve-bench-v1` document. Durations and
    /// ratios carry six decimals and rates one.
    pub fn to_json(&self) -> String {
        let fixed = |x: f64, decimals: usize| Json::Num(format!("{x:.decimals$}"));
        let rows = self.rows.iter().map(|row| {
            let members = [
                ("concurrency", row.concurrency.into()),
                ("requests", row.requests.into()),
                ("errors", row.errors.into()),
                ("elapsed_s", fixed(row.elapsed.as_secs_f64(), 6)),
                ("req_per_s", fixed(row.req_per_s, 1)),
                ("p50_us", row.p50_us.into()),
                ("p99_us", row.p99_us.into()),
            ];
            Json::obj(Layout::Inline, members)
        });
        let i = &self.interference;
        let interference = [
            ("frames", i.frames.into()),
            ("readers", i.readers.into()),
            ("reader_responses", i.reader_responses.into()),
            ("scheduled_s", fixed(i.scheduled.as_secs_f64(), 6)),
            ("base_elapsed_s", fixed(i.base_elapsed.as_secs_f64(), 6)),
            ("loaded_elapsed_s", fixed(i.loaded_elapsed.as_secs_f64(), 6)),
            ("slowdown", fixed(i.slowdown, 6)),
            ("max_slowdown", fixed(i.max_slowdown, 6)),
            ("within_budget", i.within_budget.into()),
        ];
        let doc = Json::obj(
            Layout::Block,
            [
                ("schema", "marauder-serve-bench-v1".into()),
                ("seed", self.seed.into()),
                ("host_cores", self.host_cores.into()),
                ("closed_loop", Json::arr(Layout::Block, rows)),
                (
                    "ingest_interference",
                    Json::obj(Layout::Block, interference),
                ),
            ],
        );
        doc.render()
    }
}

/// Cores on this host, 1 if the query fails.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The deterministic endpoint mix: request `i` of client `client` at
/// `seed` always targets the same endpoint. Weighted toward the cheap
/// steady-state endpoints a live operator actually polls.
pub fn workload_target(seed: u64, client: u64, i: u64, devices: usize) -> String {
    let roll = marauder_par::sub_seed(marauder_par::sub_seed(seed, client), i);
    let mobile = MacAddr::from_index(1 + roll % devices.max(1) as u64);
    match roll % 100 {
        0..=29 => "/healthz".to_string(),
        30..=69 => format!("/track/{mobile}"),
        70..=79 => format!("/track/{mobile}?format=json"),
        80..=89 => "/tiles?bbox=-50,-50,150,150".to_string(),
        90..=94 => "/snapshot".to_string(),
        _ => "/metrics".to_string(),
    }
}

/// The synthetic campaign: `frames` probe responses over `devices`
/// mobiles against a 4-AP grid, every mobile co-observed by two APs
/// per beat. Pure in its arguments.
pub fn campaign_frames(frames: usize, devices: usize) -> Vec<CapturedFrame> {
    let devices = devices.max(1) as u64;
    (0..frames as u64)
        .map(|k| {
            let beat = k / devices;
            let mobile = 1 + k % devices;
            let ap = 100 + (beat + mobile) % 4;
            CapturedFrame {
                time_s: beat as f64 * 5.0,
                card: 0,
                frame: Frame::probe_response(
                    MacAddr::from_index(ap),
                    MacAddr::from_index(mobile),
                    Ssid::new("bench").unwrap_or_else(|_| unreachable!()),
                    Channel::bg(6).unwrap_or_else(|_| unreachable!()),
                ),
            }
        })
        .collect()
}

/// The attacker map the campaign runs against.
pub fn campaign_map() -> MaraudersMap {
    let db: ApDatabase = (0..4)
        .map(|i| ApRecord {
            bssid: MacAddr::from_index(100 + i),
            ssid: None,
            location: Point::new((i % 2) as f64 * 80.0, (i / 2) as f64 * 80.0),
            radius: Some(130.0),
        })
        .collect();
    MaraudersMap::new(db, KnowledgeLevel::Full, AttackConfig::default())
}

/// A minimal blocking HTTP/1.1 client for loopback measurement: sends
/// `GET target` and reads exactly one response off the stream.
pub struct BenchClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl BenchClient {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection cannot be established.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr).map_err(|e| ServeError::io("connect", e))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(10))))
            .map_err(|e| ServeError::io("configure client socket", e))?;
        Ok(BenchClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// One keep-alive request/response round trip; returns the status.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on disconnect or a malformed response.
    pub fn get(&mut self, target: &str) -> Result<u16, ServeError> {
        Ok(self.request(target)?.0)
    }

    /// Like [`get`](Self::get) but returns the response body, failing
    /// on any non-200.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on disconnect, a malformed response, or a
    /// non-200 status.
    pub fn get_bytes(&mut self, target: &str) -> Result<Vec<u8>, ServeError> {
        let (status, body) = self.request(target)?;
        if status != 200 {
            return Err(ServeError::Io {
                context: "request",
                source: std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("{target} answered {status}"),
                ),
            });
        }
        Ok(body)
    }

    /// Like [`get_bytes`](Self::get_bytes) for a text body.
    ///
    /// # Errors
    ///
    /// As [`get_bytes`](Self::get_bytes), or a body that is not UTF-8.
    pub fn get_body(&mut self, target: &str) -> Result<String, ServeError> {
        String::from_utf8(self.get_bytes(target)?).map_err(|e| {
            ServeError::io(
                "decode body",
                std::io::Error::new(ErrorKind::InvalidData, e),
            )
        })
    }

    fn request(&mut self, target: &str) -> Result<(u16, Vec<u8>), ServeError> {
        let request = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| ServeError::io("write request", e))?;
        self.read_response()
    }

    /// Reads one `Content-Length`-framed response already owed to us.
    fn read_response(&mut self) -> Result<(u16, Vec<u8>), ServeError> {
        let bad = |what: &'static str| ServeError::Io {
            context: what,
            source: std::io::Error::new(ErrorKind::InvalidData, "malformed response"),
        };
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head =
                    std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("response head"))?;
                let status: u16 = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("status line"))?;
                let content_length: usize = head
                    .lines()
                    .find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .map(str::trim)
                            .map(String::from)
                    })
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad("content-length"))?;
                let total = head_end + 4 + content_length;
                while self.buf.len() < total {
                    self.fill()?;
                }
                let body = self.buf[head_end + 4..total].to_vec();
                self.buf.drain(..total);
                return Ok((status, body));
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(bad("oversized response head"));
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> Result<(), ServeError> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(ServeError::io(
                "read response",
                std::io::Error::new(ErrorKind::UnexpectedEof, "server closed mid-response"),
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(ServeError::io("read response", e)),
        }
    }
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank,
/// microseconds. Sorts a copy.
fn percentile_us(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Runs one closed-loop level against a live server.
fn closed_loop_level(
    addr: &str,
    config: &LoadgenConfig,
    concurrency: usize,
) -> Result<ClosedLoopRow, ServeError> {
    let started = Instant::now();
    let workers: Vec<_> = (0..concurrency)
        .map(|client| {
            let addr = addr.to_string();
            let config = config.clone();
            std::thread::spawn(move || -> Result<(u64, u64, Vec<u64>), ServeError> {
                let mut conn = BenchClient::connect(&addr)?;
                let mut ok = 0u64;
                let mut errors = 0u64;
                let mut latencies = Vec::with_capacity(config.requests_per_client);
                for i in 0..config.requests_per_client as u64 {
                    let target = workload_target(config.seed, client as u64, i, config.devices);
                    let sent = Instant::now();
                    match conn.get(&target)? {
                        200 => ok += 1,
                        _ => errors += 1,
                    }
                    latencies.push(sent.elapsed().as_micros() as u64);
                }
                Ok((ok, errors, latencies))
            })
        })
        .collect();
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut latencies = Vec::new();
    for worker in workers {
        let (ok, err, lat) = worker
            .join()
            .map_err(|_| ServeError::Bench("closed-loop client panicked".to_string()))??;
        requests += ok;
        errors += err;
        latencies.extend(lat);
    }
    let elapsed = started.elapsed();
    Ok(ClosedLoopRow {
        concurrency,
        requests,
        errors,
        elapsed,
        req_per_s: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
    })
}

/// Paces `frames` through the engine on an absolute-deadline schedule
/// and returns the elapsed wall time. Absolute deadlines mean a late
/// wakeup does not shift the rest of the schedule — the measured
/// elapsed converges to the schedule unless something *blocks* the
/// ingest thread, which is exactly the failure this measures.
fn paced_ingest(
    engine: &mut StreamEngine,
    publisher: &mut TrackerPublisher,
    frames: &[CapturedFrame],
    interval: Duration,
) -> Duration {
    let started = Instant::now();
    for (i, frame) in frames.iter().enumerate() {
        let deadline = interval * i as u32;
        if let Some(wait) = deadline.checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        }
        engine.push_published(frame, publisher);
    }
    started.elapsed()
}

/// Spawns `readers` polling clients that hit cheap endpoints until
/// `stop` flips; returns their join handles (each yields its response
/// count).
fn spawn_readers(
    addr: &str,
    config: &LoadgenConfig,
    stop: Arc<std::sync::atomic::AtomicBool>,
) -> Vec<std::thread::JoinHandle<u64>> {
    (0..config.readers)
        .map(|client| {
            let addr = addr.to_string();
            let config = config.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut responses = 0u64;
                let Ok(mut conn) = BenchClient::connect(&addr) else {
                    return 0;
                };
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let target =
                        workload_target(config.seed ^ 0xBEEF, client as u64, i, config.devices);
                    if conn.get(&target).is_err() {
                        // The server may be shutting down; re-dial once,
                        // give up quietly otherwise (the count shows it).
                        match BenchClient::connect(&addr) {
                            Ok(fresh) => conn = fresh,
                            Err(_) => break,
                        }
                        continue;
                    }
                    responses += 1;
                    i += 1;
                    std::thread::sleep(config.reader_interval);
                }
                responses
            })
        })
        .collect()
}

/// Runs the full measurement: boots a server on a loopback port,
/// pre-ingests a campaign, sweeps the closed loop, then runs the
/// paced-ingest interference pair.
///
/// # Errors
///
/// [`ServeError`] when the server cannot start or a measurement
/// client fails outright (individual non-200s are counted, not fatal).
pub fn run_bench(config: &LoadgenConfig) -> Result<BenchReport, ServeError> {
    let (mut publisher, plane) = TrackerPublisher::new(PublisherConfig::default());
    let mut engine = StreamEngine::new(campaign_map(), StreamConfig::default());

    // Pre-ingest so /track and /tiles serve real content.
    for frame in campaign_frames(2_000, config.devices) {
        engine.push_published(&frame, &mut publisher);
    }

    let mut server = start("127.0.0.1:0", Arc::clone(&plane), ServeConfig::default())?;
    let addr = server.addr().to_string();

    let mut rows = Vec::new();
    for &concurrency in &config.concurrency_levels {
        rows.push(closed_loop_level(&addr, config, concurrency)?);
    }

    // Interference pair. The loaded run continues the same engine at
    // later timestamps, so both runs do equivalent per-frame work.
    let base_at = engine.watermark().unwrap_or(0.0) + 10.0;
    let shift = |frames: Vec<CapturedFrame>, offset: f64| -> Vec<CapturedFrame> {
        frames
            .into_iter()
            .map(|mut f| {
                f.time_s += offset;
                f
            })
            .collect()
    };
    let scheduled = config.paced_interval * config.frames as u32;
    let base_frames = shift(campaign_frames(config.frames, config.devices), base_at);
    let base_elapsed = paced_ingest(
        &mut engine,
        &mut publisher,
        &base_frames,
        config.paced_interval,
    );

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers = spawn_readers(&addr, config, Arc::clone(&stop));
    let loaded_at = engine.watermark().unwrap_or(0.0) + 10.0;
    let loaded_frames = shift(campaign_frames(config.frames, config.devices), loaded_at);
    let loaded_elapsed = paced_ingest(
        &mut engine,
        &mut publisher,
        &loaded_frames,
        config.paced_interval,
    );
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut reader_responses = 0u64;
    for reader in readers {
        reader_responses += reader.join().unwrap_or(0);
    }
    server.shutdown();

    let slowdown = (loaded_elapsed.as_secs_f64() / base_elapsed.as_secs_f64().max(1e-9)) - 1.0;
    let slowdown = slowdown.max(0.0);
    Ok(BenchReport {
        seed: config.seed,
        host_cores: host_cores(),
        rows,
        interference: InterferenceReport {
            frames: config.frames,
            readers: config.readers,
            reader_responses,
            scheduled,
            base_elapsed,
            loaded_elapsed,
            slowdown,
            max_slowdown: config.max_slowdown,
            within_budget: slowdown <= config.max_slowdown,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_mix_is_deterministic_and_covers_endpoints() {
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..4 {
            for i in 0..200 {
                let a = workload_target(7, client, i, 8);
                assert_eq!(a, workload_target(7, client, i, 8));
                let class = a.split(['/', '?']).nth(1).unwrap_or("").to_string();
                seen.insert(class);
            }
        }
        for class in ["healthz", "track", "tiles", "snapshot", "metrics"] {
            assert!(seen.contains(class), "mix never hits /{class}");
        }
    }

    #[test]
    fn campaign_is_pure_and_time_ordered() {
        let a = campaign_frames(500, 8);
        assert_eq!(a.len(), 500);
        assert_eq!(a, campaign_frames(500, 8));
        assert!(a.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }

    #[test]
    fn percentiles_are_sane() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&samples, 0.50), 50);
        assert_eq!(percentile_us(&samples, 0.99), 99);
        assert_eq!(percentile_us(&[], 0.99), 0);
    }

    #[test]
    fn a_bench_passes_only_without_errors_and_within_budget() {
        let row = |errors| ClosedLoopRow {
            concurrency: 8,
            requests: 100,
            errors,
            elapsed: Duration::from_secs(1),
            req_per_s: 100.0,
            p50_us: 10,
            p99_us: 20,
        };
        let report = |errors: [u64; 2], slowdown: f64| BenchReport {
            seed: 42,
            host_cores: 2,
            rows: errors.into_iter().map(row).collect(),
            interference: InterferenceReport {
                frames: 2000,
                readers: 64,
                reader_responses: 500,
                scheduled: Duration::from_secs(1),
                base_elapsed: Duration::from_secs(1),
                loaded_elapsed: Duration::from_secs(1),
                slowdown,
                max_slowdown: 0.30,
                within_budget: slowdown <= 0.30,
            },
        };
        assert!(report([0, 0], 0.0005).pass());
        assert!(report([0, 0], 0.30).pass(), "the budget is inclusive");
        assert!(
            !report([0, 1], 0.0).pass(),
            "an error response fails the run"
        );
        assert!(!report([0, 0], 0.31).pass(), "over budget fails the run");
    }

    #[test]
    fn bench_report_renders_its_golden_text() {
        let report = BenchReport {
            seed: 42,
            host_cores: 2,
            rows: vec![
                ClosedLoopRow {
                    concurrency: 1,
                    requests: 120,
                    errors: 0,
                    elapsed: Duration::from_micros(61_234),
                    req_per_s: 1959.695,
                    p50_us: 410,
                    p99_us: 1_873,
                },
                ClosedLoopRow {
                    concurrency: 64,
                    requests: 7_680,
                    errors: 2,
                    elapsed: Duration::from_nanos(1_500_000_001),
                    req_per_s: 5120.0,
                    p50_us: 9_001,
                    p99_us: 48_250,
                },
            ],
            interference: InterferenceReport {
                frames: 2000,
                readers: 64,
                reader_responses: 6_321,
                scheduled: Duration::from_millis(1_000),
                base_elapsed: Duration::from_micros(1_000_412),
                loaded_elapsed: Duration::from_micros(1_012_345),
                slowdown: 0.011_928_087,
                max_slowdown: 0.05,
                within_budget: true,
            },
        };
        assert_eq!(
            report.to_json(),
            include_str!("../../obs/tests/golden/serve_bench.json")
        );
    }
}
