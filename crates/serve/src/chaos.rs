//! The serving-layer chaos matrix: every client fault class from
//! `marauder-fault`, played against a live server, with the outcome of
//! every cell accounted for.
//!
//! The contract under test (`never panic, always a typed outcome`) has
//! three observable halves, and the matrix checks all of them:
//!
//! 1. **Wire** — each cell's [`Expectation`] is honoured: the exact
//!    4xx for malformed input, a quiet close for deserters.
//! 2. **Books** — server-side accounting is complete: the per-kind
//!    reject/disconnect counters (read back over `/metrics`) moved by
//!    exactly the number of cells of that kind. Nothing is silently
//!    swallowed; 100% of misbehaviour is classified.
//! 3. **Pulse** — the server still answers `/healthz` after the whole
//!    matrix, i.e. no worker death was load-bearing.
//!
//! Schedules come precomputed from [`client_schedule`] (pure in
//! `(kind, seed)`), so a failing cell names the exact bytes that broke
//! the server.

use crate::loadgen::BenchClient;
use crate::server::{start, ServeConfig};
use crate::state::{PublisherConfig, TrackerPublisher};
use crate::ServeError;
use marauder_fault::{client_schedule, ClientFaultKind, ClientSchedule, Expectation};
use marauder_obs::json::{self, Json, Layout};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chaos-matrix knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Base seed; cell `(kind, i)` uses `sub_seed(seed, i)`.
    pub seed: u64,
    /// Cells per fault kind.
    pub repeats_per_kind: usize,
    /// Server head deadline for the run — short, so slow-loris cells
    /// resolve in test time rather than operator time.
    pub head_timeout: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 42,
            repeats_per_kind: 8,
            head_timeout: Duration::from_millis(300),
        }
    }
}

/// What one cell observed on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellVerdict {
    /// The server honoured the schedule's expectation.
    Honoured,
    /// A response arrived with the wrong status.
    WrongStatus {
        /// Status the contract required.
        expected: u16,
        /// Status the server sent.
        got: u16,
    },
    /// A status was owed but the connection ended without one.
    NoResponse,
    /// The harness itself failed to run the cell (infrastructure, not
    /// a server verdict).
    Infra(String),
}

/// One executed cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosCell {
    /// Fault class.
    pub kind: ClientFaultKind,
    /// Seed index within the kind.
    pub index: usize,
    /// What happened.
    pub verdict: CellVerdict,
}

/// Per-kind server-side accounting: cells run vs. counter movement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindAccounting {
    /// Fault class.
    pub kind: ClientFaultKind,
    /// Cells the matrix ran.
    pub cells: u64,
    /// How far the kind's server counter moved across the run.
    pub counted: u64,
}

/// Everything one matrix run established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Every cell, in execution order.
    pub cells: Vec<ChaosCell>,
    /// Per-kind books.
    pub accounting: Vec<KindAccounting>,
    /// Whether `/healthz` answered 200 after the matrix.
    pub healthz_after: bool,
}

impl ChaosReport {
    /// Cells whose wire contract was not honoured.
    pub fn violations(&self) -> impl Iterator<Item = &ChaosCell> {
        self.cells
            .iter()
            .filter(|c| c.verdict != CellVerdict::Honoured)
    }

    /// The pass criterion: every contract honoured, every misbehaviour
    /// counted, and the server alive at the end.
    pub fn pass(&self) -> bool {
        self.violations().count() == 0
            && self.accounting.iter().all(|a| a.cells == a.counted)
            && self.healthz_after
    }

    /// Renders the `marauder-serve-chaos-v1` document.
    pub fn to_json(&self) -> String {
        let accounting = self.accounting.iter().map(|a| {
            let members = [
                ("kind", a.kind.key().into()),
                ("cells", a.cells.into()),
                ("counted", a.counted.into()),
            ];
            Json::obj(Layout::Inline, members)
        });
        let cells = self.cells.iter().map(|c| {
            let verdict = match &c.verdict {
                CellVerdict::Honoured => "honoured".to_string(),
                CellVerdict::WrongStatus { expected, got } => {
                    format!("wrong_status expected {expected} got {got}")
                }
                CellVerdict::NoResponse => "no_response".to_string(),
                CellVerdict::Infra(e) => format!("infra: {e}"),
            };
            let members = [
                ("kind", c.kind.key().into()),
                ("index", c.index.into()),
                ("verdict", Json::Str(verdict)),
            ];
            Json::obj(Layout::Inline, members)
        });
        let doc = Json::obj(
            Layout::Block,
            [
                ("schema", "marauder-serve-chaos-v1".into()),
                ("pass", self.pass().into()),
                ("healthz_after", self.healthz_after.into()),
                ("accounting", Json::arr(Layout::Block, accounting)),
                ("cells", Json::arr(Layout::Block, cells)),
            ],
        );
        doc.render()
    }
}

/// The server counter each kind's misbehaviour must land in.
fn counter_for(kind: ClientFaultKind) -> &'static str {
    match kind {
        ClientFaultKind::SlowLoris => "serve.reject.head_timeout",
        ClientFaultKind::MidRequestDisconnect => "serve.conns.mid_request_disconnects",
        ClientFaultKind::Garbage => "serve.reject.bad_request_line",
        ClientFaultKind::Oversized => "serve.reject.head_too_large",
    }
}

/// Reads `counters.<name>` out of an obs JSON export (0 if absent or
/// unreadable).
pub fn counter_in(metrics_json: &str, name: &str) -> u64 {
    json::parse(metrics_json)
        .ok()
        .and_then(|doc| doc.get("counters")?.get(name)?.as_u64())
        .unwrap_or(0)
}

/// Plays one schedule against the server and reports what came back.
///
/// Between chunks the pause doubles as a response probe (a read with
/// `pause` as its timeout): eager rejections — the server answering
/// *before* the client finishes misbehaving — are captured instead of
/// racing the server's close.
fn run_cell(addr: &str, schedule: &ClientSchedule, response_deadline: Duration) -> CellVerdict {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return CellVerdict::Infra(format!("connect: {e}")),
    };
    let mut stream = stream;
    let probe_timeout = schedule.pause.max(Duration::from_millis(5));
    if let Err(e) = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(probe_timeout)))
    {
        return CellVerdict::Infra(format!("socket setup: {e}"));
    }

    let mut response: Vec<u8> = Vec::new();
    let mut peer_done = false;
    for (i, chunk) in schedule.chunks.iter().enumerate() {
        if stream.write_all(chunk).is_err() {
            // The server already closed on us — whatever it sent first
            // is (or is not) in flight; fall through to the read.
            break;
        }
        if i + 1 < schedule.chunks.len() {
            // Pause-as-probe: wait out the schedule's gap on the read
            // side and keep anything that arrives early.
            let mut buf = [0u8; 4096];
            match stream.read(&mut buf) {
                Ok(0) => {
                    peer_done = true;
                    break;
                }
                Ok(n) => {
                    response.extend_from_slice(&buf[..n]);
                    if response.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => {
                    peer_done = true;
                    break;
                }
            }
        }
    }

    match schedule.expect {
        Expectation::Dropped => {
            // Our half of the contract: leave. (The server's half —
            // counting the desertion — is checked via /metrics.)
            drop(stream);
            CellVerdict::Honoured
        }
        Expectation::Status(expected) => {
            let deadline = Instant::now() + response_deadline;
            while !response.windows(4).any(|w| w == b"\r\n\r\n") {
                if peer_done || Instant::now() > deadline {
                    return CellVerdict::NoResponse;
                }
                let mut buf = [0u8; 4096];
                match stream.read(&mut buf) {
                    Ok(0) => peer_done = true,
                    Ok(n) => response.extend_from_slice(&buf[..n]),
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => peer_done = true,
                }
            }
            if !response.windows(4).any(|w| w == b"\r\n\r\n") {
                return CellVerdict::NoResponse;
            }
            let got = std::str::from_utf8(&response)
                .ok()
                .and_then(|head| head.split(' ').nth(1))
                .and_then(|s| s.parse::<u16>().ok());
            match got {
                Some(got) if got == expected => CellVerdict::Honoured,
                Some(got) => CellVerdict::WrongStatus { expected, got },
                None => CellVerdict::NoResponse,
            }
        }
    }
}

/// Boots a dedicated server and runs the full matrix against it.
///
/// # Errors
///
/// [`ServeError`] when the server cannot start or `/metrics` cannot be
/// read back — cell-level failures are verdicts, not errors.
pub fn run_chaos(config: &ChaosConfig) -> Result<ChaosReport, ServeError> {
    let (_publisher, plane) = TrackerPublisher::new(PublisherConfig::default());
    let mut server = start(
        "127.0.0.1:0",
        Arc::clone(&plane),
        ServeConfig {
            head_timeout: config.head_timeout,
            ..ServeConfig::default()
        },
    )?;
    let addr = server.addr().to_string();
    let fetch_metrics = |addr: &str| -> Result<String, ServeError> {
        let mut conn = BenchClient::connect(addr)?;
        conn.get_body("/metrics")
    };
    let before = fetch_metrics(&addr)?;

    // Generously past the head deadline: the question is *whether* the
    // 408 arrives, the deadline test itself lives server-side.
    let response_deadline = config.head_timeout * 4 + Duration::from_secs(1);
    let mut cells = Vec::new();
    for kind in ClientFaultKind::ALL {
        for index in 0..config.repeats_per_kind {
            let seed = marauder_par::sub_seed(config.seed, index as u64);
            let schedule = client_schedule(kind, seed);
            let verdict = run_cell(&addr, &schedule, response_deadline);
            cells.push(ChaosCell {
                kind,
                index,
                verdict,
            });
        }
    }

    // Mid-request-disconnect bookkeeping is asynchronous to the cell
    // (the server notices the hangup on its next poll); give every
    // straggler one poll interval to land before reading the books.
    std::thread::sleep(Duration::from_millis(100));
    let after = fetch_metrics(&addr)?;
    let accounting = ClientFaultKind::ALL
        .iter()
        .map(|&kind| {
            let counter = counter_for(kind);
            KindAccounting {
                kind,
                cells: config.repeats_per_kind as u64,
                counted: counter_in(&after, counter).saturating_sub(counter_in(&before, counter)),
            }
        })
        .collect();

    let healthz_after = BenchClient::connect(&addr)
        .and_then(|mut c| c.get("/healthz"))
        .map(|status| status == 200)
        .unwrap_or(false);
    server.shutdown();

    Ok(ChaosReport {
        cells,
        accounting,
        healthz_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_parsing_reads_obs_exports() {
        let body = "{\n  \"counters\": {\n    \"serve.reject.bad_request_line\": 8,\n    \"x\": 2\n  }\n}\n";
        assert_eq!(counter_in(body, "serve.reject.bad_request_line"), 8);
        assert_eq!(counter_in(body, "x"), 2);
        assert_eq!(counter_in(body, "absent"), 0);
    }

    #[test]
    fn infra_verdicts_keep_their_text_and_stay_valid_json() {
        let report = ChaosReport {
            cells: vec![ChaosCell {
                kind: ClientFaultKind::Garbage,
                index: 0,
                verdict: CellVerdict::Infra("connect: \"x\"\t\\q".into()),
            }],
            accounting: Vec::new(),
            healthz_after: true,
        };
        let doc = json::parse(&report.to_json()).expect("the report is valid JSON");
        let verdict = doc
            .get("cells")
            .and_then(|cells| cells.as_arr()?.first()?.get("verdict")?.as_str());
        assert_eq!(verdict, Some("infra: connect: \"x\"\t\\q"));
    }

    #[test]
    fn chaos_matrix_passes_against_a_live_server() {
        let report = run_chaos(&ChaosConfig {
            seed: 7,
            repeats_per_kind: 2,
            head_timeout: Duration::from_millis(200),
        })
        .expect("chaos harness ran");
        let violations: Vec<_> = report.violations().collect();
        assert!(
            report.pass(),
            "chaos contract violated: {violations:?} accounting {:?} healthz {}",
            report.accounting,
            report.healthz_after
        );
    }

    #[test]
    fn chaos_report_renders_its_golden_text() {
        let cell = |kind, index, verdict| ChaosCell {
            kind,
            index,
            verdict,
        };
        let report = ChaosReport {
            cells: vec![
                cell(ClientFaultKind::SlowLoris, 0, CellVerdict::Honoured),
                cell(
                    ClientFaultKind::Garbage,
                    1,
                    CellVerdict::WrongStatus {
                        expected: 400,
                        got: 200,
                    },
                ),
                cell(ClientFaultKind::Oversized, 0, CellVerdict::NoResponse),
                cell(
                    ClientFaultKind::MidRequestDisconnect,
                    3,
                    CellVerdict::Infra("connect: Connection refused (os error 111)".into()),
                ),
            ],
            accounting: vec![
                KindAccounting {
                    kind: ClientFaultKind::SlowLoris,
                    cells: 8,
                    counted: 8,
                },
                KindAccounting {
                    kind: ClientFaultKind::Garbage,
                    cells: 8,
                    counted: 7,
                },
            ],
            healthz_after: false,
        };
        assert_eq!(
            report.to_json(),
            include_str!("../../obs/tests/golden/serve_chaos.json")
        );
    }
}
