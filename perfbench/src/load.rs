//! The closed-loop client side: job specs, the in-process server, the
//! two request shapes (cold job; cache hit, used by the traced run) and
//! the correctness gate.

use std::io;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xplain_core::pipeline::PipelineConfig;
use xplain_runtime::{
    derive_seed, DomainRegistry, FinishReason, JobSpec, SessionBudgets, SessionEvent,
    SolverCounters, WatchLine,
};
use xplain_serve::{Client, Server, ServerConfig, ServerHandle};
use xplain_tune::REPLAY_TOL;

/// splitmix64: spreads a workload seed and an index into a job seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th job of a workload: the domain's default pipeline with
/// one explainer thread (the default, 0, spawns one thread per core and
/// would compete with the client), at most `max_subspaces` findings,
/// and a seed drawn from the workload seed. Distinct indices give
/// distinct specs.
pub fn spec(domain: &str, max_subspaces: usize, workload_seed: u64, index: u64) -> JobSpec {
    let mut config = PipelineConfig::default();
    config.explainer.threads = 1;
    config.max_subspaces = max_subspaces;
    JobSpec {
        domain: domain.to_string(),
        config,
        // The JSON layer carries integers exactly up to 2^53.
        seed: splitmix64(workload_seed ^ splitmix64(index)) & ((1 << 53) - 1),
        budgets: SessionBudgets::unlimited(),
    }
}

/// The config a served spec runs and is stored under: the server
/// submits every spec at index 0, so its seed is index 0's derived seed.
pub fn served_config(spec: &JobSpec) -> PipelineConfig {
    let mut config = spec.config.clone();
    config.seed = derive_seed(spec.seed, 0);
    config
}

pub fn spec_json(spec: &JobSpec) -> String {
    serde_json::to_string(spec).expect("JobSpec serializes")
}

/// A server running on its own thread, configured as shipped: store and
/// journal on, open mode, one queue worker.
pub struct Running {
    handle: ServerHandle,
    thread: JoinHandle<io::Result<()>>,
    pub client: Client,
}

impl Running {
    /// Bind a server over `store_dir` and wait until it answers.
    pub fn start(store_dir: &Path) -> io::Result<Running> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_workers: 1,
            store_dir: Some(store_dir.to_path_buf()),
            ..ServerConfig::default()
        })?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run(&DomainRegistry::builtin()));
        let running = Running {
            client: Client::new(handle.addr()),
            handle,
            thread,
        };
        // The listener is bound, so this request waits in the backlog
        // until the journal is open and the accept loop runs.
        match running.client.get("/v1/domains") {
            Ok(ready) if ready.status == 200 => Ok(running),
            answer => {
                let _ = running.stop();
                Err(io::Error::other(format!("server not ready: {answer:?}")))
            }
        }
    }

    /// Shut down and wait for every server thread to end.
    pub fn stop(self) -> io::Result<()> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Pull `"<key>":"…"` out of a JSON body.
fn string_field<'b>(body: &'b str, key: &str) -> Option<&'b str> {
    let pattern = format!("\"{key}\":\"");
    let start = body.find(&pattern)? + pattern.len();
    body[start..].split('"').next()
}

/// Bytes of an NDJSON watch line and its newline, with the `finished`
/// result's `wall_time_ms` counted as one digit: the only field of the
/// stream that is a clock reading, so the count is exact per spec.
pub fn stream_len(line: &str) -> u64 {
    const KEY: &str = "\"wall_time_ms\":";
    let digits = line.find(KEY).map_or(0, |at| {
        let rest = &line[at + KEY.len()..];
        rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len()
    });
    (line.len() + 1 - digits.saturating_sub(1)) as u64
}

/// The event kind of an NDJSON watch line (`kind` is its third field).
fn line_kind(line: &str) -> Option<&str> {
    string_field(line.get(..160).unwrap_or(line), "kind")
}

/// One cold job seen from the client. The `*_cpu_ms` fields are CPU
/// time of the whole process, server and client ([`cpu_ms`]).
pub struct ColdJob {
    /// POST round trip.
    pub submit_ms: f64,
    /// POST sent → `finished` line.
    pub job_ms: f64,
    /// POST sent → first `explanation_ready` line.
    pub first_finding_cpu_ms: Option<f64>,
    /// POST sent → the status reads `done`.
    pub job_cpu_ms: f64,
    /// NDJSON bytes streamed, by [`stream_len`].
    pub stream_bytes: u64,
    /// The `finished` line.
    pub finished: String,
}

/// Submit a fresh spec, stream its events to the `finished` line, and
/// wait until the job reads `done`.
pub fn cold_job(client: &Client, body: &str) -> Result<ColdJob, String> {
    let t0 = Instant::now();
    let cpu0 = cpu_ms();
    let resp = client.post("/v1/jobs", body).map_err(|e| e.to_string())?;
    let submit_ms = ms(t0);
    if resp.status != 202 || string_field(&resp.body, "disposition") != Some("enqueued") {
        return Err(format!("submit answered {}: {}", resp.status, resp.body));
    }
    let id = string_field(&resp.body, "id").ok_or("submit receipt has no id")?;
    let (status, mut events) = client
        .stream(&format!("/v1/jobs/{id}/events"))
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("events answered {status}"));
    }
    let mut first_finding_cpu_ms = None;
    let mut stream_bytes = 0;
    while let Some(line) = events.next_line().map_err(|e| e.to_string())? {
        stream_bytes += stream_len(&line);
        match line_kind(&line) {
            Some("explanation_ready") if first_finding_cpu_ms.is_none() => {
                first_finding_cpu_ms = Some(cpu_ms() - cpu0);
            }
            Some("finished") => {
                let job_ms = ms(t0);
                // The stream ends after `finished`; read its terminator.
                while events.next_line().map_err(|e| e.to_string())?.is_some() {}
                wait_done(client, id)?;
                return Ok(ColdJob {
                    submit_ms,
                    job_ms,
                    first_finding_cpu_ms,
                    job_cpu_ms: cpu_ms() - cpu0,
                    stream_bytes,
                    finished: line,
                });
            }
            _ => {}
        }
    }
    Err(format!("stream of job {id} ended before `finished`"))
}

/// Poll `GET /v1/jobs/{id}` until the job reads `done`. The `finished`
/// line goes out before the worker publishes the result, writes the
/// regression bank and journals `done`; once the status reads `done`,
/// that work is over and the server is idle again. Each poll costs CPU
/// in the client and the server, so polls are 2 ms apart: a few per job.
fn wait_done(client: &Client, id: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = client
            .get(&format!("/v1/jobs/{id}"))
            .map_err(|e| e.to_string())?;
        if status.status != 200 {
            return Err(format!("status answered {}", status.status));
        }
        if string_field(&status.body, "status") == Some("done") {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("job {id} never read `done`"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// What the correctness gate needs from a finished cold job.
pub struct Answer {
    pub solver: SolverCounters,
    pub findings: usize,
    /// `(witness input, recorded gap)` per finding; `None` when a finding
    /// carries no witness.
    pub witnesses: Vec<Option<(Vec<f64>, f64)>>,
}

/// Parse a `finished` watch line. A non-natural end is an error: every
/// job of the workload runs to its own stopping rule.
pub fn answer_of(finished: &str) -> Result<Answer, String> {
    let line: WatchLine = serde_json::from_str(finished).map_err(|e| format!("{e:?}"))?;
    let SessionEvent::Finished { reason, result } = line.event else {
        return Err(format!("expected a finished event, got {}", line.kind));
    };
    if matches!(
        reason,
        FinishReason::Cancelled
            | FinishReason::DeadlineExceeded
            | FinishReason::AnalyzerBudgetExhausted
            | FinishReason::SolverBudgetExhausted
    ) {
        return Err(format!("job stopped early: {reason:?}"));
    }
    Ok(Answer {
        solver: line.solver.unwrap_or_default(),
        findings: result.findings.len(),
        witnesses: result
            .findings
            .iter()
            .map(|f| f.witness.as_ref().map(|w| (w.input.clone(), w.gap)))
            .collect(),
    })
}

/// The output-correctness gate for a cold job: at least one finding, and
/// each finding's witness re-evaluated by a fresh oracle reproduces its
/// recorded gap: `recomputed + REPLAY_TOL >= recorded > 0`.
pub fn check_answer(
    registry: &DomainRegistry,
    domain: &str,
    answer: &Answer,
) -> Result<(), String> {
    if answer.findings == 0 {
        return Err("job has no findings".into());
    }
    let domain = registry.get(domain).ok_or("unknown domain")?;
    for (i, witness) in answer.witnesses.iter().enumerate() {
        let Some((input, recorded)) = witness else {
            return Err(format!("finding {i} has no witness"));
        };
        let recomputed = domain.oracle().gap(input);
        if !(recomputed + REPLAY_TOL >= *recorded && *recorded > 0.0) {
            return Err(format!(
                "finding {i}: recorded gap {recorded}, recomputed {recomputed}"
            ));
        }
    }
    Ok(())
}

/// Re-request a stored spec (answered `200 cache_hit`) and fetch its
/// full result with `GET /v1/jobs/{id}`; the result must be byte-for-byte
/// `expected` (the stored result, serialized). Returns the POST round
/// trip in ms.
pub fn hit(client: &Client, body: &str, expected: &str) -> Result<f64, String> {
    let t0 = Instant::now();
    let resp = client.post("/v1/jobs", body).map_err(|e| e.to_string())?;
    let submit_ms = ms(t0);
    if resp.status != 200 || string_field(&resp.body, "disposition") != Some("cache_hit") {
        return Err(format!("submit answered {}: {}", resp.status, resp.body));
    }
    let id = string_field(&resp.body, "id").ok_or("submit receipt has no id")?;
    let status = client
        .get(&format!("/v1/jobs/{id}"))
        .map_err(|e| e.to_string())?;
    if status.status != 200 {
        return Err(format!("status answered {}", status.status));
    }
    if !result_matches(&status.body, expected) {
        return Err(format!("job {id}: result differs from the stored result"));
    }
    Ok(submit_ms)
}

/// Whether the outcome's `result` in a job-status body is `expected`.
fn result_matches(body: &str, expected: &str) -> bool {
    const KEY: &str = "\"result\":";
    let Some(outcome) = body.find("\"outcome\":") else {
        return false;
    };
    let Some(at) = body[outcome..].find(KEY) else {
        return false;
    };
    let start = outcome + at + KEY.len();
    body.get(start..start + expected.len()) == Some(expected)
        && body[start + expected.len()..].starts_with(',')
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time used so far by every thread of this process, server and
/// client alike, in ms. Unlike wall-clock time it leaves out the time
/// the hypervisor gives the vCPUs to other guests (steal), which on a
/// shared host can take from a tenth to half of them for minutes.
pub fn cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (64-bit Linux layout)
    // and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1000.0
}

/// A fresh, empty directory `name` under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_len_counts_the_clock_field_as_one_digit() {
        let finished = r#"{"kind":"finished","event":{"wall_time_ms":1234,"x":1}}"#;
        let zero = r#"{"kind":"finished","event":{"wall_time_ms":0,"x":1}}"#;
        assert_eq!(stream_len(finished), stream_len(zero));
        assert_eq!(stream_len(zero), zero.len() as u64 + 1);
        assert_eq!(stream_len("{}"), 3);
    }

    #[test]
    fn line_kind_reads_the_kind_field() {
        let line = r#"{"job":0,"domain":"ff","kind":"explanation_ready","solver":null}"#;
        assert_eq!(line_kind(line), Some("explanation_ready"));
        assert_eq!(line_kind("{}"), None);
    }

    #[test]
    fn result_matches_only_the_exact_outcome_result() {
        let body = r#"{"id":"a","outcome":{"index":0,"result":{"findings":[1]},"error":null}}"#;
        assert!(result_matches(body, r#"{"findings":[1]}"#));
        assert!(!result_matches(body, r#"{"findings":[2]}"#));
        assert!(!result_matches(body, r#"{"findings":["#));
        assert!(!result_matches(
            r#"{"result":{"findings":[1]},"x":0}"#,
            r#"{"findings":[1]}"#
        ));
    }

    #[test]
    fn cpu_ms_counts_work_not_sleep() {
        let t0 = cpu_ms();
        std::thread::sleep(Duration::from_millis(100));
        let slept = cpu_ms() - t0;
        let t1 = cpu_ms();
        let mut x = 1u64;
        while cpu_ms() - t1 < 20.0 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        assert!(slept < 20.0, "sleeping used {slept} ms of CPU");
        assert!(cpu_ms() - t1 >= 20.0);
    }

    #[test]
    fn specs_are_distinct_and_seeded() {
        let a = spec("sched", 8, 7, 0);
        assert_eq!(spec_json(&a), spec_json(&spec("sched", 8, 7, 0)));
        assert_ne!(a.seed, spec("sched", 8, 7, 1).seed);
        assert_ne!(a.seed, spec("sched", 8, 8, 0).seed);
        assert_eq!(a.config.explainer.threads, 1);
        assert_eq!(spec("dp", 4, 7, 0).config.max_subspaces, 4);
    }
}
