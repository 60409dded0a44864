//! perfbench: the XPlain service benchmark.
//!
//! ```text
//! perfbench --workload <dp_cold|sched_cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one client runs a closed loop against an in-process
//! server for `--seconds` and the end-to-end metrics are reported. With
//! `--trace 1` a fixed set of the workload's jobs goes through the
//! server and then through a traced replica of the executor loop, and
//! the per-layer metrics are reported. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! README.md explains the workloads and what each metric should move.

mod load;
mod replica;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xplain_core::pipeline::PipelineResult;
use xplain_runtime::{DomainRegistry, JobJournal, JobSpec, RegressionBank, ResultStore};

use load::{ms, Running};
use replica::{Counted, Counts, Times, PHASES};
use stats::{label, median, percentile, tail_permille};

/// A closed loop of fresh specs of one domain, each streamed to its
/// `finished` line.
#[derive(Clone, Copy)]
struct Workload {
    name: &'static str,
    domain: &'static str,
    /// Findings after which a job stops (`PipelineConfig::max_subspaces`).
    max_subspaces: usize,
    /// Jobs put through the traced run.
    trace_jobs: usize,
    /// Jobs after which `peak_rss_mb` is read. The server keeps the
    /// event logs of its last 1024 jobs, so memory grows with jobs done;
    /// reading it after a fixed number keeps a faster program from
    /// reading as a bigger one.
    rss_after: usize,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "dp_cold",
        domain: "dp",
        max_subspaces: 3,
        trace_jobs: 8,
        rss_after: 24,
    },
    Workload {
        name: "sched_cold",
        domain: "sched",
        max_subspaces: 8,
        trace_jobs: 32,
        rss_after: 96,
    },
];

/// Timed job time between two set-up samples. The host's speed drifts
/// in episodes of seconds to minutes, so set-ups are sampled across the
/// whole run, not in one burst at its start.
const SETUP_EVERY: Duration = Duration::from_millis(250);

/// Set-ups per sample, back to back; the sample is the fastest. A
/// set-up lasts about 1 ms, mostly thread spawns and an fsync, so a
/// single one often catches a neighbour's burst of I/O or scheduling.
const SETUP_TRIES: usize = 3;

/// Set-up samples a run takes at least; `setup_s` is their median.
const MIN_SETUPS: usize = 51;

/// The percentile, in permille, that the end-to-end job metrics report.
/// The host runs a job in one of two modes, switching every few seconds:
/// at full speed, or about 1.5 times slower while another guest shares
/// the core. How long it spends in each changes from run to run, and for
/// minutes at a time there is no fast mode at all, which moves the median
/// and the lower percentiles. The 90th lies in the slow mode, which every
/// run measured had. Each workload's jobs are sized so that a run holds
/// at least 10 samples beyond it.
const REPORTED: u32 = 900;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let name = get("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload '{name}'"))?;
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} takes a whole number"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1) as f64,
        trace,
    })
}

/// One run's verdict and metrics, printed as the last line.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// A program fault that is not a failed operation (nondeterminism).
    fault: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        // `+ 0.0` turns the empty sum's -0 into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        println!("FAILED: {what}");
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && !self.fault && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dp_cold|sched_cold> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let run_dir = work.join(format!("run-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&run_dir)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            if args.trace {
                traced(&args, &run_dir, &work)
            } else {
                end_to_end(&args, &run_dir)
            }
        });
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok(report) => println!("{}", report.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The spec of the `index`-th job of a workload.
fn job(args: &Args, index: usize) -> JobSpec {
    let w = args.workload;
    load::spec(w.domain, w.max_subspaces, args.seed, index as u64)
}

fn result_json(result: &PipelineResult) -> String {
    serde_json::to_string(result).expect("results serialize")
}

/// Cache-hit requests per stored answer in a traced run, against one
/// fresh server: the first answers from disk, the rest from memory.
const TOUCHES: usize = 3;

/// Each stored index [`TOUCHES`] times, in an order drawn from `seed`.
fn hit_order(size: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..TOUCHES * size).map(|i| i % size).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, ((state >> 33) % (i as u64 + 1)) as usize);
    }
    order
}

/// One set-up: bind a server over a fresh store until it answers.
/// Returns its CPU time and its wall-clock time, in seconds, and the
/// server, still running; stopping it is not timed.
fn set_up(run_dir: &Path, name: &str) -> Result<(Span, Running), String> {
    let store_dir = load::fresh_dir(run_dir, name).map_err(|e| e.to_string())?;
    // Commit the file-system metadata the client left pending (this
    // directory, the last job's files) so that the server's own fsyncs
    // do not pay for it inside the timer.
    std::fs::File::open(&store_dir)
        .and_then(|dir| dir.sync_all())
        .map_err(|e| e.to_string())?;
    let (t0, cpu0) = (Instant::now(), load::cpu_ms());
    let server = Running::start(&store_dir).map_err(|e| e.to_string())?;
    let span = Span {
        cpu: (load::cpu_ms() - cpu0) / 1000.0,
        wall: t0.elapsed().as_secs_f64(),
    };
    Ok((span, server))
}

/// CPU and wall-clock time of one span, in the same unit.
#[derive(Clone, Copy)]
struct Span {
    cpu: f64,
    wall: f64,
}

impl Span {
    const MAX: Span = Span {
        cpu: f64::INFINITY,
        wall: f64::INFINITY,
    };

    /// The smaller of each clock.
    fn min(self, other: Span) -> Span {
        Span {
            cpu: self.cpu.min(other.cpu),
            wall: self.wall.min(other.wall),
        }
    }
}

/// The fastest of `tries` set-ups of a spare server, each stopped after
/// it answers.
fn spare_set_ups(run_dir: &Path, tries: usize) -> Result<Span, String> {
    let mut fastest = Span::MAX;
    for _ in 0..tries {
        let (span, server) = set_up(run_dir, "spare")?;
        server.stop().map_err(|e| e.to_string())?;
        fastest = fastest.min(span);
    }
    Ok(fastest)
}

fn end_to_end(args: &Args, run_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let registry = DomainRegistry::builtin();
    let w = args.workload;

    // The serving server's set-up is one try of the first sample; more
    // samples are taken between jobs, outside the timed loop.
    let (first, server) = set_up(run_dir, "store")?;
    let mut setups = vec![first.min(spare_set_ups(run_dir, SETUP_TRIES - 1)?)];

    let budget = Duration::from_secs_f64(args.seconds);
    let mut job_cpu_ms = Vec::new();
    let mut first_finding_cpu_ms = Vec::new();
    let mut job_ms = Vec::new();
    let mut timed = Duration::ZERO;
    let mut next_setup = SETUP_EVERY;
    let mut rss = None;
    let mut answers = Vec::new();
    let mut index = 0;
    while timed < budget {
        let spec = job(args, index);
        index += 1;
        report.attempted += 1;
        let start = Instant::now();
        let served = load::cold_job(&server.client, &load::spec_json(&spec));
        timed += start.elapsed();
        // Parsing the answer is the client's work, not the service's: it
        // stays out of the timed loop.
        match served.and_then(|job| Ok((load::answer_of(&job.finished)?, job))) {
            Ok((answer, job)) => {
                job_cpu_ms.push(job.job_cpu_ms);
                first_finding_cpu_ms.extend(job.first_finding_cpu_ms);
                job_ms.push(job.job_ms);
                answers.push((spec.seed, answer));
            }
            Err(e) => report.fail(&format!("job {}: {e}", spec.seed)),
        }
        if index == w.rss_after {
            rss = Some(load::peak_rss_mb());
        }
        if timed >= next_setup {
            next_setup = timed + SETUP_EVERY;
            setups.push(spare_set_ups(run_dir, SETUP_TRIES)?);
        }
    }
    let rss = rss.unwrap_or_else(|| {
        println!(
            "note: fewer than {} jobs; peak_rss_mb read at the end",
            w.rss_after
        );
        load::peak_rss_mb()
    });
    server.stop().map_err(|e| e.to_string())?;
    while setups.len() < MIN_SETUPS {
        setups.push(spare_set_ups(run_dir, SETUP_TRIES)?);
    }
    for (seed, answer) in &answers {
        if let Err(e) = load::check_answer(&registry, w.domain, answer) {
            report.fail(&format!("job {seed}: {e}"));
        }
    }

    let n = job_cpu_ms.len();
    let setup_cpu: Vec<f64> = setups.iter().map(|s| s.cpu).collect();
    let setup_wall: Vec<f64> = setups.iter().map(|s| s.wall).collect();
    println!(
        "{}: seed {} | {n} jobs in {:.3} s | {} set-up samples",
        w.name,
        args.seed,
        timed.as_secs_f64(),
        setups.len(),
    );
    // Figures for reading only: the lower percentiles follow how much of
    // the run the host spent in its fast mode, and wall-clock time also
    // the hypervisor's steal.
    let p10 = |samples: &[f64]| percentile(samples, 100).unwrap_or(0.0);
    println!(
        "cpu: job_ms p10 {:.1}, p50 {:.1} | first_finding_ms p10 {:.2}, p50 {:.2}",
        p10(&job_cpu_ms),
        median(&job_cpu_ms),
        p10(&first_finding_cpu_ms),
        median(&first_finding_cpu_ms),
    );
    println!(
        "wall clock: {:.3} jobs/s | job_ms p50 {:.1} | set-up p50 {:.6} s",
        n as f64 / timed.as_secs_f64(),
        median(&job_ms),
        median(&setup_wall),
    );
    for (what, count) in [
        ("job_cpu_ms", n),
        ("first_finding_cpu_ms", first_finding_cpu_ms.len()),
    ] {
        match tail_permille(count) {
            Some(p) if p >= REPORTED => {}
            _ => println!(
                "note: {what} has {count} samples, fewer than {} needs",
                label(REPORTED)
            ),
        }
    }
    report.metric("setup_s", median(&setup_cpu), "s");
    report.metric("peak_rss_mb", rss, "MiB");
    let reported = |samples: &[f64]| percentile(samples, REPORTED).unwrap_or(0.0);
    report.metric(
        &format!("job_cpu_ms.{}", label(REPORTED)),
        reported(&job_cpu_ms),
        "ms",
    );
    report.metric(
        &format!("first_finding_cpu_ms.{}", label(REPORTED)),
        reported(&first_finding_cpu_ms),
        "ms",
    );
    Ok(report)
}

/// What a traced run collects, per job or per request.
#[derive(Default)]
struct Layers {
    times: Vec<Times>,
    counts: Vec<Counts>,
    lookup_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    http_job_ms: Vec<f64>,
    hit_disk_ms: Vec<f64>,
    hit_mem_ms: Vec<f64>,
}

fn traced(args: &Args, run_dir: &Path, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let w = args.workload;
    let registry = DomainRegistry::builtin();
    let store_dir = load::fresh_dir(run_dir, "store").map_err(|e| e.to_string())?;
    let store = ResultStore::new(&store_dir);
    let mut layers = Layers::default();

    // The workload's jobs, then every answer again from a fresh server
    // over the same store (first from disk, then from memory).
    let specs = cold_trace(
        args,
        &registry,
        &store_dir,
        run_dir,
        &mut layers,
        &mut report,
    )?;
    let mut expected = Vec::new();
    for spec in &specs {
        let result = store.lookup(&spec.domain, &load::served_config(spec));
        expected.push(result_json(
            &result.ok_or("a finished job left no store entry")?,
        ));
    }
    let bodies: Vec<String> = specs.iter().map(load::spec_json).collect();

    let server = Running::start(&store_dir).map_err(|e| e.to_string())?;
    let mut seen = vec![false; bodies.len()];
    for i in hit_order(bodies.len(), args.seed) {
        report.attempted += 1;
        match load::hit(&server.client, &bodies[i], &expected[i]) {
            Ok(submit_ms) => {
                if seen[i] {
                    layers.hit_mem_ms.push(submit_ms);
                } else {
                    layers.hit_disk_ms.push(submit_ms);
                }
                seen[i] = true;
            }
            Err(e) => report.fail(&format!("stored spec {i}: {e}")),
        }
    }
    server.stop().map_err(|e| e.to_string())?;

    // `ResultStore::lookup` of every answer, as a disk hit reads it.
    for _ in 0..5 {
        for spec in &specs {
            let t0 = Instant::now();
            let hit = store.lookup(&spec.domain, &load::served_config(spec));
            layers.lookup_ms.push(ms(t0));
            if hit.is_none() {
                report.fault = true;
                println!("FAULT: a stored result did not read back");
            }
        }
    }

    println!(
        "{}: seed {} | {} replica jobs | {} hits",
        w.name,
        args.seed,
        layers.counts.len(),
        layers.hit_disk_ms.len() + layers.hit_mem_ms.len()
    );
    if report.failed == 0 {
        check_repeatable(args, work, &layers.counts, &mut report)?;
    }
    layer_metrics(&layers, &mut report);
    Ok(report)
}

/// Each traced job runs through a server, which then shuts down, and
/// right after through the replica, so that both see the same host. The
/// replica's exact counts must equal what the server reported for the
/// job, the regression bank the replica writes must hold the same
/// entries as the server's, and the first job, run a second time, must
/// repeat its counts. Returns the specs that completed.
fn cold_trace(
    args: &Args,
    registry: &DomainRegistry,
    store_dir: &Path,
    run_dir: &Path,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<Vec<JobSpec>, String> {
    let w = args.workload;
    let domain = Counted::new(registry.get(w.domain).ok_or("unknown domain")?);
    let replica_store = ResultStore::new(run_dir.join("replica"));
    let server_bank = ResultStore::new(store_dir).bank();
    let journal = JobJournal::open(run_dir.join("replica-journal")).map_err(|e| e.to_string())?;
    let mut specs = Vec::new();
    for i in 0..w.trace_jobs {
        let spec = job(args, i);
        report.attempted += 1;
        let server = Running::start(store_dir).map_err(|e| e.to_string())?;
        let served = load::cold_job(&server.client, &load::spec_json(&spec));
        server.stop().map_err(|e| e.to_string())?;
        let (job, answer) = match served.and_then(|job| {
            let answer = load::answer_of(&job.finished)?;
            load::check_answer(registry, w.domain, &answer)?;
            Ok((job, answer))
        }) {
            Ok(ok) => ok,
            Err(e) => {
                report.fail(&format!("job {}: {e}", spec.seed));
                break;
            }
        };
        let (times, counts) = replica::run_job(&domain, &spec, &replica_store, &journal)?;
        if counts.lp != answer.solver || counts.stream_bytes != job.stream_bytes {
            report.fault = true;
            println!(
                "NONDETERMINISM (program fault): job {i} did {:?} and streamed {} bytes through the server, {:?} and {} bytes in the replica",
                answer.solver, job.stream_bytes, counts.lp, counts.stream_bytes
            );
        }
        // The bank is the replica's one durable output a reader of the
        // server's store can see: a differing entry set means the
        // executor's write-through changed and `replica.rs` must follow.
        let (served_keys, replica_keys) =
            (bank_keys(&server_bank), bank_keys(&replica_store.bank()));
        if served_keys != replica_keys {
            report.fault = true;
            println!(
                "REPLICA DIVERGES: after job {i} the server's bank holds {} entries, the replica's {} ({} inserts this job); update src/replica.rs to the executor's write-through",
                served_keys.len(),
                replica_keys.len(),
                counts.bank_inserts
            );
        }
        layers.submit_ms.push(job.submit_ms);
        layers.http_job_ms.push(job.job_ms);
        layers.times.push(times);
        layers.counts.push(counts);
        specs.push(spec);
    }
    if let Some(first) = specs.first() {
        let again = ResultStore::new(run_dir.join("replica-again"));
        let journal =
            JobJournal::open(run_dir.join("replica-again-journal")).map_err(|e| e.to_string())?;
        let (_, counts) = replica::run_job(&domain, first, &again, &journal)?;
        if counts != layers.counts[0] {
            report.fault = true;
            println!(
                "NONDETERMINISM (program fault): job 0 repeated with different counts: {:?} then {counts:?}",
                layers.counts[0]
            );
        }
    }
    Ok(specs)
}

/// The keys of a regression bank's entries, sorted.
fn bank_keys(bank: &RegressionBank) -> Vec<u64> {
    bank.entries().into_iter().map(|(key, _)| key).collect()
}

/// Compare this run's exact counts with an earlier run of the same build
/// at the same workload seed, if one left a record; otherwise leave one.
/// The build is told apart by a hash of this executable, so a changed
/// program, whose counts may rightly differ, starts a fresh record.
fn check_repeatable(
    args: &Args,
    work: &Path,
    counts: &[Counts],
    report: &mut Report,
) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| e.to_string())?;
    let build = exe.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let dir = work.join("counts");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path: PathBuf = dir.join(format!(
        "{}-{}-{build:016x}.txt",
        args.workload.name, args.seed
    ));
    let record = format!("{counts:?}\n");
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != record => {
            report.fault = true;
            println!(
                "NONDETERMINISM (program fault): exact counts differ from an earlier run at seed {} ({})",
                args.seed,
                path.display()
            );
        }
        Ok(_) => println!("exact counts repeat an earlier run at seed {}", args.seed),
        Err(_) => std::fs::write(&path, record).map_err(|e| e.to_string())?,
    }
    Ok(())
}

fn layer_metrics(layers: &Layers, report: &mut Report) {
    let jobs = layers.counts.len().max(1) as f64;
    let per_job =
        |f: &dyn Fn(&Counts) -> u64| layers.counts.iter().map(f).sum::<u64>() as f64 / jobs;
    let ms_per_job = |f: &dyn Fn(&Times) -> f64| layers.times.iter().map(f).sum::<f64>() / jobs;
    let totals: Vec<f64> = layers.times.iter().map(|t| t.total).collect();
    let journal: Vec<f64> = layers
        .times
        .iter()
        .flat_map(|t| t.journal.clone())
        .collect();
    let first: Vec<f64> = layers
        .times
        .iter()
        .filter_map(|t| t.first_finding)
        .collect();
    let solves = per_job(&|c| c.lp.lp_solves);
    let calls = per_job(&|c| c.analyzer_calls);
    let findings = per_job(&|c| c.findings);

    report.metric("serve.submit_ms.p50", median(&layers.submit_ms), "ms");
    report.metric(
        "serve.stream_bytes_per_job",
        per_job(&|c| c.stream_bytes),
        "B",
    );
    report.metric("serve.hit_disk_ms.p50", median(&layers.hit_disk_ms), "ms");
    report.metric("serve.hit_mem_ms.p50", median(&layers.hit_mem_ms), "ms");
    report.metric("runtime.journal.append_ms.p50", median(&journal), "ms");
    report.metric(
        "runtime.store.checkpoints_per_job",
        per_job(&|c| c.checkpoints),
        "count",
    );
    report.metric(
        "runtime.store.checkpoint_ms_per_job",
        ms_per_job(&|t| t.checkpoint),
        "ms",
    );
    report.metric(
        "runtime.store.publish_ms_per_job",
        ms_per_job(&|t| t.publish),
        "ms",
    );
    report.metric(
        "runtime.store.lookup_ms.p50",
        median(&layers.lookup_ms),
        "ms",
    );
    report.metric(
        "runtime.bank.inserts_per_job",
        per_job(&|c| c.bank_inserts),
        "count",
    );
    report.metric(
        "runtime.bank.insert_ms_per_job",
        ms_per_job(&|t| t.bank),
        "ms",
    );
    report.metric(
        "runtime.watch.serialize_ms_per_job",
        ms_per_job(&|t| t.watch),
        "ms",
    );
    for (i, (phase, _)) in PHASES.iter().enumerate() {
        report.metric(
            &format!("core.{phase}_ms_per_job"),
            ms_per_job(&|t| t.phase[i]),
            "ms",
        );
    }
    report.metric("core.first_finding_ms.p50", median(&first), "ms");
    report.metric("core.findings_per_job", findings, "count");
    report.metric(
        "core.finding_yield",
        if calls > 0.0 { findings / calls } else { 0.0 },
        "frac",
    );
    report.metric("analyzer.calls_per_job", calls, "count");
    report.metric(
        "domains.oracle_evals_per_job",
        per_job(&|c| c.oracle_evals),
        "count",
    );
    report.metric("lp.solves_per_job", solves, "count");
    report.metric(
        "lp.explain_solves_per_job",
        per_job(&|c| c.explain_solves),
        "count",
    );
    report.metric(
        "lp.cold_starts_per_job",
        per_job(&|c| c.lp.lp_cold_starts),
        "count",
    );
    report.metric(
        "lp.iterations_per_job",
        per_job(&|c| c.lp.lp_iterations),
        "count",
    );
    report.metric(
        "lp.refactorizations_per_job",
        per_job(&|c| c.lp.lp_refactorizations),
        "count",
    );
    let warm_hits = per_job(&|c| c.lp.lp_warm_hits);
    report.metric(
        "lp.warm_hit_frac",
        if solves > 0.0 {
            warm_hits / solves
        } else {
            0.0
        },
        "frac",
    );
    // The layers' share of the same jobs' end-to-end time.
    let e2e = median(&layers.http_job_ms);
    report.metric(
        "trace.accounted_frac",
        if e2e > 0.0 {
            median(&totals) / e2e
        } else {
            0.0
        },
        "frac",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_order_touches_every_stored_spec_equally() {
        let order = hit_order(16, 3);
        for i in 0..16 {
            assert_eq!(order.iter().filter(|&&j| j == i).count(), TOUCHES);
        }
        assert_eq!(order, hit_order(16, 3));
        assert_ne!(order, hit_order(16, 4));
    }
}
