//! The traced replica: the executor's resume-mode loop for one job,
//! rebuilt from public calls, with a timer around every call into a
//! layer and counts taken where the work happens.
//!
//! It runs after every server has shut down, so nothing else solves
//! and the process-wide `SolverCounters` deltas belong to this job.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use xplain_analyzer::oracle::GapOracle;
use xplain_analyzer::search::SearchOptions;
use xplain_core::explainer::DslMapper;
use xplain_core::features::FeatureMap;
use xplain_core::generalizer::Observation;
use xplain_runtime::{
    build_session, watch_line, BankRecord, CancelToken, Domain, JobJournal, JobQueue, JobSpec,
    ParamSpace, ResultStore, SessionBudgets, SessionEvent, SolverCounters,
};

use crate::load::{ms, served_config, stream_len};

/// A domain whose oracles count their `gap` evaluations.
pub struct Counted<'d> {
    inner: &'d dyn Domain,
    evals: Arc<AtomicU64>,
}

struct CountedOracle {
    inner: Box<dyn GapOracle>,
    evals: Arc<AtomicU64>,
}

impl GapOracle for CountedOracle {
    fn dims(&self) -> usize {
        self.inner.dims()
    }
    fn bounds(&self) -> Vec<(f64, f64)> {
        self.inner.bounds()
    }
    fn gap(&self, x: &[f64]) -> f64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.gap(x)
    }
    fn dim_names(&self) -> Vec<String> {
        self.inner.dim_names()
    }
}

impl<'d> Counted<'d> {
    pub fn new(inner: &'d dyn Domain) -> Self {
        Counted {
            inner,
            evals: Arc::new(AtomicU64::new(0)),
        }
    }

    fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }
}

impl Domain for Counted<'_> {
    fn id(&self) -> &str {
        self.inner.id()
    }
    fn description(&self) -> String {
        self.inner.description()
    }
    fn oracle(&self) -> Box<dyn GapOracle> {
        Box::new(CountedOracle {
            inner: self.inner.oracle(),
            evals: Arc::clone(&self.evals),
        })
    }
    fn mapper(&self) -> Option<Box<dyn DslMapper>> {
        self.inner.mapper()
    }
    fn seeds(&self) -> Vec<Vec<f64>> {
        self.inner.seeds()
    }
    fn instance_family(&self, seed: u64) -> Vec<Observation> {
        self.inner.instance_family(seed)
    }
    fn feature_schema(&self) -> FeatureMap {
        self.inner.feature_schema()
    }
    fn param_space(&self) -> Option<ParamSpace> {
        self.inner.param_space()
    }
    fn tuned_oracle(&self, params: &[f64]) -> Option<Box<dyn GapOracle>> {
        self.inner.tuned_oracle(params)
    }
    fn search_options(&self) -> SearchOptions {
        self.inner.search_options()
    }
}

/// Exact work counts of one job. Identical for identical specs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub lp: SolverCounters,
    /// LP solves inside `explanation_ready` steps.
    pub explain_solves: u64,
    pub analyzer_calls: u64,
    pub oracle_evals: u64,
    pub findings: u64,
    pub checkpoints: u64,
    pub bank_inserts: u64,
    /// Watch-line bytes by [`stream_len`]: what the server streams.
    pub stream_bytes: u64,
}

/// Session step kinds timed separately, by `SessionEvent::kind`.
pub const PHASES: [(&str, &str); 5] = [
    ("probe", "analyzer_probe"),
    ("grow", "subspace_grown"),
    ("check", "significance_verdict"),
    ("explain", "explanation_ready"),
    ("coverage", "coverage_estimated"),
];

/// Wall times of one job, in ms.
#[derive(Debug, Clone, Default)]
pub struct Times {
    /// `next_event` time per entry of [`PHASES`].
    pub phase: [f64; 5],
    /// Each `JobJournal::record_*` call.
    pub journal: Vec<f64>,
    pub checkpoint: f64,
    pub publish: f64,
    pub bank: f64,
    pub watch: f64,
    /// Job start → the first `explanation_ready` step returned.
    pub first_finding: Option<f64>,
    pub total: f64,
}

/// Run one job the way the queue worker and `run_job` do in resume
/// mode: journal `accepted` and `started`, the store lookup and
/// checkpoint load, the session's events each followed by its watch
/// line and a checkpoint, then publish, bank write-through, checkpoint
/// clear and journal `done`.
pub fn run_job(
    domain: &Counted<'_>,
    spec: &JobSpec,
    store: &ResultStore,
    journal: &JobJournal,
) -> Result<(Times, Counts), String> {
    let mut t = Times::default();
    let mut c = Counts::default();
    let evals_before = domain.evals();
    let start = Instant::now();
    let key = JobQueue::job_key(spec, 0);
    let config = served_config(spec);

    let step = Instant::now();
    journal.record_accepted(key, spec, None);
    t.journal.push(ms(step));
    let step = Instant::now();
    journal.record_started(key);
    t.journal.push(ms(step));

    if store.lookup(&spec.domain, &config).is_some() {
        return Err("replica store already holds this job".into());
    }
    let checkpoint = store.load_checkpoint(&spec.domain, &config);
    let mut session = build_session(
        domain,
        &config,
        SessionBudgets::unlimited(),
        CancelToken::new(),
        checkpoint,
    )
    .map_err(|e| e.to_string())?;

    let mut result = None;
    loop {
        let lp_before = SolverCounters::snapshot();
        let step = Instant::now();
        let Some(event) = session.next_event() else {
            break;
        };
        let dt = ms(step);
        let lp = SolverCounters::snapshot().since(&lp_before);
        c.lp = c.lp.plus(&lp);
        let kind = event.kind();
        if let Some(i) = PHASES.iter().position(|(_, k)| *k == kind) {
            t.phase[i] += dt;
        }
        match &event {
            SessionEvent::AnalyzerProbe { .. } => c.analyzer_calls += 1,
            SessionEvent::ExplanationReady { .. } => {
                c.findings += 1;
                c.explain_solves += lp.lp_solves;
                t.first_finding.get_or_insert(ms(start));
            }
            _ => {}
        }

        let step = Instant::now();
        let line = watch_line(0, &spec.domain, &event);
        t.watch += ms(step);
        c.stream_bytes += stream_len(&line);

        if let SessionEvent::Finished { result: r, .. } = event {
            result = Some(r);
        } else {
            let step = Instant::now();
            store
                .save_checkpoint(&spec.domain, &config, &session.checkpoint())
                .map_err(|e| e.to_string())?;
            t.checkpoint += ms(step);
            c.checkpoints += 1;
        }
    }
    let mut result = result.ok_or("session ended without `finished`")?;
    if !session.finished_naturally() {
        return Err("session did not finish naturally".into());
    }

    result.wall_time_ms = 0;
    result.solver = SolverCounters::default();
    let step = Instant::now();
    store
        .insert_with_origin(&spec.domain, &config, &result, None)
        .map_err(|e| e.to_string())?;
    t.publish = ms(step);

    let step = Instant::now();
    let bank = store.bank();
    let job_key = format!("{:016x}", ResultStore::key(&spec.domain, &config));
    for finding in &result.findings {
        if let Some(record) = BankRecord::from_finding(&spec.domain, finding, &job_key, config.seed)
        {
            bank.insert(&record).map_err(|e| e.to_string())?;
            c.bank_inserts += 1;
        }
    }
    t.bank = ms(step);

    let step = Instant::now();
    store.clear_checkpoint(&spec.domain, &config);
    t.checkpoint += ms(step);

    let step = Instant::now();
    journal.record_done(key);
    t.journal.push(ms(step));

    t.total = ms(start);
    c.oracle_evals = domain.evals() - evals_before;
    Ok((t, c))
}
