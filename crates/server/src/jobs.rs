//! The in-memory job store: submit → poll → fetch result, with a streaming event log.
//!
//! A private-release estimation can take seconds on a large graph, so `/api/estimate` must not
//! hold its connection open while Algorithm 1 runs. Instead the router submits a closure here
//! and immediately returns a job id; the closure runs on a dedicated estimation pool (separate
//! from the HTTP worker pool, so slow estimations never starve `/healthz` or job polling), and
//! clients poll `/api/jobs/{id}` until the record flips to `Done` or `Failed`.
//!
//! Every job additionally carries an append-only **event log** of typed JSON documents:
//! `queued` and `running` lifecycle markers, the pipeline's stage/chain progress (the closure
//! receives a [`JobEventSink`], which implements [`kronpriv_obs::ProgressSink`]), and a
//! terminal `done`/`failed` document carrying the same result/error the poll endpoint serves.
//! Streamers follow the log with [`JobStore::wait_events`], which blocks on a condvar instead
//! of polling.
//!
//! A job record holds rendered text, not `Json` trees: the event log is one NDJSON string to
//! which each event is rendered once, when pushed, and the result is kept as compact JSON
//! text that polls parse. A finished job also drops its request spec. Up to
//! [`DEFAULT_RETAINED_JOBS`] finished records stay in memory, so each one costs a couple of
//! allocations rather than a few hundred.

use crate::pool::ThreadPool;
use kronpriv_json::{impl_json_enum, push_json, push_json_number, push_json_str, Json};
use kronpriv_obs::{ProgressEvent, ProgressSink, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A callback the store runs after a job reaches `Done`/`Failed` — the persistence layer's
/// write-behind for `job_finished` records. Invoked outside the table lock.
pub type CompletionHook = Arc<dyn Fn(u64, &Result<Json, String>) + Send + Sync>;

/// Default number of finished (`Done`/`Failed`) job records retained for polling. Older
/// finished records are evicted oldest-first so a long-running server cannot grow without
/// bound; queued and running jobs are never evicted.
pub const DEFAULT_RETAINED_JOBS: usize = 1024;

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted, not yet picked up by an estimation worker.
    Queued,
    /// An estimation worker is executing it.
    Running,
    /// Finished successfully; the result document is available.
    Done,
    /// Finished with an error; the error message is available.
    Failed,
}

impl_json_enum!(JobStatus { Queued, Running, Done, Failed });

/// A point-in-time copy of one job record, as returned to pollers.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// The job id assigned at submission.
    pub id: u64,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// The result document (present exactly when `status == Done`).
    pub result: Option<Json>,
    /// The failure message (present exactly when `status == Failed`).
    pub error: Option<String>,
}

/// Monotonic job counters since startup, reported by `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCounts {
    /// Jobs currently waiting for an estimation worker.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs finished successfully since startup (eviction does not decrement this).
    pub done: u64,
    /// Jobs finished with an error since startup (eviction does not decrement this).
    pub failed: u64,
}

#[derive(Debug)]
struct JobRecord {
    status: JobStatus,
    /// The result document as compact JSON text (present exactly when `status == Done`).
    result: Option<String>,
    error: Option<String>,
    /// The persisted request spec of a pending job (durable mode only): what the snapshot
    /// stores so the job can be re-run after a restart. Dropped when the job finishes, since
    /// snapshots persist finished jobs by their outcome. Never served to clients.
    spec: Option<Json>,
    /// Append-only typed progress log as NDJSON, one rendered document per line; see the
    /// module docs for the document shapes.
    events: String,
}

impl JobRecord {
    /// A fresh `Queued` record whose log holds the `queued` event.
    fn queued(id: u64, spec: Option<Json>) -> Self {
        let mut events = String::new();
        push_event(&mut events, &event_doc("queued", &[("job_id", Json::Number(id as f64))]));
        JobRecord { status: JobStatus::Queued, result: None, error: None, spec, events }
    }

    /// Moves the record to `Done` (the rendered result) or `Failed` (the message), appending
    /// the terminal event. The log never grows again, so its spare capacity is released.
    fn finish(&mut self, outcome: Result<String, String>) {
        match outcome {
            Ok(result) => {
                // `{"event":"done","result":…}`, embedding the rendered result verbatim.
                self.events.push_str("{\"event\":\"done\",\"result\":");
                self.events.push_str(&result);
                self.events.push_str("}\n");
                self.status = JobStatus::Done;
                self.result = Some(result);
            }
            Err(message) => {
                let error = Json::String(message.clone());
                push_event(&mut self.events, &event_doc("failed", &[("error", error)]));
                self.status = JobStatus::Failed;
                self.error = Some(message);
            }
        }
        self.events.shrink_to_fit();
        self.spec = None;
    }
}

/// The job map is id-ordered (`BTreeMap`) so snapshot images and any future listings are
/// deterministic without sorting.
#[derive(Debug)]
struct JobTable {
    next_id: u64,
    jobs: BTreeMap<u64, JobRecord>,
    /// Finished job ids in completion order, for oldest-first eviction.
    finished: VecDeque<u64>,
    max_finished: usize,
    completed_done: u64,
    completed_failed: u64,
}

/// The table plus the condvar event streamers block on. One condvar covers all jobs: event
/// traffic is a handful of documents per job, so spurious wakeups are irrelevant.
struct Shared {
    table: Mutex<JobTable>,
    events: Condvar,
    hook: Mutex<Option<CompletionHook>>,
}

impl JobTable {
    /// Finishes a live job with its rendered outcome.
    fn complete(&mut self, id: u64, outcome: Result<String, String>) {
        if let Some(record) = self.jobs.get_mut(&id) {
            let label = if outcome.is_ok() { "done" } else { "failed" };
            record.finish(outcome);
            Registry::global()
                .counter("kronpriv_jobs_completed_total", &[("outcome", label)])
                .inc();
            self.retire(id);
        }
    }

    /// Counts a just-finished record towards the completion tallies and queues it for
    /// oldest-first eviction beyond the retention cap.
    fn retire(&mut self, id: u64) {
        match self.jobs.get(&id).map(|record| record.status) {
            Some(JobStatus::Done) => self.completed_done += 1,
            Some(JobStatus::Failed) => self.completed_failed += 1,
            _ => {}
        }
        self.finished.push_back(id);
        while self.finished.len() > self.max_finished {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }
}

/// Builds one typed event document: `{"event": kind, ...fields}`.
fn event_doc(kind: &str, fields: &[(&str, Json)]) -> Json {
    let mut pairs = vec![("event".to_string(), Json::String(kind.to_string()))];
    pairs.extend(fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Json::Object(pairs)
}

/// Appends one event document to an NDJSON log as a compact line.
fn push_event(log: &mut String, event: &Json) {
    push_json(log, event);
    log.push('\n');
}

/// The progress sink one running job emits into: appends typed JSON documents to the job's
/// event log and wakes any streamer blocked in [`JobStore::wait_events`].
///
/// Implements [`ProgressSink`], so it plugs directly into the pipeline entry points. It opts
/// into per-step chain log-likelihoods (`wants_chain_likelihood`) because the streamed
/// `chain_step` documents carry them — an extra likelihood evaluation per step that consumes no
/// randomness, so results stay byte-identical (the `kronpriv-obs` no-feedback invariant).
pub struct JobEventSink {
    shared: Arc<Shared>,
    id: u64,
}

impl JobEventSink {
    /// Renders one event document onto the job's log and wakes streamers. Events for an
    /// evicted job are silently dropped.
    pub fn push(&self, event: Json) {
        let mut table = self.shared.table.lock().expect("job table poisoned");
        if let Some(record) = table.jobs.get_mut(&self.id) {
            push_event(&mut record.events, &event);
            self.shared.events.notify_all();
        }
    }
}

impl ProgressSink for JobEventSink {
    fn emit(&self, event: &ProgressEvent) {
        let doc = match event {
            ProgressEvent::StageStarted { stage } => {
                event_doc("stage_started", &[("stage", Json::String(stage.to_string()))])
            }
            ProgressEvent::StageFinished { stage } => {
                event_doc("stage_finished", &[("stage", Json::String(stage.to_string()))])
            }
            ProgressEvent::ChainStep { chain, step, total_steps, log_likelihood } => event_doc(
                "chain_step",
                &[
                    ("chain", Json::Number(*chain as f64)),
                    ("step", Json::Number(*step as f64)),
                    ("total_steps", Json::Number(*total_steps as f64)),
                    // JSON has no NaN; an unevaluated likelihood becomes null.
                    (
                        "log_likelihood",
                        if log_likelihood.is_finite() {
                            Json::Number(*log_likelihood)
                        } else {
                            Json::Null
                        },
                    ),
                ],
            ),
        };
        self.push(doc);
    }

    fn wants_chain_likelihood(&self) -> bool {
        true
    }
}

/// The store: a job table plus the worker pool that executes submitted jobs.
///
/// Dropping the store waits for in-flight jobs to finish (via the pool's graceful shutdown).
pub struct JobStore {
    shared: Arc<Shared>,
    pool: ThreadPool,
}

impl JobStore {
    /// Creates a store whose jobs run on `workers` dedicated threads, retaining the
    /// [`DEFAULT_RETAINED_JOBS`] most recent finished records.
    pub fn new(workers: usize) -> Self {
        Self::with_retention(workers, DEFAULT_RETAINED_JOBS)
    }

    /// Like [`JobStore::new`] with an explicit cap on retained finished records.
    ///
    /// # Panics
    /// Panics if `max_finished == 0` (a finished job must be pollable at least once).
    pub fn with_retention(workers: usize, max_finished: usize) -> Self {
        assert!(max_finished > 0, "must retain at least one finished job");
        JobStore {
            shared: Arc::new(Shared {
                table: Mutex::new(JobTable {
                    next_id: 0,
                    jobs: BTreeMap::new(),
                    finished: VecDeque::new(),
                    max_finished,
                    completed_done: 0,
                    completed_failed: 0,
                }),
                events: Condvar::new(),
                hook: Mutex::new(None),
            }),
            pool: ThreadPool::new(workers, "kronpriv-job"),
        }
    }

    /// Installs the completion hook run after every job finishes (outside the table lock) —
    /// the persistence layer's `job_finished` write-behind. Replaces any previous hook.
    pub fn set_completion_hook(&self, hook: CompletionHook) {
        *self.shared.hook.lock().expect("job hook poisoned") = Some(hook);
    }

    /// A lightweight imaging handle onto the same job table, for the persistence snapshot
    /// hook (which must not capture the whole `AppState`).
    pub fn imager(&self) -> JobImager {
        JobImager { shared: Arc::clone(&self.shared) }
    }

    /// Creates a `Queued` job record and returns its id, without scheduling any work yet.
    /// `id` is `Some` only on boot replay, to re-create a job under its persisted id (the
    /// counter advances past it so fresh ids never collide). `spec` is the persisted request
    /// spec in durable mode, `None` in-memory.
    pub fn create(&self, id: Option<u64>, spec: Option<Json>) -> u64 {
        let id = {
            let mut table = self.shared.table.lock().expect("job table poisoned");
            let id = match id {
                Some(id) => {
                    table.next_id = table.next_id.max(id);
                    id
                }
                None => {
                    table.next_id += 1;
                    table.next_id
                }
            };
            table.jobs.insert(id, JobRecord::queued(id, spec));
            id
        };
        Registry::global().counter("kronpriv_jobs_submitted_total", &[]).inc();
        self.shared.events.notify_all();
        id
    }

    /// Schedules the work of an already-created job on the estimation pool. The closure's `Ok`
    /// document becomes the job result; `Err` (or a panic, which is caught) marks the job
    /// `Failed`. The closure receives the job's [`JobEventSink`] for progress reporting.
    pub fn run(
        &self,
        id: u64,
        work: impl FnOnce(&JobEventSink) -> Result<Json, String> + Send + 'static,
    ) {
        let shared = Arc::clone(&self.shared);
        self.pool.execute(move || {
            let sink = JobEventSink { shared: Arc::clone(&shared), id };
            set_status(&shared, id, JobStatus::Running);
            sink.push(event_doc("running", &[]));
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(&sink)))
                .unwrap_or_else(|_| Err("job panicked".to_string()));
            // Rendered outside the table lock: a result can carry a whole degree sequence.
            let rendered = outcome.as_ref().map(Json::to_compact_string).map_err(String::clone);
            let hook = shared.hook.lock().expect("job hook poisoned").clone();
            shared.table.lock().expect("job table poisoned").complete(id, rendered);
            shared.events.notify_all();
            if let Some(hook) = hook {
                hook(id, &outcome);
            }
        });
    }

    /// Submits a job and returns its id immediately: [`JobStore::create`] followed by
    /// [`JobStore::run`].
    pub fn submit(
        &self,
        work: impl FnOnce(&JobEventSink) -> Result<Json, String> + Send + 'static,
    ) -> u64 {
        let id = self.create(None, None);
        self.run(id, work);
        id
    }

    /// Restores an already-finished job verbatim (boot replay): the record appears `Done` or
    /// `Failed` with a synthesized two-event log, counts towards the `/healthz` completion
    /// tallies, but does not re-run and does not touch the traffic metrics or the hook.
    pub fn restore_finished(&self, id: u64, outcome: Result<Json, String>) {
        let mut record = JobRecord::queued(id, None);
        record.finish(outcome.map(|result| result.to_compact_string()));
        let mut table = self.shared.table.lock().expect("job table poisoned");
        table.next_id = table.next_id.max(id);
        table.jobs.insert(id, record);
        table.retire(id);
    }

    /// A snapshot of the job, or `None` for an unknown id. The result text is parsed back
    /// into a document; it renders to the same bytes it was stored as.
    pub fn get(&self, id: u64) -> Option<JobSnapshot> {
        let table = self.shared.table.lock().expect("job table poisoned");
        table.jobs.get(&id).map(|record| JobSnapshot {
            id,
            status: record.status,
            result: record.result.as_deref().map(|text| {
                Json::parse(text).expect("a stored result is JSON this store rendered")
            }),
            error: record.error.clone(),
        })
    }

    /// The job's NDJSON event log from byte offset `from` onward, blocking up to `timeout`
    /// for new events. Returns `(tail, terminal)` where `terminal` says the tail reaches the
    /// end of a finished job's log — the stream is complete. Events are appended whole, so a
    /// cursor advanced by each returned tail's length always lands between lines. `None` for
    /// an unknown (or evicted) id.
    ///
    /// A timeout with no fresh events returns an empty, non-terminal tail so streamers can keep
    /// the connection alive and re-wait.
    pub fn wait_events(&self, id: u64, from: usize, timeout: Duration) -> Option<(String, bool)> {
        let deadline = Instant::now() + timeout;
        let mut table = self.shared.table.lock().expect("job table poisoned");
        loop {
            let record = table.jobs.get(&id)?;
            let finished = matches!(record.status, JobStatus::Done | JobStatus::Failed);
            if record.events.len() > from || finished {
                return Some((tail(&record.events, from), finished));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Some((String::new(), false));
            }
            let (guard, wait) =
                self.shared.events.wait_timeout(table, remaining).expect("job table poisoned");
            table = guard;
            if wait.timed_out() {
                let record = table.jobs.get(&id)?;
                let finished = matches!(record.status, JobStatus::Done | JobStatus::Failed);
                return Some((tail(&record.events, from), finished));
            }
        }
    }

    /// Raises the id counter to at least `floor` (boot replay: fresh ids must never collide
    /// with ids the previous process handed out, even ones whose records were compacted away).
    pub fn seed_next_id(&self, floor: u64) {
        let mut table = self.shared.table.lock().expect("job table poisoned");
        table.next_id = table.next_id.max(floor);
    }

    /// Total number of jobs ever submitted (reported by `/healthz`).
    pub fn submitted(&self) -> u64 {
        self.shared.table.lock().expect("job table poisoned").next_id
    }

    /// Current and cumulative lifecycle counts (reported by `/healthz`).
    pub fn counts(&self) -> JobCounts {
        let table = self.shared.table.lock().expect("job table poisoned");
        let mut queued = 0;
        let mut running = 0;
        for record in table.jobs.values() {
            match record.status {
                JobStatus::Queued => queued += 1,
                JobStatus::Running => running += 1,
                _ => {}
            }
        }
        JobCounts { queued, running, done: table.completed_done, failed: table.completed_failed }
    }
}

/// The part of an NDJSON log from byte offset `from` on (empty past the end).
fn tail(log: &str, from: usize) -> String {
    log.get(from..).unwrap_or_default().to_string()
}

/// A handle that images the job table for persistence snapshots without owning the pool (so
/// the snapshot hook can live inside the store's own completion callback without a cycle).
#[derive(Clone)]
pub struct JobImager {
    shared: Arc<Shared>,
}

impl JobImager {
    /// An upper estimate of the bytes [`JobImager::write_image`] renders for the jobs, to
    /// pre-size the snapshot buffer.
    pub(crate) fn image_len_hint(&self) -> usize {
        let table = self.shared.table.lock().expect("job table poisoned");
        let text = |text: Option<&String>| text.map_or(0, String::len);
        let records = table
            .jobs
            .values()
            .map(|record| 128 + text(record.result.as_ref()) + text(record.error.as_ref()));
        64 + records.sum::<usize>()
    }

    /// Renders the state image `{"next_job_id":…,"datasets":…,"jobs":[…]}` onto `out`, with
    /// `datasets` writing the datasets array in between. The table stays locked throughout,
    /// so the id counter and the job list are one consistent image.
    ///
    /// Jobs appear in id order. Finished jobs persist their outcome; queued/running jobs
    /// persist their spec (to be re-run on boot); pending jobs without a spec (in-memory
    /// submissions) are skipped — they cannot be replayed.
    pub(crate) fn write_image(&self, out: &mut String, datasets: impl FnOnce(&mut String)) {
        let table = self.shared.table.lock().expect("job table poisoned");
        out.push_str("{\"next_job_id\":");
        push_json_number(out, table.next_id as f64);
        out.push_str(",\"datasets\":");
        datasets(out);
        out.push_str(",\"jobs\":[");
        let mut first = true;
        for (id, record) in &table.jobs {
            let pending = matches!(record.status, JobStatus::Queued | JobStatus::Running);
            if pending && record.spec.is_none() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"job_id\":");
            push_json_number(out, *id as f64);
            match record.status {
                JobStatus::Done => {
                    out.push_str(",\"status\":\"done\"");
                    if let Some(result) = &record.result {
                        out.push_str(",\"result\":");
                        out.push_str(result);
                    }
                }
                JobStatus::Failed => {
                    out.push_str(",\"status\":\"failed\",\"error\":");
                    push_json_str(out, record.error.as_deref().unwrap_or_default());
                }
                JobStatus::Queued | JobStatus::Running => {
                    out.push_str(",\"status\":\"pending\"");
                    if let Some(spec) = &record.spec {
                        out.push_str(",\"spec\":");
                        push_json(out, spec);
                    }
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }

    /// `(next_job_id, job documents)` in id order, built as `Json` trees: the reference the
    /// text renderer of [`JobImager::write_image`] is pinned against.
    #[cfg(test)]
    pub(crate) fn image_docs(&self) -> (u64, Vec<Json>) {
        let table = self.shared.table.lock().expect("job table poisoned");
        let mut docs = Vec::new();
        for (id, record) in table.jobs.iter() {
            let mut pairs = vec![("job_id".to_string(), Json::Number(*id as f64))];
            match record.status {
                JobStatus::Done => {
                    pairs.push(("status".to_string(), Json::String("done".to_string())));
                    if let Some(result) = &record.result {
                        pairs.push(("result".to_string(), Json::parse(result).unwrap()));
                    }
                }
                JobStatus::Failed => {
                    pairs.push(("status".to_string(), Json::String("failed".to_string())));
                    pairs.push((
                        "error".to_string(),
                        Json::String(record.error.clone().unwrap_or_default()),
                    ));
                }
                JobStatus::Queued | JobStatus::Running => match &record.spec {
                    Some(spec) => {
                        pairs.push(("status".to_string(), Json::String("pending".to_string())));
                        pairs.push(("spec".to_string(), spec.clone()));
                    }
                    None => continue,
                },
            }
            docs.push(Json::Object(pairs));
        }
        (table.next_id, docs)
    }
}

fn set_status(shared: &Shared, id: u64, status: JobStatus) {
    if let Some(record) = shared.table.lock().expect("job table poisoned").jobs.get_mut(&id) {
        record.status = status;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_done(store: &JobStore, id: u64) -> JobSnapshot {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = store.get(id).expect("job vanished");
            if matches!(snap.status, JobStatus::Done | JobStatus::Failed) {
                return snap;
            }
            assert!(Instant::now() < deadline, "job {id} never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn event_kind(event: &Json) -> String {
        event.get("event").and_then(|e| e.as_str().map(str::to_string)).expect("untyped event")
    }

    /// The documents of an NDJSON log, one per line.
    fn parse_log(log: &str) -> Vec<Json> {
        assert!(log.is_empty() || log.ends_with('\n'), "torn NDJSON log {log:?}");
        log.lines().map(|line| Json::parse(line).expect("each line is one document")).collect()
    }

    /// The byte offset just past the first `lines` events of a job's log, once they exist.
    fn offset_after(store: &JobStore, id: u64, lines: usize) -> usize {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (log, _) = store.wait_events(id, 0, Duration::from_secs(1)).unwrap();
            if log.lines().count() >= lines {
                return log.lines().take(lines).map(|line| line.len() + 1).sum();
            }
            assert!(Instant::now() < deadline, "job {id} never logged {lines} events");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn submit_poll_fetch_lifecycle() {
        let store = JobStore::new(2);
        let id = store.submit(|_| Ok(Json::Number(42.0)));
        let snap = wait_done(&store, id);
        assert_eq!(snap.status, JobStatus::Done);
        assert_eq!(snap.result, Some(Json::Number(42.0)));
        assert_eq!(snap.error, None);
        assert_eq!(store.submitted(), 1);
        let counts = store.counts();
        assert_eq!((counts.queued, counts.running, counts.done, counts.failed), (0, 0, 1, 0));
    }

    #[test]
    fn failures_and_panics_are_recorded_not_fatal() {
        let store = JobStore::new(1);
        let failing = store.submit(|_| Err("bad input".to_string()));
        let panicking = store.submit(|_| panic!("boom"));
        let ok = store.submit(|_| Ok(Json::Bool(true)));
        assert_eq!(wait_done(&store, failing).error.as_deref(), Some("bad input"));
        assert_eq!(wait_done(&store, panicking).error.as_deref(), Some("job panicked"));
        assert_eq!(wait_done(&store, ok).status, JobStatus::Done);
        assert_eq!(store.counts().failed, 2);
    }

    #[test]
    fn finished_jobs_are_evicted_oldest_first_beyond_the_retention_cap() {
        let store = JobStore::with_retention(1, 2);
        let first = store.submit(|_| Ok(Json::Number(1.0)));
        wait_done(&store, first);
        let second = store.submit(|_| Ok(Json::Number(2.0)));
        wait_done(&store, second);
        let third = store.submit(|_| Ok(Json::Number(3.0)));
        wait_done(&store, third);
        assert!(store.get(first).is_none(), "oldest finished job must be evicted");
        assert!(store.get(second).is_some());
        assert!(store.get(third).is_some());
        // The submission counter is unaffected by eviction.
        assert_eq!(store.submitted(), 3);
        // An evicted job's event stream reports unknown, not empty.
        assert!(store.wait_events(first, 0, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn ids_are_unique_and_unknown_ids_are_none() {
        let store = JobStore::new(2);
        let a = store.submit(|_| Ok(Json::Null));
        let b = store.submit(|_| Ok(Json::Null));
        assert_ne!(a, b);
        assert!(store.get(u64::MAX).is_none());
        assert!(store.wait_events(u64::MAX, 0, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn event_log_runs_queued_to_terminal_in_order() {
        let store = JobStore::new(1);
        let id = store.submit(|sink| {
            sink.emit(&ProgressEvent::StageStarted { stage: "fit" });
            sink.emit(&ProgressEvent::ChainStep {
                chain: 0,
                step: 1,
                total_steps: 4,
                log_likelihood: f64::NAN,
            });
            sink.emit(&ProgressEvent::StageFinished { stage: "fit" });
            Ok(Json::Number(7.0))
        });
        wait_done(&store, id);
        let (log, terminal) = store.wait_events(id, 0, Duration::from_secs(5)).unwrap();
        assert!(terminal);
        let events = parse_log(&log);
        let kinds: Vec<String> = events.iter().map(event_kind).collect();
        assert_eq!(
            kinds,
            ["queued", "running", "stage_started", "chain_step", "stage_finished", "done"]
        );
        // Each line is the compact rendering of its document.
        for (line, event) in log.lines().zip(&events) {
            assert_eq!(line, event.to_compact_string());
        }
        // The terminal event embeds the same result the poll endpoint serves.
        assert_eq!(events.last().unwrap().get("result"), Some(&Json::Number(7.0)));
        // NaN log-likelihoods cross the wire as null.
        assert_eq!(events[3].get("log_likelihood"), Some(&Json::Null));
        // A cursor past the first four events sees only the tail, whole lines only.
        let cursor = offset_after(&store, id, 4);
        let (tail, terminal) = store.wait_events(id, cursor, Duration::from_secs(5)).unwrap();
        assert!(terminal);
        let kinds: Vec<String> = parse_log(&tail).iter().map(event_kind).collect();
        assert_eq!(kinds, ["stage_finished", "done"]);
        // A cursor at the end of a finished log reads an empty, terminal tail.
        let (rest, terminal) = store.wait_events(id, log.len(), Duration::from_secs(5)).unwrap();
        assert!(rest.is_empty() && terminal);
    }

    #[test]
    fn restored_jobs_log_queued_then_their_outcome() {
        let store = JobStore::new(1);
        let doc = Json::Object(vec![("theta".to_string(), Json::Number(0.5))]);
        store.restore_finished(3, Ok(doc.clone()));
        store.restore_finished(4, Err("bad \"spec\"".to_string()));
        let (log, terminal) = store.wait_events(3, 0, Duration::from_secs(1)).unwrap();
        assert!(terminal);
        assert_eq!(log, "{\"event\":\"queued\",\"job_id\":3}\n{\"event\":\"done\",\"result\":{\"theta\":0.5}}\n");
        assert_eq!(store.get(3).unwrap().result, Some(doc));
        let (log, _) = store.wait_events(4, 0, Duration::from_secs(1)).unwrap();
        let events = parse_log(&log);
        assert_eq!(events.iter().map(event_kind).collect::<Vec<_>>(), ["queued", "failed"]);
        assert_eq!(events[1].get("error").unwrap().as_str(), Some("bad \"spec\""));
        let counts = store.counts();
        assert_eq!((counts.done, counts.failed), (1, 1));
    }

    #[test]
    fn wait_events_blocks_until_events_arrive() {
        let store = JobStore::new(1);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let id = store.submit(move |sink| {
            release_rx.recv().unwrap();
            sink.push(Json::String("late".to_string()));
            Ok(Json::Null)
        });
        // Nothing beyond queued/running yet: a short wait times out empty and non-terminal.
        let cursor = offset_after(&store, id, 2);
        let (tail, terminal) = store.wait_events(id, cursor, Duration::from_millis(30)).unwrap();
        assert!(tail.is_empty() && !terminal);
        release_tx.send(()).unwrap();
        // Now the blocked wait must be woken by the push/completion, well before its timeout.
        let started = Instant::now();
        let (tail, _) = store.wait_events(id, cursor, Duration::from_secs(10)).unwrap();
        assert!(tail.starts_with("\"late\"\n"), "{tail:?}");
        assert!(started.elapsed() < Duration::from_secs(5), "condvar wake, not timeout");
    }

    #[test]
    fn dropping_the_store_waits_for_running_jobs() {
        let shared;
        {
            let store = JobStore::new(1);
            shared = Arc::clone(&store.shared);
            for _ in 0..8 {
                store.submit(|_| {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok(Json::Null)
                });
            }
        }
        let table = shared.table.lock().unwrap();
        assert!(table.jobs.values().all(|r| r.status == JobStatus::Done));
    }
}
