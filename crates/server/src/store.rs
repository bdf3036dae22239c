//! The durable store: an append-only record log plus periodic snapshot compaction under
//! `--data-dir`, replayed on boot.
//!
//! Layout inside the data dir:
//!
//! * `records.log` — one JSON object per line, each carrying a monotone `seq`. Record kinds:
//!   `dataset_put`, `dataset_delete`, `debit`, `job_submitted`, `job_finished`.
//! * `snapshot.json` — a full state image (`datasets`, `jobs`, `next_job_id`) tagged with the
//!   `last_seq` it covers. Written atomically (tmp file + rename) every `snapshot_every`
//!   appends, after which the log is truncated.
//!
//! Boot replay loads the snapshot (if any), then applies log records with `seq > last_seq` in
//! order. A truncated or garbled tail — the signature of a crash mid-append — is **dropped,
//! not fatal**: replay stops at the first unreadable line and serves everything before it.
//! Unknown record kinds on well-formed lines are skipped individually, so a newer server's
//! log does not brick an older one.
//!
//! Durability model: records are flushed to the OS on every append (write syscall per record;
//! the estimate path is seconds of compute per record, so this is never the bottleneck). The
//! debit record for an estimate is appended *before* its `job_submitted` record — if the
//! process dies between the two, the budget is spent with no job attached, which errs on the
//! safe side of the privacy guarantee.

use crate::datasets::{DatasetImage, DatasetStore};
use crate::jobs::JobImager;
use crate::ledger::BudgetLedger;
use kronpriv_json::{push_json_number, Json};
use kronpriv_obs::Registry;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Default number of log appends between snapshot compactions.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 64;

const LOG_FILE: &str = "records.log";
const SNAPSHOT_FILE: &str = "snapshot.json";
const SNAPSHOT_TMP: &str = "snapshot.json.tmp";

/// A job that was submitted but had not finished when the process stopped. Its spec replays
/// through the same validation/submission path as a live request; determinism (one seeded RNG
/// per job) makes the re-run produce the byte-identical result document.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// The job id it ran under (re-used on replay so clients' poll URLs stay valid).
    pub id: u64,
    /// The persisted job spec (parsed into `api::JobSpec` by the replay path).
    pub spec: Json,
}

/// A finished job restored from the store.
#[derive(Debug, Clone)]
pub struct FinishedJob {
    /// The job id.
    pub id: u64,
    /// `Ok(result)` for `Done`, `Err(message)` for `Failed`.
    pub outcome: Result<Json, String>,
}

/// Everything the boot replay recovered from the data dir.
#[derive(Debug, Default)]
pub struct Replay {
    /// Datasets with their ledgers, in name order.
    pub datasets: Vec<DatasetImage>,
    /// Finished jobs in id order.
    pub finished: Vec<FinishedJob>,
    /// Jobs to re-run, in id order.
    pub pending: Vec<PendingJob>,
    /// The largest job id ever assigned (seeds the job store's id counter).
    pub next_job_id: u64,
    /// Log records applied (snapshot state not included).
    pub replayed_records: u64,
    /// Log lines dropped as unreadable (truncated tail) or unknown.
    pub dropped_records: u64,
}

struct LogState {
    file: File,
    next_seq: u64,
    appends_since_snapshot: u64,
}

/// The persistence handle: appends records, compacts into snapshots, and replays on open.
pub struct Persistence {
    dir: PathBuf,
    snapshot_every: u64,
    inner: Mutex<LogState>,
}

impl Persistence {
    /// Opens (or initialises) the data dir and replays its contents.
    pub fn open(dir: &Path, snapshot_every: u64) -> io::Result<(Persistence, Replay)> {
        fs::create_dir_all(dir)?;
        let snapshot_every = snapshot_every.max(1);
        let mut state = ReplayState::default();
        let mut last_seq = 0u64;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if snapshot_path.exists() {
            match fs::read_to_string(&snapshot_path).ok().and_then(|t| Json::parse(&t).ok()) {
                Some(doc) => last_seq = state.apply_snapshot(&doc),
                None => eprintln!(
                    "kronpriv-store: unreadable snapshot at {}; replaying the log from scratch",
                    snapshot_path.display()
                ),
            }
        }

        let log_path = dir.join(LOG_FILE);
        let mut replayed = 0u64;
        let mut dropped = 0u64;
        let mut max_seq = last_seq;
        if log_path.exists() {
            let text = fs::read_to_string(&log_path)?;
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let record = match Json::parse(line) {
                    Ok(doc) => doc,
                    Err(_) => {
                        // A torn write: drop this line and everything after it.
                        dropped += (lines.len() - i) as u64;
                        break;
                    }
                };
                let seq = match field_u64(&record, "seq") {
                    Some(seq) => seq,
                    None => {
                        dropped += (lines.len() - i) as u64;
                        break;
                    }
                };
                if seq <= last_seq {
                    continue; // already covered by the snapshot
                }
                max_seq = max_seq.max(seq);
                if state.apply_record(&record) {
                    replayed += 1;
                } else {
                    dropped += 1; // well-formed line of an unknown kind: skip it alone
                }
            }
        }

        let registry = Registry::global();
        registry.counter("kronpriv_store_replayed_records_total", &[]).add(replayed);
        registry.counter("kronpriv_store_dropped_records_total", &[]).add(dropped);

        let file = OpenOptions::new().create(true).append(true).open(&log_path)?;
        let persistence = Persistence {
            dir: dir.to_path_buf(),
            snapshot_every,
            inner: Mutex::new(LogState { file, next_seq: max_seq, appends_since_snapshot: 0 }),
        };
        let mut replay = state.into_replay();
        replay.replayed_records = replayed;
        replay.dropped_records = dropped;
        Ok((persistence, replay))
    }

    /// Appends one record (the `seq` field is assigned here), compacting into a snapshot every
    /// `snapshot_every` appends. `image` is only invoked when compaction triggers; it must
    /// return the rendered `{next_job_id, datasets, jobs}` state image (see [`state_image`])
    /// and may take the dataset/job locks — callers therefore must not hold those locks while
    /// appending.
    ///
    /// I/O failures are reported to stderr and swallowed: an estimate service with a full disk
    /// degrades to in-memory behaviour rather than refusing traffic.
    pub fn record(&self, kind: &str, fields: Vec<(&str, Json)>, image: impl FnOnce() -> String) {
        if let Err(e) = self.try_record(kind, fields, image) {
            eprintln!("kronpriv-store: append failed ({e}); continuing in-memory");
        }
    }

    fn try_record(
        &self,
        kind: &str,
        fields: Vec<(&str, Json)>,
        image: impl FnOnce() -> String,
    ) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("store log poisoned");
        inner.next_seq += 1;
        let seq = inner.next_seq;
        let mut pairs = vec![
            ("record".to_string(), Json::String(kind.to_string())),
            ("seq".to_string(), Json::Number(seq as f64)),
        ];
        pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        let mut line = kronpriv_json::to_string(&Json::Object(pairs));
        line.push('\n');
        inner.file.write_all(line.as_bytes())?;
        inner.file.flush()?;
        let registry = Registry::global();
        registry.counter("kronpriv_store_records_total", &[]).inc();
        inner.appends_since_snapshot += 1;
        if inner.appends_since_snapshot >= self.snapshot_every {
            self.write_snapshot(&mut inner, seq, &image())?;
            registry.counter("kronpriv_store_snapshots_total", &[]).inc();
        }
        Ok(())
    }

    /// Forces a snapshot of the rendered state image now. Test-only: the server snapshots
    /// only from [`Persistence::record`], every `snapshot_every` appends.
    #[cfg(test)]
    fn snapshot_now(&self, image: &str) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("store log poisoned");
        let seq = inner.next_seq;
        self.write_snapshot(&mut inner, seq, image)
    }

    /// Writes the snapshot document: the state image object with `version` and `last_seq`
    /// prepended, streamed to the file without copying the image.
    fn write_snapshot(&self, inner: &mut LogState, last_seq: u64, image: &str) -> io::Result<()> {
        let members = image.strip_prefix('{').ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "the state image must be a JSON object")
        })?;
        let mut head = String::from("{\"version\":1,\"last_seq\":");
        push_json_number(&mut head, last_seq as f64);
        if members != "}" {
            head.push(',');
        }
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let mut file = File::create(&tmp)?;
        file.write_all(head.as_bytes())?;
        file.write_all(members.as_bytes())?;
        drop(file);
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // The snapshot covers everything in the log: start the log over.
        inner.file.set_len(0)?;
        inner.file.seek(SeekFrom::Start(0))?;
        inner.appends_since_snapshot = 0;
        Ok(())
    }
}

/// Renders the `{next_job_id, datasets, jobs}` state image the snapshot embeds — shared by
/// the request handlers and the job-completion hook (which has no `AppState` to call into).
/// The image is written straight from the borrowed job and dataset tables into one pre-sized
/// buffer: no result, spec or edge list is cloned on the way.
pub fn state_image(datasets: &DatasetStore, jobs: &JobImager) -> String {
    let mut image = String::with_capacity(datasets.image_len_hint() + jobs.image_len_hint());
    jobs.write_image(&mut image, |out| datasets.write_image(out));
    image
}

/// The state image built as a `Json` tree: the reference [`state_image`] is pinned against.
#[cfg(test)]
fn state_image_tree(datasets: &DatasetStore, jobs: &JobImager) -> Json {
    let dataset_docs: Vec<Json> = datasets.images().into_iter().map(|i| dataset_doc(&i)).collect();
    let (next_job_id, job_docs) = jobs.image_docs();
    Json::Object(vec![
        ("next_job_id".to_string(), Json::Number(next_job_id as f64)),
        ("datasets".to_string(), Json::Array(dataset_docs)),
        ("jobs".to_string(), Json::Array(job_docs)),
    ])
}

#[cfg(test)]
fn dataset_doc(image: &DatasetImage) -> Json {
    Json::Object(vec![
        ("name".to_string(), Json::String(image.name.clone())),
        ("edge_list".to_string(), Json::String(image.edge_text.clone())),
        ("nodes".to_string(), Json::Number(image.nodes as f64)),
        ("edges".to_string(), Json::Number(image.edges as f64)),
        ("epsilon_limit".to_string(), Json::Number(image.ledger.epsilon_limit)),
        ("delta_limit".to_string(), Json::Number(image.ledger.delta_limit)),
        ("epsilon_spent".to_string(), Json::Number(image.ledger.epsilon_spent)),
        ("delta_spent".to_string(), Json::Number(image.ledger.delta_spent)),
    ])
}

/// Replay accumulator: maps rebuilt from snapshot + log, then flattened into [`Replay`].
#[derive(Default)]
struct ReplayState {
    datasets: BTreeMap<String, DatasetImage>,
    jobs: BTreeMap<u64, JobReplay>,
    next_job_id: u64,
}

enum JobReplay {
    Pending(Json),
    Finished(Result<Json, String>),
}

impl ReplayState {
    /// Applies a snapshot document; returns the `last_seq` it covers.
    fn apply_snapshot(&mut self, doc: &Json) -> u64 {
        for entry in doc.get("datasets").and_then(Json::as_array).unwrap_or(&Vec::new()) {
            if let Some(image) = parse_dataset_doc(entry) {
                self.see_dataset(image);
            }
        }
        for entry in doc.get("jobs").and_then(Json::as_array).unwrap_or(&Vec::new()) {
            self.apply_snapshot_job(entry);
        }
        if let Some(next) = field_u64(doc, "next_job_id") {
            self.next_job_id = self.next_job_id.max(next);
        }
        field_u64(doc, "last_seq").unwrap_or(0)
    }

    fn apply_snapshot_job(&mut self, entry: &Json) {
        let id = match field_u64(entry, "job_id") {
            Some(id) => id,
            None => return,
        };
        self.next_job_id = self.next_job_id.max(id);
        let state = match entry.get("status").and_then(Json::as_str) {
            Some("done") => match entry.get("result") {
                Some(result) => JobReplay::Finished(Ok(result.clone())),
                None => return,
            },
            Some("failed") => {
                JobReplay::Finished(Err(field_str(entry, "error").unwrap_or_default()))
            }
            Some("pending") => match entry.get("spec") {
                Some(spec) => JobReplay::Pending(spec.clone()),
                None => return,
            },
            _ => return,
        };
        self.jobs.insert(id, state);
    }

    /// Applies one log record; `false` means the kind was not recognised.
    fn apply_record(&mut self, record: &Json) -> bool {
        match record.get("record").and_then(Json::as_str) {
            Some("dataset_put") => {
                if let Some(image) = parse_dataset_doc(record) {
                    self.see_dataset(image);
                }
                true
            }
            Some("dataset_delete") => {
                if let Some(name) = field_str(record, "name") {
                    self.datasets.remove(&name);
                }
                true
            }
            Some("debit") => {
                if let (Some(name), Some(epsilon), Some(delta)) = (
                    field_str(record, "name"),
                    record.get("epsilon").and_then(Json::as_f64),
                    record.get("delta").and_then(Json::as_f64),
                ) {
                    if let Some(dataset) = self.datasets.get_mut(&name) {
                        dataset.ledger.force_debit(epsilon, delta);
                    }
                }
                true
            }
            Some("job_submitted") => {
                if let (Some(id), Some(spec)) = (field_u64(record, "job_id"), record.get("spec")) {
                    self.next_job_id = self.next_job_id.max(id);
                    self.jobs.insert(id, JobReplay::Pending(spec.clone()));
                }
                true
            }
            Some("job_finished") => {
                if let Some(id) = field_u64(record, "job_id") {
                    self.next_job_id = self.next_job_id.max(id);
                    let outcome = match record.get("result") {
                        Some(result) => Ok(result.clone()),
                        None => Err(field_str(record, "error").unwrap_or_default()),
                    };
                    self.jobs.insert(id, JobReplay::Finished(outcome));
                }
                true
            }
            _ => false,
        }
    }

    fn see_dataset(&mut self, image: DatasetImage) {
        self.datasets.insert(image.name.clone(), image);
    }

    fn into_replay(self) -> Replay {
        let mut replay = Replay {
            datasets: self.datasets.into_values().collect(),
            next_job_id: self.next_job_id,
            ..Replay::default()
        };
        for (id, state) in self.jobs {
            match state {
                JobReplay::Pending(spec) => replay.pending.push(PendingJob { id, spec }),
                JobReplay::Finished(outcome) => replay.finished.push(FinishedJob { id, outcome }),
            }
        }
        replay
    }
}

fn parse_dataset_doc(doc: &Json) -> Option<DatasetImage> {
    Some(DatasetImage {
        name: field_str(doc, "name")?,
        edge_text: field_str(doc, "edge_list")?,
        nodes: field_u64(doc, "nodes")?,
        edges: field_u64(doc, "edges")?,
        ledger: BudgetLedger {
            epsilon_limit: doc.get("epsilon_limit").and_then(Json::as_f64)?,
            delta_limit: doc.get("delta_limit").and_then(Json::as_f64)?,
            epsilon_spent: doc.get("epsilon_spent").and_then(Json::as_f64).unwrap_or(0.0),
            delta_spent: doc.get("delta_spent").and_then(Json::as_f64).unwrap_or(0.0),
        },
    })
}

fn field_str(doc: &Json, key: &str) -> Option<String> {
    doc.get(key).and_then(Json::as_str).map(str::to_string)
}

fn field_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_f64).filter(|v| *v >= 0.0 && v.fract() == 0.0).map(|v| v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobStatus;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kronpriv-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn put_dataset_fields(name: &str, epsilon_limit: f64) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::String(name.to_string())),
            ("edge_list", Json::String("0 1\n1 2\n".to_string())),
            ("nodes", Json::Number(3.0)),
            ("edges", Json::Number(2.0)),
            ("epsilon_limit", Json::Number(epsilon_limit)),
            ("delta_limit", Json::Number(0.1)),
            ("epsilon_spent", Json::Number(0.0)),
            ("delta_spent", Json::Number(0.0)),
        ]
    }

    fn empty_image() -> String {
        "{\"next_job_id\":0,\"datasets\":[],\"jobs\":[]}".to_string()
    }

    #[test]
    fn records_replay_across_reopen() {
        let dir = temp_dir("replay");
        {
            let (store, replay) = Persistence::open(&dir, 1000).unwrap();
            assert!(replay.datasets.is_empty() && replay.pending.is_empty());
            store.record("dataset_put", put_dataset_fields("g", 2.0), empty_image);
            store.record(
                "debit",
                vec![
                    ("name", Json::String("g".to_string())),
                    ("epsilon", Json::Number(0.5)),
                    ("delta", Json::Number(0.01)),
                ],
                empty_image,
            );
            store.record(
                "job_submitted",
                vec![
                    ("job_id", Json::Number(1.0)),
                    ("spec", Json::Object(vec![("seed".to_string(), Json::Number(7.0))])),
                ],
                empty_image,
            );
        }
        let (_store, replay) = Persistence::open(&dir, 1000).unwrap();
        assert_eq!(replay.replayed_records, 3);
        assert_eq!(replay.dropped_records, 0);
        assert_eq!(replay.datasets.len(), 1);
        let dataset = &replay.datasets[0];
        assert_eq!(dataset.name, "g");
        assert!((dataset.ledger.epsilon_spent - 0.5).abs() < 1e-12);
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0].id, 1);
        assert_eq!(replay.next_job_id, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped_not_fatal() {
        let dir = temp_dir("torn");
        {
            let (store, _) = Persistence::open(&dir, 1000).unwrap();
            store.record("dataset_put", put_dataset_fields("kept", 1.0), empty_image);
        }
        // Simulate a crash mid-append: a torn, unparseable tail record.
        let log = dir.join(LOG_FILE);
        let mut file = OpenOptions::new().append(true).open(&log).unwrap();
        file.write_all(b"{\"record\":\"debit\",\"seq\":2,\"name\":\"kept\",\"eps").unwrap();
        drop(file);
        let (_store, replay) = Persistence::open(&dir, 1000).unwrap();
        assert_eq!(replay.replayed_records, 1);
        assert_eq!(replay.dropped_records, 1);
        assert_eq!(replay.datasets.len(), 1, "the intact record before the tear survives");
        assert_eq!(replay.datasets[0].ledger.epsilon_spent, 0.0, "the torn debit is dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compaction_truncates_the_log_and_replays_identically() {
        let dir = temp_dir("compact");
        {
            let (store, _) = Persistence::open(&dir, 2).unwrap();
            let image = || {
                Json::Object(vec![
                    ("next_job_id".to_string(), Json::Number(0.0)),
                    (
                        "datasets".to_string(),
                        Json::Array(vec![Json::Object(
                            put_dataset_fields("snap", 3.0)
                                .into_iter()
                                .map(|(k, v)| (k.to_string(), v))
                                .collect(),
                        )]),
                    ),
                    ("jobs".to_string(), Json::Array(Vec::new())),
                ])
                .to_compact_string()
            };
            store.record("dataset_put", put_dataset_fields("snap", 3.0), image);
            store.record("dataset_put", put_dataset_fields("snap", 3.0), image); // triggers
            assert_eq!(fs::read_to_string(dir.join(LOG_FILE)).unwrap(), "");
            assert!(dir.join(SNAPSHOT_FILE).exists());
            // Post-snapshot records land in the fresh log with continuing seq numbers.
            store.record(
                "debit",
                vec![
                    ("name", Json::String("snap".to_string())),
                    ("epsilon", Json::Number(1.0)),
                    ("delta", Json::Number(0.01)),
                ],
                image,
            );
        }
        let (_store, replay) = Persistence::open(&dir, 2).unwrap();
        assert_eq!(replay.datasets.len(), 1);
        assert!((replay.datasets[0].ledger.epsilon_spent - 1.0).abs() < 1e-12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_finished_supersedes_pending_and_keeps_warnings() {
        let dir = temp_dir("finish");
        {
            let (store, _) = Persistence::open(&dir, 1000).unwrap();
            // A record as older binaries wrote it, with a `warnings` array: still read.
            store.record(
                "job_submitted",
                vec![
                    ("job_id", Json::Number(4.0)),
                    ("warnings", Json::Array(vec![Json::String("w".to_string())])),
                    ("spec", Json::Object(Vec::new())),
                ],
                empty_image,
            );
            store.record(
                "job_finished",
                vec![("job_id", Json::Number(4.0)), ("result", Json::Number(42.0))],
                empty_image,
            );
        }
        let (_store, replay) = Persistence::open(&dir, 1000).unwrap();
        assert!(replay.pending.is_empty());
        assert_eq!(replay.finished.len(), 1);
        assert_eq!(replay.finished[0].outcome, Ok(Json::Number(42.0)));
        assert_eq!(replay.next_job_id, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rendered_state_image_is_byte_equal_to_the_tree_built_one() {
        use crate::jobs::JobStore;
        let datasets = DatasetStore::new();
        let ledger = BudgetLedger::new(2.5, 0.125);
        let text = "# a \"quoted\" header\n0\t1\n1 2\r\n\\ 3\u{1}\n".to_string();
        datasets.create("tricky", text, 4, 3, ledger).unwrap();
        datasets.create("plain", "0 1\n".to_string(), 2, 1, ledger).unwrap();
        datasets.try_debit("plain", 0.1, 1e-9).unwrap();
        let jobs = JobStore::new(1);
        let result = Json::Object(vec![
            ("theta".to_string(), Json::Number(0.1 + 0.2)),
            ("note".to_string(), Json::String("tab\there".to_string())),
        ]);
        jobs.restore_finished(2, Ok(result));
        jobs.restore_finished(3, Err("failed:\n\"why\"".to_string()));
        let spec = Json::Object(vec![("seed".to_string(), Json::Number(7.0))]);
        let pending = jobs.create(None, Some(spec));
        let in_memory = jobs.create(None, None);
        let live = jobs.submit(|_| Ok(Json::Array(vec![Json::Bool(true)])));
        while !matches!(jobs.get(live).map(|j| j.status), Some(JobStatus::Done)) {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let imager = jobs.imager();
        let rendered = state_image(&datasets, &imager);
        let tree = state_image_tree(&datasets, &imager);
        assert_eq!(rendered, tree.to_compact_string());
        // Every job kind is present — except the in-memory pending job, which cannot replay.
        for id in [2, 3, pending, live] {
            assert!(rendered.contains(&format!("{{\"job_id\":{id},")), "job {id}: {rendered}");
        }
        assert!(!rendered.contains(&format!("\"job_id\":{in_memory},")), "{rendered}");

        // The snapshot file is the tree-built image with `version` and `last_seq` prepended.
        let dir = temp_dir("image");
        let (store, _) = Persistence::open(&dir, 1000).unwrap();
        store.snapshot_now(&rendered).unwrap();
        let mut doc = vec![
            ("version".to_string(), Json::Number(1.0)),
            ("last_seq".to_string(), Json::Number(0.0)),
        ];
        if let Json::Object(fields) = tree {
            doc.extend(fields);
        }
        let written = fs::read_to_string(dir.join(SNAPSHOT_FILE)).unwrap();
        assert_eq!(written, Json::Object(doc).to_compact_string());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_record_kinds_are_skipped_individually() {
        let dir = temp_dir("unknown");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(LOG_FILE),
            concat!(
                "{\"record\":\"from_the_future\",\"seq\":1,\"x\":1}\n",
                "{\"record\":\"dataset_put\",\"seq\":2,\"name\":\"g\",\"edge_list\":\"0 1\\n\",",
                "\"nodes\":2,\"edges\":1,\"epsilon_limit\":1.0,\"delta_limit\":0.1}\n",
            ),
        )
        .unwrap();
        let (_store, replay) = Persistence::open(&dir, 1000).unwrap();
        assert_eq!(replay.dropped_records, 1);
        assert_eq!(replay.datasets.len(), 1, "records after the unknown kind still apply");
        let _ = fs::remove_dir_all(&dir);
    }
}
