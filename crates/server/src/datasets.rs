//! Named, budget-accounted datasets — the resources behind `/api/v1/datasets`.
//!
//! A dataset is uploaded **once** (its SNAP edge list stays server-side and is never served
//! back) and estimated **many** times; every estimate draws from the dataset's cumulative
//! `(ε, δ)` [`BudgetLedger`]. The store is a name-ordered map behind one mutex — dataset
//! operations are metadata-sized, so a single lock is never contended by estimation work —
//! and is cheaply cloneable (`Arc` inside) so the persistence layer's snapshot hook can read
//! it without holding a reference to the whole `AppState`.

use crate::ledger::{BudgetLedger, BudgetRefusal};
use kronpriv_json::{push_json_number, push_json_str};
use kronpriv_obs::Registry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Upper bound on a dataset name's length.
pub const MAX_NAME_LEN: usize = 64;

/// Whether `name` is a well-formed dataset name: 1–64 chars of `[A-Za-z0-9._-]`, starting
/// with an alphanumeric. The grammar keeps names path-safe (they appear in URLs) and keeps
/// the metric/label surface clean.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= MAX_NAME_LEN
        && matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-')
}

/// One stored dataset: the sensitive edge list plus released metadata and the ledger.
#[derive(Debug, Clone)]
struct Dataset {
    /// The uploaded SNAP edge-list text. Server-side only: no endpoint ever returns it.
    edge_text: String,
    nodes: u64,
    edges: u64,
    ledger: BudgetLedger,
}

/// Released (non-sensitive) metadata of one dataset — everything an API response may carry.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMeta {
    /// The dataset name.
    pub name: String,
    /// Node count of the uploaded graph.
    pub nodes: u64,
    /// Undirected edge count of the uploaded graph.
    pub edges: u64,
    /// The ledger state at snapshot time.
    pub ledger: BudgetLedger,
}

/// A full dataset image including the edge-list text — only the persistence layer sees these
/// (the data dir is the same trust domain as process memory).
#[derive(Debug, Clone)]
pub struct DatasetImage {
    /// The dataset name.
    pub name: String,
    /// The uploaded SNAP edge-list text.
    pub edge_text: String,
    /// Node count of the uploaded graph.
    pub nodes: u64,
    /// Undirected edge count of the uploaded graph.
    pub edges: u64,
    /// The ledger state.
    pub ledger: BudgetLedger,
}

/// Why a dataset could not be created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CreateError {
    /// A dataset of that name already exists (creation is not an upsert: silently replacing a
    /// dataset would silently reset its ledger).
    Exists,
}

/// Why a budget debit failed.
#[derive(Debug, Clone, PartialEq)]
pub enum DebitError {
    /// No dataset of that name.
    NoSuchDataset,
    /// The draw does not fit the remaining budget; carries the remainder for the 429 document.
    Refused(BudgetRefusal),
}

/// The name-ordered dataset map. `Clone` shares the underlying storage.
#[derive(Debug, Clone, Default)]
pub struct DatasetStore {
    inner: Arc<Mutex<BTreeMap<String, Dataset>>>,
}

impl DatasetStore {
    /// An empty store.
    pub fn new() -> Self {
        DatasetStore::default()
    }

    /// Creates a dataset, failing if the name is taken. `nodes`/`edges` are the counts of the
    /// already-validated edge list.
    pub fn create(
        &self,
        name: &str,
        edge_text: String,
        nodes: u64,
        edges: u64,
        ledger: BudgetLedger,
    ) -> Result<(), CreateError> {
        let mut map = self.lock();
        if map.contains_key(name) {
            return Err(CreateError::Exists);
        }
        map.insert(name.to_string(), Dataset { edge_text, nodes, edges, ledger });
        let registry = Registry::global();
        registry.counter("kronpriv_datasets_created_total", &[]).inc();
        registry.gauge("kronpriv_datasets", &[]).set(map.len() as u64);
        Ok(())
    }

    /// Restores one dataset image verbatim (boot replay): overwrites any existing entry and
    /// does not count towards the created/deleted traffic counters.
    pub fn restore(&self, image: DatasetImage) {
        let mut map = self.lock();
        map.insert(
            image.name,
            Dataset {
                edge_text: image.edge_text,
                nodes: image.nodes,
                edges: image.edges,
                ledger: image.ledger,
            },
        );
        Registry::global().gauge("kronpriv_datasets", &[]).set(map.len() as u64);
    }

    /// Deletes a dataset; `false` if it did not exist. Deleting a dataset forgets its ledger —
    /// the operator is asserting the data itself is gone, so there is no budget left to track.
    pub fn remove(&self, name: &str) -> bool {
        let mut map = self.lock();
        let removed = map.remove(name).is_some();
        if removed {
            let registry = Registry::global();
            registry.counter("kronpriv_datasets_deleted_total", &[]).inc();
            registry.gauge("kronpriv_datasets", &[]).set(map.len() as u64);
        }
        removed
    }

    /// The released metadata of one dataset.
    pub fn meta(&self, name: &str) -> Option<DatasetMeta> {
        self.lock().get(name).map(|d| DatasetMeta {
            name: name.to_string(),
            nodes: d.nodes,
            edges: d.edges,
            ledger: d.ledger,
        })
    }

    /// The stored edge-list text (server-side use only: job materialization).
    pub fn edge_text(&self, name: &str) -> Option<String> {
        self.lock().get(name).map(|d| d.edge_text.clone())
    }

    /// Released metadata of every dataset, in name order (deterministic listing).
    pub fn list(&self) -> Vec<DatasetMeta> {
        self.lock()
            .iter()
            .map(|(name, d)| DatasetMeta {
                name: name.clone(),
                nodes: d.nodes,
                edges: d.edges,
                ledger: d.ledger,
            })
            .collect()
    }

    /// Number of datasets (reported by `/healthz`).
    pub fn count(&self) -> u64 {
        self.lock().len() as u64
    }

    /// Atomically debits `(epsilon, delta)` from the named dataset's ledger, refusing without
    /// spending anything if the draw does not fit.
    pub fn try_debit(&self, name: &str, epsilon: f64, delta: f64) -> Result<(), DebitError> {
        let mut map = self.lock();
        let dataset = map.get_mut(name).ok_or(DebitError::NoSuchDataset)?;
        let registry = Registry::global();
        match dataset.ledger.try_debit(epsilon, delta) {
            Ok(()) => {
                registry.counter("kronpriv_ledger_debits_total", &[]).inc();
                Ok(())
            }
            Err(refusal) => {
                registry.counter("kronpriv_ledger_refusals_total", &[]).inc();
                Err(DebitError::Refused(refusal))
            }
        }
    }

    /// An upper estimate of the bytes [`DatasetStore::write_image`] renders, to pre-size the
    /// snapshot buffer (escapes can grow an edge list by its newline count).
    pub(crate) fn image_len_hint(&self) -> usize {
        let escaped = |text: &str| text.len() + text.len() / 4;
        self.lock().iter().map(|(name, d)| 256 + escaped(name) + escaped(&d.edge_text)).sum()
    }

    /// Renders every dataset's full image, edge list included, as the snapshot's `datasets`
    /// array in name order, straight from the map.
    pub(crate) fn write_image(&self, out: &mut String) {
        out.push('[');
        for (i, (name, d)) in self.lock().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_str(out, name);
            out.push_str(",\"edge_list\":");
            push_json_str(out, &d.edge_text);
            for (key, value) in [
                ("nodes", d.nodes as f64),
                ("edges", d.edges as f64),
                ("epsilon_limit", d.ledger.epsilon_limit),
                ("delta_limit", d.ledger.delta_limit),
                ("epsilon_spent", d.ledger.epsilon_spent),
                ("delta_spent", d.ledger.delta_spent),
            ] {
                out.push_str(",\"");
                out.push_str(key);
                out.push_str("\":");
                push_json_number(out, value);
            }
            out.push('}');
        }
        out.push(']');
    }

    /// Full images of every dataset, in name order — the input of the tree-built reference
    /// image the snapshot renderer is pinned against.
    #[cfg(test)]
    pub(crate) fn images(&self) -> Vec<DatasetImage> {
        self.lock()
            .iter()
            .map(|(name, d)| DatasetImage {
                name: name.clone(),
                edge_text: d.edge_text.clone(),
                nodes: d.nodes,
                edges: d.edges,
                ledger: d.ledger,
            })
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Dataset>> {
        self.inner.lock().expect("dataset store poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> BudgetLedger {
        BudgetLedger::new(1.0, 0.1)
    }

    #[test]
    fn create_get_delete_lifecycle() {
        let store = DatasetStore::new();
        store.create("g1", "0 1\n".into(), 2, 1, ledger()).unwrap();
        assert_eq!(store.create("g1", "2 3\n".into(), 2, 1, ledger()), Err(CreateError::Exists));
        let meta = store.meta("g1").unwrap();
        assert_eq!((meta.nodes, meta.edges), (2, 1));
        assert_eq!(store.edge_text("g1").as_deref(), Some("0 1\n"));
        assert_eq!(store.count(), 1);
        assert!(store.remove("g1"));
        assert!(!store.remove("g1"));
        assert!(store.meta("g1").is_none());
    }

    #[test]
    fn listing_is_name_ordered() {
        let store = DatasetStore::new();
        for name in ["zeta", "alpha", "mid"] {
            store.create(name, String::new(), 0, 0, ledger()).unwrap();
        }
        let names: Vec<String> = store.list().into_iter().map(|m| m.name).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn debits_are_atomic_per_dataset() {
        let store = DatasetStore::new();
        store.create("g", String::new(), 0, 0, ledger()).unwrap();
        assert!(store.try_debit("g", 0.6, 0.05).is_ok());
        match store.try_debit("g", 0.6, 0.01) {
            Err(DebitError::Refused(refusal)) => {
                assert!((refusal.remaining_epsilon - 0.4).abs() < 1e-9, "{refusal:?}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        // The refused draw spent nothing.
        assert!((store.meta("g").unwrap().ledger.epsilon_spent - 0.6).abs() < 1e-12);
        assert_eq!(store.try_debit("nope", 0.1, 0.01), Err(DebitError::NoSuchDataset));
    }

    #[test]
    fn clones_share_storage() {
        let store = DatasetStore::new();
        let view = store.clone();
        store.create("shared", String::new(), 0, 0, ledger()).unwrap();
        assert!(view.meta("shared").is_some());
    }

    #[test]
    fn name_grammar() {
        for good in ["a", "graph-1", "ca.AstroPh", "x_y", &"n".repeat(64)] {
            assert!(valid_name(good), "{good:?}");
        }
        for bad in ["", "-lead", ".hidden", "has space", "sl/ash", "é", &"n".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }
}
