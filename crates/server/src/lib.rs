//! `kronpriv-server` — a std-only HTTP/JSON service that serves private graph releases.
//!
//! The library workspace implements Mir & Wright's Algorithm 1; this crate puts it on the
//! network. Because the build environment has no crates.io access there is no tokio/hyper/axum
//! to build on, so every layer is hand-rolled on `std`:
//!
//! * [`http`] — a minimal HTTP/1.1 request reader / response writer over [`std::net`], with
//!   hard size limits,
//! * [`pool`] — a fixed-size worker thread pool with graceful drain-on-drop shutdown,
//! * [`jobs`] — the job store (submit → poll → fetch) that keeps long estimations off the
//!   connection threads, with a per-job event log streamers can follow,
//! * [`ledger`] — the per-dataset privacy-budget accountant: a cumulative (ε, δ) ledger that
//!   estimates debit atomically before execution and that refuses draws it cannot afford,
//! * [`datasets`] — named uploaded edge lists, each carrying its [`ledger`] for life,
//! * [`store`] — optional durability: an append-only record log plus periodic snapshot
//!   compaction under `--data-dir`, replayed on boot so jobs and datasets survive restarts,
//! * [`api`] — the wire request/response types, built with the `kronpriv-json` macros; untrusted
//!   fields land in `*Spec` types and pass explicit validation before touching the pipeline,
//! * [`router`] — the single route table: each request target is parsed once into a `Route`,
//!   which dispatch, the metrics' `path` label and the event-stream intercept all read; the
//!   original unversioned paths parse onto their `/api/v1/...` routes as deprecated aliases,
//! * [`server`] — the accept loop, connection handling (including the chunked event stream and
//!   the structured access log) and [`ServerHandle`] lifecycle,
//! * [`client`] — the tiny blocking HTTP client the integration tests and the `--probe` mode
//!   drive the server with.
//!
//! # Endpoints
//!
//! | Method & path                              | Purpose                                                        |
//! |--------------------------------------------|----------------------------------------------------------------|
//! | `GET /healthz`                             | status document: uptime, pool size, job and dataset counts     |
//! | `GET /metrics`                             | Prometheus text exposition of the process-global registry      |
//! | `POST /api/v1/estimate`                    | submit an Algorithm 1 job on an inline graph (edge list / SKG) |
//! | `GET /api/v1/jobs/{id}`                    | poll a job; carries the result document when finished          |
//! | `GET /api/v1/jobs/{id}/events`             | chunked NDJSON stream of the job's typed progress events       |
//! | `POST /api/v1/sample`                      | synchronously sample a synthetic graph from a public initiator |
//! | `GET /api/v1/datasets`                     | list datasets with their budget documents                      |
//! | `POST /api/v1/datasets`                    | upload a named edge list with an (ε, δ) budget                 |
//! | `GET /api/v1/datasets/{name}`              | fetch one dataset document                                     |
//! | `DELETE /api/v1/datasets/{name}`           | delete a dataset (and forget its ledger)                       |
//! | `POST /api/v1/datasets/{name}/estimate`    | submit a private estimate debited against the dataset's ledger |
//! | `GET /api/v1/datasets/{name}/budget`       | the dataset's budget document (limits, spent, remaining)       |
//!
//! The pre-versioning spellings `/api/estimate`, `/api/sample` and `/api/jobs/{id}[/events]`
//! remain as aliases until workspace version 0.2.0: same handlers, byte-identical bodies, plus
//! a `Deprecation: true` header.
//! See `API.md` at the repository root for request/response examples and the error-code table.
//!
//! # Reproducibility over the wire
//!
//! Every job is a pure function of its request document: one `StdRng` seeded from the request
//! `seed` drives the optional SKG realization and all privacy noise, and the JSON writer is
//! deterministic — identical requests produce byte-identical result documents. The same
//! contract is what makes crash recovery exact: replaying a persisted pending job re-runs it
//! from its spec and reproduces the original result bytes.
//!
//! ```
//! use kronpriv_server::{client, server::serve_ephemeral};
//!
//! let handle = serve_ephemeral(2, 1).unwrap();
//! let (status, body) = client::get(handle.addr(), "/healthz").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("kronpriv-server"));
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod datasets;
pub mod http;
pub mod jobs;
pub mod ledger;
pub mod pool;
pub mod router;
pub mod server;
pub mod store;

pub use jobs::{JobSnapshot, JobStatus, JobStore};
pub use server::{serve, serve_ephemeral, ServerConfig, ServerHandle};
