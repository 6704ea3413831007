//! `fmossim-serve` — a long-running campaign server.
//!
//! This crate turns the offline [`fmossim_campaign::Campaign`] runner
//! into a service: clients `POST` a netlist + stimulus + fault
//! universe as JSON and get back a job id; campaigns run as shard
//! tasks on **one shared, fairly-scheduled worker pool** so total
//! simulation CPU stays bounded however many campaigns are in flight;
//! progress streams out live over Server-Sent Events; and the
//! finished v3 [`CampaignReport`](fmossim_campaign::CampaignReport)
//! is fetched from the status endpoint.
//!
//! The headline mechanism is the **good-tape cache**
//! ([`TapeCache`]): the good machine depends only on the circuit and
//! the stimulus, so recorded tapes are cached across campaigns keyed
//! by content hashes. A repeat submission replays the cached tape and
//! skips the record pass entirely (`tape_record_seconds == 0` in its
//! report).
//!
//! Everything is dependency-free `std`: a hand-rolled HTTP/1.1 layer
//! over [`std::net`] ([`http`]), a round-robin job-fair thread pool
//! ([`pool`]), and a tiny blocking client ([`client`]) for the CLI
//! and the end-to-end tests.
//!
//! See `docs/SERVER.md` for the endpoint reference, JSON schemas, and
//! SSE grammar, and [`server`] for the threading model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod client;
pub mod http;
pub mod job;
pub mod pool;
pub mod proto;
pub mod server;

pub use backend::{served_config, ServedBackend};
pub use cache::{TapeCache, TapeKey};
pub use client::{parse_sse, request, sse_events, HttpResponse};
pub use job::{format_job_id, parse_job_id, Job, JobStatus, JobTable};
pub use pool::{JobQueue, SharedPool};
pub use proto::{parse_submission, JobSpec, DEFAULT_SHARDS, MAX_SHARDS};
pub use server::{Server, ServerConfig};
