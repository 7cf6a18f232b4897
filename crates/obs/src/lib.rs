//! # act-obs — observability primitives for the ACT serving stack
//!
//! No crate registry is available in this build environment, so the
//! usual suspects (`hdrhistogram`, `prometheus`, `tracing`) are
//! hand-rolled here at the scale this repo actually needs:
//!
//! * [`Histogram`] — a **lock-free, mergeable, log-bucketed** value
//!   histogram: a fixed array of relaxed `AtomicU64` buckets, so the
//!   hot path is one `fetch_add` per recorded value and readers never
//!   block writers. [`HistogramSnapshot`] is the plain-data capture
//!   with p50/p90/p99/p999 extraction and a `merge()` mirroring the
//!   serve protocol's `CounterBlock::merge` — per-shard histograms sum
//!   bucket-wise into a fleet view with no loss beyond bucket width.
//! * [`TraceRing`] + [`Sampler`] — a bounded ring of structured trace
//!   events with seeded 1-in-N admission sampling, dumped as JSON
//!   lines (the serve DUMP op and the SIGINT drain both read it).
//! * [`PromText`] + [`MetricsServer`] — a Prometheus text-format
//!   (exposition format 0.0.4) renderer and a minimal `std::net` HTTP
//!   listener serving `GET /metrics`.
//!
//! Everything is `std`-only and `#![forbid(unsafe_code)]`.

#![forbid(unsafe_code)]

mod hist;
mod http;
mod prom;
mod trace;

pub use hist::{bucket_lower_bound, bucket_of, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use http::{scrape, MetricsServer};
pub use prom::PromText;
pub use trace::{Sampler, TraceEvent, TraceRing};
