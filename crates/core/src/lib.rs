//! The emulation platform: configure and run hybrid-memory experiments.
//!
//! This crate is the top of the stack — the equivalent of the paper's
//! measurement harness. An [`Experiment`] names a [`Roster`], a collector
//! configuration, a machine profile (emulation vs simulation) and a seed.
//! The roster is either N identical instances of one workload at one seed
//! (the paper's multiprogramming, at most one per hardware context) or N
//! tenants drawn from a [`hemu_workloads::Mix`] (tenant `i` at seed
//! `seed + i`, contexts may be over-subscribed, every controller write is
//! attributed to its tenant). Running it:
//!
//! 1. builds the machine and one process + heap + workload per roster
//!    entry;
//! 2. runs a **warm-up iteration** (replay compilation's first iteration);
//! 3. synchronizes all entries at a **barrier**, resets the
//!    memory-controller counters, clocks and cache statistics;
//! 4. runs the **measured iteration** on one slice scheduler: each live
//!    entry runs up to `slice` steps (1 for instances, 64 for tenants by
//!    default) on the shared cache hierarchy, deferred submissions drain
//!    after every slice, and at each round edge the write-rate [`monitor`]
//!    samples the PCM socket's counters and the OS page manager (if any)
//!    runs its migration pass;
//! 5. leaves the caches warm and dirty — the measured interval's eviction
//!    traffic is the steady-state write stream, so nothing is flushed —
//!    and produces a [`RunReport`].
//!
//! # Examples
//!
//! ```no_run
//! use hemu_core::Experiment;
//! use hemu_heap::CollectorKind;
//! use hemu_workloads::WorkloadSpec;
//!
//! let report = Experiment::new(WorkloadSpec::by_name("lusearch").unwrap())
//!     .collector(CollectorKind::KgW)
//!     .instances(2)
//!     .run()?;
//! println!("PCM writes: {}, rate {:.1} MB/s", report.pcm_writes, report.pcm_write_rate_mbs);
//! # Ok::<(), hemu_types::HemuError>(())
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod lifetime;
pub mod monitor;
pub mod report;
pub mod restore;

pub use experiment::{Experiment, Roster, RunArtifacts};
pub use lifetime::{lifetime_years, LifetimeModel};
pub use monitor::{RateSample, WriteRateMonitor};
pub use report::{
    ConsolidationSummary, EnduranceSummary, PageWear, ProvenanceSummary, RunReport, TenantShare,
    WearSummary,
};
pub use restore::restore_run_report;
