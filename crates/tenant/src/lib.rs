//! Multi-tenant consolidation: co-scheduling N mutator tenants onto one
//! shared emulated machine.
//!
//! The paper's experiments run one workload (possibly multiple instances
//! of it) per machine. Consolidation asks the datacenter question instead:
//! what happens to per-tenant PCM write rates when *different* managed
//! workloads are consolidated onto the same sockets — sharing the
//! inclusive LLC, the QPI link and the PCM write budget?
//!
//! Both questions run on the one runner, [`hemu_core::Experiment`], with a
//! different [`hemu_core::Roster`]: a `Roster::Tenants` roster draws N
//! tenants (each its own process, heap and workload) from a [`Mix`] with a
//! per-tenant RNG seed, time-multiplexes them onto the machine's M hardware contexts in
//! 64-step slices, and attributes every memory-controller line write to
//! the tenant owning the written frame. Per-tenant counts sum exactly to
//! the global controller counters, so consolidation reports compose with
//! every other measurement axis. This crate keeps the consolidation names
//! for those pieces.
//!
//! # Examples
//!
//! ```no_run
//! use hemu_tenant::{ConsolidationRun, Mix};
//!
//! let report = ConsolidationRun::new(Mix::Dacapo, 4).run()?;
//! let c = report.consolidation.expect("consolidated runs carry shares");
//! for t in &c.per_tenant {
//!     println!("tenant {} ({}): {} PCM line writes", t.id, t.workload, t.pcm_write_lines);
//! }
//! # Ok::<(), hemu_types::HemuError>(())
//! ```

#![warn(missing_docs)]

use hemu_core::{Experiment, Roster};
pub use hemu_workloads::{Mix, TenantSpec};

/// The consolidation entry point: a namespace (it has no values) whose
/// constructor builds the [`Experiment`] for a tenant roster.
#[derive(Debug)]
pub enum ConsolidationRun {}

impl ConsolidationRun {
    /// An experiment over `tenants` tenants drawn from `mix`, with the
    /// consolidation defaults: 64-step slices, PCM-Only collector,
    /// emulation profile, base seed 42 (tenant `i` runs at `seed + i`).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(mix: Mix, tenants: usize) -> Experiment {
        Experiment::with_roster(Roster::Tenants(mix, tenants))
    }
}
