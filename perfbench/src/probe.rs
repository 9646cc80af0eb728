//! Fixed-stream probes of the access kernel, one per layer boundary: the
//! whole machine (batched and per-access entry points), the set-sharded
//! resolver alone, and the monolithic cache hierarchy alone. Every probe
//! replays the same deterministic LCG stream, so their ns/line figures
//! compare directly.

use crate::metrics::{median, Values};
use hemu_cache::{Hierarchy, HierarchyConfig, ShardedHierarchy, DEFAULT_SHARD_BITS};
use hemu_machine::{CtxId, Machine, MachineProfile};
use hemu_types::{AccessKind, Addr, LineAddr, MemoryAccess, Result, SocketId};
use std::hint::black_box;
use std::time::Instant;

/// Multi-line accesses per probe; each touches 4 cache lines.
const OPS: u64 = 1 << 19;
/// Working set, larger than the 20 MiB LLC so the stream misses and
/// writes back as well as hits.
const REGION: u64 = 32 << 20;
/// Accesses per `Machine::access_batch` call.
const BATCH: usize = 4096;
/// Bytes per access.
const ACCESS_BYTES: u64 = 256;
/// Hardware contexts the stream rotates through.
const CONTEXTS: u64 = 4;

/// Host nanoseconds per simulated line access of each probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbeTimes {
    pub access_batch: f64,
    pub access: f64,
    pub shard_resolve: f64,
    pub hierarchy: f64,
}

struct Op {
    ctx: u64,
    addr: u64,
    write: bool,
}

fn stream() -> impl Iterator<Item = Op> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..OPS).map(move |i| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        Op {
            ctx: i % CONTEXTS,
            addr: (state >> 16) % (REGION - ACCESS_BYTES),
            write: i % 4 == 0,
        }
    })
}

impl Op {
    fn access(&self) -> MemoryAccess {
        let addr = Addr::new(self.addr);
        if self.write {
            MemoryAccess::write(addr, ACCESS_BYTES as u32)
        } else {
            MemoryAccess::read(addr, ACCESS_BYTES as u32)
        }
    }

    fn kind(&self) -> AccessKind {
        if self.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    fn lines(&self) -> impl Iterator<Item = u64> {
        self.addr / 64..=(self.addr + ACCESS_BYTES - 1) / 64
    }
}

/// Runs every probe once.
///
/// # Errors
///
/// Propagates a machine access failure (none occur on a healthy build).
pub fn run() -> Result<ProbeTimes> {
    Ok(ProbeTimes {
        access_batch: machine_probe(true)?,
        access: machine_probe(false)?,
        shard_resolve: shard_probe(),
        hierarchy: hierarchy_probe(),
    })
}

/// Sets each probe's metric to its median over `runs`.
pub fn layer_values(runs: &[ProbeTimes], v: &mut Values) {
    let med = |f: fn(&ProbeTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    v.set("machine.access_batch_ns_per_line", med(|p| p.access_batch));
    v.set("machine.access_ns_per_line", med(|p| p.access));
    v.set("cache.shard_resolve_ns_per_line", med(|p| p.shard_resolve));
    v.set("cache.hierarchy_ns_per_line", med(|p| p.hierarchy));
}

fn machine_probe(batched: bool) -> Result<f64> {
    let mut m = Machine::new(MachineProfile::emulation());
    let p = m.add_process(SocketId::DRAM);
    let ops: Vec<(CtxId, _, MemoryAccess)> = stream()
        .map(|op| (CtxId(op.ctx as usize), p, op.access()))
        .collect();
    let t0 = Instant::now();
    if batched {
        for chunk in ops.chunks(BATCH) {
            m.access_batch(chunk)?;
        }
    } else {
        for &(ctx, proc, access) in &ops {
            m.access(ctx, proc, access)?;
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    Ok(ns / m.stats().line_accesses as f64)
}

fn line_stream() -> Vec<(usize, LineAddr, AccessKind)> {
    let mut lines = Vec::new();
    for op in stream() {
        let kind = op.kind();
        lines.extend(
            op.lines()
                .map(|l| (op.ctx as usize, LineAddr::new(l), kind)),
        );
    }
    lines
}

fn shard_probe() -> f64 {
    let lines = line_stream();
    let mut sh = ShardedHierarchy::new(HierarchyConfig::e5_2650l(8), DEFAULT_SHARD_BITS);
    let mut resolve_ns = 0u128;
    let mut fills = 0u64;
    for chunk in lines.chunks(BATCH * 4) {
        sh.begin_batch();
        for &(ctx, line, kind) in chunk {
            sh.enqueue(ctx, line, kind, 0);
        }
        let t = Instant::now();
        sh.resolve(1);
        resolve_ns += t.elapsed().as_nanos();
        for &(_, line, _) in chunk {
            fills += sh.next_outcome(line).1.is_some() as u64;
        }
    }
    black_box(fills);
    resolve_ns as f64 / lines.len() as f64
}

fn hierarchy_probe() -> f64 {
    let lines = line_stream();
    let mut h = Hierarchy::new(HierarchyConfig::e5_2650l(8));
    let mut wb = Vec::with_capacity(4);
    let mut fills = 0u64;
    let t0 = Instant::now();
    for &(ctx, line, kind) in &lines {
        fills += h.access_into(ctx, line, kind, 0, &mut wb).1.is_some() as u64;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    black_box(fills);
    ns / lines.len() as f64
}
