//! Seeded randomized tests for the managed heap.
//!
//! Every case is generated from a fixed seed with the in-tree
//! deterministic PRNG, so failures reproduce exactly and the suite runs on
//! every plain `cargo test` with zero external dependencies. Each case
//! replays an arbitrary mutator history: allocate, link, drop roots,
//! mutate, force full collections. Histories run in a 256 KiB nursery,
//! where collections are mostly forced full ones, and in a 2 KiB nursery,
//! where every history runs many minor collections (and, under KG-W,
//! observer collections).

use hemu_heap::heap::RootSlot;
use hemu_heap::object::{object_size, SpaceKind};
use hemu_heap::{CollectorKind, ManagedHeap, ObjectId};
use hemu_machine::{CtxId, Machine, MachineProfile};
use hemu_types::{ByteSize, DeterministicRng, SocketId};
use std::collections::HashSet;

/// The nursery of the full-collection histories.
const NURSERY: ByteSize = ByteSize::from_kib(256);
/// A nursery that fills every dozen or so allocations.
const TINY_NURSERY: ByteSize = ByteSize::from_kib(2);
/// The collectors every history runs under.
const KINDS: [CollectorKind; 3] = [
    CollectorKind::PcmOnly,
    CollectorKind::KgN,
    CollectorKind::KgW,
];

/// A mutator action the randomized tests replay. Objects are named by
/// how far back in the allocation log they are (0 = the newest, modulo the
/// log length), so long histories keep touching recent objects.
#[derive(Debug, Clone)]
enum Op {
    Alloc {
        refs: usize,
        data: usize,
        rooted: bool,
    },
    Link {
        a: usize,
        b: usize,
        slot: usize,
    },
    DropRoot {
        i: usize,
    },
    Mutate {
        a: usize,
    },
    FullGc,
}

/// Draws one op, weighted 5 alloc : 3 link : 2 drop-root : 2 mutate :
/// `full_gc` full-gc.
fn draw_op(rng: &mut DeterministicRng, full_gc: u64) -> Op {
    match rng.below(12 + full_gc) {
        0..=4 => Op::Alloc {
            refs: rng.below(4) as usize,
            data: rng.below(200) as usize,
            rooted: rng.chance(0.5),
        },
        5..=7 => Op::Link {
            a: rng.below(64) as usize,
            b: rng.below(64) as usize,
            slot: rng.below(4) as usize,
        },
        8..=9 => Op::DropRoot {
            i: rng.below(32) as usize,
        },
        10..=11 => Op::Mutate {
            a: rng.below(64) as usize,
        },
        _ => Op::FullGc,
    }
}

/// A history of up to `max_len` ops, one in 13 a forced full collection.
fn draw_ops(rng: &mut DeterministicRng, max_len: u64) -> Vec<Op> {
    let len = rng.range(1, max_len);
    (0..len).map(|_| draw_op(rng, 1)).collect()
}

/// A history of `len` mutator ops with one forced full collection in the
/// middle, so minor collections run before it and after it.
fn draw_history(rng: &mut DeterministicRng, len: u64) -> Vec<Op> {
    let mut ops: Vec<Op> = (0..len).map(|_| draw_op(rng, 0)).collect();
    ops.insert(ops.len() / 2, Op::FullGc);
    ops
}

/// The log index `k` allocations back from the newest of `len`.
fn back(len: usize, k: usize) -> usize {
    len - 1 - k % len
}

fn setup(kind: CollectorKind, nursery: ByteSize) -> (Machine, ManagedHeap) {
    let mut m = Machine::new(MachineProfile::emulation());
    let socket = if kind == CollectorKind::PcmOnly {
        SocketId::PCM
    } else {
        SocketId::DRAM
    };
    let proc = m.add_process(socket);
    let cfg = kind.config(nursery, ByteSize::from_mib(16));
    let heap = ManagedHeap::new(&mut m, proc, CtxId(0), cfg).unwrap();
    (m, heap)
}

/// The end state of a replayed history.
struct Replayed {
    m: Machine,
    heap: ManagedHeap,
    /// Every allocated object, in allocation order.
    log: Vec<ObjectId>,
    /// Size in bytes of each `log` entry.
    sizes: Vec<u64>,
    /// Held roots: index into `log` and the slot.
    roots: Vec<(usize, RootSlot)>,
}

/// Replays ops with the full-collection histories' nursery.
fn replay(kind: CollectorKind, ops: &[Op]) -> Replayed {
    replay_in(kind, NURSERY, ops)
}

fn replay_in(kind: CollectorKind, nursery: ByteSize, ops: &[Op]) -> Replayed {
    let (mut m, mut heap) = setup(kind, nursery);
    let mut log: Vec<ObjectId> = Vec::new();
    let mut sizes: Vec<u64> = Vec::new();
    let mut ref_counts: Vec<usize> = Vec::new();
    let mut data_sizes: Vec<usize> = Vec::new();
    let mut roots: Vec<(usize, RootSlot)> = Vec::new();
    for op in ops {
        match *op {
            Op::Alloc { refs, data, rooted } => {
                let o = heap.alloc(&mut m, refs, data).unwrap();
                log.push(o);
                sizes.push(object_size(refs, data) as u64);
                ref_counts.push(refs);
                data_sizes.push(data);
                if rooted {
                    roots.push((log.len() - 1, heap.new_root(Some(o))));
                }
            }
            Op::Link { a, b, slot } => {
                if log.is_empty() {
                    continue;
                }
                let (ai, bi) = (back(log.len(), a), back(log.len(), b));
                if ref_counts[ai] == 0 {
                    continue;
                }
                let (oa, ob) = (log[ai], log[bi]);
                if heap.is_live(oa) && heap.is_live(ob) {
                    heap.write_ref(&mut m, oa, slot % ref_counts[ai], Some(ob))
                        .unwrap();
                }
            }
            Op::DropRoot { i } => {
                if roots.is_empty() {
                    continue;
                }
                let (_, slot) = roots.swap_remove(i % roots.len());
                heap.drop_root(slot);
            }
            Op::Mutate { a } => {
                if log.is_empty() {
                    continue;
                }
                let i = back(log.len(), a);
                let o = log[i];
                if heap.is_live(o) && data_sizes[i] > 0 {
                    heap.write_data(&mut m, o, 0, 1).unwrap();
                }
            }
            Op::FullGc => heap.collect_full(&mut m).unwrap(),
        }
    }
    Replayed {
        m,
        heap,
        log,
        sizes,
        roots,
    }
}

/// Every object reachable from the held roots, found by reading reference
/// slots through the heap API.
///
/// # Panics
///
/// Panics with `label` if a reachable object is no longer live.
fn reachable_from_roots(r: &mut Replayed, label: &str) -> HashSet<ObjectId> {
    let mut reachable: HashSet<ObjectId> = HashSet::new();
    let mut stack: Vec<ObjectId> = r.roots.iter().map(|(i, _)| r.log[*i]).collect();
    while let Some(o) = stack.pop() {
        if !reachable.insert(o) {
            continue;
        }
        assert!(
            r.heap.is_live(o),
            "{label}: reachable object {o} was collected"
        );
        for slot in 0..r.heap.ref_slots(o) {
            stack.extend(r.heap.read_ref(&mut r.m, o, slot).unwrap());
        }
    }
    reachable
}

/// Rooted objects are always live, under every collector configuration.
#[test]
fn rooted_objects_never_die() {
    let mut rng = DeterministicRng::seeded(0x6865_6170_0001);
    for case in 0..24 {
        let ops = draw_ops(&mut rng, 120);
        for kind in KINDS {
            let r = replay(kind, &ops);
            for (idx, _) in &r.roots {
                assert!(
                    r.heap.is_live(r.log[*idx]),
                    "case {case}, {kind:?}: rooted object died"
                );
            }
        }
    }
}

/// After a full collection, the live set is exactly the set reachable from
/// roots (and boot objects): no floating garbage survives a full trace, and
/// nothing reachable is lost.
#[test]
fn full_gc_retains_exactly_the_reachable_set() {
    let mut rng = DeterministicRng::seeded(0x6865_6170_0002);
    for case in 0..24 {
        let ops = draw_ops(&mut rng, 120);
        let mut r = replay(CollectorKind::KgW, &ops);
        r.heap.collect_full(&mut r.m).unwrap();
        let reachable = reachable_from_roots(&mut r, &format!("case {case}"));
        assert_eq!(
            r.heap.live_objects(),
            reachable.len(),
            "case {case}: live set diverges from the reachable set after full GC"
        );
    }
}

/// GC pause accounting never goes backwards and is consistent with the
/// collection counters: collections imply pause cycles and vice versa.
#[test]
fn pause_accounting_tracks_collections() {
    let mut rng = DeterministicRng::seeded(0x6865_6170_0003);
    for case in 0..16 {
        let ops = draw_ops(&mut rng, 150);
        let r = replay(CollectorKind::KgW, &ops);
        let s = r.heap.stats();
        assert_eq!(
            s.total_gcs() > 0,
            s.pause_cycles > 0,
            "case {case}: {} GCs but {} pause cycles",
            s.total_gcs(),
            s.pause_cycles
        );
    }
}

/// Determinism: replaying the same ops gives identical traffic, timing, and
/// GC behaviour.
#[test]
fn replay_is_deterministic() {
    let mut rng = DeterministicRng::seeded(0x6865_6170_0004);
    for _case in 0..12 {
        let ops = draw_ops(&mut rng, 80);
        let r1 = replay(CollectorKind::KgW, &ops);
        let r2 = replay(CollectorKind::KgW, &ops);
        assert_eq!(r1.m.pcm_writes(), r2.m.pcm_writes());
        assert_eq!(r1.m.elapsed(), r2.m.elapsed());
        assert_eq!(r1.heap.stats().minor_gcs, r2.heap.stats().minor_gcs);
        assert_eq!(r1.heap.stats().pause_cycles, r2.heap.stats().pause_cycles);
    }
}

/// Minor collections keep every rooted and every reachable object, and
/// free exactly what they report: `live_objects()`/`live_bytes()` equal a
/// recount over the allocation log.
#[test]
fn minor_collections_keep_the_reachable_set_and_its_count() {
    let mut rng = DeterministicRng::seeded(0x6865_6170_0005);
    let (mut minors, mut observer_gcs) = (0, 0);
    for case in 0..12 {
        let ops = draw_history(&mut rng, 600);
        for kind in KINDS {
            let label = format!("case {case}, {kind:?}");
            let mut r = replay_in(kind, TINY_NURSERY, &ops);
            minors += r.heap.stats().minor_gcs;
            observer_gcs += r.heap.stats().observer_gcs;
            for (idx, _) in &r.roots {
                assert!(r.heap.is_live(r.log[*idx]), "{label}: rooted object died");
            }
            reachable_from_roots(&mut r, &label);
            let live: Vec<usize> = (0..r.log.len())
                .filter(|&i| r.heap.is_live(r.log[i]))
                .collect();
            assert_eq!(r.heap.live_objects(), live.len(), "{label}: live count");
            assert_eq!(
                r.heap.live_bytes().bytes(),
                live.iter().map(|&i| r.sizes[i]).sum::<u64>(),
                "{label}: live bytes"
            );
        }
    }
    assert!(minors >= 36 * 5, "only {minors} minor GCs in 36 histories");
    assert!(observer_gcs >= 12, "only {observer_gcs} observer GCs");
}

/// Space accounting: every live object's space is one its collector can
/// put it in. KG-N has no observer and no DRAM mature or large spaces.
#[test]
fn objects_live_only_in_plan_spaces() {
    let mut rng = DeterministicRng::seeded(0x6865_6170_0006);
    for case in 0..16 {
        let ops = draw_ops(&mut rng, 400);
        for nursery in [NURSERY, TINY_NURSERY] {
            let r = replay_in(CollectorKind::KgN, nursery, &ops);
            for &o in r.log.iter().filter(|&&o| r.heap.is_live(o)) {
                let s = r.heap.space_of(o);
                assert!(
                    matches!(
                        s,
                        SpaceKind::Nursery | SpaceKind::MaturePcm | SpaceKind::LargePcm
                    ),
                    "case {case}, {nursery}: KG-N object in unexpected space {s:?}"
                );
            }
        }
    }
}

/// `read_ref` panics on a slot past the object's reference fields instead
/// of returning another object's field.
#[test]
#[should_panic(expected = "ref slot 3 out of range")]
fn read_ref_out_of_range_is_guarded() {
    let (mut m, mut heap) = setup(CollectorKind::KgN, NURSERY);
    let o = heap.alloc(&mut m, 1, 8).unwrap();
    let _ = heap.read_ref(&mut m, o, 3);
}

/// One fixed history per collector, pinned across commits. The numbers
/// move when anything in the heap changes what the collector does or where
/// it puts objects, including the order in which freed table slots are
/// reused: `id_hash` hashes the ids the history was handed out.
#[test]
fn pinned_minor_gc_history() {
    // (pcm_writes bytes, elapsed cycles, minor_gcs, observer_gcs,
    // live_objects, id_hash)
    let want: [(u64, u64, u64, u64, usize, u64); 3] = [
        (0, 2_921_820, 80, 0, 374, 8_380_292_774_896_963_446),
        (0, 2_917_428, 80, 0, 374, 8_380_292_774_896_963_446),
        (0, 3_167_690, 80, 27, 313, 12_811_470_876_947_309_606),
    ];
    let ops = draw_history(&mut DeterministicRng::seeded(0x6865_6170_0007), 3000);
    for (kind, want) in KINDS.into_iter().zip(want) {
        let r = replay_in(kind, TINY_NURSERY, &ops);
        let s = r.heap.stats();
        let id_hash = r
            .log
            .iter()
            .fold(0u64, |h, o| (h ^ o.raw()).wrapping_mul(0x100_0000_01b3));
        let got = (
            r.m.pcm_writes().bytes(),
            r.m.elapsed().raw(),
            s.minor_gcs,
            s.observer_gcs,
            r.heap.live_objects(),
            id_hash,
        );
        assert_eq!(got, want, "{kind:?}: the pinned history changed");
    }
}
