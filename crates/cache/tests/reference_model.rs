//! The packed-metadata cache against a naive reference model.
//!
//! `Cache` packs per-set valid/dirty state into `u32` bitmasks and probes
//! via `trailing_zeros`; this suite drives it with long seeded
//! pseudo-random access streams and checks, access by access, that it
//! behaves exactly like the obvious scattered-per-way implementation —
//! same hits, same victims, same victim dirtiness, same final statistics.
//! Packing changed the representation, never the replacement policy.
//!
//! Dependency-free (seeded LCG, no proptest) so it runs in the hermetic
//! tier-1 build.

use hemu_cache::{Cache, CacheConfig, Hierarchy, HierarchyConfig, HitLevel, ShardedHierarchy};
use hemu_types::{AccessKind, ByteSize, LineAddr, CACHE_LINE};

/// Naive set-associative LRU model: per way, `Option<(tag, dirty, tick)>`.
struct NaiveCache {
    sets: usize,
    assoc: usize,
    ways: Vec<Option<(u64, bool, u64)>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    writebacks: u64,
}

impl NaiveCache {
    fn new(sets: usize, assoc: usize) -> Self {
        NaiveCache {
            sets,
            assoc,
            ways: vec![None; sets * assoc],
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            writebacks: 0,
        }
    }

    /// Returns `(hit, victim)` with the victim as `(line, dirty)`.
    fn access(&mut self, line: u64, is_write: bool) -> (bool, Option<(u64, bool)>) {
        self.tick += 1;
        let base = (line as usize % self.sets) * self.assoc;
        let set = &mut self.ways[base..base + self.assoc];

        if let Some(w) = set.iter().position(|s| s.map(|(t, _, _)| t) == Some(line)) {
            self.hits += 1;
            let (t, d, _) = set[w].expect("hit way is occupied");
            set[w] = Some((t, d || is_write, self.tick));
            return (true, None);
        }

        self.misses += 1;
        // First invalid way, else the stalest stamp (lowest way index
        // breaks ties — the strict `<` scan).
        let way = set.iter().position(|s| s.is_none()).unwrap_or_else(|| {
            let mut best = 0;
            for w in 1..set.len() {
                let stamp = |i: usize| set[i].map(|(_, _, s)| s).unwrap_or(0);
                if stamp(w) < stamp(best) {
                    best = w;
                }
            }
            best
        });
        let victim = set[way].map(|(t, d, _)| (t, d));
        if let Some((_, d)) = victim {
            self.evictions += 1;
            if d {
                self.writebacks += 1;
            }
        }
        set[way] = Some((line, is_write, self.tick));
        (false, victim)
    }
}

/// Drives both implementations with the same seeded stream and compares
/// every observable.
fn compare(seed: u64, sets: usize, assoc: usize, line_range: u64, ops: usize) {
    let size = ByteSize::new((sets * assoc * CACHE_LINE) as u64);
    let mut packed = Cache::new(CacheConfig::new("ref", size, assoc));
    let mut naive = NaiveCache::new(sets, assoc);

    let mut state = seed;
    for i in 0..ops {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let line = (state >> 24) % line_range;
        let is_write = state & 1 == 1;
        let kind = if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };

        let got = packed.access(LineAddr::new(line), kind);
        let (want_hit, want_victim) = naive.access(line, is_write);

        assert_eq!(
            got.hit, want_hit,
            "op {i} (line {line}, write={is_write}): hit status diverged"
        );
        assert_eq!(
            got.victim.map(|v| (v.line.raw(), v.dirty)),
            want_victim,
            "op {i} (line {line}, write={is_write}): victim diverged"
        );
    }

    let s = packed.stats();
    assert_eq!(s.hits, naive.hits, "hit totals diverged");
    assert_eq!(s.misses, naive.misses, "miss totals diverged");
    assert_eq!(s.evictions, naive.evictions, "eviction totals diverged");
    assert_eq!(s.writebacks, naive.writebacks, "writeback totals diverged");
}

#[test]
fn packed_matches_naive_small_hot_set() {
    // Heavy reuse: mostly hits, occasional conflict evictions.
    compare(42, 4, 4, 24, 20_000);
}

#[test]
fn packed_matches_naive_thrashing() {
    // Working set far beyond capacity: constant eviction pressure.
    compare(7, 8, 2, 4096, 20_000);
}

#[test]
fn packed_matches_naive_max_assoc() {
    // 21 ways is the cap (6-bit recency ranks pack into a u128); an odd
    // associativity also exercises the half-filled final tag word.
    compare(1234, 2, 21, 256, 20_000);
}

#[test]
fn packed_matches_naive_direct_mapped() {
    compare(99, 16, 1, 64, 20_000);
}

/// Drives the monolithic scalar hierarchy (the executable specification)
/// and the sharded batch pipeline with the same seeded random stream and
/// checks, access by access, that every observable is bit-identical: hit
/// level, fill, write-back lines with their provenance tags, and — at the
/// end — aggregate statistics plus the valid/dirty state of every line the
/// stream could have touched. Run at 1 and 4 resolution threads, so the
/// property also covers the deterministic-parallelism claim; threaded runs
/// use [`THREADED_BATCH`]-line batches so the worker pool really resolves
/// them.
fn compare_scalar_vs_batch(seed: u64, shard_bits: u32, threads: usize, batch_lines: usize) {
    // Small enough that streams thrash both levels, large enough that
    // back-invalidation and dirty-merge paths fire. L2: 32 sets x 2 ways;
    // LLC: 64 sets x 4 ways; 3 contexts exercise cross-context aliasing.
    let config = HierarchyConfig {
        contexts: 3,
        l2_size: ByteSize::new(32 * 2 * 64),
        l2_assoc: 2,
        llc_size: ByteSize::new(64 * 4 * 64),
        llc_assoc: 4,
    };
    const LINE_RANGE: u64 = 1024;
    let mut scalar = Hierarchy::new(config);
    let mut batch = ShardedHierarchy::new(config, shard_bits);
    scalar.enable_tags();
    batch.enable_tags();

    let mut state = seed;
    let mut stream: Vec<(usize, LineAddr, AccessKind, u8)> = Vec::new();
    for i in 0..30_000u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let line = LineAddr::new((state >> 24) % LINE_RANGE);
        let kind = if state & 1 == 1 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let tag = (state >> 8) as u8;
        stream.push(((i % 3) as usize, line, kind, tag));
    }

    let mut wb = Vec::new();
    for (batch_no, chunk) in stream.chunks(batch_lines).enumerate() {
        batch.begin_batch();
        for &(ctx, line, kind, tag) in chunk {
            batch.enqueue(ctx, line, kind, tag);
        }
        batch.resolve(threads);
        for (i, &(ctx, line, kind, tag)) in chunk.iter().enumerate() {
            let (lv_s, fill_s) = scalar.access_into(ctx, line, kind, tag, &mut wb);
            let (lv_b, fill_b, wbs_b) = batch.next_outcome(line);
            assert_eq!(
                (lv_s, fill_s),
                (lv_b, fill_b),
                "batch {batch_no} op {i}: hit level / fill diverged"
            );
            assert_eq!(
                wb.as_slice(),
                wbs_b,
                "batch {batch_no} op {i}: write-backs diverged"
            );
            assert_eq!(
                fill_s.is_some(),
                lv_s == HitLevel::Memory,
                "fills come exactly from memory-level misses"
            );
        }
    }

    // Final state: statistics and the residency/dirtiness of every
    // reachable line must agree between the two engines.
    assert_eq!(*scalar.llc().stats(), batch.llc_stats(), "LLC stats");
    for ctx in 0..3 {
        assert_eq!(
            *scalar.l2(ctx).stats(),
            batch.l2_stats(ctx),
            "L2 stats of ctx {ctx}"
        );
    }
    for raw in 0..LINE_RANGE {
        let line = LineAddr::new(raw);
        assert_eq!(
            scalar.llc().contains(line),
            batch.llc_contains(line),
            "LLC residency of line {raw}"
        );
        assert_eq!(
            scalar.llc().is_dirty(line),
            batch.llc_is_dirty(line),
            "LLC dirty bit of line {raw}"
        );
        for ctx in 0..3 {
            assert_eq!(
                scalar.l2(ctx).contains(line),
                batch.l2_contains(ctx, line),
                "L2 residency of line {raw} in ctx {ctx}"
            );
            assert_eq!(
                scalar.l2(ctx).is_dirty(line),
                batch.l2_is_dirty(ctx, line),
                "L2 dirty bit of line {raw} in ctx {ctx}"
            );
        }
    }
}

/// Lines per batch for the threaded cases. `ShardedHierarchy::resolve`
/// spawns workers only for batches of at least 8192 lines (its
/// `PARALLEL_MIN_LINES`) and resolves smaller ones inline at any thread
/// count; 10 000 cuts the 30 000-access stream into three batches that
/// all clear it.
const THREADED_BATCH: usize = 10_000;

#[test]
fn batch_pipeline_matches_scalar_sequential() {
    compare_scalar_vs_batch(0xDEAD_BEEF, 3, 1, 1023);
}

#[test]
fn batch_pipeline_matches_scalar_parallel() {
    compare_scalar_vs_batch(0xDEAD_BEEF, 3, 4, THREADED_BATCH);
}

#[test]
fn batch_pipeline_matches_scalar_single_shard() {
    // One shard degenerates to the monolithic layout internally; the
    // pipeline mechanics (queueing, outcome cursors) must still be exact.
    compare_scalar_vs_batch(77, 0, 2, 1023);
}

/// Runs `stream` through a fresh sharded pipeline, split into batches by
/// the cycle of `chunks`, and returns every per-access outcome plus the
/// final aggregate observables. Used by the flush-boundary invariance
/// property below.
fn run_partitioned(
    stream: &[(usize, LineAddr, AccessKind, u8)],
    chunks: &[usize],
) -> (Vec<(HitLevel, bool, usize)>, Vec<u64>) {
    let config = HierarchyConfig {
        contexts: 3,
        l2_size: ByteSize::new(32 * 2 * 64),
        l2_assoc: 2,
        llc_size: ByteSize::new(64 * 4 * 64),
        llc_assoc: 4,
    };
    let mut h = ShardedHierarchy::new(config, 3);
    h.enable_tags();
    let mut outcomes = Vec::with_capacity(stream.len());
    let mut pos = 0usize;
    let mut which = 0usize;
    while pos < stream.len() {
        let take = chunks[which % chunks.len()].min(stream.len() - pos);
        which += 1;
        let chunk = &stream[pos..pos + take];
        pos += take;
        h.begin_batch();
        for &(ctx, line, kind, tag) in chunk {
            h.enqueue(ctx, line, kind, tag);
        }
        h.resolve(2);
        for &(_, line, _, _) in chunk {
            let (lv, fill, wbs) = h.next_outcome(line);
            outcomes.push((lv, fill.is_some(), wbs.len()));
        }
    }
    let mut state = Vec::new();
    let stats = h.llc_stats();
    state.extend([stats.hits, stats.misses, stats.evictions, stats.writebacks]);
    for ctx in 0..3 {
        let s = h.l2_stats(ctx);
        state.extend([s.hits, s.misses, s.evictions, s.writebacks]);
    }
    for raw in 0..1024u64 {
        let line = LineAddr::new(raw);
        // Dirty queries return Option<bool> (None = not resident); fold
        // the tri-state into 2 bits so the whole line is one word.
        let dirty = |d: Option<bool>| d.map_or(0u64, |b| 1 + b as u64);
        let mut bits = (h.llc_contains(line) as u64) | dirty(h.llc_is_dirty(line)) << 1;
        for ctx in 0..3 {
            bits |= (h.l2_contains(ctx, line) as u64) << (3 + 3 * ctx);
            bits |= dirty(h.l2_is_dirty(ctx, line)) << (4 + 3 * ctx);
        }
        state.push(bits);
    }
    (outcomes, state)
}

/// Flush-boundary invariance: where a stream is cut into batches is
/// invisible — per-access outcomes (hit level, fill, write-back count),
/// aggregate statistics, and the final valid/dirty state of every line
/// are identical whether the stream arrives as one giant batch, as
/// single-access batches, or cut at arbitrary seeded boundaries. This is
/// the cache-layer half of the deferred-submission guarantee: the
/// machine's submission buffer may flush at any semantic boundary without
/// perturbing a single observable.
#[test]
fn batch_boundaries_are_invisible() {
    let mut state = 0xFEED_F00Du64;
    let mut stream: Vec<(usize, LineAddr, AccessKind, u8)> = Vec::new();
    for i in 0..30_000u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let line = LineAddr::new((state >> 24) % 1024);
        let kind = if state & 1 == 1 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        stream.push(((i % 3) as usize, line, kind, (state >> 8) as u8));
    }

    let whole = run_partitioned(&stream, &[stream.len()]);
    let singles = run_partitioned(&stream, &[1]);
    assert_eq!(whole.0, singles.0, "outcomes diverged at batch size 1");
    assert_eq!(whole.1, singles.1, "final state diverged at batch size 1");
    // Irregular seeded boundaries, including primes around the shard
    // queue/prefetch depths.
    let ragged = run_partitioned(&stream, &[1, 13, 4096, 257, 2, 8191, 31]);
    assert_eq!(whole.0, ragged.0, "outcomes diverged at ragged boundaries");
    assert_eq!(
        whole.1, ragged.1,
        "final state diverged at ragged boundaries"
    );
}
