//! The arbitrary-partial-key query front-end (§4.3).
//!
//! At the end of a measurement window the control plane builds a `(Full
//! Key, Size)` table from the sketch's records (Step 3 of Figure 1) and
//! answers partial-key queries by aggregation (Step 4) — the moral
//! equivalent of
//!
//! ```sql
//! SELECT g(k_F), SUM(Size) FROM table GROUP BY g(k_F)
//! ```
//!
//! where `g` is the partial-key projection of Definition 1. Because the
//! underlying per-flow estimates are unbiased (Lemma 3/4), the grouped
//! sums are unbiased estimates of partial-key flow sizes — the property
//! single-key full-key sketches lack (§2.3, Figure 18b).
//!
//! # The query-plane engine
//!
//! Queries are a performance surface, not an afterthought: an HHH run
//! asks for 33 (1-d) or 1089 (2-d) partial keys of the *same* table.
//! Three mechanisms keep that cheap, all bit-identical to the naive
//! per-spec scan:
//!
//! - **Compiled projections** ([`traffic::Projector`]): each spec's
//!   `g(·)` is lowered once into a branch-free byte gather-and-mask
//!   plan, so the per-row cost is a handful of byte moves instead of a
//!   `FiveTuple` decode/re-encode round trip.
//! - **Single-pass multi-spec aggregation** ([`FlowTable::query_multi`]):
//!   N specs are answered in one scan over the rows with N compiled
//!   projectors, paying the row traversal once — the right shape when
//!   the row source is expensive to traverse. For an in-memory table,
//!   hashing dominates traversal, so [`FlowTable::query_all`] scans
//!   unrelated specs per-spec instead (one hot result map at a time
//!   beats interleaved inserts into N maps).
//! - **Hierarchy rollup** ([`FlowTable::query_rollup`]): when one spec
//!   is a partial key of another *in the same query set*, its result is
//!   aggregated from the ancestor's (much smaller) result map instead
//!   of rescanning the table. Projection composes (`g_{P2←F} =
//!   g_{P2←P1} ∘ g_{P1←F}`) and per-key sums are exact `u64` additions,
//!   so rollup output is bit-identical to direct projection — a 33-level
//!   prefix hierarchy costs 1 scan + 32 rollups over shrinking maps.
//!   Rollup runs over *sorted* parent entries: prefix projection is
//!   monotone in key-byte order, so each level is a linear adjacent
//!   merge and hashing is paid only to materialize each level's result
//!   map (once per output group, not once per row per level).
//! - **Sort-based GROUP BY** ([`FlowTable::entries_by`]): every
//!   sorted answer — the roots of [`FlowTable::query_all_entries`] and
//!   each served partial-key answer — projects each row once to a
//!   `(u128, u64)` pair (the key's big-endian integer image,
//!   [`KeyBytes::sort_key`]), sorts on the integer, and sums adjacent
//!   equal keys. No hash table is built, and a comparison is one
//!   128-bit compare instead of a slice `memcmp`.
//! - **Parallel scan** ([`FlowTable::query_multi_parallel`]): large
//!   tables chunk their rows across worker threads (the crate
//!   `engine`'s scoped-worker shape), aggregate into thread-local maps,
//!   and merge by addition. Integer sums are associative and
//!   commutative, so the merged result is exact and independent of
//!   chunking and scheduling. Only the map-shaped
//!   [`FlowTable::query_all`] uses it.

use hashkit::{fast_map_with_capacity, invariant, FastMap};
use traffic::{KeyBytes, KeySpec, Projector};

/// Row count above which [`FlowTable::query_all`] switches the base
/// scan to the parallel path (when more than one CPU is available).
const PARALLEL_SCAN_MIN_ROWS: usize = 1 << 16;

/// Cap on auto-selected scan threads; beyond this the per-thread maps'
/// merge cost outweighs the scan speedup for typical table sizes.
const PARALLEL_SCAN_MAX_THREADS: usize = 8;

/// The recorded `(full key, estimated size)` table of one measurement
/// window, plus the full-key spec needed to project records onto
/// partial keys.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowTable {
    full: KeySpec,
    rows: Vec<(KeyBytes, u64)>,
}

impl FlowTable {
    /// Build the table from a sketch's records (any
    /// [`sketches::Sketch::records`] output over keys of `full`).
    pub fn new(full: KeySpec, rows: Vec<(KeyBytes, u64)>) -> Self {
        debug_assert!(
            rows.iter().all(|(k, _)| k.len() == full.encoded_len()),
            "all rows must be encoded under the full-key spec"
        );
        Self { full, rows }
    }

    /// The full-key spec this table is encoded under.
    pub fn full_spec(&self) -> &KeySpec {
        &self.full
    }

    /// Number of recorded full-key flows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no flows were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Direct access to the rows.
    pub fn rows(&self) -> &[(KeyBytes, u64)] {
        &self.rows
    }

    /// Compile `spec`'s projection from this table's full key.
    ///
    /// # Panics
    /// Panics if `spec` is not a partial key of the table's full key —
    /// querying outside the declared key range has no defined meaning.
    fn compile(&self, spec: &KeySpec) -> Projector {
        assert!(
            spec.is_partial_of(&self.full),
            "{spec:?} is not a partial key of {:?}",
            self.full
        );
        spec.projector(&self.full)
    }

    /// Result-map capacity for a query over `upto` rows: low-cardinality
    /// specs (the empty key, short prefixes) can never produce more
    /// groups than their key space holds, so don't pre-size for the
    /// full row count.
    fn capacity_hint(spec: &KeySpec, upto: usize) -> usize {
        let bits = spec.cardinality_bits();
        if bits >= usize::BITS - 1 {
            upto
        } else {
            upto.min(1usize << bits)
        }
    }

    /// `SELECT g(k_F), SUM(Size) GROUP BY g(k_F)` — the full partial-key
    /// result table for `spec`, in one scan with a compiled projector.
    ///
    /// # Panics
    /// Panics if `spec` is not a partial key of the table's full key.
    pub fn query_partial(&self, spec: &KeySpec) -> FastMap<KeyBytes, u64> {
        let proj = self.compile(spec);
        let mut out: FastMap<KeyBytes, u64> =
            fast_map_with_capacity(Self::capacity_hint(spec, self.rows.len()));
        let mut scratch = KeyBytes::EMPTY;
        for (full_key, size) in &self.rows {
            proj.project_into(full_key, &mut scratch);
            *out.entry(scratch).or_insert(0) += size;
        }
        out
    }

    /// `SELECT g(k_F), SUM(Size) GROUP BY g(k_F)` for one compiled
    /// projection, as **key-sorted entries**: exactly the pairs of
    /// [`query_partial`](Self::query_partial), sorted by lexicographic
    /// key bytes.
    ///
    /// The aggregation is a sort, not a hash map: each row is projected
    /// once to its key's integer image ([`KeyBytes::sort_key`]), the
    /// `(image, size)` pairs are sorted on the integer, and adjacent
    /// equal images are summed. Every projected key has the projector's
    /// [`out_len`](Projector::out_len), and for keys of one length
    /// integer order is byte order, so the output order is the
    /// lexicographic one every sorted answer is contracted to.
    ///
    /// `proj` must compile a partial key of this table's full key (as
    /// [`KeySpec::projector`] from [`full_spec`](Self::full_spec)
    /// does); callers that hold a cached projector pass it here to skip
    /// recompiling.
    pub fn entries_by(&self, proj: &Projector) -> Vec<(KeyBytes, u64)> {
        let mut scratch = KeyBytes::EMPTY;
        let mut images: Vec<(u128, u64)> = self
            .rows
            .iter()
            .map(|(full_key, size)| {
                proj.project_into(full_key, &mut scratch);
                (scratch.sort_key(), *size)
            })
            .collect();
        images.sort_unstable_by_key(|&(image, _)| image);
        images.dedup_by(|cur, acc| {
            if cur.0 == acc.0 {
                acc.1 += cur.1;
                true
            } else {
                false
            }
        });
        let len = proj.out_len();
        images
            .into_iter()
            .map(|(image, size)| (KeyBytes::from_sort_key(image, len), size))
            .collect()
    }

    /// Answer every spec in **one pass** over the rows: each row is
    /// projected through all N compiled projectors into one scratch key.
    /// Results are bit-identical to N calls of
    /// [`query_partial`](Self::query_partial) for one row traversal.
    ///
    /// Prefer this shape when traversing the rows is the expensive part
    /// (streamed or disk-resident sources); for in-memory tables the
    /// per-spec scans of [`query_all`](Self::query_all) measure faster
    /// (see `root_results` in this module).
    ///
    /// # Panics
    /// Panics if any spec is not a partial key of the table's full key.
    pub fn query_multi(&self, specs: &[KeySpec]) -> Vec<FastMap<KeyBytes, u64>> {
        let projs: Vec<Projector> = specs.iter().map(|s| self.compile(s)).collect();
        let mut maps: Vec<FastMap<KeyBytes, u64>> = specs
            .iter()
            .map(|s| fast_map_with_capacity(Self::capacity_hint(s, self.rows.len())))
            .collect();
        Self::scan_into(&self.rows, &projs, &mut maps);
        maps
    }

    /// The shared row scan: project every row through every compiled
    /// projector, aggregating into the caller's maps.
    fn scan_into(
        rows: &[(KeyBytes, u64)],
        projs: &[Projector],
        maps: &mut [FastMap<KeyBytes, u64>],
    ) {
        let mut scratch = KeyBytes::EMPTY;
        for (full_key, size) in rows {
            for (proj, map) in projs.iter().zip(maps.iter_mut()) {
                proj.project_into(full_key, &mut scratch);
                *map.entry(scratch).or_insert(0) += size;
            }
        }
    }

    /// [`query_multi`](Self::query_multi) with the row scan chunked
    /// across `threads` worker threads.
    ///
    /// Each worker aggregates its contiguous row chunk into private
    /// maps; the chunks merge by per-key addition. `u64` addition is
    /// associative and commutative and every row lands in exactly one
    /// chunk, so the merged result is **exact** — bit-identical to the
    /// single-threaded scan, independent of chunk boundaries and thread
    /// scheduling — and total weight is conserved. `threads` is clamped
    /// to the row count; `threads <= 1` runs inline.
    ///
    /// # Panics
    /// Panics if any spec is not a partial key of the table's full key.
    pub fn query_multi_parallel(
        &self,
        specs: &[KeySpec],
        threads: usize,
    ) -> Vec<FastMap<KeyBytes, u64>> {
        let threads = threads.clamp(1, self.rows.len().max(1));
        if threads == 1 {
            return self.query_multi(specs);
        }
        let projs: Vec<Projector> = specs.iter().map(|s| self.compile(s)).collect();
        let chunk_len = self.rows.len().div_ceil(threads);
        let locals: Vec<Vec<FastMap<KeyBytes, u64>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .rows
                .chunks(chunk_len)
                .map(|rows| {
                    let projs = &projs;
                    scope.spawn(move || {
                        let mut maps: Vec<FastMap<KeyBytes, u64>> = specs
                            .iter()
                            .map(|s| fast_map_with_capacity(Self::capacity_hint(s, rows.len())))
                            .collect();
                        Self::scan_into(rows, projs, &mut maps);
                        maps
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| match w.join() {
                    Ok(maps) => maps,
                    // A worker panic is a bug in the scan itself;
                    // re-raise it with its original payload.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut locals = locals.into_iter();
        let mut merged = locals
            .next()
            .unwrap_or_else(|| specs.iter().map(|_| FastMap::default()).collect());
        for maps in locals {
            for (acc, map) in merged.iter_mut().zip(maps) {
                for (key, v) in map {
                    *acc.entry(key).or_insert(0) += v;
                }
            }
        }
        merged
    }

    /// Answer a set of related specs (e.g. a prefix hierarchy) with
    /// **rollup**: a spec that is a partial key of an earlier spec in
    /// the set is aggregated from that spec's (smaller) result map; the
    /// remaining "root" specs are answered in one shared pass over the
    /// rows.
    ///
    /// For the 33-level source-IP hierarchy this turns 33 × O(rows)
    /// scans into 1 scan + 32 rollups over maps that shrink level by
    /// level; for the 1089-level 2-d grid, all but one level roll up.
    /// Output is bit-identical to per-spec
    /// [`query_partial`](Self::query_partial): projection composes and
    /// per-key sums are exact integer additions, so grouping through an
    /// intermediate key changes neither the keys nor the sums.
    ///
    /// When a spec has several computed ancestors, the one with the
    /// smallest result map wins. Ancestors must appear *before* their
    /// descendants (hierarchies are ordered fine → coarse); specs with
    /// no in-set ancestor are roots.
    ///
    /// # Panics
    /// Panics if any spec is not a partial key of the table's full key.
    pub fn query_rollup(&self, specs: &[KeySpec]) -> Vec<FastMap<KeyBytes, u64>> {
        self.query_rollup_threads(specs, 1)
    }

    /// [`query_rollup`](Self::query_rollup) with the shared root pass
    /// run on `threads` workers (see
    /// [`query_multi_parallel`](Self::query_multi_parallel)).
    ///
    /// Rollup itself never touches a hash table on the read side: a
    /// parent's result is sorted once (lexicographic key bytes) and
    /// every descendant aggregates it linearly. Prefix projections are
    /// monotone under that order ([`Projector::preserves_order`]), so a
    /// sorted parent projects to a sorted child and equal keys merge as
    /// adjacent runs; children inherit sortedness for free, and only
    /// the final per-level result map pays hashing — once per output
    /// entry instead of once per table row per level. Levels whose best
    /// parent has not shrunk below half the table fall back to a direct
    /// scan: there rollup saves almost no inserts but still pays the
    /// sort and the copy.
    pub fn query_rollup_threads(
        &self,
        specs: &[KeySpec],
        threads: usize,
    ) -> Vec<FastMap<KeyBytes, u64>> {
        let (is_root, root_specs) = Self::split_roots(specs);
        let mut root_maps = self.root_results(&root_specs, threads).into_iter();

        let mut out: Vec<FastMap<KeyBytes, u64>> = Vec::with_capacity(specs.len());
        // sorted[j] = out[j] as a key-sorted entry vector, built lazily
        // the first time result j is used as a rollup parent; rolled
        // children are born sorted, so theirs is kept as a byproduct.
        let mut sorted: Vec<Option<Vec<(KeyBytes, u64)>>> = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            // LINT: bounded(i < specs.len() = is_root.len())
            if is_root[i] {
                out.push(
                    root_maps
                        .next()
                        .unwrap_or_else(|| invariant::violated("one root result per root spec")),
                );
                sorted.push(None);
                continue;
            }
            let parent = Self::best_parent(specs, i, |j| out[j].len()); // LINT: bounded(best_parent yields j < i = out.len())
                                                                        // LINT: bounded(parent < i = out.len())
            if out[parent].len() * 2 > self.rows.len() {
                // The parent is barely smaller than the table itself:
                // sorting it, merging, and materializing a near-equal
                // map costs more than one fresh scan with a single hot
                // result map. (The sorted-entry variant has no such
                // cliff — it never materializes a map.)
                out.push(self.scan_one(spec, threads));
                sorted.push(None);
                continue;
            }
            // LINT: bounded(parent < i = sorted.len())
            let parent_rows: &[(KeyBytes, u64)] = sorted[parent].get_or_insert_with(|| {
                let mut rows: Vec<(KeyBytes, u64)> =
                    out[parent].iter().map(|(k, &v)| (*k, v)).collect(); // LINT: bounded(parent < i = out.len())
                Self::sort_entries(&mut rows);
                rows
            });
            let rolled = Self::roll_level(parent_rows, &spec.projector(&specs[parent])); // LINT: bounded(parent < i <= specs.len())
            out.push(rolled.iter().copied().collect());
            sorted.push(Some(rolled));
        }
        out
    }

    /// `is_root[i]` = `specs[i]` has no ancestor earlier in the set,
    /// plus the root specs themselves; roots are answered from the rows
    /// in one shared pass, everything else rolls up.
    fn split_roots(specs: &[KeySpec]) -> (Vec<bool>, Vec<KeySpec>) {
        let is_root: Vec<bool> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| Self::is_root(specs, i, spec))
            .collect();
        let root_specs: Vec<KeySpec> = specs
            .iter()
            .zip(&is_root)
            .filter(|&(_, &root)| root)
            .map(|(s, _)| *s)
            .collect();
        (is_root, root_specs)
    }

    /// True when `spec`, at position `i` of `specs`, is a partial key
    /// of no spec before it.
    fn is_root(specs: &[KeySpec], i: usize, spec: &KeySpec) -> bool {
        !specs
            .iter()
            .take(i)
            .any(|earlier| spec.is_partial_of(earlier))
    }

    /// Answer the root specs of a rollup, one scan per spec (chunked
    /// across `threads` when parallel).
    ///
    /// Roots deliberately do *not* share a single
    /// [`query_multi`](Self::query_multi) pass: re-streaming the row
    /// vector once per spec is cheap next to hashing, and scans with
    /// one hot result map measure faster than interleaved inserts into
    /// N maps at every cardinality profiled — so the engine takes the
    /// per-spec shape and leaves the single-pass primitive to callers
    /// whose row source is expensive to traverse.
    fn root_results(&self, root_specs: &[KeySpec], threads: usize) -> Vec<FastMap<KeyBytes, u64>> {
        root_specs
            .iter()
            .map(|spec| self.scan_one(spec, threads))
            .collect()
    }

    /// One spec, one scan: the tight [`query_partial`](Self::query_partial)
    /// loop inline, or the chunked parallel scan when workers are
    /// available.
    fn scan_one(&self, spec: &KeySpec, threads: usize) -> FastMap<KeyBytes, u64> {
        if threads <= 1 {
            self.query_partial(spec)
        } else {
            self.query_multi_parallel(std::slice::from_ref(spec), threads)
                .pop()
                .unwrap_or_else(|| invariant::violated("one parallel result for one spec"))
        }
    }

    /// The computed ancestor `specs[i]` rolls up from: of the earlier
    /// specs it is a partial key of, the one with the smallest result.
    fn best_parent(specs: &[KeySpec], i: usize, result_len: impl Fn(usize) -> usize) -> usize {
        (0..i)
            .filter(|&j| specs[i].is_partial_of(&specs[j])) // LINT: bounded(caller passes i < specs.len(); j < i)
            .min_by_key(|&j| result_len(j))
            .unwrap_or_else(|| invariant::violated("a non-root spec has an earlier ancestor"))
    }

    /// Sort entries by lexicographic key bytes — the order every rollup
    /// level is kept in. Every caller sorts keys of one spec, so all
    /// keys share one length and their integer images
    /// ([`KeyBytes::sort_key`]) order them exactly as their bytes do.
    fn sort_entries(rows: &mut [(KeyBytes, u64)]) {
        rows.sort_unstable_by_key(|(key, _)| key.sort_key());
    }

    /// One rollup step: project the parent's sorted entries and merge
    /// equal keys. Monotone (prefix-shaped) projections keep the parent
    /// order, so merging is a linear `dedup` of adjacent runs;
    /// field-reordering projections re-sort first. No hash table is
    /// touched either way.
    fn roll_level(parent: &[(KeyBytes, u64)], proj: &Projector) -> Vec<(KeyBytes, u64)> {
        let mut rolled: Vec<(KeyBytes, u64)> =
            parent.iter().map(|(k, v)| (proj.project(k), *v)).collect();
        if !proj.preserves_order() {
            Self::sort_entries(&mut rolled);
        }
        rolled.dedup_by(|cur, acc| {
            if cur.0 == acc.0 {
                acc.1 += cur.1;
                true
            } else {
                false
            }
        });
        rolled
    }

    /// [`query_rollup`](Self::query_rollup) returning each level as a
    /// **key-sorted entry vector** instead of a hash map.
    ///
    /// This is the natural output shape of the rollup (levels are
    /// produced as sorted runs) and the natural input shape for
    /// hierarchy consumers (HHH threshold filters, reports), so no
    /// hash table is ever materialized: roots are aggregated by the
    /// sort-based [`entries_by`](Self::entries_by), single-threaded,
    /// and every other level rolls up linearly from its parent's
    /// sorted run. Entries are sorted by lexicographic key bytes and
    /// contain exactly the pairs of
    /// [`query_partial`](Self::query_partial) for the same spec.
    ///
    /// # Panics
    /// Panics if any spec is not a partial key of the table's full key.
    pub fn query_rollup_entries(&self, specs: &[KeySpec]) -> Vec<Vec<(KeyBytes, u64)>> {
        let mut out: Vec<Vec<(KeyBytes, u64)>> = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            if Self::is_root(specs, i, spec) {
                out.push(self.entries_by(&self.compile(spec)));
                continue;
            }
            let parent = Self::best_parent(specs, i, |j| out[j].len()); // LINT: bounded(best_parent yields j < i = out.len())
            out.push(Self::roll_level(
                &out[parent],                    // LINT: bounded(parent < i = out.len())
                &spec.projector(&specs[parent]), // LINT: bounded(parent < i <= specs.len())
            ));
        }
        out
    }

    /// The engine front door: answer every spec, picking rollup where
    /// the set nests, single-pass aggregation for the rest, and the
    /// parallel scan when the table is large and CPUs are available.
    /// Always bit-identical to per-spec
    /// [`query_partial`](Self::query_partial).
    pub fn query_all(&self, specs: &[KeySpec]) -> Vec<FastMap<KeyBytes, u64>> {
        self.query_rollup_threads(specs, self.auto_threads())
    }

    /// [`query_all`](Self::query_all) in sorted-entry shape (see
    /// [`query_rollup_entries`](Self::query_rollup_entries)) — the fast
    /// path for hierarchy workloads, where per-level hash maps would be
    /// built only to be iterated once.
    pub fn query_all_entries(&self, specs: &[KeySpec]) -> Vec<Vec<(KeyBytes, u64)>> {
        self.query_rollup_entries(specs)
    }

    /// Scan threads for [`query_all`](Self::query_all): 1 for small
    /// tables, else the machine's parallelism capped at
    /// [`PARALLEL_SCAN_MAX_THREADS`].
    fn auto_threads(&self) -> usize {
        if self.rows.len() < PARALLEL_SCAN_MIN_ROWS {
            1
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(PARALLEL_SCAN_MAX_THREADS)
        }
    }

    /// Estimated size of a single partial-key flow.
    ///
    /// Runs on the compiled projector — no per-row decode, no per-row
    /// allocation — and returns 0 immediately when `key`'s width cannot
    /// match `spec` (no projection of any row could equal it).
    ///
    /// # Panics
    /// Panics if `spec` is not a partial key of the table's full key.
    pub fn query_flow(&self, spec: &KeySpec, key: &KeyBytes) -> u64 {
        let proj = self.compile(spec);
        if key.len() != proj.out_len() {
            return 0;
        }
        let mut scratch = KeyBytes::EMPTY;
        let mut sum = 0u64;
        for (full_key, size) in &self.rows {
            proj.project_into(full_key, &mut scratch);
            if scratch == *key {
                sum += size;
            }
        }
        sum
    }

    /// Total estimated traffic (the empty-key query).
    pub fn total(&self) -> u64 {
        self.rows.iter().map(|&(_, v)| v).sum()
    }

    /// Partial-key flows at or above `threshold` — the heavy hitters of
    /// `spec` in one call.
    pub fn heavy_hitters(&self, spec: &KeySpec, threshold: u64) -> Vec<(KeyBytes, u64)> {
        self.query_partial(spec)
            .into_iter()
            .filter(|&(_, v)| v >= threshold)
            .collect()
    }

    /// Merge tables recorded under the **same full-key spec** into one:
    /// per-key `u64` sums in canonical (lexicographic key byte) row
    /// order. Exact by construction — addition neither creates nor
    /// drops weight, so the merged [`total`](Self::total) equals the
    /// inputs' totals summed, and any partial-key query of the merged
    /// table equals the per-key sum of the inputs' answers. This is the
    /// table half of epoch compaction (`crate::segment`): bucketing
    /// epochs must conserve weight exactly, and this is where that
    /// exactness comes from.
    ///
    /// `None` when `tables` is empty, the specs disagree — merging rows
    /// encoded under different full keys has no defined meaning — or a
    /// per-key sum would overflow `u64` (checked here, not left to the
    /// caller: wrapped sums would silently violate conservation).
    pub fn merged(tables: &[&FlowTable]) -> Option<FlowTable> {
        let first = tables.first()?;
        let full = *first.full_spec();
        if tables.iter().any(|t| *t.full_spec() != full) {
            return None;
        }
        let mut acc: FastMap<KeyBytes, u64> =
            fast_map_with_capacity(tables.iter().map(|t| t.len()).max().unwrap_or(0));
        for table in tables {
            for (key, size) in &table.rows {
                let slot = acc.entry(*key).or_insert(0);
                *slot = slot.checked_add(*size)?;
            }
        }
        let mut rows: Vec<(KeyBytes, u64)> = acc.into_iter().collect();
        Self::sort_entries(&mut rows);
        Some(FlowTable::new(full, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::FiveTuple;

    fn table() -> FlowTable {
        let full = KeySpec::FIVE_TUPLE;
        // Mirrors Figure 7 of the paper: (SrcIP, SrcPort)-style grouping.
        let rows = vec![
            (full.project(&FiveTuple::new(0x13620A1A, 1, 80, 9, 6)), 521),
            (full.project(&FiveTuple::new(0x22344D0D, 1, 80, 9, 6)), 305),
            (full.project(&FiveTuple::new(0x13620A1A, 2, 80, 9, 6)), 520),
            (full.project(&FiveTuple::new(0x22344D11, 1, 118, 9, 6)), 856),
            (full.project(&FiveTuple::new(0x22344D0D, 1, 123, 9, 6)), 463),
        ];
        FlowTable::new(full, rows)
    }

    /// A larger deterministic table for multi-path agreement tests.
    fn big_table(rows: usize) -> FlowTable {
        let full = KeySpec::FIVE_TUPLE;
        let mut out = Vec::with_capacity(rows);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..rows {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ft = FiveTuple::new(
                (x >> 32) as u32,
                (x & 0xFFFF_FFFF) as u32,
                (x >> 16) as u16,
                (x >> 48) as u16,
                if x & 1 == 0 { 6 } else { 17 },
            );
            out.push((full.project(&ft), (x % 1000) + 1));
        }
        FlowTable::new(full, out)
    }

    #[test]
    fn figure7_grouping() {
        let t = table();
        let by_src = t.query_partial(&KeySpec::SRC_IP);
        let k = |ip: u32| KeySpec::SRC_IP.project(&FiveTuple::new(ip, 0, 0, 0, 0));
        assert_eq!(by_src[&k(0x13620A1A)], 1041, "521 + 520");
        assert_eq!(by_src[&k(0x22344D0D)], 768, "305 + 463");
        assert_eq!(by_src[&k(0x22344D11)], 856);
    }

    #[test]
    fn group_sums_conserve_total() {
        let t = table();
        for spec in KeySpec::PAPER_SIX {
            let grouped = t.query_partial(&spec);
            let sum: u64 = grouped.values().sum();
            assert_eq!(sum, t.total(), "partial key {spec}");
        }
    }

    #[test]
    fn query_flow_matches_partial_table() {
        let t = table();
        let grouped = t.query_partial(&KeySpec::SRC_IP);
        for (key, &size) in &grouped {
            assert_eq!(t.query_flow(&KeySpec::SRC_IP, key), size);
        }
    }

    #[test]
    fn query_flow_width_mismatch_is_zero() {
        // A key of the wrong width can never match any projection; the
        // guard short-circuits before the scan.
        let t = table();
        assert_eq!(t.query_flow(&KeySpec::SRC_IP, &KeyBytes::new(&[1, 2])), 0);
        assert_eq!(t.query_flow(&KeySpec::SRC_IP, &KeyBytes::EMPTY), 0);
        assert_eq!(
            t.query_flow(&KeySpec::EMPTY, &KeyBytes::new(&[0, 0, 0, 0])),
            0
        );
        // Correct width still answers.
        assert_eq!(t.query_flow(&KeySpec::EMPTY, &KeyBytes::EMPTY), t.total());
    }

    #[test]
    fn empty_key_returns_total() {
        let t = table();
        let grouped = t.query_partial(&KeySpec::EMPTY);
        assert_eq!(grouped.len(), 1);
        assert_eq!(grouped[&KeyBytes::EMPTY], t.total());
    }

    #[test]
    fn heavy_hitters_filter() {
        let t = table();
        let hh = t.heavy_hitters(&KeySpec::SRC_IP, 800);
        assert_eq!(hh.len(), 2, "1041 and 856 qualify");
    }

    #[test]
    fn full_key_query_is_identity() {
        let t = table();
        let grouped = t.query_partial(&KeySpec::FIVE_TUPLE);
        assert_eq!(grouped.len(), t.len());
    }

    #[test]
    #[should_panic(expected = "not a partial key")]
    fn non_partial_query_panics() {
        let rows = vec![(KeySpec::SRC_IP.project(&FiveTuple::default()), 1)];
        let t = FlowTable::new(KeySpec::SRC_IP, rows);
        t.query_partial(&KeySpec::SRC_DST);
    }

    #[test]
    #[should_panic(expected = "not a partial key")]
    fn non_partial_multi_query_panics() {
        let rows = vec![(KeySpec::SRC_IP.project(&FiveTuple::default()), 1)];
        let t = FlowTable::new(KeySpec::SRC_IP, rows);
        t.query_multi(&[KeySpec::EMPTY, KeySpec::SRC_DST]);
    }

    #[test]
    fn prefix_queries_work() {
        let t = table();
        let by_24 = t.query_partial(&KeySpec::src_prefix(24));
        // 0x22344D0D and 0x22344D11 share their /24.
        let k24 = KeySpec::src_prefix(24).project(&FiveTuple::new(0x22344D0D, 0, 0, 0, 0));
        assert_eq!(by_24[&k24], 305 + 463 + 856);
    }

    #[test]
    fn empty_table() {
        let t = FlowTable::new(KeySpec::FIVE_TUPLE, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.total(), 0);
        assert!(t.query_partial(&KeySpec::SRC_IP).is_empty());
        assert_eq!(
            t.query_flow(&KeySpec::SRC_IP, &KeyBytes::new(&[0, 0, 0, 0])),
            0
        );
        for maps in [
            t.query_multi(&KeySpec::PAPER_SIX),
            t.query_rollup(&KeySpec::PAPER_SIX),
            t.query_multi_parallel(&KeySpec::PAPER_SIX, 4),
            t.query_all(&KeySpec::PAPER_SIX),
        ] {
            assert_eq!(maps.len(), 6);
            assert!(maps.iter().all(FastMap::is_empty));
        }
        let entries = t.query_all_entries(&KeySpec::PAPER_SIX);
        assert_eq!(entries.len(), 6);
        assert!(entries.iter().all(Vec::is_empty));
    }

    #[test]
    fn multi_matches_per_spec() {
        let t = big_table(3_000);
        let mut specs = KeySpec::PAPER_SIX.to_vec();
        specs.push(KeySpec::EMPTY);
        specs.push(KeySpec::src_prefix(9));
        let expect: Vec<_> = specs.iter().map(|s| t.query_partial(s)).collect();
        assert_eq!(t.query_multi(&specs), expect);
    }

    #[test]
    fn rollup_bit_identical_to_direct_projection() {
        // The proof-by-test of the rollup path: every level of the full
        // 33-level hierarchy, aggregated level-over-level, equals the
        // direct per-spec scan exactly.
        let t = big_table(2_000);
        let hierarchy: Vec<KeySpec> = (0..=32u8).rev().map(KeySpec::src_prefix).collect();
        let expect: Vec<_> = hierarchy.iter().map(|s| t.query_partial(s)).collect();
        assert_eq!(t.query_rollup(&hierarchy), expect);
        assert_eq!(t.query_all(&hierarchy), expect);
    }

    #[test]
    fn rollup_handles_unrelated_and_duplicate_specs() {
        let t = big_table(1_000);
        // SRC_IP_PORT and DST_IP_PORT are unrelated (both roots); the
        // duplicate spec rolls up via the identity projection.
        let specs = [
            KeySpec::SRC_IP_PORT,
            KeySpec::DST_IP_PORT,
            KeySpec::SRC_IP_PORT,
            KeySpec::SRC_IP,
        ];
        let expect: Vec<_> = specs.iter().map(|s| t.query_partial(s)).collect();
        assert_eq!(t.query_rollup(&specs), expect);
    }

    /// `query_partial` reshaped to the sorted-entry contract of
    /// `query_rollup_entries`: the independent oracle for every sorted
    /// answer (a hash-map GROUP BY plus a slice `memcmp` sort, sharing
    /// no code with the sort-based kernel).
    fn sorted_partial(t: &FlowTable, spec: &KeySpec) -> Vec<(KeyBytes, u64)> {
        let mut rows: Vec<(KeyBytes, u64)> = t.query_partial(spec).into_iter().collect();
        rows.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
        rows
    }

    /// The paper's six keys, the empty key, every source and
    /// destination prefix length, and the two field-reordering
    /// `(IP, port)` keys.
    fn oracle_specs() -> Vec<KeySpec> {
        let mut specs = KeySpec::PAPER_SIX.to_vec();
        specs.push(KeySpec::EMPTY);
        specs.extend((0..=32u8).map(KeySpec::src_prefix));
        specs.extend((0..=32u8).map(|bits| KeySpec::src_dst_prefix(0, bits)));
        specs.push(KeySpec::DST_IP_PORT);
        specs.push(KeySpec::SRC_IP_PORT);
        specs
    }

    /// Every sorted-answer path for one spec against the oracle.
    fn assert_sorted_paths_match_oracle(t: &FlowTable, spec: &KeySpec) {
        let want = sorted_partial(t, spec);
        let proj = spec.projector(t.full_spec());
        assert_eq!(t.entries_by(&proj), want, "entries_by {spec}");
        assert_eq!(
            t.query_all_entries(&[*spec]),
            [want],
            "query_all_entries {spec}"
        );
    }

    #[test]
    fn entries_by_matches_hash_map_oracle() {
        let t = big_table(3_000);
        for spec in oracle_specs() {
            assert_sorted_paths_match_oracle(&t, &spec);
        }
        let empty = FlowTable::new(KeySpec::FIVE_TUPLE, vec![]);
        for spec in oracle_specs() {
            assert_sorted_paths_match_oracle(&empty, &spec);
        }
    }

    #[test]
    fn entries_by_sums_heavily_colliding_rows() {
        // Few distinct field values and repeated full keys: most rows
        // collide after projection, so long runs of equal images merge.
        let full = KeySpec::FIVE_TUPLE;
        let rows: Vec<(KeyBytes, u64)> = (0..4_000u32)
            .map(|i| {
                let ft = FiveTuple::new(
                    0x0A00_0000 | (i % 3),
                    0xC0A8_0000 | ((i / 3) % 2) << 8,
                    (i % 5) as u16,
                    443,
                    if i % 2 == 0 { 6 } else { 17 },
                );
                (full.project(&ft), u64::from(i % 7) * 1_000_003 + 1)
            })
            .collect();
        let t = FlowTable::new(full, rows);
        for spec in oracle_specs() {
            assert_sorted_paths_match_oracle(&t, &spec);
        }
        assert_eq!(t.entries_by(&KeySpec::SRC_IP.projector(&full)).len(), 3);
    }

    #[test]
    fn query_all_entries_matches_oracle_on_spec_sets() {
        // Whole sets, so roots, rollups, re-sorting rollups and
        // duplicate specs all answer in one call.
        let t = big_table(2_500);
        let mut sets = vec![KeySpec::PAPER_SIX.to_vec(), oracle_specs()];
        sets.push(
            (0..=32u8)
                .rev()
                .map(|b| KeySpec::src_dst_prefix(0, b))
                .collect(),
        );
        sets.push(vec![
            KeySpec::SRC_IP_PORT,
            KeySpec::DST_IP_PORT,
            KeySpec::SRC_IP_PORT,
            KeySpec::DST_IP,
            KeySpec::EMPTY,
        ]);
        for specs in sets {
            let want: Vec<_> = specs.iter().map(|s| sorted_partial(&t, s)).collect();
            assert_eq!(t.query_all_entries(&specs), want, "{specs:?}");
        }
    }

    #[test]
    fn rollup_entries_match_per_spec_and_stay_sorted() {
        let t = big_table(2_000);
        let hierarchy: Vec<KeySpec> = (0..=32u8).rev().map(KeySpec::src_prefix).collect();
        let got = t.query_all_entries(&hierarchy);
        let expect: Vec<_> = hierarchy.iter().map(|s| sorted_partial(&t, s)).collect();
        assert_eq!(got, expect);
        // The field-reordering (re-sort) path in entry shape too.
        let specs = [KeySpec::SRC_DST, KeySpec::DST_IP, KeySpec::EMPTY];
        let got = t.query_rollup_entries(&specs);
        let expect: Vec<_> = specs.iter().map(|s| sorted_partial(&t, s)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn rollup_handles_field_reordering_projections() {
        // (SrcIP, DstIP) → DstIP gathers bytes out of order, so the
        // projected parent entries are *not* sorted and the rollup must
        // re-sort before merging runs — the non-monotone path.
        let t = big_table(2_000);
        let specs = [
            KeySpec::SRC_DST,
            KeySpec::DST_IP,
            KeySpec::src_dst_prefix(0, 13),
            KeySpec::EMPTY,
        ];
        let expect: Vec<_> = specs.iter().map(|s| t.query_partial(s)).collect();
        assert_eq!(t.query_rollup(&specs), expect);
    }

    #[test]
    fn parallel_scan_exact_across_thread_counts() {
        let t = big_table(10_000);
        let mut specs = KeySpec::PAPER_SIX.to_vec();
        specs.push(KeySpec::EMPTY);
        let expect: Vec<_> = specs.iter().map(|s| t.query_partial(s)).collect();
        for threads in [1, 2, 3, 4, 7, 64] {
            assert_eq!(
                t.query_multi_parallel(&specs, threads),
                expect,
                "{threads} threads"
            );
        }
        // More threads than rows degrades gracefully.
        let tiny = big_table(3);
        let expect: Vec<_> = specs.iter().map(|s| tiny.query_partial(s)).collect();
        assert_eq!(tiny.query_multi_parallel(&specs, 16), expect);
    }

    #[test]
    fn merged_sums_per_key_and_conserves_total() {
        let a = big_table(500);
        let b = big_table(300); // deterministic generator → overlapping keys
        let m = FlowTable::merged(&[&a, &b]).unwrap();
        assert_eq!(m.total(), a.total() + b.total(), "weight conserved");
        // Any partial-key answer of the merge is the per-key sum of the
        // inputs' answers.
        for spec in [KeySpec::SRC_IP, KeySpec::EMPTY, KeySpec::FIVE_TUPLE] {
            let mut want = a.query_partial(&spec);
            for (k, v) in b.query_partial(&spec) {
                *want.entry(k).or_insert(0) += v;
            }
            assert_eq!(m.query_partial(&spec), want, "{spec}");
        }
        // Canonical row order: merging in either order is identical.
        assert_eq!(FlowTable::merged(&[&b, &a]).unwrap().rows(), m.rows());
        // Degenerate and error cases.
        assert!(FlowTable::merged(&[]).is_none());
        let narrow = FlowTable::new(KeySpec::SRC_IP, vec![]);
        assert!(FlowTable::merged(&[&a, &narrow]).is_none(), "spec mismatch");
        let solo = FlowTable::merged(&[&a]).unwrap();
        assert_eq!(solo.total(), a.total());
    }

    #[test]
    fn merged_rejects_per_key_overflow() {
        let full = KeySpec::FIVE_TUPLE;
        let key = full.project(&FiveTuple::new(1, 2, 3, 4, 6));
        let huge = FlowTable::new(full, vec![(key, u64::MAX)]);
        let one = FlowTable::new(full, vec![(key, 1)]);
        assert!(
            FlowTable::merged(&[&huge, &one]).is_none(),
            "a wrapped per-key sum must surface as None, not a silent wrap"
        );
        assert!(FlowTable::merged(&[&huge]).is_some(), "u64::MAX alone fits");
    }

    #[test]
    fn adaptive_capacity_for_low_cardinality_specs() {
        // A /8 prefix has at most 256 groups and the empty key exactly
        // one; the result maps must not pre-allocate for the row count.
        let t = big_table(20_000);
        let empty = t.query_partial(&KeySpec::EMPTY);
        assert_eq!(empty.len(), 1);
        assert!(
            empty.capacity() <= 8,
            "empty-key map capacity {} should stay tiny",
            empty.capacity()
        );
        let by8 = t.query_partial(&KeySpec::src_prefix(8));
        assert!(by8.len() <= 256);
        assert!(
            by8.capacity() <= 1024,
            "/8 map capacity {} should be bounded by key space, not rows",
            by8.capacity()
        );
        // Wide specs still pre-size to the row count (no regression in
        // the high-cardinality case: one allocation, no rehash storms).
        let full = t.query_partial(&KeySpec::FIVE_TUPLE);
        assert!(full.capacity() >= t.len());
    }
}
