//! The in-process query service: a snapshot catalog plus a shared
//! projector cache behind one read API.
//!
//! A [`Service`] is built with [`service`] and split at birth into the
//! unique [`Publisher`] (kept by the ingest/seal thread) and a shared
//! `Arc<Service>` handed to any number of reader threads — in-process
//! callers, the wire server in [`crate::wire`], or both at once. Every
//! reader method takes `&self`, never blocks the publisher, and
//! answers from a sealed, immutable epoch snapshot, so an answer is
//! bit-identical to running the same query directly on that epoch's
//! table (`tests` assert this against an independent hash-map
//! aggregation, [`FlowTable::query_partial`] plus a byte sort; the
//! `qps` bench against [`FlowTable::query_all_entries`]).
//!
//! Partial and window answers come from the same sort-based GROUP BY
//! kernel as `query_all_entries` ([`FlowTable::entries_by`]), fed the
//! projector from the shared [`ProjectorCache`]; a window folds the
//! per-epoch sorted runs with a linear merge that sums equal keys.

use crate::cache::{CacheStats, ProjectorCache};
use crate::catalog::{catalog, CatalogWriter, SnapshotCatalog};
use crate::sync::{AtomicU64, Ordering};
use cocosketch::segment::SegmentMeta;
use cocosketch::{DirReader, Epoch, FlowTable};
use std::cmp;
use std::sync::Arc;
use traffic::{KeyBytes, KeySpec};

/// Which epoch a query addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Select {
    /// The most recently published epoch.
    Latest,
    /// The epoch with this id (fails if unpublished or evicted).
    Id(u64),
}

/// One answered partial-key query: the sorted entry table for `spec`
/// over the selected epoch(s).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Id of the answering epoch (the last one, for window queries).
    pub epoch: u64,
    /// Packets the answering epoch ingested (summed across epochs for
    /// window queries).
    pub packets: u64,
    /// Stream weight the answering epoch ingested (summed likewise).
    pub weight: u64,
    /// The spec the entries are keyed by.
    pub spec: KeySpec,
    /// `(partial key, size)` rows, sorted by lexicographic key bytes —
    /// the same shape [`FlowTable::query_all_entries`] produces.
    pub entries: Vec<(KeyBytes, u64)>,
}

/// Catalog occupancy and cache effectiveness, for operators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceInfo {
    /// `(oldest, latest)` retained epoch ids, if any are retained.
    pub ids: Option<(u64, u64)>,
    /// Number of retained epochs.
    pub epochs: usize,
    /// Projector-cache counters.
    pub cache: CacheStats,
    /// Cold-tier reads that failed with an I/O or validation error
    /// (counted since the service was built). Cold failures answer as
    /// misses so queries never error on a flaky disk, but a non-zero,
    /// growing value here is how an operator tells a dying spill
    /// directory apart from ordinary evicted/compacted misses.
    pub cold_errors: u64,
}

/// The resident query service's shared read half.
#[derive(Debug)]
pub struct Service {
    snapshots: SnapshotCatalog,
    projectors: ProjectorCache,
    /// The durable tier, if attached: epochs that aged out of the
    /// catalog are backfilled from this epoch directory on miss.
    cold: Option<DirReader>,
    /// Failed cold-tier reads (all-Relaxed counter; see
    /// [`ServiceInfo::cold_errors`]).
    cold_errors: AtomicU64,
}

/// The unique publishing half (wraps the catalog's single writer).
#[derive(Debug)]
pub struct Publisher {
    writer: CatalogWriter,
}

/// Create a service retaining the last `keep` published epochs.
pub fn service(keep: usize) -> (Publisher, Arc<Service>) {
    service_inner(keep, None)
}

/// [`service`] with a durable tier attached: reads that miss the
/// in-memory catalog fall through to `cold` (a stateless reader over
/// an epoch directory that the seal path streams segments into), so
/// readers can query windows that aged out of memory. Cold answers go
/// through exactly the same aggregation as warm ones, and segment
/// reads validate checksum and envelope, so a backfilled answer is
/// bit-identical to the answer the in-memory epoch gave before
/// eviction.
pub fn service_with_cold(keep: usize, cold: DirReader) -> (Publisher, Arc<Service>) {
    service_inner(keep, Some(cold))
}

fn service_inner(keep: usize, cold: Option<DirReader>) -> (Publisher, Arc<Service>) {
    let (writer, snapshots) = catalog(keep);
    (
        Publisher { writer },
        Arc::new(Service {
            snapshots,
            projectors: ProjectorCache::new(),
            cold,
            cold_errors: AtomicU64::new(0),
        }),
    )
}

impl Publisher {
    /// Publish a sealed epoch; readers see it before this returns.
    ///
    /// # Panics
    /// Panics when `epoch.id` is not the next dense id (see
    /// [`CatalogWriter::publish`]).
    pub fn publish(&mut self, epoch: Arc<Epoch>) -> u64 {
        self.writer.publish(epoch)
    }

    /// [`publish`](Self::publish) for an epoch not yet behind an
    /// [`Arc`].
    pub fn publish_epoch(&mut self, epoch: Epoch) -> u64 {
        self.publish(Arc::new(epoch))
    }

    /// Evict down to `keep` retained epochs; returns how many were
    /// dropped (readers holding handles keep them — see
    /// [`mod@crate::catalog`]).
    pub fn evict_to(&mut self, keep: usize) -> usize {
        self.writer.evict_to(keep)
    }
}

impl Service {
    /// The selected epoch's snapshot handle: from the in-memory
    /// catalog when retained, else backfilled from the durable tier
    /// (when one is attached — see [`service_with_cold`]). A cold read
    /// that fails validation (torn, corrupt, or absent segment) is a
    /// miss, never an error: the service's contract stays "`None` when
    /// the epoch cannot be served" — but every such failure bumps
    /// [`ServiceInfo::cold_errors`] so it is not silent.
    // LINT: hot
    pub fn snapshot(&self, sel: Select) -> Option<Arc<Epoch>> {
        let warm = match sel {
            Select::Latest => self.snapshots.latest(),
            Select::Id(id) => self.snapshots.get(id),
        };
        warm.or_else(|| {
            // LINT: cold(catalog miss: one validated disk read backfills an evicted epoch)
            match sel {
                Select::Latest => self.cold_latest(),
                Select::Id(id) => self.cold_get(id),
            }
        })
    }

    /// Unwrap a cold-tier read, counting failures: an `Err` becomes a
    /// miss (readers never error on a flaky disk) but increments the
    /// [`ServiceInfo::cold_errors`] counter, so operators can tell a
    /// dying cold tier from ordinary evicted/compacted misses.
    fn note_cold<T>(&self, result: std::io::Result<Option<T>>) -> Option<T> {
        match result {
            Ok(found) => found,
            Err(_) => {
                self.cold_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Backfill epoch `id` from the durable tier.
    fn cold_get(&self, id: u64) -> Option<Arc<Epoch>> {
        let reader = self.cold.as_ref()?;
        self.note_cold(reader.read_epoch(id)).map(Arc::new)
    }

    /// The durable tier's newest epoch (only reached when the catalog
    /// is empty, e.g. a reader attached before the first publish of a
    /// restarted collector).
    fn cold_latest(&self) -> Option<Arc<Epoch>> {
        let reader = self.cold.as_ref()?;
        self.note_cold(reader.read_latest()).map(Arc::new)
    }

    /// Answer one partial-key query against the selected epoch's
    /// primary table. `None` when the epoch is not retained, sealed no
    /// tables, or `spec` is not a partial key of the table's full key.
    pub fn partial(&self, sel: Select, spec: &KeySpec) -> Option<Answer> {
        let epoch = self.snapshot(sel)?;
        let table = epoch.tables.first()?;
        let entries = self.entries(table, spec)?;
        Some(Answer {
            epoch: epoch.id,
            packets: epoch.packets,
            weight: epoch.weight,
            spec: *spec,
            entries,
        })
    }

    /// Answer a whole spec list (e.g. an HHH hierarchy) against the
    /// selected epoch via the rollup engine, optionally filtering each
    /// level to entries with `size >= threshold` (`threshold == 0`
    /// keeps everything). Answers come back in `specs` order.
    pub fn multi(&self, sel: Select, specs: &[KeySpec], threshold: u64) -> Option<Vec<Answer>> {
        let epoch = self.snapshot(sel)?;
        let table = epoch.tables.first()?;
        let full = table.full_spec();
        if specs.iter().any(|s| !s.is_partial_of(full)) {
            return None;
        }
        let levels = table.query_all_entries(specs);
        Some(
            specs
                .iter()
                .zip(levels)
                .map(|(spec, mut entries)| {
                    if threshold > 1 {
                        entries.retain(|&(_, size)| size >= threshold);
                    }
                    Answer {
                        epoch: epoch.id,
                        packets: epoch.packets,
                        weight: epoch.weight,
                        spec: *spec,
                        entries,
                    }
                })
                .collect(),
        )
    }

    /// Answer one spec over the epochs in `first..=last`, summing
    /// sizes across windows (exact: per-epoch tables hold exact
    /// per-key totals of what each window ingested). Warm ids come
    /// from the catalog; everything else comes from the durable tier,
    /// whose manifest is read **once per call**. A compacted bucket
    /// whose whole id range lies inside the query contributes its
    /// merged table — compaction conserves per-key sums exactly, so
    /// that equals summing its member epochs — while a bucket that
    /// straddles the range boundary is excluded (its per-epoch
    /// resolution is gone; including it would over-count).
    ///
    /// `None` when nothing in the range can be served or the spec
    /// doesn't fit; otherwise the answer also reports how many epoch
    /// ids contributed weight (a bucket counts its whole span).
    /// Comparing that count to the requested range is how callers
    /// detect partial coverage: ids evicted without a spill sink,
    /// straddling buckets, or failed cold reads (which also bump
    /// [`ServiceInfo::cold_errors`]).
    pub fn window(&self, first: u64, last: u64, spec: &KeySpec) -> Option<(Answer, usize)> {
        let cold_segments: Vec<SegmentMeta> = match &self.cold {
            Some(reader) => self
                .note_cold(reader.segments().map(Some))
                .unwrap_or_default(),
            None => Vec::new(),
        };
        let warm = self.snapshots.ids();
        let cold = cold_segments
            .first()
            .zip(cold_segments.last())
            .map(|(a, b)| (a.first, b.last));
        let (lo, hi) = match (warm, cold) {
            (Some((a, b)), Some((c, d))) => (a.min(c), b.max(d)),
            (Some(bounds), None) | (None, Some(bounds)) => bounds,
            (None, None) => return None,
        };
        let (lo, hi) = (lo.max(first), hi.min(last));
        if lo > hi {
            return None;
        }
        // The sorted merge of every contributing epoch's run so far, and
        // the buffer the next merge writes into.
        let (mut entries, mut spare) = (Vec::new(), Vec::new());
        let mut contributed = 0usize;
        let mut last_id = 0u64;
        let (mut packets, mut weight) = (0u64, 0u64);
        // Warm pass: catalog epochs are in memory and take precedence
        // over their on-disk copies.
        let mut warm_served: Vec<u64> = Vec::new();
        for id in lo..=hi {
            let Some(epoch) = self.snapshots.get(id) else {
                continue;
            };
            let Some(table) = epoch.tables.first() else {
                continue;
            };
            merge_run(&mut entries, &self.entries(table, spec)?, &mut spare);
            warm_served.push(id);
            contributed += 1;
            last_id = last_id.max(epoch.id);
            packets += epoch.packets;
            weight += epoch.weight;
        }
        // Cold pass: in-range segments the warm tier didn't serve —
        // one validated read per segment, buckets included whole.
        if let Some(reader) = &self.cold {
            for meta in &cold_segments {
                let in_range = lo <= meta.first && meta.last <= hi;
                if !in_range || warm_served.iter().any(|&id| meta.covers(id)) {
                    // Straddling buckets (and segments fully outside
                    // the range) are skipped; the shortfall is visible
                    // in `contributed`.
                    continue;
                }
                let Some(epoch) = self.note_cold(reader.read_segment(meta).map(Some)) else {
                    continue;
                };
                let Some(table) = epoch.tables.first() else {
                    continue;
                };
                merge_run(&mut entries, &self.entries(table, spec)?, &mut spare);
                contributed += (meta.last - meta.first + 1) as usize;
                last_id = last_id.max(meta.last);
                packets += epoch.packets;
                weight += epoch.weight;
            }
        }
        if contributed == 0 {
            return None;
        }
        Some((
            Answer {
                epoch: last_id,
                packets,
                weight,
                spec: *spec,
                entries,
            },
            contributed,
        ))
    }

    /// Catalog occupancy and cache counters.
    pub fn info(&self) -> ServiceInfo {
        ServiceInfo {
            ids: self.snapshots.ids(),
            epochs: self.snapshots.len(),
            cache: self.projectors.stats(),
            cold_errors: self.cold_errors.load(Ordering::Relaxed),
        }
    }

    /// `GROUP BY spec` over one table as key-sorted entries, through
    /// the shared projector cache and [`FlowTable::entries_by`] — the
    /// kernel behind [`FlowTable::query_all_entries`], so the rows are
    /// its rows bit for bit. `None` when `spec` is not a partial key of
    /// the table's full key.
    fn entries(&self, table: &FlowTable, spec: &KeySpec) -> Option<Vec<(KeyBytes, u64)>> {
        let full = table.full_spec();
        if !spec.is_partial_of(full) {
            return None;
        }
        Some(table.entries_by(&self.projectors.projector(full, spec)))
    }
}

/// Merge the key-sorted `run` into the key-sorted `acc`, summing the
/// sizes of keys present in both. All keys of one spec share a length,
/// so comparing integer images ([`KeyBytes::sort_key`]) is comparing
/// key bytes. The merge is written into `spare`, which then swaps
/// with `acc`, so a window's folds reuse two buffers instead of
/// allocating a new one per epoch.
fn merge_run(
    acc: &mut Vec<(KeyBytes, u64)>,
    run: &[(KeyBytes, u64)],
    spare: &mut Vec<(KeyBytes, u64)>,
) {
    spare.clear();
    spare.reserve(acc.len() + run.len());
    let (mut a, mut b) = (acc.iter().peekable(), run.iter().peekable());
    while let (Some(&&(ka, sa)), Some(&&(kb, sb))) = (a.peek(), b.peek()) {
        match ka.sort_key().cmp(&kb.sort_key()) {
            cmp::Ordering::Less => {
                spare.push((ka, sa));
                a.next();
            }
            cmp::Ordering::Greater => {
                spare.push((kb, sb));
                b.next();
            }
            cmp::Ordering::Equal => {
                spare.push((ka, sa + sb));
                a.next();
                b.next();
            }
        }
    }
    spare.extend(a);
    spare.extend(b);
    std::mem::swap(acc, spare);
}

#[cfg(test)]
#[cfg(not(feature = "loom"))]
mod tests {
    use super::*;
    use hashkit::FastMap;
    use traffic::FiveTuple;

    /// The independent oracle for every served answer: a hash-map
    /// GROUP BY ([`FlowTable::query_partial`]) per table, summed across
    /// `tables` in another hash map, then sorted by slice `memcmp`. It
    /// shares no code with the sort-based kernel the service answers
    /// from.
    fn oracle(tables: &[&FlowTable], spec: &KeySpec) -> Vec<(KeyBytes, u64)> {
        let mut groups: FastMap<KeyBytes, u64> = FastMap::default();
        for table in tables {
            for (key, size) in table.query_partial(spec) {
                *groups.entry(key).or_insert(0) += size;
            }
        }
        let mut rows: Vec<(KeyBytes, u64)> = groups.into_iter().collect();
        rows.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
        rows
    }

    fn epoch(id: u64, rows: u32, salt: u32) -> Epoch {
        let full = KeySpec::FIVE_TUPLE;
        let table = FlowTable::new(
            full,
            (0..rows)
                .map(|i| {
                    (
                        full.project(&FiveTuple::new(
                            (i + salt) % 97,
                            i.wrapping_mul(2654435761) % 53,
                            (i % 7) as u16,
                            443,
                            6,
                        )),
                        u64::from(i) + 1,
                    )
                })
                .collect(),
        );
        Epoch {
            id,
            packets: u64::from(rows),
            weight: (0..u64::from(rows)).map(|i| i + 1).sum(),
            tables: vec![table],
        }
    }

    #[test]
    fn partial_matches_query_all_entries() {
        let (mut publisher, svc) = service(4);
        publisher.publish_epoch(epoch(0, 500, 3));
        let held = svc.snapshot(Select::Id(0)).unwrap();
        let mut specs = KeySpec::PAPER_SIX.to_vec();
        specs.extend([KeySpec::EMPTY, KeySpec::src_prefix(20)]);
        for spec in specs {
            let served = svc.partial(Select::Id(0), &spec).unwrap();
            assert_eq!(served.entries, oracle(&[held.primary()], &spec), "{spec:?}");
            let direct = held.primary().query_all_entries(&[spec]);
            assert_eq!(served.entries, direct[0], "{spec:?}");
            assert_eq!(served.epoch, 0);
        }
    }

    #[test]
    fn multi_matches_and_filters() {
        let (mut publisher, svc) = service(4);
        publisher.publish_epoch(epoch(0, 400, 11));
        let held = svc.snapshot(Select::Latest).unwrap();
        let specs = [KeySpec::SRC_DST, KeySpec::SRC_IP, KeySpec::EMPTY];
        let direct: Vec<_> = specs.iter().map(|s| oracle(&[held.primary()], s)).collect();

        let served = svc.multi(Select::Latest, &specs, 0).unwrap();
        for (ans, want) in served.iter().zip(&direct) {
            assert_eq!(&ans.entries, want);
        }

        let threshold = 1000;
        let filtered = svc.multi(Select::Latest, &specs, threshold).unwrap();
        for (ans, want) in filtered.iter().zip(&direct) {
            let want: Vec<_> = want
                .iter()
                .copied()
                .filter(|&(_, s)| s >= threshold)
                .collect();
            assert_eq!(ans.entries, want);
        }
    }

    #[test]
    fn window_sums_across_epochs() {
        let (mut publisher, svc) = service(8);
        for id in 0..3 {
            publisher.publish_epoch(epoch(id, 200, id as u32 * 19));
        }
        let spec = KeySpec::SRC_IP;
        let (answer, contributed) = svc.window(0, 2, &spec).unwrap();
        assert_eq!(contributed, 3);
        assert_eq!(answer.epoch, 2);
        let held: Vec<_> = (0..3)
            .map(|id| svc.snapshot(Select::Id(id)).unwrap())
            .collect();
        let tables: Vec<&FlowTable> = held.iter().map(|e| e.primary()).collect();
        assert_eq!(answer.entries, oracle(&tables, &spec));
        // Ranges clipped to retention still answer.
        let (_, n) = svc.window(1, 99, &spec).unwrap();
        assert_eq!(n, 2);
        assert!(svc.window(40, 50, &spec).is_none());
    }

    #[test]
    fn selection_and_validation_misses_are_none() {
        let (mut publisher, svc) = service(2);
        assert!(svc.partial(Select::Latest, &KeySpec::SRC_IP).is_none());
        publisher.publish_epoch(epoch(0, 10, 0));
        publisher.publish_epoch(epoch(1, 10, 1));
        publisher.publish_epoch(epoch(2, 10, 2)); // evicts 0
        assert!(svc.partial(Select::Id(0), &KeySpec::SRC_IP).is_none());
        assert!(svc.partial(Select::Id(3), &KeySpec::SRC_IP).is_none());
        // A spec that is not partial of the 5-tuple: impossible here
        // (everything is), so exercise via a narrower full key.
        let (mut p2, svc2) = service(2);
        let narrow = KeySpec::SRC_IP;
        p2.publish_epoch(Epoch {
            id: 0,
            packets: 0,
            weight: 0,
            tables: vec![FlowTable::new(narrow, vec![])],
        });
        assert!(svc2.partial(Select::Latest, &KeySpec::SRC_DST).is_none());
        assert!(svc2
            .multi(Select::Latest, &[narrow, KeySpec::SRC_DST], 0)
            .is_none());
        // Info reflects occupancy and cache activity.
        assert!(svc.partial(Select::Latest, &KeySpec::SRC_IP).is_some());
        let info = svc.info();
        assert_eq!(info.ids, Some((1, 2)));
        assert_eq!(info.epochs, 2);
        assert!(info.cache.hits + info.cache.misses > 0);
    }

    #[test]
    fn cold_backfill_serves_evicted_epochs_bit_identical() {
        use cocosketch::segment::EpochDir;
        let root = std::env::temp_dir().join(format!("serve-cold-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        let (mut publisher, svc) = service_with_cold(2, DirReader::new(&root));
        let spec = KeySpec::SRC_IP;
        let mut sealed = Vec::new();
        for id in 0..5u64 {
            let e = epoch(id, 150, id as u32 * 7);
            dir.append(&e).unwrap();
            sealed.push(e.clone());
            publisher.publish_epoch(e);
        }
        let tables: Vec<&FlowTable> = sealed.iter().map(|e| e.primary()).collect();
        assert_eq!(svc.info().ids, Some((3, 4)), "catalog holds the last 2");
        // Every id answers — warm from the catalog, cold from disk —
        // and cold answers match the pre-eviction direct scans exactly.
        for id in 0..5u64 {
            let ans = svc.partial(Select::Id(id), &spec).unwrap();
            assert_eq!(
                ans.entries,
                oracle(&tables[id as usize..=id as usize], &spec)
            );
            assert_eq!(ans.epoch, id);
        }
        assert!(svc.partial(Select::Id(9), &spec).is_none());
        // A window spanning both tiers sums all five epochs.
        let (answer, contributed) = svc.window(0, 4, &spec).unwrap();
        assert_eq!(contributed, 5);
        assert_eq!(answer.entries, oracle(&tables, &spec));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn window_includes_fully_contained_buckets() {
        use cocosketch::segment::{CompactionPolicy, EpochDir};
        let root = std::env::temp_dir().join(format!("serve-bucket-win-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        let spec = KeySpec::SRC_IP;
        let mut sealed = Vec::new();
        for id in 0..6u64 {
            let e = epoch(id, 120, id as u32 * 13);
            dir.append(&e).unwrap();
            sealed.push(e);
        }
        let tables: Vec<&FlowTable> = sealed.iter().map(|e| e.primary()).collect();
        // Horizon = 5 - 1 = 4: ids 0..=3 fold into buckets [0-1] and
        // [2-3]; 4 and 5 stay single-epoch segments.
        dir.compact(&CompactionPolicy {
            bucket: 2,
            keep_recent: 1,
        })
        .unwrap();
        assert_eq!(dir.len(), 4);
        // Nothing published: the whole window answers from disk, and
        // the buckets' merged weight stands in exactly for their
        // member epochs.
        let (_publisher, svc) = service_with_cold(4, DirReader::new(&root));
        let (answer, contributed) = svc.window(0, 5, &spec).unwrap();
        assert_eq!(contributed, 6, "buckets count their whole span");
        assert_eq!(answer.epoch, 5);
        assert_eq!(answer.entries, oracle(&tables, &spec));
        // A range that splits a bucket serves what it can; the
        // excluded straddling bucket shows up as missing coverage.
        let (partial_ans, n) = svc.window(1, 5, &spec).unwrap();
        assert_eq!(n, 4, "bucket [2-3] plus singles 4, 5; [0-1] straddles");
        assert_eq!(partial_ans.entries, oracle(&tables[2..], &spec));
        assert_eq!(svc.info().cold_errors, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    /// An epoch whose table holds two rows per source IP in `srcs`
    /// (different destinations and ports), so coarse keys collide.
    fn epoch_of_sources(id: u64, srcs: std::ops::RangeInclusive<u32>) -> Epoch {
        let full = KeySpec::FIVE_TUPLE;
        let rows: Vec<(KeyBytes, u64)> = srcs
            .flat_map(|src| {
                [(7, 80), (9, 443)].map(|(dst, port)| {
                    let ft = FiveTuple::new(src, dst, (src % 5) as u16, port, 6);
                    (full.project(&ft), u64::from(src % 13 + dst))
                })
            })
            .collect();
        let weight = rows.iter().map(|&(_, s)| s).sum();
        Epoch {
            id,
            packets: rows.len() as u64,
            weight,
            tables: vec![FlowTable::new(full, rows)],
        }
    }

    #[test]
    fn window_merges_sorted_runs_across_tiers() {
        use cocosketch::segment::{CompactionPolicy, EpochDir};
        let root = std::env::temp_dir().join(format!("serve-win-runs-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        let sealed = [
            // Cold, compacted into bucket [0-1]: sources 1..=60 appear
            // in no other epoch, and 21..=40 overlap inside the bucket.
            epoch_of_sources(0, 1..=40),
            epoch_of_sources(1, 21..=60),
            // Cold single segment with a key set disjoint from all.
            epoch_of_sources(2, 100..=140),
            // Warm, with an empty table.
            Epoch {
                id: 3,
                packets: 0,
                weight: 0,
                tables: vec![FlowTable::new(KeySpec::FIVE_TUPLE, vec![])],
            },
            // Warm, disjoint from the cold epochs, overlapping each other.
            epoch_of_sources(4, 200..=260),
            epoch_of_sources(5, 230..=300),
        ];
        for e in &sealed {
            dir.append(e).unwrap();
        }
        dir.compact(&CompactionPolicy {
            bucket: 2,
            keep_recent: 3,
        })
        .unwrap();
        assert_eq!(dir.len(), 5, "bucket [0-1] plus singles 2..=5");
        let (mut publisher, svc) = service_with_cold(3, DirReader::new(&root));
        for e in &sealed {
            publisher.publish_epoch(e.clone());
        }
        assert_eq!(svc.info().ids, Some((3, 5)));
        let tables: Vec<&FlowTable> = sealed.iter().map(|e| e.primary()).collect();
        let mut specs = KeySpec::PAPER_SIX.to_vec();
        specs.extend([KeySpec::EMPTY, KeySpec::src_prefix(28)]);
        for spec in specs {
            let (answer, contributed) = svc.window(0, 5, &spec).unwrap();
            assert_eq!(contributed, 6, "{spec:?}");
            assert_eq!(answer.entries, oracle(&tables, &spec), "{spec:?}");
            assert_eq!(answer.weight, tables.iter().map(|t| t.total()).sum::<u64>());
            // The straddled bucket drops out; the rest still merges.
            let (answer, contributed) = svc.window(1, 5, &spec).unwrap();
            assert_eq!(contributed, 4, "{spec:?}");
            assert_eq!(answer.entries, oracle(&tables[2..], &spec), "{spec:?}");
            // A window of only the empty epoch answers with no rows.
            let (answer, contributed) = svc.window(3, 3, &spec).unwrap();
            assert_eq!((contributed, answer.entries.len()), (1, 0));
        }
        assert_eq!(svc.info().cold_errors, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cold_read_failures_are_counted_not_silent() {
        let root = std::env::temp_dir().join(format!("serve-cold-err-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        // A manifest that parses but names a segment file that does
        // not exist: the read must answer as a miss AND be counted.
        std::fs::write(root.join("MANIFEST"), "CDM1\nseg 0 0 64 0000000000000000\n").unwrap();
        let (mut publisher, svc) = service_with_cold(2, DirReader::new(&root));
        assert!(svc.partial(Select::Id(0), &KeySpec::SRC_IP).is_none());
        assert_eq!(svc.info().cold_errors, 1, "missing segment is an error");
        // A garbage manifest fails the window's cold scan, but warm
        // epochs still answer — degraded, counted, never silent.
        std::fs::write(root.join("MANIFEST"), "garbage").unwrap();
        publisher.publish_epoch(epoch(0, 50, 1));
        let (_, contributed) = svc.window(0, 0, &KeySpec::SRC_IP).unwrap();
        assert_eq!(contributed, 1);
        assert_eq!(svc.info().cold_errors, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cold_latest_answers_before_first_publish() {
        use cocosketch::segment::EpochDir;
        let root = std::env::temp_dir().join(format!("serve-cold-latest-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        for id in 0..2u64 {
            dir.append(&epoch(id, 60, id as u32)).unwrap();
        }
        // A reader attaches to a restarted collector: nothing published
        // yet, but the directory has history.
        let (_publisher, svc) = service_with_cold(2, DirReader::new(&root));
        let ans = svc.partial(Select::Latest, &KeySpec::SRC_IP).unwrap();
        assert_eq!(ans.epoch, 1, "cold latest");
        let (_, contributed) = svc.window(0, 9, &KeySpec::SRC_IP).unwrap();
        assert_eq!(contributed, 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn readers_and_publisher_run_concurrently() {
        let (mut publisher, svc) = service(3);
        publisher.publish_epoch(epoch(0, 300, 0));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let svc = Arc::clone(&svc);
                let stop = &stop;
                scope.spawn(move || {
                    let mut answered = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        for spec in KeySpec::PAPER_SIX {
                            if let Some(ans) = svc.partial(Select::Latest, &spec) {
                                // Conservation: entries sum to the
                                // epoch's total weight on every spec.
                                let total: u64 = ans.entries.iter().map(|&(_, s)| s).sum();
                                let e = svc.snapshot(Select::Id(ans.epoch));
                                if let Some(e) = e {
                                    assert_eq!(total, e.weight);
                                }
                                answered += 1;
                            }
                        }
                    }
                    answered
                });
            }
            for id in 1..40 {
                publisher.publish_epoch(epoch(id, 300, id as u32));
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(svc.info().ids, Some((37, 39)));
    }
}
