//! Correctness gates: every served answer is checked against an oracle
//! computed outside the service, before any number is printed.
//!
//! - A partial or hierarchy answer must equal
//!   [`FlowTable::query_all_entries`] on the same epoch and specs.
//! - A window answer must equal the sum of its per-epoch oracle
//!   answers, with packets and weight summed likewise.
//! - Each sealed epoch's packets and weight must equal its slice of the
//!   input stream (checked where it is sealed).
//! - Each spilled segment, reopened from disk, must carry the same
//!   fingerprint as the epoch had when it was sealed.
//!
//! Oracle epochs come from the benchmark's own handles to the retained
//! epochs, or from the segment files for evicted ones; a cold epoch is
//! used only after its fingerprint matches the one taken at seal time.

use cocosketch::{DirReader, Epoch, FlowTable};
use serve::{Answer, Request};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use traffic::{KeyBytes, KeySpec};

/// One query of the schedule.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// One partial key against one epoch.
    Partial(u64, KeySpec),
    /// The source-IP hierarchy against one epoch.
    Multi(u64),
    /// One partial key summed over the epochs `first..=last`.
    Window(u64, u64, KeySpec),
}

impl Query {
    pub fn request(&self, hierarchy: &[KeySpec]) -> Request {
        match *self {
            Query::Partial(id, spec) => Request::Partial(serve::Select::Id(id), spec),
            Query::Multi(id) => Request::Multi(serve::Select::Id(id), hierarchy.to_vec(), 0),
            Query::Window(first, last, spec) => Request::Window(first, last, spec),
        }
    }

    /// Epoch ids the query reads.
    pub fn ids(&self) -> std::ops::RangeInclusive<u64> {
        match *self {
            Query::Partial(id, _) | Query::Multi(id) => id..=id,
            Query::Window(first, last, _) => first..=last,
        }
    }
}

/// An answer reduced to what the gate compares: the answering epoch's
/// id and accounting, and per table its spec and a hash of its rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    pub id: u64,
    pub packets: u64,
    pub weight: u64,
    pub tables: Vec<(KeySpec, u64)>,
}

/// Order-sensitive 64-bit hash of `(key, size)` rows: a multiply-xor
/// mix over each key's bytes and size (fast enough to check every
/// served answer without dominating the run).
pub fn rows_hash(rows: &[(KeyBytes, u64)]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, word: u64| (h.rotate_left(23) ^ word).wrapping_mul(K);
    let mut h = rows.len() as u64;
    for (key, size) in rows {
        let bytes = key.as_slice();
        let mut buf = [0u8; 16];
        buf[..bytes.len()].copy_from_slice(bytes);
        let (lo, hi) = buf.split_at(8);
        h = mix(
            h,
            u64::from_le_bytes(lo.try_into().expect("8 bytes")) ^ bytes.len() as u64,
        );
        h = mix(h, u64::from_le_bytes(hi.try_into().expect("8 bytes")));
        h = mix(h, *size);
    }
    h
}

/// Hash of an epoch's id, accounting, and every table's spec and rows.
pub fn fingerprint(epoch: &Epoch) -> u64 {
    let mut h = DefaultHasher::new();
    (epoch.id, epoch.packets, epoch.weight).hash(&mut h);
    for table in &epoch.tables {
        table.full_spec().hash(&mut h);
        rows_hash(table.rows()).hash(&mut h);
    }
    h.finish()
}

impl Digest {
    /// A wire answer: a derived epoch with one table per queried spec.
    pub fn of_wire(answer: &Epoch) -> Self {
        Digest {
            id: answer.id,
            packets: answer.packets,
            weight: answer.weight,
            tables: answer
                .tables
                .iter()
                .map(|t| (*t.full_spec(), rows_hash(t.rows())))
                .collect(),
        }
    }

    /// In-process answers (one per queried spec).
    pub fn of_answers(answers: &[Answer]) -> Self {
        let (id, packets, weight) = answers
            .first()
            .map_or((0, 0, 0), |a| (a.epoch, a.packets, a.weight));
        Digest {
            id,
            packets,
            weight,
            tables: answers
                .iter()
                .map(|a| (a.spec, rows_hash(&a.entries)))
                .collect(),
        }
    }
}

/// The gate's oracle: expected digests, computed once per distinct
/// query, from epochs the benchmark holds or re-reads itself.
pub struct Oracle {
    hierarchy: Vec<KeySpec>,
    keep: usize,
    retained: BTreeMap<u64, Arc<Epoch>>,
    fingerprints: BTreeMap<u64, u64>,
    reopened: BTreeMap<u64, Arc<Epoch>>,
    cold: DirReader,
    expected: HashMap<Query, Digest>,
}

impl Oracle {
    pub fn new(hierarchy: Vec<KeySpec>, keep: usize, cold: DirReader) -> Self {
        Self {
            hierarchy,
            keep,
            retained: BTreeMap::new(),
            fingerprints: BTreeMap::new(),
            reopened: BTreeMap::new(),
            cold,
            expected: HashMap::new(),
        }
    }

    /// Record a sealed epoch, mirroring the service's retention of the
    /// last `keep` epochs.
    pub fn sealed(&mut self, epoch: &Arc<Epoch>) {
        self.fingerprints.insert(epoch.id, fingerprint(epoch));
        self.retained.insert(epoch.id, Arc::clone(epoch));
        while self.retained.len() > self.keep {
            self.retained.pop_first();
        }
    }

    pub fn is_retained(&self, id: u64) -> bool {
        self.retained.contains_key(&id)
    }

    pub fn retained_ids(&self) -> Vec<u64> {
        self.retained.keys().copied().collect()
    }

    /// The epoch `id` as it was sealed: the retained handle, or the
    /// reopened segment once its fingerprint matches (kept, since the
    /// window queries reach back over the same few evicted epochs).
    fn epoch(&mut self, id: u64) -> Result<Arc<Epoch>, String> {
        if let Some(epoch) = self.retained.get(&id).or_else(|| self.reopened.get(&id)) {
            return Ok(Arc::clone(epoch));
        }
        let epoch = Arc::new(self.reopen(id)?);
        self.reopened.insert(id, Arc::clone(&epoch));
        Ok(epoch)
    }

    /// Reopen epoch `id` from its segment and check its fingerprint.
    fn reopen(&self, id: u64) -> Result<Epoch, String> {
        let want = self
            .fingerprints
            .get(&id)
            .ok_or_else(|| format!("epoch {id} was never sealed"))?;
        let epoch = self
            .cold
            .read_epoch(id)
            .map_err(|e| format!("reopening epoch {id}: {e}"))?
            .ok_or_else(|| format!("epoch {id} has no segment"))?;
        if fingerprint(&epoch) != *want {
            return Err(format!("epoch {id} reopened with different contents"));
        }
        Ok(epoch)
    }

    fn compute(&mut self, query: &Query) -> Result<Digest, String> {
        let entries = |table: &FlowTable, specs: &[KeySpec]| table.query_all_entries(specs);
        match query {
            Query::Partial(id, spec) => {
                let epoch = self.epoch(*id)?;
                let rows = entries(epoch.primary(), &[*spec]).remove(0);
                Ok(Digest {
                    id: *id,
                    packets: epoch.packets,
                    weight: epoch.weight,
                    tables: vec![(*spec, rows_hash(&rows))],
                })
            }
            Query::Multi(id) => {
                let epoch = self.epoch(*id)?;
                let levels = entries(epoch.primary(), &self.hierarchy);
                Ok(Digest {
                    id: *id,
                    packets: epoch.packets,
                    weight: epoch.weight,
                    tables: self
                        .hierarchy
                        .iter()
                        .zip(&levels)
                        .map(|(spec, rows)| (*spec, rows_hash(rows)))
                        .collect(),
                })
            }
            Query::Window(first, last, spec) => {
                let mut sum: HashMap<KeyBytes, u64> = HashMap::new();
                let (mut packets, mut weight) = (0, 0);
                for id in *first..=*last {
                    let epoch = self.epoch(id)?;
                    for (key, size) in entries(epoch.primary(), &[*spec]).remove(0) {
                        *sum.entry(key).or_insert(0) += size;
                    }
                    packets += epoch.packets;
                    weight += epoch.weight;
                }
                let mut rows: Vec<(KeyBytes, u64)> = sum.into_iter().collect();
                rows.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
                Ok(Digest {
                    id: *last,
                    packets,
                    weight,
                    tables: vec![(*spec, rows_hash(&rows))],
                })
            }
        }
    }

    /// Compute the expected answer to `query` now, so that the check
    /// after a timed request is only a comparison (an oracle computed
    /// between two timed requests would disturb the second one's caches
    /// and heap).
    pub fn expect(&mut self, query: &Query) -> Result<(), String> {
        if !self.expected.contains_key(query) {
            let want = self.compute(query)?;
            self.expected.insert(query.clone(), want);
        }
        Ok(())
    }

    /// Check a served answer's digest against the oracle.
    pub fn check(&mut self, query: &Query, got: &Digest) -> Result<(), String> {
        self.expect(query)?;
        let want = &self.expected[query];
        if got != want {
            return Err(format!(
                "served answer to {query:?} differs from the oracle \
                 (got epoch {} packets {} weight {}, want epoch {} packets {} weight {}, \
                 tables equal: {})",
                got.id,
                got.packets,
                got.weight,
                want.id,
                want.packets,
                want.weight,
                got.tables == want.tables
            ));
        }
        Ok(())
    }

    /// Reopen every sealed epoch that has a segment and compare.
    pub fn check_segments(&self) -> Result<usize, String> {
        for &id in self.fingerprints.keys() {
            self.reopen(id)?;
        }
        Ok(self.fingerprints.len())
    }
}
