//! Interned, columnar relation storage with functional-dependency
//! enforcement and lazily-built, incrementally-maintained secondary indexes.
//!
//! Every value is encoded to a dense `u32` id by the workspace's shared
//! [`Interner`] at insert time.  The authoritative hot-path storage is
//! column-major: tuples of the same arity live in one [`ColumnGroup`] whose
//! `arity` parallel `Vec<u32>` columns the batch executor scans directly.
//! Membership, the functional-dependency index, and every secondary index
//! key on 64-bit FNV hashes of id projections ([`fnv_ids`]) — equality and
//! hashing on the hot path are integer ops, and index maintenance projects
//! id rows instead of cloning `Value`s per probe.  Bucket candidates are
//! verified against the exact id projection before they are returned, so a
//! hash collision can never surface a wrong tuple.
//!
//! Alongside the columns, each live tuple keeps one materialized
//! `Arc<Tuple>` row: the boundary representation handed to everything that
//! must see real `Value`s (the codec, signing, Merkle commitments, UDFs,
//! comparisons).  It is maintained at insert time, so boundary reads are
//! free and dictionary ids never leak out of the storage layer.
//!
//! A tuple's [`TupleId`] is stable for its lifetime; removed slots are
//! recycled.  Secondary indexes are built on demand (the planner requests
//! the signatures its probes need via [`Relation::ensure_index`]) and
//! maintained incrementally, so delta application and DRed see a consistent
//! view at all times.
//!
//! Concurrency contract (DESIGN.md §8): a `Relation` is `Send + Sync`, and
//! every read path ([`Relation::probe`], [`Relation::iter`],
//! [`Relation::select`], [`Relation::matches_any`],
//! [`Relation::functional_lookup`], [`Relation::tuple_by_id`],
//! [`Relation::group`]) takes `&self`, so the worker pool shares relations
//! across threads as read-only probe views.  All mutation — inserts,
//! removals, and [`Relation::ensure_index`] builds — is single-writer: the
//! evaluator thread builds the indexes a plan probes *before* handing
//! batches to workers and applies the merged derivation buffer *after* they
//! finish.

use crate::error::{DatalogError, Result};
use crate::intern::{fnv_ids, Interner, PassBuild};
use crate::value::{Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Stable identifier of a tuple inside one relation.
pub type TupleId = u32;

/// A bound-column signature: bit `i` set means column `i` is part of the
/// index key.  Relations wider than 64 columns are never indexed — the
/// planner's `probe_signature` falls back to scans for them (see
/// [`column_set`]).
pub type ColumnSet = u64;

/// Build a [`ColumnSet`] from column positions.
///
/// Positions ≥ 64 cannot be represented.  In debug builds this asserts —
/// silently dropping a position would build a *wrong* (too-coarse) index
/// key for a wide predicate.  In release builds the position is ignored,
/// which is safe for every in-tree caller because the planner's
/// `probe_signature` already refuses to plan probes on predicates wider
/// than 64 columns (they fall back to full scans).
pub fn column_set(columns: impl IntoIterator<Item = usize>) -> ColumnSet {
    let mut set = 0u64;
    for column in columns {
        debug_assert!(
            column < 64,
            "column position {column} does not fit a ColumnSet; \
             predicates wider than 64 columns must fall back to scans"
        );
        if column < 64 {
            set |= 1 << column;
        }
    }
    set
}

/// Sentinel arity marking a recycled slot.
const FREE_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Arity of the stored tuple, or [`FREE_SLOT`].
    arity: u32,
    /// Row position inside the tuple's [`ColumnGroup`].
    row: u32,
}

/// Column-major storage for all live tuples of one arity: `arity` parallel
/// id columns plus a back-pointer from each row to its stable [`TupleId`].
/// This is what the batch executor scans.
#[derive(Debug, Clone, Default)]
pub struct ColumnGroup {
    arity: usize,
    cols: Vec<Vec<u32>>,
    ids: Vec<TupleId>,
}

impl ColumnGroup {
    fn new(arity: usize) -> Self {
        ColumnGroup {
            arity,
            cols: (0..arity).map(|_| Vec::new()).collect(),
            ids: Vec::new(),
        }
    }

    /// The arity shared by every row of this group.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live rows.
    pub fn rows(&self) -> usize {
        self.ids.len()
    }

    /// The id column at position `col`.
    pub fn col(&self, col: usize) -> &[u32] {
        &self.cols[col]
    }

    /// Back-pointers: `tuple_ids()[row]` is the [`TupleId`] of row `row`.
    pub fn tuple_ids(&self) -> &[TupleId] {
        &self.ids
    }

    fn push(&mut self, ids: &[u32], tuple_id: TupleId) -> u32 {
        debug_assert_eq!(ids.len(), self.arity);
        for (col, &id) in self.cols.iter_mut().zip(ids) {
            col.push(id);
        }
        self.ids.push(tuple_id);
        (self.ids.len() - 1) as u32
    }

    /// Remove `row` by swapping the last row into its place; returns the
    /// [`TupleId`] of the moved row (if any) so the caller can fix its slot.
    fn swap_remove(&mut self, row: u32) -> Option<TupleId> {
        let row = row as usize;
        for col in &mut self.cols {
            col.swap_remove(row);
        }
        self.ids.swap_remove(row);
        self.ids.get(row).copied()
    }
}

/// A stored relation: the extension of one predicate inside a workspace.
#[derive(Debug)]
pub struct Relation {
    name: String,
    /// `Some(k)` if the predicate is functional with `k` key columns (the
    /// remaining single column is the dependent value).
    key_arity: Option<usize>,
    /// The value dictionary (shared workspace-wide via `Arc`).
    interner: Arc<Interner>,
    /// Materialized boundary rows, indexed by [`TupleId`]; recycled slots
    /// hold an empty tuple.
    rows: Vec<Arc<Tuple>>,
    /// Per-tuple location: arity + row inside that arity's group.
    slots: Vec<Slot>,
    /// Recyclable slots.
    free: Vec<TupleId>,
    /// Live tuple count.
    len: usize,
    /// Column-major id storage, one group per arity (linear scan: a
    /// relation in practice holds one or two arities).
    groups: Vec<ColumnGroup>,
    /// Membership: hash of (arity, id row) → candidate ids.
    live: HashMap<u64, Vec<TupleId>, PassBuild>,
    /// Functional predicates: hash of the key-id prefix → candidate ids.
    fd_index: HashMap<u64, Vec<TupleId>, PassBuild>,
    /// Secondary indexes: signature → (hash of id projection → ids).
    indexes: HashMap<ColumnSet, HashMap<u64, Vec<TupleId>, PassBuild>>,
}

impl Default for Relation {
    fn default() -> Self {
        Relation::new("", None)
    }
}

/// Cloning preserves [`TupleId`]s, shares the interner and the `Arc`'d
/// boundary rows, and drops the secondary indexes: they are rebuildable
/// caches, and the clone the engine takes (DRed's pre-deletion view) should
/// not pay for copying them.  All other
/// state is integer vectors and integer-keyed maps, so a clone is a flat
/// memcpy plus one refcount bump per tuple — no value is rehashed.
impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            name: self.name.clone(),
            key_arity: self.key_arity,
            interner: Arc::clone(&self.interner),
            rows: self.rows.clone(),
            slots: self.slots.clone(),
            free: self.free.clone(),
            len: self.len,
            groups: self.groups.clone(),
            live: self.live.clone(),
            fd_index: self.fd_index.clone(),
            indexes: HashMap::new(),
        }
    }
}

impl Relation {
    /// Create an empty relation with a private dictionary.  Inside a
    /// workspace use [`Relation::with_interner`] so every relation shares
    /// one dictionary and the batch executor can join in id space.
    pub fn new(name: impl Into<String>, key_arity: Option<usize>) -> Self {
        Relation::with_interner(name, key_arity, Arc::new(Interner::new()))
    }

    /// Create an empty relation sharing `interner`.
    pub fn with_interner(
        name: impl Into<String>,
        key_arity: Option<usize>,
        interner: Arc<Interner>,
    ) -> Self {
        Relation {
            name: name.into(),
            key_arity,
            interner,
            rows: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            groups: Vec::new(),
            live: HashMap::default(),
            fd_index: HashMap::default(),
            indexes: HashMap::new(),
        }
    }

    /// The relation (predicate) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functional key arity, if the predicate is functional.
    pub fn key_arity(&self) -> Option<usize> {
        self.key_arity
    }

    /// The value dictionary this relation encodes against.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column group for `arity`, if any tuple of that arity was ever
    /// inserted.  Rows removed from a group leave it in place (possibly
    /// empty).
    pub fn group(&self, arity: usize) -> Option<&ColumnGroup> {
        self.groups.iter().find(|group| group.arity == arity)
    }

    /// All column groups (the batch executor's scan entry point).
    pub fn column_groups(&self) -> &[ColumnGroup] {
        &self.groups
    }

    fn group_mut(&mut self, arity: usize) -> &mut ColumnGroup {
        if let Some(position) = self.groups.iter().position(|group| group.arity == arity) {
            &mut self.groups[position]
        } else {
            self.groups.push(ColumnGroup::new(arity));
            self.groups.last_mut().expect("just pushed")
        }
    }

    /// The id at column `col` of the live tuple `id`, or `None` when the
    /// tuple is shorter.
    fn row_id_at(&self, id: TupleId, col: usize) -> Option<u32> {
        let slot = self.slots[id as usize];
        debug_assert_ne!(slot.arity, FREE_SLOT);
        if col >= slot.arity as usize {
            return None;
        }
        let group = self.group(slot.arity as usize)?;
        Some(group.cols[col][slot.row as usize])
    }

    /// Gather the full id row of live tuple `id` into `out` (cleared first).
    pub fn row_ids(&self, id: TupleId, out: &mut Vec<u32>) {
        out.clear();
        let slot = self.slots[id as usize];
        debug_assert_ne!(slot.arity, FREE_SLOT);
        if let Some(group) = self.group(slot.arity as usize) {
            for col in &group.cols {
                out.push(col[slot.row as usize]);
            }
        }
    }

    fn row_hash(ids: &[u32]) -> u64 {
        fnv_ids(ids.len() as u64, ids.iter().copied())
    }

    /// Find the live tuple whose id row equals `ids`, verifying candidates.
    fn find_live(&self, ids: &[u32]) -> Option<TupleId> {
        let bucket = self.live.get(&Self::row_hash(ids))?;
        bucket
            .iter()
            .copied()
            .find(|&candidate| self.id_row_equals(candidate, ids))
    }

    fn id_row_equals(&self, id: TupleId, ids: &[u32]) -> bool {
        let slot = self.slots[id as usize];
        if slot.arity as usize != ids.len() {
            return false;
        }
        let Some(group) = self.group(slot.arity as usize) else {
            return false;
        };
        group
            .cols
            .iter()
            .zip(ids)
            .all(|(col, &want)| col[slot.row as usize] == want)
    }

    fn fd_hash(key_ids: &[u32]) -> u64 {
        // Seeded differently from row_hash so a functional predicate's key
        // and a full row never collide structurally.
        fnv_ids(0x5d, key_ids.iter().copied())
    }

    /// Find the functional row whose key-id prefix equals `key_ids`.
    fn find_fd(&self, key_ids: &[u32]) -> Option<TupleId> {
        let bucket = self.fd_index.get(&Self::fd_hash(key_ids))?;
        bucket.iter().copied().find(|&candidate| {
            key_ids
                .iter()
                .enumerate()
                .all(|(col, &want)| self.row_id_at(candidate, col) == Some(want))
        })
    }

    /// Hash of the projection of `ids` onto `cols`, or `None` when the row
    /// is too short to have every indexed column — such a row can never
    /// match a probe of that signature and is excluded from the index.
    fn project_hash(ids: &[u32], cols: ColumnSet) -> Option<u64> {
        if cols == 0 {
            return None;
        }
        let highest = 63 - cols.leading_zeros() as usize;
        if highest >= ids.len() {
            return None;
        }
        let mut mask = cols;
        Some(fnv_ids(
            cols,
            std::iter::from_fn(move || {
                if mask == 0 {
                    return None;
                }
                let position = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                Some(ids[position])
            }),
        ))
    }

    /// True when live tuple `id` projects onto `cols` exactly as `key_ids`.
    fn projection_matches(&self, id: TupleId, cols: ColumnSet, key_ids: &[u32]) -> bool {
        let mut mask = cols;
        for &want in key_ids {
            if mask == 0 {
                return false;
            }
            let position = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if self.row_id_at(id, position) != Some(want) {
                return false;
            }
        }
        mask == 0
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        let mut ids = Vec::with_capacity(tuple.len());
        self.interner.try_row(tuple, &mut ids) && self.find_live(&ids).is_some()
    }

    /// Iterate over all tuples in [`TupleId`]-stable group order — a
    /// deterministic function of the operation sequence applied to the
    /// relation (unlike the value-hash order of the previous row store).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.groups
            .iter()
            .flat_map(|group| group.ids.iter())
            .map(|&id| self.rows[id as usize].as_ref())
    }

    /// All tuples in a deterministic order (sorted by the total value order),
    /// for stable output and tests.
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self.iter().cloned().collect();
        out.sort_by(|a, b| crate::value::tuple_total_cmp(a, b));
        out
    }

    /// Insert a tuple.
    ///
    /// Returns `Ok(true)` if the tuple is new, `Ok(false)` if it was already
    /// present, and a [`DatalogError::FunctionalDependency`] error if the
    /// predicate is functional and the key already maps to a different value.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        let mut ids = Vec::with_capacity(tuple.len());
        self.interner.intern_row(&tuple, &mut ids);
        match self.check_insert_ids(&ids)? {
            None => Ok(false),
            Some(()) => {
                self.insert_row(Arc::new(tuple), &ids);
                Ok(true)
            }
        }
    }

    /// Insert a pre-encoded id row (the batch executor's insert path; the
    /// ids must come from this relation's own interner).  Identical
    /// semantics to [`Relation::insert`]; the boundary row is rehydrated
    /// once, only for genuinely new tuples.
    pub fn insert_ids(&mut self, ids: &[u32]) -> Result<bool> {
        match self.check_insert_ids(ids)? {
            None => Ok(false),
            Some(()) => {
                let tuple = self.interner.resolve_row(ids);
                self.insert_row(Arc::new(tuple), ids);
                Ok(true)
            }
        }
    }

    /// Shared admission check: `Ok(None)` = duplicate, `Ok(Some(()))` =
    /// insert may proceed, `Err` = functional-dependency violation.
    fn check_insert_ids(&self, ids: &[u32]) -> Result<Option<()>> {
        if let Some(key_arity) = self.key_arity {
            if ids.len() != key_arity + 1 {
                return Err(DatalogError::Eval(format!(
                    "functional predicate {} expects {} columns, got {}",
                    self.name,
                    key_arity + 1,
                    ids.len()
                )));
            }
            if let Some(existing_id) = self.find_fd(&ids[..key_arity]) {
                let existing_value = self.rows[existing_id as usize][key_arity].clone();
                if self.row_id_at(existing_id, key_arity) == Some(ids[key_arity]) {
                    return Ok(None);
                }
                return Err(DatalogError::FunctionalDependency {
                    predicate: self.name.clone(),
                    key: self.interner.resolve_row(&ids[..key_arity]),
                    existing: vec![existing_value],
                    attempted: vec![self.interner.value(ids[key_arity])],
                });
            }
            // A live duplicate always has a matching fd entry, so reaching
            // here means the row is new.
            debug_assert!(self.find_live(ids).is_none());
        } else if self.find_live(ids).is_some() {
            return Ok(None);
        }
        Ok(Some(()))
    }

    fn insert_row(&mut self, tuple: Arc<Tuple>, ids: &[u32]) {
        let id = match self.free.pop() {
            Some(id) => {
                self.rows[id as usize] = tuple;
                id
            }
            None => {
                let id = self.rows.len() as TupleId;
                self.rows.push(tuple);
                self.slots.push(Slot {
                    arity: FREE_SLOT,
                    row: 0,
                });
                id
            }
        };
        let row = self.group_mut(ids.len()).push(ids, id);
        self.slots[id as usize] = Slot {
            arity: ids.len() as u32,
            row,
        };
        self.live.entry(Self::row_hash(ids)).or_default().push(id);
        if let Some(key_arity) = self.key_arity {
            self.fd_index
                .entry(Self::fd_hash(&ids[..key_arity]))
                .or_default()
                .push(id);
        }
        for (&cols, index) in &mut self.indexes {
            if let Some(hash) = Self::project_hash(ids, cols) {
                index.entry(hash).or_default().push(id);
            }
        }
        self.len += 1;
    }

    /// Insert a tuple for a functional predicate, replacing any existing
    /// value for the same key (used by aggregation recomputation, where a
    /// better aggregate legitimately supersedes the previous one).
    pub fn insert_or_replace(&mut self, tuple: Tuple) -> Result<bool> {
        self.insert_or_replace_returning(tuple)
            .map(|(inserted, _)| inserted)
    }

    /// [`Relation::insert_or_replace`], also returning the displaced tuple
    /// (if any) so callers keeping an undo journal can restore it on
    /// rollback.
    pub fn insert_or_replace_returning(&mut self, tuple: Tuple) -> Result<(bool, Option<Tuple>)> {
        let mut displaced = None;
        if let Some(key_arity) = self.key_arity {
            if tuple.len() == key_arity + 1 {
                let mut key_ids = Vec::with_capacity(key_arity);
                if self.interner.try_row(&tuple[..key_arity], &mut key_ids) {
                    if let Some(existing_id) = self.find_fd(&key_ids) {
                        if self.rows[existing_id as usize][key_arity] == tuple[key_arity] {
                            return Ok((false, None));
                        }
                        displaced = Some((*self.rows[existing_id as usize]).clone());
                        self.remove_by_id(existing_id);
                    }
                }
            }
        }
        self.insert(tuple).map(|inserted| (inserted, displaced))
    }

    /// Remove a tuple, returning whether it was present.
    pub fn remove(&mut self, tuple: &[Value]) -> bool {
        let mut ids = Vec::with_capacity(tuple.len());
        if !self.interner.try_row(tuple, &mut ids) {
            return false;
        }
        let Some(id) = self.find_live(&ids) else {
            return false;
        };
        self.remove_found(id, &ids);
        true
    }

    fn remove_by_id(&mut self, id: TupleId) {
        let mut ids = Vec::new();
        self.row_ids(id, &mut ids);
        self.remove_found(id, &ids);
    }

    fn remove_found(&mut self, id: TupleId, ids: &[u32]) {
        let retain = |bucket: &mut Vec<TupleId>| bucket.retain(|&candidate| candidate != id);
        if let Some(bucket) = self.live.get_mut(&Self::row_hash(ids)) {
            retain(bucket);
            if bucket.is_empty() {
                self.live.remove(&Self::row_hash(ids));
            }
        }
        if let Some(key_arity) = self.key_arity {
            if ids.len() == key_arity + 1 {
                let hash = Self::fd_hash(&ids[..key_arity]);
                if let Some(bucket) = self.fd_index.get_mut(&hash) {
                    retain(bucket);
                    if bucket.is_empty() {
                        self.fd_index.remove(&hash);
                    }
                }
            }
        }
        for (&cols, index) in &mut self.indexes {
            if let Some(hash) = Self::project_hash(ids, cols) {
                if let Some(bucket) = index.get_mut(&hash) {
                    retain(bucket);
                    if bucket.is_empty() {
                        index.remove(&hash);
                    }
                }
            }
        }
        let slot = self.slots[id as usize];
        let position = self
            .groups
            .iter()
            .position(|group| group.arity == slot.arity as usize)
            .expect("live tuple has a group");
        if let Some(moved) = self.groups[position].swap_remove(slot.row) {
            self.slots[moved as usize].row = slot.row;
        }
        // Release the tuple's allocation now rather than when the slot is
        // recycled (retract-heavy workloads would otherwise pin the memory).
        self.rows[id as usize] = Arc::new(Tuple::new());
        self.slots[id as usize] = Slot {
            arity: FREE_SLOT,
            row: 0,
        };
        self.free.push(id);
        self.len -= 1;
    }

    /// Remove all tuples (and drop every index).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.slots.clear();
        self.free.clear();
        self.len = 0;
        self.groups.clear();
        self.live.clear();
        self.fd_index.clear();
        self.indexes.clear();
    }

    /// Look up the dependent value for `key` in a functional predicate.
    pub fn functional_lookup(&self, key: &[Value]) -> Option<&Value> {
        let key_arity = self.key_arity?;
        if key.len() != key_arity {
            return None;
        }
        let mut key_ids = Vec::with_capacity(key.len());
        if !self.interner.try_row(key, &mut key_ids) {
            return None;
        }
        let id = self.find_fd(&key_ids)?;
        Some(&self.rows[id as usize][key_arity])
    }

    /// The value of a zero-key functional predicate (`p[] = v`), if set.
    pub fn singleton_value(&self) -> Option<&Value> {
        if self.key_arity == Some(0) {
            self.functional_lookup(&[])
        } else {
            None
        }
    }

    /// Build the secondary index for `cols` if it does not exist yet.
    /// Returns `true` when an index was actually built.
    pub fn ensure_index(&mut self, cols: ColumnSet) -> bool {
        if cols == 0 || self.indexes.contains_key(&cols) {
            return false;
        }
        let mut index: HashMap<u64, Vec<TupleId>, PassBuild> = HashMap::default();
        let mut ids = Vec::new();
        for group in &self.groups {
            for row in 0..group.rows() {
                ids.clear();
                ids.extend(group.cols.iter().map(|col| col[row]));
                if let Some(hash) = Self::project_hash(&ids, cols) {
                    index.entry(hash).or_default().push(group.ids[row]);
                }
            }
        }
        self.indexes.insert(cols, index);
        true
    }

    /// True if an index exists for `cols`.
    pub fn has_index(&self, cols: ColumnSet) -> bool {
        self.indexes.contains_key(&cols)
    }

    /// Number of secondary indexes currently maintained.
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Probe the `cols` index for tuples whose projection equals `key`.
    /// Returns `None` when no such index exists (caller falls back to a
    /// scan); `Some(empty)` when the index exists but nothing matches.
    /// Candidates are verified, so the result is exact.
    pub fn probe(&self, cols: ColumnSet, key: &[Value]) -> Option<Vec<TupleId>> {
        let index = self.indexes.get(&cols)?;
        let mut key_ids = Vec::with_capacity(key.len());
        if !self.interner.try_row(key, &mut key_ids) {
            // Some key value exists in no relation sharing the dictionary:
            // a definitive miss.
            return Some(Vec::new());
        }
        let hash = fnv_ids(cols, key_ids.iter().copied());
        let Some(bucket) = index.get(&hash) else {
            return Some(Vec::new());
        };
        Some(
            bucket
                .iter()
                .copied()
                .filter(|&id| self.projection_matches(id, cols, &key_ids))
                .collect(),
        )
    }

    /// Probe the `cols` index with a pre-encoded id key.  Returns the raw
    /// bucket: candidates whose projection hash matches.  The batch
    /// executor verifies every constrained column against the candidate's
    /// id row anyway, which subsumes collision filtering — callers that do
    /// not must use [`Relation::probe`].
    pub fn probe_ids(&self, cols: ColumnSet, key_ids: &[u32]) -> Option<&[TupleId]> {
        let index = self.indexes.get(&cols)?;
        let hash = fnv_ids(cols, key_ids.iter().copied());
        Some(index.get(&hash).map(Vec::as_slice).unwrap_or(&[]))
    }

    /// The secondary index for `cols` as its raw projection-hash map, for
    /// probe loops that resolve the index once per batch step and look up
    /// many precomputed [`fnv_ids`] hashes against it.  Buckets are
    /// collision-unfiltered — callers must re-verify candidates.
    pub fn index_map(&self, cols: ColumnSet) -> Option<&HashMap<u64, Vec<TupleId>, PassBuild>> {
        self.indexes.get(&cols)
    }

    /// The tuple stored under `id`.  Only ids obtained from [`Relation::probe`]
    /// against the current state are meaningful.
    pub fn tuple_by_id(&self, id: TupleId) -> &Tuple {
        self.rows[id as usize].as_ref()
    }

    /// The bound-column signature of a partial binding pattern, or 0 when
    /// the pattern is too wide to index (scan fallback).
    fn pattern_cols(pattern: &[Option<Value>]) -> ColumnSet {
        if pattern.len() > 64 {
            return 0;
        }
        column_set(
            pattern
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_some())
                .map(|(i, _)| i),
        )
    }

    fn matches_pattern(tuple: &[Value], pattern: &[Option<Value>]) -> bool {
        tuple.len() == pattern.len()
            && pattern
                .iter()
                .zip(tuple.iter())
                .all(|(p, v)| p.as_ref().is_none_or(|expected| expected == v))
    }

    /// Tuples matching a partial binding pattern: `pattern[i] = Some(v)`
    /// requires column `i` to equal `v`.  Uses an exact-signature secondary
    /// index when one exists.
    pub fn select(&self, pattern: &[Option<Value>]) -> Vec<&Tuple> {
        let cols = Self::pattern_cols(pattern);
        if cols != 0 {
            if let Some(ids) =
                self.probe(cols, &pattern.iter().flatten().cloned().collect::<Tuple>())
            {
                return ids
                    .into_iter()
                    .map(|id| self.tuple_by_id(id))
                    .filter(|tuple| tuple.len() == pattern.len())
                    .collect();
            }
        }
        self.iter()
            .filter(|tuple| Self::matches_pattern(tuple, pattern))
            .collect()
    }

    /// True if at least one tuple matches the partial binding pattern.
    pub fn matches_any(&self, pattern: &[Option<Value>]) -> bool {
        let cols = Self::pattern_cols(pattern);
        if cols != 0 {
            if let Some(ids) =
                self.probe(cols, &pattern.iter().flatten().cloned().collect::<Tuple>())
            {
                return ids
                    .into_iter()
                    .any(|id| self.tuple_by_id(id).len() == pattern.len());
            }
        }
        self.iter()
            .any(|tuple| Self::matches_pattern(tuple, pattern))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(values: &[i64]) -> Tuple {
        values.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn insert_dedup_and_len() {
        let mut rel = Relation::new("link", None);
        assert!(rel.insert(t(&[1, 2])).unwrap());
        assert!(!rel.insert(t(&[1, 2])).unwrap());
        assert!(rel.insert(t(&[2, 3])).unwrap());
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&t(&[1, 2])));
        assert!(!rel.contains(&t(&[3, 1])));
    }

    #[test]
    fn functional_dependency_enforced() {
        let mut rel = Relation::new("bestcost", Some(2));
        rel.insert(t(&[1, 2, 5])).unwrap();
        assert!(!rel.insert(t(&[1, 2, 5])).unwrap());
        let err = rel.insert(t(&[1, 2, 7])).unwrap_err();
        assert!(matches!(err, DatalogError::FunctionalDependency { .. }));
        // Different key is fine.
        rel.insert(t(&[1, 3, 7])).unwrap();
        assert_eq!(rel.functional_lookup(&t(&[1, 2])), Some(&Value::Int(5)));
    }

    #[test]
    fn insert_or_replace_updates_value() {
        let mut rel = Relation::new("bestcost", Some(2));
        rel.insert(t(&[1, 2, 5])).unwrap();
        assert!(rel.insert_or_replace(t(&[1, 2, 3])).unwrap());
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.functional_lookup(&t(&[1, 2])), Some(&Value::Int(3)));
        assert!(!rel.contains(&t(&[1, 2, 5])));
        assert!(!rel.insert_or_replace(t(&[1, 2, 3])).unwrap());
    }

    #[test]
    fn singleton_value_access() {
        let mut rel = Relation::new("self", Some(0));
        assert!(rel.singleton_value().is_none());
        rel.insert(vec![Value::str("n1")]).unwrap();
        assert_eq!(rel.singleton_value(), Some(&Value::str("n1")));
        // A non-singleton relation never reports a singleton value.
        let rel2 = Relation::new("link", None);
        assert!(rel2.singleton_value().is_none());
    }

    #[test]
    fn remove_maintains_fd_index() {
        let mut rel = Relation::new("m", Some(1));
        rel.insert(t(&[1, 10])).unwrap();
        assert!(rel.remove(&t(&[1, 10])));
        assert!(!rel.remove(&t(&[1, 10])));
        // After removal the key can be remapped without a violation.
        rel.insert(t(&[1, 20])).unwrap();
        assert_eq!(rel.functional_lookup(&t(&[1])), Some(&Value::Int(20)));
    }

    #[test]
    fn select_filters_by_pattern() {
        let mut rel = Relation::new("edge", None);
        for (a, b) in [(1, 2), (1, 3), (2, 3)] {
            rel.insert(t(&[a, b])).unwrap();
        }
        let matches = rel.select(&[Some(Value::Int(1)), None]);
        assert_eq!(matches.len(), 2);
        let matches = rel.select(&[None, Some(Value::Int(3))]);
        assert_eq!(matches.len(), 2);
        let matches = rel.select(&[None, None]);
        assert_eq!(matches.len(), 3);
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut rel = Relation::new("edge", None);
        rel.insert(t(&[3, 1])).unwrap();
        rel.insert(t(&[1, 2])).unwrap();
        rel.insert(t(&[1, 1])).unwrap();
        assert_eq!(rel.sorted(), vec![t(&[1, 1]), t(&[1, 2]), t(&[3, 1])]);
    }

    #[test]
    fn arity_mismatch_rejected_for_functional() {
        let mut rel = Relation::new("f", Some(1));
        assert!(rel.insert(t(&[1])).is_err());
    }

    #[test]
    fn index_probe_matches_scan() {
        let mut rel = Relation::new("edge", None);
        for (a, b) in [(1, 2), (1, 3), (2, 3), (4, 1)] {
            rel.insert(t(&[a, b])).unwrap();
        }
        let cols = column_set([0]);
        assert!(rel.probe(cols, &t(&[1])).is_none(), "no index yet");
        assert!(rel.ensure_index(cols));
        assert!(!rel.ensure_index(cols), "second ensure is a no-op");
        let ids = rel.probe(cols, &t(&[1])).unwrap();
        let mut probed: Vec<Tuple> = ids.iter().map(|&id| rel.tuple_by_id(id).clone()).collect();
        probed.sort_by_key(|t| format!("{t:?}"));
        assert_eq!(probed, vec![t(&[1, 2]), t(&[1, 3])]);
        assert_eq!(rel.probe(cols, &t(&[9])).unwrap().len(), 0);
    }

    #[test]
    fn index_maintained_across_insert_and_remove() {
        let mut rel = Relation::new("edge", None);
        let cols = column_set([1]);
        rel.ensure_index(cols);
        rel.insert(t(&[1, 2])).unwrap();
        rel.insert(t(&[3, 2])).unwrap();
        assert_eq!(rel.probe(cols, &t(&[2])).unwrap().len(), 2);
        assert!(rel.remove(&t(&[1, 2])));
        assert_eq!(rel.probe(cols, &t(&[2])).unwrap().len(), 1);
        // Recycled slot gets indexed correctly.
        rel.insert(t(&[5, 2])).unwrap();
        let ids = rel.probe(cols, &t(&[2])).unwrap();
        let mut values: Vec<Tuple> = ids.iter().map(|&id| rel.tuple_by_id(id).clone()).collect();
        values.sort_by_key(|t| format!("{t:?}"));
        assert_eq!(values, vec![t(&[3, 2]), t(&[5, 2])]);
        rel.clear();
        assert_eq!(rel.index_count(), 0);
        assert!(rel.is_empty());
    }

    #[test]
    fn select_and_matches_any_use_index_when_present() {
        let mut rel = Relation::new("edge", None);
        for (a, b) in [(1, 2), (1, 3), (2, 3)] {
            rel.insert(t(&[a, b])).unwrap();
        }
        rel.ensure_index(column_set([0]));
        assert_eq!(rel.select(&[Some(Value::Int(1)), None]).len(), 2);
        assert!(rel.matches_any(&[Some(Value::Int(2)), None]));
        assert!(!rel.matches_any(&[Some(Value::Int(9)), None]));
        // Mixed-arity tuples never match a different pattern arity.
        rel.insert(t(&[1, 2, 3])).unwrap();
        assert_eq!(rel.select(&[Some(Value::Int(1)), None]).len(), 2);
    }

    #[test]
    fn clone_drops_indexes_but_keeps_tuples() {
        let mut rel = Relation::new("edge", None);
        for (a, b) in [(1, 2), (2, 3)] {
            rel.insert(t(&[a, b])).unwrap();
        }
        rel.ensure_index(column_set([0]));
        let cloned = rel.clone();
        assert_eq!(cloned.len(), 2);
        assert_eq!(cloned.index_count(), 0);
        assert!(cloned.contains(&t(&[1, 2])));
        assert_eq!(cloned.sorted(), rel.sorted());
        // The dictionary is shared, so id-space ops agree across clones.
        assert!(Arc::ptr_eq(rel.interner(), cloned.interner()));
    }

    #[test]
    fn column_groups_expose_interned_columns() {
        let mut rel = Relation::new("edge", None);
        rel.insert(t(&[1, 2])).unwrap();
        rel.insert(t(&[1, 3])).unwrap();
        rel.insert(vec![Value::Int(9)]).unwrap();
        let group = rel.group(2).unwrap();
        assert_eq!(group.arity(), 2);
        assert_eq!(group.rows(), 2);
        // Column 0 holds the same interned id twice (both tuples start 1).
        assert_eq!(group.col(0)[0], group.col(0)[1]);
        assert_ne!(group.col(1)[0], group.col(1)[1]);
        // Back-pointers round-trip through the boundary rows.
        for (row, &id) in group.tuple_ids().iter().enumerate() {
            let mut ids = Vec::new();
            rel.row_ids(id, &mut ids);
            assert_eq!(ids, vec![group.col(0)[row], group.col(1)[row]]);
            assert_eq!(rel.tuple_by_id(id).len(), 2);
        }
        assert_eq!(rel.group(1).unwrap().rows(), 1);
        assert!(rel.group(3).is_none());
    }

    #[test]
    fn insert_ids_matches_value_insert() {
        let interner = Arc::new(Interner::new());
        let mut rel = Relation::with_interner("edge", None, Arc::clone(&interner));
        let mut ids = Vec::new();
        interner.intern_row(&t(&[4, 5]), &mut ids);
        assert!(rel.insert_ids(&ids).unwrap());
        assert!(!rel.insert_ids(&ids).unwrap(), "id insert dedups");
        assert!(!rel.insert(t(&[4, 5])).unwrap(), "value insert sees it");
        assert!(rel.contains(&t(&[4, 5])));
        assert_eq!(rel.sorted(), vec![t(&[4, 5])]);
        // Functional semantics are enforced on the id path too.
        let mut frel = Relation::with_interner("f", Some(1), Arc::clone(&interner));
        let mut row = Vec::new();
        interner.intern_row(&t(&[1, 10]), &mut row);
        assert!(frel.insert_ids(&row).unwrap());
        interner.intern_row(&t(&[1, 11]), &mut row);
        assert!(frel.insert_ids(&row).is_err());
    }

    #[test]
    fn probe_ids_returns_raw_candidates() {
        let mut rel = Relation::new("edge", None);
        for (a, b) in [(1, 2), (1, 3), (2, 3)] {
            rel.insert(t(&[a, b])).unwrap();
        }
        let cols = column_set([0]);
        assert!(rel.probe_ids(cols, &[0]).is_none(), "no index yet");
        rel.ensure_index(cols);
        let one = rel.interner().try_id(&Value::Int(1)).unwrap();
        let candidates = rel.probe_ids(cols, &[one]).unwrap();
        assert_eq!(candidates.len(), 2);
        for &id in candidates {
            assert_eq!(rel.tuple_by_id(id)[0], Value::Int(1));
        }
    }

    #[test]
    fn relation_is_shareable_across_worker_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<Relation>();
        // Concurrent read-only probe views over one relation.
        let mut rel = Relation::new("edge", None);
        let cols = column_set([0]);
        for i in 0..64 {
            rel.insert(t(&[i % 8, i])).unwrap();
        }
        rel.ensure_index(cols);
        let total: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    let rel = &rel;
                    scope.spawn(move || rel.probe(cols, &t(&[k])).map_or(0, |ids| ids.len()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, 4 * 8);
    }

    #[test]
    fn column_set_builds_bitmasks() {
        assert_eq!(column_set([0, 2]), 0b101);
        assert_eq!(column_set([]), 0);
    }

    #[test]
    fn column_set_rejects_wide_positions() {
        // Positions ≥ 64 are a planner bug: loud in debug builds, a
        // documented ignore (scan fallback) in release builds.
        if cfg!(debug_assertions) {
            let result = std::panic::catch_unwind(|| column_set([70]));
            assert!(result.is_err());
        } else {
            assert_eq!(column_set([70]), 0);
        }
    }
}
