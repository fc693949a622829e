//! Persistent chunked spines: the per-type storage of a [`crate::Schema`].
//!
//! A [`Spine<T>`] is an arena of `Arc<T>` records laid out as an outer
//! `Vec` of [`CHUNK`]-wide, `Arc`-shared chunks. Cloning a spine — the
//! heart of producing a new schema version — bumps one refcount per chunk,
//! O(len / 64), and dropping a superseded version releases the same
//! number. A write through [`Spine::make_mut`] first unshares the one chunk
//! that holds the record (64 refcount bumps) and then the record itself;
//! every other chunk stays shared with the older version.
//!
//! [`NameIndex`] puts the type-name index on the same structure: one spine
//! of [`NAME_SHARDS`] hash-sharded maps, so renaming, adding or dropping a
//! type copies one shard of names instead of the whole index.
//!
//! All copy-on-write copies — of records, of chunks and of name shards —
//! go through the crate-private `cow` helper, which reports each one as
//! `engine.cow_copies` to an attached observer.

use std::collections::HashMap;
use std::ops::Index;
use std::sync::Arc;

use crate::ids::TypeId;
use crate::obs::EvolveObs;

/// Records per chunk.
pub const CHUNK: usize = 64;

/// Copy-on-write access to an `Arc`-wrapped cell: clones the cell if (and
/// only if) it is still shared with another schema version, reporting the
/// copy to the observer when one actually happens. Every copy a spine or
/// the name index makes funnels through here, so `engine.cow_copies`
/// counts every real copy and nothing else.
pub(crate) fn cow<'a, T: Clone>(obs: Option<&EvolveObs>, arc: &'a mut Arc<T>) -> &'a mut T {
    if let Some(o) = obs {
        if Arc::get_mut(arc).is_none() {
            o.on_cow_copy();
        }
    }
    Arc::make_mut(arc)
}

/// A persistent arena of `Arc<T>` records in `Arc`-shared chunks of
/// [`CHUNK`]; see the module docs for the cost model.
#[derive(Debug)]
pub struct Spine<T> {
    chunks: Vec<Arc<Chunk<T>>>,
    len: usize,
}

/// One chunk: the first `len % CHUNK` (or all) entries of the last chunk
/// are `Some`, every entry of the other chunks is. Inline in its `Arc`, so
/// a read is one hop from the chunk pointer to the record pointer.
#[derive(Debug)]
struct Chunk<T> {
    items: [Option<Arc<T>>; CHUNK],
}

impl<T> Chunk<T> {
    fn empty() -> Self {
        Chunk {
            items: std::array::from_fn(|_| None),
        }
    }
}

impl<T> Clone for Chunk<T> {
    fn clone(&self) -> Self {
        Chunk {
            items: self.items.clone(),
        }
    }
}

impl<T> Clone for Spine<T> {
    fn clone(&self) -> Self {
        Spine {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }
}

impl<T> Default for Spine<T> {
    fn default() -> Self {
        Spine {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Spine<T> {
    /// An empty spine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the spine empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The record at `i`, if any.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.get_arc(i).map(AsRef::as_ref)
    }

    /// The shared handle of the record at `i`, if any: adopting it into
    /// another spine is a refcount bump, not a copy.
    #[inline]
    pub fn get_arc(&self, i: usize) -> Option<&Arc<T>> {
        self.chunks.get(i / CHUNK)?.items[i % CHUNK].as_ref()
    }

    /// Iterate over the records in index order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            chunks: self.chunks.iter(),
            items: [].iter(),
            left: self.len,
        }
    }

    /// Number of chunks.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Number of chunk positions at which `self` and `other` hold the very
    /// same (`Arc::ptr_eq`) chunk — how much two versions share.
    pub fn shared_chunks(&self, other: &Spine<T>) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Append a record. Opens a new chunk at a chunk boundary; otherwise
    /// unshares the last chunk first if an older version still holds it.
    pub fn push(&mut self, obs: Option<&EvolveObs>, value: Arc<T>) {
        let j = self.len % CHUNK;
        if j == 0 {
            let mut chunk = Chunk::empty();
            chunk.items[0] = Some(value);
            self.chunks.push(Arc::new(chunk));
        } else {
            let last = self.chunks.last_mut().expect("partial chunk exists");
            cow(obs, last).items[j] = Some(value);
        }
        self.len += 1;
    }

    /// Replace the record at `i` outright (no record copy; the chunk is
    /// unshared if needed). Panics if `i` is out of bounds.
    pub fn set(&mut self, obs: Option<&EvolveObs>, i: usize, value: Arc<T>) {
        *self.slot_mut(obs, i) = value;
    }

    /// Mutable access to the record at `i`, copying its chunk and then the
    /// record itself only where they are still shared with another version.
    /// Panics if `i` is out of bounds.
    pub fn make_mut(&mut self, obs: Option<&EvolveObs>, i: usize) -> &mut T
    where
        T: Clone,
    {
        cow(obs, self.slot_mut(obs, i))
    }

    fn slot_mut(&mut self, obs: Option<&EvolveObs>, i: usize) -> &mut Arc<T> {
        assert!(
            i < self.len,
            "spine index {i} out of bounds (len {})",
            self.len
        );
        let chunk = cow(obs, &mut self.chunks[i / CHUNK]);
        chunk.items[i % CHUNK].as_mut().expect("below len")
    }
}

/// Iterator over a spine's records in index order. Its exact length lets
/// `collect` size its output once.
#[derive(Debug)]
pub struct Iter<'a, T> {
    chunks: std::slice::Iter<'a, Arc<Chunk<T>>>,
    items: std::slice::Iter<'a, Option<Arc<T>>>,
    left: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.left == 0 {
            return None;
        }
        loop {
            if let Some(record) = self.items.next() {
                self.left -= 1;
                return record.as_deref();
            }
            self.items = self.chunks.next()?.items.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

impl<T: Default> Spine<T> {
    /// `len` records, all one shared default record.
    pub fn filled_default(len: usize) -> Self {
        std::iter::repeat_n(Arc::default(), len).collect()
    }
}

impl<T> Index<usize> for Spine<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        match self.get(i) {
            Some(record) => record,
            None => panic!("spine index {i} out of bounds (len {})", self.len),
        }
    }
}

impl<T> FromIterator<Arc<T>> for Spine<T> {
    /// Build chunk by chunk: each chunk is filled before it is shared, so
    /// no copy-on-write check runs per record. The records are gathered
    /// first, so records the iterator allocates lie together in memory
    /// rather than between chunk allocations.
    fn from_iter<I: IntoIterator<Item = Arc<T>>>(iter: I) -> Self {
        let records: Vec<Arc<T>> = iter.into_iter().collect();
        let len = records.len();
        let mut records = records.into_iter();
        let mut chunks = Vec::with_capacity(len.div_ceil(CHUNK));
        for _ in 0..len.div_ceil(CHUNK) {
            let mut chunk = Chunk::empty();
            for (slot, value) in chunk.items.iter_mut().zip(records.by_ref()) {
                *slot = Some(value);
            }
            chunks.push(Arc::new(chunk));
        }
        Spine { chunks, len }
    }
}

/// Number of hash shards of the [`NameIndex`] — one spine chunk.
pub const NAME_SHARDS: usize = CHUNK;

/// The shard of `name`: FNV-1a, so it is the same in every process and
/// sharing counts are reproducible. The shard maps hash with their own
/// randomized keys.
fn shard(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    (h % NAME_SHARDS as u64) as usize
}

/// The type-name index, hash-sharded over a [`Spine`]: a write copies the
/// one shard its name hashes to (plus the shard spine's single chunk), and
/// a clone shares everything.
#[derive(Debug, Clone)]
pub struct NameIndex {
    shards: Spine<HashMap<String, TypeId>>,
}

impl Default for NameIndex {
    fn default() -> Self {
        NameShards::default().into()
    }
}

/// Unshared shard maps for bulk loads: filled without a copy-on-write
/// check per entry, then turned into a [`NameIndex`].
#[derive(Debug)]
pub struct NameShards(Vec<HashMap<String, TypeId>>);

impl Default for NameShards {
    fn default() -> Self {
        NameShards((0..NAME_SHARDS).map(|_| HashMap::new()).collect())
    }
}

impl NameShards {
    /// Register `name → t`, returning the previous entry.
    pub fn insert(&mut self, name: String, t: TypeId) -> Option<TypeId> {
        self.0[shard(&name)].insert(name, t)
    }
}

impl From<NameShards> for NameIndex {
    fn from(shards: NameShards) -> Self {
        NameIndex {
            shards: shards.0.into_iter().map(Arc::new).collect(),
        }
    }
}

impl NameIndex {
    /// The type registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<TypeId> {
        self.shards[shard(name)].get(name).copied()
    }

    /// Register `name → t`, returning the previous entry.
    pub fn insert(&mut self, obs: Option<&EvolveObs>, name: String, t: TypeId) -> Option<TypeId> {
        let i = shard(&name);
        self.shards.make_mut(obs, i).insert(name, t)
    }

    /// Unregister `name`, returning its entry. A miss copies nothing.
    pub fn remove(&mut self, obs: Option<&EvolveObs>, name: &str) -> Option<TypeId> {
        let i = shard(name);
        if !self.shards[i].contains_key(name) {
            return None;
        }
        self.shards.make_mut(obs, i).remove(name)
    }

    /// Number of shards at which `self` and `other` hold the very same
    /// (`Arc::ptr_eq`) shard map.
    pub fn shared_shards(&self, other: &NameIndex) -> usize {
        (0..NAME_SHARDS)
            .filter(|&i| {
                let (a, b) = (self.shards.get_arc(i), other.shards.get_arc(i));
                a.zip(b).is_some_and(|(a, b)| Arc::ptr_eq(a, b))
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{names, MetricsRegistry};

    fn filled(n: usize) -> Spine<u32> {
        (0..n as u32).map(Arc::new).collect()
    }

    #[test]
    fn empty_spine() {
        let s: Spine<u32> = Spine::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.chunk_count(), 0);
        assert_eq!(s.get(0), None);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.clone().shared_chunks(&s), 0);
    }

    #[test]
    fn indexes_across_the_chunk_boundary() {
        let s = filled(66);
        assert_eq!(s.chunk_count(), 2);
        for i in [0, 63, 64, 65] {
            assert_eq!(s[i], i as u32);
            assert_eq!(s.get(i), Some(&(i as u32)));
        }
        assert_eq!(s.get(66), None);
        assert!(s.iter().copied().eq(0..66));
    }

    #[test]
    fn push_opens_a_new_chunk_at_the_boundary() {
        let mut s = filled(63);
        assert_eq!(s.chunk_count(), 1);
        s.push(None, Arc::new(63));
        assert_eq!((s.len(), s.chunk_count()), (64, 1));
        s.push(None, Arc::new(64));
        assert_eq!((s.len(), s.chunk_count()), (65, 2));
        assert_eq!(s[64], 64);
    }

    #[test]
    fn make_mut_on_a_clone_leaves_the_original_alone() {
        let original = filled(3 * CHUNK);
        let mut next = original.clone();
        assert_eq!(next.shared_chunks(&original), 3);
        for i in [63, 64, 65] {
            *next.make_mut(None, i) += 1000;
        }
        assert!(original.iter().copied().eq(0..3 * CHUNK as u32));
        assert_eq!(next[63], 1063);
        assert_eq!(next[64], 1064);
        assert_eq!(next[65], 1065);
        assert_eq!(next[66], 66);
        // Chunks 0 and 1 were written; chunk 2 is still the same allocation.
        assert_eq!(next.shared_chunks(&original), 1);
        assert!(Arc::ptr_eq(&next.chunks[2], &original.chunks[2]));
        // Untouched records inside a copied chunk are still shared.
        assert!(Arc::ptr_eq(
            next.get_arc(66).unwrap(),
            original.get_arc(66).unwrap()
        ));
    }

    #[test]
    fn push_on_a_clone_unshares_only_the_partial_chunk() {
        let original = filled(CHUNK + 1);
        let mut next = original.clone();
        next.push(None, Arc::new(99));
        assert_eq!(original.len(), CHUNK + 1);
        assert_eq!(next.len(), CHUNK + 2);
        assert_eq!(next.shared_chunks(&original), 1);
        assert!(Arc::ptr_eq(&next.chunks[0], &original.chunks[0]));
    }

    #[test]
    fn set_replaces_without_touching_other_versions() {
        let original = filled(CHUNK);
        let mut next = original.clone();
        next.set(None, 5, Arc::new(7));
        assert_eq!((original[5], next[5]), (5, 7));
    }

    #[test]
    fn copies_are_counted_once_each() {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = EvolveObs::new(Arc::clone(&registry));
        let mut s = filled(2 * CHUNK);
        // Sole owner: nothing to copy.
        *s.make_mut(Some(&obs), 0) += 1;
        assert_eq!(registry.get(names::ENGINE_COW_COPIES), 0);
        let keep = s.clone();
        // Shared: one chunk copy plus one record copy.
        *s.make_mut(Some(&obs), 1) += 1;
        assert_eq!(registry.get(names::ENGINE_COW_COPIES), 2);
        // The chunk is now private; only the next record is shared.
        *s.make_mut(Some(&obs), 2) += 1;
        assert_eq!(registry.get(names::ENGINE_COW_COPIES), 3);
        drop(keep);
    }

    #[test]
    fn filled_default_shares_one_record() {
        let s: Spine<u32> = Spine::filled_default(CHUNK + 2);
        assert_eq!((s.len(), s.chunk_count()), (CHUNK + 2, 2));
        assert!(s.iter().all(|&x| x == 0));
        assert!(Arc::ptr_eq(
            s.get_arc(0).unwrap(),
            s.get_arc(CHUNK + 1).unwrap()
        ));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn make_mut_out_of_bounds_panics() {
        filled(CHUNK).make_mut(None, CHUNK);
    }

    #[test]
    fn name_index_copies_one_shard_per_write() {
        let mut idx = NameIndex::default();
        for i in 0..200 {
            idx.insert(None, format!("T{i}"), TypeId::from_index(i));
        }
        let before = idx.clone();
        assert_eq!(idx.shared_shards(&before), NAME_SHARDS);
        assert_eq!(
            idx.insert(None, "fresh".into(), TypeId::from_index(200)),
            None
        );
        assert_eq!(idx.remove(None, "fresh"), Some(TypeId::from_index(200)));
        assert_eq!(idx.shared_shards(&before), NAME_SHARDS - 1);
        // A miss copies nothing.
        assert_eq!(idx.remove(None, "T7x"), None);
        assert_eq!(idx.shared_shards(&before), NAME_SHARDS - 1);
        assert_eq!(before.get("fresh"), None);
        assert_eq!(idx.get("T7"), Some(TypeId::from_index(7)));
    }
}
