//! Word-packed dirty-page bitmap — the hot data structure of the dirty
//! data path.
//!
//! Every tracking technique ultimately produces "a set of dirty page
//! numbers", and the simulator used to shuttle those through
//! `BTreeSet<u64>` — one tree node walk per page on every insert, merge,
//! difference and retain. Production trackers (Firecracker's diff
//! snapshots, aero's `DirtyTracker`) pack the set into u64 words instead:
//! one bit per page, `trailing_zeros` to iterate, wordwise OR/ANDNOT for
//! merge/difference — O(words) instead of O(pages · log pages).
//!
//! Guest-virtual page numbers are sparse over a 52-bit space, so a flat
//! `Vec<u64>` indexed from zero is not an option. [`DirtyBitmap`] therefore
//! shards the page-number space into fixed-size *chunks* of
//! [`CHUNK_PAGES`] pages (one boxed `[u64; CHUNK_WORDS]` each, 512 B)
//! keyed by chunk index in a `BTreeMap` — dense regions cost one
//! allocation per 16 MiB of address space, isolated pages cost one chunk,
//! and iteration stays ascending (the property every determinism test and
//! wire format in the workspace relies on).
//!
//! Invariant: no stored chunk is all-zero. `merge`/`insert` only ever set
//! bits; `difference`/`retain_within`/`remove` prune emptied chunks — so
//! the derived `PartialEq` is semantic set equality, and `len` can be
//! maintained incrementally by popcount deltas.

use crate::addr::{Gva, GvaRange};
use std::collections::BTreeMap;

/// u64 words per chunk (512 bytes of bitmap).
pub const CHUNK_WORDS: usize = 64;
/// Pages covered by one chunk (4096 pages = 16 MiB of address space).
pub const CHUNK_PAGES: u64 = (CHUNK_WORDS as u64) * 64;

type Chunk = Box<[u64; CHUNK_WORDS]>;

fn new_chunk() -> Chunk {
    Box::new([0u64; CHUNK_WORDS])
}

/// A set of page numbers, stored one bit per page in u64-packed chunks.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DirtyBitmap {
    chunks: BTreeMap<u64, Chunk>,
    len: usize,
}

impl DirtyBitmap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set the bit for `page`. Returns true if it was newly set.
    #[inline]
    pub fn insert(&mut self, page: u64) -> bool {
        let chunk = self
            .chunks
            .entry(page / CHUNK_PAGES)
            .or_insert_with(new_chunk);
        let bit_in_chunk = page % CHUNK_PAGES;
        let word = &mut chunk[(bit_in_chunk / 64) as usize];
        let mask = 1u64 << (bit_in_chunk % 64);
        let newly = *word & mask == 0;
        *word |= mask;
        self.len += newly as usize;
        newly
    }

    /// Clear the bit for `page`. Returns true if it was set.
    pub fn remove(&mut self, page: u64) -> bool {
        let key = page / CHUNK_PAGES;
        let Some(chunk) = self.chunks.get_mut(&key) else {
            return false;
        };
        let bit_in_chunk = page % CHUNK_PAGES;
        let word = &mut chunk[(bit_in_chunk / 64) as usize];
        let mask = 1u64 << (bit_in_chunk % 64);
        if *word & mask == 0 {
            return false;
        }
        *word &= !mask;
        self.len -= 1;
        if chunk.iter().all(|&w| w == 0) {
            self.chunks.remove(&key);
        }
        true
    }

    #[inline]
    pub fn contains(&self, page: u64) -> bool {
        match self.chunks.get(&(page / CHUNK_PAGES)) {
            Some(chunk) => {
                let bit_in_chunk = page % CHUNK_PAGES;
                chunk[(bit_in_chunk / 64) as usize] & (1u64 << (bit_in_chunk % 64)) != 0
            }
            None => false,
        }
    }

    /// Iterate the set pages in ascending order (`trailing_zeros` per word).
    pub fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().flat_map(|(&ci, chunk)| {
            let chunk_base = ci * CHUNK_PAGES;
            chunk
                .iter()
                .enumerate()
                .filter(|(_, &w)| w != 0)
                .flat_map(move |(wi, &w)| BitIter {
                    word: w,
                    base: chunk_base + (wi as u64) * 64,
                })
        })
    }

    /// Union with `other` — O(words of `other`).
    pub fn merge(&mut self, other: &DirtyBitmap) {
        for (&ci, src) in &other.chunks {
            let dst = self.chunks.entry(ci).or_insert_with(new_chunk);
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                self.len += (s & !*d).count_ones() as usize;
                *d |= s;
            }
        }
    }

    /// Pages in `self` but not in `other` — O(words of `self`).
    pub fn difference(&self, other: &DirtyBitmap) -> DirtyBitmap {
        let mut out = DirtyBitmap::new();
        for (&ci, chunk) in &self.chunks {
            let masked: Chunk = match other.chunks.get(&ci) {
                Some(o) => {
                    let mut m = new_chunk();
                    for (d, (&a, &b)) in m.iter_mut().zip(chunk.iter().zip(o.iter())) {
                        *d = a & !b;
                    }
                    m
                }
                None => chunk.clone(),
            };
            let ones: usize = masked.iter().map(|w| w.count_ones() as usize).sum();
            if ones > 0 {
                out.len += ones;
                out.chunks.insert(ci, masked);
            }
        }
        out
    }

    /// Keep only pages inside `ranges` — O(words overlapping the ranges),
    /// not O(pages × ranges). Ranges may overlap; the result is the union
    /// of the per-range intersections.
    pub fn retain_within(&mut self, ranges: &[GvaRange]) {
        let mut kept = DirtyBitmap::new();
        for range in ranges {
            let first = range.start.page();
            let last = first + range.pages; // exclusive
            if range.pages == 0 {
                continue;
            }
            // Walk only the stored chunks that overlap this range.
            for (&ci, chunk) in self.chunks.range(first / CHUNK_PAGES..=(last - 1) / CHUNK_PAGES) {
                let chunk_base = ci * CHUNK_PAGES;
                let lo = first.max(chunk_base) - chunk_base;
                let hi = last.min(chunk_base + CHUNK_PAGES) - chunk_base;
                let mut masked = [0u64; CHUNK_WORDS];
                let mut ones = 0usize;
                for w in (lo / 64)..hi.div_ceil(64) {
                    let word_base = w * 64;
                    let from = lo.max(word_base) - word_base;
                    let to = hi.min(word_base + 64) - word_base;
                    let v = chunk[w as usize] & word_mask(from, to);
                    masked[w as usize] = v;
                    ones += v.count_ones() as usize;
                }
                if ones == 0 {
                    continue;
                }
                match kept.chunks.get_mut(&ci) {
                    Some(dst) => {
                        for (d, &s) in dst.iter_mut().zip(masked.iter()) {
                            kept.len += (s & !*d).count_ones() as usize;
                            *d |= s;
                        }
                    }
                    None => {
                        kept.len += ones;
                        kept.chunks.insert(ci, Box::new(masked));
                    }
                }
            }
        }
        *self = kept;
    }

    /// Bulk-insert a stream of page numbers with chunk-local write
    /// combining: bits for the currently-streamed chunk accumulate in a
    /// stack buffer and hit the `BTreeMap` once per chunk *switch*, not
    /// once per page. PML rings log writes in program order, so real drain
    /// streams run through a chunk for thousands of entries before leaving
    /// it — the map lookup amortizes to near zero. Fully random streams
    /// degrade gracefully: the flush only walks the word span the buffer
    /// actually touched, so a one-page visit costs one word, not 64.
    pub fn extend_pages<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        let mut cur_key = u64::MAX; // sentinel: no chunk buffered
        let mut buf = [0u64; CHUNK_WORDS];
        let mut lo = CHUNK_WORDS; // touched word span [lo, hi]; lo > hi = empty
        let mut hi = 0usize;
        for page in iter {
            let key = page / CHUNK_PAGES;
            if key != cur_key {
                if lo <= hi {
                    self.flush_words(cur_key, &mut buf, lo, hi);
                }
                cur_key = key;
                lo = CHUNK_WORDS;
                hi = 0;
            }
            let bit_in_chunk = page % CHUNK_PAGES;
            let w = (bit_in_chunk / 64) as usize;
            buf[w] |= 1u64 << (bit_in_chunk % 64);
            lo = lo.min(w);
            hi = hi.max(w);
        }
        if lo <= hi {
            self.flush_words(cur_key, &mut buf, lo, hi);
        }
    }

    /// OR words `[lo, hi]` of `buf` into chunk `key`, zeroing them in `buf`
    /// on the way out (so the caller's buffer is clean for reuse).
    fn flush_words(&mut self, key: u64, buf: &mut [u64; CHUNK_WORDS], lo: usize, hi: usize) {
        let chunk = self.chunks.entry(key).or_insert_with(new_chunk);
        let mut added = 0usize;
        for w in lo..=hi {
            let b = buf[w];
            buf[w] = 0;
            let slot = &mut chunk[w];
            added += (b & !*slot).count_ones() as usize;
            *slot |= b;
        }
        self.len += added;
    }

    /// Take the whole set, leaving `self` empty — O(1).
    pub fn take(&mut self) -> DirtyBitmap {
        std::mem::take(self)
    }

    /// True when the two sets share at least one page — O(words of the
    /// smaller chunk overlap), no allocation.
    pub fn intersects(&self, other: &DirtyBitmap) -> bool {
        let (small, big) = if self.chunks.len() <= other.chunks.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.chunks.iter().any(|(ci, a)| {
            big.chunks
                .get(ci)
                .is_some_and(|b| a.iter().zip(b.iter()).any(|(&x, &y)| x & y != 0))
        })
    }

    /// The stored chunks in ascending chunk-index order, as
    /// `(chunk_index, words)` pairs (`words` is [`CHUNK_WORDS`] long; the
    /// chunk covers pages `[index * CHUNK_PAGES, (index + 1) * CHUNK_PAGES)`).
    /// This is the raw word-packed view wire formats serialize.
    pub fn chunk_iter(&self) -> impl Iterator<Item = (u64, &[u64])> + '_ {
        self.chunks.iter().map(|(&ci, c)| (ci, &c[..]))
    }

    /// OR one raw word into the bitmap at `(chunk_index, word_index)` — the
    /// decode-side counterpart of [`chunk_iter`](Self::chunk_iter). Length
    /// bookkeeping is by popcount delta; an all-zero word is a no-op (the
    /// no-empty-chunk invariant is preserved).
    pub fn insert_word(&mut self, chunk_index: u64, word_index: usize, word: u64) {
        assert!(word_index < CHUNK_WORDS, "word index {word_index} out of chunk");
        if word == 0 {
            return;
        }
        let chunk = self.chunks.entry(chunk_index).or_insert_with(new_chunk);
        let slot = &mut chunk[word_index];
        self.len += (word & !*slot).count_ones() as usize;
        *slot |= word;
    }

    /// Drop every bit — O(chunks).
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }
}

/// Mask with bits `[from, to)` set (`to` ≤ 64).
#[inline]
fn word_mask(from: u64, to: u64) -> u64 {
    debug_assert!(from <= to && to <= 64);
    if to == 64 {
        u64::MAX << from
    } else {
        (u64::MAX << from) & !(u64::MAX << to)
    }
}

/// Iterator over the set bits of one word via `trailing_zeros`.
struct BitIter {
    word: u64,
    base: u64,
}

impl Iterator for BitIter {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as u64;
        self.word &= self.word - 1; // clear lowest set bit
        Some(self.base + bit)
    }
}

impl std::fmt::Debug for DirtyBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Full page lists would swamp assertion output on big sets.
        const DEBUG_MAX: usize = 64;
        let mut s = f.debug_struct("DirtyBitmap");
        s.field("len", &self.len);
        if self.len <= DEBUG_MAX {
            s.field("pages", &self.pages().collect::<Vec<_>>());
        } else {
            let head: Vec<u64> = self.pages().take(DEBUG_MAX).collect();
            s.field("first_pages", &head);
        }
        s.finish()
    }
}

impl FromIterator<u64> for DirtyBitmap {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut b = DirtyBitmap::new();
        b.extend_pages(iter);
        b
    }
}

impl Extend<u64> for DirtyBitmap {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        self.extend_pages(iter);
    }
}

impl FromIterator<Gva> for DirtyBitmap {
    fn from_iter<I: IntoIterator<Item = Gva>>(iter: I) -> Self {
        iter.into_iter().map(|g| g.page()).collect()
    }
}

impl<'a> IntoIterator for &'a DirtyBitmap {
    type Item = u64;
    type IntoIter = Box<dyn Iterator<Item = u64> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn bulk_extend_matches_per_insert() {
        // Duplicates, chunk hops, and out-of-order arrivals: the buffered
        // bulk path must agree with one-at-a-time insert exactly.
        let stream: Vec<u64> = [
            5,
            5,
            CHUNK_PAGES + 1,
            3,
            CHUNK_PAGES - 1,
            CHUNK_PAGES,
            7 * CHUNK_PAGES + 63,
            3,
            64,
            65,
            63,
            7 * CHUNK_PAGES + 63,
            1 << 40,
        ]
        .into_iter()
        .collect();
        let mut by_insert = DirtyBitmap::new();
        for &p in &stream {
            by_insert.insert(p);
        }
        let by_bulk: DirtyBitmap = stream.iter().copied().collect();
        assert_eq!(by_bulk, by_insert);
        assert_eq!(by_bulk.len(), by_insert.len());
        // A second extend over an overlapping stream only adds the new page.
        let mut b = by_bulk.clone();
        b.extend([5u64, 6, CHUNK_PAGES + 1]);
        assert_eq!(b.len(), by_insert.len() + 1);
        assert!(b.contains(6));
    }

    #[test]
    fn insert_contains_remove_len() {
        let mut b = DirtyBitmap::new();
        assert!(b.insert(5));
        assert!(!b.insert(5));
        assert!(b.insert(CHUNK_PAGES * 3 + 7)); // far chunk
        assert_eq!(b.len(), 2);
        assert!(b.contains(5));
        assert!(!b.contains(6));
        assert!(b.remove(5));
        assert!(!b.remove(5));
        assert_eq!(b.len(), 1);
        assert!(b.chunks.len() == 1, "emptied chunk must be pruned");
    }

    #[test]
    fn pages_iterate_ascending_across_chunks() {
        let pages = [CHUNK_PAGES + 1, 0, 63, 64, CHUNK_PAGES - 1, 9 * CHUNK_PAGES];
        let b: DirtyBitmap = pages.iter().copied().collect();
        let mut sorted = pages.to_vec();
        sorted.sort_unstable();
        assert_eq!(b.pages().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn merge_difference_model() {
        let a: DirtyBitmap = [1u64, 63, 64, CHUNK_PAGES, CHUNK_PAGES + 1].into_iter().collect();
        let b: DirtyBitmap = [63u64, CHUNK_PAGES, 5000 * CHUNK_PAGES].into_iter().collect();
        let mut m = a.clone();
        m.merge(&b);
        let ra: BTreeSet<u64> = a.pages().collect();
        let rb: BTreeSet<u64> = b.pages().collect();
        let union: Vec<u64> = ra.union(&rb).copied().collect();
        assert_eq!(m.pages().collect::<Vec<_>>(), union);
        assert_eq!(m.len(), union.len());

        let d = a.difference(&b);
        let diff: Vec<u64> = ra.difference(&rb).copied().collect();
        assert_eq!(d.pages().collect::<Vec<_>>(), diff);
        assert_eq!(d.len(), diff.len());
        // Difference must prune empty chunks so Eq stays semantic.
        let nothing = a.difference(&a);
        assert!(nothing.is_empty());
        assert_eq!(nothing, DirtyBitmap::new());
    }

    #[test]
    fn retain_within_clips_word_bounds() {
        let mut b: DirtyBitmap = (0..300u64).collect();
        b.insert(CHUNK_PAGES + 5);
        let keep = [
            GvaRange::new(Gva::from_page(10), 3),   // 10..13
            GvaRange::new(Gva::from_page(62), 4),   // 62..66 (word boundary)
            GvaRange::new(Gva::from_page(CHUNK_PAGES), 16),
        ];
        b.retain_within(&keep);
        let want = vec![10, 11, 12, 62, 63, 64, 65, CHUNK_PAGES + 5];
        assert_eq!(b.pages().collect::<Vec<_>>(), want);
        assert_eq!(b.len(), want.len());
    }

    #[test]
    fn retain_within_overlapping_ranges_do_not_double_count() {
        let mut b: DirtyBitmap = (0..20u64).collect();
        let keep = [
            GvaRange::new(Gva::from_page(0), 10),
            GvaRange::new(Gva::from_page(5), 10), // overlaps 5..10
        ];
        b.retain_within(&keep);
        assert_eq!(b.len(), 15);
        assert_eq!(b.pages().collect::<Vec<_>>(), (0..15u64).collect::<Vec<_>>());
    }

    #[test]
    fn take_and_clear() {
        let mut b: DirtyBitmap = (0..10u64).collect();
        let t = b.take();
        assert_eq!(t.len(), 10);
        assert!(b.is_empty());
        let mut c: DirtyBitmap = (0..10u64).collect();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c, DirtyBitmap::new());
    }

    #[test]
    fn word_mask_edges() {
        assert_eq!(word_mask(0, 64), u64::MAX);
        assert_eq!(word_mask(0, 1), 1);
        assert_eq!(word_mask(63, 64), 1 << 63);
        assert_eq!(word_mask(4, 4), 0);
    }

    #[test]
    fn intersects_matches_reference() {
        let a: DirtyBitmap = [1u64, 64, CHUNK_PAGES + 3].into_iter().collect();
        let b: DirtyBitmap = [2u64, CHUNK_PAGES + 3].into_iter().collect();
        let c: DirtyBitmap = [0u64, 63, CHUNK_PAGES + 4].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!c.intersects(&a));
        assert!(!a.intersects(&DirtyBitmap::new()));
        assert!(!DirtyBitmap::new().intersects(&a));
    }

    #[test]
    fn chunk_iter_insert_word_roundtrip() {
        let pages = [0u64, 1, 63, 64, 65, CHUNK_PAGES - 1, CHUNK_PAGES, 9 * CHUNK_PAGES + 17];
        let src: DirtyBitmap = pages.into_iter().collect();
        let mut dst = DirtyBitmap::new();
        for (ci, words) in src.chunk_iter() {
            for (wi, &w) in words.iter().enumerate() {
                dst.insert_word(ci, wi, w);
            }
        }
        assert_eq!(dst, src);
        assert_eq!(dst.len(), src.len());
        // Duplicated words are idempotent, zero words change nothing.
        for (ci, words) in src.chunk_iter() {
            for (wi, &w) in words.iter().enumerate() {
                dst.insert_word(ci, wi, w);
            }
        }
        dst.insert_word(1234, 0, 0);
        assert_eq!(dst, src);
    }

    proptest::proptest! {
        /// The bitmap behaves exactly like a BTreeSet<u64> model under
        /// random insert/remove/merge/difference/retain sequences.
        #[test]
        fn matches_btreeset_model(
            a in proptest::collection::vec(0u64..(3 * CHUNK_PAGES), 0..80),
            b in proptest::collection::vec(0u64..(3 * CHUNK_PAGES), 0..80),
            rm in proptest::collection::vec(0u64..(3 * CHUNK_PAGES), 0..20),
            range_lo in 0u64..(2 * CHUNK_PAGES),
            range_pages in 1u64..200,
        ) {
            let mut bm: DirtyBitmap = a.iter().copied().collect();
            let mut rf: BTreeSet<u64> = a.iter().copied().collect();
            let ob: DirtyBitmap = b.iter().copied().collect();
            let rb: BTreeSet<u64> = b.iter().copied().collect();

            for &p in &rm {
                proptest::prop_assert_eq!(bm.remove(p), rf.remove(&p));
            }
            proptest::prop_assert_eq!(bm.len(), rf.len());

            bm.merge(&ob);
            rf.extend(rb.iter().copied());
            proptest::prop_assert_eq!(bm.pages().collect::<Vec<_>>(),
                                      rf.iter().copied().collect::<Vec<_>>());

            let d = bm.difference(&ob);
            let rd: Vec<u64> = rf.difference(&rb).copied().collect();
            proptest::prop_assert_eq!(d.pages().collect::<Vec<_>>(), rd);

            bm.retain_within(&[GvaRange::new(Gva::from_page(range_lo), range_pages)]);
            rf.retain(|&p| p >= range_lo && p < range_lo + range_pages);
            proptest::prop_assert_eq!(bm.pages().collect::<Vec<_>>(),
                                      rf.iter().copied().collect::<Vec<_>>());
            proptest::prop_assert_eq!(bm.len(), rf.len());
        }
    }
}
