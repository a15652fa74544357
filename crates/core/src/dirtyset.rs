//! Dirty-page sets: what every tracking technique ultimately produces.
//!
//! Backed by the word-packed [`DirtyBitmap`] from `ooh-machine` rather than
//! a `BTreeSet<u64>`: inserts set one bit, merge/difference are wordwise
//! OR/ANDNOT, and `retain_within` clips bitmap words to range bounds —
//! O(words) instead of O(pages × ranges). Iteration order (ascending page
//! number) and the public API are unchanged, so every virtual-clock
//! observable downstream stays byte-identical; only the simulator's own
//! wall-clock speed changes.

use ooh_machine::{DirtyBitmap, Gva, GvaRange};

/// A set of dirty guest-virtual pages (stored as page numbers, ordered).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    pages: DirtyBitmap,
}

impl DirtySet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert the page containing `gva`. Returns true if newly inserted.
    pub fn insert(&mut self, gva: Gva) -> bool {
        self.pages.insert(gva.page())
    }

    pub fn insert_page(&mut self, page: u64) -> bool {
        self.pages.insert(page)
    }

    pub fn contains(&self, gva: Gva) -> bool {
        self.pages.contains(gva.page())
    }

    pub fn len(&self) -> usize {
        self.pages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Page-base GVAs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Gva> + '_ {
        self.pages.pages().map(Gva::from_page)
    }

    /// Raw page numbers, ascending.
    pub fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.pages()
    }

    /// Union with another set — O(words of `other`).
    pub fn merge(&mut self, other: &DirtySet) {
        self.pages.merge(&other.pages);
    }

    /// Keep only pages inside `ranges` (the tracker's registered region) —
    /// O(bitmap words overlapping the ranges).
    pub fn retain_within(&mut self, ranges: &[GvaRange]) {
        self.pages.retain_within(ranges);
    }

    /// Set difference: pages in self but not in `other` — O(words of self).
    pub fn difference(&self, other: &DirtySet) -> DirtySet {
        DirtySet {
            pages: self.pages.difference(&other.pages),
        }
    }

    /// The underlying word-packed bitmap.
    pub fn bitmap(&self) -> &DirtyBitmap {
        &self.pages
    }
}

impl FromIterator<Gva> for DirtySet {
    fn from_iter<I: IntoIterator<Item = Gva>>(iter: I) -> Self {
        let mut s = DirtySet::new();
        for g in iter {
            s.insert(g);
        }
        s
    }
}

impl From<DirtyBitmap> for DirtySet {
    fn from(pages: DirtyBitmap) -> Self {
        DirtySet { pages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooh_machine::PAGE_SIZE;

    #[test]
    fn insert_dedupes_within_page() {
        let mut s = DirtySet::new();
        assert!(s.insert(Gva(0x1000)));
        assert!(!s.insert(Gva(0x1fff)));
        assert!(s.insert(Gva(0x2000)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Gva(0x1234)));
        assert!(!s.contains(Gva(0x3000)));
    }

    #[test]
    fn iter_is_sorted_page_bases() {
        let s: DirtySet = [Gva(0x5123), Gva(0x1fff), Gva(0x3000)]
            .into_iter()
            .collect();
        let v: Vec<Gva> = s.iter().collect();
        assert_eq!(v, vec![Gva(0x1000), Gva(0x3000), Gva(0x5000)]);
    }

    #[test]
    fn retain_within_filters() {
        let mut s: DirtySet = (0..10u64).map(|i| Gva(i * PAGE_SIZE)).collect();
        let keep = [GvaRange::new(Gva(2 * PAGE_SIZE), 3)];
        s.retain_within(&keep);
        assert_eq!(s.len(), 3);
        assert!(s.contains(Gva(2 * PAGE_SIZE)));
        assert!(s.contains(Gva(4 * PAGE_SIZE)));
        assert!(!s.contains(Gva(5 * PAGE_SIZE)));
    }

    proptest::proptest! {
        /// DirtySet behaves exactly like a BTreeSet of page numbers under
        /// arbitrary insert/merge/difference/retain sequences.
        #[test]
        fn matches_reference_set(
            a in proptest::collection::vec(0u64..128, 0..60),
            b in proptest::collection::vec(0u64..128, 0..60),
            keep_lo in 0u64..64,
            keep_pages in 1u64..64,
        ) {
            use std::collections::BTreeSet;
            let mk = |xs: &[u64]| -> (DirtySet, BTreeSet<u64>) {
                let ds: DirtySet = xs.iter().map(|&p| Gva::from_page(p)).collect();
                let rf: BTreeSet<u64> = xs.iter().copied().collect();
                (ds, rf)
            };
            let (mut da, mut ra) = mk(&a);
            let (db, rb) = mk(&b);
            proptest::prop_assert_eq!(da.len(), ra.len());

            // merge
            da.merge(&db);
            ra.extend(rb.iter().copied());
            proptest::prop_assert_eq!(da.pages().collect::<Vec<_>>(), ra.iter().copied().collect::<Vec<_>>());

            // difference
            let diff = da.difference(&db);
            let rdiff: BTreeSet<u64> = ra.difference(&rb).copied().collect();
            proptest::prop_assert_eq!(diff.pages().collect::<Vec<_>>(), rdiff.iter().copied().collect::<Vec<_>>());

            // retain_within one window
            let window = [GvaRange::new(Gva::from_page(keep_lo), keep_pages)];
            da.retain_within(&window);
            ra.retain(|&p| p >= keep_lo && p < keep_lo + keep_pages);
            proptest::prop_assert_eq!(da.pages().collect::<Vec<_>>(), ra.iter().copied().collect::<Vec<_>>());
        }
    }

    proptest::proptest! {
        /// Sparse and wide page numbers (full 52-bit space): the chunked
        /// bitmap must handle far-apart pages without memory blowup.
        #[test]
        fn sparse_wide_pages(
            pages in proptest::collection::vec(0u64..(1 << 40), 0..40),
        ) {
            use std::collections::BTreeSet;
            let ds: DirtySet = pages.iter().map(|&p| Gva::from_page(p)).collect();
            let rf: BTreeSet<u64> = pages.iter().copied().collect();
            proptest::prop_assert_eq!(ds.len(), rf.len());
            proptest::prop_assert_eq!(
                ds.pages().collect::<Vec<_>>(),
                rf.iter().copied().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn merge_and_difference() {
        let a: DirtySet = [Gva(0x1000), Gva(0x2000)].into_iter().collect();
        let b: DirtySet = [Gva(0x2000), Gva(0x3000)].into_iter().collect();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.len(), 3);
        let d = m.difference(&a);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![Gva(0x3000)]);
    }
}
