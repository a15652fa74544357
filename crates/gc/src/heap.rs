//! The GC heap: a guest-memory arena with a bump-plus-free-list allocator
//! and object metadata (Boehm keeps the equivalent in block headers and
//! mark bitmaps; we keep a host-side index over the same information).

use ooh_guest::{GuestError, GuestKernel, Pid, VmaKind};
use ooh_hypervisor::Hypervisor;
use ooh_machine::{Gva, GvaRange};
use ooh_sim::Lane;
use std::collections::BTreeMap;

/// Bytes per heap word.
pub const WORD: u64 = 8;

/// Per-object metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjMeta {
    /// Payload size in words (header excluded).
    pub size_words: u32,
    /// Allocated since the last completed collection cycle.
    pub young: bool,
}

/// The heap arena.
pub struct GcHeap {
    pub pid: Pid,
    /// The heap VMA.
    pub range: GvaRange,
    /// Object index: payload GVA → metadata.
    objects: BTreeMap<u64, ObjMeta>,
    /// Free chunks: GVA → size in words (header included).
    free: BTreeMap<u64, u64>,
    /// Bump pointer for virgin space.
    bump: u64,
    /// Total words allocated over the heap's lifetime.
    pub words_allocated: u64,
}

impl GcHeap {
    /// Create a heap of `pages` pages inside `pid`'s address space.
    pub fn new(
        kernel: &mut GuestKernel,
        pid: Pid,
        pages: u64,
    ) -> Result<Self, GuestError> {
        let range = kernel.mmap(pid, pages, true, VmaKind::GcHeap)?;
        Ok(Self {
            pid,
            range,
            objects: BTreeMap::new(),
            free: BTreeMap::new(),
            bump: range.start.raw(),
            words_allocated: 0,
        })
    }

    /// Allocate an object with `size_words` payload words. Returns the
    /// payload GVA, or `None` if the heap is exhausted (caller collects and
    /// retries). The header word (size tag) is written through the guest
    /// path, dirtying the page like a real allocator's metadata store.
    pub fn alloc(
        &mut self,
        hv: &mut Hypervisor,
        kernel: &mut GuestKernel,
        size_words: u32,
    ) -> Result<Option<Gva>, GuestError> {
        let need = size_words as u64 + 1; // header + payload
        let start = if let Some((&at, &words)) = self.free.iter().find(|(_, &w)| w >= need) {
            self.free.remove(&at);
            if words > need {
                self.free.insert(at + need * WORD, words - need);
            }
            at
        } else {
            let at = self.bump;
            if at + need * WORD > self.range.end().raw() {
                return Ok(None);
            }
            self.bump = at + need * WORD;
            at
        };
        // Header: size tag, written to guest memory.
        kernel.write_u64(hv, self.pid, Gva(start), size_words as u64, Lane::Tracked)?;
        let payload = Gva(start + WORD);
        self.objects.insert(
            payload.raw(),
            ObjMeta {
                size_words,
                young: true,
            },
        );
        self.words_allocated += need;
        Ok(Some(payload))
    }

    /// Free an object (collector-internal).
    pub(crate) fn release(&mut self, payload: Gva) {
        let meta = self
            .objects
            .remove(&payload.raw())
            .expect("release of unknown object");
        let start = payload.raw() - WORD;
        let words = meta.size_words as u64 + 1;
        // Coalesce with an adjacent following free chunk if present.
        let end = start + words * WORD;
        if let Some(&next_words) = self.free.get(&end) {
            self.free.remove(&end);
            self.free.insert(start, words + next_words);
        } else {
            self.free.insert(start, words);
        }
    }

    /// The object (payload GVA + meta) containing address `addr`, if any —
    /// Boehm-style interior-pointer resolution.
    pub fn find_object(&self, addr: Gva) -> Option<(Gva, ObjMeta)> {
        let (&payload, &meta) = self.objects.range(..=addr.raw()).next_back()?;
        let end = payload + meta.size_words as u64 * WORD;
        (addr.raw() >= payload && addr.raw() < end).then_some((Gva(payload), meta))
    }

    /// Is `addr` a plausible heap pointer (word-aligned, inside the arena)?
    pub fn looks_like_pointer(&self, addr: u64) -> bool {
        addr.is_multiple_of(WORD) && self.range.contains(Gva(addr))
    }

    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    pub fn objects(&self) -> impl Iterator<Item = (Gva, ObjMeta)> + '_ {
        self.objects.iter().map(|(&g, &m)| (Gva(g), m))
    }

    pub fn contains_object(&self, payload: Gva) -> bool {
        self.objects.contains_key(&payload.raw())
    }

    /// Mark every object as old (end of a collection cycle).
    pub(crate) fn age_all(&mut self) {
        for meta in self.objects.values_mut() {
            meta.young = false;
        }
    }

    /// Live heap bytes (payload + headers).
    pub fn live_bytes(&self) -> u64 {
        self.objects
            .values()
            .map(|m| (m.size_words as u64 + 1) * WORD)
            .sum()
    }
}

impl std::fmt::Debug for GcHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcHeap")
            .field("range", &self.range)
            .field("objects", &self.objects.len())
            .field("free_chunks", &self.free.len())
            .field("live_bytes", &self.live_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooh_machine::{MachineConfig, PAGE_SIZE};
    use ooh_sim::SimCtx;

    fn boot() -> (Hypervisor, GuestKernel, Pid) {
        let mut hv = Hypervisor::new(MachineConfig::epml(64 * 1024 * PAGE_SIZE), SimCtx::new());
        let vm = hv.create_vm(16 * 1024 * PAGE_SIZE, 1).unwrap();
        let mut kernel = GuestKernel::new(vm);
        let pid = kernel.spawn(&mut hv).unwrap();
        (hv, kernel, pid)
    }

    #[test]
    fn alloc_returns_disjoint_objects() {
        let (mut hv, mut kernel, pid) = boot();
        let mut heap = GcHeap::new(&mut kernel, pid, 16).unwrap();
        let a = heap.alloc(&mut hv, &mut kernel, 4).unwrap().unwrap();
        let b = heap.alloc(&mut hv, &mut kernel, 4).unwrap().unwrap();
        assert!(b.raw() >= a.raw() + 5 * WORD);
        assert_eq!(heap.object_count(), 2);
        // Header holds the size tag.
        let tag = kernel
            .read_u64(&mut hv, pid, Gva(a.raw() - WORD), Lane::Tracked)
            .unwrap();
        assert_eq!(tag, 4);
    }

    #[test]
    fn exhaustion_returns_none() {
        let (mut hv, mut kernel, pid) = boot();
        let mut heap = GcHeap::new(&mut kernel, pid, 1).unwrap();
        // 512 words per page; each alloc takes 9 words.
        let mut n = 0;
        while heap.alloc(&mut hv, &mut kernel, 8).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 512 / 9);
    }

    #[test]
    fn release_and_reuse() {
        let (mut hv, mut kernel, pid) = boot();
        let mut heap = GcHeap::new(&mut kernel, pid, 1).unwrap();
        let a = heap.alloc(&mut hv, &mut kernel, 8).unwrap().unwrap();
        let _b = heap.alloc(&mut hv, &mut kernel, 8).unwrap().unwrap();
        heap.release(a);
        assert_eq!(heap.object_count(), 1);
        let c = heap.alloc(&mut hv, &mut kernel, 8).unwrap().unwrap();
        assert_eq!(c, a, "freed chunk is reused");
    }

    #[test]
    fn coalescing_rebuilds_large_chunks() {
        let (mut hv, mut kernel, pid) = boot();
        let mut heap = GcHeap::new(&mut kernel, pid, 1).unwrap();
        let a = heap.alloc(&mut hv, &mut kernel, 100).unwrap().unwrap();
        let b = heap.alloc(&mut hv, &mut kernel, 100).unwrap().unwrap();
        let _c = heap.alloc(&mut hv, &mut kernel, 100).unwrap().unwrap();
        // Free a then b: they must coalesce into one 202-word chunk that can
        // host a 201-word object.
        heap.release(b);
        heap.release(a);
        let big = heap.alloc(&mut hv, &mut kernel, 201).unwrap();
        assert_eq!(big, Some(a));
    }

    #[test]
    fn find_object_handles_interior_pointers() {
        let (mut hv, mut kernel, pid) = boot();
        let mut heap = GcHeap::new(&mut kernel, pid, 4).unwrap();
        let a = heap.alloc(&mut hv, &mut kernel, 10).unwrap().unwrap();
        assert_eq!(heap.find_object(a).unwrap().0, a);
        assert_eq!(heap.find_object(a.add(9 * WORD)).unwrap().0, a);
        assert!(heap.find_object(a.add(10 * WORD)).is_none(), "one past end");
        assert!(heap.find_object(Gva(a.raw() - WORD)).is_none(), "header");
    }

    #[test]
    fn pointer_plausibility() {
        let (_hv, mut kernel, pid) = boot();
        let heap = GcHeap::new(&mut kernel, pid, 4).unwrap();
        assert!(heap.looks_like_pointer(heap.range.start.raw()));
        assert!(!heap.looks_like_pointer(heap.range.start.raw() + 1));
        assert!(!heap.looks_like_pointer(0x1000));
        assert!(!heap.looks_like_pointer(heap.range.end().raw()));
    }
}
