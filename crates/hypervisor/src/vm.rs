//! Per-VM state: EPT, vCPUs, guest frame allocation, SPML coordination flags.

use ooh_machine::{
    exec_controls, DirtyBitmap, Ept, Field, Gpa, Hpa, HostPhys, MachineError, RingView, SppTable,
    Vcpu, VmxMode, HUGE_PAGE_PAGES, PAGE_SIZE,
};

/// VM identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize)]
pub struct VmId(pub u32);

/// The SPML coordination state the paper adds to the hypervisor: which level
/// (guest / hypervisor) currently has PML enabled, and where the guest ring
/// buffer lives.
#[derive(Debug, Default)]
pub struct SpmlState {
    /// The guest (OoH module) has registered for per-process PML service.
    pub enabled_by_guest: bool,
    /// The guest's logging is *currently on* (tracked process scheduled in).
    pub guest_logging_on: bool,
    /// The hypervisor itself is using PML (live migration in progress).
    pub enabled_by_hyp: bool,
    /// The hypervisor's view of the ring buffer shared with the guest. The
    /// ring lives in *guest* memory (the paper's §V isolation argument);
    /// the hypervisor caches the translated frame addresses at init time.
    pub guest_ring: Option<RingView>,
}

/// One virtual machine.
pub struct Vm {
    pub id: VmId,
    pub ept: Ept,
    pub vcpus: Vec<Vcpu>,
    pub spml: SpmlState,
    /// Sub-page write permissions for this VM's guest-physical pages
    /// (the OoH-SPP service of §III-D).
    pub spp_table: SppTable,
    /// Dirty GPA pages collected for the hypervisor's own use (migration),
    /// word-packed (one bit per guest-physical page).
    pub hyp_dirty: DirtyBitmap,
    /// Working-set estimation (PML-R) state: distinct pages accessed and
    /// written during the current sampling interval, word-packed.
    pub wss_accessed: DirtyBitmap,
    pub wss_dirty: DirtyBitmap,
    pub wss_active: bool,
    /// Split-on-dirty policy: the first logged write to a still-huge mapping
    /// takes a demotion fault instead of setting the region-wide D bit, so
    /// dirty tracking stays 4K-precise. Off by default — with it off, huge
    /// mappings log once per region per round and drains expand them
    /// conservatively to all 512 pages.
    pub split_on_dirty: bool,
    /// Next guest-physical page to hand out.
    next_gpa_page: u64,
    /// Reusable freed guest pages.
    free_gpa_pages: Vec<u64>,
    /// Configured guest RAM ceiling, in pages.
    ram_pages: u64,
    /// Currently allocated guest pages.
    allocated_pages: u64,
}

impl Vm {
    pub fn new(
        id: VmId,
        phys: &mut HostPhys,
        ram_bytes: u64,
        n_vcpus: u32,
    ) -> Result<Self, MachineError> {
        let ept = Ept::new(phys)?;
        let vcpus = (0..n_vcpus).map(Vcpu::new).collect();
        Ok(Self {
            id,
            ept,
            vcpus,
            spml: SpmlState::default(),
            spp_table: SppTable::new(),
            hyp_dirty: DirtyBitmap::new(),
            wss_accessed: DirtyBitmap::new(),
            wss_dirty: DirtyBitmap::new(),
            wss_active: false,
            split_on_dirty: false,
            // GPA 0 is reserved (null) — hand out pages from 1.
            next_gpa_page: 1,
            free_gpa_pages: Vec::new(),
            ram_pages: ram_bytes / PAGE_SIZE,
            allocated_pages: 0,
        })
    }

    /// Allocate one page of guest RAM: grabs a host frame and maps it into
    /// the EPT. (Xen-style pre-populated guest memory; no demand EPT faults
    /// on the hot path.)
    pub fn alloc_guest_page(&mut self, phys: &mut HostPhys) -> Result<Gpa, MachineError> {
        if self.allocated_pages >= self.ram_pages {
            return Err(MachineError::OutOfMemory {
                requested_frames: 1,
                free_frames: 0,
            });
        }
        let gpa_page = self.free_gpa_pages.pop().unwrap_or_else(|| {
            let p = self.next_gpa_page;
            self.next_gpa_page += 1;
            p
        });
        let hpa = phys.alloc_frame()?;
        let gpa = Gpa::from_page(gpa_page);
        self.ept.map(phys, gpa, hpa)?;
        self.allocated_pages += 1;
        Ok(gpa)
    }

    /// Allocate a 2 MiB guest region: 512 contiguous, 2M-aligned GPA pages
    /// backed by 512 contiguous, 2M-aligned host frames, mapped by a single
    /// huge EPT leaf. GPA pages skipped for alignment go on the free list so
    /// later 4K allocations recycle them. Freeing is still per-4K-page via
    /// [`Self::free_guest_page`] — the EPT auto-demotes on the first unmap
    /// inside the region. The GPA space is committed only once the host
    /// frames are in hand and mapped, so a failed call strands no GPAs.
    pub fn alloc_guest_huge_region(
        &mut self,
        phys: &mut HostPhys,
    ) -> Result<Gpa, MachineError> {
        if self.allocated_pages + HUGE_PAGE_PAGES > self.ram_pages {
            return Err(MachineError::OutOfMemory {
                requested_frames: HUGE_PAGE_PAGES,
                free_frames: self.ram_pages - self.allocated_pages,
            });
        }
        let hpa = phys.alloc_frames_contiguous(HUGE_PAGE_PAGES, HUGE_PAGE_PAGES)?;
        let base_page = self.next_gpa_page.next_multiple_of(HUGE_PAGE_PAGES);
        let gpa = Gpa::from_page(base_page);
        self.ept.map_huge(phys, gpa, hpa)?;
        for p in self.next_gpa_page..base_page {
            self.free_gpa_pages.push(p);
        }
        self.next_gpa_page = base_page + HUGE_PAGE_PAGES;
        self.allocated_pages += HUGE_PAGE_PAGES;
        Ok(gpa)
    }

    /// Demote the huge EPT mapping covering `gpa` to a 4K subtree and drop
    /// every covering translation from every vCPU's TLB (a real demotion is
    /// an EPT edit and must be fenced by an EPT-wide invalidation). Returns
    /// whether a huge mapping was actually present.
    pub fn demote_region(
        &mut self,
        phys: &mut HostPhys,
        gpa: Gpa,
    ) -> Result<bool, MachineError> {
        if !self.ept.demote(phys, gpa)? {
            return Ok(false);
        }
        let base = gpa.huge_base().page();
        for vcpu in &mut self.vcpus {
            for p in base..base + HUGE_PAGE_PAGES {
                vcpu.tlb.invalidate_gpa_page(p);
            }
        }
        Ok(true)
    }

    /// Release one page of guest RAM.
    pub fn free_guest_page(&mut self, phys: &mut HostPhys, gpa: Gpa) -> Result<(), MachineError> {
        if let Some(hpa) = self.ept.unmap(phys, gpa)? {
            phys.free_frame(hpa)?;
            self.free_gpa_pages.push(gpa.page());
            self.allocated_pages -= 1;
            // Stale translations must not survive the unmap — and neither
            // may the PML shadow's memory of the frame: the GPA goes back on
            // the free list and its next owner starts with a clean dirty
            // history, or a recycled frame would false-panic as "logged
            // twice" under debug-invariants.
            for vcpu in &mut self.vcpus {
                vcpu.tlb.invalidate_gpa_page(gpa.page());
                vcpu.pml.note_hyp_dirty_cleared(gpa.page());
            }
        }
        Ok(())
    }

    /// Guest pages currently allocated.
    pub fn allocated_pages(&self) -> u64 {
        self.allocated_pages
    }

    /// Translate GPA→HPA without side effects (hypervisor-internal).
    pub fn gpa_to_hpa(&mut self, phys: &HostPhys, gpa: Gpa) -> Result<Option<Hpa>, MachineError> {
        self.ept.translate(phys, gpa)
    }

    /// Effective hypervisor-level PML logging: on iff either level wants it.
    /// (The paper's two-flag coordination — neither level may starve the
    /// other.)
    pub fn effective_hyp_logging(&self) -> bool {
        (self.spml.enabled_by_guest && self.spml.guest_logging_on)
            || self.spml.enabled_by_hyp
            || self.wss_active
    }

    /// Recompute each vCPU's PML enable from the coordination flags: writes
    /// the ENABLE_PML execution control and re-syncs hardware state, so the
    /// VMCS stays the single source of truth.
    pub fn sync_logging(&mut self) {
        let on = self.effective_hyp_logging();
        for vcpu in &mut self.vcpus {
            let ctrl = vcpu
                .vmcs
                .vmread(VmxMode::Root, Field::SecondaryExecControls)
                .unwrap_or(0);
            let new = if on {
                ctrl | exec_controls::ENABLE_PML
            } else {
                ctrl & !exec_controls::ENABLE_PML
            };
            vcpu.vmcs
                .vmwrite(VmxMode::Root, Field::SecondaryExecControls, new)
                .expect("root vmwrite cannot fail");
            vcpu.sync_pml_from_vmcs();
        }
    }
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("id", &self.id)
            .field("vcpus", &self.vcpus.len())
            .field("allocated_pages", &self.allocated_pages)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_ram_limit() {
        let mut phys = HostPhys::new(64 * PAGE_SIZE);
        let mut vm = Vm::new(VmId(0), &mut phys, 2 * PAGE_SIZE, 1).unwrap();
        vm.alloc_guest_page(&mut phys).unwrap();
        vm.alloc_guest_page(&mut phys).unwrap();
        assert!(vm.alloc_guest_page(&mut phys).is_err());
        assert_eq!(vm.allocated_pages(), 2);
    }

    #[test]
    fn free_recycles_gpa_and_host_frame() {
        let mut phys = HostPhys::new(64 * PAGE_SIZE);
        let mut vm = Vm::new(VmId(0), &mut phys, 8 * PAGE_SIZE, 1).unwrap();
        let g = vm.alloc_guest_page(&mut phys).unwrap();
        let frames_before = phys.allocated_frames();
        vm.free_guest_page(&mut phys, g).unwrap();
        assert_eq!(phys.allocated_frames(), frames_before - 1);
        let g2 = vm.alloc_guest_page(&mut phys).unwrap();
        assert_eq!(g2, g, "freed GPA page is reused");
    }

    #[test]
    fn gpa_zero_is_never_handed_out() {
        let mut phys = HostPhys::new(64 * PAGE_SIZE);
        let mut vm = Vm::new(VmId(0), &mut phys, 16 * PAGE_SIZE, 1).unwrap();
        for _ in 0..4 {
            assert_ne!(vm.alloc_guest_page(&mut phys).unwrap(), Gpa::NULL);
        }
    }

    #[test]
    fn huge_region_alloc_aligns_and_recycles_gpa_gap() {
        let mut phys = HostPhys::new(2048 * PAGE_SIZE);
        let mut vm = Vm::new(VmId(0), &mut phys, 1024 * PAGE_SIZE, 1).unwrap();
        let small = vm.alloc_guest_page(&mut phys).unwrap();
        let huge = vm.alloc_guest_huge_region(&mut phys).unwrap();
        assert!(huge.is_huge_aligned());
        assert!(vm.ept.is_huge_mapped(&phys, huge).unwrap());
        assert!(vm
            .ept
            .is_huge_mapped(&phys, huge.add((HUGE_PAGE_PAGES - 1) * PAGE_SIZE))
            .unwrap());
        assert_eq!(vm.allocated_pages(), 1 + HUGE_PAGE_PAGES);
        // GPA pages skipped by the 2M alignment bump are recycled for 4K use.
        let next = vm.alloc_guest_page(&mut phys).unwrap();
        assert!(next.page() > small.page() && next.page() < huge.page());
        // Contiguous GPA→HPA inside the region (single huge leaf).
        let h0 = vm.gpa_to_hpa(&phys, huge).unwrap().unwrap();
        let h5 = vm
            .gpa_to_hpa(&phys, huge.add(5 * PAGE_SIZE))
            .unwrap()
            .unwrap();
        assert_eq!(h5.raw() - h0.raw(), 5 * PAGE_SIZE);
    }

    #[test]
    fn failed_huge_alloc_strands_no_gpa_pages() {
        // Host RAM with plenty of free frames but no 2M-aligned contiguous
        // run left: the huge allocation fails in the host allocator.
        let mut phys = HostPhys::new(1000 * PAGE_SIZE);
        let mut vm = Vm::new(VmId(0), &mut phys, 900 * PAGE_SIZE, 1).unwrap();
        let first = vm.alloc_guest_page(&mut phys).unwrap();
        assert!(matches!(
            vm.alloc_guest_huge_region(&mut phys),
            Err(MachineError::OutOfMemory { .. })
        ));
        assert_eq!(vm.allocated_pages(), 1);
        // The next 4K allocation gets the GPA it would have got had the
        // failed call never happened.
        let next = vm.alloc_guest_page(&mut phys).unwrap();
        assert_eq!(next.page(), first.page() + 1);
    }

    #[test]
    fn demote_region_breaks_huge_and_frees_per_page() {
        let mut phys = HostPhys::new(2048 * PAGE_SIZE);
        let mut vm = Vm::new(VmId(0), &mut phys, 1024 * PAGE_SIZE, 2).unwrap();
        let huge = vm.alloc_guest_huge_region(&mut phys).unwrap();
        let h3 = vm
            .gpa_to_hpa(&phys, huge.add(3 * PAGE_SIZE))
            .unwrap()
            .unwrap();
        assert!(vm.demote_region(&mut phys, huge.add(PAGE_SIZE)).unwrap());
        assert!(!vm.ept.is_huge_mapped(&phys, huge).unwrap());
        assert!(!vm.demote_region(&mut phys, huge).unwrap(), "idempotent");
        // Translations survive demotion bit-for-bit.
        assert_eq!(
            vm.gpa_to_hpa(&phys, huge.add(3 * PAGE_SIZE)).unwrap(),
            Some(h3)
        );
        // Per-4K free works on the demoted subtree.
        vm.free_guest_page(&mut phys, huge.add(3 * PAGE_SIZE)).unwrap();
        assert_eq!(vm.allocated_pages(), HUGE_PAGE_PAGES - 1);
        assert_eq!(vm.gpa_to_hpa(&phys, huge.add(3 * PAGE_SIZE)).unwrap(), None);
    }

    #[test]
    fn logging_coordination_flags() {
        let mut phys = HostPhys::new(64 * PAGE_SIZE);
        let mut vm = Vm::new(VmId(0), &mut phys, 8 * PAGE_SIZE, 1).unwrap();
        assert!(!vm.effective_hyp_logging());
        vm.spml.enabled_by_guest = true;
        assert!(!vm.effective_hyp_logging(), "registered but not scheduled in");
        vm.spml.guest_logging_on = true;
        assert!(vm.effective_hyp_logging());
        vm.spml.guest_logging_on = false;
        vm.spml.enabled_by_hyp = true;
        assert!(vm.effective_hyp_logging(), "migration keeps PML on");
    }
}
