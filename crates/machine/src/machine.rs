//! The physical machine: installed RAM plus the hardware feature set.

use crate::phys::HostPhys;

/// Hardware configuration: the two machines the paper runs on differ only
/// in RAM and the EPML extension. Every machine has PML, VMCS shadowing,
/// posted interrupts, SPP (§III-D, used by `ooh-secheap`) and PML-R (the
/// accessed-bit logging extension behind working-set estimation); the TLB
/// is unbounded (see the `tlb` module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Installed RAM in bytes.
    pub ram_bytes: u64,
    /// The paper's proposed EPML extension present (true for the
    /// BOCHS-analog emulated machine, false for the stock machine).
    pub epml: bool,
}

impl MachineConfig {
    /// The paper's real testbed (the i7-8565U): no EPML, so SPML
    /// experiments run here.
    pub fn stock(ram_bytes: u64) -> Self {
        Self {
            ram_bytes,
            epml: false,
        }
    }

    /// The paper's extended (BOCHS-emulated) machine with EPML.
    pub fn epml(ram_bytes: u64) -> Self {
        Self {
            ram_bytes,
            epml: true,
        }
    }
}

/// The machine: RAM plus config. vCPUs are owned by the hypervisor's VMs.
pub struct Machine {
    pub phys: HostPhys,
    pub config: MachineConfig,
}

impl Machine {
    pub fn new(config: MachineConfig) -> Self {
        Self {
            phys: HostPhys::new(config.ram_bytes),
            config,
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("config", &self.config)
            .field("phys", &self.phys)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SIZE;

    #[test]
    fn stock_has_no_epml() {
        let c = MachineConfig::stock(1 << 30);
        assert!(!c.epml);
        let e = MachineConfig::epml(1 << 30);
        assert!(e.epml);
    }

    #[test]
    fn machine_allocates_configured_ram() {
        let m = Machine::new(MachineConfig::stock(64 * PAGE_SIZE));
        assert_eq!(m.phys.total_frames(), 64);
    }
}
