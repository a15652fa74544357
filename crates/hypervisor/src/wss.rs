//! Working-set-size estimation over PML-R (access logging).
//!
//! The paper's related work (§VII) cites the authors' prior extension of
//! PML to "log read pages in order to efficiently estimate VM working set
//! size". With the PML-R machine extension (present on every modelled
//! machine, see [`ooh_machine::MachineConfig`]), the logging circuit also
//! appends GPAs on EPT *accessed*-bit transitions; the estimator
//! periodically clears accessed bits and counts distinct logged pages per
//! interval — a WSS sample, without write-protecting or pausing the guest.

use crate::hypervisor::Hypervisor;
use crate::vm::VmId;
use ooh_machine::MachineError;
use serde::Serialize;

/// One sampling interval's result.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WssSample {
    pub interval: u32,
    /// Distinct guest-physical pages touched during the interval.
    pub accessed_pages: u64,
    /// ...of which written.
    pub dirty_pages: u64,
}

/// A running working-set-size estimation session.
#[derive(Debug)]
pub struct WssEstimator {
    vm: VmId,
    pub samples: Vec<WssSample>,
}

impl WssEstimator {
    /// Begin estimating `vm`'s working set over PML-R. Resets
    /// accessed/dirty state so the first interval starts clean.
    pub fn start(hv: &mut Hypervisor, vm: VmId) -> Result<Self, MachineError> {
        {
            let (vmref, phys) = hv.vm_and_phys_mut(vm);
            vmref.ept.clear_all_accessed(phys)?;
            vmref.ept.clear_all_dirty(phys)?;
            vmref.spml.enabled_by_hyp = true;
            vmref.wss_accessed.clear();
            vmref.wss_dirty.clear();
            vmref.wss_active = true;
            for vc in &mut vmref.vcpus {
                vc.tlb.flush_all();
                vc.pml.shadow_reset_hyp();
                vc.pml.log_accesses = true;
            }
            vmref.sync_logging();
            // sync_logging rewrites PML state from the VMCS; re-arm PML-R.
            for vc in &mut vmref.vcpus {
                vc.pml.log_accesses = true;
            }
        }
        Ok(Self {
            vm,
            samples: Vec::new(),
        })
    }

    /// Close the current interval: drain the buffers, report distinct
    /// accessed/dirty pages, and reset A/D state for the next interval.
    pub fn sample(&mut self, hv: &mut Hypervisor) -> Result<WssSample, MachineError> {
        let n_vcpus = hv.vm(self.vm).vcpus.len() as u32;
        for v in 0..n_vcpus {
            hv.drain_hyp_pml(self.vm, v)?;
        }
        let sample = {
            let (vmref, phys) = hv.vm_and_phys_mut(self.vm);
            let s = WssSample {
                interval: 0,
                accessed_pages: vmref.wss_accessed.len() as u64,
                dirty_pages: vmref.wss_dirty.len() as u64,
            };
            vmref.wss_accessed.clear();
            vmref.wss_dirty.clear();
            vmref.ept.clear_all_accessed(phys)?;
            vmref.ept.clear_all_dirty(phys)?;
            for vc in &mut vmref.vcpus {
                vc.tlb.flush_all();
                vc.pml.shadow_reset_hyp();
            }
            s
        };
        let sample = WssSample {
            interval: self.samples.len() as u32,
            ..sample
        };
        self.samples.push(sample);
        Ok(sample)
    }

    /// Stop estimating; PML returns to its previous users.
    pub fn stop(self, hv: &mut Hypervisor) -> Result<Vec<WssSample>, MachineError> {
        let vmref = hv.vm_mut(self.vm);
        vmref.wss_active = false;
        vmref.spml.enabled_by_hyp = false;
        for vc in &mut vmref.vcpus {
            vc.pml.log_accesses = false;
        }
        vmref.sync_logging();
        Ok(self.samples)
    }

    /// The peak sample — the usual WSS summary statistic.
    pub fn peak_accessed(&self) -> u64 {
        self.samples.iter().map(|s| s.accessed_pages).max().unwrap_or(0)
    }
}
