//! CAMEO as a full-system organization: the hardware controller plus the
//! OS that sees the combined (minus LLT reserve) capacity.

use cameo::{Cameo, CameoConfig, LltDesign, PredictionCaseCounts, PredictorKind};
use cameo_types::{
    Access, ByteSize, Cycle, LineAddr, MemKind, NopSink, ServiceLocation, TraceSink,
};
use cameo_vmem::{Placement, Vmm, VmmConfig, PAGE_FAULT_CYCLES};

use crate::org::{MemoryOrganization, OrgResult};
use crate::stats::BandwidthReport;

/// Stacked + off-chip memory under CAMEO hardware management.
///
/// The OS sees one flat space of [`Cameo::visible_capacity`] bytes and
/// places pages randomly; the controller relocates individual lines under
/// the OS without its knowledge.
#[derive(Clone, Debug)]
pub struct CameoOrg<S: TraceSink = NopSink> {
    vmm: Vmm,
    cameo: Cameo<S>,
}

impl CameoOrg {
    /// Creates a CAMEO system with the given LLT design and predictor,
    /// tracing disabled.
    pub fn new(
        stacked: ByteSize,
        off_chip: ByteSize,
        llt: LltDesign,
        predictor: PredictorKind,
        cores: u16,
        llp_entries: usize,
        seed: u64,
    ) -> Self {
        Self::with_sink_on(
            cameo_memsim::DramConfig::stacked(stacked),
            cameo_memsim::DramConfig::off_chip(off_chip),
            llt,
            predictor,
            cores,
            llp_entries,
            seed,
            NopSink,
        )
    }
}

impl<S: TraceSink> CameoOrg<S> {
    /// Creates a CAMEO system on explicit device models (e.g. a
    /// tiered-latency TL-DRAM stacked die); capacities are taken from the
    /// configs and passed through to the controller.
    #[allow(clippy::too_many_arguments)]
    pub fn with_sink_on(
        stacked_dev: cameo_memsim::DramConfig,
        off_chip_dev: cameo_memsim::DramConfig,
        llt: LltDesign,
        predictor: PredictorKind,
        cores: u16,
        llp_entries: usize,
        seed: u64,
        sink: S,
    ) -> Self {
        let cameo = Cameo::with_sink_on(
            CameoConfig {
                stacked: stacked_dev.capacity,
                off_chip: off_chip_dev.capacity,
                llt,
                predictor,
                cores,
                llp_entries,
            },
            stacked_dev,
            off_chip_dev,
            sink,
        );
        let vmm = Vmm::new(VmmConfig {
            // The OS has no notion of fast/slow regions under CAMEO: one
            // flat visible space, randomly placed.
            stacked: ByteSize::ZERO,
            off_chip: cameo.visible_capacity(),
            placement: Placement::Random,
            seed,
        });
        Self { vmm, cameo }
    }

    /// The underlying controller (for LLT/predictor statistics).
    pub fn controller(&self) -> &Cameo<S> {
        &self.cameo
    }

    /// Switches the swap policy (builder-style), e.g. to the
    /// frequency-filtered extension of the paper's Section VI-D.
    pub fn with_swap_policy(mut self, policy: cameo::SwapPolicy) -> Self {
        self.cameo.set_swap_policy(policy);
        self
    }

    /// Arms the controller's devices with seeded fault injection
    /// (builder-style). Inert when `cfg` has all rates at zero.
    #[cfg(feature = "faults")]
    pub fn with_fault_injection(
        mut self,
        cfg: cameo_memsim::faults::FaultConfig,
        seed: u64,
    ) -> Self {
        self.cameo.inject_faults(cfg, seed);
        self
    }

    /// Selects the fault-recovery policy (builder-style); default is
    /// [`cameo::recovery::RecoveryConfig::none`].
    #[cfg(feature = "faults")]
    pub fn with_recovery(mut self, cfg: cameo::recovery::RecoveryConfig) -> Self {
        self.cameo.set_recovery(cfg);
        self
    }

    fn org_name(llt: LltDesign, predictor: PredictorKind) -> &'static str {
        match (llt, predictor) {
            (LltDesign::Ideal, _) => "CAMEO(Ideal-LLT)",
            (LltDesign::Sram, _) => "CAMEO(SRAM-LLT)",
            (LltDesign::Embedded, _) => "CAMEO(Embedded-LLT)",
            (LltDesign::CoLocated, PredictorKind::SerialAccess) => "CAMEO(SAM)",
            (LltDesign::CoLocated, PredictorKind::Llp) => "CAMEO",
            (LltDesign::CoLocated, PredictorKind::Perfect) => "CAMEO(PerfectLLP)",
        }
    }
}

impl<S: TraceSink> MemoryOrganization for CameoOrg<S> {
    fn name(&self) -> &'static str {
        Self::org_name(self.cameo.config().llt, self.cameo.config().predictor)
    }

    fn access(&mut self, now: Cycle, access: &Access) -> OrgResult {
        let t = self
            .vmm
            .translate(access.line.page(), access.kind.is_write());
        if let Some(fault) = t.fault {
            // The line arrives with the page-in; no controller access is
            // made on behalf of the faulting request.
            let first = LineAddr::new(t.phys.first_line().raw());
            if fault.evicted.is_some_and(|(_, dirty)| dirty) {
                self.cameo.bulk_page_read(now, first);
            }
            self.cameo.bulk_page_write(now, first);
            return OrgResult {
                completion: now + Cycle::new(PAGE_FAULT_CYCLES),
                serviced_by: ServiceLocation::Storage,
                faulted: true,
            };
        }
        let phys = Access {
            line: LineAddr::new(t.phys.line(access.line.offset_in_page()).raw()),
            ..*access
        };
        let r = self.cameo.access(now, &phys);
        OrgResult {
            completion: r.completion,
            serviced_by: match r.serviced_by {
                MemKind::Stacked => ServiceLocation::Stacked,
                MemKind::OffChip => ServiceLocation::OffChip,
            },
            faulted: false,
        }
    }

    fn visible_capacity(&self) -> ByteSize {
        self.cameo.visible_capacity()
    }

    fn bandwidth(&self) -> BandwidthReport {
        BandwidthReport {
            stacked_bytes: self.cameo.stacked().stats().bytes_total(),
            off_chip_bytes: self.cameo.off_chip().stats().bytes_total(),
            storage_bytes: self.vmm.stats().storage_bytes(),
        }
    }

    fn faults(&self) -> u64 {
        self.vmm.stats().faults
    }

    fn service_counts(&self) -> (u64, u64) {
        let s = self.cameo.stats();
        (s.serviced_stacked, s.serviced_off_chip)
    }

    fn prediction_cases(&self) -> Option<PredictionCaseCounts> {
        matches!(self.cameo.config().llt, LltDesign::CoLocated).then(|| self.cameo.stats().cases)
    }

    fn prefill(&mut self, page: cameo_types::PageAddr) {
        self.vmm.translate(page, false);
    }

    fn prefill_batch(&mut self, pages: &[cameo_types::PageAddr]) {
        self.vmm.translate_batch(pages, false);
    }

    fn reset_stats(&mut self) {
        self.cameo.reset_stats();
        self.vmm.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_types::CoreId;

    fn org() -> CameoOrg {
        CameoOrg::new(
            ByteSize::from_mib(1),
            ByteSize::from_mib(3),
            LltDesign::CoLocated,
            PredictorKind::Llp,
            2,
            64,
            3,
        )
    }

    #[test]
    fn full_capacity_minus_reserve_visible() {
        let o = org();
        assert_eq!(
            o.visible_capacity(),
            ByteSize::from_mib(4) - ByteSize::from_kib(32)
        );
        assert_eq!(o.name(), "CAMEO");
    }

    #[test]
    fn repeated_access_migrates_to_stacked() {
        let mut o = org();
        let a = Access::read(CoreId(0), LineAddr::new(777), 0x40);
        let r1 = o.access(Cycle::ZERO, &a);
        assert!(r1.faulted);
        // Wherever the page landed, the second read promotes (or already
        // finds) the line in stacked memory; the third must be stacked.
        let r2 = o.access(r1.completion, &a);
        let r3 = o.access(r2.completion, &a);
        assert_eq!(r3.serviced_by, ServiceLocation::Stacked);
    }

    #[test]
    fn prediction_cases_exposed() {
        let mut o = org();
        let a = Access::read(CoreId(0), LineAddr::new(123), 0x40);
        let r1 = o.access(Cycle::ZERO, &a); // page fault: no prediction made
        o.access(r1.completion, &a);
        let cases = o.prediction_cases().expect("co-located design predicts");
        assert_eq!(cases.total(), 1);
    }

    #[test]
    fn ideal_design_reports_no_cases() {
        let o = CameoOrg::new(
            ByteSize::from_mib(1),
            ByteSize::from_mib(3),
            LltDesign::Ideal,
            PredictorKind::SerialAccess,
            1,
            64,
            3,
        );
        assert!(o.prediction_cases().is_none());
        assert_eq!(o.name(), "CAMEO(Ideal-LLT)");
    }
}
