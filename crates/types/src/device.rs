//! The device-model axis of the design-comparison sweeps.

/// Which DRAM device model a design point runs on.
///
/// The organization axis ([`crate::Access`] consumers) and the device
/// axis compose orthogonally: every organization can run on the paper's
/// flat Table I devices or on a tiered-latency (TL-DRAM) stacked die.
/// The off-chip DDR device stays flat in both — tiering targets the
/// latency-critical stacked die, so organizations without one (the
/// off-chip-only baseline) are identical on both axes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DeviceKind {
    /// The paper's flat Table I devices.
    #[default]
    Flat,
    /// Tiered-latency stacked die (near/far segments per bank).
    TlDram,
}

impl DeviceKind {
    /// Short label used in sweep-point keys (e.g. `"mcf::CAMEO@tldram"`).
    pub fn label(&self) -> &'static str {
        match self {
            DeviceKind::Flat => "flat",
            DeviceKind::TlDram => "tldram",
        }
    }

    /// Both device axes, in canonical sweep order.
    #[must_use]
    pub fn all() -> [DeviceKind; 2] {
        [DeviceKind::Flat, DeviceKind::TlDram]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let [flat, tldram] = DeviceKind::all();
        assert_ne!(flat.label(), tldram.label());
    }

    #[test]
    fn flat_is_default() {
        assert_eq!(DeviceKind::default(), DeviceKind::Flat);
    }
}
