//! Chip-area model (Fig. 5 of the paper).
//!
//! §IV: "All 44 PEs consume an area of 604.6 mm², less than 1 square inch
//! … Most of that area is consumed by the TIAs." Plus the cache footprint
//! given explicitly: "a footprint of 0.092 × 0.085 mm²".
//!
//! Per-device footprints are taken from the device publications where the
//! paper gives them and calibrated to the 604.6 mm² total otherwise; the
//! tests pin the total and the TIA-dominance claim.

use crate::config::TridentConfig;
use trident_photonics::detector::TransimpedanceAmplifier;
use trident_photonics::mrr::MrrGeometry;
use trident_photonics::units::{count, AreaUm2};
use std::collections::BTreeMap;

/// Area ledger item names.
pub mod items {
    /// Transimpedance amplifiers (the dominant consumer, per Fig. 5).
    pub const TIA: &str = "TIA";
    /// MRR weight bank (rings + GST cells).
    pub const WEIGHT_BANK: &str = "MRR Weight Bank";
    /// GST activation cells (60 µm rings).
    pub const ACTIVATION: &str = "GST Activation Cells";
    /// Balanced photodetectors.
    pub const BPD: &str = "BPD";
    /// E/O lasers and modulators.
    pub const EO: &str = "E/O Lasers";
    /// LDSUs.
    pub const LDSU: &str = "LDSU";
    /// Per-PE cache (0.092 × 0.085 mm² per §IV).
    pub const CACHE: &str = "Cache";
    /// Routing waveguides and splitters.
    pub const WAVEGUIDES: &str = "Waveguides";
}

/// Per-PE and whole-chip area breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    config: TridentConfig,
}

impl AreaModel {
    /// Build from a configuration.
    pub fn new(config: &TridentConfig) -> Self {
        Self { config: config.clone() }
    }

    /// Per-PE area by component, in µm².
    pub fn pe_breakdown(&self) -> BTreeMap<&'static str, AreaUm2> {
        let c = &self.config;
        let rows = count(c.bank_rows);
        let mrrs = count(c.mrrs_per_pe());
        let mut map = BTreeMap::new();
        // One TIA per row, the component that dominates Fig. 5.
        map.insert(items::TIA, TransimpedanceAmplifier::default().area * rows);
        map.insert(items::WEIGHT_BANK, MrrGeometry::weight_bank().footprint() * mrrs);
        map.insert(
            items::ACTIVATION,
            MrrGeometry::activation_cell().footprint() * rows,
        );
        map.insert(items::BPD, AreaUm2(600.0) * rows);
        map.insert(items::EO, AreaUm2(2_500.0) * rows);
        map.insert(items::LDSU, trident_pcm::ldsu::Ldsu::AREA_PER_UNIT * rows);
        // §IV gives the cache footprint exactly: 0.092 mm × 0.085 mm.
        map.insert(items::CACHE, AreaUm2::from_mm2(0.092 * 0.085));
        map.insert(items::WAVEGUIDES, AreaUm2(120_000.0));
        map
    }

    /// Total per-PE area.
    pub fn pe_area(&self) -> AreaUm2 {
        self.pe_breakdown().values().copied().sum()
    }

    /// Whole-chip area across all PEs.
    pub fn chip_area(&self) -> AreaUm2 {
        self.pe_area() * count(self.config.num_pes)
    }

    /// Whole-chip breakdown (per-PE scaled by PE count), for Fig. 5.
    pub fn chip_breakdown(&self) -> BTreeMap<&'static str, AreaUm2> {
        let n = count(self.config.num_pes);
        self.pe_breakdown().into_iter().map(|(k, v)| (k, v * n)).collect()
    }

    /// Share of chip area attributed to one component.
    pub fn share(&self, item: &str) -> f64 {
        let total = self.pe_area().value();
        self.pe_breakdown().get(item).map_or(0.0, |a| a.value() / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AreaModel {
        AreaModel::new(&TridentConfig::paper())
    }

    #[test]
    fn chip_area_matches_section_iv() {
        let chip = model().chip_area().mm2();
        assert!(
            (chip - 604.6).abs() < 15.0,
            "chip area {chip} mm² should be close to the paper's 604.6 mm²"
        );
        // "less than 1 square inch" = 645.16 mm².
        assert!(chip < 645.16);
    }

    #[test]
    fn tia_dominates_like_fig5() {
        let m = model();
        let tia = m.share(items::TIA);
        assert!(tia > 0.5, "TIA share {tia} should dominate");
        for item in [
            items::WEIGHT_BANK,
            items::ACTIVATION,
            items::BPD,
            items::EO,
            items::LDSU,
            items::CACHE,
            items::WAVEGUIDES,
        ] {
            assert!(m.share(item) < tia, "{item} share must be below the TIA share");
        }
    }

    #[test]
    fn tia_line_is_one_tia_slice_per_row() {
        let slice = TransimpedanceAmplifier::default().area;
        assert!((slice.mm2() - 0.83).abs() < 1e-12, "TIA slice {} mm²", slice.mm2());
        assert_eq!(model().pe_breakdown()[items::TIA], slice * count(16));
    }

    #[test]
    fn cache_footprint_is_papers() {
        let m = model();
        let cache = m.pe_breakdown()[items::CACHE];
        assert!((cache.mm2() - 0.00782).abs() < 1e-4);
    }

    #[test]
    fn weight_bank_area_scales_with_mrr_count() {
        let small = AreaModel::new(&TridentConfig {
            bank_rows: 8,
            bank_cols: 8,
            ..TridentConfig::paper()
        });
        let big = model();
        assert!(
            big.pe_breakdown()[items::WEIGHT_BANK].value()
                > small.pe_breakdown()[items::WEIGHT_BANK].value()
        );
    }

    #[test]
    fn chip_breakdown_sums_to_chip_area() {
        let m = model();
        let total: AreaUm2 = m.chip_breakdown().values().copied().sum();
        assert!((total.value() - m.chip_area().value()).abs() < 1.0);
    }
}
