//! The reproduction gate: every headline claim of the paper checked in
//! one pass, with a machine-readable verdict.
//!
//! This is the same contract the test suite enforces, packaged for CI and
//! for users who want a one-command answer to "does this reproduction
//! still hold?" — `cargo run -p trident-bench --bin trident_sim -- gate`
//! exits non-zero if any claim fails.

use crate::experiments::{fig5, fig6, table3, table5};
use crate::report::TextTable;
use trident_baselines::electronic::{bearkey_tb96, google_coral, nvidia_agx_xavier};
use trident_baselines::photonic::{crosslight, deap_cnn, pixel, trident_photonic};
use trident_baselines::traits::AcceleratorModel;
use trident_workload::zoo;

/// One checked claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Where in the paper the claim lives.
    pub source: &'static str,
    /// What is being checked.
    pub statement: &'static str,
    /// The measured value, formatted.
    pub measured: String,
    /// Verdict.
    pub holds: bool,
}

fn claim(source: &'static str, statement: &'static str, measured: String, holds: bool) -> Claim {
    Claim { source, statement, measured, holds }
}

/// Run every gate check.
pub fn run() -> Vec<Claim> {
    let mut claims = Vec::new();

    // Table III.
    let t3 = table3::run();
    claims.push(claim(
        "Table III",
        "PE worst-case power is 0.67 W",
        format!("{:.3} W", t3.total_w),
        (t3.total_w - 0.67).abs() < 0.01,
    ));
    claims.push(claim(
        "Table III",
        "GST tuning is 83.34% of PE power",
        format!("{:.2}%", t3.breakdown.share(trident_arch::power::items::GST_TUNING) * 100.0),
        (t3.breakdown.share(trident_arch::power::items::GST_TUNING) - 0.8334).abs() < 0.005,
    ));
    claims.push(claim(
        "Section IV",
        "steady-state PE power is 0.11 W",
        format!("{:.3} W", t3.steady_w),
        (t3.steady_w - 0.11).abs() < 0.01,
    ));

    // Section IV scale.
    let trident = trident_photonic();
    claims.push(claim(
        "Section IV",
        "30 W admits 44 PEs of 256 MRRs",
        format!("{} PEs x {} MRRs", trident.num_pes(), trident.perf().config.mrrs_per_pe()),
        trident.num_pes() == 44 && trident.perf().config.mrrs_per_pe() == 256,
    ));
    claims.push(claim(
        "Section V-A",
        "peak throughput is 7.8 TOPS",
        format!("{:.2} TOPS", trident.peak_tops()),
        (trident.peak_tops() - 7.8).abs() < 0.05,
    ));

    // Fig. 5.
    let (area_rows, area_total) = fig5::run();
    claims.push(claim(
        "Section IV / Fig. 5",
        "chip area ~604.6 mm², under one square inch, TIA-dominated",
        format!("{:.1} mm², top: {}", area_total, area_rows[0].component),
        (area_total - 604.6).abs() < 15.0 && area_total < 645.16 && area_rows[0].component == "TIA",
    ));

    // Fig. 4 ordering.
    let mut energy_ok = true;
    for model in zoo::paper_models() {
        let t = trident.energy_per_inference_mj(&model);
        for b in [deap_cnn(), crosslight(), pixel()] {
            energy_ok &= t < b.energy_per_inference_mj(&model);
        }
    }
    claims.push(claim(
        "Fig. 4",
        "Trident is the most energy-efficient photonic design on all five CNNs",
        if energy_ok { "all 15 comparisons won".into() } else { "a comparison lost".into() },
        energy_ok,
    ));

    // Fig. 6 orderings.
    let rows = fig6::run();
    let xavier = fig6::average_speedup(&rows, "NVIDIA AGX Xavier");
    let coral = fig6::average_speedup(&rows, "Google Coral");
    let tb96 = fig6::average_speedup(&rows, "Bearkey TB96-AI");
    claims.push(claim(
        "Fig. 6",
        "average speedups: Coral > TB96 > Xavier > 1 (paper: 15.1/6.9/2.08)",
        format!("{coral:.1}x / {tb96:.1}x / {xavier:.2}x"),
        coral > tb96 && tb96 > xavier && xavier > 1.0,
    ));

    // Table IV orderings.
    claims.push(claim(
        "Table IV",
        "TOPS/W: Xavier > Trident ≈ Coral > TB96; only Xavier and Trident train",
        format!(
            "{:.2} / {:.2} / {:.2} / {:.2}",
            nvidia_agx_xavier().tops_per_watt(),
            trident.tops_per_watt(),
            google_coral().tops_per_watt(),
            bearkey_tb96().tops_per_watt()
        ),
        nvidia_agx_xavier().tops_per_watt() > trident.tops_per_watt()
            && trident.tops_per_watt() > bearkey_tb96().tops_per_watt()
            && trident.supports_training()
            && !google_coral().supports_training(),
    ));

    // Table V crossover.
    let t5 = table5::run();
    let losses: Vec<&str> =
        t5.iter().filter(|r| r.percent_change > 0.0).map(|r| r.model.as_str()).collect();
    claims.push(claim(
        "Table V",
        "Trident wins training on 3 of 4 models; GoogleNet is the only loss",
        format!("losses: {losses:?}"),
        losses == vec!["GoogleNet"],
    ));

    // §II-B / crosstalk.
    {
        use trident_photonics::crosstalk::{analyze_bank, effective_bit_resolution, BankOperatingPoint};
        use trident_photonics::mrr::{AddDropMrr, MrrGeometry};
        use trident_photonics::units::Wavelength;
        use trident_photonics::wdm::WdmGrid;
        let grid = WdmGrid::c_band(16);
        let ring = AddDropMrr::new(MrrGeometry::weight_bank(), Wavelength::from_nm(1550.0));
        let gst = analyze_bank(&grid, &ring, &BankOperatingPoint::gst(), 1.0);
        let thermal = analyze_bank(&grid, &ring, &BankOperatingPoint::thermal(), 1.0);
        let gst_bits = effective_bit_resolution(&gst, 8);
        let thermal_bits = effective_bit_resolution(&thermal, 8);
        claims.push(claim(
            "Section II-B",
            "GST banks sustain 8 usable bits; thermally modulated banks stop at 6",
            format!("GST {gst_bits} bits, thermal {thermal_bits} bits"),
            gst_bits == 8 && thermal_bits == 6,
        ));
    }

    claims
}

/// True when every claim holds.
pub fn all_hold(claims: &[Claim]) -> bool {
    claims.iter().all(|c| c.holds)
}

/// Render the gate as a table.
pub fn render() -> (String, bool) {
    let claims = run();
    let ok = all_hold(&claims);
    let mut t = TextTable::new(
        "Reproduction gate: paper claims vs this build",
        &["Source", "Claim", "Measured", "Verdict"],
    );
    for c in &claims {
        t.row(&[
            c.source.to_string(),
            c.statement.to_string(),
            c.measured.clone(),
            if c.holds { "PASS".into() } else { "FAIL".into() },
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\n{} of {} claims hold -> {}\n",
        claims.iter().filter(|c| c.holds).count(),
        claims.len(),
        if ok { "REPRODUCTION OK" } else { "REPRODUCTION BROKEN" }
    ));
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gate_claim_holds() {
        for c in run() {
            assert!(c.holds, "{} — {}: measured {}", c.source, c.statement, c.measured);
        }
    }

    #[test]
    fn gate_has_meaningful_coverage() {
        let claims = run();
        assert!(claims.len() >= 10, "gate should check at least ten claims");
        let sources: std::collections::BTreeSet<_> =
            claims.iter().map(|c| c.source).collect();
        assert!(sources.len() >= 6, "claims should span the paper's sections");
    }

    #[test]
    fn render_reports_ok() {
        let (text, ok) = render();
        assert!(ok);
        assert!(text.contains("REPRODUCTION OK"));
        assert!(!text.contains("FAIL"));
    }
}
