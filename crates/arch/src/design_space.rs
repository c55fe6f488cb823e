//! Design-space exploration beyond the paper's single configuration.
//!
//! The paper fixes 44 PEs × (16×16) banks at 30 W. This module sweeps the
//! neighbourhood — bank geometry, symbol rate, power envelope — and
//! reports the Pareto frontier of throughput vs energy per inference,
//! answering the "why 16×16?" question the paper leaves to intuition:
//! wider banks amortize peripherals over more MACs but suffer more
//! crosstalk channels and coarser tiling; more, smaller PEs tile
//! fine-grained layers better but multiply TIA/cache overheads.
//!
//! Sweeps are embarrassingly parallel: geometries fan out on the executor
//! and collect back in grid order, so sweep output is byte-stable across
//! `TRIDENT_THREADS` settings.

use crate::config::TridentConfig;
use crate::perf::TridentPerfModel;
use rayon::prelude::*;
use trident_workload::model::ModelSpec;

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Bank rows (J).
    pub bank_rows: usize,
    /// Bank columns (N).
    pub bank_cols: usize,
    /// PEs fitting the envelope.
    pub num_pes: usize,
    /// Peak TOPS.
    pub peak_tops: f64,
    /// Mean inferences/s over the benchmark models.
    pub mean_rate: f64,
    /// Mean energy per inference (mJ) over the benchmark models.
    pub mean_energy_mj: f64,
}

impl DesignPoint {
    /// True when `other` is at least as good on both axes and strictly
    /// better on one (throughput up, energy down).
    pub fn dominated_by(&self, other: &Self) -> bool {
        other.mean_rate >= self.mean_rate
            && other.mean_energy_mj <= self.mean_energy_mj
            && (other.mean_rate > self.mean_rate
                || other.mean_energy_mj < self.mean_energy_mj)
    }
}

/// Sweep bank geometries under a power envelope against a model set.
pub fn sweep_geometries(
    geometries: &[(usize, usize)],
    envelope_w: f64,
    models: &[ModelSpec],
) -> Vec<DesignPoint> {
    geometries
        .par_iter()
        .map(|&(bank_rows, bank_cols)| {
            let config = TridentConfig { bank_rows, bank_cols, ..TridentConfig::paper() }
                .scaled_to_envelope(envelope_w);
            let perf = TridentPerfModel::new(config.clone(), 8);
            let (mut rate_sum, mut energy_sum) = (0.0, 0.0);
            for model in models {
                let analysis = perf.analyze(model);
                rate_sum += analysis.inferences_per_second();
                energy_sum += analysis.energy_mj();
            }
            DesignPoint {
                bank_rows,
                bank_cols,
                num_pes: config.num_pes,
                peak_tops: config.peak_tops(),
                mean_rate: rate_sum / models.len() as f64,
                mean_energy_mj: energy_sum / models.len() as f64,
            }
        })
        .collect()
}

/// Filter a point set down to its Pareto frontier (throughput ↑, energy ↓),
/// sorted by throughput.
pub fn pareto_frontier(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut frontier: Vec<DesignPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| p.dominated_by(q)))
        .cloned()
        .collect();
    frontier.sort_by(|a, b| a.mean_rate.total_cmp(&b.mean_rate));
    frontier
}

/// The default geometry grid for the explorer binary.
pub fn default_geometries() -> Vec<(usize, usize)> {
    let sizes = [4usize, 8, 16, 24, 32];
    let mut grid = Vec::new();
    for &r in &sizes {
        for &c in &sizes {
            grid.push((r, c));
        }
    }
    grid
}

/// Sanity check a sweep result: the paper's configuration should be on or
/// near the frontier. Returns the paper point's smallest Euclidean
/// distance (in normalized rate/energy space) to a frontier point, or
/// `None` when the sweep never evaluated the paper's 16×16 geometry.
pub fn paper_point_frontier_distance(points: &[DesignPoint]) -> Option<f64> {
    let paper = points.iter().find(|p| p.bank_rows == 16 && p.bank_cols == 16)?;
    let frontier = pareto_frontier(points);
    let max_rate = points.iter().map(|p| p.mean_rate).fold(1e-12, f64::max);
    let max_energy = points.iter().map(|p| p.mean_energy_mj).fold(1e-12, f64::max);
    Some(
        frontier
            .iter()
            .map(|f| {
                let dr = (f.mean_rate - paper.mean_rate) / max_rate;
                let de = (f.mean_energy_mj - paper.mean_energy_mj) / max_energy;
                (dr * dr + de * de).sqrt()
            })
            .fold(f64::INFINITY, f64::min),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use trident_workload::zoo;

    fn small_sweep() -> Vec<DesignPoint> {
        let models = [zoo::googlenet(), zoo::mobilenet_v2()];
        sweep_geometries(&[(8, 8), (16, 16), (32, 32)], 30.0, &models)
    }

    #[test]
    fn sweep_covers_every_geometry() {
        let points = small_sweep();
        assert_eq!(points.len(), 3);
        assert!(points.iter().all(|p| p.num_pes >= 1));
        assert!(points.iter().all(|p| p.mean_rate > 0.0 && p.mean_energy_mj > 0.0));
    }

    #[test]
    fn bigger_banks_cost_pe_count() {
        let points = small_sweep();
        let by = |r: usize| points.iter().find(|p| p.bank_rows == r).unwrap();
        // A 32×32 bank draws ~4× the tuning power of 16×16, so far fewer
        // fit the same 30 W.
        assert!(by(32).num_pes < by(16).num_pes);
        assert!(by(16).num_pes < by(8).num_pes);
    }

    #[test]
    fn frontier_is_nondominated_and_sorted() {
        let points = small_sweep();
        let frontier = pareto_frontier(&points);
        assert!(!frontier.is_empty());
        for (i, p) in frontier.iter().enumerate() {
            assert!(!points.iter().any(|q| p.dominated_by(q)), "frontier point dominated");
            if i > 0 {
                assert!(frontier[i - 1].mean_rate <= p.mean_rate);
            }
        }
    }

    #[test]
    fn paper_geometry_is_near_the_frontier() {
        let models = [zoo::googlenet(), zoo::mobilenet_v2()];
        let points = sweep_geometries(&default_geometries(), 30.0, &models);
        let d = paper_point_frontier_distance(&points).expect("grid includes 16×16");
        assert!(
            d < 0.35,
            "the paper's 16×16 pick should sit near the Pareto frontier, distance {d}"
        );
    }

    #[test]
    fn domination_logic() {
        let a = DesignPoint {
            bank_rows: 8,
            bank_cols: 8,
            num_pes: 10,
            peak_tops: 1.0,
            mean_rate: 100.0,
            mean_energy_mj: 5.0,
        };
        let better = DesignPoint { mean_rate: 150.0, mean_energy_mj: 4.0, ..a.clone() };
        let mixed = DesignPoint { mean_rate: 150.0, mean_energy_mj: 6.0, ..a.clone() };
        assert!(a.dominated_by(&better));
        assert!(!a.dominated_by(&mixed));
        assert!(!a.dominated_by(&a.clone()));
    }
}
