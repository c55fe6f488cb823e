//! Request front-end.
//!
//! The front-end turns the raw arrival schedule into fully-formed
//! [`Request`]s: it selects each request's dataset sample (a seeded,
//! counter-addressed draw — request `i`'s sample is a pure function of
//! `(seed, i)`), stamps the SLO deadline, and validates input widths.
//! Requests are prepared in one in-order pass; because each is a pure
//! function of its own index, the stream is byte-identical at any
//! `TRIDENT_THREADS`.

use trident_streams::{seeded_u64, STREAM_TRAFFIC_INPUT};
use crate::{Request, ServeError};

/// Build request `id` from the shared schedule: sample selection,
/// deadline stamping.
fn prepare_one(
    id: u64,
    arrival_ns: u64,
    dataset: &[(Vec<f64>, usize)],
    seed: u64,
    slo_ns: u64,
) -> Request {
    let pick = seeded_u64(seed, STREAM_TRAFFIC_INPUT, id) % (dataset.len() as u64);
    let (input, label) = &dataset[usize::try_from(pick).unwrap_or(0)];
    Request {
        id,
        arrival_ns,
        deadline_ns: arrival_ns.saturating_add(slo_ns),
        input: input.clone(),
        label: *label,
    }
}

/// Prepare the full request stream for an arrival schedule.
///
/// Validates the dataset (non-empty, uniform width matching
/// `input_width`), then prepares one request per arrival, in order.
pub fn prepare_requests(
    arrivals: &[u64],
    dataset: &[(Vec<f64>, usize)],
    input_width: usize,
    seed: u64,
    slo_ns: u64,
) -> Result<Vec<Request>, ServeError> {
    if dataset.is_empty() {
        return Err(ServeError::EmptyDataset);
    }
    for (input, _) in dataset {
        if input.len() != input_width {
            return Err(ServeError::InputWidthMismatch {
                expected: input_width,
                got: input.len(),
            });
        }
    }
    Ok(arrivals
        .iter()
        .enumerate()
        .map(|(i, &at)| prepare_one(i as u64, at, dataset, seed, slo_ns))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::pool;

    fn tiny_dataset() -> Vec<(Vec<f64>, usize)> {
        (0..5).map(|c| (vec![f64::from(c) / 5.0; 4], usize::try_from(c).unwrap())).collect()
    }

    #[test]
    fn prepared_stream_is_identical_across_thread_counts() {
        let arrivals: Vec<u64> = (1..=100).map(|i| i * 500).collect();
        let data = tiny_dataset();
        pool::set_thread_override(Some(1));
        let seq = prepare_requests(&arrivals, &data, 4, 9, 1_000_000).unwrap();
        pool::set_thread_override(Some(8));
        let par = prepare_requests(&arrivals, &data, 4, 9, 1_000_000).unwrap();
        pool::set_thread_override(None);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival_ns, b.arrival_ns);
            assert_eq!(a.deadline_ns, b.deadline_ns);
            assert_eq!(a.label, b.label);
            assert_eq!(a.input, b.input);
        }
    }

    #[test]
    fn rejects_bad_datasets() {
        assert!(matches!(
            prepare_requests(&[1], &[], 4, 0, 10),
            Err(ServeError::EmptyDataset)
        ));
        let bad = vec![(vec![0.0; 3], 0)];
        assert!(matches!(
            prepare_requests(&[1], &bad, 4, 0, 10),
            Err(ServeError::InputWidthMismatch { expected: 4, got: 3 })
        ));
    }

    #[test]
    fn deadlines_are_arrival_plus_slo() {
        let data = tiny_dataset();
        let reqs = prepare_requests(&[100, 200], &data, 4, 0, 50).unwrap();
        assert_eq!(reqs[0].deadline_ns, 150);
        assert_eq!(reqs[1].deadline_ns, 250);
        assert_eq!(reqs[0].id, 0);
        assert_eq!(reqs[1].id, 1);
    }
}
