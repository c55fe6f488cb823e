//! The dynamic batcher: size-or-timeout batch close with deadline-aware
//! admission control.
//!
//! ## State machine
//!
//! The batcher holds one open batch (the *pending* queue) and a
//! monotone *generation* counter:
//!
//! * **admit** — the caller first runs the admission test
//!   ([`Batcher::should_shed`]): a request whose *estimated* completion
//!   time already exceeds its deadline is shed immediately (counted,
//!   never queued) — serving it would waste fleet time on a guaranteed
//!   SLO miss and push every queued request later. Admitted requests
//!   join the pending queue.
//! * **close on size** — the queue reaching `batch_max` closes the
//!   batch immediately ([`Batcher::close`] bumps the generation).
//! * **close on timeout** — when the queue goes empty→non-empty the
//!   caller arms a linger timer carrying the current generation. A
//!   timer whose generation is stale (the batch it was armed for
//!   already closed on size) is a no-op; a live timer closes whatever
//!   is pending. Generation tagging means timers never need cancelling
//!   — the event loop just drops stale ones.
//!
//! The batcher is pure bookkeeping over virtual time: no clocks, no
//! threads, no engine knowledge. Completion estimation lives with the
//! fleet (it owns the service-time model); the event loop wires the two
//! together.

use crate::Request;

/// Batch-close policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Close the batch as soon as this many requests are pending.
    pub batch_max: usize,
    /// Close a non-empty batch this long after its first request, ns.
    pub linger_ns: u64,
}

/// Outcome of offering one admitted request to the batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Queue was empty; arm a linger timer for (deadline `at_ns`,
    /// generation `generation`).
    ArmTimer {
        /// Virtual time the timer should fire.
        at_ns: u64,
        /// Generation the timer belongs to.
        generation: u64,
    },
    /// Queue already open and still below the size trigger.
    Queued,
    /// Queue hit `batch_max`; the caller must close and dispatch now.
    Full,
}

/// The dynamic batcher state.
#[derive(Debug)]
pub struct Batcher<'a> {
    policy: BatchPolicy,
    pending: Vec<Request<'a>>,
    /// Storage handed back by [`Batcher::recycle`], reused as the next
    /// open batch so the close/dispatch cycle stops allocating once the
    /// capacity has grown to the steady batch size.
    spare: Option<Vec<Request<'a>>>,
    generation: u64,
}

impl<'a> Batcher<'a> {
    /// An empty batcher with the given policy (`batch_max` is clamped to
    /// at least 1).
    pub fn new(policy: BatchPolicy) -> Self {
        let policy =
            BatchPolicy { batch_max: policy.batch_max.max(1), linger_ns: policy.linger_ns };
        Self { policy, pending: Vec::new(), spare: None, generation: 0 }
    }

    /// Admission test: shed when the estimated completion time is past
    /// the request's deadline. `est_done_ns` comes from the fleet's
    /// service-time model at the arrival instant.
    pub fn should_shed(req: &Request<'_>, est_done_ns: u64) -> bool {
        est_done_ns > req.deadline_ns
    }

    /// Number of requests in the open batch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Current batch generation (bumped on every close).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Queue an admitted request at virtual time `now_ns`.
    pub fn enqueue(&mut self, req: Request<'a>, now_ns: u64) -> Enqueue {
        let was_empty = self.pending.is_empty();
        self.pending.push(req);
        if self.pending.len() >= self.policy.batch_max {
            Enqueue::Full
        } else if was_empty {
            Enqueue::ArmTimer {
                at_ns: now_ns.saturating_add(self.policy.linger_ns),
                generation: self.generation,
            }
        } else {
            Enqueue::Queued
        }
    }

    /// Whether a linger timer with this generation is still live: the
    /// batch it was armed for has not closed and still holds requests.
    pub fn timer_live(&self, generation: u64) -> bool {
        generation == self.generation && !self.pending.is_empty()
    }

    /// Close the open batch: take the pending requests and bump the
    /// generation (invalidating any armed timer). The next open batch
    /// reuses any storage returned via [`Batcher::recycle`].
    pub fn close(&mut self) -> Vec<Request<'a>> {
        self.generation += 1;
        let next = self.spare.take().unwrap_or_default();
        std::mem::replace(&mut self.pending, next)
    }

    /// Hand a dispatched batch's storage back so the next open batch can
    /// reuse it instead of growing a fresh `Vec`.
    pub fn recycle(&mut self, mut batch: Vec<Request<'a>>) {
        batch.clear();
        self.spare = Some(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival: u64, deadline: u64) -> Request<'static> {
        Request { id, arrival_ns: arrival, deadline_ns: deadline, input: &[0.0], label: 0 }
    }

    #[test]
    fn first_request_arms_a_timer_and_size_trigger_fills() {
        let mut b = Batcher::new(BatchPolicy { batch_max: 3, linger_ns: 100 });
        assert_eq!(
            b.enqueue(req(0, 10, 500), 10),
            Enqueue::ArmTimer { at_ns: 110, generation: 0 }
        );
        assert_eq!(b.enqueue(req(1, 20, 500), 20), Enqueue::Queued);
        assert_eq!(b.enqueue(req(2, 30, 500), 30), Enqueue::Full);
        let batch = b.close();
        assert_eq!(batch.len(), 3);
        assert_eq!(b.generation(), 1);
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn stale_timers_are_dead_and_live_timers_fire() {
        let mut b = Batcher::new(BatchPolicy { batch_max: 10, linger_ns: 100 });
        let Enqueue::ArmTimer { generation, .. } = b.enqueue(req(0, 0, 500), 0) else {
            panic!("first enqueue must arm a timer");
        };
        assert!(b.timer_live(generation));
        b.close();
        assert!(!b.timer_live(generation), "timer must die when its batch closes");
        // A fresh batch arms a fresh generation.
        let Enqueue::ArmTimer { generation: g2, .. } = b.enqueue(req(1, 200, 900), 200) else {
            panic!("empty->nonempty must arm a timer");
        };
        assert_ne!(generation, g2);
        assert!(b.timer_live(g2));
    }

    #[test]
    fn recycled_storage_backs_the_next_batch() {
        let mut b = Batcher::new(BatchPolicy { batch_max: 2, linger_ns: 100 });
        b.enqueue(req(0, 0, 500), 0);
        b.enqueue(req(1, 10, 500), 10);
        let batch = b.close();
        let cap = batch.capacity();
        assert!(cap >= 2);
        b.recycle(batch);
        b.enqueue(req(2, 20, 500), 20);
        b.enqueue(req(3, 30, 500), 30);
        let batch = b.close();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.capacity(), cap, "the recycled storage must be reused");
        assert_eq!(batch[0].id, 2);
    }

    #[test]
    fn admission_sheds_only_past_deadline_estimates() {
        let r = req(0, 0, 1000);
        assert!(!Batcher::should_shed(&r, 1000), "meeting the deadline exactly is admitted");
        assert!(Batcher::should_shed(&r, 1001));
    }
}
