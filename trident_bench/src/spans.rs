//! Span bookkeeping for the traced run: drains the obs event ring while
//! the workload runs, folds each event into per-name call counts, total
//! and self time, and keeps the head of the trace for the Perfetto file.

use std::collections::BTreeMap;
use trident::obs::{self, Event};

/// Per-name totals over every drained span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Events kept for the Perfetto file (the first ones recorded).
const KEEP_EVENTS: usize = 20_000;

#[derive(Debug, Default)]
pub struct SpanBook {
    pub totals: BTreeMap<String, SpanTotals>,
    pub dropped: u64,
    pub kept: Vec<Event>,
}

impl SpanBook {
    /// Drain the global ring into the book once it is half full. Call
    /// only between items, when no span is open, so every drained batch
    /// holds whole span trees and self time is exact.
    pub fn drain_if_half_full(&mut self) {
        let ring = obs::global().ring();
        if ring.len() * 2 >= ring.capacity() {
            self.drain();
        }
    }

    pub fn drain(&mut self) {
        let ring = obs::global().ring();
        let (events, dropped) = ring.snapshot();
        ring.reset();
        self.absorb(events, dropped);
    }

    pub fn absorb(&mut self, events: Vec<Event>, dropped: u64) {
        self.dropped += dropped;
        for (event, self_ns) in events.iter().zip(self_times(&events)) {
            let t = self.totals.entry(event.name.to_string()).or_default();
            t.calls += 1;
            t.total_ns += event.dur_ns;
            t.self_ns += self_ns;
        }
        let room = KEEP_EVENTS.saturating_sub(self.kept.len());
        self.kept.extend(events.into_iter().take(room));
    }

    pub fn get(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }
}

/// Self time of each event: its duration minus the durations of its
/// direct children (same thread, one level deeper, inside its interval).
/// Events arrive in completion order; a stack walk over them in start
/// order finds each child's parent.
pub fn self_times(events: &[Event]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].tid, events[i].start_ns, events[i].depth));
    let mut self_ns: Vec<u64> = events.iter().map(|e| e.dur_ns).collect();
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let e = &events[i];
        while let Some(&top) = open.last() {
            let t = &events[top];
            let ends = t.start_ns + t.dur_ns;
            if t.tid != e.tid || t.depth >= e.depth || ends < e.start_ns {
                open.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = open.last() {
            if events[parent].depth + 1 == e.depth {
                self_ns[parent] = self_ns[parent].saturating_sub(e.dur_ns);
            }
        }
        open.push(i);
    }
    self_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(name: &'static str, start_ns: u64, dur_ns: u64, depth: u32) -> Event {
        Event {
            name: Cow::Borrowed(name),
            start_ns,
            dur_ns,
            tid: 0,
            depth,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // outer [0, 100) holds a [10, 40) which holds b [15, 25); then
        // c [50, 80). Completion order: b, a, c, outer.
        let events = vec![
            ev("b", 15, 10, 2),
            ev("a", 10, 30, 1),
            ev("c", 50, 30, 1),
            ev("outer", 0, 100, 0),
        ];
        assert_eq!(self_times(&events), vec![10, 20, 30, 40]);
    }

    #[test]
    fn sibling_trees_do_not_share_parents() {
        let events = vec![ev("x", 0, 10, 0), ev("y", 10, 10, 0), ev("z", 12, 3, 1)];
        assert_eq!(self_times(&events), vec![10, 7, 3]);
    }

    #[test]
    fn book_accumulates_calls_and_keeps_the_head() {
        let mut book = SpanBook::default();
        book.absorb(vec![ev("k", 0, 5, 0), ev("k", 5, 7, 0)], 0);
        book.absorb(vec![ev("k", 20, 1, 0)], 2);
        assert_eq!(
            book.get("k"),
            SpanTotals {
                calls: 3,
                total_ns: 13,
                self_ns: 13
            }
        );
        assert_eq!(book.dropped, 2);
        assert_eq!(book.kept.len(), 3);
        assert_eq!(book.get("absent"), SpanTotals::default());
    }
}
