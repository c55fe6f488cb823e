//! Energy and power bookkeeping.
//!
//! Every table in the paper's evaluation is a roll-up of named per-device
//! contributions (Table III most literally). [`EnergyLedger`] and
//! [`PowerLedger`] keep those contributions attributable, so the experiment
//! binaries can print breakdowns instead of opaque totals, and tests can
//! assert on individual lines.

use crate::units::{EnergyPj, PowerMw};
use std::fmt;

macro_rules! ledger {
    ($(#[$doc:meta])* $name:ident, $unit:ty) => {
        $(#[$doc])*
        ///
        /// A ledger holds a handful of line items and is charged several
        /// times per MVM, so they live in a `Vec` kept sorted by name
        /// (byte order) and found by a linear scan.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct $name {
            entries: Vec<(String, $unit)>,
        }

        impl $name {
            /// An empty ledger.
            pub fn new() -> Self {
                Self::default()
            }

            /// Add `amount` to the named line item.
            ///
            /// # Panics
            /// Panics on negative or non-finite amounts: device
            /// contributions are physical and only accumulate.
            pub fn charge(&mut self, item: &str, amount: $unit) {
                self.charge_times(item, amount, 1);
            }

            /// Add `amount` to the named line item `times` times, one add
            /// after another (bitwise `times` calls of
            /// [`Self::charge`], for one lookup). Zero times charges
            /// nothing and creates no item.
            ///
            /// # Panics
            /// As [`Self::charge`].
            pub fn charge_times(&mut self, item: &str, amount: $unit, times: usize) {
                if times == 0 {
                    return;
                }
                assert!(
                    amount.is_finite() && amount.value() >= 0.0,
                    "ledger charge for {item:?} must be finite and non-negative, got {amount}"
                );
                // Look up before allocating: the item exists on every
                // charge after its first.
                let at = match self.entries.iter().position(|(k, _)| k == item) {
                    Some(at) => at,
                    None => {
                        let at = self.entries.partition_point(|(k, _)| k.as_str() < item);
                        self.entries.insert(at, (item.to_string(), <$unit>::default()));
                        at
                    }
                };
                let total = &mut self.entries[at].1;
                for _ in 0..times {
                    *total += amount;
                }
            }

            /// Current value of a line item (zero when absent).
            pub fn get(&self, item: &str) -> $unit {
                self.iter().find(|&(k, _)| k == item).map(|(_, v)| v).unwrap_or_default()
            }

            /// Sum of all line items.
            pub fn total(&self) -> $unit {
                self.iter().map(|(_, v)| v).sum()
            }

            /// Fraction of the total attributed to `item`, in `[0, 1]`.
            /// Returns 0 for an empty ledger.
            pub fn share(&self, item: &str) -> f64 {
                let total = self.total().value();
                if total == 0.0 {
                    0.0
                } else {
                    self.get(item).value() / total
                }
            }

            /// Iterate line items in name order.
            pub fn iter(&self) -> impl Iterator<Item = (&str, $unit)> {
                self.entries.iter().map(|(k, v)| (k.as_str(), *v))
            }

            /// Line items sorted by contribution, largest first.
            pub fn ranked(&self) -> Vec<(&str, $unit)> {
                let mut v: Vec<_> = self.iter().collect();
                v.sort_by(|a, b| b.1.value().total_cmp(&a.1.value()));
                v
            }

            /// Merge another ledger into this one, line by line.
            pub fn absorb(&mut self, other: &Self) {
                for (item, amount) in other.iter() {
                    self.charge(item, amount);
                }
            }

            /// Scale every line item by a non-negative factor (used when
            /// replicating a per-PE ledger across a PE array).
            pub fn scaled(&self, factor: f64) -> Self {
                assert!(factor.is_finite() && factor >= 0.0, "scale factor must be >= 0");
                Self {
                    entries: self
                        .entries
                        .iter()
                        .map(|(k, v)| (k.clone(), *v * factor))
                        .collect(),
                }
            }

            /// Number of distinct line items.
            pub fn len(&self) -> usize {
                self.entries.len()
            }

            /// True when no line item has been charged.
            pub fn is_empty(&self) -> bool {
                self.entries.is_empty()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let total = self.total();
                for (item, amount) in self.ranked() {
                    writeln!(
                        f,
                        "  {:<32} {:>14.3}  ({:>5.2}%)",
                        item,
                        amount,
                        self.share(item) * 100.0
                    )?;
                }
                writeln!(f, "  {:<32} {:>14.3}", "TOTAL", total)
            }
        }
    };
}

ledger!(
    /// Attributable energy accumulator (picojoules).
    EnergyLedger,
    EnergyPj
);

ledger!(
    /// Attributable power accumulator (milliwatts).
    PowerLedger,
    PowerMw
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_item() {
        let mut l = EnergyLedger::new();
        l.charge("gst write", EnergyPj(660.0));
        l.charge("gst write", EnergyPj(660.0));
        l.charge("read", EnergyPj(20.0));
        assert_eq!(l.get("gst write"), EnergyPj(1320.0));
        assert_eq!(l.total(), EnergyPj(1340.0));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn shares_sum_to_one() {
        let mut l = PowerLedger::new();
        l.charge("a", PowerMw(1.0));
        l.charge("b", PowerMw(3.0));
        assert!((l.share("a") - 0.25).abs() < 1e-12);
        assert!((l.share("b") - 0.75).abs() < 1e-12);
        assert_eq!(l.share("missing"), 0.0);
    }

    #[test]
    fn ranked_orders_by_contribution() {
        let mut l = PowerLedger::new();
        l.charge("small", PowerMw(1.0));
        l.charge("large", PowerMw(10.0));
        l.charge("mid", PowerMw(5.0));
        let names: Vec<_> = l.ranked().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["large", "mid", "small"]);
    }

    #[test]
    fn absorb_and_scale() {
        let mut a = EnergyLedger::new();
        a.charge("x", EnergyPj(2.0));
        let mut b = EnergyLedger::new();
        b.charge("x", EnergyPj(1.0));
        b.charge("y", EnergyPj(4.0));
        a.absorb(&b);
        assert_eq!(a.get("x"), EnergyPj(3.0));
        assert_eq!(a.get("y"), EnergyPj(4.0));
        let doubled = a.scaled(2.0);
        assert_eq!(doubled.total(), EnergyPj(14.0));
        assert!(a.scaled(0.0).total() == EnergyPj::ZERO);
    }

    #[test]
    fn charge_times_is_repeated_charge() {
        let mut once = EnergyLedger::new();
        for _ in 0..7 {
            once.charge("psum accumulate", EnergyPj(0.1));
        }
        let mut many = EnergyLedger::new();
        many.charge_times("psum accumulate", EnergyPj(0.1), 7);
        many.charge_times("never", EnergyPj(1.0), 0);
        assert_eq!(many, once, "same bits, and zero times creates no item");
        assert_eq!(many.len(), 1);
    }

    #[test]
    fn items_iterate_in_byte_order_of_their_names() {
        let mut l = EnergyLedger::new();
        for item in ["mrr read", "gst write", "eo modulation", "Z", "mrr read"] {
            l.charge(item, EnergyPj(1.0));
        }
        let names: Vec<_> = l.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["Z", "eo modulation", "gst write", "mrr read"]);
        assert_eq!(l.get("mrr read"), EnergyPj(2.0));
    }

    #[test]
    #[should_panic]
    fn negative_charge_rejected() {
        EnergyLedger::new().charge("bad", EnergyPj(-1.0));
    }

    #[test]
    fn empty_ledger_behaves() {
        let l = EnergyLedger::new();
        assert!(l.is_empty());
        assert_eq!(l.total(), EnergyPj::ZERO);
        assert_eq!(l.share("anything"), 0.0);
    }

    #[test]
    fn display_contains_total() {
        let mut l = PowerLedger::new();
        l.charge("tuning", PowerMw(563.2));
        let text = format!("{l}");
        assert!(text.contains("TOTAL"));
        assert!(text.contains("tuning"));
    }
}
