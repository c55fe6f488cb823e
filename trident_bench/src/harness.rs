//! The run protocol every workload shares: repeated timed set-up, a
//! closed-loop timed phase, a fixed-length reference window that yields
//! the simulated metrics, correctness checks, and (traced runs) the
//! per-layer attribution. Host times are scaled to the reference host
//! speed of [`crate::speed`].

use crate::registry::{self, HOST_SPANS, LEDGER_ITEMS, PROGRAM_SPANS};
use crate::spans::SpanBook;
use crate::speed::Probe;
use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::time::Instant;
use trident::obs::{self, Counter, CounterSnapshot};
use trident::photonics::ledger::EnergyLedger;

/// How much work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Wall time of the measured phase (split in two when traced).
    pub seconds: f64,
    /// Shrinks datasets and scenarios for the unit tests.
    pub smoke: bool,
}

/// Attempts and failures: the timed items plus every correctness check.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ledger {
    /// Record one check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failure of something already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }
}

/// FNV-1a over the bit patterns of every output in the reference window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// What a step hands its outputs to.
#[derive(Debug, Default)]
pub struct StepCx {
    pub ledger: Ledger,
    pub digest: Digest,
    /// True while inside the reference window; outputs after it do not
    /// enter the digest, so the digest does not depend on run length.
    recording: bool,
}

impl StepCx {
    /// Check that every value of one output is finite, and digest it.
    pub fn output(&mut self, what: &str, values: &[f64]) {
        if !values.iter().all(|v| v.is_finite()) {
            self.ledger.fail(format!("{what}: non-finite output"));
        }
        if self.recording {
            self.digest.floats(values);
        }
    }

    /// Digest bytes (serve reports) without a finiteness check.
    pub fn output_bytes(&mut self, bytes: &[u8]) {
        if self.recording {
            self.digest.bytes(bytes);
        }
    }

    /// Record a failed call.
    pub fn error(&mut self, what: &str, err: impl std::fmt::Display) {
        self.ledger.fail(format!("{what}: {err}"));
    }
}

/// The simulated metrics, read from the reference window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sim {
    pub us_per_item: f64,
    pub uj_per_item: f64,
    pub accuracy: f64,
    /// Ledger line item → simulated pJ per item.
    pub energy_pj_per_item: BTreeMap<String, f64>,
    /// Other deterministic per-layer values (serve SLO metrics).
    pub layers: BTreeMap<String, f64>,
}

impl Sim {
    /// Fill the energy breakdown from a ledger delta over `items`, plus
    /// energy no ledger itemises. Unknown line items go to `unitemized`.
    pub fn set_energy(
        &mut self,
        before: &EnergyLedger,
        after: &EnergyLedger,
        other_pj: f64,
        items: f64,
    ) {
        let mut unitemized = other_pj;
        for (item, pj) in after.iter() {
            let delta = pj.value() - before.get(item).value();
            if LEDGER_ITEMS.contains(&item) {
                *self.energy_pj_per_item.entry(item.to_string()).or_default() += delta / items;
            } else {
                unitemized += delta;
            }
        }
        *self
            .energy_pj_per_item
            .entry("unitemized".to_string())
            .or_default() += unitemized / items;
    }
}

/// One benchmark workload. `setup` is timed and repeated; `step` is one
/// closed-loop call group whose wall time is one latency sample.
pub trait Workload: Sized {
    /// Steps per host-statistics window (a whole number of the workload's
    /// repeating unit, so every window does the same work).
    const WINDOW_STEPS: u64;
    /// Steps in the reference window the simulated metrics come from.
    fn reference_steps(size: &Size) -> u64;
    fn setup(seed: u64, size: &Size) -> Result<Self, String>;
    /// Run one call group; returns the items it completed.
    fn step(&mut self, cx: &mut StepCx) -> u64;
    /// Called once, untimed, right after the reference window.
    fn reference(&mut self, cx: &mut StepCx) -> Sim;
    /// Untimed extra calls a traced run times on their own.
    fn probe(&mut self) {}
    /// Correctness checks after the measured phase.
    fn check(&mut self, ledger: &mut Ledger);
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// The host-time end-to-end metrics as measured, before scaling to
    /// the reference speed.
    pub unscaled: BTreeMap<&'static str, f64>,
    /// Median speed probe of the run, µs.
    pub probe_us: f64,
    pub per_layer: BTreeMap<String, f64>,
    pub sim: Sim,
    pub digest: Digest,
    pub ledger: Ledger,
    pub trace_events: Vec<obs::Event>,
    pub spans_dropped: u64,
    pub final_counters: CounterSnapshot,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.ledger.failed == 0
    }
}

/// A fixed number of consecutive steps: the unit the host statistics
/// are taken over.
#[derive(Debug, Default)]
struct Window {
    steps: u64,
    items: u64,
    busy_s: f64,
    samples_us: Vec<f64>,
    /// Scales this window's times to the reference host speed.
    factor: f64,
}

/// Host statistics of a measured phase.
#[derive(Debug, Clone, Copy)]
struct HostStats {
    items_per_s: f64,
    p50_us: f64,
    p90_us: f64,
}

/// The measured phase, window by window.
#[derive(Debug, Default)]
struct Phase {
    windows: Vec<Window>,
}

impl Phase {
    fn items(&self) -> u64 {
        self.windows.iter().map(|w| w.items).sum()
    }

    /// Statistics over the faster half of the windows, each window's
    /// times scaled by its factor when `scaled`. Every window does the
    /// same work, and bursts of other tenants that the speed probe misses
    /// only ever slow a window down, so the faster half measures the
    /// program and the slower half mostly its neighbours.
    ///
    /// The percentiles are taken in each window and averaged over the
    /// windows. Pooled over the run, the median of a step that takes 250
    /// or 400 µs as the host flips between quiet and busy spells jumps
    /// between the two with the share of quiet windows; the average of
    /// window medians moves with that share smoothly.
    fn quiet(&self, scaled: bool) -> HostStats {
        let factor = |w: &Window| if scaled { w.factor } else { 1.0 };
        let full = self.windows.iter().map(|w| w.steps).max().unwrap_or(0);
        let mut windows: Vec<&Window> = self.windows.iter().filter(|w| w.steps == full).collect();
        windows.sort_by(|a, b| (a.busy_s * factor(a)).total_cmp(&(b.busy_s * factor(b))));
        windows.truncate(windows.len().div_ceil(2));
        let items: u64 = windows.iter().map(|w| w.items).sum();
        let busy_s: f64 = windows.iter().map(|w| w.busy_s * factor(w)).sum();
        let mean_percentile = |p: f64| {
            windows
                .iter()
                .map(|w| percentile(&w.samples_us, p) * factor(w))
                .sum::<f64>()
                / windows.len() as f64
        };
        HostStats {
            items_per_s: items as f64 / busy_s,
            p50_us: mean_percentile(50.0),
            p90_us: mean_percentile(90.0),
        }
    }
}

/// Closed loop: steps back to back until `seconds` of step time have
/// passed and the reference window is complete. The speed probe runs
/// between steps, outside their timing.
fn run_phase<W: Workload>(
    w: &mut W,
    cx: &mut StepCx,
    seconds: f64,
    reference: &mut Option<Sim>,
    ref_steps: u64,
    probe: &mut Probe,
    mut book: Option<&mut SpanBook>,
) -> Phase {
    let mut phase = Phase::default();
    let mut current = Window::default();
    let (mut steps, mut busy_s) = (0u64, 0.0);
    while busy_s < seconds || reference.is_none() || phase.windows.is_empty() {
        if reference.is_none() && steps == ref_steps {
            cx.recording = false;
            *reference = Some(w.reference(cx));
            continue;
        }
        let start = Instant::now();
        let items = w.step(cx);
        let dt = start.elapsed().as_secs_f64();
        steps += 1;
        busy_s += dt;
        current.steps += 1;
        current.items += items;
        current.busy_s += dt;
        current.samples_us.push(dt * 1e6 / items.max(1) as f64);
        cx.ledger.attempted += items;
        probe.tick();
        if current.steps == W::WINDOW_STEPS {
            current.factor = probe.take();
            phase.windows.push(std::mem::take(&mut current));
        }
        if let Some(book) = book.as_deref_mut() {
            book.drain_if_half_full();
        }
    }
    if current.steps > 0 {
        current.factor = probe.take();
        phase.windows.push(current);
    }
    phase
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The paper-claims gate every run must pass (11 analytical claims).
fn check_gate(ledger: &mut Ledger) {
    let claims = trident::experiments::gate::run();
    let held = claims.iter().filter(|c| c.holds).count();
    ledger.check(held == 11 && claims.len() == 11, || {
        format!(
            "trident_sim gate: {held} of {} claims hold, expected 11 of 11",
            claims.len()
        )
    });
}

/// Speed probes just before and just after each set-up repetition.
const SETUP_PROBES: usize = 3;

/// Run one workload end to end. Untraced runs report the end-to-end
/// metrics; traced runs report the per-layer ones.
pub fn run<W: Workload>(seed: u64, size: &Size, traced: bool) -> Result<Report, String> {
    obs::set_enabled_override(Some(traced));
    obs::reset();
    let mut probe = Probe::new();
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut state = None;
    for _ in 0..size.setup_reps.max(1) {
        drop(state.take());
        // A set-up is one long call: scale it by the probes around it.
        for _ in 0..SETUP_PROBES {
            probe.measure();
        }
        let start = Instant::now();
        state = Some(W::setup(seed, size)?);
        let raw = start.elapsed().as_secs_f64();
        for _ in 0..SETUP_PROBES {
            probe.measure();
        }
        setup_raw_s.push(raw);
        setup_s.push(raw * probe.take());
    }
    let mut w = state.ok_or("set-up produced no state")?;
    let mut cx = StepCx {
        recording: true,
        ..StepCx::default()
    };
    let mut reference = None;
    let ref_steps = W::reference_steps(size);
    let mut report = Report::default();

    if !traced {
        let phase = run_phase(
            &mut w,
            &mut cx,
            size.seconds,
            &mut reference,
            ref_steps,
            &mut probe,
            None,
        );
        w.check(&mut cx.ledger);
        check_gate(&mut cx.ledger);
        let sim = reference.unwrap_or_default();
        let raw = phase.quiet(false);
        report.unscaled = BTreeMap::from([
            ("setup_s", median(&setup_raw_s)),
            ("items_per_s", raw.items_per_s),
            ("item_p50_us", raw.p50_us),
            ("item_p90_us", raw.p90_us),
        ]);
        let host = phase.quiet(true);
        let e2e = &mut report.end_to_end;
        e2e.insert("setup_s", median(&setup_s));
        e2e.insert("items_per_s", host.items_per_s);
        e2e.insert("item_p50_us", host.p50_us);
        e2e.insert("item_p90_us", host.p90_us);
        e2e.insert("peak_rss_mb", peak_rss_mb());
        e2e.insert("sim_items_per_s", 1e6 / sim.us_per_item);
        e2e.insert("sim_uj_per_item", sim.uj_per_item);
        e2e.insert("sim_accuracy", sim.accuracy);
        report.sim = sim;
    } else {
        let mut setup_book = SpanBook::default();
        setup_book.drain();
        let setup_counters = obs::snapshot().counters;
        let half = size.seconds / 2.0;

        obs::set_enabled_override(Some(false));
        let plain = run_phase(
            &mut w,
            &mut cx,
            half,
            &mut reference,
            ref_steps,
            &mut probe,
            None,
        );

        obs::set_enabled_override(Some(true));
        let before = obs::snapshot().counters;
        let pool_before = rayon::pool::stats();
        let mut book = SpanBook::default();
        let traced_phase = run_phase(
            &mut w,
            &mut cx,
            half,
            &mut reference,
            ref_steps,
            &mut probe,
            Some(&mut book),
        );
        let pool = rayon::pool::stats().since(&pool_before);
        let after = obs::snapshot().counters;
        w.probe();
        book.drain();
        obs::set_enabled_override(Some(false));

        w.check(&mut cx.ledger);
        check_gate(&mut cx.ledger);
        let sim = reference.unwrap_or_default();
        report.per_layer = per_layer_metrics(&LayerInputs {
            setup_book: &setup_book,
            book: &book,
            setup: &setup_counters,
            before: &before,
            after: &after,
            parallel_regions: pool.parallel_regions,
            threads_spawned: pool.threads_spawned,
            items: traced_phase.items().max(1) as f64,
            overhead_ratio: traced_phase.quiet(true).items_per_s / plain.quiet(true).items_per_s,
            sim: &sim,
        });
        report.final_counters = after;
        report.spans_dropped = setup_book.dropped + book.dropped;
        report.trace_events = setup_book.kept;
        report.trace_events.extend(book.kept);
        report.sim = sim;
    }
    report.probe_us = probe.median_us();
    report.digest = cx.digest;
    report.ledger = cx.ledger;
    Ok(report)
}

struct LayerInputs<'a> {
    /// Spans of the set-up phase.
    setup_book: &'a SpanBook,
    /// Spans of the traced phase and the probes.
    book: &'a SpanBook,
    setup: &'a CounterSnapshot,
    before: &'a CounterSnapshot,
    after: &'a CounterSnapshot,
    parallel_regions: u64,
    threads_spawned: u64,
    items: f64,
    overhead_ratio: f64,
    sim: &'a Sim,
}

fn per_layer_metrics(x: &LayerInputs) -> BTreeMap<String, f64> {
    let delta = |c: Counter| x.after.get(c).wrapping_sub(x.before.get(c)) as f64;
    let per_item = |c: Counter| delta(c) / x.items;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m = BTreeMap::new();
    for span in HOST_SPANS {
        // The decode span is opened per position bucket; its total is
        // the sum over every bucket.
        let (calls, ns) = [x.setup_book, x.book]
            .iter()
            .flat_map(|book| book.totals.iter())
            .filter(|(name, _)| match *span {
                "arch.transformer.decode_token" => {
                    name.starts_with("arch.transformer.decode_token.pos_")
                }
                _ => name.as_str() == *span,
            })
            .fold((0u64, 0u64), |(c, ns), (_, t)| {
                (c + t.calls, ns + t.total_ns)
            });
        m.insert(
            registry::host_span_metric(span),
            ratio(ns as f64 / 1e3, calls as f64),
        );
    }
    for span in PROGRAM_SPANS {
        m.insert(
            registry::program_span_metric(span),
            x.book.get(span).self_ns as f64 / 1e3 / x.items,
        );
    }
    let served = delta(Counter::ServeRequests);
    let offered = served + delta(Counter::ServeShedRequests);
    let counters = [
        ("photonics.mac_ops.per_item", per_item(Counter::MacOps)),
        (
            "photonics.detector_readouts.per_item",
            per_item(Counter::DetectorReadouts),
        ),
        (
            "photonics.tia_amplifications.per_item",
            per_item(Counter::TiaAmplifications),
        ),
        ("pcm.reads.per_item", per_item(Counter::PcmReads)),
        ("pcm.writes.per_item", per_item(Counter::PcmWrites)),
        ("pcm.write_pj.per_item", per_item(Counter::PcmWriteFj) / 1e3),
        (
            "pcm.stat_noise_samples.per_item",
            per_item(Counter::StatNoiseSamples),
        ),
        (
            "arch.transformer.kv_writes.per_item",
            per_item(Counter::KvCacheWrites),
        ),
        (
            "arch.transformer.kv_reads.per_item",
            per_item(Counter::KvCacheReads),
        ),
        (
            "pcm.ldsu.softmax_rows.per_item",
            per_item(Counter::LdsuSoftmaxRows),
        ),
        (
            "pcm.ldsu.layer_norm_rows.per_item",
            per_item(Counter::LdsuLayerNormRows),
        ),
        // Every serve scenario closes batches at 8 requests.
        (
            "serve.batch_fill",
            ratio(served, delta(Counter::ServeBatches) * 8.0),
        ),
        (
            "serve.shed_ratio",
            ratio(delta(Counter::ServeShedRequests), offered),
        ),
        (
            "serve.slo_miss_ratio",
            ratio(delta(Counter::ServeSloMisses), served),
        ),
        (
            "arch.hot_path_allocs.per_item",
            per_item(Counter::HotPathAllocs),
        ),
        (
            "rayon.parallel_regions.per_item",
            x.parallel_regions as f64 / x.items,
        ),
        (
            "rayon.threads_spawned.per_item",
            x.threads_spawned as f64 / x.items,
        ),
        (
            "sim.forward_layer_ns.per_item",
            per_item(Counter::ForwardLayerSimNs),
        ),
        (
            "sim.backward_layer_ns.per_item",
            per_item(Counter::BackwardLayerSimNs),
        ),
        ("setup.pcm.writes", x.setup.get(Counter::PcmWrites) as f64),
        (
            "setup.pcm.write_pj",
            x.setup.get(Counter::PcmWriteFj) as f64 / 1e3,
        ),
        ("obs.trace_overhead_ratio", x.overhead_ratio),
        (
            "obs.spans_dropped",
            (x.setup_book.dropped + x.book.dropped) as f64,
        ),
    ];
    m.extend(counters.into_iter().map(|(k, v)| (k.to_string(), v)));
    for item in LEDGER_ITEMS {
        let v = x.sim.energy_pj_per_item.get(*item).copied().unwrap_or(0.0);
        m.insert(registry::ledger_metric(item), v);
    }
    // Serve SLO metrics come from the reference window; other workloads
    // serve nothing and report zero.
    for (name, _, _) in registry::per_layer() {
        let v = x.sim.layers.get(&name).copied().unwrap_or(0.0);
        m.entry(name).or_insert(v);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two steps of one item each, a quarter and three quarters long.
    fn window(busy_s: f64, factor: f64) -> Window {
        Window {
            steps: 2,
            items: 2,
            busy_s,
            samples_us: vec![busy_s * 0.25 * 1e6, busy_s * 0.75 * 1e6],
            factor,
        }
    }

    #[test]
    fn quiet_scales_windows_before_taking_the_faster_half() {
        // The 1.5 s window ran while the host was twice as slow as the
        // reference: scaled, it is the fastest.
        let phase = Phase {
            windows: vec![window(1.0, 1.0), window(1.5, 0.5), window(4.0, 1.0)],
        };
        let raw = phase.quiet(false);
        assert_eq!(raw.items_per_s, 4.0 / 2.5);
        assert_eq!((raw.p50_us, raw.p90_us), (312_500.0, 937_500.0));
        let scaled = phase.quiet(true);
        assert_eq!(scaled.items_per_s, 4.0 / 1.75);
        assert_eq!((scaled.p50_us, scaled.p90_us), (218_750.0, 656_250.0));
    }
}
