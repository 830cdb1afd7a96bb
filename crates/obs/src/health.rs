//! The health half of the observatory: rolling-window SLO burn-rate
//! accounting and a bounded flight recorder.
//!
//! SRE-style burn rates answer "are we eating the error budget faster
//! than we can afford" without storing per-request state: a
//! [`BurnWindow`] is a fixed ring of sim-time slots, each holding one of
//! the existing log₂ [`Histogram`]s plus an over-objective count, so a
//! multi-window (5 m / 1 h) burn signal costs O(slots) memory however
//! long the run. The [`HealthPlane`] couples two windows to a
//! [`FlightRecorder`] — a ring buffer of sampled frames (burn rates,
//! sliding-window p99, caller-supplied gauges) that is snapshotted on the
//! first anomaly (burn over threshold, saturation, takeover) and dumped
//! as a JSON timeline at run end. Everything is keyed to *simulated*
//! time and fed deterministically from the executors' own completion
//! streams, so the plane inherits the telemetry plane's invariant: runs
//! that do not ask for health are bit-identical to runs that never
//! heard of it.
//!
//! Out-of-order tolerance: sharded executors settle completions in
//! shard order, not time order. Slot addressing is by absolute epoch
//! (`at / slot_ns`) with newest-epoch-wins collision handling, so the
//! final window state is a pure function of the *set* of observations —
//! never of their arrival order — which keeps sharded runs bit-identical
//! across shard counts.

use crate::metrics::{Histogram, MetricsRegistry};
use serde::{Serialize, Value};
use std::collections::VecDeque;

/// Ring slots per burn window. 30 slots over a 5-minute window is a
/// 10-second bucketing — coarse enough to stay O(1), fine enough that a
/// burst shows up within one slot.
const SLOTS: usize = 30;

/// Bound on recorded anomalies; later ones only bump a counter.
const MAX_ANOMALIES: usize = 64;

/// Static configuration for a run's health plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSpec {
    /// Latency objective in simulated nanoseconds; a completion slower
    /// than this burns error budget.
    pub objective_ns: u64,
    /// Error budget as a fraction of requests allowed over objective
    /// (e.g. 0.01 = 1%). Burn rate 1.0 means "spending exactly the
    /// budget"; 14.4 is the classic fast-burn page threshold.
    pub budget: f64,
    /// Short burn window in simulated nanoseconds (default 5 minutes).
    pub short_window_ns: u64,
    /// Long burn window in simulated nanoseconds (default 1 hour).
    pub long_window_ns: u64,
    /// Short-window burn rate that trips a `slo-burn` anomaly.
    pub burn_threshold: f64,
    /// Flight-recorder sampling cadence in simulated nanoseconds.
    pub sample_every_ns: u64,
    /// Flight-recorder ring capacity in frames.
    pub recorder_capacity: usize,
}

impl Default for HealthSpec {
    fn default() -> Self {
        HealthSpec {
            objective_ns: 400_000_000, // 400 ms
            budget: 0.01,
            short_window_ns: 5 * 60 * 1_000_000_000,
            long_window_ns: 60 * 60 * 1_000_000_000,
            burn_threshold: 14.4,
            sample_every_ns: 10_000_000_000, // 10 s
            recorder_capacity: 256,
        }
    }
}

impl HealthSpec {
    /// The default spec with a different latency objective.
    pub fn for_objective_ns(objective_ns: u64) -> Self {
        HealthSpec {
            objective_ns,
            ..HealthSpec::default()
        }
    }
}

/// One ring slot: the observations of a single absolute epoch.
#[derive(Debug, Clone)]
struct Slot {
    /// Absolute epoch (`at / slot_ns`) this slot currently holds, or
    /// `None` when never written.
    epoch: Option<u64>,
    hist: Histogram,
    bad: u64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            epoch: None,
            hist: Histogram::default(),
            bad: 0,
        }
    }
}

/// A rolling window of [`SLOTS`] sim-time epochs over log₂ histograms.
///
/// `observe` routes by absolute epoch with newest-epoch-wins collision
/// handling (see module docs), so window state is independent of
/// observation order.
#[derive(Debug, Clone)]
pub struct BurnWindow {
    slot_ns: u64,
    slots: Vec<Slot>,
}

/// Aggregates of the in-window slots at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Completions inside the window.
    pub total: u64,
    /// Completions over objective inside the window.
    pub bad: u64,
    /// Windowed p99 latency in nanoseconds (0 when the window is empty).
    pub p99_ns: u64,
}

impl BurnWindow {
    /// A window spanning `window_ns` of simulated time.
    pub fn new(window_ns: u64) -> Self {
        BurnWindow {
            slot_ns: (window_ns / SLOTS as u64).max(1),
            slots: vec![Slot::empty(); SLOTS],
        }
    }

    /// Record one completion observed at sim time `at_ns` with latency
    /// `latency_ns`, against `objective_ns`.
    pub fn observe(&mut self, at_ns: u64, latency_ns: u64, objective_ns: u64) {
        let epoch = at_ns / self.slot_ns;
        let slot = &mut self.slots[(epoch % SLOTS as u64) as usize];
        match slot.epoch {
            Some(e) if e == epoch => {}
            Some(e) if e > epoch => return, // older than the resident epoch: expired
            _ => {
                slot.epoch = Some(epoch);
                slot.hist = Histogram::default();
                slot.bad = 0;
            }
        }
        slot.hist.observe(latency_ns);
        if latency_ns > objective_ns {
            slot.bad += 1;
        }
    }

    /// Window aggregates as of sim time `now_ns`.
    pub fn stats(&self, now_ns: u64) -> WindowStats {
        let cur = now_ns / self.slot_ns;
        let oldest = cur.saturating_sub(SLOTS as u64 - 1);
        let mut total = 0u64;
        let mut bad = 0u64;
        let mut merged = Histogram::default();
        for slot in &self.slots {
            match slot.epoch {
                Some(e) if e >= oldest && e <= cur => {
                    total += slot.hist.count;
                    bad += slot.bad;
                    merged.merge(&slot.hist);
                }
                _ => {}
            }
        }
        WindowStats {
            total,
            bad,
            p99_ns: merged.quantile_ns(0.99),
        }
    }

    /// Burn rate as of `now_ns`: (bad fraction in the window) / budget.
    /// 0.0 for an empty window.
    pub fn burn(&self, now_ns: u64, budget: f64) -> f64 {
        let s = self.stats(now_ns);
        if s.total == 0 || budget <= 0.0 {
            0.0
        } else {
            (s.bad as f64 / s.total as f64) / budget
        }
    }
}

/// One recorded anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Sim time of the anomaly in nanoseconds.
    pub at_ns: u64,
    /// Anomaly kind (`slo-burn`, `saturation`, `takeover`, ...).
    pub kind: String,
}

/// One flight-recorder frame: the health signals at one sample tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sim time of the sample in nanoseconds.
    pub at_ns: u64,
    /// Short-window burn rate.
    pub burn_short: f64,
    /// Long-window burn rate.
    pub burn_long: f64,
    /// Short-window p99 latency in nanoseconds.
    pub p99_short_ns: u64,
    /// Caller-supplied gauges (queue depths, live counts, hit rates).
    pub gauges: Vec<(String, f64)>,
}

/// Bounded ring of [`Frame`]s — O(capacity) memory however long the run.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    frames: VecDeque<Frame>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            frames: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Append a frame, evicting the oldest at capacity.
    pub fn push(&mut self, frame: Frame) {
        if self.frames.len() == self.capacity {
            self.frames.pop_front();
            self.dropped += 1;
        }
        self.frames.push_back(frame);
    }

    /// Current ring contents, oldest first.
    pub fn frames(&self) -> Vec<Frame> {
        self.frames.iter().cloned().collect()
    }

    /// Frames evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The flight-recorder snapshot taken at the first anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Sim time of the triggering anomaly.
    pub at_ns: u64,
    /// Kind of the triggering anomaly.
    pub kind: String,
    /// The recorder ring as it stood when the anomaly fired.
    pub frames: Vec<Frame>,
}

/// End-of-run health summary: the value attached to run reports and
/// dumped by `--flight-recorder`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The objective the burn windows measured against.
    pub objective_ns: u64,
    /// Completions observed.
    pub observed: u64,
    /// Completions over objective.
    pub violations: u64,
    /// Short-window burn rate at run end.
    pub burn_short: f64,
    /// Long-window burn rate at run end.
    pub burn_long: f64,
    /// Peak short-window burn rate over all samples.
    pub burn_short_peak: f64,
    /// Peak long-window burn rate over all samples.
    pub burn_long_peak: f64,
    /// Recorded anomalies, oldest first (bounded).
    pub anomalies: Vec<Anomaly>,
    /// Anomalies past the bound, counted only.
    pub anomalies_dropped: u64,
    /// The flight-recorder ring at run end, oldest first.
    pub frames: Vec<Frame>,
    /// Frames evicted from the ring before run end.
    pub frames_dropped: u64,
    /// Ring snapshot captured at the first anomaly, if any fired.
    pub incident: Option<Incident>,
}

impl HealthReport {
    /// Publish the headline burn-rate signals into `reg` under the
    /// `slo.burn.*` keys the CI smoke greps for.
    pub fn publish(&self, reg: &MetricsRegistry) {
        reg.set_gauge("slo.burn.short", self.burn_short);
        reg.set_gauge("slo.burn.long", self.burn_long);
        reg.set_gauge("slo.burn.short_peak", self.burn_short_peak);
        reg.set_gauge("slo.burn.long_peak", self.burn_long_peak);
        reg.record("slo.burn.violations", self.violations);
        reg.record("slo.burn.anomalies", self.anomalies.len() as u64);
    }
}

fn frames_value(frames: &[Frame]) -> Value {
    Value::Array(frames.iter().map(Serialize::to_value).collect())
}

impl Serialize for Frame {
    fn to_value(&self) -> Value {
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::F64(*v)))
            .collect();
        Value::Object(vec![
            ("at_ns".to_string(), Value::U64(self.at_ns)),
            ("burn_short".to_string(), Value::F64(self.burn_short)),
            ("burn_long".to_string(), Value::F64(self.burn_long)),
            ("p99_short_ns".to_string(), Value::U64(self.p99_short_ns)),
            ("gauges".to_string(), Value::Object(gauges)),
        ])
    }
}

impl Serialize for Anomaly {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("at_ns".to_string(), Value::U64(self.at_ns)),
            ("kind".to_string(), Value::Str(self.kind.clone())),
        ])
    }
}

impl Serialize for Incident {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("at_ns".to_string(), Value::U64(self.at_ns)),
            ("kind".to_string(), Value::Str(self.kind.clone())),
            ("frames".to_string(), frames_value(&self.frames)),
        ])
    }
}

impl Serialize for HealthReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("objective_ns".to_string(), Value::U64(self.objective_ns)),
            ("observed".to_string(), Value::U64(self.observed)),
            ("violations".to_string(), Value::U64(self.violations)),
            ("burn_short".to_string(), Value::F64(self.burn_short)),
            ("burn_long".to_string(), Value::F64(self.burn_long)),
            (
                "burn_short_peak".to_string(),
                Value::F64(self.burn_short_peak),
            ),
            (
                "burn_long_peak".to_string(),
                Value::F64(self.burn_long_peak),
            ),
            (
                "anomalies".to_string(),
                Value::Array(self.anomalies.iter().map(Serialize::to_value).collect()),
            ),
            (
                "anomalies_dropped".to_string(),
                Value::U64(self.anomalies_dropped),
            ),
            ("frames".to_string(), frames_value(&self.frames)),
            (
                "frames_dropped".to_string(),
                Value::U64(self.frames_dropped),
            ),
            (
                "incident".to_string(),
                match &self.incident {
                    Some(i) => i.to_value(),
                    None => Value::Null,
                },
            ),
        ])
    }
}

/// A live health plane: two burn windows, sample scheduling, anomaly
/// edge detection, and the flight recorder, driven by an executor's own
/// completion stream.
#[derive(Debug, Clone)]
pub struct HealthPlane {
    spec: HealthSpec,
    short: BurnWindow,
    long: BurnWindow,
    observed: u64,
    violations: u64,
    burn_short_peak: f64,
    burn_long_peak: f64,
    next_sample_ns: u64,
    burn_alarm: bool,
    recorder: FlightRecorder,
    anomalies: Vec<Anomaly>,
    anomalies_dropped: u64,
    incident: Option<Incident>,
}

impl HealthPlane {
    /// A fresh plane for `spec`.
    pub fn new(spec: &HealthSpec) -> Self {
        HealthPlane {
            spec: *spec,
            short: BurnWindow::new(spec.short_window_ns),
            long: BurnWindow::new(spec.long_window_ns),
            observed: 0,
            violations: 0,
            burn_short_peak: 0.0,
            burn_long_peak: 0.0,
            next_sample_ns: 0,
            burn_alarm: false,
            recorder: FlightRecorder::new(spec.recorder_capacity),
            anomalies: Vec::new(),
            anomalies_dropped: 0,
            incident: None,
        }
    }

    /// The spec this plane runs under.
    pub fn spec(&self) -> &HealthSpec {
        &self.spec
    }

    /// Feed one completion: observed at sim time `at_ns`, end-to-end
    /// latency `latency_ns`.
    pub fn observe(&mut self, at_ns: u64, latency_ns: u64) {
        self.observed += 1;
        if latency_ns > self.spec.objective_ns {
            self.violations += 1;
        }
        self.short
            .observe(at_ns, latency_ns, self.spec.objective_ns);
        self.long.observe(at_ns, latency_ns, self.spec.objective_ns);
    }

    /// True when the next sample tick is due at sim time `at_ns`.
    /// Callers poll this from their own loop; sampling stays on the
    /// executor's deterministic clock, never a wall clock.
    pub fn due(&self, at_ns: u64) -> bool {
        at_ns >= self.next_sample_ns
    }

    /// Take one flight-recorder sample at sim time `at_ns`, attaching
    /// the caller's `gauges`. Also runs burn-threshold edge detection.
    pub fn sample(&mut self, at_ns: u64, gauges: Vec<(String, f64)>) {
        let burn_short = self.short.burn(at_ns, self.spec.budget);
        let burn_long = self.long.burn(at_ns, self.spec.budget);
        self.burn_short_peak = self.burn_short_peak.max(burn_short);
        self.burn_long_peak = self.burn_long_peak.max(burn_long);
        let p99_short_ns = self.short.stats(at_ns).p99_ns;
        self.recorder.push(Frame {
            at_ns,
            burn_short,
            burn_long,
            p99_short_ns,
            gauges,
        });
        // Aligned to absolute ticks so the schedule is a function of
        // sim time alone (bit-identical across shard counts).
        self.next_sample_ns = (at_ns / self.spec.sample_every_ns + 1) * self.spec.sample_every_ns;
        if burn_short > self.spec.burn_threshold {
            if !self.burn_alarm {
                self.burn_alarm = true;
                self.anomaly(at_ns, "slo-burn");
            }
        } else {
            self.burn_alarm = false;
        }
    }

    /// Record an anomaly (`saturation`, `takeover`, ...). The first one
    /// snapshots the flight-recorder ring as the incident record.
    pub fn anomaly(&mut self, at_ns: u64, kind: &str) {
        if self.incident.is_none() {
            self.incident = Some(Incident {
                at_ns,
                kind: kind.to_string(),
                frames: self.recorder.frames(),
            });
        }
        if self.anomalies.len() < MAX_ANOMALIES {
            self.anomalies.push(Anomaly {
                at_ns,
                kind: kind.to_string(),
            });
        } else {
            self.anomalies_dropped += 1;
        }
    }

    /// Finish the run at sim time `end_ns`, consuming the plane into
    /// its report.
    pub fn finish(mut self, end_ns: u64) -> HealthReport {
        let burn_short = self.short.burn(end_ns, self.spec.budget);
        let burn_long = self.long.burn(end_ns, self.spec.budget);
        self.burn_short_peak = self.burn_short_peak.max(burn_short);
        self.burn_long_peak = self.burn_long_peak.max(burn_long);
        HealthReport {
            objective_ns: self.spec.objective_ns,
            observed: self.observed,
            violations: self.violations,
            burn_short,
            burn_long,
            burn_short_peak: self.burn_short_peak,
            burn_long_peak: self.burn_long_peak,
            anomalies: self.anomalies,
            anomalies_dropped: self.anomalies_dropped,
            frames: self.recorder.frames(),
            frames_dropped: self.recorder.dropped(),
            incident: self.incident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    fn spec() -> HealthSpec {
        HealthSpec {
            objective_ns: 100_000_000, // 100 ms
            budget: 0.1,
            short_window_ns: 30 * S, // 1 s slots
            long_window_ns: 300 * S,
            burn_threshold: 5.0,
            sample_every_ns: S,
            recorder_capacity: 4,
        }
    }

    #[test]
    fn burn_window_counts_bad_fraction() {
        let mut w = BurnWindow::new(30 * S);
        for i in 0..10 {
            // 2 of 10 over a 100 ms objective.
            let lat = if i < 2 { 200_000_000 } else { 50_000_000 };
            w.observe(i * S / 10, lat, 100_000_000);
        }
        let s = w.stats(S);
        assert_eq!((s.total, s.bad), (10, 2));
        // bad fraction 0.2 over budget 0.1 → burn 2.0.
        assert!((w.burn(S, 0.1) - 2.0).abs() < 1e-12);
        assert!(s.p99_ns >= 100_000_000);
    }

    #[test]
    fn burn_window_expires_old_epochs() {
        let mut w = BurnWindow::new(30 * S); // slot = 1 s
        w.observe(0, 200_000_000, 100_000_000);
        // 40 s later the epoch-0 slot is out of window.
        let s = w.stats(40 * S);
        assert_eq!(s.total, 0);
        assert_eq!(w.burn(40 * S, 0.1), 0.0);
    }

    #[test]
    fn burn_window_state_is_order_independent() {
        let obs: Vec<(u64, u64)> = vec![
            (5 * S, 50_000_000),
            (90 * S, 200_000_000), // evicts the epoch-5 slot's era... eventually
            (5 * S + 100, 70_000_000),
            (91 * S, 40_000_000),
            (35 * S, 300_000_000),
        ];
        let mut fwd = BurnWindow::new(30 * S);
        let mut rev = BurnWindow::new(30 * S);
        for &(at, lat) in &obs {
            fwd.observe(at, lat, 100_000_000);
        }
        for &(at, lat) in obs.iter().rev() {
            rev.observe(at, lat, 100_000_000);
        }
        for now in [(91) * S, 100 * S, 200 * S] {
            assert_eq!(fwd.stats(now), rev.stats(now));
        }
    }

    #[test]
    fn plane_samples_detect_burn_and_record_incident() {
        let mut p = HealthPlane::new(&spec());
        assert!(p.due(0));
        // All completions bad: bad fraction 1.0 / budget 0.1 = burn 10.
        for i in 0..20u64 {
            p.observe(i * S / 4, 500_000_000);
            if p.due(i * S / 4) {
                p.sample(i * S / 4, vec![("live".to_string(), i as f64)]);
            }
        }
        let rep = p.finish(6 * S);
        assert_eq!(rep.observed, 20);
        assert_eq!(rep.violations, 20);
        assert!(rep.burn_short_peak > 5.0);
        assert!(rep.anomalies.iter().any(|a| a.kind == "slo-burn"));
        let inc = rep.incident.expect("burn anomaly snapshots the ring");
        assert_eq!(inc.kind, "slo-burn");
        // Ring bounded at capacity 4 regardless of sample count.
        assert!(rep.frames.len() <= 4);
        assert!(rep.frames_dropped > 0);
    }

    #[test]
    fn anomalies_are_bounded() {
        let mut p = HealthPlane::new(&spec());
        for i in 0..(MAX_ANOMALIES as u64 + 10) {
            p.anomaly(i, "takeover");
        }
        let rep = p.finish(S);
        assert_eq!(rep.anomalies.len(), MAX_ANOMALIES);
        assert_eq!(rep.anomalies_dropped, 10);
        assert_eq!(rep.incident.unwrap().at_ns, 0);
    }

    #[test]
    fn report_publishes_burn_keys_and_serializes() {
        let mut p = HealthPlane::new(&spec());
        p.observe(0, 500_000_000);
        p.sample(0, vec![]);
        let rep = p.finish(S);
        let reg = MetricsRegistry::new();
        rep.publish(&reg);
        let snap = reg.snapshot();
        assert!(snap.gauge("slo.burn.short").is_some());
        assert!(snap.gauge("slo.burn.long_peak").is_some());
        assert_eq!(snap.counter("slo.burn.violations"), 1);
        let text = serde_json::to_string(&rep.to_value()).unwrap();
        serde_json::parse(&text).expect("flight-recorder dump is valid JSON");
        assert!(text.contains("burn_short"));
    }
}
