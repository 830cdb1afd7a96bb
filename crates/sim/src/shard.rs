//! Conservative parallel shard driver.
//!
//! Splits a simulation into shards, each owning its own event calendar
//! and state, and advances them in bounded time windows: every shard may
//! safely process all events strictly before `next + lookahead[s]`, where
//! `next` is the earliest pending event (or undelivered message) across
//! the whole simulation and `lookahead[s]` is the minimum latency of any
//! interaction entering shard `s` (`None` when nothing can enter it, in
//! which case the shard runs unbounded). Messages a shard emits while
//! processing a window are therefore always stamped at or after the
//! receiving shard's horizon, so exchanging them at the barrier between
//! windows can never deliver an event into a shard's past — the classic
//! conservative (CMB-style) synchronization argument, with the barrier
//! playing the role of the null messages.
//!
//! Determinism: within a window each shard runs single-threaded over its
//! own calendar, and the inter-window exchange sorts envelopes by
//! `(time, sender, sender-sequence)` before delivery. Neither depends on
//! thread scheduling, so a run is bit-identical for every rayon pool
//! size: the thread count is purely a wall-clock knob, and a 1-thread
//! pool runs every window serially.

use crate::time::{SimDuration, SimTime};
use rayon::prelude::*;

/// A cross-shard message: payload `msg` must be applied to shard `to` at
/// virtual time `at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Virtual time the message takes effect at the receiver.
    pub at: SimTime,
    /// Sending shard index.
    pub from: u32,
    /// Sender-local monotone sequence, the final delivery tie-break:
    /// envelopes are handed to the receiver sorted by `(at, from, seq)`.
    pub seq: u64,
    /// Receiving shard index.
    pub to: u32,
    /// The payload.
    pub msg: M,
}

/// One shard of a partitioned simulation.
pub trait ShardModel: Send {
    /// Cross-shard message payload. Use `()` for shards that never
    /// interact (fully independent partitions).
    type Msg: Send;

    /// Time of this shard's earliest pending event, or `None` if its
    /// calendar is empty.
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Deliver `inbox` (sorted by `(at, from, seq)`; every envelope
    /// satisfies `at < horizon`), then process all local events strictly
    /// before `horizon` (all events when `None`). Returns the envelopes
    /// this window produced for other shards; each must be stamped no
    /// earlier than the emitting event plus the partition's lookahead.
    fn advance(
        &mut self,
        horizon: Option<SimTime>,
        inbox: Vec<Envelope<Self::Msg>>,
    ) -> Vec<Envelope<Self::Msg>>;
}

/// Counters from a conservative run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Barrier windows executed.
    pub windows: u64,
    /// Cross-shard envelopes delivered.
    pub messages: u64,
    /// Envelopes delivered *to* each shard, for load-imbalance telemetry.
    pub per_shard_messages: Vec<u64>,
}

/// Window horizon of a shard with incoming lookahead `la`: `next + la`,
/// clipped to `cap`; a shard nothing can enter (`None`) runs to `cap`.
fn horizon(la: Option<SimDuration>, next: SimTime, cap: Option<SimTime>) -> Option<SimTime> {
    min_opt(la.map(|d| next + d), cap)
}

/// A resumable conservative shard executor.
///
/// [`ConservativeDriver::run`] drives it to completion; the open-loop
/// sharded driver in `continuum-runtime` instead alternates
/// [`ConservativeDriver::advance_until`] with request injection, pumping
/// windows only as far as the next arrival. Within a window the shards
/// advance across the current rayon pool.
pub struct ConservativeDriver<S: ShardModel> {
    shards: Vec<S>,
    pending: Vec<Envelope<S::Msg>>,
    lookahead: Vec<Option<SimDuration>>,
    stats: WindowStats,
}

impl<S: ShardModel> ConservativeDriver<S> {
    /// Wrap `shards` for conservative execution. `lookahead[s]` is shard
    /// `s`'s incoming latency (see `RegionPartition::incoming_lookahead`
    /// in `continuum-net`): shard `s` runs to `next + lookahead[s]`. That
    /// is safe because an envelope emitted at `t >= next` toward `s`
    /// crosses a boundary link into `s` and is stamped at least that
    /// link's latency later. `None` means no envelope can ever reach `s`,
    /// so it runs to its cap (or to completion) in each window; an
    /// envelope addressed to such a shard panics.
    ///
    /// # Panics
    /// If `lookahead` does not have one entry per shard.
    pub fn new(shards: Vec<S>, lookahead: Vec<Option<SimDuration>>) -> Self {
        assert_eq!(lookahead.len(), shards.len(), "one lookahead per shard");
        let stats = WindowStats {
            per_shard_messages: vec![0; shards.len()],
            ..WindowStats::default()
        };
        ConservativeDriver {
            shards,
            pending: Vec::new(),
            lookahead,
            stats,
        }
    }

    /// The shards, for injection and inspection between windows.
    pub fn shards_mut(&mut self) -> &mut [S] {
        &mut self.shards
    }

    /// Earliest pending event or undelivered envelope across the whole
    /// simulation; `None` when fully drained.
    pub fn next_time(&mut self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        for s in &mut self.shards {
            next = min_opt(next, s.next_event_time());
        }
        for e in &self.pending {
            next = min_opt(next, Some(e.at));
        }
        next
    }

    /// Process one barrier window, bounded by `cap` (exclusive) when
    /// given. Returns `false` — without advancing anything — once no
    /// event remains before the cap.
    pub fn step_window(&mut self, cap: Option<SimTime>) -> bool {
        let Some(next) = self.next_time() else {
            return false;
        };
        if cap.is_some_and(|c| next >= c) {
            return false;
        }
        // Deliver every envelope inside its receiver's window, sorted by
        // (at, from, seq) so receivers see a deterministic order. (The
        // partitioned executor additionally orders by content-derived
        // event keys on its own calendar, making even this order
        // immaterial to outcomes; the sort keeps plain ShardModels
        // deterministic on their own.)
        let mut inboxes: Vec<Vec<Envelope<S::Msg>>> = Vec::new();
        inboxes.resize_with(self.shards.len(), Vec::new);
        let mut keep: Vec<Envelope<S::Msg>> = Vec::new();
        let mut deliver: Vec<Envelope<S::Msg>> = Vec::new();
        for e in std::mem::take(&mut self.pending) {
            let h = horizon(self.lookahead[e.to as usize], next, cap);
            if h.is_none_or(|h| e.at < h) {
                deliver.push(e);
            } else {
                keep.push(e);
            }
        }
        self.pending = keep;
        deliver.sort_by_key(|e| (e.at, e.from, e.seq));
        self.stats.messages += deliver.len() as u64;
        for e in deliver {
            let to = e.to as usize;
            self.stats.per_shard_messages[to] += 1;
            inboxes[to].push(e);
        }
        // Advance every shard to its horizon across the pool. The shards
        // stay in place (each worker borrows one), and the outboxes come
        // back in input order.
        let lookahead = &self.lookahead;
        let outboxes: Vec<Vec<Envelope<S::Msg>>> = self
            .shards
            .iter_mut()
            .zip(inboxes)
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(i, (s, inbox))| s.advance(horizon(lookahead[i], next, cap), inbox))
            .collect();
        for out in outboxes {
            for e in &out {
                let la = self.lookahead.get(e.to as usize);
                assert!(la.is_some(), "envelope addressed to unknown shard");
                assert!(
                    la.is_some_and(Option::is_some),
                    "shards that receive envelopes need a lookahead"
                );
            }
            self.pending.extend(out);
        }
        self.stats.windows += 1;
        true
    }

    /// Pump windows until every event strictly before `cap` is processed.
    pub fn advance_until(&mut self, cap: SimTime) {
        while self.step_window(Some(cap)) {}
    }

    /// Pump windows until the whole simulation drains.
    pub fn run(&mut self) {
        while self.step_window(None) {}
    }

    /// Counters so far.
    pub fn stats(&self) -> &WindowStats {
        &self.stats
    }

    /// Tear down into the shards and final counters.
    pub fn into_parts(self) -> (Vec<S>, WindowStats) {
        assert!(self.pending.is_empty(), "undelivered envelopes at teardown");
        (self.shards, self.stats)
    }
}

fn min_opt(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventQueue;

    /// Toy shard: pops timestamped hop counters and volleys them to a
    /// peer after `delay`.
    struct Pinger {
        id: u32,
        peer: u32,
        queue: EventQueue<u64>,
        delay: SimDuration,
        max_hops: u64,
        seq: u64,
        log: Vec<(SimTime, u64)>,
    }

    impl Pinger {
        fn new(id: u32, peer: u32, delay: SimDuration, max_hops: u64) -> Self {
            Pinger {
                id,
                peer,
                queue: EventQueue::new(),
                delay,
                max_hops,
                seq: 0,
                log: Vec::new(),
            }
        }
    }

    impl ShardModel for Pinger {
        type Msg = u64;

        fn next_event_time(&mut self) -> Option<SimTime> {
            self.queue.peek_time()
        }

        fn advance(
            &mut self,
            horizon: Option<SimTime>,
            inbox: Vec<Envelope<u64>>,
        ) -> Vec<Envelope<u64>> {
            for e in inbox {
                self.queue.schedule_at(e.at, e.msg);
            }
            let mut out = Vec::new();
            while let Some(t) = self.queue.peek_time() {
                if horizon.is_some_and(|h| t >= h) {
                    break;
                }
                let (now, hops) = self.queue.pop().expect("peeked");
                self.log.push((now, hops));
                if hops < self.max_hops {
                    out.push(Envelope {
                        at: now + self.delay,
                        from: self.id,
                        seq: self.seq,
                        to: self.peer,
                        msg: hops + 1,
                    });
                    self.seq += 1;
                }
            }
            out
        }
    }

    /// Drive `shards` to completion under `lookahead`.
    fn run<S: ShardModel>(
        shards: Vec<S>,
        lookahead: Vec<Option<SimDuration>>,
    ) -> (Vec<S>, WindowStats) {
        let mut driver = ConservativeDriver::new(shards, lookahead);
        driver.run();
        driver.into_parts()
    }

    /// Volley a hop counter between two shards on a `threads`-wide pool.
    fn ping_pong(threads: usize) -> (Vec<Pinger>, WindowStats) {
        let delay = SimDuration::from_millis(10);
        let mut a = Pinger::new(0, 1, delay, 8);
        let b = Pinger::new(1, 0, delay, 8);
        a.queue.schedule_at(SimTime::ZERO, 0);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("rayon pool");
        pool.install(|| run(vec![a, b], vec![Some(delay); 2]))
    }

    #[test]
    fn ping_pong_crosses_shards_in_windows() {
        let (shards, stats) = ping_pong(1);
        // 9 hops total (0..=8), alternating shards at 10 ms intervals.
        let total: usize = shards.iter().map(|s| s.log.len()).sum();
        assert_eq!(total, 9);
        for s in &shards {
            for &(t, hops) in &s.log {
                assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(10 * hops));
                assert_eq!(hops % 2, u64::from(s.id));
            }
        }
        assert!(stats.windows >= 9, "each hop needs its own window");
        assert_eq!(stats.messages, 8);
    }

    #[test]
    fn run_is_bit_identical_across_pool_sizes() {
        let (serial, s_stats) = ping_pong(1);
        let (par, p_stats) = ping_pong(2);
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.log, b.log);
        }
        assert_eq!(s_stats, p_stats);
    }

    #[test]
    fn no_lookahead_runs_independent_shards_in_one_window() {
        let delay = SimDuration::from_millis(1);
        // max_hops 0: each shard pops its seed event and stays silent.
        let mut a = Pinger::new(0, 1, delay, 0);
        let mut b = Pinger::new(1, 0, delay, 0);
        a.queue.schedule_at(SimTime::from_secs(1), 0);
        b.queue.schedule_at(SimTime::from_secs(2), 0);
        let (shards, stats) = run(vec![a, b], vec![None; 2]);
        assert_eq!(stats.windows, 1);
        assert_eq!(stats.messages, 0);
        assert_eq!(shards[0].log, vec![(SimTime::from_secs(1), 0)]);
        assert_eq!(shards[1].log, vec![(SimTime::from_secs(2), 0)]);
    }

    #[test]
    #[should_panic(expected = "need a lookahead")]
    fn messaging_without_lookahead_is_rejected() {
        // Shard 0 may be entered (it has a lookahead); shard 1 claims
        // nothing can enter it, so shard 0's first volley must panic.
        let delay = SimDuration::from_millis(1);
        let mut a = Pinger::new(0, 1, delay, 8);
        let b = Pinger::new(1, 0, delay, 8);
        a.queue.schedule_at(SimTime::ZERO, 0);
        run(vec![a, b], vec![Some(delay), None]);
    }

    #[test]
    fn same_time_messages_deliver_in_sender_order() {
        /// Collector shard that logs payloads in delivery order.
        struct Sink {
            log: Vec<u64>,
            queue: EventQueue<u64>,
        }
        impl ShardModel for Sink {
            type Msg = u64;
            fn next_event_time(&mut self) -> Option<SimTime> {
                self.queue.peek_time()
            }
            fn advance(
                &mut self,
                horizon: Option<SimTime>,
                inbox: Vec<Envelope<u64>>,
            ) -> Vec<Envelope<u64>> {
                for e in inbox {
                    self.queue.schedule_at(e.at, e.msg);
                }
                while let Some(t) = self.queue.peek_time() {
                    if horizon.is_some_and(|h| t >= h) {
                        break;
                    }
                    let (_, v) = self.queue.pop().expect("peeked");
                    self.log.push(v);
                }
                Vec::new()
            }
        }
        /// Emitter that fires one envelope to shard 0, then goes quiet.
        struct Emitter {
            id: u32,
            fired: bool,
            payload: u64,
        }
        impl ShardModel for Emitter {
            type Msg = u64;
            fn next_event_time(&mut self) -> Option<SimTime> {
                (!self.fired).then_some(SimTime::ZERO)
            }
            fn advance(
                &mut self,
                _horizon: Option<SimTime>,
                _inbox: Vec<Envelope<u64>>,
            ) -> Vec<Envelope<u64>> {
                if self.fired {
                    return Vec::new();
                }
                self.fired = true;
                vec![Envelope {
                    at: SimTime::from_secs(1),
                    from: self.id,
                    seq: 0,
                    to: 0,
                    msg: self.payload,
                }]
            }
        }
        // Heterogeneous shards via trait objects are overkill here; wrap
        // in an enum instead.
        enum Either {
            Sink(Sink),
            Emit(Emitter),
        }
        impl ShardModel for Either {
            type Msg = u64;
            fn next_event_time(&mut self) -> Option<SimTime> {
                match self {
                    Either::Sink(s) => s.next_event_time(),
                    Either::Emit(e) => e.next_event_time(),
                }
            }
            fn advance(
                &mut self,
                horizon: Option<SimTime>,
                inbox: Vec<Envelope<u64>>,
            ) -> Vec<Envelope<u64>> {
                match self {
                    Either::Sink(s) => s.advance(horizon, inbox),
                    Either::Emit(e) => e.advance(horizon, inbox),
                }
            }
        }
        // Emitters 2 and 1 both deliver at t=1s; sorted delivery hands
        // shard 1's payload over first even though shard 2 precedes it in
        // no ordering except its index.
        let shards = vec![
            Either::Sink(Sink {
                log: Vec::new(),
                queue: EventQueue::new(),
            }),
            Either::Emit(Emitter {
                id: 1,
                fired: false,
                payload: 111,
            }),
            Either::Emit(Emitter {
                id: 2,
                fired: false,
                payload: 222,
            }),
        ];
        let la = vec![Some(SimDuration::from_millis(100)); 3];
        let (shards, stats) = run(shards, la);
        let Either::Sink(sink) = &shards[0] else {
            panic!("shard 0 is the sink");
        };
        assert_eq!(sink.log, vec![111, 222]);
        assert_eq!(stats.messages, 2);
    }
}
