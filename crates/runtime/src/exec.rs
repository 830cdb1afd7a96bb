//! A real multi-threaded executor for placed workflows.
//!
//! Where [`crate::simrun`] charges virtual time, this executor runs on the
//! machine you have: one concurrency domain per device (a counting
//! semaphore with the device's core count), real OS threads per task, and
//! wall-clock emulation of compute and transfer durations scaled by
//! [`RealExecutor::time_scale`]. Threads sleep *until* deadlines taken from
//! the schedule the run realizes (a producer hands its successors its
//! scheduled finish, a core its scheduled release), never *for* a duration
//! from the instant they woke: a loaded host wakes a thread late, and with
//! relative sleeps that lag added up along every chain. It exists for two
//! reasons:
//!
//! 1. **Validation (experiment T3):** the same placed DAG is run through
//!    the analytic estimator and through this executor; their makespans
//!    must agree to within scheduling jitter, demonstrating that the
//!    estimator's schedules are realizable by a real concurrent runtime.
//! 2. **A Parsl-style local runtime:** [`RealExecutor::execute_custom`]
//!    runs arbitrary user closures per task with the same dependency and
//!    capacity semantics, which is what the examples use.

use continuum_placement::{Env, Placement};
use continuum_workflow::{Dag, TaskId};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counting semaphore whose permits remember when they were freed on the
/// schedule: acquire `k` permits atomically (block otherwise) and learn the
/// scheduled instant from which all `k` are free.
struct Semaphore {
    /// Scheduled release instant of every free permit.
    free: Mutex<Vec<Instant>>,
    cv: Condvar,
}

impl Semaphore {
    fn new(permits: u32, since: Instant) -> Self {
        Semaphore {
            free: Mutex::new(vec![since; permits as usize]),
            cv: Condvar::new(),
        }
    }

    /// Take the `k` earliest-freed permits; returns the latest of their
    /// release instants.
    fn acquire(&self, k: u32) -> Instant {
        let k = k as usize;
        let mut free = self.free.lock();
        while free.len() < k {
            self.cv.wait(&mut free);
        }
        free.sort_unstable_by(|a, b| b.cmp(a));
        let at = free.len() - k;
        let since = free[at];
        free.truncate(at);
        since
    }

    /// Return `k` permits, freed on the schedule at `at`.
    fn release(&self, k: u32, at: Instant) {
        let mut free = self.free.lock();
        free.extend(std::iter::repeat_n(at, k as usize));
        self.cv.notify_all();
    }
}

/// Sleep until `deadline` (no-op if it has passed).
fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// One-shot broadcast cell carrying the instant a task's output is ready:
/// its scheduled finish when compute is emulated, its observed finish when
/// a user closure runs.
struct FinishCell {
    slot: Mutex<Option<Instant>>,
    cv: Condvar,
}

impl FinishCell {
    fn new() -> Self {
        FinishCell {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn set(&self, t: Instant) {
        let mut s = self.slot.lock();
        *s = Some(t);
        self.cv.notify_all();
    }

    fn wait(&self) -> Instant {
        let mut s = self.slot.lock();
        while s.is_none() {
            self.cv.wait(&mut s);
        }
        s.expect("just checked")
    }
}

/// Wall-clock trace of a real execution: when each task's thread began and
/// ended its work, as observed.
#[derive(Debug, Clone)]
pub struct RealTrace {
    /// Start offset of each task from run begin.
    pub start: Vec<Duration>,
    /// Finish offset of each task from run begin.
    pub finish: Vec<Duration>,
    /// Wall-clock makespan.
    pub makespan: Duration,
    /// Makespan converted back to virtual seconds (divided by the scale).
    pub virtual_makespan_s: f64,
}

impl RealTrace {
    /// Dependency check: every task started after its predecessors
    /// finished (up to the given slack for scheduler jitter).
    pub fn respects_dependencies(&self, dag: &Dag, slack: Duration) -> bool {
        dag.tasks().iter().all(|t| {
            dag.preds(t.id)
                .iter()
                .all(|p| self.finish[p.0 as usize] <= self.start[t.id.0 as usize] + slack)
        })
    }
}

/// The real executor.
#[derive(Debug, Clone)]
pub struct RealExecutor {
    /// Wall seconds per virtual second. Keep small (e.g. `1e-3`) so tests
    /// finish quickly; keep large enough that OS jitter stays negligible.
    pub time_scale: f64,
}

impl Default for RealExecutor {
    fn default() -> Self {
        RealExecutor { time_scale: 1e-3 }
    }
}

impl RealExecutor {
    /// Execute `dag` under `placement`, emulating each task's compute time
    /// (from the device spec) and each transfer's analytic time, both
    /// scaled by `time_scale`.
    pub fn execute(&self, env: &Env, dag: &Dag, placement: &Placement) -> RealTrace {
        self.run(env, dag, placement, None::<&(dyn Fn(TaskId) + Sync)>)
    }

    /// Execute with a user closure per task instead of emulated compute
    /// time. Transfers are still emulated; capacity and dependencies are
    /// enforced identically.
    pub fn execute_custom(
        &self,
        env: &Env,
        dag: &Dag,
        placement: &Placement,
        work: &(dyn Fn(TaskId) + Sync),
    ) -> RealTrace {
        self.run(env, dag, placement, Some(work))
    }

    fn run(
        &self,
        env: &Env,
        dag: &Dag,
        placement: &Placement,
        work: Option<&(dyn Fn(TaskId) + Sync)>,
    ) -> RealTrace {
        assert_eq!(placement.assignment.len(), dag.len());
        let scale = self.time_scale;
        assert!(scale > 0.0);

        let t0 = Instant::now();
        let semaphores: Vec<Arc<Semaphore>> = env
            .fleet
            .devices()
            .iter()
            .map(|d| Arc::new(Semaphore::new(d.spec.cores, t0)))
            .collect();
        let cells: Vec<Arc<FinishCell>> = (0..dag.len())
            .map(|_| Arc::new(FinishCell::new()))
            .collect();
        // Observed (start, finish) offsets per task.
        let spans: Vec<Arc<Mutex<(Duration, Duration)>>> = (0..dag.len())
            .map(|_| Arc::new(Mutex::new((Duration::ZERO, Duration::ZERO))))
            .collect();

        std::thread::scope(|scope| {
            for task in dag.tasks() {
                let t = task.id;
                let dev = placement.device(t);
                let spec = env.fleet.device(dev).spec.clone();
                let my_node = env.node_of(dev);
                let sem = Arc::clone(&semaphores[dev.0 as usize]);
                let my_cell = Arc::clone(&cells[t.0 as usize]);
                let my_span = Arc::clone(&spans[t.0 as usize]);
                let pred_cells: Vec<(Arc<FinishCell>, Duration)> = task
                    .inputs
                    .iter()
                    .filter_map(|&d| {
                        let item = dag.data(d);
                        let (src, cell) = match dag.producer(d) {
                            Some(p) => (
                                env.node_of(placement.device(p)),
                                Some(Arc::clone(&cells[p.0 as usize])),
                            ),
                            None => (item.home.expect("external item has home"), None),
                        };
                        let path = env.path(src, my_node).expect("disconnected topology");
                        let xfer = Duration::from_secs_f64(
                            path.transfer_time(item.bytes).as_secs_f64() * scale,
                        );
                        cell.map(|c| (c, xfer))
                    })
                    .collect();
                // Transfers of external inputs start at t0.
                let ext_delay: Duration = task
                    .inputs
                    .iter()
                    .filter(|&&d| dag.producer(d).is_none())
                    .map(|&d| {
                        let item = dag.data(d);
                        let src = item.home.expect("external item has home");
                        let path = env.path(src, my_node).expect("disconnected topology");
                        Duration::from_secs_f64(
                            path.transfer_time(item.bytes).as_secs_f64() * scale,
                        )
                    })
                    .max()
                    .unwrap_or(Duration::ZERO);
                let exec_dur = Duration::from_secs_f64(
                    spec.compute_time_parallel(task.work_flops, task.parallelism)
                        .as_secs_f64()
                        * scale,
                );
                let need = task.occupancy(spec.cores);

                scope.spawn(move || {
                    // Wait for every input's scheduled arrival.
                    let mut ready = t0 + ext_delay;
                    for (cell, xfer) in &pred_cells {
                        ready = ready.max(cell.wait() + *xfer);
                    }
                    sleep_until(ready);
                    let begin = sem.acquire(need).max(ready);
                    let started = Instant::now();
                    let done = match work {
                        Some(f) => {
                            f(t);
                            Instant::now()
                        }
                        None => {
                            sleep_until(begin + exec_dur);
                            begin + exec_dur
                        }
                    };
                    *my_span.lock() = (started - t0, Instant::now() - t0);
                    sem.release(need, done);
                    my_cell.set(done);
                });
            }
        });

        let (start, finish): (Vec<Duration>, Vec<Duration>) =
            spans.iter().map(|s| *s.lock()).unzip();
        let makespan = finish.iter().copied().max().unwrap_or(Duration::ZERO);
        RealTrace {
            start,
            finish,
            makespan,
            virtual_makespan_s: makespan.as_secs_f64() / scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_model::{DeviceClass, Fleet};
    use continuum_net::{Tier, Topology};
    use continuum_placement::{evaluate, HeftPlacer, Placer};
    use continuum_sim::SimDuration;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn two_node_env() -> Env {
        let mut topo = Topology::new();
        let e = topo.add_node("edge", Tier::Edge);
        let c = topo.add_node("cloud", Tier::Cloud);
        topo.add_link(e, c, SimDuration::from_millis(10), 1e8);
        let mut fleet = Fleet::new();
        fleet.add_class(e, DeviceClass::EdgeGateway);
        fleet.add_class(c, DeviceClass::CloudVm);
        Env::new(topo, fleet)
    }

    fn chain_dag(env: &Env, n: usize) -> Dag {
        let mut g = Dag::new("chain");
        let src = env.fleet.devices()[0].node;
        let mut prev = g.add_input("in", 1 << 20, src);
        for i in 0..n {
            let out = g.add_item(format!("d{i}"), 1 << 18);
            g.add_task(format!("t{i}"), 5e9, vec![prev], vec![out]);
            prev = out;
        }
        g
    }

    #[test]
    fn real_matches_estimate_on_chain() {
        let env = two_node_env();
        let dag = chain_dag(&env, 4);
        let placement = HeftPlacer::default().place(&env, &dag);
        let (_, est) = evaluate(&env, &dag, &placement);
        // 0.2 wall-seconds per virtual second: ~110 ms of emulated run,
        // large enough that per-hop scheduler jitter (~1 ms) stays small.
        let exec = RealExecutor { time_scale: 0.2 };
        let real = exec.execute(&env, &dag, &placement);
        let rel = (real.virtual_makespan_s - est.makespan_s).abs() / est.makespan_s;
        assert!(
            rel < 0.25,
            "real {} vs estimate {} (rel {rel})",
            real.virtual_makespan_s,
            est.makespan_s
        );
        assert!(real.respects_dependencies(&dag, Duration::from_millis(2)));
    }

    #[test]
    fn semaphore_enforces_capacity() {
        let env = two_node_env();
        // 8 independent tasks pinned to the 4-core edge device.
        let mut g = Dag::new("fanout");
        let src = env.fleet.devices()[0].node;
        let input = g.add_input("in", 1, src);
        for i in 0..8 {
            let o = g.add_item(format!("o{i}"), 1);
            g.add_task(format!("t{i}"), 1.2e10, vec![input], vec![o]);
        }
        let placement = Placement {
            assignment: vec![continuum_model::DeviceId(0); 8],
        };
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let exec = RealExecutor { time_scale: 5e-3 };
        exec.execute_custom(&env, &g, &placement, &|_| {
            let cur = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(cur, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(15));
            running.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 4,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
        assert!(peak.load(Ordering::SeqCst) >= 2, "no concurrency at all");
    }

    #[test]
    fn custom_work_runs_every_task_once() {
        let env = two_node_env();
        let dag = chain_dag(&env, 6);
        let placement = HeftPlacer::default().place(&env, &dag);
        let count = AtomicUsize::new(0);
        let exec = RealExecutor { time_scale: 1e-4 };
        exec.execute_custom(&env, &dag, &placement, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), dag.len());
    }
}
