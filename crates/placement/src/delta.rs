//! Delta-cost schedule evaluation for move-based search.
//!
//! [`crate::policies::AnnealingPlacer`] explores single-task reassignments.
//! The seed scored every move by cloning the placement and replaying the
//! *entire* DAG through a fresh [`Estimator`] — O(n) route lookups and slot
//! searches per move even when the move perturbs two devices. A
//! [`DeltaEvaluator`] keeps the committed schedule (per-device timelines,
//! start/finish arrays) alive across moves and re-schedules only the tasks a
//! move can actually affect.
//!
//! # Exactness
//!
//! The evaluator maintains the invariant that its state equals what
//! [`crate::objective::evaluate`] would produce for the current assignment
//! — not approximately, but bit-for-bit. `evaluate` commits tasks in
//! topological order, so a task's (start, finish) depends on exactly two
//! things: its predecessors' finish times (and nodes), and the reservations
//! of earlier-committed tasks on its own device. A move therefore dirties
//!
//! 1. the moved task itself,
//! 2. every task on the *old* and *new* device with a later topological
//!    position (their slot search saw a timeline that has now changed), and
//! 3. transitively, the successors of any task whose (start, finish)
//!    actually changed — plus their own device suffixes, per rule 2.
//!
//! Dirty tasks are unreserved up front, then recomputed in ascending
//! topological position: when task `u` is recomputed, every earlier task is
//! final and every later task on `u`'s device has been retracted, so the
//! slot search sees exactly the timeline the full replay would have shown
//! it. Clean tasks are untouched by construction. Scoring reuses one set of
//! meters across moves but runs the code a full evaluation
//! ([`crate::objective::metrics_from_parts`]) runs, so scores (and hence
//! annealing accept/reject decisions) are identical to the clone-and-replay
//! oracle. The proptests
//! in `tests/proptests.rs` check both equivalences on random move
//! sequences.
//!
//! Every move also journals the state it overwrites — the dirtied tasks'
//! schedule entries and a copy of each touched timeline, written into
//! buffers kept from earlier moves — so a rejected move is reverted by
//! [`DeltaEvaluator::undo_last_move`] with plain swaps instead of a second
//! propagation pass.

use crate::env::Env;
use crate::estimate::{DeviceTimeline, EstimatedSchedule, Estimator, Placement};
use crate::objective::{Metrics, MetricsScratch};
use continuum_model::DeviceId;
use continuum_sim::SimTime;
use continuum_workflow::{Dag, TaskId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ascending-topological-position work queue for the recompute loop. Each
/// task is pushed at most once per move (the dirty stamp guards inserts),
/// so a plain binary heap needs no deduplication.
type Agenda = BinaryHeap<Reverse<u32>>;

/// Incremental re-scheduler: apply single-task moves and re-score without
/// replaying the whole DAG.
pub struct DeltaEvaluator<'e> {
    env: &'e Env,
    dag: &'e Dag,
    timelines: Vec<DeviceTimeline>,
    assignment: Vec<DeviceId>,
    start: Vec<SimTime>,
    finish: Vec<SimTime>,
    /// Cores reserved per task (as committed; needed to unreserve).
    need: Vec<u32>,
    /// Topological order `evaluate` commits in.
    order: Vec<TaskId>,
    /// `pos[t]` is `t`'s index in `order`.
    pos: Vec<u32>,
    /// Tasks per device, sorted by topological position.
    on_dev: Vec<Vec<u32>>,
    /// Epoch-stamped dirty flags (one epoch per move; no per-move clears).
    dirty: Vec<u64>,
    epoch: u64,
    /// Undo log for the last move: `(task, start, finish, need)` of every
    /// task dirtied, captured before its state changed.
    saved_tasks: Vec<(u32, SimTime, SimTime, u32)>,
    /// Undo log: pre-move copies of every timeline the move mutated, in
    /// `saved_timelines[..n_saved]`; later entries keep their allocations
    /// for reuse.
    saved_timelines: Vec<(u32, DeviceTimeline)>,
    n_saved: usize,
    /// Epoch stamp per device: timeline already snapshotted this move.
    tl_saved: Vec<u64>,
    /// `(task, old device)` of the last state-changing move.
    last_move: Option<(u32, DeviceId)>,
    /// Work queue and `mark` stack, kept between moves for their
    /// allocations (both are empty outside `move_task`).
    agenda: Agenda,
    stack: Vec<u32>,
    /// Meters reused by every [`Self::metrics`] call.
    scratch: MetricsScratch,
    /// Tasks recomputed across all moves so far (work counter for benches).
    pub recomputed: u64,
}

impl<'e> DeltaEvaluator<'e> {
    /// Build the evaluator by committing `placement` exactly as
    /// [`crate::objective::evaluate`] does, then adopting the estimator's
    /// timelines and schedule arrays.
    pub fn new(env: &'e Env, dag: &'e Dag, placement: &Placement) -> Self {
        assert_eq!(
            placement.assignment.len(),
            dag.len(),
            "placement size mismatch"
        );
        let order = dag.topo_order();
        let mut est = Estimator::new(env, dag);
        for &t in &order {
            est.commit(t, placement.device(t), true);
        }

        let n = dag.len();
        let mut pos = vec![0u32; n];
        for (i, t) in order.iter().enumerate() {
            pos[t.0 as usize] = i as u32;
        }
        let mut on_dev: Vec<Vec<u32>> = vec![Vec::new(); env.fleet.len()];
        for &t in &order {
            on_dev[placement.device(t).0 as usize].push(t.0);
        }
        let need: Vec<u32> = (0..n)
            .map(|i| {
                let t = dag.task(TaskId(i as u32));
                t.occupancy(env.fleet.device(placement.assignment[i]).spec.cores)
            })
            .collect();

        DeltaEvaluator {
            env,
            dag,
            timelines: est.timelines,
            assignment: placement.assignment.clone(),
            start: est.start,
            finish: est
                .finish
                .into_iter()
                .map(|f| f.expect("committed"))
                .collect(),
            need,
            order,
            pos,
            on_dev,
            dirty: vec![0; n],
            epoch: 0,
            saved_tasks: Vec::new(),
            saved_timelines: Vec::new(),
            n_saved: 0,
            tl_saved: vec![0; env.fleet.len()],
            last_move: None,
            agenda: Agenda::new(),
            stack: Vec::new(),
            scratch: MetricsScratch::new(&env.fleet),
            recomputed: 0,
        }
    }

    /// Current assignment (always consistent with the schedule arrays).
    pub fn assignment(&self) -> &[DeviceId] {
        &self.assignment
    }

    /// Snapshot the current schedule.
    pub fn schedule(&self) -> EstimatedSchedule {
        EstimatedSchedule {
            placement: Placement {
                assignment: self.assignment.clone(),
            },
            start: self.start.clone(),
            finish: self.finish.clone(),
        }
    }

    /// Score the current schedule — bit-identical to evaluating the
    /// current assignment from scratch, without allocating.
    pub fn metrics(&mut self) -> Metrics {
        self.scratch.metrics(
            self.env,
            self.dag,
            &self.assignment,
            &self.start,
            &self.finish,
        )
    }

    /// Reassign `t` to `new_dev` and re-schedule every affected task.
    ///
    /// Returns the number of tasks recomputed. The move can be reverted two
    /// ways: [`Self::undo_last_move`] restores the pre-move state from a
    /// snapshot in O(touched) copies (how the annealer rejects), and moving
    /// the task back re-propagates to the identical state (the schedule is
    /// a pure function of the assignment).
    pub fn move_task(&mut self, t: TaskId, new_dev: DeviceId) -> usize {
        let ti = t.0 as usize;
        let old_dev = self.assignment[ti];
        if new_dev == old_dev {
            return 0;
        }
        self.epoch += 1;
        self.saved_tasks.clear();
        self.n_saved = 0;
        self.last_move = Some((t.0, old_dev));
        let mut agenda = std::mem::take(&mut self.agenda);

        // Mark t while it is still assigned (and reserved) on the old
        // device: this retracts its reservation from the right timeline
        // and the suffix closure dirties the old device's later tasks.
        self.mark(t.0, &mut agenda);

        // Then flip membership and assignment, and dirty the new device's
        // suffix — their slot searches will see t's incoming reservation.
        let old_list = &mut self.on_dev[old_dev.0 as usize];
        old_list.remove(
            old_list
                .iter()
                .position(|&x| x == t.0)
                .expect("task on its device list"),
        );
        let pos = &self.pos;
        let new_list = &mut self.on_dev[new_dev.0 as usize];
        let at = new_list.partition_point(|&x| pos[x as usize] < pos[ti]);
        new_list.insert(at, t.0);
        self.assignment[ti] = new_dev;
        // Marking the first later task closes over the rest.
        if let Some(&v) = self.on_dev[new_dev.0 as usize].get(at + 1) {
            self.mark(v, &mut agenda);
        }

        let mut recomputed = 0usize;
        while let Some(Reverse(p)) = agenda.pop() {
            let u = self.order[p as usize];
            let changed = self.recompute(u);
            recomputed += 1;
            // The moved task's successors re-read their input's source
            // node even when its finish is unchanged.
            if changed || u == t {
                let dag = self.dag;
                for s in dag.succs(u) {
                    self.mark(s.0, &mut agenda);
                }
            }
        }
        self.agenda = agenda;
        self.recomputed += recomputed as u64;
        recomputed
    }

    /// Revert the last `move_task` from its snapshot: restore the mutated
    /// timelines wholesale and the dirtied tasks' schedule entries, without
    /// re-propagating. O(touched timelines + dirtied tasks) plain copies —
    /// no slot searches, no route lookups.
    pub fn undo_last_move(&mut self) {
        let (t, old_dev) = self
            .last_move
            .take()
            .expect("undo_last_move without a preceding move");
        let ti = t as usize;
        let new_dev = self.assignment[ti];
        for (d, tl) in &mut self.saved_timelines[..self.n_saved] {
            std::mem::swap(&mut self.timelines[*d as usize], tl);
        }
        self.n_saved = 0;
        for &(v, s, f, need) in &self.saved_tasks {
            let vi = v as usize;
            self.start[vi] = s;
            self.finish[vi] = f;
            self.need[vi] = need;
        }
        self.saved_tasks.clear();
        let new_list = &mut self.on_dev[new_dev.0 as usize];
        new_list.remove(
            new_list
                .iter()
                .position(|&x| x == t)
                .expect("moved task on its new device list"),
        );
        let pos = &self.pos;
        let old_list = &mut self.on_dev[old_dev.0 as usize];
        let at = old_list.partition_point(|&x| pos[x as usize] < pos[ti]);
        old_list.insert(at, t);
        self.assignment[ti] = old_dev;
    }

    /// Snapshot `timelines[d]` into the undo log, once per move.
    fn save_timeline(&mut self, d: usize) {
        if self.tl_saved[d] != self.epoch {
            self.tl_saved[d] = self.epoch;
            match self.saved_timelines.get_mut(self.n_saved) {
                Some((slot, tl)) => {
                    *slot = d as u32;
                    tl.clone_from(&self.timelines[d]);
                }
                None => self
                    .saved_timelines
                    .push((d as u32, self.timelines[d].clone())),
            }
            self.n_saved += 1;
        }
    }

    /// Dirty `u`: retract its reservation, queue it, and close over every
    /// later task on its device (whose slot search depended on it).
    fn mark(&mut self, u: u32, agenda: &mut Agenda) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(u);
        while let Some(v) = stack.pop() {
            let vi = v as usize;
            if self.dirty[vi] == self.epoch {
                continue;
            }
            self.dirty[vi] = self.epoch;
            self.saved_tasks
                .push((v, self.start[vi], self.finish[vi], self.need[vi]));
            let dur = self.finish[vi].since(self.start[vi]);
            self.save_timeline(self.assignment[vi].0 as usize);
            self.timelines[self.assignment[vi].0 as usize].unreserve(
                self.start[vi],
                dur,
                self.need[vi],
            );
            agenda.push(Reverse(self.pos[vi]));
            let dlist = &self.on_dev[self.assignment[vi].0 as usize];
            let from = dlist.partition_point(|&x| self.pos[x as usize] <= self.pos[vi]);
            stack.extend(
                dlist[from..]
                    .iter()
                    .filter(|&&w| self.dirty[w as usize] != self.epoch),
            );
        }
        self.stack = stack;
    }

    /// Re-commit `u` on its (current) device; true if (start, finish)
    /// changed. Mirrors `Estimator::eft` + `commit` with insertion slots.
    fn recompute(&mut self, u: TaskId) -> bool {
        let ui = u.0 as usize;
        let dev = self.assignment[ui];
        let node = self.env.node_of(dev);
        let task = self.dag.task(u);

        let mut ready = SimTime::ZERO;
        for &d in &task.inputs {
            let item = self.dag.data(d);
            let (src, avail) = match self.dag.producer(d) {
                None => {
                    let home = item
                        .home
                        .expect("validated DAG has homes for external items");
                    (home, SimTime::ZERO)
                }
                Some(p) => (
                    self.env.node_of(self.assignment[p.0 as usize]),
                    self.finish[p.0 as usize],
                ),
            };
            let arrival = self
                .env
                .arrival(src, node, avail, item.bytes)
                .expect("disconnected topology");
            ready = ready.max(arrival);
        }

        let spec = &self.env.fleet.device(dev).spec;
        let dur = spec.compute_time_parallel(task.work_flops, task.parallelism);
        let need = task.occupancy(spec.cores);
        // The moved task reserves on a timeline `mark` may never have
        // touched (empty suffix on the new device).
        self.save_timeline(dev.0 as usize);
        let tl = &mut self.timelines[dev.0 as usize];
        let start = tl.earliest_slot(ready, dur, need, true);
        tl.reserve(start, dur, need);
        let fin = start + dur;

        let changed = start != self.start[ui] || fin != self.finish[ui];
        self.start[ui] = start;
        self.finish[ui] = fin;
        self.need[ui] = need;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::evaluate;
    use crate::policies::{HeftPlacer, Placer};
    use continuum_model::standard_fleet;
    use continuum_net::{continuum, ContinuumSpec};
    use continuum_sim::Rng;
    use continuum_workflow::{layered_random, LayeredSpec};

    fn setup(seed: u64, tasks: usize) -> (Env, Dag) {
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let mut rng = Rng::new(seed);
        let dag = layered_random(
            &mut rng,
            &LayeredSpec {
                tasks,
                ..Default::default()
            },
        );
        (env, dag)
    }

    /// Full-replay oracle: schedule and metrics of the current assignment.
    fn oracle(env: &Env, dag: &Dag, assignment: &[DeviceId]) -> (EstimatedSchedule, Metrics) {
        evaluate(
            env,
            dag,
            &Placement {
                assignment: assignment.to_vec(),
            },
        )
    }

    #[test]
    fn fresh_evaluator_matches_evaluate() {
        let (env, dag) = setup(42, 60);
        let p = HeftPlacer::default().place(&env, &dag);
        let mut de = DeltaEvaluator::new(&env, &dag, &p);
        let (sched, m) = evaluate(&env, &dag, &p);
        assert_eq!(de.start, sched.start);
        assert_eq!(de.finish, sched.finish);
        assert_eq!(de.metrics(), m);
    }

    #[test]
    fn random_moves_match_full_replay() {
        let (env, dag) = setup(7, 50);
        let p = HeftPlacer::default().place(&env, &dag);
        let mut de = DeltaEvaluator::new(&env, &dag, &p);
        let mut rng = Rng::new(0xD317A);
        for step in 0..120 {
            let ti = TaskId(rng.index(dag.len()) as u32);
            let task = dag.task(ti);
            if task.constraints.pinned_node.is_some() {
                continue;
            }
            let feas = env.feasible_devices(task);
            let dev = *rng.choose(&feas);
            de.move_task(ti, dev);
            let (sched, m) = oracle(&env, &dag, de.assignment());
            assert_eq!(de.start, sched.start, "step {step}: start diverged");
            assert_eq!(de.finish, sched.finish, "step {step}: finish diverged");
            assert_eq!(de.metrics(), m, "step {step}: metrics diverged");
        }
    }

    #[test]
    fn move_back_restores_schedule() {
        let (env, dag) = setup(9, 40);
        let p = HeftPlacer::default().place(&env, &dag);
        let mut de = DeltaEvaluator::new(&env, &dag, &p);
        let start0 = de.start.clone();
        let finish0 = de.finish.clone();
        let ti = TaskId(dag.len() as u32 / 2);
        let old = de.assignment()[ti.0 as usize];
        let feas = env.feasible_devices(dag.task(ti));
        let other = *feas.iter().find(|&&d| d != old).expect("another device");
        de.move_task(ti, other);
        de.move_task(ti, old);
        assert_eq!(de.start, start0);
        assert_eq!(de.finish, finish0);
    }

    #[test]
    fn undo_restores_exact_state_and_future_moves_stay_exact() {
        let (env, dag) = setup(13, 50);
        let p = HeftPlacer::default().place(&env, &dag);
        let mut de = DeltaEvaluator::new(&env, &dag, &p);
        let mut rng = Rng::new(0x0D0);
        for step in 0..60 {
            let ti = TaskId(rng.index(dag.len()) as u32);
            let task = dag.task(ti);
            if task.constraints.pinned_node.is_some() {
                continue;
            }
            let feas = env.feasible_devices(task);
            let dev = *rng.choose(&feas);
            if dev == de.assignment()[ti.0 as usize] {
                continue;
            }
            let (assign0, start0, finish0) =
                (de.assignment.clone(), de.start.clone(), de.finish.clone());
            de.move_task(ti, dev);
            if step % 2 == 0 {
                // Reject: snapshot undo must restore the exact state.
                de.undo_last_move();
                assert_eq!(de.assignment, assign0, "step {step}");
                assert_eq!(de.start, start0, "step {step}");
                assert_eq!(de.finish, finish0, "step {step}");
            }
            // Either way the evaluator must still agree with the oracle —
            // including on moves made *after* an undo.
            let (sched, m) = oracle(&env, &dag, de.assignment());
            assert_eq!(de.start, sched.start, "step {step}");
            assert_eq!(de.finish, sched.finish, "step {step}");
            assert_eq!(de.metrics(), m, "step {step}");
        }
    }

    #[test]
    fn noop_move_recomputes_nothing() {
        let (env, dag) = setup(3, 30);
        let p = HeftPlacer::default().place(&env, &dag);
        let mut de = DeltaEvaluator::new(&env, &dag, &p);
        let dev = de.assignment()[0];
        assert_eq!(de.move_task(TaskId(0), dev), 0);
    }

    #[test]
    fn moves_touch_a_fraction_of_the_dag() {
        // The point of the exercise: a typical move must not re-schedule
        // everything. Averaged over random moves, the recompute set should
        // be well under the full DAG.
        let (env, dag) = setup(11, 200);
        let p = HeftPlacer::default().place(&env, &dag);
        let mut de = DeltaEvaluator::new(&env, &dag, &p);
        let mut rng = Rng::new(0xFAC7);
        let mut moves = 0u64;
        for _ in 0..200 {
            let ti = TaskId(rng.index(dag.len()) as u32);
            let task = dag.task(ti);
            if task.constraints.pinned_node.is_some() {
                continue;
            }
            let feas = env.feasible_devices(task);
            let dev = *rng.choose(&feas);
            if dev != de.assignment()[ti.0 as usize] {
                moves += 1;
            }
            de.move_task(ti, dev);
        }
        let avg = de.recomputed as f64 / moves as f64;
        assert!(
            avg < dag.len() as f64 * 0.8,
            "avg recompute set {avg:.1} of {} tasks",
            dag.len()
        );
    }
}
