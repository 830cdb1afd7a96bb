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
//! things: its ready time (its predecessors' finish times and nodes), and
//! the reservations of earlier-committed tasks on its own device — its
//! *prefix view* of the device timeline. A move of task `t` from device
//! `a` to `b` dirties `t` itself; dirty tasks are retracted from their
//! timeline and recomputed in ascending topological position, so every
//! earlier task is final when a task is recomputed. Three rules decide
//! what else becomes dirty:
//!
//! 1. **Successors.** A task whose (start, finish) changed — and `t`,
//!    whose node changed — dirties its successors (their ready time read
//!    it).
//! 2. **Visibility.** A dirty task `u` with ready time `r` and duration
//!    `dur` searches its device's timeline *as it stands*: clean
//!    later-topo tasks are still reserved on it, so their usage sits on
//!    top of `u`'s prefix view. If the slot `c` found is `r`, it is `u`'s
//!    true slot (no timeline starts `u` before its ready time).
//!    Otherwise every still-reserved later-topo task whose interval meets
//!    `[r, c + dur]` is retracted (dirtied) and the search runs again,
//!    until nothing is retracted. The search then reads, over the window
//!    it inspects, exactly the usage of the prefix view, so it returns
//!    the slot a full replay finds; and that slot is free on the full
//!    timeline, so reserving it never over-reserves.
//! 3. **Change gating.** When a recomputed task's interval changes — and
//!    when `t` leaves `a` for `b` — a clean later-topo task `v` on the
//!    same device changes only if its prefix view changed where its slot
//!    search looks. It is dirtied if an *added* interval meets
//!    `[start_v, finish_v]` (its slot may no longer fit), or if a
//!    *removed* interval meets `[ready_v, finish_v]` and
//!    `start_v > ready_v` (an earlier slot may have opened). Added usage
//!    cannot make an earlier candidate feasible, and removed usage cannot
//!    move a task that already starts at its ready time.
//!
//! A clean task's predecessors and prefix view are therefore unchanged
//! where its result depends on them, so its committed slot is still the
//! one a full replay finds. Every new dirty task is later in topological
//! order than the task that dirtied it, so the ascending agenda
//! recomputes each task at most once per move. Scoring reuses one set of
//! meters across moves but runs the code a full evaluation
//! ([`crate::objective::metrics_from_parts`]) runs, so scores (and hence
//! annealing accept/reject decisions) are identical to the
//! clone-and-replay oracle. The proptests in `tests/proptests.rs` check
//! both equivalences after every move and undo of random move sequences.
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
    /// Ready time per task: when its last input arrives on its device.
    ready: Vec<SimTime>,
    /// Undo log for the last move: `(task, start, finish, ready, need)` of
    /// every task dirtied, captured before its state changed.
    saved_tasks: Vec<(u32, SimTime, SimTime, SimTime, u32)>,
    /// Undo log: pre-move copies of every timeline the move mutated, in
    /// `saved_timelines[..n_saved]`; later entries keep their allocations
    /// for reuse.
    saved_timelines: Vec<(u32, DeviceTimeline)>,
    n_saved: usize,
    /// Epoch stamp per device: timeline already snapshotted this move.
    tl_saved: Vec<u64>,
    /// `(task, old device)` of the last state-changing move.
    last_move: Option<(u32, DeviceId)>,
    /// Work queue and the tasks a rule picked for marking, kept between
    /// moves for their allocations (both are empty outside `move_task`).
    agenda: Agenda,
    picked: Vec<u32>,
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

        let mut de = DeltaEvaluator {
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
            ready: vec![SimTime::ZERO; n],
            dirty: vec![0; n],
            epoch: 0,
            saved_tasks: Vec::new(),
            saved_timelines: Vec::new(),
            n_saved: 0,
            tl_saved: vec![0; env.fleet.len()],
            last_move: None,
            agenda: Agenda::new(),
            picked: Vec::new(),
            scratch: MetricsScratch::new(&env.fleet),
            recomputed: 0,
        };
        for i in 0..n {
            de.ready[i] = de.ready_time(TaskId(i as u32));
        }
        de
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

        // Retract t while it is still assigned (and reserved) on the old
        // device, then flip membership and assignment.
        let left = (self.start[ti], self.finish[ti]);
        self.mark(t.0, &mut agenda);
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
        // Later tasks on the old device lose t's interval.
        self.gate(old_dev, t.0, Some(left), None, &mut agenda);

        let mut recomputed = 0usize;
        while let Some(Reverse(p)) = agenda.pop() {
            let u = self.order[p as usize];
            let ui = u.0 as usize;
            let was = (self.start[ui], self.finish[ui]);
            let now = self.recompute(u, &mut agenda);
            recomputed += 1;
            if u == t {
                // Later tasks on the new device gain t's interval, and
                // t's successors re-read their input's source node even
                // when its finish is unchanged.
                self.gate(new_dev, t.0, None, Some(now), &mut agenda);
            } else if now != was {
                self.gate(self.assignment[ui], u.0, Some(was), Some(now), &mut agenda);
            } else {
                continue;
            }
            let dag = self.dag;
            for s in dag.succs(u) {
                self.mark(s.0, &mut agenda);
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
        for &(v, s, f, r, need) in &self.saved_tasks {
            let vi = v as usize;
            self.start[vi] = s;
            self.finish[vi] = f;
            self.ready[vi] = r;
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

    /// Dirty `u`: retract its reservation and queue it. A no-op if `u` is
    /// already dirty this move.
    fn mark(&mut self, u: u32, agenda: &mut Agenda) {
        let ui = u as usize;
        if self.dirty[ui] == self.epoch {
            return;
        }
        self.dirty[ui] = self.epoch;
        self.saved_tasks.push((
            u,
            self.start[ui],
            self.finish[ui],
            self.ready[ui],
            self.need[ui],
        ));
        let d = self.assignment[ui].0 as usize;
        self.save_timeline(d);
        self.timelines[d].unreserve(
            self.start[ui],
            self.finish[ui].since(self.start[ui]),
            self.need[ui],
        );
        agenda.push(Reverse(self.pos[ui]));
    }

    /// Mark every clean task on `dev` later in topological order than `u`
    /// for which `hit(ready, start, finish)` holds; true if any was.
    fn mark_later(
        &mut self,
        dev: DeviceId,
        u: u32,
        agenda: &mut Agenda,
        hit: impl Fn(SimTime, SimTime, SimTime) -> bool,
    ) -> bool {
        let mut picked = std::mem::take(&mut self.picked);
        let list = &self.on_dev[dev.0 as usize];
        let from = list.partition_point(|&x| self.pos[x as usize] <= self.pos[u as usize]);
        picked.extend(list[from..].iter().filter(|&&w| {
            let wi = w as usize;
            self.dirty[wi] != self.epoch && hit(self.ready[wi], self.start[wi], self.finish[wi])
        }));
        let any = !picked.is_empty();
        for w in picked.drain(..) {
            self.mark(w, agenda);
        }
        self.picked = picked;
        any
    }

    /// Change gating (rule 3 of the module docs): `u`'s interval on `dev`
    /// went from `removed` to `added`; dirty the clean later tasks whose
    /// slot search could see the difference.
    fn gate(
        &mut self,
        dev: DeviceId,
        u: u32,
        removed: Option<(SimTime, SimTime)>,
        added: Option<(SimTime, SimTime)>,
        agenda: &mut Agenda,
    ) {
        self.mark_later(dev, u, agenda, |ready, start, finish| {
            added.is_some_and(|a| meets(a, start, finish))
                || (start > ready && removed.is_some_and(|r| meets(r, ready, finish)))
        });
    }

    /// When `u`'s last input arrives on its current device's node.
    fn ready_time(&self, u: TaskId) -> SimTime {
        let node = self.env.node_of(self.assignment[u.0 as usize]);
        let mut ready = SimTime::ZERO;
        for &d in &self.dag.task(u).inputs {
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
        ready
    }

    /// Re-commit `u` on its (current) device and return its new
    /// (start, finish). Mirrors `Estimator::eft` + `commit` with insertion
    /// slots, searching past clean later tasks per the visibility rule
    /// (rule 2 of the module docs).
    fn recompute(&mut self, u: TaskId, agenda: &mut Agenda) -> (SimTime, SimTime) {
        let ui = u.0 as usize;
        let dev = self.assignment[ui];
        let ready = self.ready_time(u);
        let task = self.dag.task(u);
        let spec = &self.env.fleet.device(dev).spec;
        let dur = spec.compute_time_parallel(task.work_flops, task.parallelism);
        let need = task.occupancy(spec.cores);
        // The moved task reserves on a timeline `mark` may never have
        // touched.
        self.save_timeline(dev.0 as usize);
        let start = loop {
            let c = self.timelines[dev.0 as usize].earliest_slot(ready, dur, need, true);
            if c == ready
                || !self.mark_later(dev, u.0, agenda, |_, s, f| meets((s, f), ready, c + dur))
            {
                break c;
            }
        };
        self.timelines[dev.0 as usize].reserve(start, dur, need);
        let fin = start + dur;
        self.start[ui] = start;
        self.finish[ui] = fin;
        self.ready[ui] = ready;
        self.need[ui] = need;
        (start, fin)
    }
}

/// Whether the closed interval `iv` meets `[lo, hi]`.
fn meets(iv: (SimTime, SimTime), lo: SimTime, hi: SimTime) -> bool {
    iv.0 <= hi && lo <= iv.1
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
    fn moving_a_task_leaves_later_tasks_it_cannot_reach_clean() {
        // x -> t and r -> v, with x, t and v on one multi-core device `a`
        // and r elsewhere. Topological order is x, r, t, v, so v is a
        // later task on t's old device; but v runs beside x and ends
        // before t starts. Removing t's interval cannot open an earlier
        // slot for v, so moving t recomputes t alone.
        let built = continuum(&ContinuumSpec::default());
        let env = Env::new(built.topology.clone(), standard_fleet(&built));
        let multi: Vec<DeviceId> = env
            .fleet
            .devices()
            .iter()
            .filter(|d| d.spec.cores >= 2)
            .map(|d| d.id)
            .collect();
        let (a, b) = (multi[0], multi[1]);
        let home = env.node_of(a);
        let mut dag = Dag::new("pinned-pruning");
        let (xin, xout, rin, rout) = (
            dag.add_input("xin", 1, home),
            dag.add_item("xout", 1),
            dag.add_input("rin", 1, home),
            dag.add_item("rout", 1),
        );
        let x = dag.add_task("x", 1e11, vec![xin], vec![xout]);
        let r = dag.add_task("r", 1e8, vec![rin], vec![rout]);
        let t = dag.add_task("t", 1e10, vec![xout], vec![]);
        let v = dag.add_task("v", 1e8, vec![rout], vec![]);
        assert_eq!(dag.topo_order(), vec![x, r, t, v]);
        let mut assignment = vec![a; dag.len()];
        assignment[r.0 as usize] = b;
        let mut de = DeltaEvaluator::new(&env, &dag, &Placement { assignment });
        let (vi, ti) = (v.0 as usize, t.0 as usize);
        assert!(de.finish[vi] < de.start[ti], "v must end before t starts");
        assert_eq!(de.move_task(t, b), 1, "only the moved task is recomputed");
        let (sched, m) = oracle(&env, &dag, de.assignment());
        assert_eq!(de.start, sched.start);
        assert_eq!(de.finish, sched.finish);
        assert_eq!(de.metrics(), m);
    }

    #[test]
    fn moves_touch_a_fraction_of_the_dag() {
        // The point of the exercise: a typical move must not re-schedule
        // everything. Averaged over random moves, the recompute set should
        // be well under the full DAG: 23.1 of 200 tasks on this seed.
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
            avg < dag.len() as f64 * 0.2,
            "avg recompute set {avg:.1} of {} tasks",
            dag.len()
        );
    }
}
