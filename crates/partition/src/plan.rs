//! Compile-once G-set schedules.
//!
//! Building an engine's schedule — task programs for every cell, the host
//! demand order, the stream wiring — depends only on the G-graph and the
//! batch length (for closure, the problem *shape* `(n, batch_len)`) plus
//! the engine's own geometry, never on the matrix entries.
//! [`CompiledPlan`] captures that shape-dependent work once: engines
//! memoize plans per `(G-graph, batch_len)` (see `PlanCache`), instantiate a
//! simulator from a plan, and on later calls [`ArraySim::reset`] the cached
//! simulator (see `SimSlot`) and merely re-[`load`](CompiledPlan::load)
//! the new matrices, entering the hot loop with zero schedule rebuilding.
//!
//! At plan-build time every logical `stream_key(inst, k, h)` is **interned**
//! into a dense slot index, so the simulator's banks and host R-blocks are
//! Vec-backed slot tables and the per-cycle `can_read`/`read`/`write` path
//! never hashes. Interned bank slots carry their original `u64` key as a
//! sort key, preserving `corrupt_resident`'s deterministic sorted-key visit
//! order for fault injection.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use systolic_arraysim::{ArraySim, StreamDst, StreamSrc, Task};
use systolic_semiring::{DenseMatrix, Semiring};
use systolic_transform::GenericGGraph;

/// One input-stream binding: which column of which batch instance enters
/// the array where. Feeds replay in recorded order, which for host feeds
/// *is* the demand order of the schedule.
#[derive(Clone, Copy, Debug)]
enum Feed {
    /// Host-injected stream: `mats[inst].col(col)` queued for `cell`.
    Host {
        cell: usize,
        slot: usize,
        inst: u32,
        col: u32,
    },
    /// Boundary-port preload: `mats[inst].col(col)` preloaded into `bank`.
    Preload {
        bank: usize,
        slot: usize,
        inst: u32,
        col: u32,
    },
}

/// A fully compiled schedule for a batch of one G-graph: array geometry,
/// per-cell task programs (shared, never copied per run), input feed order
/// and the cycle budget. Independent of the semiring — one plan serves runs
/// over any element type.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    n: usize,
    batch_len: usize,
    cells: usize,
    link_delays: Vec<u64>,
    /// Per bank: the original stream keys, indexed by interned slot.
    bank_slots: Vec<Vec<u64>>,
    outputs: usize,
    memory_connections: usize,
    max_cycles: u64,
    feeds: Vec<Feed>,
    programs: Vec<Arc<[Task]>>,
}

impl CompiledPlan {
    /// Problem size this plan was compiled for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Builds a fresh simulator with this plan's structure and programs
    /// installed (no input data yet — see [`CompiledPlan::load`]).
    pub fn instantiate<S: Semiring>(&self, trace: bool) -> ArraySim<S> {
        let mut sim = ArraySim::<S>::new(self.cells);
        for &d in &self.link_delays {
            sim.add_link_with_delay(d);
        }
        for keys in &self.bank_slots {
            sim.add_bank_with_slots(keys.clone());
        }
        sim.add_outputs(self.outputs);
        sim.set_memory_connections(self.memory_connections);
        sim.set_max_cycles(self.max_cycles);
        for (cell, prog) in self.programs.iter().enumerate() {
            sim.set_cell_program(cell, Arc::clone(prog));
        }
        if trace {
            sim.enable_trace();
        }
        sim
    }

    /// Feeds a batch's matrices into a (fresh or reset) simulator, in the
    /// order the plan recorded — for host streams that is the schedule's
    /// demand order.
    pub fn load<S: Semiring>(&self, sim: &mut ArraySim<S>, batch: &[DenseMatrix<S>]) {
        debug_assert_eq!(batch.len(), self.batch_len);
        for feed in &self.feeds {
            match *feed {
                Feed::Host {
                    cell,
                    slot,
                    inst,
                    col,
                } => {
                    sim.host_mut().enqueue_stream(
                        cell,
                        slot,
                        batch[inst as usize].col(col as usize),
                    );
                }
                Feed::Preload {
                    bank,
                    slot,
                    inst,
                    col,
                } => {
                    let b = sim.bank_mut(bank);
                    for v in batch[inst as usize].col(col as usize) {
                        b.preload(slot, v);
                    }
                }
            }
        }
    }
}

/// Per-bank key interner: first use of a key allocates the next slot.
#[derive(Default)]
struct KeyIntern {
    map: HashMap<u64, usize>,
    keys: Vec<u64>,
}

impl KeyIntern {
    fn slot(&mut self, key: u64) -> usize {
        *self.map.entry(key).or_insert_with(|| {
            self.keys.push(key);
            self.keys.len() - 1
        })
    }
}

/// Builds a [`CompiledPlan`] with the same call sequence an engine would
/// use to build an [`ArraySim`] directly, interning `u64` stream keys into
/// dense slots as they first appear. Hashing happens here, once per shape —
/// never in the simulator hot loop.
pub(crate) struct PlanBuilder {
    n: usize,
    batch_len: usize,
    cells: usize,
    link_delays: Vec<u64>,
    banks: Vec<KeyIntern>,
    /// Per-cell host stream interner (R-block slots are per cell).
    host: Vec<KeyIntern>,
    outputs: usize,
    memory_connections: usize,
    max_cycles: u64,
    feeds: Vec<Feed>,
    programs: Vec<Vec<Task>>,
}

impl PlanBuilder {
    pub(crate) fn new(n: usize, batch_len: usize, cells: usize) -> Self {
        Self {
            n,
            batch_len,
            cells,
            link_delays: Vec::new(),
            banks: Vec::new(),
            host: (0..cells).map(|_| KeyIntern::default()).collect(),
            outputs: 0,
            memory_connections: 0,
            max_cycles: u64::MAX,
            feeds: Vec::new(),
            programs: (0..cells).map(|_| Vec::new()).collect(),
        }
    }

    pub(crate) fn batch_len(&self) -> usize {
        self.batch_len
    }

    pub(crate) fn add_link(&mut self) -> usize {
        self.add_link_with_delay(1)
    }

    pub(crate) fn add_link_with_delay(&mut self, delay: u64) -> usize {
        self.link_delays.push(delay);
        self.link_delays.len() - 1
    }

    pub(crate) fn add_bank(&mut self) -> usize {
        self.banks.push(KeyIntern::default());
        self.banks.len() - 1
    }

    pub(crate) fn add_outputs(&mut self, count: usize) -> usize {
        let first = self.outputs;
        self.outputs += count;
        first
    }

    pub(crate) fn set_memory_connections(&mut self, c: usize) {
        self.memory_connections = c;
    }

    pub(crate) fn set_max_cycles(&mut self, max: u64) {
        self.max_cycles = max;
    }

    /// Interned bank-stream source.
    pub(crate) fn bank_src(&mut self, bank: usize, key: u64) -> StreamSrc {
        StreamSrc::Bank {
            bank,
            slot: self.banks[bank].slot(key),
        }
    }

    /// Interned bank-stream destination.
    pub(crate) fn bank_dst(&mut self, bank: usize, key: u64) -> StreamDst {
        StreamDst::Bank {
            bank,
            slot: self.banks[bank].slot(key),
        }
    }

    /// Interned host-stream source for a task running on `cell`.
    pub(crate) fn host_src(&mut self, cell: usize, key: u64) -> StreamSrc {
        StreamSrc::Host {
            slot: self.host[cell].slot(key),
        }
    }

    /// Records a host feed of `mats[inst].col(col)` for `cell`.
    pub(crate) fn feed_host(&mut self, cell: usize, key: u64, inst: usize, col: usize) {
        let slot = self.host[cell].slot(key);
        self.feeds.push(Feed::Host {
            cell,
            slot,
            inst: inst as u32,
            col: col as u32,
        });
    }

    /// Records a boundary-port preload of `mats[inst].col(col)` into `bank`.
    pub(crate) fn feed_preload(&mut self, bank: usize, key: u64, inst: usize, col: usize) {
        let slot = self.banks[bank].slot(key);
        self.feeds.push(Feed::Preload {
            bank,
            slot,
            inst: inst as u32,
            col: col as u32,
        });
    }

    pub(crate) fn push_task(&mut self, cell: usize, task: Task) {
        self.programs[cell].push(task);
    }

    pub(crate) fn finish(self) -> CompiledPlan {
        CompiledPlan {
            n: self.n,
            batch_len: self.batch_len,
            cells: self.cells,
            link_delays: self.link_delays,
            bank_slots: self.banks.into_iter().map(|b| b.keys).collect(),
            outputs: self.outputs,
            memory_connections: self.memory_connections,
            max_cycles: self.max_cycles,
            feeds: self.feeds,
            programs: self
                .programs
                .into_iter()
                .map(std::convert::Into::into)
                .collect(),
        }
    }
}

/// Plans memoized by `(G-graph, batch_len)`.
type PlanMap = HashMap<(GenericGGraph, usize), Arc<CompiledPlan>>;

/// Graph-keyed plan memo, shared (via `Arc`) across engine clones — every
/// `ParallelEngine` shard reuses the one compiled plan per shape.
#[derive(Clone, Default)]
pub(crate) struct PlanCache {
    plans: Arc<Mutex<PlanMap>>,
}

impl PlanCache {
    /// Returns the memoized plan for `(gg, batch_len)`, building it under
    /// the lock on first use (concurrent shards wait and then share it).
    pub(crate) fn get_or_build(
        &self,
        gg: &GenericGGraph,
        batch_len: usize,
        build: impl FnOnce() -> CompiledPlan,
    ) -> Arc<CompiledPlan> {
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        Arc::clone(
            plans
                .entry((gg.clone(), batch_len))
                .or_insert_with(|| Arc::new(build())),
        )
    }

    pub(crate) fn clear(&self) {
        self.plans.lock().expect("plan cache poisoned").clear();
    }

    /// True when a plan for `(gg, batch_len)` is already memoized.
    pub(crate) fn contains(&self, gg: &GenericGGraph, batch_len: usize) -> bool {
        self.plans
            .lock()
            .expect("plan cache poisoned")
            .contains_key(&(gg.clone(), batch_len))
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.plans.lock().map(|p| p.len()).unwrap_or(0);
        write!(f, "PlanCache({n} plans)")
    }
}

/// A cached, reusable simulator paired with the plan that built it.
struct CachedSim<S: Semiring> {
    plan: Arc<CompiledPlan>,
    sim: ArraySim<S>,
}

/// Per-engine-value simulator cache (NOT shared across clones — a simulator
/// is single-threaded state). Type-erased so non-generic engines can cache
/// a simulator for whichever semiring they last ran.
#[derive(Default)]
pub(crate) struct SimSlot {
    slot: Mutex<Option<Box<dyn Any + Send>>>,
}

impl SimSlot {
    /// Takes the cached simulator if it was built from exactly `plan` (by
    /// `Arc` identity) over the same semiring, reset and ready to reload.
    pub(crate) fn take<S: Semiring>(&self, plan: &Arc<CompiledPlan>) -> Option<ArraySim<S>> {
        let boxed = self.slot.lock().expect("sim cache poisoned").take()?;
        let cached = boxed.downcast::<CachedSim<S>>().ok()?;
        if Arc::ptr_eq(&cached.plan, plan) {
            let mut sim = cached.sim;
            sim.reset();
            Some(sim)
        } else {
            None
        }
    }

    /// Stores a simulator for reuse by the next same-shape call.
    pub(crate) fn store<S: Semiring>(&self, plan: Arc<CompiledPlan>, sim: ArraySim<S>) {
        *self.slot.lock().expect("sim cache poisoned") = Some(Box::new(CachedSim { plan, sim }));
    }

    pub(crate) fn clear(&self) {
        *self.slot.lock().expect("sim cache poisoned") = None;
    }
}

/// Clones start with an empty cache: simulators are per-value state.
impl Clone for SimSlot {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl fmt::Debug for SimSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let occupied = self.slot.lock().map(|s| s.is_some()).unwrap_or(false);
        write!(f, "SimSlot(occupied: {occupied})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_arraysim::{TaskKind, TaskLabel};
    use systolic_semiring::MinPlus;

    impl CompiledPlan {
        /// Each cell's program as the `(k, h)` labels of its tasks, in
        /// order: what the schedule tests compare G-sets against.
        pub(crate) fn task_labels(&self) -> Vec<Vec<(usize, usize)>> {
            let label = |t: &Task| (t.label.k as usize, t.label.h as usize);
            self.programs
                .iter()
                .map(|p| p.iter().map(label).collect())
                .collect()
        }
    }

    fn trivial_plan() -> CompiledPlan {
        let mut b = PlanBuilder::new(2, 1, 1);
        let bank = b.add_bank();
        let out = b.add_outputs(1);
        let src = b.bank_src(bank, 0xdead_beef);
        b.feed_preload(bank, 0xdead_beef, 0, 0);
        b.push_task(
            0,
            Task {
                kind: TaskKind::Pass,
                len: 2,
                col_in: Some(src),
                pivot_in: None,
                col_out: Some(StreamDst::Output { stream: out }),
                pivot_out: None,
                head_out: None,
                duration: 1,
                useful_ops: 0,
                label: TaskLabel::default(),
            },
        );
        b.finish()
    }

    #[test]
    fn interning_is_first_use_order_and_stable() {
        let mut b = PlanBuilder::new(2, 1, 1);
        let bank = b.add_bank();
        let s9 = b.bank_src(bank, 9);
        let s2 = b.bank_src(bank, 2);
        let s9again = b.bank_src(bank, 9);
        assert_eq!(s9, StreamSrc::Bank { bank, slot: 0 });
        assert_eq!(s2, StreamSrc::Bank { bank, slot: 1 });
        assert_eq!(s9, s9again);
        let plan = b.finish();
        assert_eq!(plan.bank_slots[0], vec![9, 2], "slots keep their keys");
    }

    #[test]
    fn instantiate_load_run_round_trips() {
        let plan = trivial_plan();
        let mut a = DenseMatrix::<MinPlus>::zeros(2, 2);
        a.set(0, 0, 7);
        a.set(1, 0, 8);
        let mut sim = plan.instantiate::<MinPlus>(false);
        plan.load(&mut sim, std::slice::from_ref(&a));
        sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![7, 8]);
        // Reset + reload reruns identically on the same simulator.
        sim.reset();
        plan.load(&mut sim, std::slice::from_ref(&a));
        sim.run().unwrap();
        assert_eq!(sim.outputs()[0], vec![7, 8]);
    }

    #[test]
    fn sim_slot_matches_on_plan_identity_and_semiring() {
        let plan = Arc::new(trivial_plan());
        let other = Arc::new(trivial_plan());
        let slot = SimSlot::default();
        slot.store::<MinPlus>(Arc::clone(&plan), plan.instantiate(false));
        // Identical shape but different Arc: no match.
        assert!(slot.take::<MinPlus>(&other).is_none());
        slot.store::<MinPlus>(Arc::clone(&plan), plan.instantiate(false));
        // Different semiring: no match.
        assert!(slot.take::<systolic_semiring::Bool>(&plan).is_none());
        slot.store::<MinPlus>(Arc::clone(&plan), plan.instantiate(false));
        assert!(slot.take::<MinPlus>(&plan).is_some());
        // Take empties the slot.
        assert!(slot.take::<MinPlus>(&plan).is_none());
    }

    #[test]
    fn plan_cache_memoizes_per_graph_and_batch() {
        let cache = PlanCache::default();
        let gg = GenericGGraph::closure(2);
        let p1 = cache.get_or_build(&gg, 1, trivial_plan);
        let p2 = cache.get_or_build(&gg, 1, || panic!("must be memoized"));
        assert!(Arc::ptr_eq(&p1, &p2));
        let p3 = cache.get_or_build(&gg, 2, trivial_plan);
        assert!(!Arc::ptr_eq(&p1, &p3));
        // Same size, another graph (durations are part of the key).
        let slow = GenericGGraph::closure(2).with_row_durations(&[1, 2]);
        let p4 = cache.get_or_build(&slow, 1, trivial_plan);
        assert!(!Arc::ptr_eq(&p1, &p4));
        assert!(cache.contains(&gg, 1) && cache.contains(&slow, 1));
        cache.clear();
        assert!(!cache.contains(&gg, 1));
        let p5 = cache.get_or_build(&gg, 1, trivial_plan);
        assert!(!Arc::ptr_eq(&p1, &p5));
    }
}
