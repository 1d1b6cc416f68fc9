//! The mapping layer: pluggable G-set-to-array mappings behind one
//! generic executor.
//!
//! The paper's contribution is a *family* of mappings from the skewed
//! G-graph onto fixed-size arrays — cut-and-pile (LPGS) onto a chain or a
//! grid, the fixed-size arrays of §3.2, coalescing (LSGP, §2). What a
//! mapping actually decides is small: how many cells, which cell runs
//! which G-node, and how the pivot/column streams travel between them.
//! Everything else — batch validation, plan memoization, simulator
//! recycling, fault-plan arming, trace capture, result reassembly — is
//! identical machinery, for closure and elimination graphs alike.
//!
//! [`Mapping`] captures exactly the per-mapping decisions: a name, the
//! cell count, and one plan builder per array geometry,
//! [`Mapping::graph_plan`], which compiles any [`GenericGGraph`]. The
//! builder never sees what a G-node computes: one crate-private helper
//! turns each G-node into a cell task (task kind, which streams exist,
//! result sinks, stream length, duration), so closure, LU and Faddeev all
//! compile through the same mappings, and varying G-node durations (§4.3)
//! enter only through the graph. [`Mapping::build_plan`] is the closure
//! shorthand. [`MappedEngine`] owns the shared run machinery exactly once:
//! one crate-private `run_graph` runs any graph's batch and decodes it
//! through one output layout, so closure runs, the elimination pipelines
//! of [`crate::algo`] and the bypass-degraded array
//! ([`crate::LinearEngine::bypassing`]) all take the same path.
//! The concrete engines ([`crate::LinearEngine`],
//! [`crate::FixedArrayEngine`], [`crate::FixedLinearEngine`],
//! [`crate::GridEngine`], [`crate::LsgpEngine`]) are type aliases
//! `MappedEngine<SomeMapping>` plus inherent constructors.

use crate::engine::{prepare_batch, ClosureEngine, EngineError};
use crate::plan::{CompiledPlan, PlanCache, SimSlot};
use crate::wiring::OutputLayout;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use systolic_arraysim::{ArraySim, FaultEvent, FaultPlan, RunStats};
use systolic_semiring::{DenseMatrix, PathSemiring, Semiring};
use systolic_transform::GenericGGraph;

/// How G-sets land on cells: the per-mapping third of an engine.
///
/// A mapping is pure geometry/schedule — it never touches matrix values,
/// so one implementation serves every semiring, and the compiled plan it
/// returns may be memoized per `(G-graph, batch_len)` and shared across
/// engine clones.
pub trait Mapping: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// Engine name for reports (the [`ClosureEngine::name`] of the
    /// executor).
    fn name(&self) -> &'static str;

    /// Number of processing cells, or 0 when the array size depends on
    /// the problem size (the fixed-size mappings).
    fn cells(&self) -> usize;

    /// Checks the mapping's own parameters (e.g. a positive cell count).
    ///
    /// Called by the executor before any plan is built; a mapping with
    /// impossible geometry reports [`EngineError::BadInput`] instead of
    /// panicking mid-compile. The default accepts everything.
    ///
    /// # Errors
    /// [`EngineError::BadInput`] describing the bad parameter.
    fn validate(&self) -> Result<(), EngineError> {
        Ok(())
    }

    /// Compiles the full schedule of `batch_len` instances of the G-graph
    /// `gg` on this array: cell programs, stream wiring, host demand order,
    /// cycle budget. Only the graph's geometry and per-row durations shape
    /// the plan; what its G-nodes compute is the graph's own business.
    fn graph_plan(&self, gg: &GenericGGraph, batch_len: usize) -> CompiledPlan;

    /// Compiles the closure schedule for one `(n, batch_len)` shape: the
    /// plan of [`GenericGGraph::closure`].
    fn build_plan(&self, n: usize, batch_len: usize) -> CompiledPlan {
        self.graph_plan(&GenericGGraph::closure(n), batch_len)
    }

    /// Smallest batch slice processed at full efficiency (see
    /// [`ClosureEngine::preferred_chunk`]).
    fn preferred_chunk(&self) -> usize {
        1
    }
}

/// The one generic executor: runs any [`Mapping`]'s compiled plans on the
/// cycle-level simulator with plan memoization, simulator recycling,
/// fault-plan arming and trace capture.
#[derive(Debug)]
pub struct MappedEngine<M: Mapping> {
    mapping: M,
    trace: bool,
    /// Transient-fault plan armed on every run (None = clean array).
    plan: Option<FaultPlan>,
    /// Per-run reseed nonce: consecutive `closure_many` calls on the same
    /// engine see decorrelated fault sequences (a retry must not replay the
    /// identical fault), while a fresh engine with the same plan reproduces
    /// the same sequence of sequences.
    nonce: AtomicU64,
    /// Faults applied during the most recent run (success or failure).
    last_faults: Mutex<Vec<FaultEvent>>,
    /// Compiled schedules per `(G-graph, batch_len)`, shared across clones.
    plans: PlanCache,
    /// Reusable simulator from the previous run (per engine value).
    sims: SimSlot,
}

impl<M: Mapping> Clone for MappedEngine<M> {
    fn clone(&self) -> Self {
        Self {
            mapping: self.mapping.clone(),
            trace: self.trace,
            plan: self.plan.clone(),
            nonce: AtomicU64::new(self.nonce.load(Ordering::Relaxed)),
            last_faults: Mutex::new(Vec::new()),
            plans: self.plans.clone(),
            sims: SimSlot::default(),
        }
    }
}

impl<M: Mapping + Default> Default for MappedEngine<M> {
    fn default() -> Self {
        Self::from_mapping(M::default())
    }
}

impl<M: Mapping> MappedEngine<M> {
    /// Creates an executor over the given mapping.
    pub fn from_mapping(mapping: M) -> Self {
        Self {
            mapping,
            trace: false,
            plan: None,
            nonce: AtomicU64::new(0),
            last_faults: Mutex::new(Vec::new()),
            plans: PlanCache::default(),
            sims: SimSlot::default(),
        }
    }

    /// The mapping this executor runs.
    pub fn mapping(&self) -> &M {
        &self.mapping
    }

    /// Enables task-span tracing; the run's `RunStats::spans` then holds
    /// the full schedule for Gantt rendering (Fig. 20 visualization).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self.sims.clear(); // a cached simulator would lack span buffers
        self
    }

    /// Arms a transient-fault plan: every subsequent run injects faults
    /// from a fresh reseeding of `plan` (see the `nonce` field docs).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Faults applied during the most recent run on this engine value
    /// (empty without a plan). Recorded on both success and error, so a
    /// deadlocked or corrupt run can still be blamed.
    pub fn recent_fault_events(&self) -> Vec<FaultEvent> {
        self.last_faults.lock().expect("fault log poisoned").clone()
    }

    /// Drops the memoized plans and the cached simulator, forcing the next
    /// call to compile from scratch (the fault-nonce sequence continues
    /// unchanged). Mainly for cache-vs-fresh equivalence tests.
    pub fn clear_caches(&self) {
        self.plans.clear();
        self.sims.clear();
    }

    /// True when a closure plan for the `(n, batch_len)` shape is already
    /// compiled — the next same-shape run is *warm* (no schedule rebuild). The
    /// admission batcher uses this to prove a settled server never
    /// recompiles.
    pub fn has_plan(&self, n: usize, batch_len: usize) -> bool {
        n >= 2 && self.plans.contains(&GenericGGraph::closure(n), batch_len)
    }

    /// Runs a prepared batch of `gg` instances through the cached
    /// plan/simulator and reassembles each instance's result matrix,
    /// arming `armed` verbatim when given. The fault log is recorded into
    /// `last_faults` iff a plan was armed.
    pub(crate) fn run_graph<S: Semiring>(
        &self,
        gg: &GenericGGraph,
        batch: &[DenseMatrix<S>],
        armed: Option<FaultPlan>,
    ) -> Result<(Vec<DenseMatrix<S>>, RunStats), EngineError> {
        self.mapping.validate()?;
        let plan = self
            .plans
            .get_or_build(gg, batch.len(), || self.mapping.graph_plan(gg, batch.len()));
        let mut sim: ArraySim<S> = self
            .sims
            .take(&plan)
            .unwrap_or_else(|| plan.instantiate(self.trace));
        plan.load(&mut sim, batch);

        let record = armed.is_some();
        if let Some(fp) = armed {
            sim.set_fault_plan(fp);
        }
        let run = sim.run();
        if record {
            // Record what was injected even when the run failed — blame
            // attribution needs the sites of a deadlocked attempt too.
            *self.last_faults.lock().expect("fault log poisoned") = sim.take_fault_events();
        }
        let stats = run?;
        let layout = OutputLayout::new(gg);
        let results = (0..batch.len())
            .map(|inst| layout.assemble(gg, sim.outputs(), inst))
            .collect::<Result<Vec<_>, _>>()?;
        self.sims.store(plan, sim);
        Ok((results, stats))
    }
}

impl<M: Mapping, S: PathSemiring> ClosureEngine<S> for MappedEngine<M> {
    fn name(&self) -> &'static str {
        self.mapping.name()
    }

    fn cells(&self) -> usize {
        self.mapping.cells()
    }

    fn preferred_chunk(&self) -> usize {
        self.mapping.preferred_chunk()
    }

    fn closure_many(
        &self,
        mats: &[DenseMatrix<S>],
    ) -> Result<(Vec<DenseMatrix<S>>, RunStats), EngineError> {
        let (n, batch) = prepare_batch(mats)?;
        let armed = self
            .plan
            .as_ref()
            .map(|p| p.reseeded(self.nonce.fetch_add(1, Ordering::Relaxed)));
        self.run_graph(&GenericGGraph::closure(n), &batch, armed)
    }
}
