//! The public face of the runtime: [`Cluster`] and [`Ctx`].
//!
//! A `Cluster` owns an engine plus the Amber kernel and runs one program to
//! completion, as in the paper's model of "a single application that
//! performs a parallel computation, computes a result, and terminates".
//! Inside the program, every thread holds a [`Ctx`] through which it
//! creates, invokes, moves and attaches objects, and starts and joins
//! threads.

use std::sync::Arc;
use std::time::Duration;

use amber_engine::{
    must_current_thread, CostModel, Engine, EngineError, EngineExt, LatencyModel, NodeId,
    ProtocolSnapshot, RealEngine, SimEngine, SimTime, ThreadId,
};
use amber_vspace::VAddr;

use crate::adaptive::PlacementPolicy;
use crate::errors::ProtocolError;
use crate::kernel::Kernel;
use crate::objref::{AmberObject, ObjRef};
use crate::thread::JoinHandle;

/// Clonable factory for the cluster's placement policy (the builder is
/// `Clone`, so it stores a constructor rather than the policy itself).
type PolicyFactory = Arc<dyn Fn() -> Box<dyn PlacementPolicy> + Send + Sync>;

/// Which engine a [`Cluster`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineChoice {
    /// Deterministic virtual-time simulation (default; used by every
    /// performance experiment).
    Sim,
    /// Real OS threads and wall-clock time.
    Real,
}

/// Builder for a [`Cluster`].
///
/// # Examples
///
/// ```
/// use amber_core::Cluster;
/// use amber_engine::NodeId;
///
/// let cluster = Cluster::builder().nodes(2).processors(2).build();
/// let sum = cluster
///     .run(|ctx| {
///         let counter = ctx.create(0u64);
///         ctx.invoke(&counter, |_, c| *c += 42);
///         ctx.invoke(&counter, |_, c| *c)
///     })
///     .unwrap();
/// assert_eq!(sum, 42);
/// ```
#[derive(Clone)]
pub struct ClusterBuilder {
    nodes: usize,
    processors: usize,
    latency: LatencyModel,
    cost: CostModel,
    engine: EngineChoice,
    deadline: Option<Duration>,
    faults: amber_engine::FaultPlan,
    adaptive: Option<PolicyFactory>,
    demand_replication: bool,
}

impl std::fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("nodes", &self.nodes)
            .field("processors", &self.processors)
            .field("latency", &self.latency)
            .field("cost", &self.cost)
            .field("engine", &self.engine)
            .field("deadline", &self.deadline)
            .field("faults", &self.faults)
            .field("adaptive", &self.adaptive.is_some())
            .field("demand_replication", &self.demand_replication)
            .finish()
    }
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            nodes: 1,
            processors: 1,
            latency: LatencyModel::ethernet_10mbit(),
            cost: CostModel::firefly(),
            engine: EngineChoice::Sim,
            deadline: None,
            faults: amber_engine::FaultPlan::default(),
            adaptive: None,
            demand_replication: true,
        }
    }
}

impl ClusterBuilder {
    /// Number of nodes (default 1).
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Processors per node (default 1; the paper's Fireflies had 4).
    pub fn processors(mut self, p: usize) -> Self {
        self.processors = p;
        self
    }

    /// Network latency model (default: 10 Mbit Ethernet).
    pub fn latency(mut self, l: LatencyModel) -> Self {
        self.latency = l;
        self
    }

    /// Protocol CPU cost model (default: Firefly calibration).
    pub fn cost_model(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Selects the engine (default [`EngineChoice::Sim`]).
    pub fn engine(mut self, e: EngineChoice) -> Self {
        self.engine = e;
        self
    }

    /// Wall-clock deadline (real engine only) after which the run fails
    /// with [`EngineError::Timeout`].
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Installs a seeded [`FaultPlan`](amber_engine::FaultPlan): the network
    /// drops, duplicates, delays and partitions messages per the plan, and
    /// the engines' reliability sublayer delivers each kernel message at
    /// most once, retransmitting on timeout.
    pub fn faults(mut self, plan: amber_engine::FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enables the adaptive placement engine: per-object, per-caller-node
    /// invocation counters feed a periodic advisor tick that issues
    /// rate-limited advisory group moves toward each object's dominant
    /// caller node — never mid-move, never against a pin (see
    /// [`Ctx::pin`]). `make` constructs the decision policy; the stock
    /// credit-scored policy is `amber_placement::adaptive::TrafficAdvisor`.
    /// The kernel executes whatever the policy decides — moves of mutable
    /// groups, replicas of immutable objects — and declines, with an
    /// `AdvisorySkipped` event, what is unsafe at that instant.
    pub fn adaptive_placement<P, F>(mut self, make: F) -> Self
    where
        P: PlacementPolicy + 'static,
        F: Fn() -> P + Send + Sync + 'static,
    {
        self.adaptive = Some(Arc::new(move || Box::new(make())));
        self
    }

    /// Whether a shared invocation of an immutable object replicates it to
    /// the caller's node on demand (default `true`, the paper's section 2.3
    /// semantics). Set `false` to leave replica placement entirely to the
    /// adaptive advisor (and explicit `MoveTo`): reads away from a replica
    /// then migrate the calling thread like any remote invocation, which is
    /// what the advisor's replication decisions optimize away.
    pub fn demand_replication(mut self, on: bool) -> Self {
        self.demand_replication = on;
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> Cluster {
        let spec = amber_engine::ClusterSpec::uniform(self.nodes, self.processors)
            .with_latency(self.latency)
            .with_faults(self.faults);
        let engine: Arc<dyn Engine> = match self.engine {
            EngineChoice::Sim => Arc::new(SimEngine::new(spec)),
            EngineChoice::Real => {
                let mut e = RealEngine::new(spec);
                if let Some(d) = self.deadline {
                    e = e.with_deadline(d);
                }
                Arc::new(e)
            }
        };
        let policy = self.adaptive.map(|make| make());
        let kernel = Kernel::new(
            Arc::clone(&engine),
            self.cost,
            policy,
            self.demand_replication,
        );
        // In checked builds the lifecycle linter judges every protocol
        // event of the cluster's lifetime, whatever sink comes and goes.
        kernel.engine.tracer().lint();
        Cluster { kernel }
    }
}

/// A network of multiprocessor nodes running one Amber program.
pub struct Cluster {
    kernel: Arc<Kernel>,
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// The default cluster over an engine the test built and keeps a
    /// handle to.
    #[cfg(test)]
    pub(crate) fn on_engine(engine: Arc<dyn Engine>) -> Cluster {
        let kernel = Kernel::new(engine, CostModel::firefly(), None, true);
        kernel.engine.tracer().lint();
        Cluster { kernel }
    }

    /// Shorthand for a simulated `nodes` x `processors` cluster with the
    /// default Firefly/Ethernet models.
    pub fn sim(nodes: usize, processors: usize) -> Cluster {
        Cluster::builder()
            .nodes(nodes)
            .processors(processors)
            .build()
    }

    /// Runs `main` as the program's main thread on the boot node, waits for
    /// every thread to finish, and returns `main`'s result.
    pub fn run<R, F>(&self, main: F) -> Result<R, EngineError>
    where
        R: Send + 'static,
        F: FnOnce(&Ctx) -> R + Send + 'static,
    {
        let kernel = Arc::clone(&self.kernel);
        // The placement daemon (if a policy is installed) must exist before
        // the program runs so the first invocation can arm its tick timer.
        self.kernel.spawn_placement_daemon();
        self.kernel.engine.run(NodeId::BOOT, move || {
            crate::invoke::register_thread();
            let ctx = Ctx::new(Arc::clone(&kernel));
            let r = main(&ctx);
            kernel.stop_placement_daemon();
            crate::invoke::unregister_thread();
            r
        })
    }

    /// The engine's current time (virtual or wall-clock).
    pub fn now(&self) -> SimTime {
        self.kernel.engine.now()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.kernel.engine.nodes()
    }

    /// The engine's counter rows: per-node and total messages, bytes and
    /// scheduling activity.
    pub fn net_stats(&self) -> Arc<amber_engine::NetStats> {
        Arc::clone(self.kernel.engine.stats())
    }

    /// How many events of each kind have happened, the runtime's and the
    /// engine's message events alike: the same rows, folded.
    pub fn protocol_stats(&self) -> ProtocolSnapshot {
        self.kernel.engine.stats().snapshot()
    }

    // ----- tracing --------------------------------------------------------

    /// Installs an in-memory trace sink and returns it: every protocol
    /// event (invocations, migrations, moves, forwarding hops, message
    /// sends, ...) is recorded, stamped with the engine clock, until
    /// [`disable_tracing`](Cluster::disable_tracing).
    ///
    /// Export a captured stream with [`amber_engine::trace::chrome_trace_json`]
    /// or fold it back into counters with
    /// [`ProtocolSnapshot::from_events`]: a capture of the whole run folds
    /// to exactly [`protocol_stats`](Cluster::protocol_stats), message
    /// events included, because one `emit` feeds both.
    ///
    /// # Examples
    ///
    /// ```
    /// use amber_core::{Cluster, ProtocolSnapshot};
    ///
    /// let cluster = Cluster::sim(2, 1);
    /// let sink = cluster.enable_tracing();
    /// cluster
    ///     .run(|ctx| {
    ///         let v = ctx.create_on(amber_core::NodeId(1), 7u64);
    ///         ctx.invoke(&v, |_, v| *v += 1);
    ///     })
    ///     .unwrap();
    /// let traced = ProtocolSnapshot::from_events(&sink.take());
    /// assert_eq!(traced.remote_invokes, 1);
    /// assert_eq!(traced, cluster.protocol_stats());
    /// assert_eq!(traced.messages, cluster.net_stats().total_msgs());
    /// ```
    pub fn enable_tracing(&self) -> Arc<amber_engine::MemorySink> {
        let sink = amber_engine::MemorySink::new();
        self.kernel.engine.tracer().install(sink.clone());
        sink
    }

    /// Installs a custom [`amber_engine::TraceSink`] (replacing any
    /// previous sink).
    pub fn set_trace_sink(&self, sink: Arc<dyn amber_engine::TraceSink>) {
        self.kernel.engine.tracer().install(sink);
    }

    /// Stops tracing; returns the previously installed sink, if any.
    pub fn disable_tracing(&self) -> Option<Arc<dyn amber_engine::TraceSink>> {
        self.kernel.engine.tracer().uninstall()
    }
}

/// A thread's handle to the Amber runtime.
///
/// Every Amber thread body and every object operation receives a `&Ctx`.
/// All primitives of the paper's programming model hang off it.
pub struct Ctx {
    kernel: Arc<Kernel>,
}

impl Ctx {
    pub(crate) fn new(kernel: Arc<Kernel>) -> Ctx {
        Ctx { kernel }
    }

    pub(crate) fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The engine-level id of the calling thread.
    pub fn thread_id(&self) -> ThreadId {
        must_current_thread()
    }

    /// The node the calling thread is currently executing on.
    pub fn node(&self) -> NodeId {
        self.kernel.current_node()
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.kernel.engine.nodes()
    }

    /// Current time.
    pub fn now(&self) -> SimTime {
        self.kernel.engine.now()
    }

    // ----- objects ------------------------------------------------------

    /// Creates an object on the calling thread's current node.
    pub fn create<T: AmberObject>(&self, value: T) -> ObjRef<T> {
        self.kernel.create_local(self.node(), value)
    }

    /// Creates an object on `node` (a remote creation request if `node` is
    /// not the current node).
    pub fn create_on<T: AmberObject>(&self, node: NodeId, value: T) -> ObjRef<T> {
        self.kernel.check_node(node);
        if node == self.node() {
            self.kernel.create_local(node, value)
        } else {
            self.kernel.create_remote(node, value)
        }
    }

    /// Invokes an exclusive operation (`&mut T`) on the object, wherever it
    /// is: the calling thread migrates to the object's node if necessary
    /// and returns to this frame's node afterwards.
    pub fn invoke<T: AmberObject, R>(
        &self,
        obj: &ObjRef<T>,
        op: impl FnOnce(&Ctx, &mut T) -> R,
    ) -> R {
        self.invoke_carrying(obj, 0, op)
    }

    /// Like [`invoke`](Ctx::invoke), but charges `carry` extra bytes of
    /// by-value arguments on the outbound trip — the idiom for operations
    /// whose arguments are bulk data, like the SOR edge exchange ("the
    /// values for an entire edge of a section ... transferred in a single
    /// invocation", section 6).
    pub fn invoke_carrying<T: AmberObject, R>(
        &self,
        obj: &ObjRef<T>,
        carry: usize,
        op: impl FnOnce(&Ctx, &mut T) -> R,
    ) -> R {
        self.kernel
            .try_invoke_exclusive_carrying(self, obj, carry, op)
            .unwrap_or_else(|e| self.kernel.halt(e))
    }

    /// Invokes a shared operation (`&T`): concurrent with other shared
    /// operations on the same object, and served by a local replica when
    /// the object is immutable.
    pub fn invoke_shared<T: AmberObject, R>(
        &self,
        obj: &ObjRef<T>,
        op: impl FnOnce(&Ctx, &T) -> R,
    ) -> R {
        self.invoke_shared_carrying(obj, 0, op)
    }

    /// Like [`invoke_shared`](Ctx::invoke_shared), but charges `carry`
    /// extra bytes of by-value arguments on the outbound trip. The shared
    /// counterpart of [`invoke_carrying`](Ctx::invoke_carrying), for bulk
    /// operations whose effects are confined to interior-mutable state
    /// (e.g. installing a ghost row of atomics while compute proceeds).
    pub fn invoke_shared_carrying<T: AmberObject, R>(
        &self,
        obj: &ObjRef<T>,
        carry: usize,
        op: impl FnOnce(&Ctx, &T) -> R,
    ) -> R {
        self.kernel
            .try_invoke_shared_carrying(self, obj, carry, op)
            .unwrap_or_else(|e| self.kernel.halt(e))
    }

    /// Fallible [`invoke`](Ctx::invoke): returns
    /// [`ProtocolError::ObjectDestroyed`] for a dangling reference and
    /// [`ProtocolError::ChaseDiverged`] when the forwarding chase exceeds
    /// its hop bound, instead of halting the thread. Mirrors
    /// [`try_locate`](Ctx::try_locate): long-lived servers holding
    /// references of uncertain liveness observe the error and keep running.
    /// An `Err` guarantees `op` never ran.
    pub fn try_invoke<T: AmberObject, R>(
        &self,
        obj: &ObjRef<T>,
        op: impl FnOnce(&Ctx, &mut T) -> R,
    ) -> Result<R, ProtocolError> {
        self.kernel.try_invoke_exclusive_carrying(self, obj, 0, op)
    }

    /// Fallible [`invoke_shared`](Ctx::invoke_shared); see
    /// [`try_invoke`](Ctx::try_invoke) for the error contract.
    pub fn try_invoke_shared<T: AmberObject, R>(
        &self,
        obj: &ObjRef<T>,
        op: impl FnOnce(&Ctx, &T) -> R,
    ) -> Result<R, ProtocolError> {
        self.kernel.try_invoke_shared_carrying(self, obj, 0, op)
    }

    /// Destroys an idle object, returning its heap block for reuse.
    ///
    /// On a destroy race (already destroyed, or caught busy / mid-move /
    /// attached) the calling thread halts under the error's name — the sim
    /// deadlock report names the condition instead of the process aborting.
    /// Use [`try_destroy`](Ctx::try_destroy) to observe the error instead.
    pub fn destroy<T: AmberObject>(&self, obj: ObjRef<T>) {
        self.kernel
            .destroy(obj.addr())
            .unwrap_or_else(|e| self.kernel.halt(e))
    }

    /// Fallible [`destroy`](Ctx::destroy): returns
    /// [`ProtocolError::ObjectDestroyed`] when the object is already gone
    /// (double destroy from two nodes is a deterministic `Err` for exactly
    /// one of them) and [`ProtocolError::ObjectBusy`] when it has
    /// operations in progress, a move in flight, or an attachment. An
    /// `Err` guarantees the object was not destroyed by this call.
    pub fn try_destroy<T: AmberObject>(&self, obj: ObjRef<T>) -> Result<(), ProtocolError> {
        self.kernel.destroy(obj.addr())
    }

    // ----- mobility -----------------------------------------------------

    /// Moves the object (and its attachment group) to `node`; copies it
    /// instead if it is immutable. The MoveTo primitive.
    pub fn move_to<T: AmberObject>(&self, obj: &ObjRef<T>, node: NodeId) {
        self.kernel.move_to(obj.addr(), node);
    }

    /// Finds the node where the object currently resides. The Locate
    /// primitive: follows the forwarding chain with control probes.
    ///
    /// On a protocol error (destroyed object, diverged chase) the calling
    /// thread halts under the error's name; use
    /// [`try_locate`](Ctx::try_locate) to observe the error instead.
    pub fn locate<T: AmberObject>(&self, obj: &ObjRef<T>) -> NodeId {
        self.try_locate(obj).unwrap_or_else(|e| self.kernel.halt(e))
    }

    /// Fallible [`locate`](Ctx::locate): returns
    /// [`ProtocolError::ObjectDestroyed`] for a destroyed or unknown
    /// address and [`ProtocolError::ChaseDiverged`] when the forwarding
    /// chase exceeds its hop bound, instead of halting the thread.
    pub fn try_locate<T: AmberObject>(&self, obj: &ObjRef<T>) -> Result<NodeId, ProtocolError> {
        self.kernel.locate(obj.addr())
    }

    /// Pins the object against the adaptive placement advisor: advisories
    /// targeting it (or any group containing it) are skipped until
    /// [`unpin`](Ctx::unpin). Explicit [`move_to`](Ctx::move_to) ignores
    /// pins. A no-op marker when adaptive placement is not enabled.
    pub fn pin<T: AmberObject>(&self, obj: &ObjRef<T>) {
        self.kernel.pin(obj.addr());
    }

    /// Clears a [`pin`](Ctx::pin).
    pub fn unpin<T: AmberObject>(&self, obj: &ObjRef<T>) {
        self.kernel.unpin(obj.addr());
    }

    /// Attaches `child` to `parent`: co-located now and moved together from
    /// now on. The Attach primitive.
    pub fn attach<A: AmberObject, B: AmberObject>(&self, child: &ObjRef<A>, parent: &ObjRef<B>) {
        self.kernel.attach(child.addr(), parent.addr());
    }

    /// Detaches a previously attached object. The Unattach primitive.
    pub fn unattach<A: AmberObject>(&self, child: &ObjRef<A>) {
        self.kernel.unattach(child.addr());
    }

    /// Marks the object immutable; it may never be mutated again, moves
    /// become copies, and shared invocations replicate it locally.
    pub fn set_immutable<T: AmberObject>(&self, obj: &ObjRef<T>) {
        self.kernel.set_immutable(obj.addr());
    }

    /// `true` if the object has been marked immutable.
    pub fn is_immutable<T: AmberObject>(&self, obj: &ObjRef<T>) -> bool {
        self.kernel.is_immutable(obj.addr())
    }

    // ----- threads ------------------------------------------------------

    /// Starts a new thread executing `op` on `target`; the Start primitive.
    pub fn start<T, R>(
        &self,
        target: &ObjRef<T>,
        op: impl FnOnce(&Ctx, &mut T) -> R + Send + 'static,
    ) -> JoinHandle<R>
    where
        T: AmberObject,
        R: Send + Sync + 'static,
    {
        self.kernel.start_thread(target, op)
    }

    // ----- scheduling and time ------------------------------------------

    /// Charges `cost` of modelled CPU work (simulator); a no-op on the real
    /// engine, where real code has real cost. Also performs the
    /// context-switch residency re-check.
    pub fn work(&self, cost: SimTime) {
        self.kernel.work(cost);
    }

    /// Parks the calling thread until [`unpark`](Ctx::unpark). Building
    /// block for synchronization objects; see `amber-sync`.
    ///
    /// Never call this while inside an *exclusive* object operation that
    /// another thread must enter to wake you — park/wake loops belong
    /// outside invocations (see `amber-sync` for the pattern).
    pub fn park(&self, reason: &'static str) {
        self.kernel.park(reason);
    }

    /// Wakes a parked thread. A wake that races ahead of the park is not
    /// lost.
    pub fn unpark(&self, thread: ThreadId) {
        self.kernel.unpark(thread);
    }

    /// Yields the processor to another runnable thread on this node.
    ///
    /// Note for simulated runs: yielding consumes no virtual time, so a
    /// spin loop built from `yield_now` alone keeps its thread perpetually
    /// runnable and the virtual clock can never advance past it. Charge a
    /// small poll cost with [`work`](Ctx::work) in every spin loop (as
    /// `SpinLock` in the `amber-sync` crate does).
    pub fn yield_now(&self) {
        self.kernel.engine.yield_now();
        self.kernel.recheck_residency();
    }

    /// Suspends the calling thread for `duration`.
    pub fn sleep(&self, duration: SimTime) {
        self.kernel.engine.sleep(duration);
        self.kernel.recheck_residency();
    }

    /// Sets the calling thread's scheduling priority, which the node's
    /// scheduler receives with every enqueue (the stock policies ignore it;
    /// an installed one may order by it).
    pub fn set_priority(&self, priority: i32) {
        self.kernel.engine.set_priority(self.thread_id(), priority);
    }

    /// Installs a new scheduler on `node` at runtime — the paper's
    /// replaceable scheduler object.
    pub fn install_scheduler(
        &self,
        node: NodeId,
        scheduler: Box<dyn amber_engine::policy::Scheduler>,
    ) {
        self.kernel.check_node(node);
        self.kernel.engine.set_scheduler(node, scheduler);
    }

    /// Protocol counters so far.
    pub fn protocol_stats(&self) -> ProtocolSnapshot {
        self.kernel.engine.stats().snapshot()
    }

    /// Cluster-wide network totals so far: `(messages, payload bytes)`.
    /// Take two snapshots to attribute traffic to a program phase.
    pub fn net_totals(&self) -> (u64, u64) {
        let s = self.kernel.engine.stats();
        (s.total_msgs(), s.total_bytes())
    }

    // ----- substrate hooks ------------------------------------------------

    /// Sends one network message of `bytes` payload from `from` to `to` and
    /// parks the calling thread until it is delivered.
    ///
    /// This is the raw transport hook for alternative memory systems built
    /// beside the object space (the Ivy-style DSM baseline uses it for its
    /// coherence traffic). Object programs never need it: invocation and
    /// mobility already pay for their own messages.
    pub fn net_wait(&self, from: NodeId, to: NodeId, bytes: usize, reason: &'static str) {
        self.kernel.check_node(from);
        self.kernel.check_node(to);
        self.kernel.one_way(from, to, bytes, reason);
    }

    /// Raw address of an object (for diagnostics and tests).
    pub fn addr_of<T: AmberObject>(&self, obj: &ObjRef<T>) -> VAddr {
        obj.addr()
    }
}
