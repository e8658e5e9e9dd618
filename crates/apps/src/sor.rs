//! Red/Black Successive Over-Relaxation, structured as in the paper's
//! section 6 and Figure 1.
//!
//! The grid is split into horizontal *section objects* distributed across
//! the nodes. Each section has:
//!
//! * a set of **worker threads** updating its points in parallel (stripes of
//!   rows), synchronized by a section-local barrier that is attached to the
//!   section (so the whole apparatus is co-located and intra-section
//!   synchronization never touches the network);
//! * **edge threads**, one per neighbouring section, that push the freshly
//!   updated edge values of one colour to the neighbour's ghost row in a
//!   single carrying invocation — overlapped with the computation of the
//!   other points when `overlap` is on (the two 8Nx4P points of Figure 2);
//! * a **convergence thread** that reports the section's residual to a
//!   single master object each iteration, in one visit that also asks
//!   whether the iteration is decided, and publishes the decision at its
//!   section; workers read it up to `CONV_LAG` (two) iterations later.
//!
//! Cell updates use the classic red/black schedule: all black points (using
//! red neighbours from the previous iteration), then all red points (using
//! the just-computed black). Within a colour there are no dependencies, so
//! the parallel result is bit-identical to the sequential one — a strong
//! correctness oracle the tests rely on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amber_core::{AmberObject, Cluster, ClusterBuilder, Ctx, NodeId, ObjRef, SimTime};
use amber_engine::ThreadId;
use amber_sync::Barrier;
use parking_lot::Mutex;

/// Colour of a grid point: black points are those with even `row + col`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Color {
    /// Updated first each iteration, from red values of the previous one.
    Black,
    /// Updated second, from the just-computed black values.
    Red,
}

impl Color {
    /// 0 for black (even `row + col`), 1 for red.
    pub fn parity(self) -> usize {
        match self {
            Color::Black => 0,
            Color::Red => 1,
        }
    }

    fn index(self) -> usize {
        self.parity()
    }

    /// The first column at or after `c` holding a point of this colour in
    /// global row `r`.
    fn first_col(self, r: usize, c: usize) -> usize {
        c + (r + c + self.parity()) % 2
    }

    fn of_phase(phase: usize) -> Color {
        if phase.is_multiple_of(2) {
            Color::Black
        } else {
            Color::Red
        }
    }
}

/// Parameters of one SOR experiment.
#[derive(Clone, Copy, Debug)]
pub struct SorParams {
    /// Grid rows (the paper's Figure 2 grid is 122 x 842).
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Number of section objects the grid is split into.
    pub sections: usize,
    /// Nodes in the cluster.
    pub nodes: usize,
    /// Processors per node.
    pub procs: usize,
    /// Maximum iterations (each = one black + one red half-sweep).
    pub max_iters: usize,
    /// Convergence threshold on the global max |delta|; use 0.0 to always
    /// run `max_iters` (the fixed-work mode used for speedup curves).
    pub epsilon: f64,
    /// Over-relaxation factor.
    pub omega: f64,
    /// Overlap edge exchange with interior computation (Figure 2 ablation).
    pub overlap: bool,
    /// Modelled CPU cost of updating one point (CVAX-calibrated default).
    pub point_cost: SimTime,
    /// Fixed temperature along the top edge of the plate.
    pub top_temp: f64,
}

impl SorParams {
    /// The paper's Figure 2 configuration: 122 x 842 grid, 8 sections
    /// (6 when the node count is 3 or 6, as in the paper), fixed work.
    pub fn fig2(nodes: usize, procs: usize, overlap: bool) -> SorParams {
        let sections = if nodes == 3 || nodes == 6 { 6 } else { 8 };
        SorParams {
            rows: 122,
            cols: 842,
            sections,
            nodes,
            procs,
            max_iters: 30,
            epsilon: 0.0,
            omega: 1.5,
            overlap,
            point_cost: SimTime::from_us(20),
            top_temp: 100.0,
        }
    }

    /// A small, fast configuration for tests.
    pub fn small(nodes: usize, procs: usize) -> SorParams {
        SorParams {
            rows: 24,
            cols: 32,
            sections: nodes.max(2),
            nodes,
            procs,
            max_iters: 10,
            epsilon: 0.0,
            omega: 1.5,
            overlap: true,
            point_cost: SimTime::from_us(20),
            top_temp: 100.0,
        }
    }

    /// Worker threads per section: the available processors divided among
    /// the sections, at least one each.
    pub fn workers_per_section(&self) -> usize {
        ((self.nodes * self.procs) / self.sections).max(1)
    }

    /// Node hosting section `s`: contiguous blocks, as one would place
    /// neighbouring sections on the same node.
    pub fn node_of_section(&self, s: usize) -> NodeId {
        NodeId::from(s * self.nodes / self.sections)
    }

    /// The initial / boundary value of cell `(r, c)`.
    pub fn init_value(&self, r: usize, c: usize) -> f64 {
        if r == 0 {
            self.top_temp
        } else {
            let _ = c;
            0.0
        }
    }
}

/// Result of one SOR run.
#[derive(Clone, Copy, Debug)]
pub struct SorResult {
    /// Virtual (or wall) time of the solve phase.
    pub elapsed: SimTime,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Sum of all grid values after the run (correctness oracle).
    pub checksum: f64,
    /// Global max |delta| of the final iteration.
    pub max_delta: f64,
    /// Network messages sent during the whole run.
    pub msgs: u64,
    /// Network payload bytes sent during the whole run.
    pub bytes: u64,
    /// The run's schedule digest ([`Cluster::schedule_digest`]): `None`
    /// on the real engine.
    pub digest: Option<u64>,
}

// ---------------------------------------------------------------------------
// Section object
// ---------------------------------------------------------------------------

/// Queued edge exchanges: `(phase, edge values)` per side.
type EdgeQueue = std::collections::VecDeque<(usize, Vec<f64>)>;

/// One horizontal slice of the grid, an Amber object.
///
/// Cell storage is `AtomicU64`-bitcast `f64` so worker threads can update
/// disjoint points concurrently through shared invocations — the stand-in
/// for the paper's hardware-coherent intra-node memory sharing.
pub struct Section {
    /// Global index of this section's first owned row.
    first_row: usize,
    /// Owned rows.
    nrows: usize,
    cols: usize,
    total_rows: usize,
    /// `(nrows + 2) * cols` cells; local row 0 and `nrows + 1` are ghosts.
    cells: Vec<AtomicU64>,
    /// Ghost exchanges received, per side (0 = top, 1 = bottom) and colour.
    ghost_ver: [[AtomicU64; 2]; 2],
    ghost_waiters: Mutex<Vec<ThreadId>>,
    edge_waiters: Mutex<Vec<ThreadId>>,
    /// Edge rows copied out by the phase leader, queued for the edge
    /// threads to ship: `(phase, colour values)` per side. Copying at
    /// signal time double-buffers the exchange, so workers never wait for
    /// the edge thread's return trip.
    outbox: [Mutex<EdgeQueue>; 2],
    /// Iterations whose continue/stop decision has been published.
    decision_ver: AtomicU64,
    /// Iteration at which the program stops (0 = undecided).
    stop_at: AtomicU64,
    decision_waiters: Mutex<Vec<ThreadId>>,
    /// Signals to the convergence thread (count of iterations finished).
    conv_go: AtomicU64,
    conv_waiters: Mutex<Vec<ThreadId>>,
    /// Max |delta| accumulated by the workers, in a small ring indexed by
    /// iteration so the convergence lag cannot mix neighbouring
    /// iterations' residuals (ring size > CONV_LAG + 1).
    delta: [Mutex<f64>; 4],
    /// Set when the run is over; wakes every helper thread for shutdown.
    stopped: AtomicU64,
}

impl AmberObject for Section {
    fn transfer_size(&self) -> usize {
        std::mem::size_of::<Self>() + self.cells.len() * 8
    }
}

impl Section {
    fn new(p: &SorParams, s: usize) -> Section {
        let (first_row, nrows) = section_rows(p, s);
        let mut cells = Vec::with_capacity((nrows + 2) * p.cols);
        for lr in 0..nrows + 2 {
            for c in 0..p.cols {
                // Ghost rows take the neighbour's initial edge values; rows
                // outside the grid (beyond the plate) are never read.
                let gr = (first_row + lr).wrapping_sub(1);
                let v = if gr < p.rows {
                    p.init_value(gr, c)
                } else {
                    0.0
                };
                cells.push(AtomicU64::new(v.to_bits()));
            }
        }
        Section {
            first_row,
            nrows,
            cols: p.cols,
            total_rows: p.rows,
            cells,
            ghost_ver: Default::default(),
            ghost_waiters: Mutex::new(Vec::new()),
            edge_waiters: Mutex::new(Vec::new()),
            outbox: [
                Mutex::new(std::collections::VecDeque::new()),
                Mutex::new(std::collections::VecDeque::new()),
            ],
            decision_ver: AtomicU64::new(0),
            stop_at: AtomicU64::new(0),
            decision_waiters: Mutex::new(Vec::new()),
            conv_go: AtomicU64::new(0),
            conv_waiters: Mutex::new(Vec::new()),
            delta: [
                Mutex::new(0.0),
                Mutex::new(0.0),
                Mutex::new(0.0),
                Mutex::new(0.0),
            ],
            stopped: AtomicU64::new(0),
        }
    }

    fn get(&self, lr: usize, c: usize) -> f64 {
        f64::from_bits(self.cells[lr * self.cols + c].load(Ordering::Relaxed))
    }

    fn set(&self, lr: usize, c: usize, v: f64) {
        self.cells[lr * self.cols + c].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Relaxes the `color` points of owned local row `lr` (1-based).
    /// Returns (points updated, max |delta|).
    fn relax_row(&self, lr: usize, color: Color, omega: f64) -> (usize, f64) {
        self.relax_row_cols(lr, color, omega, 1, self.cols - 1)
    }

    /// Relaxes the `color` points of owned local row `lr` within columns
    /// `[c0, c1)`. Returns (points updated, max |delta|). Used to split the
    /// boundary rows across all workers so the pre-exchange step is as
    /// parallel as the interior.
    fn relax_row_cols(
        &self,
        lr: usize,
        color: Color,
        omega: f64,
        c0: usize,
        c1: usize,
    ) -> (usize, f64) {
        let gr = self.first_row + lr - 1;
        if gr == 0 || gr == self.total_rows - 1 {
            return (0, 0.0); // fixed plate boundary row
        }
        let [up, row, down] = self.rows_around(lr);
        let first = color.first_col(gr, c0.max(1));
        relax_span(up, row, down, first, c1.min(self.cols - 1), omega)
    }

    /// Local row `lr`'s cells with those of the rows above and below it.
    fn rows_around(&self, lr: usize) -> [&[AtomicU64]; 3] {
        [lr - 1, lr, lr + 1].map(|r| &self.cells[r * self.cols..(r + 1) * self.cols])
    }

    /// Copies the `color` values of the owned edge row on `side`
    /// (0 = top row, 1 = bottom row) for shipping to the neighbour.
    fn copy_edge(&self, side: usize, color: Color) -> Vec<f64> {
        let lr = if side == 0 { 1 } else { self.nrows };
        let gr = self.first_row + lr - 1;
        let mut vals = Vec::with_capacity(self.cols / 2 + 1);
        let mut c = (gr + color.parity()) % 2;
        while c < self.cols {
            vals.push(self.get(lr, c));
            c += 2;
        }
        vals
    }

    /// Installs `vals` (produced by the neighbour's [`copy_edge`]) into the
    /// ghost row on `side` and bumps the ghost version.
    fn install_ghost(&self, side: usize, color: Color, vals: &[f64]) {
        let lr = if side == 0 { 0 } else { self.nrows + 1 };
        let gr = (self.first_row + lr).wrapping_sub(1);
        let mut c = (gr + color.parity()) % 2;
        for v in vals {
            if c >= self.cols {
                break;
            }
            self.set(lr, c, *v);
            c += 2;
        }
        self.ghost_ver[side][color.index()].fetch_add(1, Ordering::SeqCst);
    }
}

/// The Red/Black stencil: relaxes every other point of `row`, columns
/// `first, first + 2, ..` below `end`, from its left and right neighbours
/// and the same columns of `up` and `down`. Returns (points updated,
/// max |delta|). Needs `1 <= first` and `end` below the three rows'
/// length when `first < end`; an empty span updates nothing.
///
/// The slices are zipped, so no point pays a bounds check; the arithmetic
/// is the sequential solver's, in its order, so every caller agrees bit
/// for bit. Points go two at a time, each of a pair into its own running
/// max, so no point waits on its neighbour's compare. `d > maxd` keeps
/// `f64::max`'s bits over non-negative values and, like it, skips a NaN;
/// the max of a set does not depend on the order it was taken in.
fn relax_span(
    up: &[AtomicU64],
    row: &[AtomicU64],
    down: &[AtomicU64],
    first: usize,
    end: usize,
    omega: f64,
) -> (usize, f64) {
    if first >= end {
        return (0, 0.0);
    }
    let load = |cell: &AtomicU64| f64::from_bits(cell.load(Ordering::Relaxed));
    // One point, `w` its row window (left, old, right), into running max `maxd`.
    let relax = |w: &[AtomicU64], u: &AtomicU64, d: &AtomicU64, maxd: &mut f64| {
        let old = load(&w[1]);
        let new =
            (1.0 - omega) * old + omega * 0.25 * (load(u) + load(d) + load(&w[0]) + load(&w[2]));
        w[1].store(new.to_bits(), Ordering::Relaxed);
        let delta = (new - old).abs();
        if delta > *maxd {
            *maxd = delta;
        }
    };
    let points = (end - first).div_ceil(2);
    let (mut even, mut odd) = (0.0f64, 0.0f64);
    // Pairs at columns c and c + 2: five row cells, four of `up`/`down`.
    // Each of the three zipped iterators yields exactly `points / 2` of
    // them; an odd last point is left over.
    let pairs = row[first - 1..=end]
        .windows(5)
        .step_by(4)
        .zip(up[first..=end].chunks_exact(4))
        .zip(down[first..=end].chunks_exact(4));
    for ((w, u), d) in pairs {
        relax(&w[..3], &u[0], &d[0], &mut even);
        relax(&w[2..], &u[2], &d[2], &mut odd);
    }
    if points % 2 == 1 {
        let c = first + 2 * (points - 1);
        relax(&row[c - 1..=c + 1], &up[c], &down[c], &mut even);
    }
    (points, if odd > even { odd } else { even })
}

/// Global row range `(first, count)` of section `s`.
fn section_rows(p: &SorParams, s: usize) -> (usize, usize) {
    let lo = s * p.rows / p.sections;
    let hi = (s + 1) * p.rows / p.sections;
    (lo, hi - lo)
}

/// Stripe of owned local rows `(1-based lo, exclusive hi)` of worker `w`.
fn worker_stripe(nrows: usize, workers: usize, w: usize) -> (usize, usize) {
    let lo = w * nrows / workers;
    let hi = (w + 1) * nrows / workers;
    (lo + 1, hi + 1)
}

// ---------------------------------------------------------------------------
// Wait/signal helpers: short shared invocations plus predicate-guarded parks.
// ---------------------------------------------------------------------------

fn wait_on<F>(ctx: &Ctx, sec: &ObjRef<Section>, waiters: WaiterList, pred: F)
where
    F: Fn(&Section) -> bool,
{
    let me = ctx.thread_id();
    loop {
        // The test runs under the list's lock, so no `signal` can take the
        // list between a false test and the push.
        let ok = ctx.invoke_shared(sec, |_, s| {
            let mut list = waiters.list(s).lock();
            if pred(s) {
                true
            } else {
                list.push(me);
                false
            }
        });
        if ok {
            return;
        }
        ctx.park("sor-wait");
    }
}

/// Which waiter list of the section a wait/signal pair uses.
#[derive(Clone, Copy)]
enum WaiterList {
    Ghost,
    Edge,
    Decision,
    Conv,
}

impl WaiterList {
    fn list(self, s: &Section) -> &Mutex<Vec<ThreadId>> {
        match self {
            WaiterList::Ghost => &s.ghost_waiters,
            WaiterList::Edge => &s.edge_waiters,
            WaiterList::Decision => &s.decision_waiters,
            WaiterList::Conv => &s.conv_waiters,
        }
    }
}

fn signal(ctx: &Ctx, sec: &ObjRef<Section>, waiters: WaiterList, action: impl Fn(&Section)) {
    let to_wake = ctx.invoke_shared(sec, |_, s| {
        action(s);
        std::mem::take(&mut *waiters.list(s).lock())
    });
    for t in to_wake {
        ctx.unpark(t);
    }
}

// ---------------------------------------------------------------------------
// The master object
// ---------------------------------------------------------------------------

/// Convergence master: collects per-section residuals each iteration and
/// decides whether the program stops.
///
/// Rendezvous is by iteration number (not a barrier generation), because the
/// decision lag lets sections sit up to `CONV_LAG` iterations apart.
pub struct Master {
    sections: usize,
    /// Per-iteration tallies: iteration -> (reports received, max delta).
    /// Sections may sit up to [`CONV_LAG`] iterations apart, so reports
    /// from different iterations interleave.
    reports: std::collections::HashMap<usize, (usize, f64)>,
    /// Max delta of the most recently decided iteration.
    last_delta: f64,
    epsilon: f64,
    max_iters: usize,
    /// Iterations fully decided so far.
    decided: u64,
    /// Convergence threads parked until their iteration is decided.
    waiters: Vec<ThreadId>,
    /// Iteration count at which to stop (established once).
    stop_at: Option<usize>,
}

impl AmberObject for Master {}

impl Master {
    /// Tallies one section's residual for `iter`. The report that completes
    /// the tally decides the iteration and returns the threads waiting on it.
    fn report(&mut self, iter: usize, delta: f64) -> Vec<ThreadId> {
        let entry = self.reports.entry(iter).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 = entry.1.max(delta);
        let (count, iter_delta) = *entry;
        if count < self.sections {
            return Vec::new();
        }
        // Sections report their iterations in order, so tallies complete in
        // iteration order too.
        self.reports.remove(&iter);
        self.last_delta = iter_delta;
        let converged = iter_delta < self.epsilon;
        let out_of_iters = iter + 1 >= self.max_iters;
        if self.stop_at.is_none() && (converged || out_of_iters) {
            // Fold the decision lag in so no section has already passed the
            // stop point; cap at the iteration budget.
            let at = if out_of_iters {
                iter + 1
            } else {
                (iter + 1 + CONV_LAG).min(self.max_iters)
            };
            self.stop_at = Some(at);
        }
        self.decided = iter as u64 + 1;
        std::mem::take(&mut self.waiters)
    }

    /// The stop iteration (`None`: run on) once `iter` is decided, or else
    /// `None`, with `me` registered to be woken by the deciding report.
    fn decision(&mut self, iter: usize, me: ThreadId) -> Option<Option<usize>> {
        if self.decided > iter as u64 {
            return Some(self.stop_at);
        }
        if !self.waiters.contains(&me) {
            self.waiters.push(me);
        }
        None
    }
}

// ---------------------------------------------------------------------------
// The parallel solver
// ---------------------------------------------------------------------------

/// Runs the Amber SOR program on a fresh simulated cluster and reports the
/// solve time, residual and communication totals.
pub fn run_amber_sor(p: SorParams) -> SorResult {
    run_amber_sor_on(Cluster::builder(), p)
}

/// Like [`run_amber_sor`] but on a cluster built by `builder` (its engine,
/// latency, deadline and so on), sized to `p.nodes` x `p.procs`.
pub fn run_amber_sor_on(builder: ClusterBuilder, p: SorParams) -> SorResult {
    assert!(
        p.sections >= 1 && p.rows >= p.sections,
        "degenerate partition"
    );
    let cluster = builder.nodes(p.nodes).processors(p.procs).build();
    let outcome = cluster
        .run(move |ctx| sor_main(ctx, p))
        .expect("SOR run failed");
    let net = cluster.net_stats();
    SorResult {
        elapsed: outcome.elapsed,
        iterations: outcome.iterations,
        checksum: outcome.checksum,
        max_delta: outcome.max_delta,
        msgs: net.total_msgs(),
        bytes: net.total_bytes(),
        digest: cluster.schedule_digest(),
    }
}

/// What `sor_main` hands back to the harness.
struct SolveOutcome {
    elapsed: SimTime,
    iterations: usize,
    checksum: f64,
    max_delta: f64,
}

fn sor_main(ctx: &Ctx, p: SorParams) -> SolveOutcome {
    let workers = p.workers_per_section();
    // The master lives on the boot node.
    let master = ctx.create(Master {
        sections: p.sections,
        reports: std::collections::HashMap::new(),
        last_delta: 0.0,
        epsilon: p.epsilon,
        max_iters: p.max_iters,
        decided: 0,
        waiters: Vec::new(),
        stop_at: None,
    });

    // Create the sections on their nodes, with per-section local barriers
    // attached so the whole apparatus co-locates.
    let mut sections: Vec<ObjRef<Section>> = Vec::with_capacity(p.sections);
    let mut local_barriers: Vec<Barrier> = Vec::with_capacity(p.sections);
    for s in 0..p.sections {
        let node = p.node_of_section(s);
        let sec = ctx.create_on(node, Section::new(&p, s));
        let lb = Barrier::new(ctx, workers);
        ctx.attach(&lb.object(), &sec);
        sections.push(sec);
        local_barriers.push(lb);
    }
    let sections = Arc::new(sections);
    // Each thread gets its own anchor object on the section's node: a
    // thread body runs as an (exclusive) operation on its Start target, so
    // anchors must not be shared.
    let anchor = |ctx: &Ctx, s: usize| ctx.create_on(p.node_of_section(s), 0u8);

    let t0 = ctx.now();
    let mut handles = Vec::new();

    for s in 0..p.sections {
        let sec = sections[s];
        let lb = local_barriers[s];
        let up = if s > 0 { Some(sections[s - 1]) } else { None };
        let down = if s + 1 < p.sections {
            Some(sections[s + 1])
        } else {
            None
        };

        // Worker threads.
        for w in 0..workers {
            let a = anchor(ctx, s);
            handles.push(ctx.start(&a, move |ctx, _| {
                worker_loop(ctx, p, sec, lb, w, workers, up.is_some(), down.is_some());
            }));
        }

        // Edge threads, one per existing neighbour.
        for (side, neigh) in [(0usize, up), (1usize, down)] {
            if let Some(n) = neigh {
                let a = anchor(ctx, s);
                handles.push(ctx.start(&a, move |ctx, _| {
                    edge_loop(ctx, sec, n, side);
                }));
            }
        }

        // Convergence thread.
        let a = anchor(ctx, s);
        handles.push(ctx.start(&a, move |ctx, _| {
            convergence_loop(ctx, sec, master);
        }));
    }

    for h in handles {
        h.join(ctx);
    }
    let elapsed = ctx.now() - t0;

    // Gather results.
    let iterations = ctx.invoke_shared(&sections[0], |_, s| {
        s.stop_at.load(Ordering::SeqCst) as usize
    });
    let max_delta = ctx.invoke_shared(&master, |_, m| m.last_delta);
    // Gather the checksum with a single running accumulator in global
    // row-major order, so it is bit-identical to the sequential solver's
    // flat sum (floating-point addition is not associative; per-section
    // partial sums would differ in the last bits).
    let mut checksum = 0.0;
    for sec in sections.iter() {
        let acc_in = checksum;
        checksum = ctx.invoke_shared(sec, move |_, s| {
            let mut sum = acc_in;
            for lr in 1..=s.nrows {
                for c in 0..s.cols {
                    sum += s.get(lr, c);
                }
            }
            sum
        });
    }
    SolveOutcome {
        elapsed,
        iterations,
        checksum,
        max_delta,
    }
}

/// How many iterations the convergence decision may trail the workers.
///
/// The paper's per-section convergence thread talks to the master while the
/// workers proceed; a lag of two iterations keeps that visit off the
/// critical path. The master folds the lag into the decided stop iteration,
/// so all sections still stop at exactly the same iteration.
const CONV_LAG: usize = 2;

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    ctx: &Ctx,
    p: SorParams,
    sec: ObjRef<Section>,
    lb: Barrier,
    w: usize,
    workers: usize,
    has_up: bool,
    has_down: bool,
) {
    let nrows = ctx.invoke_shared(&sec, |_, s| s.nrows);
    let cols = ctx.invoke_shared(&sec, |_, s| s.cols);
    let (point_cost, omega) = (p.point_cost, p.omega);
    // Row stripes (used by the no-overlap variant).
    let (lo, hi) = worker_stripe(nrows, workers, w);
    // Boundary ownership: the first worker owns the top edge row, the last
    // owns the bottom one (one worker owns both when the section is thin).
    let owns_top = w == 0;
    let owns_bottom = if nrows > 1 { w == workers - 1 } else { w == 0 };
    // Interior decomposition for the overlap variant: rows 2..nrows-1 are
    // column-sliced with widths weighted so boundary owners (who also
    // compute an edge row each) end up with equal total work.
    let interior_rows = nrows.saturating_sub(2);
    let half_cols = (cols.saturating_sub(2)) as f64 / 2.0;
    let total_pts = (nrows as f64) * half_cols;
    let target = total_pts / workers as f64;
    let my_boundary_pts =
        half_cols * ((owns_top as usize as f64) + ((owns_bottom && nrows > 1) as usize as f64));
    let (icol0, icol1) = {
        // Cumulative column assignment in points.
        let pts_per_col = interior_rows as f64 / 2.0;
        let mut start_pts = 0.0f64;
        for prev in 0..w {
            let prev_boundary = half_cols
                * (((prev == 0) as usize as f64)
                    + (((if nrows > 1 {
                        prev == workers - 1
                    } else {
                        prev == 0
                    }) && nrows > 1) as usize as f64));
            start_pts += (target - prev_boundary).max(0.0);
        }
        let my_pts = (target - my_boundary_pts).max(0.0);
        if pts_per_col <= f64::EPSILON {
            (1, 1)
        } else {
            let c0 = 1 + (start_pts / pts_per_col).round() as usize;
            let c1 = 1 + ((start_pts + my_pts) / pts_per_col).round() as usize;
            let c1 = if w == workers - 1 {
                cols - 1
            } else {
                c1.min(cols - 1)
            };
            (c0.min(cols - 1), c1)
        }
    };
    let mut iter: usize = 0;
    loop {
        for color in [Color::Black, Color::Red] {
            let phase = 2 * iter + color.parity();
            // Ghost freshness: black needs the previous iteration's red
            // exchange (count = iter), red needs this iteration's black
            // exchange (count = iter + 1).
            let need_opp = match color {
                Color::Black => iter as u64,
                Color::Red => iter as u64 + 1,
            };
            let opp = match color {
                Color::Black => Color::Red,
                Color::Red => Color::Black,
            };
            // Whether ghost row `side` holds the exchange this phase reads,
            // and a wait until it does.
            let ghost_fresh = move |s: &Section, side: usize| {
                s.ghost_ver[side][opp.index()].load(Ordering::SeqCst) >= need_opp
            };
            let wait_ghost = |side: usize| {
                wait_on(ctx, &sec, WaiterList::Ghost, move |s| ghost_fresh(s, side));
            };

            if p.overlap {
                let mut delta = 0.0f64;
                // Boundary rows dispatch their side's exchange as early as
                // possible. If the needed ghost is already in (the steady
                // state), the owner does its boundary row first; otherwise
                // it computes its interior slice while the ghost is on the
                // wire and does the boundary row afterwards.
                let ghost_in =
                    |side: usize| ctx.invoke_shared(&sec, move |_, s| ghost_fresh(s, side));
                let do_boundary = |ctx: &Ctx, lr: usize, sides: &[usize]| -> f64 {
                    let (pts, d) = ctx.invoke_shared(&sec, |_, s| s.relax_row(lr, color, omega));
                    ctx.work(point_cost * pts as u64);
                    for side in sides {
                        let side = *side;
                        signal(ctx, &sec, WaiterList::Edge, move |s| {
                            s.outbox[side]
                                .lock()
                                .push_back((phase, s.copy_edge(side, color)));
                        });
                    }
                    d
                };
                let my_boundary: Vec<(usize, Vec<usize>)> = {
                    // (row, sides to dispatch): an edge row reads the ghost
                    // row of each side it is shipped to, and only those
                    // (a one-row section's row reads and ships both).
                    let mut v = Vec::new();
                    if owns_top {
                        let mut sides = Vec::new();
                        if has_up {
                            sides.push(0);
                        }
                        if nrows == 1 && has_down {
                            sides.push(1);
                        }
                        v.push((1usize, sides));
                    }
                    if owns_bottom && nrows > 1 {
                        let mut sides = Vec::new();
                        if has_down {
                            sides.push(1);
                        }
                        v.push((nrows, sides));
                    }
                    v
                };
                // Early boundary rows (every ghost they read already in).
                let mut deferred: Vec<(usize, Vec<usize>)> = Vec::new();
                for (lr, sides) in my_boundary {
                    if sides.iter().all(|&side| ghost_in(side)) {
                        delta = delta.max(do_boundary(ctx, lr, &sides));
                    } else {
                        deferred.push((lr, sides));
                    }
                }
                // Interior column slice, overlapped with the exchange (and
                // with any ghost still on the wire). Work is charged row by
                // row so short runtime bursts (edge shipping, convergence)
                // interleave with compute instead of queueing behind a
                // monolithic burst — the role timeslicing plays on a real
                // multiprocessor node.
                for lr in 2..nrows.max(2) {
                    let (n, dx) = ctx.invoke_shared(&sec, |_, s| {
                        s.relax_row_cols(lr, color, omega, icol0, icol1)
                    });
                    ctx.work(point_cost * n as u64);
                    delta = delta.max(dx);
                }
                // Deferred boundary rows: wait for their ghosts, then
                // compute and dispatch.
                for (lr, sides) in deferred {
                    for &side in &sides {
                        wait_ghost(side);
                    }
                    delta = delta.max(do_boundary(ctx, lr, &sides));
                }
                ctx.invoke_shared(&sec, |_, s| {
                    let mut dl = s.delta[iter % 4].lock();
                    *dl = dl.max(delta);
                });
                lb.wait(ctx);
            } else {
                // No overlap: wait for the ghost rows this stripe reads,
                // compute the whole phase (row stripes), then start the
                // exchange; the processors sit idle while it is in flight.
                if has_up && lo == 1 && lo < hi {
                    wait_ghost(0);
                }
                if has_down && hi == nrows + 1 && lo < hi {
                    wait_ghost(1);
                }
                let mut d = 0.0f64;
                for lr in lo..hi {
                    let (n, dx) = ctx.invoke_shared(&sec, |_, s| s.relax_row(lr, color, omega));
                    ctx.work(point_cost * n as u64);
                    d = d.max(dx);
                }
                ctx.invoke_shared(&sec, |_, s| {
                    let mut dl = s.delta[iter % 4].lock();
                    *dl = dl.max(d);
                });
                if lb.wait(ctx) {
                    signal(ctx, &sec, WaiterList::Edge, move |s| {
                        if has_up {
                            s.outbox[0].lock().push_back((phase, s.copy_edge(0, color)));
                        }
                        if has_down {
                            s.outbox[1].lock().push_back((phase, s.copy_edge(1, color)));
                        }
                    });
                }
                lb.wait(ctx);
            }
        }

        // Iteration finished: one worker signals the convergence thread;
        // the decision is consumed CONV_LAG iterations later, except at the
        // very end of the budget where workers synchronize fully so nobody
        // overshoots max_iters.
        if lb.wait(ctx) {
            signal(ctx, &sec, WaiterList::Conv, |s| {
                s.conv_go.store(iter as u64 + 1, Ordering::SeqCst);
            });
        }
        let need = if iter + 1 >= p.max_iters {
            iter as u64 + 1
        } else {
            (iter + 1).saturating_sub(CONV_LAG) as u64
        };
        wait_on(ctx, &sec, WaiterList::Decision, move |s| {
            s.decision_ver.load(Ordering::SeqCst) >= need
        });
        let stop_at = ctx.invoke_shared(&sec, |_, s| s.stop_at.load(Ordering::SeqCst));
        iter += 1;
        if stop_at != 0 && iter as u64 >= stop_at {
            return;
        }
    }
}

fn edge_loop(ctx: &Ctx, sec: ObjRef<Section>, neighbour: ObjRef<Section>, side: usize) {
    // The ghost row we fill at the neighbour is its opposite side.
    let their_side = 1 - side;
    loop {
        wait_on(ctx, &sec, WaiterList::Edge, move |s| {
            !s.outbox[side].lock().is_empty() || s.stopped.load(Ordering::SeqCst) != 0
        });
        let item = ctx.invoke_shared(&sec, move |_, s| s.outbox[side].lock().pop_front());
        let Some((phase, vals)) = item else {
            // Outbox drained and the run is over.
            return;
        };
        let color = Color::of_phase(phase);
        // One carrying invocation ships the whole edge to the neighbour:
        // "the values for an entire edge of a section [are] transferred in
        // a single invocation" (section 6). It installs the ghost row and
        // takes the neighbour's ghost waiters in the same operation; the
        // return ships this thread home, where it wakes them.
        let bytes = vals.len() * 8;
        // Shared access: the ghost row and its version are interior-mutable
        // (atomics), so the install overlaps the neighbour's compute
        // operations instead of waiting behind them.
        let to_wake = ctx.invoke_shared_carrying(&neighbour, bytes, move |_, ns| {
            ns.install_ghost(their_side, color, &vals);
            std::mem::take(&mut *ns.ghost_waiters.lock())
        });
        for t in to_wake {
            ctx.unpark(t);
        }
    }
}

fn convergence_loop(ctx: &Ctx, sec: ObjRef<Section>, master: ObjRef<Master>) {
    let mut iter: usize = 0;
    let me = ctx.thread_id();
    loop {
        let want = iter as u64 + 1;
        wait_on(ctx, &sec, WaiterList::Conv, move |s| {
            s.conv_go.load(Ordering::SeqCst) >= want
        });
        let delta = ctx.invoke_shared(&sec, |_, s| {
            let mut d = s.delta[iter % 4].lock();
            let v = *d;
            *d = 0.0;
            v
        });
        // One visit to the master reports the residual and asks for the
        // decision; the report that completes a tally returns the threads
        // parked on it. The return ships this thread home.
        let (to_wake, mut decision) = ctx.invoke(&master, move |_, m| {
            (m.report(iter, delta), m.decision(iter, me))
        });
        for t in to_wake {
            ctx.unpark(t);
        }
        // Rendezvous by iteration number: until this iteration is decided,
        // park and ask again (a stale wake can end a park early).
        let stop_at = loop {
            if let Some(stop_at) = decision {
                break stop_at;
            }
            ctx.park("conv-decision-wait");
            decision = ctx.invoke(&master, move |_, m| m.decision(iter, me));
        };
        // Publish the decision at the section.
        let stopping = stop_at == Some(iter + 1);
        signal(ctx, &sec, WaiterList::Decision, move |s| {
            if let Some(at) = stop_at {
                s.stop_at.store(at as u64, Ordering::SeqCst);
            }
            if stopping {
                s.stopped.store(1, Ordering::SeqCst);
            }
            s.decision_ver.store(iter as u64 + 1, Ordering::SeqCst);
        });
        if stopping {
            // Release edge threads blocked on the outbox wait.
            signal(ctx, &sec, WaiterList::Edge, |_| {});
            return;
        }
        iter += 1;
    }
}

// ---------------------------------------------------------------------------
// Sequential baseline
// ---------------------------------------------------------------------------

/// Runs the sequential baseline arithmetic in plain Rust and returns
/// `(iterations, checksum, max_delta_of_last_iteration)`.
///
/// The update order (all black, then all red, row-major within a colour)
/// matches the parallel program exactly, so checksums agree bit for bit.
pub fn sor_sequential(p: &SorParams) -> (usize, f64, f64) {
    let cols = p.cols;
    // The cells the Amber sections hold, so both relax through one kernel.
    let grid: Vec<AtomicU64> = (0..p.rows * cols)
        .map(|i| AtomicU64::new(p.init_value(i / cols, i % cols).to_bits()))
        .collect();
    let row = |r: usize| &grid[r * cols..(r + 1) * cols];
    let mut last_delta = 0.0;
    let mut iters = 0;
    for iter in 0..p.max_iters {
        let mut maxd = 0.0f64;
        for color in [Color::Black, Color::Red] {
            for r in 1..p.rows - 1 {
                let first = color.first_col(r, 1);
                let (_, d) = relax_span(row(r - 1), row(r), row(r + 1), first, cols - 1, p.omega);
                maxd = maxd.max(d);
            }
        }
        last_delta = maxd;
        iters = iter + 1;
        if maxd < p.epsilon {
            break;
        }
    }
    let checksum = grid
        .iter()
        .map(|cell| f64::from_bits(cell.load(Ordering::Relaxed)))
        .sum();
    (iters, checksum, last_delta)
}

/// Simulated time of the sequential baseline: one thread on one processor
/// updating every interior point each iteration, with no communication.
pub fn sor_sequential_time(p: &SorParams, iterations: usize) -> SimTime {
    let interior = (p.rows - 2) * (p.cols - 2);
    p.point_cost * (interior as u64) * (iterations as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_grid_exactly() {
        let p = SorParams::small(4, 2);
        let mut covered = 0;
        let mut next = 0;
        for s in 0..p.sections {
            let (lo, n) = section_rows(&p, s);
            assert_eq!(lo, next);
            covered += n;
            next = lo + n;
        }
        assert_eq!(covered, p.rows);
    }

    #[test]
    fn worker_stripes_cover_section() {
        for nrows in [1usize, 3, 8, 17] {
            for workers in [1usize, 2, 4, 7] {
                let mut covered = 0;
                let mut next = 1;
                for w in 0..workers {
                    let (lo, hi) = worker_stripe(nrows, workers, w);
                    assert_eq!(lo, next);
                    covered += hi - lo;
                    next = hi;
                }
                assert_eq!(covered, nrows, "nrows={nrows} workers={workers}");
            }
        }
    }

    #[test]
    fn sequential_sor_converges_on_laplace() {
        let mut p = SorParams::small(1, 1);
        p.max_iters = 2000;
        p.epsilon = 1e-6;
        let (iters, checksum, delta) = sor_sequential(&p);
        assert!(iters < 2000, "did not converge");
        assert!(delta < 1e-6);
        // Steady state: interior averages between hot top and cold edges.
        assert!(checksum > 0.0);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let p = SorParams::small(2, 2);
        let (_, seq_sum, _) = sor_sequential(&p);
        let par = run_amber_sor(p);
        assert_eq!(par.iterations, p.max_iters);
        assert!(
            (par.checksum - seq_sum).abs() < 1e-9,
            "parallel {} != sequential {}",
            par.checksum,
            seq_sum
        );
    }

    #[test]
    fn parallel_matches_sequential_without_overlap() {
        let mut p = SorParams::small(2, 2);
        p.overlap = false;
        let (_, seq_sum, _) = sor_sequential(&p);
        let par = run_amber_sor(p);
        assert!((par.checksum - seq_sum).abs() < 1e-9);
    }

    #[test]
    fn convergence_stops_early() {
        let mut p = SorParams::small(2, 1);
        p.max_iters = 2000;
        p.epsilon = 1e-3;
        let par = run_amber_sor(p);
        assert!(par.iterations < 2000, "never converged");
        assert!(par.max_delta < 1e-3);
    }

    #[test]
    fn more_processors_run_faster_when_compute_dominates() {
        // A grid large enough that computation dominates communication
        // (for tiny grids the opposite holds — that is Figure 3's point,
        // asserted in `tiny_grids_do_not_speed_up`).
        let mut p1 = SorParams::small(1, 1);
        p1.rows = 64;
        p1.cols = 256;
        p1.sections = 2;
        p1.max_iters = 6;
        let mut p4 = p1;
        p4.nodes = 2;
        p4.procs = 2;
        let r1 = run_amber_sor(p1);
        let r4 = run_amber_sor(p4);
        assert!(
            r4.elapsed < r1.elapsed,
            "4 procs ({}) not faster than 1 ({})",
            r4.elapsed,
            r1.elapsed
        );
        let speedup = r1.elapsed.as_secs_f64() / r4.elapsed.as_secs_f64();
        assert!(speedup > 1.5, "speedup only {speedup:.2}");
    }

    #[test]
    fn tiny_grids_do_not_speed_up() {
        // Figure 3: "for sufficiently small grids [communication] will
        // dominate computation and limit speedup".
        let p1 = SorParams::small(1, 1);
        let p4 = SorParams::small(2, 2);
        let r1 = run_amber_sor(p1);
        let r4 = run_amber_sor(p4);
        let speedup = r1.elapsed.as_secs_f64() / r4.elapsed.as_secs_f64();
        assert!(
            speedup < 2.0,
            "a 24x32 grid should not scale, got {speedup:.2}"
        );
    }

    #[test]
    fn single_section_single_node_works() {
        let mut p = SorParams::small(1, 2);
        p.sections = 2; // small() forces >= 2; keep both on one node
        let (_, seq_sum, _) = sor_sequential(&p);
        let par = run_amber_sor(p);
        assert!((par.checksum - seq_sum).abs() < 1e-9);
        // All sections on one node: only convergence/barrier traffic re
        // the boot node, no edge traffic over the wire.
    }

    /// The stencil loop as `Section` wrote it before [`relax_span`]:
    /// every point read and written through `get` and `set`, an indexed
    /// and bounds-checked cell, and `f64::max`. Relaxes owned row `lr`,
    /// columns `first, first + 2, ..` below `end`.
    fn indexed_stencil(
        s: &Section,
        lr: usize,
        (first, end): (usize, usize),
        omega: f64,
    ) -> (usize, f64) {
        let mut maxd = 0.0f64;
        let mut count = 0usize;
        let mut c = first;
        while c < end {
            let old = s.get(lr, c);
            let sum = s.get(lr - 1, c) + s.get(lr + 1, c) + s.get(lr, c - 1) + s.get(lr, c + 1);
            let new = (1.0 - omega) * old + omega * 0.25 * sum;
            s.set(lr, c, new);
            maxd = maxd.max((new - old).abs());
            count += 1;
            c += 2;
        }
        (count, maxd)
    }

    /// A section of `rows` owned rows of `cols` columns (the middle one of
    /// three, so both ghost rows exist), every cell seeded: values in
    /// [-2, 2), or with `specials` every third cell a NaN, a signed zero or
    /// an infinity instead. Equal seeds give equal sections.
    fn seeded_section(rows: usize, cols: usize, seed: u64, specials: bool) -> Section {
        const SPECIAL: [f64; 5] = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        let p = SorParams {
            rows: 3 * rows,
            cols,
            sections: 3,
            ..SorParams::small(1, 1)
        };
        let s = Section::new(&p, 1);
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for (i, cell) in s.cells.iter().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = if specials && i % 3 == 0 {
                SPECIAL[(x % 5) as usize]
            } else {
                (x >> 11) as f64 / (1u64 << 51) as f64 - 2.0
            };
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
        s
    }

    /// Equal bits, except that any NaN equals any NaN: Rust leaves a NaN
    /// result's sign and payload unspecified, so which NaN operand of an
    /// addition propagates is the compiler's choice.
    fn assert_same_cells(a: &Section, b: &Section, what: &str) {
        for (i, (x, y)) in a.cells.iter().zip(&b.cells).enumerate() {
            let (x, y) = (
                f64::from_bits(x.load(Ordering::Relaxed)),
                f64::from_bits(y.load(Ordering::Relaxed)),
            );
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}: cell {i} is {x:?}, not {y:?}"
            );
        }
    }

    #[test]
    fn the_span_kernel_matches_the_indexed_stencil_bit_for_bit() {
        let mut spans = [0usize; 3];
        for cols in 3..=12 {
            for first in 1..cols {
                for end in first..cols {
                    for (seed, specials) in [(1, false), (2, true), (3, true)] {
                        let what = format!("cols {cols}, span {first}..{end}, seed {seed}");
                        let seed = (cols * 131 + first * 17 + end) as u64 ^ seed;
                        let ours = seeded_section(1, cols, seed, specials);
                        let theirs = seeded_section(1, cols, seed, specials);
                        let [up, row, down] = ours.rows_around(1);
                        let (n, d) = relax_span(up, row, down, first, end, 1.5);
                        let (m, e) = indexed_stencil(&theirs, 1, (first, end), 1.5);
                        assert_eq!(n, m, "{what}: points");
                        assert_eq!(d.to_bits(), e.to_bits(), "{what}: max |delta|");
                        assert_same_cells(&ours, &theirs, &what);
                        if n < spans.len() {
                            spans[n] += 1;
                        }
                    }
                }
            }
        }
        assert!(
            spans.iter().all(|&k| k > 0),
            "spans of 0, 1, 2 points: {spans:?}"
        );
    }

    #[test]
    fn column_pieces_relax_a_row_exactly_as_the_whole_row() {
        for cols in [9usize, 10, 31, 32] {
            // Cuts at odd and even columns, with empty pieces among them.
            let tilings: [&[usize]; 4] = [
                &[0, cols],
                &[0, 1, 4, 4, 7, cols],
                &[0, 2, 3, 5, cols - 1, cols],
                &[0, cols / 2, cols / 2 + 1, cols],
            ];
            for color in [Color::Black, Color::Red] {
                for (t, cuts) in tilings.iter().enumerate() {
                    let seed = (cols * 7 + t) as u64;
                    let whole = seeded_section(3, cols, seed, t % 2 == 1);
                    let pieces = seeded_section(3, cols, seed, t % 2 == 1);
                    for lr in 1..=whole.nrows {
                        let what = format!("cols {cols}, row {lr}, {color:?}, cuts {cuts:?}");
                        let (n, d) = whole.relax_row(lr, color, 1.5);
                        let (mut m, mut e) = (0, 0.0f64);
                        for piece in cuts.windows(2) {
                            let (k, dx) = pieces.relax_row_cols(lr, color, 1.5, piece[0], piece[1]);
                            m += k;
                            e = e.max(dx);
                        }
                        assert_eq!(n, m, "{what}: points");
                        assert_eq!(d.to_bits(), e.to_bits(), "{what}: max |delta|");
                        assert_same_cells(&whole, &pieces, &what);
                    }
                }
            }
        }
    }

    #[test]
    #[ignore = "looks at time: cargo test --release -p amber-apps -- --ignored"]
    fn the_span_kernel_costs_under_six_tenths_of_the_indexed_loop() {
        // The median of per-batch ratios taken in alternating batches in one
        // process, so host speed and drift cancel. Each batch relaxes both
        // colours of every row of a 122x842 section a few times, one side
        // through `relax_span` with the rows cut once each, the other
        // through the indexed loop it replaced. It reads 0.35-0.42x (1.3-2.2
        // ns a point against 3.6-5.2 ns on x86_64). The loop's `f64::max`
        // adds a NaN test to a running max every point waits on, and it
        // pays five bounds checks a point; the kernel with one running max
        // read 0.51-0.61x.
        const BATCHES: usize = 21;
        const SWEEPS: usize = 8;
        let (rows, cols) = (122usize, 842usize);
        let ours = seeded_section(rows, cols, 41, false);
        let theirs = seeded_section(rows, cols, 41, false);
        // Values in [1, 2) stay clear of subnormals as the sweeps smooth them.
        for s in [&ours, &theirs] {
            for cell in &s.cells {
                let v = f64::from_bits(cell.load(Ordering::Relaxed));
                cell.store((v.abs() / 2.0 + 1.0).to_bits(), Ordering::Relaxed);
            }
        }
        let time = |sweep: &dyn Fn(usize, usize) -> (usize, f64)| {
            let t0 = std::time::Instant::now();
            let mut points = 0;
            for _ in 0..SWEEPS {
                for color in [Color::Black, Color::Red] {
                    for lr in 1..=rows {
                        let (n, d) = sweep(lr, color.first_col(lr, 1));
                        points += n;
                        std::hint::black_box(d);
                    }
                }
            }
            t0.elapsed().as_nanos() as f64 / points as f64
        };
        let span = |lr: usize, first: usize| {
            let [up, row, down] = ours.rows_around(lr);
            relax_span(up, row, down, first, cols - 1, 1.5)
        };
        let indexed =
            |lr: usize, first: usize| indexed_stencil(&theirs, lr, (first, cols - 1), 1.5);
        let (mut ratios, mut spans, mut loops) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..BATCHES {
            let s = time(&span);
            let l = time(&indexed);
            ratios.push(s / l);
            spans.push(s);
            loops.push(l);
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (ratio, s, l) = (median(&mut ratios), median(&mut spans), median(&mut loops));
        println!("span kernel {s:.2} ns a point, indexed loop {l:.2} ns: {ratio:.2}x");
        assert_same_cells(&ours, &theirs, "after the timed sweeps");
        assert!(
            ratio <= 0.6,
            "the span kernel costs {s:.2} ns a point against {l:.2} ns for the indexed loop"
        );
    }

    /// A `wait_on` whose predicate reads the ghost version, then lingers
    /// until a concurrent `signal` has bumped it and returned (or half a
    /// second passes). Tested outside the waiter list's lock, the stale
    /// `false` parks the waiter after the signal took the still-empty list,
    /// and nothing wakes it: the run times out.
    #[test]
    fn a_signal_between_the_test_and_the_push_still_wakes_the_waiter() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let cluster = Cluster::builder()
            .nodes(1)
            .processors(2)
            .engine(amber_core::EngineChoice::Real)
            .latency(amber_core::LatencyModel::zero())
            .deadline(Duration::from_secs(3))
            .build();
        let outcome = cluster.run(|ctx| {
            let sec = ctx.create(Section::new(&SorParams::small(1, 2), 0));
            let read = Arc::new(AtomicBool::new(false));
            let signalled = Arc::new(AtomicBool::new(false));
            let (r, d) = (read.clone(), signalled.clone());
            let lingers = move |flag: &AtomicBool| {
                let t0 = Instant::now();
                while !flag.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_millis(500) {
                    std::thread::yield_now();
                }
            };
            let waiter = ctx.start(&ctx.create(0u8), move |ctx, _| {
                wait_on(ctx, &sec, WaiterList::Ghost, move |s| {
                    if s.ghost_ver[0][0].load(Ordering::SeqCst) >= 1 {
                        return true;
                    }
                    r.store(true, Ordering::SeqCst);
                    lingers(&d);
                    false
                });
            });
            let signaller = ctx.start(&ctx.create(0u8), move |ctx, _| {
                lingers(&read);
                signal(ctx, &sec, WaiterList::Ghost, |s| {
                    s.ghost_ver[0][0].fetch_add(1, Ordering::SeqCst);
                });
                signalled.store(true, Ordering::SeqCst);
            });
            waiter.join(ctx);
            signaller.join(ctx);
        });
        assert!(outcome.is_ok(), "{outcome:?}");
    }

    #[test]
    #[ignore = "a stress run: cargo test --release -p amber-apps -- --ignored"]
    fn a_thousand_zero_latency_real_engine_runs_match_the_sequential_solver() {
        // On OS threads with no network delay every ghost, edge and decision
        // wake races its waiter for real. A lost wake-up parks a thread for
        // good, and the short deadline fails the run.
        use std::time::Duration;
        for (nodes, procs) in [(1, 2), (2, 2)] {
            let p = SorParams {
                sections: 4,
                max_iters: 20,
                ..SorParams::small(nodes, procs)
            };
            let (iters, sum, _) = sor_sequential(&p);
            for run in 0..500 {
                let builder = Cluster::builder()
                    .engine(amber_core::EngineChoice::Real)
                    .latency(amber_core::LatencyModel::zero())
                    .deadline(Duration::from_secs(3));
                let r = run_amber_sor_on(builder, p);
                assert_eq!(
                    (r.iterations, r.checksum.to_bits()),
                    (iters, sum.to_bits()),
                    "{nodes}Nx{procs}P, run {run}"
                );
            }
        }
    }
}
