//! Table 1: latency of the five primitive Amber operations.
//!
//! Methodology mirrors the paper's (section 5): 4-processor nodes, light
//! load, packet-sized objects and threads, destinations already known (the
//! warm, common case). Each primitive is timed over a batch on the virtual
//! clock and averaged.

use amber_core::{Cluster, NodeId, SimTime};

/// Measured latencies of the five Table 1 operations.
#[derive(Clone, Copy, Debug)]
pub struct Table1 {
    /// Object creation.
    pub object_create: SimTime,
    /// Local invoke/return.
    pub local_invoke: SimTime,
    /// Remote invoke/return (nested under a local anchor, so the thread
    /// round-trips).
    pub remote_invoke: SimTime,
    /// Explicit move of a packet-sized object to another node.
    pub object_move: SimTime,
    /// Thread start plus join of a trivial thread.
    pub thread_start_join: SimTime,
}

/// The paper's measured values, for comparison columns.
pub fn paper_table1() -> Table1 {
    Table1 {
        object_create: SimTime::from_ms_f64(0.18),
        local_invoke: SimTime::from_ms_f64(0.012),
        remote_invoke: SimTime::from_ms_f64(8.32),
        object_move: SimTime::from_ms_f64(12.43),
        thread_start_join: SimTime::from_ms_f64(1.33),
    }
}

/// Measures Table 1 on the simulated Firefly cluster, and returns the
/// cluster's schedule digest with it.
pub fn measure_table1() -> (Table1, Option<u64>) {
    let cluster = Cluster::builder().nodes(2).processors(4).build();
    let table = cluster
        .run(|ctx| {
            const K: u64 = 64;

            // -- object create ------------------------------------------
            let t0 = ctx.now();
            let mut objs = Vec::new();
            for _ in 0..K {
                objs.push(ctx.create(0u64));
            }
            let object_create = (ctx.now() - t0) / K;

            // -- local invoke/return ------------------------------------
            let near = ctx.create(0u64);
            ctx.invoke(&near, |_, n| *n += 1); // warm
            let t0 = ctx.now();
            for _ in 0..K {
                ctx.invoke(&near, |_, n| *n += 1);
            }
            let local_invoke = (ctx.now() - t0) / K;

            // -- remote invoke/return ------------------------------------
            // Nested under a local anchor so every call round-trips, with
            // the location already cached (the paper's warm path).
            let anchor = ctx.create(0u8);
            let far = ctx.create_on(NodeId(1), 0u64);
            ctx.invoke(&anchor, |ctx, _| ctx.invoke(&far, |_, n| *n += 1)); // warm
            let t0 = ctx.now();
            ctx.invoke(&anchor, |ctx, _| {
                for _ in 0..K {
                    ctx.invoke(&far, |_, n| *n += 1);
                }
            });
            // Subtract the anchor's own local invoke.
            let remote_invoke = (ctx.now() - t0 - local_invoke) / K;

            // -- object move ---------------------------------------------
            // Fresh packet-sized objects, mover co-resident with the source.
            let movers: Vec<_> = (0..K).map(|_| ctx.create([0u8; 64])).collect();
            let t0 = ctx.now();
            for m in &movers {
                ctx.move_to(m, NodeId(1));
            }
            let object_move = (ctx.now() - t0) / K;

            // -- thread start/join ---------------------------------------
            let target = ctx.create(0u64);
            ctx.start(&target, |_, _| ()).join(ctx); // warm
            let t0 = ctx.now();
            for _ in 0..K {
                ctx.start(&target, |_, _| ()).join(ctx);
            }
            let thread_start_join = (ctx.now() - t0) / K;

            Table1 {
                object_create,
                local_invoke,
                remote_invoke,
                object_move,
                thread_start_join,
            }
        })
        .expect("table 1 measurement failed");
    (table, cluster.schedule_digest())
}

impl Table1 {
    /// Rows for [`crate::print_table`]: operation, paper ms, measured ms,
    /// measured/paper ratio.
    pub fn rows(&self, paper: &Table1) -> Vec<Vec<String>> {
        let row = |name: &str, p: SimTime, m: SimTime| {
            vec![
                name.to_string(),
                format!("{:.3}", p.as_ms_f64()),
                format!("{:.3}", m.as_ms_f64()),
                format!("{:.2}x", m.as_ms_f64() / p.as_ms_f64()),
            ]
        };
        vec![
            row("object create", paper.object_create, self.object_create),
            row("local invoke/return", paper.local_invoke, self.local_invoke),
            row(
                "remote invoke/return",
                paper.remote_invoke,
                self.remote_invoke,
            ),
            row("object move", paper.object_move, self.object_move),
            row(
                "thread start/join",
                paper.thread_start_join,
                self.thread_start_join,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn within(measured: SimTime, paper: SimTime, tolerance: f64) -> bool {
        let m = measured.as_ms_f64();
        let p = paper.as_ms_f64();
        (m - p).abs() / p <= tolerance
    }

    #[test]
    fn calibration_lands_on_the_paper() {
        let (m, _) = measure_table1();
        let p = paper_table1();
        assert!(
            within(m.object_create, p.object_create, 0.15),
            "create: {} vs {}",
            m.object_create,
            p.object_create
        );
        assert!(
            within(m.local_invoke, p.local_invoke, 0.15),
            "local: {} vs {}",
            m.local_invoke,
            p.local_invoke
        );
        assert!(
            within(m.remote_invoke, p.remote_invoke, 0.15),
            "remote: {} vs {}",
            m.remote_invoke,
            p.remote_invoke
        );
        assert!(
            within(m.object_move, p.object_move, 0.15),
            "move: {} vs {}",
            m.object_move,
            p.object_move
        );
        assert!(
            within(m.thread_start_join, p.thread_start_join, 0.15),
            "start/join: {} vs {}",
            m.thread_start_join,
            p.thread_start_join
        );
    }

    #[test]
    fn orders_of_magnitude_hold() {
        let (m, _) = measure_table1();
        // Remote is ~3 orders of magnitude above local (section 1.1).
        let ratio = m.remote_invoke.as_ns() as f64 / m.local_invoke.as_ns() as f64;
        assert!(ratio > 300.0, "remote/local ratio only {ratio:.0}");
        // A move costs more than a remote invocation.
        assert!(m.object_move > m.remote_invoke);
        // Thread start/join sits between local and remote invocation.
        assert!(m.thread_start_join > m.local_invoke);
        assert!(m.thread_start_join < m.remote_invoke);
    }
}
