//! Protocol tests for the Amber runtime, one module per protocol.
//!
//! A test that asserts no virtual time runs on both engines: it loops over
//! [`ENGINES`] and builds each cluster with [`on`]. Only a test that asserts
//! a clock, a schedule, a digest, a pinned literal, a deadlock report, a
//! sweep over simulated delays or an advisor tick stays on the simulator.
//! No `RealEngine` twin of a test is written by hand.

use std::time::Duration;

use amber_engine::{LatencyModel, NodeId, SimTime};

use crate::{AmberObject, Cluster, ClusterBuilder, CostModel, EngineChoice, ProtocolSnapshot};

mod adaptive;
mod destroy;
mod invoke;
mod mobility;
mod sender_delivery;
mod trace;

/// The engines a clock-free protocol test runs on.
const ENGINES: [EngineChoice; 2] = [EngineChoice::Sim, EngineChoice::Real];

/// Builds `b` on `engine`. A real cluster gets a 50 us network, so the suite
/// stays fast, and a deadline, so a hang fails its test instead of blocking
/// the suite. The engine's name goes to the output a failing test prints.
fn on(engine: EngineChoice, b: ClusterBuilder) -> Cluster {
    println!("on {engine:?}");
    let b = match engine {
        EngineChoice::Sim => b,
        EngineChoice::Real => b
            .latency(LatencyModel::fixed(SimTime::from_us(50)))
            .deadline(Duration::from_secs(60)),
    };
    b.engine(engine).build()
}

/// Free CPU charges and a fixed 1 ms message latency: timing assertions
/// become exact message counts.
fn msg_counting(nodes: usize, procs: usize) -> ClusterBuilder {
    Cluster::builder()
        .nodes(nodes)
        .processors(procs)
        .cost_model(CostModel::zero())
        .latency(LatencyModel::fixed(SimTime::from_ms(1)))
}

struct Grid {
    cells: Vec<f64>,
}

impl AmberObject for Grid {
    fn transfer_size(&self) -> usize {
        std::mem::size_of::<Self>() + self.cells.len() * 8
    }
}
