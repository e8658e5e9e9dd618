//! Network latency and CPU cost models.
//!
//! The reproduction separates *what the protocols do* (implemented in
//! `amber-core`) from *what each step costs* (declared here). Under the
//! discrete-event engine every network message is delayed by the
//! [`LatencyModel`] and every protocol step charges virtual CPU time from the
//! [`CostModel`]; under the real engine the latency model is applied with
//! real sleeps and the CPU charges are no-ops (real code has real cost).
//!
//! The `firefly()` presets are calibrated so that the simulated latencies of
//! the five primitive operations land on the paper's Table 1 (measured on
//! 4-CPU CVAX DEC Fireflies over 10 Mbit/s Ethernet under Topaz):
//!
//! | operation            | paper (ms) |
//! |----------------------|-----------:|
//! | object create        | 0.18       |
//! | local invoke/return  | 0.012      |
//! | remote invoke/return | 8.32       |
//! | object move          | 12.43      |
//! | thread start/join    | 1.33       |
//!
//! The calibration is checked by an integration test; Figures 2 and 3 are
//! then *predictions* of the calibrated model, not separately tuned.

use crate::time::SimTime;

/// Models the latency of one network message as a fixed per-message term
/// plus a per-byte term.
///
/// This is the classic linear cost model `T(n) = alpha + beta * n`, which is
/// an excellent fit for 1989-era Ethernet RPC: a large fixed software
/// overhead (protocol stack, interrupts, marshalling buffers) plus wire time
/// at 10 Mbit/s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed one-way cost per message (software path plus media access).
    pub per_message: SimTime,
    /// Additional cost per payload byte (wire time).
    pub per_byte: SimTime,
}

impl LatencyModel {
    /// No network cost at all. Useful for tests that only exercise protocol
    /// logic, and as the base for the real engine's fastest configuration.
    pub const fn zero() -> Self {
        LatencyModel {
            per_message: SimTime::ZERO,
            per_byte: SimTime::ZERO,
        }
    }

    /// 10 Mbit/s Ethernet with a Topaz-RPC-class fixed software overhead,
    /// as on the paper's Firefly testbed.
    ///
    /// 10 Mbit/s is 1.25 bytes/us, i.e. 0.8 us/byte. The fixed term is the
    /// dominant cost for small packets; it is calibrated (together with the
    /// [`CostModel`] CPU terms) so a remote invoke/return round trip lands
    /// on the paper's 8.32 ms.
    pub const fn ethernet_10mbit() -> Self {
        LatencyModel {
            per_message: SimTime::from_us(2_585),
            per_byte: SimTime::from_ns(800),
        }
    }

    /// A uniform fixed latency per message with free bytes. Useful for
    /// ablations that isolate message *count* from message *size*.
    pub const fn fixed(per_message: SimTime) -> Self {
        LatencyModel {
            per_message,
            per_byte: SimTime::ZERO,
        }
    }

    /// The one-way latency of a message carrying `bytes` of payload.
    pub fn latency(&self, bytes: usize) -> SimTime {
        self.per_message + SimTime::from_ns(self.per_byte.as_ns() * bytes as u64)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::ethernet_10mbit()
    }
}

/// CPU costs of the Amber runtime's protocol steps, charged as virtual work
/// by `amber-core` at the matching points of each protocol.
///
/// All constants model a ~3 MIPS CVAX processor executing the 1989 runtime;
/// see the module docs for the calibration targets. Every field is public so
/// experiments can perturb individual steps (e.g. "what if marshalling were
/// free?") without forking the runtime.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Heap allocation plus descriptor initialisation for a new object.
    pub object_create: SimTime,
    /// Entry half of a local invocation: residency check (a branch-on-bit
    /// instruction) plus the call overhead measured by the paper.
    pub local_invoke: SimTime,
    /// Return half of a local invocation: post-pop residency re-check.
    pub local_return: SimTime,
    /// Detecting a non-resident descriptor and trapping to the kernel.
    pub remote_trap: SimTime,
    /// Marshalling a migrating thread (control block, registers, live stack).
    pub thread_marshal: SimTime,
    /// Unmarshalling an arriving thread and enqueueing it on the destination
    /// scheduler.
    pub remote_dispatch: SimTime,
    /// Kernel work to initiate an object move (descriptor flip, bound-thread
    /// identification).
    pub move_initiate: SimTime,
    /// Marshalling an object's contents for a move.
    pub object_marshal: SimTime,
    /// Installing a moved object at its destination (descriptor update,
    /// bound-thread requeue).
    pub move_install: SimTime,
    /// Preempting one processor so its thread re-checks residency (charged
    /// once per processor on the source node of a move).
    pub preempt_per_processor: SimTime,
    /// Allocating and initialising a new thread object and its stack segment.
    pub thread_create: SimTime,
    /// Scheduler enqueue/dequeue pair for making a thread runnable.
    pub sched_enqueue: SimTime,
    /// One context switch (used by Join wake-up and condition signalling).
    pub context_switch: SimTime,
    /// Following one forwarding-address hop at an intermediate node.
    pub forward_hop: SimTime,
    /// Looking up a region's owner at the address-space server (CPU only;
    /// the message cost is charged by the latency model).
    pub region_lookup: SimTime,
    /// Size in bytes of a migrating thread's wire representation (registers
    /// plus the live top of its stack); the paper's benchmarks assume a
    /// thread fits in one network packet.
    pub thread_packet_bytes: usize,
    /// Size in bytes of a small control message (move request, ack, locate).
    pub control_packet_bytes: usize,
}

impl CostModel {
    /// Calibration matching the paper's Firefly/Topaz testbed (Table 1).
    pub const fn firefly() -> Self {
        CostModel {
            object_create: SimTime::from_us(180),
            local_invoke: SimTime::from_us(8),
            local_return: SimTime::from_us(4),
            remote_trap: SimTime::from_us(100),
            thread_marshal: SimTime::from_us(300),
            remote_dispatch: SimTime::from_us(200),
            move_initiate: SimTime::from_us(2_400),
            object_marshal: SimTime::from_us(1_200),
            move_install: SimTime::from_us(3_360),
            preempt_per_processor: SimTime::from_us(50),
            thread_create: SimTime::from_us(894),
            sched_enqueue: SimTime::from_us(100),
            context_switch: SimTime::from_us(120),
            forward_hop: SimTime::from_us(150),
            region_lookup: SimTime::from_us(200),
            thread_packet_bytes: 1024,
            control_packet_bytes: 64,
        }
    }

    /// All CPU charges zero. Useful for tests that assert protocol structure
    /// (message counts, event ordering) independent of timing.
    pub const fn zero() -> Self {
        CostModel {
            object_create: SimTime::ZERO,
            local_invoke: SimTime::ZERO,
            local_return: SimTime::ZERO,
            remote_trap: SimTime::ZERO,
            thread_marshal: SimTime::ZERO,
            remote_dispatch: SimTime::ZERO,
            move_initiate: SimTime::ZERO,
            object_marshal: SimTime::ZERO,
            move_install: SimTime::ZERO,
            preempt_per_processor: SimTime::ZERO,
            thread_create: SimTime::ZERO,
            sched_enqueue: SimTime::ZERO,
            context_switch: SimTime::ZERO,
            forward_hop: SimTime::ZERO,
            region_lookup: SimTime::ZERO,
            thread_packet_bytes: 1024,
            control_packet_bytes: 64,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::firefly()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_linear_in_bytes() {
        let m = LatencyModel {
            per_message: SimTime::from_us(100),
            per_byte: SimTime::from_ns(800),
        };
        assert_eq!(m.latency(0), SimTime::from_us(100));
        assert_eq!(
            m.latency(1000),
            SimTime::from_us(100) + SimTime::from_us(800)
        );
    }

    #[test]
    fn zero_model_is_free() {
        assert_eq!(LatencyModel::zero().latency(1 << 20), SimTime::ZERO);
    }

    #[test]
    fn ethernet_wire_rate_is_10_mbit() {
        // 1250 bytes at 10 Mbit/s take exactly 1 ms of wire time.
        let m = LatencyModel::ethernet_10mbit();
        let wire = m.latency(1250) - m.per_message;
        assert_eq!(wire, SimTime::from_ms(1));
    }

    #[test]
    fn local_invoke_cost_matches_table1() {
        // Table 1: local invoke/return is 12 us total.
        let c = CostModel::firefly();
        assert_eq!(c.local_invoke + c.local_return, SimTime::from_us(12));
    }
}
