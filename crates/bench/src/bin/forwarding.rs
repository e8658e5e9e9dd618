//! Mobility experiments A4 and A5 (DESIGN.md section 4), on the virtual
//! clock: a `Locate` through forwarding chains of increasing length, before
//! and after the probe's hint caching collapses them, and a `MoveTo` of
//! attachment groups of increasing size.

use amber_core::{Cluster, NodeId, SimTime};

/// Virtual times of the first locate through a chain of `len` hops and of
/// the locate after it, which finds the location the first one cached.
fn locate_through_chain(len: usize) -> (SimTime, SimTime) {
    Cluster::sim(len + 1, 1)
        .run(move |ctx| {
            let obj = ctx.create(0u32);
            for hop in 1..=len {
                ctx.move_to(&obj, NodeId::from(hop));
            }
            // The probing thread stays on node 0, the head of the chain, so
            // the cold probe walks it in full.
            let t0 = ctx.now();
            ctx.locate(&obj);
            let t1 = ctx.now();
            ctx.locate(&obj);
            (t1 - t0, ctx.now() - t1)
        })
        .expect("forwarding-chain run failed")
}

/// Virtual time of moving an attachment group of `size` 256-byte objects.
fn move_group(size: usize) -> SimTime {
    Cluster::sim(2, 1)
        .run(move |ctx| {
            let root = ctx.create(vec![0u8; 256]);
            for _ in 1..size {
                let child = ctx.create(vec![0u8; 256]);
                ctx.attach(&child, &root);
            }
            let t0 = ctx.now();
            ctx.move_to(&root, NodeId(1));
            ctx.now() - t0
        })
        .expect("group-move run failed")
}

fn ms(t: SimTime) -> String {
    format!("{:.3}", t.as_ms_f64())
}

fn main() {
    let chains: Vec<_> = [0usize, 1, 2, 4, 8]
        .into_iter()
        .map(|len| {
            let (cold, warm) = locate_through_chain(len);
            vec![len.to_string(), ms(cold), ms(warm)]
        })
        .collect();
    amber_bench::print_table(
        "A4: Locate through a forwarding chain (ms)",
        &["hops", "cold", "warm"],
        &chains,
    );
    let groups: Vec<_> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|size| vec![size.to_string(), ms(move_group(size))])
        .collect();
    amber_bench::print_table(
        "A5: MoveTo of an attachment group (ms)",
        &["objects", "move"],
        &groups,
    );
}
