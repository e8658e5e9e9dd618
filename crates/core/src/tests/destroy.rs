//! Creation and destruction: heap blocks and their reuse, the typed errors
//! of a dangling or busy reference, and destroys racing an invoke, a move
//! or a second destroy.

use super::*;
use crate::ProtocolError;

#[test]
fn remote_create_allocates_at_target_home() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        c.run(|ctx| {
            let obj = ctx.create_on(NodeId(1), 42u64);
            assert_eq!(ctx.locate(&obj), NodeId(1));
        })
        .unwrap();
        // The creation round trip used the network.
        assert!(c.net_stats().total_msgs() >= 2);
    }
}

#[test]
fn heap_exhaustion_extends_from_server() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        c.run(|ctx| {
            // Allocate ~3 MB on node 1 in 256 KB objects: needs extra regions.
            for _ in 0..12 {
                let v = ctx.create_on(NodeId(1), vec![0u8; 256 * 1024]);
                let _ = v;
            }
        })
        .unwrap();
        assert!(
            c.protocol_stats().region_extensions >= 2,
            "expected region extensions, saw {}",
            c.protocol_stats().region_extensions
        );
    }
}

#[test]
fn destroy_returns_block_for_reuse() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder());
        c.run(|ctx| {
            let a = ctx.create(vec![0u8; 1000]);
            let addr_a = ctx.addr_of(&a);
            ctx.destroy(a);
            let b = ctx.create(vec![0u8; 500]);
            // The freed 1000-byte block is reused whole for the 500-byte
            // object.
            assert_eq!(ctx.addr_of(&b), addr_a);
        })
        .unwrap();
    }
}

#[test]
fn destroyed_blocks_are_reused_across_types() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder());
        c.run(|ctx| {
            let a = ctx.create([0u64; 16]);
            let addr = ctx.addr_of(&a);
            ctx.destroy(a);
            // A different type reuses the same block; the old typed
            // reference is dead, the new one works.
            let b = ctx.create(String::from("hello"));
            assert_eq!(ctx.addr_of(&b), addr);
            let len = ctx.invoke_shared(&b, |_, s| s.len());
            assert_eq!(len, 5);
        })
        .unwrap();
    }
}

#[test]
fn invoking_a_destroyed_object_is_an_error() {
    // A dangling reference is a program error, but a *reportable* one: the
    // invoke halts its thread under a protocol-error label instead of
    // aborting the process, and the simulator's deadlock report names it.
    let c = Cluster::sim(1, 1);
    let err = c
        .run(|ctx| {
            let a = ctx.create(1u8);
            ctx.destroy(a);
            ctx.invoke(&a, |_, _| ());
        })
        .unwrap_err();
    assert!(
        err.to_string().contains("protocol-error: object-destroyed"),
        "{err}"
    );
}

#[test]
fn locating_a_destroyed_object_is_a_typed_error() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        c.run(|ctx| {
            let a = ctx.create_on(NodeId(1), 7u32);
            let addr = ctx.addr_of(&a);
            assert_eq!(ctx.try_locate(&a), Ok(NodeId(1)));
            ctx.destroy(a);
            assert_eq!(
                ctx.try_locate(&a),
                Err(ProtocolError::ObjectDestroyed(addr))
            );
        })
        .unwrap();
    }
}

#[test]
fn try_invoke_surfaces_destroyed_without_running_op() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2));
        c.run(|ctx| {
            let v = ctx.create_on(NodeId(1), 3u64);
            assert_eq!(ctx.try_invoke(&v, |_, n| *n).unwrap(), 3);
            assert_eq!(ctx.try_invoke_shared(&v, |_, n| *n).unwrap(), 3);
            let dangling = v; // ObjRef is Copy: keep a stale reference
            ctx.destroy(v);
            let mut ran = false;
            let err = ctx.try_invoke(&dangling, |_, _| ran = true).unwrap_err();
            assert!(matches!(err, ProtocolError::ObjectDestroyed(_)), "{err}");
            let err = ctx
                .try_invoke_shared(&dangling, |_, _| ran = true)
                .unwrap_err();
            assert!(matches!(err, ProtocolError::ObjectDestroyed(_)), "{err}");
            assert!(!ran, "op ran against a destroyed object");
        })
        .unwrap();
    }
}

#[test]
fn double_destroy_is_a_deterministic_typed_error() {
    for engine in ENGINES {
        let c = on(engine, Cluster::builder().nodes(2).processors(2));
        c.run(|ctx| {
            // Sequentially: the second destroy of the same reference reports
            // exactly which object was already gone.
            let a = ctx.create_on(NodeId(1), 5u64);
            let addr = ctx.addr_of(&a);
            assert_eq!(ctx.try_destroy(a), Ok(()));
            assert_eq!(
                ctx.try_destroy(a),
                Err(ProtocolError::ObjectDestroyed(addr))
            );

            // Racing from two nodes: exactly one destroyer wins; the loser
            // gets the same typed error, never a panic or a double free.
            let target = ctx.create_on(NodeId(1), 0u64);
            let anchor = ctx.create_on(NodeId(1), 0u8);
            let h = ctx.start(&anchor, move |ctx, _| ctx.try_destroy(target).is_ok());
            let mine = ctx.try_destroy(target).is_ok();
            let theirs = h.join(ctx);
            assert!(
                mine ^ theirs,
                "exactly one destroyer must win: mine={mine} theirs={theirs}"
            );
        })
        .unwrap();
    }
}

#[test]
fn destroy_waits_for_every_bound_reader() {
    // `bound` counts frames, not threads: with two readers inside the same
    // object, the first to return must not make it look idle.
    let c = Cluster::sim(1, 4);
    c.run(|ctx| {
        let obj = ctx.create(7u64);
        let addr = ctx.addr_of(&obj);
        let readers: Vec<_> = [5u64, 10]
            .into_iter()
            .map(|ms| {
                let seat = ctx.create(0u8);
                ctx.start(&seat, move |ctx, _| {
                    ctx.invoke_shared(&obj, |ctx, n| {
                        ctx.sleep(SimTime::from_ms(ms));
                        *n
                    })
                })
            })
            .collect();
        let busy = Err(ProtocolError::ObjectBusy(addr));
        ctx.sleep(SimTime::from_ms(3));
        assert_eq!(ctx.try_destroy(obj), busy, "two readers inside");
        ctx.sleep(SimTime::from_ms(4));
        assert_eq!(ctx.try_destroy(obj), busy, "one reader still inside");
        for r in readers {
            assert_eq!(r.join(ctx), 7);
        }
        assert_eq!(ctx.try_destroy(obj), Ok(()));
    })
    .unwrap();
}

#[test]
fn destroying_a_busy_object_is_a_typed_error() {
    let c = Cluster::sim(1, 2);
    c.run(|ctx| {
        // In-flight exclusive invocation: the destroy is declined, the
        // object and its invocation are untouched, and destroy succeeds
        // once the operation drains.
        let obj = ctx.create(0u64);
        let addr = ctx.addr_of(&obj);
        let anchor = ctx.create(0u8);
        let h = ctx.start(&anchor, move |ctx, _| {
            ctx.invoke(&obj, |ctx, n| {
                ctx.sleep(SimTime::from_ms(5));
                *n += 1;
            });
        });
        ctx.sleep(SimTime::from_ms(1));
        assert_eq!(ctx.try_destroy(obj), Err(ProtocolError::ObjectBusy(addr)));
        h.join(ctx);
        assert_eq!(ctx.invoke(&obj, |_, n| *n), 1, "declined destroy ran");
        assert_eq!(ctx.try_destroy(obj), Ok(()));

        // Attachment counts as busy on both ends: groups are destroyed by
        // unattaching first, never by tearing a member out from under the
        // group move machinery.
        let root = ctx.create(0u64);
        let child = ctx.create(0u64);
        ctx.attach(&child, &root);
        assert_eq!(
            ctx.try_destroy(root),
            Err(ProtocolError::ObjectBusy(ctx.addr_of(&root)))
        );
        assert_eq!(
            ctx.try_destroy(child),
            Err(ProtocolError::ObjectBusy(ctx.addr_of(&child)))
        );
        ctx.unattach(&child);
        assert_eq!(ctx.try_destroy(child), Ok(()));
        assert_eq!(ctx.try_destroy(root), Ok(()));
    })
    .unwrap();
}

#[test]
fn destroy_racing_remote_invoke_is_typed_never_a_panic() {
    // A remote invocation migrates the calling thread toward the object,
    // leaving a window between chase resolution and payload admission. A
    // destroy landing inside that window used to abort the process at
    // `expect("invocation of destroyed object")`; now the admission
    // re-checks liveness under the registry lock and the invoke surfaces
    // `ObjectDestroyed` without running the operation. Sweep the (virtual,
    // deterministic) destroy delay to hit the window.
    let mut invoke_lost = false;
    for delay_us in [0u64, 10, 50, 100, 200, 500, 1000, 2000, 5000, 10_000] {
        let c = Cluster::sim(2, 2);
        let (destroyed, invoked) = c
            .run(move |ctx| {
                let obj = ctx.create(0u64);
                let anchor = ctx.create_on(NodeId(1), 0u8);
                let h = ctx.start(&anchor, move |ctx, _| {
                    // Remote caller: the thread must cross the network, so
                    // the destroy below can land mid-flight.
                    ctx.try_invoke(&obj, |_, n| *n += 1).is_ok()
                });
                ctx.sleep(SimTime::from_us(delay_us));
                let destroyed = ctx.try_destroy(obj);
                (destroyed, h.join(ctx))
            })
            .unwrap();
        match destroyed {
            // Destroy won: the invoke must have seen the typed error.
            Ok(()) if !invoked => invoke_lost = true,
            // Invoke finished first, then the destroy succeeded.
            Ok(()) => {}
            // Destroy landed mid-invocation: declined, invoke completed.
            Err(ProtocolError::ObjectBusy(_)) => {
                assert!(invoked, "busy destroy but the invoke failed")
            }
            Err(e) => panic!("unexpected destroy outcome at {delay_us}us: {e}"),
        }
    }
    assert!(
        invoke_lost,
        "no sweep delay made the invoke observe the destroy"
    );
}

#[test]
fn destroy_racing_move_is_busy_never_a_panic() {
    // The move machinery flags the object `moving` while the transfer is in
    // flight; a destroy landing in that window is declined as ObjectBusy
    // rather than freeing a block mid-transfer. Sweep the destroy delay
    // over the move's network flight time.
    let mut hit_busy = false;
    for delay_us in [0u64, 10, 50, 100, 200, 500, 1000, 2000, 5000, 10_000] {
        let c = Cluster::sim(2, 2);
        let result = c.run(move |ctx| {
            let obj = ctx.create(0u64);
            let anchor = ctx.create_on(NodeId(1), 0u8);
            let h = ctx.start(&anchor, move |ctx, _| {
                ctx.move_to(&obj, NodeId(1));
            });
            ctx.sleep(SimTime::from_us(delay_us));
            let destroyed = ctx.try_destroy(obj);
            h.join(ctx);
            destroyed
        });
        match result {
            Ok(Ok(())) => {}
            Ok(Err(ProtocolError::ObjectBusy(_))) => hit_busy = true,
            Ok(Err(e)) => panic!("unexpected destroy outcome at {delay_us}us: {e}"),
            // Destroy won before the mover looked the object up: the
            // infallible `move_to` halts under the typed reason and the
            // simulator reports it — an error, never a process abort.
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("object-destroyed") || msg.contains("MoveTo on destroyed"),
                    "unexpected failure mode at {delay_us}us: {msg}"
                );
            }
        }
    }
    assert!(hit_busy, "no sweep delay hit the destroy-vs-move window");
}
