//! The closed list: mechanisms a simplification removed from the protocol,
//! each kept out by one rule over the source tree. ROADMAP.md's "Closed"
//! paragraph names them; every rule quotes its reason from there.
//!
//! A rule forbids literal fragments in the lines of the files under its
//! paths, or asks for an exact number of lines holding them. Paths are
//! relative to the current directory, which `cargo test` sets to the package
//! root, so the compiled test also runs unchanged from the root of any other
//! copy of the tree (`git archive <rev> | tar -x -C <dir>`, then run the test
//! binary there).

use std::path::Path;

/// One mechanism that must not come back.
struct Rule {
    name: &'static str,
    /// The PR that closed it.
    closed_by: u32,
    /// Why it stays out, from ROADMAP.md's "Closed" paragraph.
    why: &'static str,
    scans: &'static [Scan],
}

/// One search over part of the tree.
struct Scan {
    /// Files or directories, each searched recursively as `grep -r` does.
    /// A path that holds no file fails the rule.
    paths: &'static [&'static str],
    /// Cut each file from the first line that starts with `#[cfg(test)]`
    /// to its end, as `sed '/^#\[cfg(test)\]/,$d'` does.
    strip_tests: bool,
    /// File names skipped wherever they appear, as `grep --exclude` does.
    exclude: &'static [&'static str],
    /// A line holding any of these fragments matches...
    forbid: &'static [&'static str],
    /// ...unless it also holds one of these.
    allow: &'static [&'static str],
    /// `None`: no line may match. `Some(n)`: exactly `n` lines must.
    count: Option<usize>,
    /// A line the scan matches, so a fragment that can match nothing fails.
    sample: &'static str,
}

const SCAN: Scan = Scan {
    paths: &[],
    strip_tests: false,
    exclude: &[],
    forbid: &[],
    allow: &[],
    count: None,
    sample: "",
};

/// Everything a name could come back in.
const TREE: &[&str] = &["crates", "src", "tests", "examples"];

const RULES: &[Rule] = &[
    Rule {
        name: "One book",
        closed_by: 22,
        why: "one book for every counted fact: Tracer::emit counts it in the rows of engine/src/stats.rs and nothing else keeps a count",
        scans: &[Scan {
            paths: TREE,
            forbid: &[
                "TraceSummary",
                "EventCounters",
                "fn record_send",
                "fn record_drop",
                "fn record_retransmit",
                "fn record_dup_",
                "fn record_partition",
            ],
            sample: "pub struct TraceSummary {",
            ..SCAN
        }],
    },
    Rule {
        name: "One writer per count",
        closed_by: 38,
        why: "each OS thread counts into a shard of NetStats rows that only it writes; do not bring back a fetch_add on a row that threads share",
        scans: &[Scan {
            paths: &["crates/engine/src/stats.rs"],
            strip_tests: true,
            forbid: &[".fetch_", ".swap(", ".compare_exchange"],
            allow: &["NEXT_ID.fetch_add"],
            sample: "self.rows[node].fetch_add(1, Ordering::Relaxed);",
            ..SCAN
        }],
    },
    Rule {
        name: "One dispatch step",
        closed_by: 23,
        why: "no dispatcher thread: whoever gives the baton up runs SimInner::pass_baton, and simulated threads are fibers, not OS threads",
        scans: &[
            Scan {
                paths: TREE,
                forbid: &["dispatch_cv", "dispatcher_loop", "amber-dispatcher"],
                sample: "fn dispatcher_loop(inner: Arc<SimInner>) {",
                ..SCAN
            },
            Scan {
                paths: &["crates/engine/src/sim.rs"],
                strip_tests: true,
                forbid: &["thread::Builder", "Gate", "done_cv"],
                sample: "let gate = Arc::new(Gate::new());",
                ..SCAN
            },
        ],
    },
    Rule {
        name: "One leg",
        closed_by: 29,
        why: "a leg is one engine call: every message core sends is an Engine::leg, with no wake-up closure of core's",
        scans: &[Scan {
            paths: &["crates/core/src"],
            forbid: &["set_node", "engine.send("],
            sample: "self.engine.send(from, to, bytes, Box::new(move || t.set_node(to)));",
            ..SCAN
        }],
    },
    Rule {
        name: "One registry lock",
        closed_by: 30,
        why: "one registry lock: no shards, no lock_group, no topology lock",
        scans: &[Scan {
            paths: TREE,
            forbid: &[
                "lock_group",
                "OBJ_SHARDS",
                "shard_of",
                "RegistryShard",
                "LockLevel::Topology",
                "GroupGuard",
            ],
            sample: "let guard = self.lock_group(root);",
            ..SCAN
        }],
    },
    Rule {
        name: "One residency lock",
        closed_by: 33,
        why: "every node's DescriptorTable sits under the registry guard and a chase step is one visit; do not give a table a lock of its own",
        scans: &[Scan {
            paths: &["crates/core/src", "crates/verify/src"],
            forbid: &[
                "descriptors.read",
                "descriptors.write",
                "OrderedRwLock",
                "DescriptorTable(",
                "ChaseStep::Lagging",
            ],
            sample: "let table = node.descriptors.read();",
            ..SCAN
        }],
    },
    Rule {
        name: "One record per object",
        closed_by: 34,
        why: "replica installs and advisor counts live in the object's entry; do not keep a fact about one object outside its entry",
        scans: &[Scan {
            paths: TREE,
            forbid: &[
                "replicating",
                "release_replication_claim",
                "PaddedCounter",
                "total_activity",
                "LockLevel",
            ],
            sample: "replicating: Mutex<HashMap<ObjectId, NodeId>>,",
            ..SCAN
        }],
    },
    Rule {
        name: "One kernel lock",
        closed_by: 37,
        why: "heaps, region maps, the address-space server and the tick's armed flag sit under the registry guard; do not give kernel state a raw mutex or an atomic beside it",
        scans: &[Scan {
            paths: &["crates/core/src"],
            forbid: &[
                "NodeKernel",
                "Mutex<NodeHeap>",
                "Mutex<RegionMap>",
                "Mutex<AddressSpaceServer>",
                "armed: AtomicBool",
            ],
            sample: "heap: Mutex<NodeHeap>,",
            ..SCAN
        }],
    },
    Rule {
        name: "One guard per payload",
        closed_by: 35,
        why: "the entry owns its payload and admission lends it; do not put a lock or a refcount under admission again",
        scans: &[Scan {
            paths: &["crates", "src", "tests", "examples", "shims"],
            forbid: &["RwLock", "ObjectCell"],
            sample: "payload: Arc<ObjectCell>,",
            ..SCAN
        }],
    },
    Rule {
        name: "One grant",
        closed_by: 39,
        why: "admission is one function, Kernel::admit, with one loan; tests.rs forces a second on purpose to show the borrow word catches it",
        scans: &[Scan {
            paths: &["crates/core/src"],
            exclude: &["tests.rs"],
            forbid: &["payload.loan(access, true)"],
            count: Some(1),
            sample: "let lent = unsafe { entry.payload.loan(access, true) };",
            ..SCAN
        }],
    },
    Rule {
        name: "One owner for the simulator's state",
        closed_by: 36,
        why: "the simulator's state has an owner, not a lock; do not put SimState back under a mutex",
        scans: &[
            Scan {
                paths: &["crates/engine/src"],
                forbid: &["Mutex<SimState>", "MutexGuard<'_, SimState>"],
                sample: "state: Mutex<SimState>,",
                ..SCAN
            },
            Scan {
                paths: &["shims"],
                forbid: &["fn unlocked"],
                sample: "pub fn unlocked<U>(guard: &mut Self, f: impl FnOnce() -> U) -> U {",
                ..SCAN
            },
        ],
    },
    Rule {
        name: "One reliability layer",
        closed_by: 31,
        why: "the fault layer runs on the engines' own queues; do not bring back a callback trait between the layer and an engine",
        scans: &[Scan {
            paths: &["crates/engine/src"],
            forbid: &["trait Transport", "FaultNet", "Weak<dyn"],
            sample: "pub trait Transport: Send + Sync {",
            ..SCAN
        }],
    },
    Rule {
        name: "One message path",
        closed_by: 40,
        why: "a perfect network is a FaultPlan with no faults; do not bring back an optional window, a plan-less arrival event or a closure per message on the timer thread",
        scans: &[Scan {
            paths: &["crates/engine/src"],
            forbid: &[
                "Option<Links",
                "Option<Mutex<Links",
                "Event::Arrive",
                "into_event",
                "Job::Run",
            ],
            sample: "links: Option<Mutex<Links>>,",
            ..SCAN
        }],
    },
    Rule {
        name: "One stencil kernel",
        closed_by: 41,
        why: "relax_span relaxes a row span for the section, its column split and sor_sequential; do not give a solver its own copy of the loop",
        scans: &[Scan {
            paths: &["crates/apps/src/sor.rs"],
            strip_tests: true,
            forbid: &["omega * 0.25 *"],
            count: Some(1),
            sample: "let gs = omega * 0.25 * (up + down + left + right);",
            ..SCAN
        }],
    },
    Rule {
        name: "One invocation per edge, one master visit per report",
        closed_by: 45,
        why: "each invocation of a remote object is a round trip: an edge thread installs the ghost row and takes the neighbour's waiters in one invocation, and a convergence thread reports and asks for the decision in one visit to the master; the one shared read of the master left is the final residual",
        scans: &[
            Scan {
                paths: &["crates/apps/src/sor.rs"],
                strip_tests: true,
                forbid: &["invoke_shared(&neighbour"],
                sample: "let to_wake = ctx.invoke_shared(&neighbour, |_, ns| {",
                ..SCAN
            },
            Scan {
                paths: &["crates/apps/src/sor.rs"],
                strip_tests: true,
                forbid: &["invoke_shared(&master"],
                count: Some(1),
                sample: "let stop_at = ctx.invoke_shared(&master, |_, m| m.stop_at);",
                ..SCAN
            },
        ],
    },
    Rule {
        name: "One queue of data",
        closed_by: 43,
        why: "engine events are data: the simulator's queue holds thread ids and the fault layer's typed items and its step runs no handler, and the Engine trait takes no closure but a thread body; do not bring back send, after or a timer closure",
        scans: &[
            Scan {
                paths: &["crates/engine/src/sim.rs"],
                forbid: &["run_handler", "Event::Timer", "Payload::Handler", "fn send("],
                sample: "Event::Timer(handler) => st = self.run_handler(st, handler),",
                ..SCAN
            },
            Scan {
                paths: &["crates/engine/src"],
                forbid: &["KernelFn", "fn after("],
                sample: "fn after(&self, delay: SimTime, f: KernelFn);",
                ..SCAN
            },
            Scan {
                paths: &["crates/core/src"],
                forbid: &[".after("],
                sample: ".after(p.tick, Box::new(move || engine.unblock_kernel(daemon)));",
                ..SCAN
            },
        ],
    },
    Rule {
        name: "One key per event",
        closed_by: 44,
        why: "the simulator's queue is a heap of integer keys, each packing an event's instant, sequence number and payload slot; do not bring back a heap of whole events ordered through trait impls",
        scans: &[Scan {
            paths: &["crates/engine/src/sim.rs"],
            strip_tests: true,
            forbid: &["struct Queued", "Reverse<Queued>"],
            sample: "    events: BinaryHeap<Reverse<Queued>>,",
            ..SCAN
        }],
    },
    Rule {
        name: "One gate per thread",
        closed_by: 40,
        why: "one gate per RealEngine thread, with a permit count per wake class; do not give the kernel a gate of its own",
        scans: &[Scan {
            paths: &["crates/engine/src"],
            forbid: &["kernel_gate"],
            sample: "kernel_gate: Gate,",
            ..SCAN
        }],
    },
    Rule {
        name: "One digest per pinned run",
        closed_by: 48,
        why: "one digest per pinned run; do not bring back a dump switch or hand-run traced pairs as the no-behaviour-change proof",
        scans: &[Scan {
            paths: &["crates", "src"],
            forbid: &["AMBER_TRACE_DIR", "mod dump", "run_amber_sor_capture"],
            sample: "    std::env::var_os(\"AMBER_TRACE_DIR\").map(std::path::PathBuf::from)",
            ..SCAN
        }],
    },
];

/// A file's path and text.
type File = (String, String);

impl Scan {
    /// Whether `line` holds a forbidden fragment and no allowed one.
    fn matches(&self, line: &str) -> bool {
        self.forbid.iter().any(|f| line.contains(f)) && !self.allow.iter().any(|a| line.contains(a))
    }

    /// The matching lines of one file's text, numbered from 1.
    fn hits<'t>(&self, text: &'t str) -> Vec<(usize, &'t str)> {
        text.lines()
            .enumerate()
            .take_while(|(_, line)| !(self.strip_tests && line.starts_with("#[cfg(test)]")))
            .filter(|(_, line)| self.matches(line))
            .map(|(i, line)| (i + 1, line))
            .collect()
    }
}

/// Every failure of `rule`, one message each, over the files `files` lists
/// under a path.
fn failures(rule: &Rule, files: &dyn Fn(&str) -> Vec<File>) -> Vec<String> {
    let mut out = Vec::new();
    for scan in rule.scans {
        let mut hits = Vec::new();
        for path in scan.paths {
            let found = files(path);
            if found.is_empty() {
                out.push(format!("{path} matches no file"));
            }
            for (name, text) in &found {
                let base = Path::new(name).file_name().and_then(|b| b.to_str());
                // The table holds every forbidden fragment, so this file is
                // outside every rule.
                if name == file!() || base.is_some_and(|b| scan.exclude.contains(&b)) {
                    continue;
                }
                for (n, line) in scan.hits(text) {
                    hits.push(format!("{name}:{n}: {}", line.trim()));
                }
            }
        }
        match scan.count {
            Some(n) if hits.len() != n => {
                out.push(format!(
                    "{} lines hold {:?}, not exactly {n}",
                    hits.len(),
                    scan.forbid
                ));
                out.extend(hits);
            }
            Some(_) => {}
            None => out.extend(hits),
        }
    }
    out
}

/// Every file at or under `path`, in name order. Below `path` symbolic
/// links are skipped, as `grep -r` skips them.
fn files_on_disk(path: &str) -> Vec<File> {
    fn walk(path: &Path, out: &mut Vec<File>) {
        if path.is_file() {
            if let Ok(bytes) = std::fs::read(path) {
                let text = String::from_utf8_lossy(&bytes).into_owned();
                out.push((path.display().to_string(), text));
            }
        } else if let Ok(dir) = std::fs::read_dir(path) {
            let mut entries: Vec<_> = dir
                .filter_map(Result::ok)
                .filter(|e| e.file_type().is_ok_and(|t| !t.is_symlink()))
                .map(|e| e.path())
                .collect();
            entries.sort();
            for entry in entries {
                walk(&entry, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(Path::new(path), &mut out);
    out
}

#[test]
fn the_closed_list_holds() {
    let mut failing = 0;
    for rule in RULES {
        let failures = failures(rule, &files_on_disk);
        if failures.is_empty() {
            continue;
        }
        failing += 1;
        println!(
            "{} (closed by PR {}): {} failures",
            rule.name,
            rule.closed_by,
            failures.len()
        );
        for failure in &failures {
            println!("  {} (PR {}): {failure}", rule.name, rule.closed_by);
        }
        println!("  why: {}", rule.why);
    }
    assert!(
        failing == 0,
        "{failing} of {} closed-list rules fail; see above",
        RULES.len()
    );
}

#[test]
fn every_scan_matches_its_sample() {
    for rule in RULES {
        for scan in rule.scans {
            assert!(
                scan.hits(scan.sample).len() == 1,
                "{}: the sample {:?} matches nothing",
                rule.name,
                scan.sample
            );
        }
    }
}

#[test]
fn only_an_unindented_cfg_test_strips() {
    let scan = Scan {
        strip_tests: true,
        forbid: &["Gate"],
        ..SCAN
    };
    assert_eq!(
        scan.hits("fn a() {}\n    #[cfg(test)]\nstruct Gate;\n"),
        [(3, "struct Gate;")]
    );
    assert!(scan
        .hits("fn a() {}\n#[cfg(test)]\nstruct Gate;\n")
        .is_empty());
    let whole = Scan {
        strip_tests: false,
        ..scan
    };
    assert_eq!(whole.hits("#[cfg(test)]\nstruct Gate;\n").len(), 1);
}

#[test]
fn an_exact_count_fails_at_zero_and_at_two() {
    let Some(grant) = RULES.iter().find(|r| r.name == "One grant") else {
        panic!("the table has no \"One grant\" rule");
    };
    let loan = "let lent = unsafe { entry.payload.loan(access, true) };\n";
    let failures_at = |loans: usize| {
        failures(grant, &|path: &str| {
            vec![
                (format!("{path}/kernel.rs"), loan.repeat(loans)),
                // Excluded by name: its loans never count.
                (format!("{path}/tests.rs"), loan.repeat(3)),
            ]
        })
    };
    assert!(!failures_at(0).is_empty());
    assert!(failures_at(1).is_empty());
    assert_eq!(failures_at(2).len(), 3, "{:?}", failures_at(2));
}

#[test]
fn a_path_that_matches_no_file_fails() {
    let gone = Rule {
        name: "renamed away",
        closed_by: 0,
        why: "",
        scans: &[Scan {
            paths: &["crates/no_such_crate/src"],
            forbid: &["anything"],
            ..SCAN
        }],
    };
    assert_eq!(
        failures(&gone, &files_on_disk),
        ["crates/no_such_crate/src matches no file"]
    );
    for rule in RULES {
        assert!(
            !failures(rule, &|_| Vec::new()).is_empty(),
            "{} passes with no files to read",
            rule.name
        );
    }
}
