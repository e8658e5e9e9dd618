//! Spans recorded from outside the program: the harness times each call it
//! makes into the public API and keeps `{name, start, end, parent, op_id}`
//! in memory until the round is over.
//!
//! The tree is workload → round → call. An op that takes several public
//! calls (create + destroy, unattach + attach) records one span per call,
//! all carrying the op's id.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;
use crate::stats::percentile_sorted;

/// One timed public call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub worker: u32,
    pub op_id: u32,
}

/// A worker's span buffer. With tracing off it takes no timestamps, so the
/// untraced rounds that feed the end-to-end metrics pay one predictable
/// branch per call.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    worker: u32,
    spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by all of a round's recorders so their spans sit
    /// on one time axis; `capacity` pre-sizes the buffer so recording never
    /// reallocates inside the measured phase.
    pub fn new(on: bool, epoch: Instant, worker: u32, capacity: usize) -> Recorder {
        Recorder {
            on,
            epoch,
            worker,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    #[inline]
    pub fn timed<R>(&mut self, name: &'static str, op_id: u32, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            worker: self.worker,
            op_id,
        });
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Median, tail and count of one span name's durations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KindStats {
    pub samples: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// Per-name duration statistics, plus `"op"` over every span.
pub fn kind_stats(spans: &[Span]) -> BTreeMap<&'static str, KindStats> {
    let mut by_kind: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        let d = s.end_ns.saturating_sub(s.start_ns);
        by_kind.entry(s.name).or_default().push(d);
        by_kind.entry("op").or_default().push(d);
    }
    by_kind
        .into_iter()
        .map(|(k, mut d)| {
            d.sort_unstable();
            let st = KindStats {
                samples: d.len() as u64,
                p50_ns: percentile_sorted(&d, 50.0),
                p99_ns: percentile_sorted(&d, 99.0),
            };
            (k, st)
        })
        .collect()
}

/// Spans kept per worker in the written file: enough to look at, small
/// enough to open. The histograms use every span.
const FILE_SPANS_PER_WORKER: usize = 20_000;

/// Renders a round's spans in the Chrome trace-event format (opens in
/// Perfetto or `chrome://tracing`). Ids: the workload span is 0, the round
/// span 1, calls count up from 2; every call's parent is the round.
pub fn chrome_trace(workload: &str, round_ns: (u64, u64), spans: &[Span]) -> Value {
    let event = |name: &str, tid: u32, start: u64, end: u64, args: Value| {
        Value::obj([
            ("name", Value::Str(name.into())),
            ("ph", Value::Str("X".into())),
            ("pid", Value::Num(0.0)),
            ("tid", Value::Num(f64::from(tid))),
            ("ts", Value::Num(start as f64 / 1e3)),
            ("dur", Value::Num(end.saturating_sub(start) as f64 / 1e3)),
            ("args", args),
        ])
    };
    let ids = |id: u32, parent: Option<u32>, op_id: Option<u32>| {
        Value::obj([
            ("id", Value::Num(f64::from(id))),
            (
                "parent",
                parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
            ),
            (
                "op_id",
                op_id.map_or(Value::Null, |o| Value::Num(f64::from(o))),
            ),
        ])
    };
    let mut events = vec![
        event(workload, 0, round_ns.0, round_ns.1, ids(0, None, None)),
        event("round", 0, round_ns.0, round_ns.1, ids(1, Some(0), None)),
    ];
    let mut kept: BTreeMap<u32, usize> = BTreeMap::new();
    for s in spans {
        let n = kept.entry(s.worker).or_default();
        if *n >= FILE_SPANS_PER_WORKER {
            continue;
        }
        *n += 1;
        let id = events.len() as u32;
        // Worker lanes start at tid 1; tid 0 holds the enclosing spans.
        events.push(event(
            s.name,
            s.worker + 1,
            s.start_ns,
            s.end_ns,
            ids(id, Some(1), Some(s.op_id)),
        ));
    }
    Value::obj([
        ("displayTimeUnit", Value::Str("ns".into())),
        ("spans_recorded", Value::Num(spans.len() as f64)),
        ("traceEvents", Value::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, worker: u32, op_id: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            worker,
            op_id,
        }
    }

    #[test]
    fn recorder_off_records_nothing_and_on_records_each_call() {
        let epoch = Instant::now();
        let mut off = Recorder::new(false, epoch, 0, 8);
        assert_eq!(off.timed("x", 0, || 5), 5);
        assert!(off.into_spans().is_empty());

        let mut on = Recorder::new(true, epoch, 3, 8);
        assert_eq!(on.timed("x", 7, || 5), 5);
        on.timed("y", 8, || ());
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].worker, spans[0].op_id),
            ("x", 3, 7)
        );
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert!(spans[1].start_ns >= spans[0].end_ns);
    }

    #[test]
    fn kind_stats_split_by_name_and_pool_under_op() {
        let spans: Vec<Span> = (1..=100)
            .map(|i| span(if i <= 50 { "a" } else { "b" }, 0, i, 0, i as u32))
            .collect();
        let st = kind_stats(&spans);
        assert_eq!(
            st["a"],
            KindStats {
                samples: 50,
                p50_ns: 25,
                p99_ns: 50
            }
        );
        assert_eq!(st["b"].samples, 50);
        assert_eq!(
            st["op"],
            KindStats {
                samples: 100,
                p50_ns: 50,
                p99_ns: 99
            }
        );
    }

    #[test]
    fn chrome_trace_links_calls_to_the_round() {
        let spans = [span("move_to", 1_000, 3_500, 1, 42)];
        let v = chrome_trace("mobility_mix", (0, 10_000), &spans);
        let Some(Value::Arr(events)) = v.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 3);
        let call = &events[2];
        assert_eq!(call.get("name"), Some(&Value::Str("move_to".into())));
        assert_eq!(call.num("ts"), 1.0);
        assert_eq!(call.num("dur"), 2.5);
        let args = call.get("args").unwrap();
        assert_eq!(
            (args.num("id"), args.num("parent"), args.num("op_id")),
            (2.0, 1.0, 42.0)
        );
        assert_eq!(events[1].get("args").unwrap().num("parent"), 0.0);
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Value::Null)
        );
    }
}
