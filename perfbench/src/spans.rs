//! The benchmark's own spans, one around each call it makes into a layer
//! of the program (`exec`, `core`, `sched`, `planner`, `sim`, `parallel`,
//! `tensor`). Spans nest: a span opened while another is open records it
//! as its parent, so each layer's self time (its duration minus what its
//! child spans cover) falls out at the end of the run.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub dur_s: f64,
    pub parent: Option<usize>,
}

/// An open span; close it with [`Spans::exit`].
#[must_use]
pub struct Open {
    idx: usize,
    start: Instant,
}

/// In-memory span log. Timing is always taken (the benchmark needs the
/// durations in untraced runs too); the log itself is kept only when
/// `record` is set.
pub struct Spans {
    record: bool,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(record: bool) -> Self {
        Self {
            record,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        let idx = self.spans.len();
        if self.record {
            let parent = self.stack.last().copied();
            self.spans.push(Span {
                layer,
                name,
                dur_s: 0.0,
                parent,
            });
            self.stack.push(idx);
        }
        Open {
            idx,
            start: Instant::now(),
        }
    }

    /// Close `open` and return its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let dur = open.start.elapsed().as_secs_f64();
        if self.record {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(open.idx), "spans must close innermost first");
            self.spans[open.idx].dur_s = dur;
        }
        dur
    }

    /// Time `f` inside a span; returns its result and duration in seconds.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.enter(layer, name);
        let out = f();
        (out, self.exit(open))
    }

    /// Per `(layer, name)`: call count, total seconds and self seconds.
    pub fn self_times(&self) -> BTreeMap<(&'static str, &'static str), (usize, f64, f64)> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_s;
            }
        }
        let mut out: BTreeMap<_, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry((s.layer, s.name)).or_default();
            e.0 += 1;
            e.1 += s.dur_s;
            e.2 += (s.dur_s - child[i]).max(0.0);
        }
        out
    }

    /// Human-readable self-time table, one row per `(layer, call)`.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<10} {:<22} {:>6} {:>12} {:>12}\n",
            "layer", "call", "calls", "total_s", "self_s"
        );
        for ((layer, name), (n, total, own)) in self.self_times() {
            out += &format!("{layer:<10} {name:<22} {n:>6} {total:>12.6} {own:>12.6}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let outer = s.enter("exec", "job");
        let (_, inner) = s.time("tensor", "gemm", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = s.exit(outer);
        let t = s.self_times();
        let (n, tot, own) = t[&("exec", "job")];
        assert_eq!(n, 1);
        assert_eq!(tot, total);
        assert!((own - (total - inner)).abs() < 1e-12);
        assert_eq!(
            t[&("tensor", "gemm")].2,
            inner,
            "a leaf's self time is its duration"
        );
    }

    #[test]
    fn unrecorded_spans_still_time() {
        let mut s = Spans::new(false);
        let (v, d) = s.time("exec", "job", || 7);
        assert_eq!(v, 7);
        assert!(d >= 0.0);
        assert!(s.self_times().is_empty());
    }
}
