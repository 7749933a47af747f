//! In-memory spans recorded by the benchmark around each public call.
//!
//! A span is `{id, parent, name, start, end}`; spans of one program round
//! (or one server request) share a root. Nothing inside the measured
//! crates is instrumented: children that the benchmark cannot observe
//! directly (a compile's passes, a run's kernel/copy/dispatch split) are
//! derived from the `Stats` / `PassRun` values the call returned and are
//! flagged `synthetic`. A span's self time is its duration minus the part
//! its children cover. Spans live in a `Vec` and are written out once,
//! at exit.

use crate::json::Json;
use std::borrow::Cow;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Derived from returned statistics, not from a clock read by the
    /// benchmark at the boundary.
    pub synthetic: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    /// Off: every call returns immediately and records nothing, so the
    /// untraced rounds of a traced run measure the tracing overhead.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Parent and end of the synthetic span added last: where its next
    /// synthetic sibling starts.
    last_synthetic: Option<(u32, u64)>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            last_synthetic: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. Names are almost
    /// always literals, so recording one allocates nothing.
    pub fn open(&mut self, name: impl Into<Cow<'static, str>>) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.into(),
            start_ns: now,
            end_ns: now,
            synthetic: false,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close a span returned by [`open`](Tracer::open) (spans close in
    /// LIFO order; anything opened inside and left open closes with it).
    pub fn close(&mut self, id: Option<u32>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Add a child of `parent` whose duration the callee reported.
    /// Synthetic siblings are laid end to end from the parent's start (or
    /// from the previous synthetic sibling's end); their placement is
    /// nominal, only their duration is measured.
    pub fn synthetic(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        dur_ns: u64,
    ) -> Option<u32> {
        let parent = parent?;
        let start = match self.last_synthetic {
            Some((p, end)) if p == parent => end,
            _ => self.spans[parent as usize].start_ns,
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name: Cow::Borrowed(name),
            start_ns: start,
            end_ns: start + dur_ns,
            synthetic: true,
        });
        self.last_synthetic = Some((parent, start + dur_ns));
        Some(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another tracer's spans (a server client's), re-basing ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }
}

/// Self time of every span: duration minus the sum of its children's
/// durations, clamped at zero (synthetic children can overshoot their
/// parent by clock granularity).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                    ("synthetic", Json::Bool(s.synthetic)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64, synthetic: bool) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}").into(),
            start_ns: start,
            end_ns: end,
            synthetic,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_synthetic_children() {
        // root [0,100) → run [10,90) → {io synthetic 30, body synthetic 50
        // → kernel synthetic 45}
        let spans = vec![
            span(0, None, 0, 100, false),
            span(1, Some(0), 10, 90, false),
            span(2, Some(1), 10, 40, true),
            span(3, Some(1), 40, 90, true),
            span(4, Some(3), 40, 85, true),
        ];
        assert_eq!(self_times(&spans), vec![20, 0, 30, 5, 45]);
    }

    #[test]
    fn overshooting_synthetic_child_clamps_to_zero() {
        let spans = vec![span(0, None, 0, 10, false), span(1, Some(0), 0, 12, true)];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    #[test]
    fn tracer_nests_and_lays_synthetic_children_end_to_end() {
        let mut t = Tracer::new(Instant::now());
        assert_eq!(t.open("ignored while off"), None);
        t.on = true;
        let root = t.open("program");
        let run = t.open("run");
        let a = t.synthetic(run, "io", 7);
        let b = t.synthetic(run, "body", 11);
        t.close(run);
        t.close(root);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, root);
        assert_eq!(s[a.unwrap() as usize].dur_ns(), 7);
        assert_eq!(
            s[b.unwrap() as usize].start_ns,
            s[a.unwrap() as usize].end_ns
        );
        assert!(s[2].synthetic && !s[1].synthetic);
        assert!(s[0].end_ns >= s[1].end_ns);
        assert_eq!(t.synthetic(None, "x", 1), None);
    }

    #[test]
    fn absorb_rebases_ids() {
        let mut a = Tracer::new(Instant::now());
        let mut b = Tracer::new(Instant::now());
        a.on = true;
        b.on = true;
        let r = a.open("r");
        a.close(r);
        let q = b.open("q");
        let c = b.open("c");
        b.close(c);
        b.close(q);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].id, s[1].parent), (1, None));
        assert_eq!((s[2].id, s[2].parent), (2, Some(1)));
    }
}
