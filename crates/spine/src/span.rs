//! In-memory spans recorded by the harness around its calls into each
//! layer. One recorder per process, used from the driving thread only; it
//! is written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span. `parent` indexes the recorder's list.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    recs: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let now = self.now_ns();
        self.recs.push(SpanRec {
            name,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let id = self.recs.len() - 1;
        self.stack.push(id);
        SpanId(id)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.recs[id.0].end_ns = self.now_ns();
        self.recs[id.0].dur_ns()
    }

    /// Record a child of the innermost open span whose duration was
    /// measured elsewhere (summed clock reads inside a callback, a wall
    /// time a layer reports about itself). It is placed at its parent's
    /// start; only its length matters to the self-time arithmetic.
    pub fn child(&mut self, name: &'static str, dur_ns: u64) {
        let parent = *self.stack.last().expect("child needs an open parent");
        let start_ns = self.recs[parent].start_ns;
        self.recs.push(SpanRec {
            name,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(SpanRec::dur_ns)
            .sum()
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 * 1e-9
    }

    /// Self time per span name: each span's duration minus what its direct
    /// children cover, never below zero.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                covered[p] += r.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (r, c) in self.recs.iter().zip(covered) {
            *out.entry(r.name).or_insert(0) += r.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Share of the summed duration of the spans called `root` that none of
    /// their children covers: the part of the traced wall no layer owns.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let total = self.total_ns(root);
        if total == 0 {
            return 0.0;
        }
        self.self_ns().get(root).copied().unwrap_or(0) as f64 / total as f64
    }

    /// One JSON object per span: name, parent index, start and end in ns
    /// since the recorder was created.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                r.name, r.start_ns, r.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    fn fixed(recs: Vec<SpanRec>) -> Spans {
        Spans {
            t0: Instant::now(),
            recs,
            stack: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let s = fixed(vec![
            rec("round", None, 0, 1000),
            rec("rollout", Some(0), 100, 500),
            rec("baseline", Some(1), 100, 250),
            rec("update", Some(0), 500, 900),
            rec("round", None, 1000, 1100),
        ]);
        let me = s.self_ns();
        // round: (1000 - 400 - 400) + 100; grandchildren do not count twice.
        assert_eq!(me["round"], 300);
        assert_eq!(me["rollout"], 250);
        assert_eq!(me["baseline"], 150);
        assert_eq!(me["update"], 400);
        assert_eq!(s.total_ns("round"), 1100);
        assert_eq!(me.values().sum::<u64>(), s.total_ns("round"));
        assert_eq!(s.unattributed_share("round"), 300.0 / 1100.0);
        assert_eq!(s.unattributed_share("absent"), 0.0);
    }

    #[test]
    fn children_longer_than_their_parent_leave_zero_self_time() {
        // A child summed across worker threads can exceed its parent's wall.
        let s = fixed(vec![
            rec("rollout", None, 0, 100),
            rec("baseline", Some(0), 0, 180),
        ]);
        assert_eq!(s.self_ns()["rollout"], 0);
    }

    #[test]
    fn enter_exit_nest_and_child_attaches_to_the_open_span() {
        let mut s = Spans::new();
        let a = s.enter("a");
        let b = s.enter("b");
        s.child("c", 7);
        s.exit(b);
        s.exit(a);
        let r = s.records();
        assert_eq!(r[0].parent, None);
        assert_eq!(r[1].parent, Some(0));
        assert_eq!((r[2].name, r[2].parent, r[2].dur_ns()), ("c", Some(1), 7));
        assert!(r[0].start_ns <= r[1].start_ns && r[1].end_ns <= r[0].end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut s = Spans::new();
        let a = s.enter("a");
        let _b = s.enter("b");
        s.exit(a);
    }
}
