//! Span-tree tracing of algebra execution.
//!
//! A [`TraceSink`] attached to an [`ExecContext`](crate::ExecContext) (via
//! [`ExecContext::traced`](crate::ExecContext::traced)) records one
//! [`Span`] per relation-level operator invocation — kind, tuples in/out,
//! candidate pairs, pruned tuples, simplified atoms, the largest common
//! period seen, and wall time — arranged as a tree: a span opened while
//! another is still open becomes its child. Higher layers (the query
//! evaluator) can interleave their own *node* spans via
//! [`ExecContext::node_span`](crate::ExecContext::node_span), so an
//! EXPLAIN ANALYZE tree shows each plan node with the operator calls it
//! issued underneath.
//!
//! # Determinism
//!
//! Span ids are assigned from a context-local counter in *begin order*.
//! Every span begins on the thread driving the evaluation (parallelism
//! lives *inside* an operator, behind [`std::thread::scope`], which joins
//! before the operator returns), so the tree shape and ids are identical
//! at any thread budget — only the recorded wall times differ. Strip them
//! with [`Trace::without_timing`] to compare traces across runs.
//!
//! # Exactness
//!
//! Every operator call counts into its own record (the call's scoped
//! workers add into it too, and join before the call returns). When the
//! call returns, that one record is both merged into the context's totals
//! and stored on the call's span, so [`Trace::op_totals`] reproduces the
//! context's [`StatsSnapshot`] exactly — wall time included.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::exec::{Combine, OpKind, OpSnapshot, StatsSnapshot};

/// What a span stands for: an algebra operator call, or a node label
/// supplied by a higher layer (a query plan node, a REPL phase, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanLabel {
    /// One relation-level `*_in` operator invocation.
    Op(OpKind),
    /// A caller-labelled region (see
    /// [`ExecContext::node_span`](crate::ExecContext::node_span)).
    Node(String),
}

impl SpanLabel {
    /// Display name: the operator's stable name, or the node label.
    pub fn name(&self) -> &str {
        match self {
            SpanLabel::Op(kind) => kind.name(),
            SpanLabel::Node(label) => label,
        }
    }

    /// Whether this is an operator span.
    pub fn is_op(&self) -> bool {
        matches!(self, SpanLabel::Op(_))
    }
}

/// One recorded region of work. Ids are dense: span `i` is `spans()[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Deterministic id (begin order, starting at 0).
    pub id: u64,
    /// Id of the innermost span still open when this one began.
    pub parent: Option<u64>,
    /// Number of ancestors (roots have depth 0).
    pub depth: u32,
    /// Operator kind or node label.
    pub label: SpanLabel,
    /// Stable id of the query-plan node this span executes, if the caller
    /// supplied one (see
    /// [`ExecContext::plan_span`](crate::ExecContext::plan_span)). Lets
    /// EXPLAIN ANALYZE join plan and trace by id instead of by label text.
    pub plan_node: Option<u64>,
    /// What the span counted. An operator span holds the record of its one
    /// call (`calls == 1`); a node span holds only the tuples it produced
    /// and its wall time. `nanos` stays 0 until the span ends.
    pub counters: OpSnapshot,
    /// Begin time, nanoseconds since the sink was created.
    pub start_nanos: u64,
}

impl Span {
    /// Wall time as a [`Duration`].
    pub fn wall_time(&self) -> Duration {
        self.counters.wall_time()
    }
}

#[derive(Debug, Default)]
struct SinkInner {
    /// Open spans, outermost first.
    stack: Vec<u64>,
    spans: Vec<Span>,
}

/// Collects spans for one [`ExecContext`](crate::ExecContext).
///
/// Created by [`ExecContext::traced`](crate::ExecContext::traced); read
/// back as a [`Trace`] via
/// [`ExecContext::take_trace`](crate::ExecContext::take_trace). All
/// methods are internal — operators and the query layer drive the sink
/// through the context.
#[derive(Debug)]
pub struct TraceSink {
    epoch: Instant,
    inner: Mutex<SinkInner>,
}

impl TraceSink {
    pub(crate) fn new() -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            inner: Mutex::new(SinkInner::default()),
        }
    }

    /// Opens a span under the innermost open span; returns its id.
    pub(crate) fn begin(&self, label: SpanLabel, plan_node: Option<u64>) -> u64 {
        let start_nanos = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        let id = inner.spans.len() as u64;
        let parent = inner.stack.last().copied();
        let depth = inner.stack.len() as u32;
        inner.stack.push(id);
        inner.spans.push(Span {
            id,
            parent,
            depth,
            label,
            plan_node,
            counters: OpSnapshot::default(),
            start_nanos,
        });
        id
    }

    /// Closes span `id`, applying `fill` to write its final counters.
    pub(crate) fn end(&self, id: u64, fill: impl FnOnce(&mut Span)) {
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        inner.stack.retain(|open| *open != id);
        if let Some(span) = inner.spans.get_mut(id as usize) {
            fill(span);
        }
    }

    /// Mutates an open span in place (e.g. a node span's output count).
    pub(crate) fn update(&self, id: u64, f: impl FnOnce(&mut Span)) {
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        if let Some(span) = inner.spans.get_mut(id as usize) {
            f(span);
        }
    }

    /// Drains the recorded spans (ids stay dense and start at 0 again for
    /// spans recorded afterwards).
    pub(crate) fn take(&self) -> Trace {
        let mut inner = self.inner.lock().expect("trace sink poisoned");
        inner.stack.clear();
        Trace {
            spans: std::mem::take(&mut inner.spans),
        }
    }
}

/// RAII guard for a caller-labelled span; see
/// [`ExecContext::node_span`](crate::ExecContext::node_span).
///
/// The span opens when the guard is created and closes when it drops. On
/// an untraced context the guard is inert.
#[derive(Debug)]
pub struct NodeSpan<'a> {
    sink: Option<(&'a TraceSink, u64)>,
    start: Instant,
}

impl<'a> NodeSpan<'a> {
    pub(crate) fn new(
        sink: Option<&'a TraceSink>,
        label: impl FnOnce() -> String,
        plan_node: Option<u64>,
    ) -> NodeSpan<'a> {
        NodeSpan {
            sink: sink.map(|s| (s, s.begin(SpanLabel::Node(label()), plan_node))),
            start: Instant::now(),
        }
    }

    /// Records how many tuples this region produced.
    pub fn set_tuples_out(&self, n: u64) {
        if let Some((sink, id)) = self.sink {
            sink.update(id, |span| span.counters.tuples_out = n);
        }
    }
}

impl Drop for NodeSpan<'_> {
    fn drop(&mut self) {
        if let Some((sink, id)) = self.sink.take() {
            let nanos = self.start.elapsed().as_nanos() as u64;
            sink.end(id, |span| span.counters.nanos = nanos);
        }
    }
}

/// An immutable span tree drained from a [`TraceSink`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// All spans in begin order; `spans()[i].id == i`.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Top-level spans (no parent), in begin order.
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// Direct children of span `id`, in begin order.
    pub fn children(&self, id: u64) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// The first span recorded for plan node `id` (see
    /// [`ExecContext::plan_span`](crate::ExecContext::plan_span)), if any.
    pub fn span_for_plan_node(&self, id: u64) -> Option<&Span> {
        self.spans.iter().find(|s| s.plan_node == Some(id))
    }

    /// Sums the operator counters attributed to plan node `id`: every
    /// operator span whose *nearest* enclosing node span carries that plan
    /// id. Work issued by a node's children is charged to the children,
    /// not rolled up — this is the "actual" column of EXPLAIN ANALYZE.
    pub fn op_totals_for_plan_node(&self, id: u64) -> StatsSnapshot {
        let mut totals = StatsSnapshot::default();
        for span in &self.spans {
            let SpanLabel::Op(kind) = span.label else {
                continue;
            };
            // Climb to the nearest ancestor that is a node span.
            let mut at = span.parent;
            let owner = loop {
                match at {
                    Some(p) => {
                        let parent = &self.spans[p as usize];
                        if parent.label.is_op() {
                            at = parent.parent;
                        } else {
                            break Some(parent);
                        }
                    }
                    None => break None,
                }
            };
            if owner.and_then(|s| s.plan_node) == Some(id) {
                totals.ops[kind.index()].merge(&span.counters);
            }
        }
        totals
    }

    /// A copy with `start_nanos` and `counters.nanos` zeroed on every
    /// span — the timing-independent tree shape, suitable for equality
    /// comparison across runs and thread counts.
    pub fn without_timing(&self) -> Trace {
        Trace {
            spans: self
                .spans
                .iter()
                .map(|s| Span {
                    start_nanos: 0,
                    counters: s.counters.without_timing(),
                    ..s.clone()
                })
                .collect(),
        }
    }

    /// Sums the operator spans back into a [`StatsSnapshot`].
    ///
    /// For a trace drained from a fresh context this equals the context's
    /// own aggregate [`stats`](crate::ExecContext::stats) exactly, wall
    /// time included — the acceptance check that no operator work escapes
    /// the span tree. Node spans contribute nothing.
    pub fn op_totals(&self) -> StatsSnapshot {
        let mut totals = StatsSnapshot::default();
        for span in &self.spans {
            if let SpanLabel::Op(kind) = span.label {
                totals.ops[kind.index()].merge(&span.counters);
            }
        }
        totals
    }

    /// Folds the span tree into flamegraph *collapsed stack* lines — one
    /// `frame;frame;frame self_nanos` line per distinct root-to-span
    /// path with nonzero self time, merged and sorted lexicographically
    /// (the format `inferno` / `flamegraph.pl` consume).
    ///
    /// Self time is a span's wall time minus its direct children's, so
    /// the lines sum back to the roots' total wall time. Frame names are
    /// the span labels with `;` (the stack separator) and newlines
    /// replaced; spaces are legal because the sample value follows the
    /// *last* space.
    pub fn to_folded(&self) -> String {
        fn frame(span: &Span) -> String {
            span.label
                .name()
                .chars()
                .map(|c| match c {
                    ';' => ':',
                    '\n' | '\r' => ' ',
                    c => c,
                })
                .collect()
        }
        let mut stacks: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for span in &self.spans {
            let children: u64 = self.children(span.id).map(|c| c.counters.nanos).sum();
            let self_nanos = span.counters.nanos.saturating_sub(children);
            if self_nanos == 0 {
                continue;
            }
            let mut frames = vec![frame(span)];
            let mut at = span.parent;
            while let Some(p) = at {
                let parent = &self.spans[p as usize];
                frames.push(frame(parent));
                at = parent.parent;
            }
            frames.reverse();
            *stacks.entry(frames.join(";")).or_insert(0) += self_nanos;
        }
        let mut out = String::new();
        for (stack, nanos) in stacks {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&nanos.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders the span tree as indented text (the `\trace` REPL view and
    /// the EXPLAIN ANALYZE annotation).
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let roots: Vec<&Span> = self.roots().collect();
        for (i, root) in roots.iter().enumerate() {
            self.render_node(&mut out, root, "", i + 1 == roots.len(), true);
        }
        out
    }

    fn render_node(&self, out: &mut String, span: &Span, prefix: &str, last: bool, root: bool) {
        let (branch, next_prefix) = if root {
            ("", String::new())
        } else if last {
            ("└─ ", format!("{prefix}   "))
        } else {
            ("├─ ", format!("{prefix}│  "))
        };
        out.push_str(prefix);
        out.push_str(branch);
        out.push_str(&describe(span));
        out.push('\n');
        let children: Vec<&Span> = self.children(span.id).collect();
        for (i, child) in children.iter().enumerate() {
            self.render_node(out, child, &next_prefix, i + 1 == children.len(), false);
        }
    }

    /// Exports one JSON object per span, newline-separated (`.jsonl`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            span_json(&mut out, span);
            out.push('\n');
        }
        out
    }

    /// Exports the Chrome trace-event format (a JSON array of complete
    /// `"ph": "X"` events, timestamps in microseconds) — loadable in
    /// Perfetto or `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"name\":");
            escape_json(span.label.name(), &mut out);
            out.push_str(&format!(
                ",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"id\":{},\"parent\":{},\"plan_node\":{}",
                if span.label.is_op() { "op" } else { "node" },
                span.start_nanos as f64 / 1_000.0,
                span.counters.nanos as f64 / 1_000.0,
                span.id,
                span.parent.map_or("null".into(), |p| p.to_string()),
                span.plan_node.map_or("null".into(), |p| p.to_string()),
            ));
            span_counter_fields(&mut out, &span.counters);
            out.push_str("}}");
        }
        out.push_str("\n]\n");
        out
    }
}

/// One-line description of a span for the tree rendering.
fn describe(span: &Span) -> String {
    let c = &span.counters;
    let mut line = match &span.label {
        SpanLabel::Op(kind) => format!("{}: in={} out={}", kind.name(), c.tuples_in, c.tuples_out),
        SpanLabel::Node(label) => format!("{label} → {} tuple(s)", c.tuples_out),
    };
    if c.pairs > 0 {
        line.push_str(&format!(" pairs={}", c.pairs));
    }
    if c.empties_pruned > 0 {
        line.push_str(&format!(" pruned={}", c.empties_pruned));
    }
    if c.index_probes > 0 || c.index_pruned > 0 {
        line.push_str(&format!(
            " probes={} skipped={}",
            c.index_probes, c.index_pruned
        ));
    }
    if c.atoms_simplified > 0 {
        line.push_str(&format!(" atoms={}", c.atoms_simplified));
    }
    if c.tuples_subsumed > 0 {
        line.push_str(&format!(" subsumed={}", c.tuples_subsumed));
    }
    if c.coalesce_merges > 0 {
        line.push_str(&format!(" merged={}", c.coalesce_merges));
    }
    if c.max_period > 0 {
        line.push_str(&format!(" k={}", c.max_period));
    }
    line.push_str(&format!(" [{:.1?}]", span.wall_time()));
    line
}

/// Appends `,"name":value` for every counter a single span exports.
fn span_counter_fields(out: &mut String, counters: &OpSnapshot) {
    for c in OpSnapshot::COUNTERS.iter().filter(|c| c.per_span()) {
        out.push_str(&format!(",\"{}\":{}", c.name, c.get(counters)));
    }
}

fn span_json(out: &mut String, span: &Span) {
    out.push_str(&format!("{{\"id\":{},\"parent\":", span.id));
    match span.parent {
        Some(p) => out.push_str(&p.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(&format!(
        ",\"depth\":{},\"kind\":\"{}\",\"plan_node\":{},\"name\":",
        span.depth,
        if span.label.is_op() { "op" } else { "node" },
        span.plan_node.map_or("null".to_string(), |p| p.to_string()),
    ));
    escape_json(span.label.name(), out);
    span_counter_fields(out, &span.counters);
    out.push_str(&format!(
        ",\"start_ns\":{},\"dur_ns\":{}}}",
        span.start_nanos, span.counters.nanos,
    ));
}

/// Writes `s` as a JSON string literal (quotes included).
pub(crate) fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_tree())
    }
}

impl StatsSnapshot {
    /// Renders the counters in the Prometheus text exposition format
    /// (`\metrics` in the REPL). Counter metrics are suffixed `_total`;
    /// `max_period` is exposed as a gauge. Every operator kind is emitted
    /// for every metric so scrape series stay stable.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in OpSnapshot::COUNTERS {
            let (name, kind) = match c.combine {
                Combine::Sum => (format!("itd_op_{}_total", c.name), "counter"),
                Combine::Max => (format!("itd_op_{}", c.name), "gauge"),
                Combine::Nanos => ("itd_op_wall_seconds_total".to_owned(), "counter"),
            };
            out.push_str(&format!("# HELP {name} {}\n", c.help));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (kind, op) in self.iter() {
                let value = match c.combine {
                    Combine::Nanos => format!("{:.9}", c.get(op) as f64 / 1e9),
                    _ => c.get(op).to_string(),
                };
                out.push_str(&format!("{name}{{op=\"{}\"}} {value}\n", kind.name()));
            }
        }
        out
    }

    /// Serializes every counter as one JSON object (`\stats json` in the
    /// REPL).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ops\":{");
        for (i, (kind, op)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{{", kind.name()));
            for (j, c) in OpSnapshot::COUNTERS.iter().enumerate() {
                let sep = if j > 0 { "," } else { "" };
                out.push_str(&format!("{sep}\"{}\":{}", c.name, c.get(op)));
            }
            out.push('}');
        }
        out.push_str(&format!(
            "}},\"total_calls\":{},\"total_wall_ns\":{}}}",
            self.total_calls(),
            self.total_wall_time().as_nanos(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record of one finished operator call.
    fn call(counters: OpSnapshot) -> impl FnOnce(&mut Span) {
        move |span| {
            span.counters = OpSnapshot {
                calls: 1,
                ..counters
            }
        }
    }

    fn sample() -> Trace {
        let sink = TraceSink::new();
        let root = sink.begin(SpanLabel::Node("and \"x\"".into()), Some(7));
        let a = sink.begin(SpanLabel::Op(OpKind::Join), None);
        sink.end(
            a,
            call(OpSnapshot {
                tuples_in: 4,
                tuples_out: 2,
                pairs: 4,
                max_period: 6,
                nanos: 1_500,
                ..OpSnapshot::default()
            }),
        );
        let b = sink.begin(SpanLabel::Op(OpKind::Project), None);
        sink.end(
            b,
            call(OpSnapshot {
                tuples_in: 2,
                tuples_out: 2,
                nanos: 500,
                ..OpSnapshot::default()
            }),
        );
        sink.update(root, |s| s.counters.tuples_out = 2);
        sink.end(root, |s| s.counters.nanos = 3_000);
        sink.take()
    }
    #[test]
    fn tree_shape_and_ids() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.roots().count(), 1);
        assert_eq!(t.spans()[0].label, SpanLabel::Node("and \"x\"".into()));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[1].depth, 1);
        assert_eq!(t.children(0).count(), 2);
        assert_eq!(t.spans()[1].counters.max_period, 6);
    }

    #[test]
    fn op_totals_sum_operator_spans() {
        let t = sample();
        let totals = t.op_totals();
        assert_eq!(totals.op(OpKind::Join).calls, 1);
        assert_eq!(totals.op(OpKind::Join).pairs, 4);
        assert_eq!(totals.op(OpKind::Join).max_period, 6);
        assert_eq!(totals.op(OpKind::Project).tuples_out, 2);
        // Node spans do not contribute.
        assert_eq!(totals.total_calls(), 2);
        assert_eq!(totals.total_wall_time(), Duration::from_nanos(2_000));
    }

    #[test]
    fn without_timing_is_stable() {
        let a = sample().without_timing();
        let b = sample().without_timing();
        assert_eq!(a, b);
        assert!(a
            .spans()
            .iter()
            .all(|s| s.counters.nanos == 0 && s.start_nanos == 0));
    }

    #[test]
    fn render_tree_shows_counters() {
        let text = sample().render_tree();
        assert!(text.contains("and \"x\" → 2 tuple(s)"), "{text}");
        assert!(text.contains("├─ join: in=4 out=2 pairs=4 k=6"), "{text}");
        assert!(text.contains("└─ project: in=2 out=2"), "{text}");
    }

    #[test]
    fn json_lines_escape_and_shape() {
        let text = sample().to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"and \\\"x\\\"\""), "{text}");
        assert!(lines[0].contains("\"parent\":null"), "{text}");
        assert!(lines[1].contains("\"kind\":\"op\""), "{text}");
        assert!(lines[1].contains("\"max_period\":6"), "{text}");
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_complete_events() {
        let text = sample().to_chrome_trace();
        assert!(text.trim_start().starts_with('['), "{text}");
        assert!(text.trim_end().ends_with(']'), "{text}");
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 3);
        assert!(text.contains("\"ts\":"), "{text}");
        assert!(text.contains("\"dur\":1.500"), "{text}");
    }

    #[test]
    fn prometheus_text_format() {
        let stats = sample().op_totals();
        let text = stats.to_prometheus();
        assert!(text.contains("# TYPE itd_op_calls_total counter"), "{text}");
        assert!(text.contains("itd_op_calls_total{op=\"join\"} 1"), "{text}");
        assert!(text.contains("itd_op_max_period{op=\"join\"} 6"), "{text}");
        assert!(
            text.contains("itd_op_calls_total{op=\"union\"} 0"),
            "series must be stable even at zero: {text}"
        );
    }

    #[test]
    fn stats_json_includes_every_op() {
        let stats = sample().op_totals();
        let text = stats.to_json();
        assert!(text.starts_with('{') && text.ends_with('}'), "{text}");
        assert!(text.contains("\"join\":{\"calls\":1"), "{text}");
        assert!(text.contains("\"total_calls\":2"), "{text}");
        for kind in OpKind::ALL {
            assert!(text.contains(&format!("\"{}\":", kind.name())), "{text}");
        }
    }

    #[test]
    fn compaction_counters_render_and_export() {
        let sink = TraceSink::new();
        let a = sink.begin(SpanLabel::Op(OpKind::Compact), None);
        sink.end(
            a,
            call(OpSnapshot {
                tuples_in: 10,
                tuples_out: 6,
                tuples_subsumed: 3,
                coalesce_merges: 1,
                nanos: 700,
                ..OpSnapshot::default()
            }),
        );
        let b = sink.begin(SpanLabel::Op(OpKind::Intersect), None);
        sink.end(
            b,
            call(OpSnapshot {
                pairs: 9,
                max_period: 12,
                nanos: 300,
                ..OpSnapshot::default()
            }),
        );
        let t = sink.take();
        let text = t.render_tree();
        assert!(
            text.contains("compact: in=10 out=6 subsumed=3 merged=1"),
            "{text}"
        );
        assert!(
            text.contains("intersect: in=0 out=0 pairs=9 k=12"),
            "{text}"
        );
        let totals = t.op_totals();
        assert_eq!(totals.op(OpKind::Compact).tuples_subsumed, 3);
        assert_eq!(totals.op(OpKind::Compact).coalesce_merges, 1);
        assert_eq!(totals.op(OpKind::Intersect).pairs, 9);
        let prom = totals.to_prometheus();
        assert!(
            prom.contains("itd_op_tuples_subsumed_total{op=\"compact\"} 3"),
            "{prom}"
        );
        assert!(
            prom.contains("itd_op_pairs_total{op=\"intersect\"} 9"),
            "{prom}"
        );
        let json = totals.to_json();
        assert!(json.contains("\"coalesce_merges\":1"), "{json}");
        let jsonl = t.to_json_lines();
        assert!(jsonl.contains("\"tuples_subsumed\":3"), "{jsonl}");
        let chrome = t.to_chrome_trace();
        assert!(chrome.contains("\"max_period\":12"), "{chrome}");
    }
}
