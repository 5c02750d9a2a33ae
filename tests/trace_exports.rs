//! Golden trace and counter exports. One fixed traced run (a query that
//! runs join, negation as difference and compact, then a complement and a
//! normalization of its relations) is rendered through every exporter:
//! the span tree, JSON lines, the Chrome trace, and the aggregate
//! counters as JSON, Prometheus text and the `\stats` table. Wall times
//! are scrubbed and the rest is pinned byte-for-byte. A diff here means
//! an exporter's format or a Table 2/3 counter changed; update the golden
//! deliberately, in the same change.

use itd_core::{Atom, ExecContext, GenRelation, GenTuple, Lrp, Schema};
use itd_query::{run_src, MemoryCatalog, QueryOpts};

/// A fixed catalog: `p` holds eight bounded tuples over the residues mod
/// 4 (enough rows to place `compact` nodes), `q` two tuples mod 6 and `r`
/// one coarse tuple mod 3.
fn catalog() -> (MemoryCatalog, GenRelation, GenRelation) {
    let lrp = |c, k| Lrp::new(c, k).expect("valid lrp");
    let mut p = GenRelation::empty(Schema::new(1, 0));
    for i in 0..8i64 {
        let t = GenTuple::builder()
            .lrps(vec![lrp(i % 4, 4)])
            .atoms([Atom::ge(0, -i)])
            .build()
            .expect("valid tuple");
        p.push(t).expect("schema");
    }
    let mut q = GenRelation::empty(Schema::new(1, 0));
    for c in [0, 3] {
        q.push(GenTuple::unconstrained(vec![lrp(c, 6)], vec![]))
            .expect("schema");
    }
    let mut r = GenRelation::empty(Schema::new(1, 0));
    r.push(GenTuple::unconstrained(vec![lrp(1, 3)], vec![]))
        .expect("schema");
    let mut cat = MemoryCatalog::new();
    cat.insert("p", p.clone());
    cat.insert("q", q.clone());
    cat.insert("r", r);
    (cat, p, q)
}

const QUERY: &str = "(p(t) and not q(t)) or (not r(t) and p(t) and p(t))";

fn render() -> String {
    let (cat, p, q) = catalog();
    let ctx = ExecContext::serial().traced();
    run_src(&cat, QUERY, QueryOpts::new().ctx(&ctx)).expect("query");
    // The query layer negates by difference; the algebra's own complement
    // (Appendix A.6) and normalization report the common period `k`.
    q.complement_temporal_in(&ctx).expect("complement");
    p.normalize_in(&ctx).expect("normalize");
    let trace = ctx.take_trace().expect("tracing is on").without_timing();
    let stats = ctx.stats().without_timing();
    let mut text = format!("query: {QUERY}\n");
    for (title, body) in [
        ("render_tree", trace.render_tree()),
        ("to_json_lines", trace.to_json_lines()),
        ("to_chrome_trace", trace.to_chrome_trace()),
        ("StatsSnapshot::to_json", stats.to_json() + "\n"),
        ("StatsSnapshot::to_prometheus", stats.to_prometheus()),
        ("StatsSnapshot Display", stats.to_string() + "\n"),
    ] {
        text.push_str(&format!("\n=== {title} ===\n{body}"));
    }
    text
}

/// Compares against the golden, or rewrites it when `BLESS` is set in
/// the environment (`BLESS=1 cargo test -p itd-db --test trace_exports`,
/// then rebuild — the golden is compiled in via `include_str!`).
#[test]
fn golden_trace_exports() {
    let actual = render();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write("../../tests/goldens/trace_exports.txt", &actual).expect("write golden");
        return;
    }
    let golden = include_str!("goldens/trace_exports.txt");
    assert_eq!(
        actual, golden,
        "\ntrace export golden mismatch.\nActual output:\n---8<---\n{actual}--->8---\n"
    );
}
