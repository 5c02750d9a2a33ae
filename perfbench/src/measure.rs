//! Measurement plumbing shared by the workloads: the timed-phase budget,
//! in-memory spans, percentile helpers, layer counters, and the report
//! each workload hands back to `main`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use itd_core::{storage_stats, OpKind, StatsSnapshot, StorageStats};
use itd_db::{Database, QueryOpts};
use itd_query::{plan_cache_stats, PlanCacheStats};

/// How long the timed phase runs: wall time for measurements, a fixed
/// operation count for the determinism self-test (counters only repeat
/// when the work does).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(Duration),
    Ops(u64),
}

impl Budget {
    /// Whether another operation may start, `done` having completed since
    /// `start`.
    pub fn more(self, start: Instant, done: u64) -> bool {
        match self {
            Budget::Seconds(d) => start.elapsed() < d,
            Budget::Ops(n) => done < n,
        }
    }

    /// The share of this budget one of `parts` equal load generators runs.
    pub fn split(self, parts: u64, index: u64) -> Budget {
        match self {
            Budget::Seconds(d) => Budget::Seconds(d),
            Budget::Ops(n) => Budget::Ops(n / parts + u64::from(index < n % parts)),
        }
    }
}

/// One recorded span: a public call the benchmark made into the engine.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Class or text label of the operation (empty when none).
    pub label: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Request id shared by every span of one benchmark operation.
    pub req: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-thread span recorder. Always times the call (the latency samples
/// come from the same clock reads); keeps the span only when tracing.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span and returns its id (0 when not tracing).
    pub fn open(&mut self, name: &'static str, label: &'static str, parent: u32, req: u64) -> u32 {
        if !self.on {
            return 0;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            label,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() as u32
    }

    pub fn close(&mut self, id: u32) {
        if id > 0 {
            self.spans[id as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` as one span and returns its result with its duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        label: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, label, parent, req);
        let t0 = Instant::now();
        let out = f();
        let d = t0.elapsed();
        self.close(id);
        (out, d)
    }

    /// Times `Database::estimate` as a `db.estimate` span, labelled `miss`
    /// when the text had to be prepared (the plan cache missed).
    pub fn estimate(
        &mut self,
        db: &Database,
        src: &str,
        opts: QueryOpts<'_>,
        parent: u32,
        req: u64,
    ) -> itd_db::Result<f64> {
        let misses = plan_cache_stats().misses;
        let id = self.open("db.estimate", "", parent, req);
        let out = db.estimate(src, opts);
        self.close(id);
        if id > 0 && plan_cache_stats().misses > misses {
            self.spans[id as usize - 1].label = "miss";
        }
        out
    }

    /// Durations in milliseconds of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Appends this recorder's spans as JSON lines tagged with `thread`.
    pub fn write_jsonl(&self, thread: usize, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.label,
                s.start_ns,
                s.end_ns
            );
        }
    }
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Process-global engine counters, read before and after the timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Globals {
    pub storage: StorageStats,
    pub plans: PlanCacheStats,
}

impl Globals {
    pub fn read() -> Globals {
        Globals {
            storage: storage_stats(),
            plans: plan_cache_stats(),
        }
    }
}

/// The algebra kernels reported one by one.
pub const KERNELS: [OpKind; 6] = [
    OpKind::Intersect,
    OpKind::Difference,
    OpKind::Join,
    OpKind::Complement,
    OpKind::Project,
    OpKind::Compact,
];

/// The query-classes every workload's reads are labelled with.
pub const CLASSES: [&str; 4] = ["join", "negation", "project", "tjoin"];

/// Everything one workload run measured.
#[derive(Default)]
pub struct Report {
    /// Wall time of each full set-up (the last one is the one measured).
    pub setup_s: Vec<f64>,
    /// Timed-phase wall time.
    pub elapsed_s: f64,
    /// Completed query latencies (ms).
    pub queries: Vec<f64>,
    /// Completed transaction latencies (ms).
    pub txns: Vec<f64>,
    /// Operations attempted and failed (errors, refusals, timeouts).
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers found by the checks; any one makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Per-layer metrics (traced runs): name, value, unit.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Deterministic engine counters over the timed phase.
    pub counters: Vec<(&'static str, u64)>,
    /// Properties the workload was chosen for: name, held, detail.
    pub properties: Vec<(&'static str, bool, String)>,
    /// Span recorders, one per load-generating thread.
    pub traces: Vec<Tracer>,
}

impl Report {
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push((name.into(), value, unit));
    }

    /// The counters and per-layer metrics common to every workload: plan
    /// cache and outcome store deltas over the timed phase, and the
    /// algebra's per-kernel work from `exec` (the timed queries' summed
    /// operator counters).
    pub fn engine_layers(
        &mut self,
        before: &Globals,
        after: &Globals,
        exec: &StatsSnapshot,
        queries: u64,
    ) {
        let s = after.storage.delta_since(&before.storage);
        let p = PlanCacheStats {
            lookups: after.plans.lookups - before.plans.lookups,
            hits: after.plans.hits - before.plans.hits,
            misses: after.plans.misses - before.plans.misses,
            insertions: after.plans.insertions - before.plans.insertions,
            evictions: after.plans.evictions - before.plans.evictions,
            invalidations: after.plans.invalidations - before.plans.invalidations,
            bypasses: after.plans.bypasses - before.plans.bypasses,
        };
        let pairs = exec.total_pairs();
        let tuples_out: u64 = exec.iter().map(|(_, op)| op.tuples_out).sum();
        let nanos: u64 = exec.iter().map(|(_, op)| op.nanos).sum();
        let probes: u64 = exec.iter().map(|(_, op)| op.index_probes).sum();
        let pruned: u64 = exec.iter().map(|(_, op)| op.index_pruned).sum();
        self.counters.extend([
            ("pairs", pairs),
            ("plancache_hits", p.hits),
            ("plancache_misses", p.misses),
            ("outcome_hits", s.outcome_hits),
            ("outcome_misses", s.outcome_misses),
            ("outcome_evictions", s.outcome_evictions),
            ("parts_interned", s.part_distinct),
        ]);
        let q = queries as f64;
        self.layer(
            "plancache.hit_rate",
            ratio(p.hits as f64, p.lookups as f64),
            "ratio",
        );
        self.layer("plancache.evictions", p.evictions as f64, "count");
        self.layer("plancache.invalidations", p.invalidations as f64, "count");
        self.layer("exec.pairs_per_query", ratio(pairs as f64, q), "count");
        self.layer(
            "exec.tuples_out_per_query",
            ratio(tuples_out as f64, q),
            "count",
        );
        self.layer("exec.ns_per_pair", ratio(nanos as f64, pairs as f64), "ns");
        for kind in KERNELS {
            let op = exec.op(kind);
            let name = kind.name();
            self.layer(
                format!("exec.{name}.wall_ms"),
                ratio(op.nanos as f64 / 1e6, q),
                "ms",
            );
            self.layer(
                format!("exec.{name}.pairs"),
                ratio(op.pairs as f64, q),
                "count",
            );
        }
        self.layer(
            "index.prune_ratio",
            ratio(pruned as f64, (probes + pruned) as f64),
            "ratio",
        );
        let outcome_lookups = s.outcome_hits + s.outcome_misses;
        self.layer(
            "store.outcome_hit_rate",
            ratio(s.outcome_hits as f64, outcome_lookups as f64),
            "ratio",
        );
        self.layer(
            "store.outcome_evictions",
            s.outcome_evictions as f64,
            "count",
        );
        self.layer("store.parts_interned", s.part_distinct as f64, "count");
        self.layer(
            "store.arena_mb",
            (after.storage.value_bytes + after.storage.part_bytes) as f64 / (1 << 20) as f64,
            "MB",
        );
        self.layer(
            "store.index_reuse_rate",
            ratio(
                s.index_reuses as f64,
                (s.index_builds + s.index_reuses) as f64,
            ),
            "ratio",
        );
    }

    /// Per-class and overall execution latency of the traced `db.run`
    /// spans, and preparation latency of the `db.estimate` spans that
    /// missed the plan cache (labelled `miss`).
    pub fn span_layers(&mut self) {
        let runs: Vec<(&str, f64)> = self
            .all_spans()
            .filter(|s| s.name == "db.run")
            .map(|s| (s.label, s.ms()))
            .collect();
        let all: Vec<f64> = runs.iter().map(|r| r.1).collect();
        self.layer("exec.p50_ms", median(&all), "ms");
        for class in CLASSES {
            let xs: Vec<f64> = runs.iter().filter(|r| r.0 == class).map(|r| r.1).collect();
            self.layer(format!("class.{class}.p50_ms"), median(&xs), "ms");
        }
        let prep: Vec<f64> = self
            .all_spans()
            .filter(|s| s.name == "db.estimate" && s.label == "miss")
            .map(|s| s.ms() * 1e3)
            .collect();
        self.layer("prepare.p50_us", median(&prep), "us");
    }

    pub fn all_spans(&self) -> impl Iterator<Item = &Span> {
        self.traces.iter().flat_map(|t| t.spans.iter())
    }

    pub fn property(&mut self, name: &'static str, held: bool, detail: String) {
        self.properties.push((name, held, detail));
    }
}
