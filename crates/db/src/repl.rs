//! The command layer of the `itd-repl` binary, exposed as a library so it
//! can be unit-tested without a terminal.

use itd_core::{ExecContext, StatsSnapshot, Trace, Value};
use itd_query::QueryOpts;

use crate::table::TupleSpec;
use crate::txn::Txn;
use crate::{Database, DbError, Result};

/// A stateful REPL session: a database plus command dispatch.
#[derive(Debug)]
pub struct ReplSession {
    db: Database,
    stats: StatsSnapshot,
    tracing: bool,
    optimize: bool,
    compact: bool,
    last_trace: Option<Trace>,
}

impl Default for ReplSession {
    fn default() -> ReplSession {
        ReplSession {
            db: Database::default(),
            stats: StatsSnapshot::default(),
            tracing: false,
            optimize: true,
            compact: true,
            last_trace: None,
        }
    }
}

impl ReplSession {
    /// A fresh session with an empty database.
    pub fn new() -> ReplSession {
        ReplSession::default()
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Operator statistics accumulated over every query-evaluating command
    /// (`ask`, `query`, `view`) since the session started or since
    /// `\stats reset`.
    pub fn stats(&self) -> &StatsSnapshot {
        &self.stats
    }

    /// Whether `\trace on` is in effect.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Whether the cost-guided plan optimizer is in effect (`\optimize
    /// on`, the default).
    pub fn optimizing(&self) -> bool {
        self.optimize
    }

    /// Whether adaptive intermediate compaction is in effect (`\compact
    /// on`, the default).
    pub fn compacting(&self) -> bool {
        self.compact
    }

    /// The span tree recorded by the most recent query-evaluating command
    /// while tracing was on (or by `\explain analyze`).
    pub fn last_trace(&self) -> Option<&Trace> {
        self.last_trace.as_ref()
    }

    /// Query options reflecting the session toggles (`\optimize`,
    /// `\compact`); callers chain `.ctx(...)` / `.trace(...)` on top.
    fn opts(&self) -> QueryOpts<'static> {
        QueryOpts::new()
            .optimize(self.optimize)
            .compact(self.compact)
    }

    /// A fresh per-command context, traced when `\trace on` is in effect.
    fn fresh_ctx(&self) -> ExecContext {
        if self.tracing {
            ExecContext::new().traced()
        } else {
            ExecContext::new()
        }
    }

    /// Folds a finished command context into the session: counters into
    /// the running totals, and the recorded span tree (if tracing) into
    /// `last_trace`.
    fn absorb(&mut self, ctx: &ExecContext) {
        self.stats.merge(&ctx.stats());
        if let Some(trace) = ctx.take_trace() {
            self.last_trace = Some(trace);
        }
    }

    /// Runs a query-evaluating closure under a fresh [`ExecContext`] and
    /// folds its counters into the session totals.
    fn tracked<T>(&mut self, run: impl FnOnce(&Database, &ExecContext) -> Result<T>) -> Result<T> {
        let ctx = self.fresh_ctx();
        let out = run(&self.db, &ctx);
        self.absorb(&ctx);
        out
    }

    /// Executes one command line. Returns `Ok(Some(output))` for a normal
    /// command, `Ok(None)` for `quit`.
    ///
    /// # Errors
    /// [`DbError`] for any malformed command or failed operation; the
    /// session stays usable.
    pub fn execute(&mut self, line: &str) -> Result<Option<String>> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(Some(String::new()));
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "quit" | "exit" => Ok(None),
            "help" => Ok(Some(HELP.to_owned())),
            "tables" => Ok(Some(self.db.table_names().join("\n"))),
            "create" => self.create(rest).map(Some),
            "insert" => self.mutate(rest, false).map(Some),
            "retract" => self.mutate(rest, true).map(Some),
            "show" => Ok(Some(self.db.table(rest)?.render())),
            "timeline" => {
                let mut parts = rest.split_whitespace();
                let (name, lo, hi) = (
                    parts.next().unwrap_or(""),
                    parts.next().and_then(|w| w.parse().ok()).unwrap_or(0i64),
                    parts.next().and_then(|w| w.parse().ok()).unwrap_or(40i64),
                );
                Ok(Some(self.db.table(name)?.timeline(lo, hi)))
            }
            "ask" => {
                let opts = self.opts();
                let truth = self.tracked(|db, ctx| {
                    db.run(rest, opts.ctx(ctx))?
                        .truth_in(ctx)
                        .map_err(DbError::Query)
                })?;
                Ok(Some(format!("{truth}")))
            }
            "view" => {
                let (name, src) = rest
                    .split_once('=')
                    .ok_or_else(|| DbError::IncompleteTuple {
                        detail: "expected `view name = <query>`".into(),
                    })?;
                let ctx = self.fresh_ctx();
                let out = {
                    let table =
                        self.db
                            .materialize_view(name.trim(), src.trim(), self.opts().ctx(&ctx))?;
                    format!(
                        "view `{}` materialized with {} generalized tuple(s)",
                        table.name(),
                        table.len()
                    )
                };
                self.absorb(&ctx);
                Ok(Some(out))
            }
            "query" => self.query(rest).map(Some),
            "\\explain" | "explain" => self.explain(rest).map(Some),
            "\\optimize" | "optimize" => self.optimize_cmd(rest).map(Some),
            "\\compact" | "compact" => self.compact_cmd(rest).map(Some),
            "\\trace" | "trace" => self.trace(rest).map(Some),
            "\\flame" | "flame" => self.flame(rest).map(Some),
            "\\metrics" | "metrics" => Ok(Some(self.db.metrics().snapshot().to_prometheus())),
            "\\top" | "top" => Ok(Some(self.db.metrics().snapshot().render_top())),
            "\\slowlog" | "slowlog" => {
                let snap = self.db.metrics().snapshot();
                match rest {
                    "json" => Ok(Some(snap.slow_json_lines())),
                    "" => Ok(Some(snap.render_slowlog())),
                    other => Err(DbError::IncompleteTuple {
                        detail: format!("unrecognized `\\slowlog` argument `{other}` (try `help`)"),
                    }),
                }
            }
            "\\histo" | "histo" => Ok(Some(self.db.metrics().snapshot().render_histograms())),
            "\\storage" | "storage" => Ok(Some(itd_core::storage_stats().to_string())),
            "\\plancache" | "plancache" => {
                let stats = itd_query::plan_cache_stats();
                Ok(Some(format!(
                    "plan cache: {} prepared plan(s) retained (cap {})\n\
                     lookups:       {} ({} hits, {} misses)\n\
                     insertions:    {}\n\
                     evictions:     {}\n\
                     invalidations: {}\n\
                     bypasses:      {} (runs without a plan token)\n\
                     db plan token: {}",
                    itd_query::plan_cache_len(),
                    itd_query::PLAN_CACHE_CAP,
                    stats.lookups,
                    stats.hits,
                    stats.misses,
                    stats.insertions,
                    stats.evictions,
                    stats.invalidations,
                    stats.bypasses,
                    self.db.plan_token(),
                )))
            }
            "\\views" | "views" => Ok(Some(self.views())),
            "\\subscribe" | "subscribe" => self.subscribe(rest).map(Some),
            "\\unsubscribe" | "unsubscribe" => self.unsubscribe(rest).map(Some),
            "\\stats" | "stats" => match rest {
                "reset" => {
                    self.stats = StatsSnapshot::default();
                    Ok(Some("statistics reset".to_owned()))
                }
                "json" => Ok(Some(self.stats.to_json())),
                _ => Ok(Some(format!("{}", self.stats))),
            },
            "save" => {
                self.db.save(rest)?;
                Ok(Some(format!("saved to {rest}")))
            }
            "load" => {
                self.db = Database::load(rest)?;
                Ok(Some(format!(
                    "loaded {} table(s)",
                    self.db.table_names().len()
                )))
            }
            other => Err(DbError::IncompleteTuple {
                detail: format!("unknown command `{other}` (try `help`)"),
            }),
        }
    }

    /// `create name(t1, t2; d1, d2)` — data part optional.
    fn create(&mut self, rest: &str) -> Result<String> {
        let bad = |detail: &str| DbError::IncompleteTuple {
            detail: detail.to_owned(),
        };
        let (name, args) = rest
            .split_once('(')
            .ok_or_else(|| bad("expected `create name(attrs...)`"))?;
        let args = args
            .strip_suffix(')')
            .ok_or_else(|| bad("missing closing `)`"))?;
        let (temporal_part, data_part) = match args.split_once(';') {
            Some((t, d)) => (t, d),
            None => (args, ""),
        };
        let split = |s: &str| -> Vec<String> {
            s.split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(str::to_owned)
                .collect()
        };
        let temporal = split(temporal_part);
        let data = split(data_part);
        let tref: Vec<&str> = temporal.iter().map(String::as_str).collect();
        let dref: Vec<&str> = data.iter().map(String::as_str).collect();
        self.db.create_table(name.trim(), &tref, &dref)?;
        Ok(format!(
            "created `{}` with {} temporal and {} data attribute(s)",
            name.trim(),
            temporal.len(),
            data.len()
        ))
    }

    /// `insert table clause, clause, ...` / `retract table clause, ...`
    /// where each clause is one of `lrp attr offset period`,
    /// `at attr value`, `le attr c`, `ge attr c`, `eq attr c`,
    /// `diffle a b c`, `eq a b c` (difference equality), or
    /// `datum attr value`. Both go through [`Database::apply_with`], so
    /// registered views (`\subscribe`) are refreshed incrementally.
    fn mutate(&mut self, rest: &str, retract: bool) -> Result<String> {
        let verb = if retract { "retract" } else { "insert" };
        let (table_name, clauses) =
            rest.split_once(char::is_whitespace)
                .ok_or_else(|| DbError::IncompleteTuple {
                    detail: format!("expected `{verb} table clauses...`"),
                })?;
        let spec = Self::parse_spec(clauses)?;
        let txn = if retract {
            Txn::new().retract(table_name, spec)
        } else {
            Txn::new().insert(table_name, spec)
        };
        let ctx = self.fresh_ctx();
        let summary = self.db.apply_with(txn, &ctx);
        self.absorb(&ctx);
        let summary = summary?;
        let mut out = if retract {
            format!("retracted {} row(s) from `{table_name}`", summary.retracted)
        } else {
            format!("inserted into `{table_name}`")
        };
        if summary.views_refreshed > 0 {
            out.push_str(&format!(
                " ({} view(s) refreshed, {} recomputed)",
                summary.views_refreshed, summary.views_recomputed
            ));
        }
        Ok(out)
    }

    /// Parses the comma-separated clause list shared by `insert` and
    /// `retract` into a [`TupleSpec`].
    fn parse_spec(clauses: &str) -> Result<TupleSpec> {
        let bad = |detail: String| DbError::IncompleteTuple { detail };
        let mut spec = TupleSpec::new();
        for clause in clauses.split(',') {
            let words: Vec<&str> = clause.split_whitespace().collect();
            let int = |w: &str| -> Result<i64> {
                w.parse()
                    .map_err(|_| bad(format!("`{w}` is not an integer")))
            };
            spec = match words.as_slice() {
                ["lrp", attr, offset, period] => spec.lrp(attr, int(offset)?, int(period)?),
                ["at", attr, value] => spec.at(attr, int(value)?),
                ["le", attr, c] => spec.le(attr, int(c)?),
                ["ge", attr, c] => spec.ge(attr, int(c)?),
                ["eq", attr, c] => spec.eq(attr, int(c)?),
                ["diffle", a, b, c] => spec.diff_le(a, b, int(c)?),
                ["eq", a, b, c] => spec.diff_eq(a, b, int(c)?),
                ["datum", attr, value] => match value.parse::<i64>() {
                    Ok(v) => spec.datum(attr, v),
                    Err(_) => spec.datum(attr, Value::str(*value)),
                },
                other => {
                    return Err(bad(format!("unrecognized clause {other:?}")));
                }
            };
        }
        Ok(spec)
    }

    /// `\views` — lists registered (incrementally maintained) views with
    /// their maintenance counters.
    fn views(&self) -> String {
        let infos = self.db.views();
        if infos.is_empty() {
            return "no views registered (`\\subscribe name = <query>`)".to_owned();
        }
        let mut out = String::from("registered views:");
        for v in infos {
            out.push_str(&format!(
                "\n  {}: {} generalized tuple(s), {} refresh(es) ({} full), {} delta row(s)\n      {}",
                v.name, v.tuples, v.refreshes, v.full_refreshes, v.delta_rows, v.query
            ));
        }
        out
    }

    /// `\subscribe name = <query>` — registers an incrementally
    /// maintained view; `insert`/`retract` keep it up to date.
    fn subscribe(&mut self, rest: &str) -> Result<String> {
        let (name, src) = rest
            .split_once('=')
            .ok_or_else(|| DbError::IncompleteTuple {
                detail: "expected `\\subscribe name = <query>`".into(),
            })?;
        let ctx = self.fresh_ctx();
        let out = self
            .db
            .register_view_opts(name.trim(), src.trim(), self.opts().ctx(&ctx))
            .map(|_| {
                let snap = self.db.view_named(name.trim()).expect("just registered");
                format!(
                    "subscribed `{}` with {} generalized tuple(s); `insert`/`retract` maintain it",
                    snap.name,
                    snap.relation.tuple_count()
                )
            });
        self.absorb(&ctx);
        out
    }

    /// `\unsubscribe name` — deregisters a view.
    fn unsubscribe(&mut self, rest: &str) -> Result<String> {
        let name = rest.trim();
        let id = self
            .db
            .views()
            .into_iter()
            .find(|v| v.name == name)
            .ok_or_else(|| DbError::UnknownView(name.to_owned()))?
            .id;
        self.db.deregister_view(id);
        Ok(format!("unsubscribed `{name}`"))
    }

    /// `query <formula>` — prints the symbolic answer relation.
    fn query(&mut self, src: &str) -> Result<String> {
        let opts = self.opts();
        let result = self.tracked(|db, ctx| db.run(src, opts.ctx(ctx)).map(|o| o.result))?;
        let mut out = String::new();
        out.push_str(&format!(
            "free variables: temporal {:?}, data {:?}\n",
            result.temporal_vars, result.data_vars
        ));
        out.push_str(&format!("{}", result.relation));
        Ok(out)
    }

    /// `\explain <formula>` — prints the plan `ask`/`query` would execute
    /// (next to the logical plan it was rewritten from, when
    /// `\optimize on`) without executing anything; `\explain analyze
    /// <formula>` additionally runs the query with tracing and lines each
    /// plan node's cost estimate up with the rows/pairs its spans actually
    /// recorded.
    fn explain(&mut self, rest: &str) -> Result<String> {
        if let Some(src) = rest.strip_prefix("analyze ") {
            let ctx = ExecContext::new().traced();
            let out = self.db.run(src.trim(), self.opts().ctx(&ctx).trace(true))?;
            self.stats.merge(&ctx.stats());
            let trace = out.trace.unwrap_or_default();
            let mut text = out.plan.render_analyze(&trace);
            if !out.plan.rewrites().is_empty() {
                text.push_str(&format!("rewrites: {}\n", out.plan.rewrites().join(", ")));
            }
            text.push_str(&format!(
                "\nanswer: {} generalized tuple(s)\n\n{}",
                out.result.relation.tuple_count(),
                trace.render_tree(),
            ));
            self.last_trace = Some(trace);
            return Ok(text);
        }
        let report = self.db.explain(rest, self.opts())?;
        if self.optimize {
            Ok(report.render())
        } else {
            Ok(report.executed.render())
        }
    }

    /// `\optimize [on|off]` — toggles the cost-guided plan rewriter for
    /// `ask`/`query`/`view`/`\explain`; bare `\optimize` shows the state.
    fn optimize_cmd(&mut self, rest: &str) -> Result<String> {
        match rest.trim() {
            "" => Ok(format!(
                "optimizer is {}",
                if self.optimize { "on" } else { "off" }
            )),
            "on" => {
                self.optimize = true;
                Ok("optimizer on — queries run through the cost-guided plan rewriter".to_owned())
            }
            "off" => {
                self.optimize = false;
                Ok("optimizer off — queries execute the direct lowering of the formula".to_owned())
            }
            other => Err(DbError::IncompleteTuple {
                detail: format!("unrecognized `\\optimize` argument `{other}` (try `help`)"),
            }),
        }
    }

    /// `\compact [on|off]` — toggles adaptive intermediate compaction
    /// (subsumption pruning + coalescing between plan nodes) for
    /// `ask`/`query`/`view`/`\explain`; bare `\compact` shows the state.
    fn compact_cmd(&mut self, rest: &str) -> Result<String> {
        match rest.trim() {
            "" => Ok(format!(
                "compaction is {}",
                if self.compact { "on" } else { "off" }
            )),
            "on" => {
                self.compact = true;
                Ok(
                    "compaction on — intermediate relations are subsumption-pruned and \
                    coalesced before quadratic consumers"
                        .to_owned(),
                )
            }
            "off" => {
                self.compact = false;
                Ok("compaction off — intermediate relations flow through unreduced".to_owned())
            }
            other => Err(DbError::IncompleteTuple {
                detail: format!("unrecognized `\\compact` argument `{other}` (try `help`)"),
            }),
        }
    }

    /// `\trace [on|off|json|chrome <path>]` — toggles span recording for
    /// query commands, shows the last recorded tree, or exports it.
    fn trace(&mut self, rest: &str) -> Result<String> {
        let no_trace = || DbError::IncompleteTuple {
            detail: "no trace recorded yet (`\\trace on`, then run a query)".into(),
        };
        let words: Vec<&str> = rest.split_whitespace().collect();
        match words.as_slice() {
            [] => {
                let mut out = format!("tracing is {}", if self.tracing { "on" } else { "off" });
                match &self.last_trace {
                    Some(trace) => {
                        out.push_str(&format!("; last trace ({} span(s)):\n", trace.len()));
                        out.push_str(&trace.render_tree());
                    }
                    None => out.push_str("; no trace recorded yet"),
                }
                Ok(out)
            }
            ["on"] => {
                self.tracing = true;
                Ok("tracing on — query commands now record span trees (`\\trace` shows the last one)".to_owned())
            }
            ["off"] => {
                self.tracing = false;
                Ok("tracing off".to_owned())
            }
            ["json"] => Ok(self
                .last_trace
                .as_ref()
                .ok_or_else(no_trace)?
                .to_json_lines()),
            ["chrome", path] => {
                let trace = self.last_trace.as_ref().ok_or_else(no_trace)?;
                std::fs::write(path, trace.to_chrome_trace())
                    .map_err(|e| DbError::serde_caused_by(format!("cannot write {path}"), e))?;
                Ok(format!(
                    "wrote {} span(s) to {path} (load in Perfetto or chrome://tracing)",
                    trace.len()
                ))
            }
            other => Err(DbError::IncompleteTuple {
                detail: format!("unrecognized `\\trace` arguments {other:?} (try `help`)"),
            }),
        }
    }

    /// `\flame <path>` — folds the last recorded trace into flamegraph
    /// collapsed-stack lines and writes them to `path` (feed the file to
    /// `inferno-flamegraph` or `flamegraph.pl`).
    fn flame(&mut self, rest: &str) -> Result<String> {
        let path = rest.trim();
        if path.is_empty() {
            return Err(DbError::IncompleteTuple {
                detail: "expected `\\flame <path>`".into(),
            });
        }
        let trace = self
            .last_trace
            .as_ref()
            .ok_or_else(|| DbError::IncompleteTuple {
                detail: "no trace recorded yet (`\\trace on`, then run a query)".into(),
            })?;
        let folded = trace.to_folded();
        let lines = folded.lines().count();
        std::fs::write(path, folded)
            .map_err(|e| DbError::serde_caused_by(format!("cannot write {path}"), e))?;
        Ok(format!(
            "wrote {lines} collapsed stack(s) to {path} (render with inferno-flamegraph or flamegraph.pl)"
        ))
    }
}

const HELP: &str = "\
commands:
  create name(t1, t2; d1)        define a table (data attrs after `;`)
  insert table clause, ...       clauses: lrp attr off period | at attr v |
                                 le/ge/eq attr c | diffle a b c | eq a b c |
                                 datum attr value
  retract table clause, ...      remove every row structurally equal to the
                                 described tuple (same clauses as insert)
  show table                     render a table paper-style
  timeline table [lo hi]         ASCII occupancy timeline of a window
  tables                         list tables
  ask <formula>                  yes/no query (first-order syntax)
  view name = <formula>          materialize an open query as a table
  query <formula>                open query; prints the answer relation
  \\subscribe name = <formula>    register an incrementally maintained view;
                                 insert/retract keep it up to date
  \\unsubscribe name              deregister a maintained view
  \\views                         list maintained views with refresh counters
  \\explain <formula>             print the plan queries would execute (no
                                 execution); with \\optimize on, also the
                                 logical plan it was rewritten from
  \\explain analyze <formula>     execute with tracing; per-node estimated vs
                                 actual rows/pairs, plus the span tree
  \\optimize [on|off]             cost-guided plan rewriting for queries
                                 (default on; bare \\optimize shows the state)
  \\compact [on|off]              adaptive compaction of intermediate results
                                 (default on; bare \\compact shows the state)
  \\trace [on|off]                record span trees for query commands;
                                 bare \\trace shows the last recorded tree
  \\trace json                    export the last trace as JSON lines
  \\trace chrome <path>           export it in Chrome trace-event format
  \\flame <path>                  export the last trace as flamegraph
                                 collapsed stacks (inferno / flamegraph.pl)
  \\metrics                       Prometheus text rendering of the database's
                                 cross-query metrics registry
  \\top                           registry summary: latency/pairs/rows
                                 percentiles and per-op wall-time table
  \\slowlog [json]                worst queries by wall time and by pairs
                                 (bounded log; `json` exports JSON lines)
  \\histo                         ASCII latency/pairs/rows histograms
  \\storage                       global columnar-store statistics (value and
                                 temporal-part interner arenas, residue-index
                                 builds vs cache reuses, pairwise-outcome cache)
  \\plancache                     prepared-plan cache counters (hits skip
                                 parse + sortcheck + optimize) and this
                                 database's plan token
  \\stats [reset|json]            per-operator execution counters of every
                                 query so far (reset them, or dump as JSON)
  save <path> / load <path>      JSON persistence
  quit";

#[cfg(test)]
mod tests {
    use super::*;

    fn run(session: &mut ReplSession, line: &str) -> String {
        session
            .execute(line)
            .unwrap_or_else(|e| panic!("`{line}` failed: {e}"))
            .expect("not a quit")
    }

    #[test]
    fn end_to_end_session() {
        let mut s = ReplSession::new();
        run(&mut s, "create train(dep, arr; kind)");
        run(
            &mut s,
            "insert train lrp dep 2 60, lrp arr 80 60, eq dep arr -78, datum kind slow",
        );
        assert_eq!(run(&mut s, r#"ask exists a. train(62, a; "slow")"#), "true");
        assert_eq!(run(&mut s, r#"ask train(63, 141; "slow")"#), "false");
        let shown = run(&mut s, "show train");
        assert!(shown.contains("dep"), "{shown}");
        assert_eq!(run(&mut s, "tables"), "train");
        let q = run(&mut s, "query train(d, a; k) and d >= 0");
        assert!(q.contains("temporal [\"d\", \"a\"]"), "{q}");
        assert!(s.execute("quit").unwrap().is_none());
    }

    #[test]
    fn plancache_view_reports_counters_and_rotates_token() {
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t)");
        run(&mut s, "insert ev lrp t 0 2");
        let token = |out: &str| {
            out.lines()
                .find_map(|l| l.strip_prefix("db plan token: "))
                .expect("token line")
                .parse::<u64>()
                .expect("token number")
        };
        let before = run(&mut s, "\\plancache");
        assert!(before.contains("plan cache:"), "{before}");
        assert!(before.contains("invalidations:"), "{before}");
        // Mutating the schema rotates the database's plan token.
        run(&mut s, "create other(t)");
        let after = run(&mut s, "\\plancache");
        assert_ne!(token(&before), token(&after));
    }

    #[test]
    fn views_in_repl() {
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t)");
        run(&mut s, "insert ev lrp t 0 2");
        let msg = run(&mut s, "view pos = ev(t) and t >= 0");
        assert!(msg.contains("view `pos`"), "{msg}");
        assert_eq!(run(&mut s, "ask pos(4)"), "true");
        assert_eq!(run(&mut s, "ask pos(-4)"), "false");
        assert!(s.execute("view broken").is_err());
    }

    #[test]
    fn subscriptions_follow_inserts_and_retracts() {
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t)");
        run(&mut s, "insert ev lrp t 0 2");
        assert_eq!(
            run(&mut s, "\\views"),
            "no views registered (`\\subscribe name = <query>`)"
        );
        let sub = run(&mut s, "\\subscribe pos = ev(t) and t >= 0");
        assert!(sub.contains("subscribed `pos`"), "{sub}");
        let tuples = |s: &ReplSession| {
            s.database()
                .view_named("pos")
                .expect("registered")
                .relation
                .tuple_count()
        };
        assert_eq!(tuples(&s), 1);
        // Mutations route through the delta path and refresh the view.
        let ins = run(&mut s, "insert ev lrp t 1 2");
        assert!(ins.contains("1 view(s) refreshed"), "{ins}");
        assert_eq!(tuples(&s), 2);
        let ret = run(&mut s, "retract ev lrp t 1 2");
        assert!(ret.contains("retracted 1 row(s) from `ev`"), "{ret}");
        assert!(ret.contains("1 view(s) refreshed"), "{ret}");
        assert_eq!(tuples(&s), 1);
        let listing = run(&mut s, "\\views");
        assert!(listing.contains("pos:"), "{listing}");
        assert!(listing.contains("refresh(es)"), "{listing}");
        run(&mut s, "\\unsubscribe pos");
        assert!(s.execute("\\unsubscribe pos").is_err());
        assert!(s.execute("\\subscribe broken").is_err());
    }

    #[test]
    fn plancache_reports_bypasses() {
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t)");
        run(&mut s, "insert ev lrp t 0 2");
        run(&mut s, "ask ev(4)");
        let out = run(&mut s, "\\plancache");
        assert!(out.contains("bypasses:"), "{out}");
    }

    #[test]
    fn integer_data_and_points() {
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t; n)");
        run(&mut s, "insert ev at t 5, datum n 42");
        assert_eq!(run(&mut s, "ask ev(5; 42)"), "true");
        assert_eq!(run(&mut s, "ask ev(6; 42)"), "false");
    }

    #[test]
    fn errors_are_recoverable() {
        let mut s = ReplSession::new();
        assert!(s.execute("bogus command").is_err());
        assert!(s.execute("create broken").is_err());
        assert!(s.execute("insert nosuch lrp t 0 1").is_err());
        assert!(s.execute("show nosuch").is_err());
        assert!(s.execute("ask nonsense(((").is_err());
        // Still usable afterwards.
        run(&mut s, "create ok(t)");
        run(&mut s, "insert ok lrp t 0 2");
        assert_eq!(run(&mut s, "ask ok(4)"), "true");
    }

    #[test]
    fn storage_command_reports_arena_stats() {
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t; n)");
        run(&mut s, "insert ev lrp t 0 2, datum n 42");
        let out = run(&mut s, "\\storage");
        assert!(out.contains("value arena:"), "{out}");
        assert!(out.contains("part arena:"), "{out}");
        assert!(out.contains("indexes:"), "{out}");
        assert!(run(&mut s, "help").contains("\\storage"));
    }

    #[test]
    fn comments_blank_lines_and_help() {
        let mut s = ReplSession::new();
        assert_eq!(run(&mut s, ""), "");
        assert_eq!(run(&mut s, "# a comment"), "");
        assert!(run(&mut s, "help").contains("commands"));
    }

    #[test]
    fn stats_command_reports_and_resets() {
        let mut s = ReplSession::new();
        assert!(run(&mut s, "\\stats").contains("no algebra operations"));
        run(&mut s, "create ev(t)");
        run(&mut s, "insert ev lrp t 0 2");
        assert_eq!(run(&mut s, "ask ev(4) and ev(6)"), "true");
        let report = run(&mut s, "\\stats");
        assert!(report.contains("join"), "{report}");
        assert!(report.contains("project"), "{report}");
        assert!(s.stats().total_calls() > 0);
        // Both spellings work, and reset clears the counters.
        assert_eq!(run(&mut s, "stats"), report);
        run(&mut s, "\\stats reset");
        assert!(run(&mut s, "\\stats").contains("no algebra operations"));
    }

    #[test]
    fn explain_prints_plan_without_executing() {
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t)");
        run(&mut s, "insert ev lrp t 0 2");
        let plan = run(&mut s, "\\explain ev(t) and not ev(t + 1)");
        assert!(plan.contains("join on t"), "{plan}");
        assert!(plan.contains("difference from Z^1"), "{plan}");
        // Nothing ran: the session counters are untouched.
        assert!(s.stats().is_zero());
        // Both spellings; errors surface like `query` errors would.
        assert_eq!(run(&mut s, "explain ev(t)"), run(&mut s, "\\explain ev(t)"));
        assert!(s.execute("\\explain nosuch(t)").is_err());
    }

    #[test]
    fn explain_analyze_runs_and_shows_spans() {
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t)");
        run(&mut s, "insert ev lrp t 0 2");
        let out = run(&mut s, "\\explain analyze ev(t) and ev(t + 2)");
        assert!(out.contains("and ⟨t⟩"), "{out}");
        assert!(out.contains("answer: "), "{out}");
        assert!(out.contains("join: in="), "{out}");
        // The run is folded into \stats and the trace is kept.
        assert!(s.stats().total_calls() > 0);
        assert!(s.last_trace().is_some());
    }

    #[test]
    fn compact_toggle_shapes_explained_plan() {
        let mut s = ReplSession::new();
        assert!(s.compacting());
        assert!(run(&mut s, "\\compact").contains("compaction is on"));
        run(&mut s, "create ev(t)");
        // Eight periodic tuples put the scan estimate over the compaction
        // threshold, so the conjunction's inputs get compact nodes.
        for i in 0..8 {
            run(&mut s, &format!("insert ev lrp t {i} 8"));
        }
        let plan = run(&mut s, "\\explain ev(t) and ev(t)");
        assert!(plan.contains("compact"), "{plan}");
        let msg = run(&mut s, "\\compact off");
        assert!(msg.contains("compaction off"), "{msg}");
        assert!(!s.compacting());
        let plan = run(&mut s, "\\explain ev(t) and ev(t)");
        assert!(!plan.contains("compact"), "{plan}");
        // Queries still answer identically with compaction off.
        assert_eq!(run(&mut s, "ask ev(4) and ev(12)"), "true");
        run(&mut s, "\\compact on");
        assert_eq!(run(&mut s, "ask ev(4) and ev(12)"), "true");
        // Both spellings work; bad arguments are recoverable errors.
        assert!(run(&mut s, "compact").contains("compaction is on"));
        assert!(s.execute("\\compact sideways").is_err());
        assert_eq!(run(&mut s, "ask ev(4)"), "true");
    }

    #[test]
    fn trace_toggle_and_exports() {
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t)");
        run(&mut s, "insert ev lrp t 0 2");
        // Nothing recorded yet: exports fail, status says so.
        assert!(run(&mut s, "\\trace").contains("no trace recorded"));
        assert!(s.execute("\\trace json").is_err());
        assert!(s.execute("\\trace bogus args").is_err());
        run(&mut s, "\\trace on");
        assert!(s.tracing());
        assert_eq!(run(&mut s, "ask ev(4)"), "true");
        let shown = run(&mut s, "\\trace");
        assert!(shown.contains("tracing is on"), "{shown}");
        assert!(shown.contains("ev(4)"), "{shown}");
        let json = run(&mut s, "\\trace json");
        assert!(json.lines().count() > 1, "{json}");
        assert!(json.lines().all(|l| l.starts_with('{')), "{json}");
        let path = std::env::temp_dir().join("itd_repl_trace_test.json");
        let path_str = path.to_str().unwrap().to_owned();
        let msg = run(&mut s, &format!("\\trace chrome {path_str}"));
        assert!(msg.contains("Perfetto"), "{msg}");
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.trim_start().starts_with('['), "{written}");
        assert!(written.contains("\"ph\":\"X\""), "{written}");
        std::fs::remove_file(&path).ok();
        run(&mut s, "\\trace off");
        assert!(!s.tracing());
    }

    #[test]
    fn metrics_and_stats_json() {
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t)");
        run(&mut s, "insert ev lrp t 0 2");
        run(&mut s, "ask ev(4)");
        let metrics = run(&mut s, "\\metrics");
        assert!(
            metrics.contains("# TYPE itd_op_calls_total counter"),
            "{metrics}"
        );
        assert!(
            metrics.contains("itd_op_calls_total{op=\"select\"}"),
            "{metrics}"
        );
        let json = run(&mut s, "\\stats json");
        assert!(
            json.starts_with('{') && json.contains("\"total_calls\":"),
            "{json}"
        );
        // `metrics` spelling without the backslash also works.
        assert_eq!(run(&mut s, "metrics"), metrics);
        // Registry-level families appear too (the rendering subsumes the
        // per-query exporter).
        assert!(
            metrics.contains("# TYPE itd_queries_total counter"),
            "{metrics}"
        );
        assert!(
            metrics.contains("# TYPE itd_query_wall_seconds histogram"),
            "{metrics}"
        );
    }

    #[test]
    fn registry_commands_and_flame() {
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t)");
        run(&mut s, "insert ev lrp t 0 2");
        run(&mut s, "ask ev(4)");
        run(&mut s, "query ev(t) and t >= 0");
        let top = run(&mut s, "\\top");
        assert!(top.contains("queries observed"), "{top}");
        assert!(top.contains("wall time"), "{top}");
        let slow = run(&mut s, "\\slowlog");
        assert!(slow.contains("worst by wall time"), "{slow}");
        assert!(slow.contains("worst by pairs"), "{slow}");
        assert!(slow.contains("ev"), "{slow}");
        let json = run(&mut s, "\\slowlog json");
        assert!(json.lines().all(|l| l.starts_with("{\"rank\":")), "{json}");
        let histo = run(&mut s, "\\histo");
        assert!(histo.contains("query wall time"), "{histo}");
        assert!(s.execute("\\slowlog nope").is_err());

        // `\flame` needs a recorded trace first.
        assert!(s.execute("\\flame out.folded").is_err());
        assert!(s.execute("\\flame").is_err());
        run(&mut s, "\\trace on");
        run(&mut s, "ask ev(4)");
        let dir = std::env::temp_dir().join("itd_repl_flame_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.folded");
        let msg = run(&mut s, &format!("\\flame {}", path.display()));
        assert!(msg.contains("collapsed stack"), "{msg}");
        let folded = std::fs::read_to_string(&path).unwrap();
        assert!(!folded.is_empty(), "folded output must not be empty");
        for line in folded.lines() {
            // Collapsed-stack convention: `frame;frame;... value` with the
            // sample value after the last space.
            let (stack, value) = line.rsplit_once(' ').expect("frame and value");
            assert!(!stack.is_empty(), "{line}");
            assert!(!stack.contains('\n'));
            value.parse::<u64>().expect("numeric sample value");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("itd_repl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.json");
        let path_str = path.to_str().unwrap().to_owned();
        let mut s = ReplSession::new();
        run(&mut s, "create ev(t)");
        run(&mut s, "insert ev lrp t 1 3");
        run(&mut s, &format!("save {path_str}"));
        let mut s2 = ReplSession::new();
        let msg = run(&mut s2, &format!("load {path_str}"));
        assert!(msg.contains("1 table"), "{msg}");
        assert_eq!(run(&mut s2, "ask ev(4)"), "true");
        std::fs::remove_file(&path).ok();
    }
}
