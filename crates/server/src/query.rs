//! The query front door: parse a `/query/<shape>` request into a
//! [`QuerySpec`], derive its cache key, resolve it against a dataset,
//! execute it, and serialize the result as JSON.
//!
//! The CLI is this module's second client: `swope <shape> <file>` names
//! the same [`QuerySpec`] through [`QueryParams`] (its subcommands are
//! the path segments, its flags the parameters) and turns it into a
//! shape, scope and config with the same [`resolve`], so one query on
//! one file gets one answer from either side. The defaults live here:
//! per-shape ε (0.1 entropy top-k, 0.05 entropy filter, 0.5 for MI),
//! `p_f` defaulting to the paper's `1/N`, one worker thread, and the
//! library's fixed default seed unless `seed` is given. Floats in
//! responses use the same shortest-round-trip
//! formatting as the JSONL event stream ([`swope_obs::json::f64_into`]),
//! so a served score parses back to the exact bits the query computed —
//! which is what lets integration tests assert bitwise identity with the
//! direct library path.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Arc;

use swope_cluster::{ClusterStats, PeerPool, PeerTimeouts, RemoteShardSource};
use swope_columnar::{ColumnarError, Dataset};
use swope_core::{
    run, run_sharded, Answer, Executor, QueryObserver, Rule, Scope, Shape, ShardTransport,
    SwopeConfig, SwopeError,
};
use swope_obs::json::{escape_into, f64_into};

use crate::http::Request;
use crate::registry::DatasetEntry;

/// The relative-error floor of both profile queries.
const PROFILE_FLOOR: f64 = 0.05;

/// Which of the six adaptive queries a request names, with its
/// shape-specific parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryShape {
    /// `GET /query/entropy-topk?dataset=..&k=..`
    EntropyTopK {
        /// How many attributes to return.
        k: usize,
    },
    /// `GET /query/entropy-filter?dataset=..&eta=..`
    EntropyFilter {
        /// The entropy threshold η.
        eta: f64,
    },
    /// `GET /query/mi-topk?dataset=..&target=..&k=..`
    MiTopK {
        /// Target attribute (index or name, resolved at run time).
        target: String,
        /// How many attributes to return.
        k: usize,
    },
    /// `GET /query/mi-filter?dataset=..&target=..&eta=..`
    MiFilter {
        /// Target attribute (index or name).
        target: String,
        /// The MI threshold η.
        eta: f64,
    },
    /// `GET /query/entropy-profile?dataset=..`
    EntropyProfile,
    /// `GET /query/mi-profile?dataset=..&target=..`
    MiProfile {
        /// Target attribute (index or name).
        target: String,
    },
}

impl QueryShape {
    /// Snake-case shape name used in cache keys and response bodies.
    pub fn name(&self) -> &'static str {
        match self {
            QueryShape::EntropyTopK { .. } => "entropy_top_k",
            QueryShape::EntropyFilter { .. } => "entropy_filter",
            QueryShape::MiTopK { .. } => "mi_top_k",
            QueryShape::MiFilter { .. } => "mi_filter",
            QueryShape::EntropyProfile => "entropy_profile",
            QueryShape::MiProfile { .. } => "mi_profile",
        }
    }

    /// The library [`Shape`] this request names, its target resolved
    /// against the schema's attribute `names` (in attribute order).
    fn resolve<'a>(&self, names: impl ExactSizeIterator<Item = &'a str>) -> Result<Shape, String> {
        let (target, rule) = match self {
            QueryShape::EntropyTopK { k } => (None, Rule::TopK { k: *k }),
            QueryShape::EntropyFilter { eta } => (None, Rule::Filter { eta: *eta }),
            QueryShape::EntropyProfile => (None, Rule::Profile { floor: PROFILE_FLOOR }),
            QueryShape::MiTopK { target, k } => (Some(target), Rule::TopK { k: *k }),
            QueryShape::MiFilter { target, eta } => (Some(target), Rule::Filter { eta: *eta }),
            QueryShape::MiProfile { target } => {
                (Some(target), Rule::Profile { floor: PROFILE_FLOOR })
            }
        };
        let target = target.map(|raw| resolve_attr(names, raw, "target")).transpose()?;
        Ok(Shape { target, rule })
    }

    /// The default ε for this shape.
    pub fn default_epsilon(&self) -> f64 {
        match self {
            QueryShape::EntropyTopK { .. } | QueryShape::EntropyProfile => 0.1,
            QueryShape::EntropyFilter { .. } => 0.05,
            QueryShape::MiTopK { .. }
            | QueryShape::MiFilter { .. }
            | QueryShape::MiProfile { .. } => 0.5,
        }
    }
}

/// A fully-parsed query request: dataset name, shape, and the shared
/// sampling parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Registry name of the dataset to query.
    pub dataset: String,
    /// The query shape with its parameters.
    pub shape: QueryShape,
    /// Approximation parameter ε (shape default applied).
    pub epsilon: f64,
    /// Failure probability override, `None` for the paper's `1/N`.
    pub pf: Option<f64>,
    /// Sampling-seed override, `None` for the library default.
    pub seed: Option<u64>,
    /// Worker threads (default 1).
    pub threads: usize,
    /// First row of the query scope (`row_start` parameter).
    pub row_start: Option<usize>,
    /// One past the last row of the scope (`row_end`; clamped to N).
    pub row_end: Option<usize>,
    /// Scope predicate from the `where` parameter, as `attr=value` with
    /// the attribute given by index or name and the value by code or
    /// dictionary label — resolved against the dataset at run time.
    pub where_clause: Option<String>,
}

/// A client's query parameters, looked up by their HTTP names: a
/// request's query string, or the CLI's flags.
pub trait QueryParams {
    /// The raw value given for parameter `name`, if any.
    fn param(&self, name: &str) -> Option<Cow<'_, str>>;

    /// The error for a required parameter `name` that was not given,
    /// named the way this client's user spells it.
    fn missing(&self, name: &str) -> String;
}

impl QueryParams for Request {
    fn param(&self, name: &str) -> Option<Cow<'_, str>> {
        Request::param(self, name).map(Cow::Borrowed)
    }

    fn missing(&self, name: &str) -> String {
        format!("missing required parameter {name:?}")
    }
}

impl QuerySpec {
    /// Parses the query `segment` names (`entropy-topk`, ..., `mi-profile`)
    /// with the parameters `params` gives, applies the defaults, and
    /// checks what needs no dataset: k ≥ 1, a row range that does not
    /// end before it starts, and a `where` clause of the form
    /// `attr=value`. Errors are user-facing messages (a server's 400).
    pub fn parse(segment: &str, params: &impl QueryParams) -> Result<Self, String> {
        let shape = match segment {
            "entropy-topk" => QueryShape::EntropyTopK { k: require_param(params, "k")? },
            "entropy-filter" => QueryShape::EntropyFilter { eta: require_param(params, "eta")? },
            "mi-topk" => QueryShape::MiTopK {
                target: require_param(params, "target")?,
                k: require_param(params, "k")?,
            },
            "mi-filter" => QueryShape::MiFilter {
                target: require_param(params, "target")?,
                eta: require_param(params, "eta")?,
            },
            "entropy-profile" => QueryShape::EntropyProfile,
            "mi-profile" => QueryShape::MiProfile { target: require_param(params, "target")? },
            other => return Err(format!("unknown query shape {other:?}")),
        };
        let spec = QuerySpec {
            dataset: require_param(params, "dataset")?,
            epsilon: parse_param(params, "epsilon")?.unwrap_or_else(|| shape.default_epsilon()),
            pf: parse_param(params, "pf")?,
            seed: parse_param(params, "seed")?,
            threads: parse_param(params, "threads")?.unwrap_or(1),
            row_start: parse_param(params, "row_start")?,
            row_end: parse_param(params, "row_end")?,
            where_clause: params.param("where").map(Cow::into_owned),
            shape,
        };
        if let QueryShape::EntropyTopK { k } | QueryShape::MiTopK { k, .. } = spec.shape {
            if k == 0 {
                return Err("k must be at least 1".into());
            }
        }
        if let (Some(s), Some(e)) = (spec.row_start, spec.row_end) {
            if s > e {
                return Err(format!("row range starts at {s} but ends at {e}"));
            }
        }
        if let Some(w) = &spec.where_clause {
            if !w.contains('=') {
                return Err(format!("malformed where clause {w:?}: expected attr=value"));
            }
        }
        Ok(spec)
    }

    /// Whether this request names a scope at all, which the response
    /// echoes. Both kinds run through the one scoped entry point; an
    /// unscoped request is a full scope, the plain query bit for bit.
    pub fn is_scoped(&self) -> bool {
        self.row_start.is_some() || self.row_end.is_some() || self.where_clause.is_some()
    }

    /// The run configuration this spec names.
    pub fn config(&self) -> SwopeConfig {
        let mut cfg = SwopeConfig::with_epsilon(self.epsilon).with_threads(self.threads);
        cfg.failure_probability = self.pf;
        if let Some(seed) = self.seed {
            cfg = cfg.with_seed(seed);
        }
        cfg
    }
}

fn parse_param<T: std::str::FromStr>(
    params: &impl QueryParams,
    name: &str,
) -> Result<Option<T>, String> {
    match params.param(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("malformed value {raw:?} for parameter {name:?}")),
    }
}

fn require_param<T: std::str::FromStr>(params: &impl QueryParams, name: &str) -> Result<T, String> {
    parse_param(params, name)?.ok_or_else(|| params.missing(name))
}

/// Parses the `/query/<segment>` path segment plus the request's query
/// parameters into a [`QuerySpec`] ([`QuerySpec::parse`]).
pub fn parse_spec(segment: &str, req: &Request) -> Result<QuerySpec, String> {
    QuerySpec::parse(segment, req)
}

/// The result-cache key for `spec` against dataset generation
/// `generation`. Every parameter that can influence the answer bytes is
/// folded in, including the generation so replaced datasets never serve
/// stale bodies; `threads` cannot (see [`run_query`]) and is left out.
pub fn cache_key(spec: &QuerySpec, generation: u64) -> String {
    let mut key = format!("{}@{generation}|{}", spec.dataset, spec.shape.name());
    match &spec.shape {
        QueryShape::EntropyTopK { k } => {
            let _ = write!(key, "|k={k}");
        }
        QueryShape::EntropyFilter { eta } => {
            let _ = write!(key, "|eta={eta}");
        }
        QueryShape::MiTopK { target, k } => {
            let _ = write!(key, "|target={target}|k={k}");
        }
        QueryShape::MiFilter { target, eta } => {
            let _ = write!(key, "|target={target}|eta={eta}");
        }
        QueryShape::EntropyProfile => {}
        QueryShape::MiProfile { target } => {
            let _ = write!(key, "|target={target}");
        }
    }
    let _ = write!(key, "|eps={}", spec.epsilon);
    if let Some(pf) = spec.pf {
        let _ = write!(key, "|pf={pf}");
    }
    if let Some(seed) = spec.seed {
        let _ = write!(key, "|seed={seed}");
    }
    // Scope parameters change the answer, so they must split the cache:
    // two queries differing only in scope can never share an entry.
    if let Some(s) = spec.row_start {
        let _ = write!(key, "|row_start={s}");
    }
    if let Some(e) = spec.row_end {
        let _ = write!(key, "|row_end={e}");
    }
    if let Some(w) = &spec.where_clause {
        let _ = write!(key, "|where={w}");
    }
    key
}

/// Resolves an attribute given as index or name against the schema's
/// attribute `names`: a query's target, and the attribute of its `where`
/// clause. `noun` names which in the error for an out-of-range index.
fn resolve_attr<'a>(
    mut names: impl ExactSizeIterator<Item = &'a str>,
    raw: &str,
    noun: &str,
) -> Result<usize, String> {
    if let Ok(idx) = raw.parse::<usize>() {
        if idx < names.len() {
            return Ok(idx);
        }
        return Err(format!("{noun} index {idx} out of range"));
    }
    names
        .position(|name| name == raw)
        .ok_or_else(|| ColumnarError::UnknownAttr(raw.into()).to_string())
}

/// The attribute names of `dataset`, in attribute order.
fn names(dataset: &Dataset) -> impl ExactSizeIterator<Item = &str> {
    dataset.schema().fields().iter().map(|f| f.name())
}

/// Resolves a `where` clause `attr=value` into a predicate: the attribute
/// by index or name, the value by label when the column carries a
/// dictionary that holds it, else by numeric code. The value is
/// everything after the first `=`.
fn resolve_where(dataset: &Dataset, clause: &str) -> Result<(usize, u32), String> {
    let (attr_raw, value_raw) = clause
        .split_once('=')
        .ok_or_else(|| format!("malformed where clause {clause:?}: expected attr=value"))?;
    let attr = resolve_attr(names(dataset), attr_raw, "attribute")?;
    let dict = dataset.schema().field(attr).and_then(|f| f.dictionary());
    if let Some(code) = dict.and_then(|d| d.lookup(value_raw)).or_else(|| value_raw.parse().ok()) {
        return Ok((attr, code));
    }
    Err(match dict {
        Some(_) => format!("value {value_raw:?} not found in attribute {attr_raw:?}"),
        None => format!("attribute {attr_raw:?} has no dictionary; use a numeric code"),
    })
}

/// What `spec` names against a registered dataset: its shape (the target
/// resolved), its scope (the `where` clause resolved) and its run
/// configuration. [`run_query`] runs exactly this; the CLI runs it too,
/// under its own `--algo` and `--shards`. Errors are a server's 422.
pub fn resolve(
    entry: &DatasetEntry,
    spec: &QuerySpec,
) -> Result<(Shape, Scope, SwopeConfig), String> {
    let mut scope = Scope { row_start: spec.row_start, row_end: spec.row_end, predicate: None };
    if let Some(clause) = &spec.where_clause {
        scope.predicate = Some(resolve_where(&entry.dataset, clause)?);
    }
    let shape = spec.shape.resolve(names(&entry.dataset))?;
    Ok((shape, scope, spec.config()))
}

/// Executes `spec` against `entry` on `exec` and returns the serialized
/// JSON body, or `(status, message)` for client errors (422 for semantic
/// problems the query layer rejects).
///
/// `exec` only affects *how* the adaptive loop is scheduled, never the
/// answer: the loops guarantee bitwise-identical results for any
/// executor, so the response bytes (and therefore the result cache) are
/// executor-independent.
pub fn run_query<O: QueryObserver>(
    entry: &DatasetEntry,
    spec: &QuerySpec,
    exec: &Executor,
    obs: &mut O,
) -> Result<String, (u16, String)> {
    // Every request runs through the one scoped entry point; a full scope
    // (the common unscoped request) is the plain query, bit for bit.
    let (shape, scope, cfg) = resolve(entry, spec).map_err(|m| (422, m))?;
    let answer = run(&entry.dataset, &shape, &scope, Some(&*entry.sketch), &cfg, obs, exec)
        .map_err(|e| (422, e.to_string()))?;
    let target = shape.target.map(|t| (t, names(&entry.dataset).nth(t).unwrap_or("?")));
    Ok(serialize(entry.generation, spec, target, &answer))
}

/// Connection parameters for the coordinator query path: the peer fleet
/// (in `--peer` flag order — the order defines the union) and its wire
/// deadlines. `union_rows` comes from the startup probe and is only used
/// to clamp `row_end`, mirroring the single-box scope rule.
#[derive(Debug, Clone)]
pub struct ClusterTarget {
    /// Peer addresses in configuration order.
    pub addrs: Vec<String>,
    /// Connect/IO deadlines applied to every peer interaction.
    pub timeouts: PeerTimeouts,
    /// Union rows reported by the startup probe.
    pub union_rows: u64,
    /// Idle peer sessions kept alive across queries; every fan-out
    /// checks sessions out of (and back into) this pool.
    pub pool: Arc<PeerPool>,
}

/// Maps a cluster-path error onto an HTTP status: transport failures are
/// retryable server trouble (503), everything else is a semantic 422.
fn cluster_fail(e: SwopeError) -> (u16, String) {
    match &e {
        SwopeError::Transport(_) => (503, e.to_string()),
        _ => (422, e.to_string()),
    }
}

/// The coordinator version of [`run_query`]: fans the query out to the
/// peer fleet over the exact count-merge protocol and serializes the
/// merged answer. The response body is byte-for-byte what a single box
/// holding the concatenated dataset would serve (generation is pinned to
/// 1, a fresh box's first insert), which is what the CI cluster smoke
/// test diffs.
///
/// Predicate (`where`) scopes need a row-set scan the wire protocol does
/// not carry and are rejected with 422; row ranges are routed to the
/// peers whose slices intersect them — an empty range to none, and it
/// answers like the single box's empty scope.
pub fn run_query_cluster<O: QueryObserver>(
    cluster: &ClusterTarget,
    stats: &Arc<ClusterStats>,
    spec: &QuerySpec,
    exec: &Executor,
    obs: &mut O,
) -> Result<String, (u16, String)> {
    if spec.where_clause.is_some() {
        return Err((
            422,
            "predicate scopes (where=) are not supported on a cluster coordinator; \
             use row_start/row_end"
                .into(),
        ));
    }
    let scope = if spec.row_start.is_some() || spec.row_end.is_some() {
        // The single-box rule: row_end clamps to N (the union) in the
        // connect below, which also rejects a start past the end.
        let start = spec.row_start.unwrap_or(0) as u64;
        let end = spec.row_end.map(|e| e as u64).unwrap_or(u64::MAX);
        Some(start..end)
    } else {
        None
    };
    let cfg = spec.config();
    let mut src = RemoteShardSource::connect(
        &cluster.addrs,
        &spec.dataset,
        cfg.seed,
        scope,
        &cluster.timeouts,
        Arc::clone(stats),
        Some(Arc::clone(&cluster.pool)),
    )
    .map_err(cluster_fail)?;
    let names = src.attrs().iter().map(|a| a.name.as_str());
    let shape = spec.shape.resolve(names).map_err(|m| (422, m))?;
    let answer = run_sharded(&mut src, &shape, &cfg, obs, exec).map_err(cluster_fail)?;
    src.finish();
    let target = shape.target.map(|t| (t, src.attrs().get(t).map_or("?", |a| a.name.as_str())));
    // Generation 1 matches a fresh single box's first insert, keeping the
    // coordinator's bytes diffable against a single-box run.
    Ok(serialize(1, spec, target, &answer))
}

fn serialize(
    generation: u64,
    spec: &QuerySpec,
    target: Option<(usize, &str)>,
    answer: &Answer,
) -> String {
    let Answer { scores, stats } = answer;
    let mut out = String::from("{\"query\":");
    escape_into(&mut out, spec.shape.name());
    out.push_str(",\"dataset\":");
    escape_into(&mut out, &spec.dataset);
    let _ = write!(out, ",\"generation\":{generation}");
    match &spec.shape {
        QueryShape::EntropyTopK { k } | QueryShape::MiTopK { k, .. } => {
            let _ = write!(out, ",\"k\":{k}");
        }
        QueryShape::EntropyFilter { eta } | QueryShape::MiFilter { eta, .. } => {
            out.push_str(",\"eta\":");
            f64_into(&mut out, *eta);
        }
        QueryShape::EntropyProfile | QueryShape::MiProfile { .. } => {}
    }
    if let Some((t, name)) = target {
        let _ = write!(out, ",\"target\":{{\"attr\":{t},\"name\":");
        escape_into(&mut out, name);
        out.push('}');
    }
    out.push_str(",\"epsilon\":");
    f64_into(&mut out, spec.epsilon);
    if spec.is_scoped() {
        out.push_str(",\"scope\":{");
        let mut first = true;
        if let Some(s) = spec.row_start {
            let _ = write!(out, "\"row_start\":{s}");
            first = false;
        }
        if let Some(e) = spec.row_end {
            let _ = write!(out, "{}\"row_end\":{e}", if first { "" } else { "," });
            first = false;
        }
        if let Some(w) = &spec.where_clause {
            out.push_str(if first { "\"where\":" } else { ",\"where\":" });
            escape_into(&mut out, w);
        }
        out.push('}');
    }
    out.push_str(",\"scores\":[");
    for (i, s) in scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"attr\":{},\"name\":", s.attr);
        escape_into(&mut out, &s.name);
        out.push_str(",\"estimate\":");
        f64_into(&mut out, s.estimate);
        out.push_str(",\"lower\":");
        f64_into(&mut out, s.lower);
        out.push_str(",\"upper\":");
        f64_into(&mut out, s.upper);
        let _ = write!(out, ",\"retired_iteration\":{}}}", s.retired_iteration);
    }
    let _ = write!(
        out,
        "],\"stats\":{{\"sample_size\":{},\"iterations\":{},\"rows_scanned\":{},\
         \"converged_early\":{}}}}}",
        stats.sample_size, stats.iterations, stats.rows_scanned, stats.converged_early
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DatasetRegistry;
    use swope_core::NoopObserver;
    use swope_obs::json::Json;

    fn req(params: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".into(),
            path: "/query/x".into(),
            query: params.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn entry() -> std::sync::Arc<DatasetEntry> {
        let mut b = swope_columnar::DatasetBuilder::new(vec!["uniform".into(), "skewed".into()]);
        for i in 0..400u32 {
            let skewed = if i % 20 == 0 { "rare" } else { "common" };
            b.push_row(&[format!("v{}", i % 16), skewed.to_string()]).unwrap();
        }
        DatasetRegistry::new(1000).insert("t", b.finish())
    }

    #[test]
    fn parse_applies_shape_defaults() {
        let spec = parse_spec("entropy-topk", &req(&[("dataset", "t"), ("k", "2")])).unwrap();
        assert_eq!(spec.shape, QueryShape::EntropyTopK { k: 2 });
        assert_eq!(spec.epsilon, 0.1);
        assert_eq!(spec.threads, 1);
        assert_eq!((spec.pf, spec.seed), (None, None));
        let spec = parse_spec("entropy-filter", &req(&[("dataset", "t"), ("eta", "0.5")])).unwrap();
        assert_eq!(spec.epsilon, 0.05);
        let spec =
            parse_spec("mi-topk", &req(&[("dataset", "t"), ("target", "0"), ("k", "1")])).unwrap();
        assert_eq!(spec.epsilon, 0.5);
        let spec = parse_spec("entropy-profile", &req(&[("dataset", "t")])).unwrap();
        assert_eq!(spec.shape, QueryShape::EntropyProfile);
    }

    #[test]
    fn parse_rejects_missing_and_malformed() {
        assert!(parse_spec("entropy-topk", &req(&[("dataset", "t")]))
            .unwrap_err()
            .contains("\"k\""));
        assert!(parse_spec("entropy-topk", &req(&[("dataset", "t"), ("k", "abc")]))
            .unwrap_err()
            .contains("malformed"));
        assert!(parse_spec("entropy-topk", &req(&[("dataset", "t"), ("k", "0")]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_spec("mi-topk", &req(&[("dataset", "t"), ("k", "1")]))
            .unwrap_err()
            .contains("target"));
        assert!(parse_spec("nope", &req(&[("dataset", "t")])).unwrap_err().contains("shape"));
        assert!(parse_spec("entropy-profile", &req(&[])).unwrap_err().contains("dataset"));
    }

    #[test]
    fn cache_keys_separate_params_and_generations() {
        let base = parse_spec("entropy-topk", &req(&[("dataset", "t"), ("k", "2")])).unwrap();
        let other_k = parse_spec("entropy-topk", &req(&[("dataset", "t"), ("k", "3")])).unwrap();
        let seeded =
            parse_spec("entropy-topk", &req(&[("dataset", "t"), ("k", "2"), ("seed", "7")]))
                .unwrap();
        let keys = [
            cache_key(&base, 1),
            cache_key(&base, 2),
            cache_key(&other_k, 1),
            cache_key(&seeded, 1),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // The executor never changes the bytes, so it never splits the cache.
        let pooled =
            parse_spec("entropy-topk", &req(&[("dataset", "t"), ("k", "2"), ("threads", "4")]))
                .unwrap();
        assert_eq!(pooled.threads, 4);
        assert_eq!(cache_key(&pooled, 1), cache_key(&base, 1));
    }

    /// Satellite audit: every scope parameter must split the cache for
    /// every query shape — two specs differing only in scope can never
    /// share an entry — and a dataset reload (generation bump) must
    /// invalidate scoped entries just like unscoped ones.
    #[test]
    fn cache_keys_split_on_every_scope_parameter() {
        let shapes: &[(&str, &[(&str, &str)])] = &[
            ("entropy-topk", &[("dataset", "t"), ("k", "2")]),
            ("entropy-filter", &[("dataset", "t"), ("eta", "0.5")]),
            ("mi-topk", &[("dataset", "t"), ("target", "0"), ("k", "1")]),
            ("mi-filter", &[("dataset", "t"), ("target", "0"), ("eta", "0.1")]),
            ("entropy-profile", &[("dataset", "t")]),
            ("mi-profile", &[("dataset", "t"), ("target", "0")]),
        ];
        let scope_variants: &[&[(&str, &str)]] = &[
            &[],
            &[("row_start", "100")],
            &[("row_start", "200")],
            &[("row_end", "300")],
            &[("row_start", "100"), ("row_end", "300")],
            &[("where", "skewed=rare")],
            &[("where", "skewed=common")],
            &[("row_start", "100"), ("row_end", "300"), ("where", "skewed=rare")],
        ];
        for (segment, base_params) in shapes {
            let keys: Vec<String> = scope_variants
                .iter()
                .map(|extra| {
                    let mut params = base_params.to_vec();
                    params.extend_from_slice(extra);
                    cache_key(&parse_spec(segment, &req(&params)).unwrap(), 1)
                })
                .collect();
            for (i, a) in keys.iter().enumerate() {
                for b in &keys[i + 1..] {
                    assert_ne!(a, b, "{segment}: scoped specs must never share a cache entry");
                }
            }
            let mut params = base_params.to_vec();
            params.push(("row_start", "100"));
            let scoped = parse_spec(segment, &req(&params)).unwrap();
            assert_ne!(cache_key(&scoped, 1), cache_key(&scoped, 2));
        }
    }

    #[test]
    fn parse_rejects_malformed_scopes() {
        let base = &[("dataset", "t"), ("k", "2")];
        let inverted = [base[0], base[1], ("row_start", "300"), ("row_end", "100")];
        assert!(parse_spec("entropy-topk", &req(&inverted)).unwrap_err().contains("row range"));
        let bad_where = [base[0], base[1], ("where", "noequals")];
        assert!(parse_spec("entropy-topk", &req(&bad_where)).unwrap_err().contains("attr=value"));

        // The rest of the `where` grammar: the attribute by index or name,
        // the value — everything after the first `=` — by code or, on a
        // column with a dictionary, by label. Each way to miss is a 422.
        let labelled = entry();
        let tiny = swope_datagen::generate(&swope_datagen::corpus::tiny(400, 2), 1);
        let coded = DatasetRegistry::new(1000).insert("c", tiny);
        let no_dictionary = "attribute \"0\" has no dictionary; use a numeric code";
        let cases = [
            (&labelled, "0=", "value \"\" not found in attribute \"0\""),
            (&labelled, "=3", "unknown attribute name \"\""),
            (&labelled, "a=b=c", "unknown attribute name \"a\""),
            (&labelled, "skewed=b=c", "value \"b=c\" not found in attribute \"skewed\""),
            (&labelled, "2=0", "attribute index 2 out of range"),
            (&labelled, "skewed=often", "value \"often\" not found in attribute \"skewed\""),
            (&coded, "0=x", no_dictionary),
            (&coded, "0=", no_dictionary),
        ];
        for (entry, clause, want) in cases {
            let spec = parse_spec("entropy-topk", &req(&[base[0], base[1], ("where", clause)]));
            let got = run_query(entry, &spec.unwrap(), &Executor::sequential(), &mut NoopObserver);
            assert_eq!(got.unwrap_err(), (422, want.to_owned()), "{clause}");
        }
    }

    #[test]
    fn run_query_scoped_range_and_predicate() {
        let entry = entry();
        let exec = Executor::sequential();
        // A full-range scope answers identically to the unscoped query
        // (same scores, same stats), plus an echoed scope block.
        let base = &[("dataset", "t"), ("k", "2"), ("seed", "3")];
        let unscoped = parse_spec("entropy-topk", &req(base)).unwrap();
        let full =
            parse_spec("entropy-topk", &req(&[base[0], base[1], base[2], ("row_start", "0")]))
                .unwrap();
        let a =
            Json::parse(&run_query(&entry, &unscoped, &exec, &mut NoopObserver).unwrap()).unwrap();
        let b = Json::parse(&run_query(&entry, &full, &exec, &mut NoopObserver).unwrap()).unwrap();
        assert_eq!(a.get("scores"), b.get("scores"));
        assert_eq!(a.get("stats"), b.get("stats"));
        assert!(a.get("scope").is_none());
        assert_eq!(b.get("scope").unwrap().get("row_start").unwrap().as_u64(), Some(0));
        // A predicate scope runs over just the matching rows and echoes
        // the clause back.
        let pred = parse_spec(
            "entropy-topk",
            &req(&[base[0], base[1], base[2], ("where", "skewed=rare")]),
        )
        .unwrap();
        let v = Json::parse(&run_query(&entry, &pred, &exec, &mut NoopObserver).unwrap()).unwrap();
        assert_eq!(v.get("scope").unwrap().get("where").unwrap().as_str(), Some("skewed=rare"));
        // 400 rows, every 20th is "rare": the scoped population is 20.
        assert_eq!(v.get("stats").unwrap().get("sample_size").unwrap().as_u64(), Some(20));
        // A number that is no label is a code; row 0's "rare" took code 0.
        let by_code =
            parse_spec("entropy-topk", &req(&[base[0], base[1], base[2], ("where", "skewed=0")]));
        let v = run_query(&entry, &by_code.unwrap(), &exec, &mut NoopObserver).unwrap();
        let v = Json::parse(&v).unwrap();
        assert_eq!(v.get("stats").unwrap().get("sample_size").unwrap().as_u64(), Some(20));
        // An unresolvable predicate value is a semantic (422) error.
        let bad = parse_spec(
            "entropy-topk",
            &req(&[base[0], base[1], base[2], ("where", "skewed=unheard-of")]),
        )
        .unwrap();
        assert_eq!(run_query(&entry, &bad, &exec, &mut NoopObserver).unwrap_err().0, 422);
    }

    #[test]
    fn run_query_returns_parseable_deterministic_json() {
        let entry = entry();
        let spec = parse_spec("entropy-topk", &req(&[("dataset", "t"), ("k", "1")])).unwrap();
        let body = run_query(&entry, &spec, &Executor::sequential(), &mut NoopObserver).unwrap();
        // A pooled executor must serve the exact same bytes.
        let again = run_query(&entry, &spec, &Executor::new(2), &mut NoopObserver).unwrap();
        assert_eq!(body, again, "same spec must serve identical bytes for any executor");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("query").unwrap().as_str(), Some("entropy_top_k"));
        let Json::Arr(scores) = v.get("scores").unwrap() else { panic!("scores not an array") };
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].get("name").unwrap().as_str(), Some("uniform"));
        assert!(v.get("stats").unwrap().get("rows_scanned").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn run_query_reports_target_and_semantic_errors() {
        let entry = entry();
        let exec = Executor::sequential();
        let spec =
            parse_spec("mi-profile", &req(&[("dataset", "t"), ("target", "skewed")])).unwrap();
        let body = run_query(&entry, &spec, &exec, &mut NoopObserver).unwrap();
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("target").unwrap().get("name").unwrap().as_str(), Some("skewed"));
        let bad =
            parse_spec("mi-profile", &req(&[("dataset", "t"), ("target", "missing")])).unwrap();
        let (status, msg) = run_query(&entry, &bad, &exec, &mut NoopObserver).unwrap_err();
        assert_eq!(status, 422);
        assert!(!msg.is_empty());
        let huge_k = parse_spec("entropy-topk", &req(&[("dataset", "t"), ("k", "99")])).unwrap();
        assert_eq!(run_query(&entry, &huge_k, &exec, &mut NoopObserver).unwrap_err().0, 422);
    }
}
