//! Hand-rolled argument parsing (no external CLI crates allowed).

use swope_columnar::DEFAULT_MAX_SUPPORT;

/// Top-level usage text.
pub fn usage() -> String {
    format!(
        "usage: swope <command> [options]

commands:
  stats <file>                         dataset summary and per-column statistics
  inspect <file>                       storage layout: per-column code width,
                                       bytes in memory, savings vs all-u32,
                                       and the partition sketch (if present)
  entropy-topk <file> -k <n>           top-k attributes by empirical entropy
  entropy-filter <file> --eta <t>      attributes with entropy >= eta
  mi-topk <file> --target <a> -k <n>   top-k attributes by mutual information
  mi-filter <file> --target <a> --eta <t>
  entropy-profile <file>               error-bounded entropy of every attribute
  mi-profile <file> --target <a>       error-bounded MI of every candidate
  compare <file> [-k <n>]              SWOPE vs exact: speedup and agreement
  gen <profile> --out <file>           generate a synthetic dataset
                                       (profiles: cdc hus pus enem tiny)
  convert <in> <out>                   convert between .csv and .swop
  split <in> <out-a> <out-b> --at <n>  split rows [0,n) and [n,end) into two
                                       files, preserving schema and supports
                                       (shard servers for `serve --peer`)
  serve [<file>...]                    HTTP query server over the given datasets

common options:
  --algo swope|rank|exact   query algorithm (default swope; profiles: swope only)
  --epsilon <f>             SWOPE error parameter (defaults per query type)
  --pf <f>                  failure probability (default 1/N)
  --threads <n>             worker threads (default 1)
  --seed <u64>              sampling / generation seed
  --max-support <n>         drop columns with support above this (default {DEFAULT_MAX_SUPPORT})
  --scale <f>               row scale for `gen` (default 0.01)
  --rows <n> --cols <n>     shape for `gen tiny`

scoped queries (not `--algo exact`):
  --row-start <n>           first row of the query scope (inclusive, default 0)
  --row-end <n>             one past the last row of the scope (default: all)
  --where <attr=value>      restrict to rows where the attribute equals the
                            value (name or index = raw value or code)

sharded queries (not `--algo exact`):
  --shards <n>              split the dataset into n row shards, count on
                            each, and merge — answers are bitwise-identical
                            to the unsharded run (cannot combine with scopes)

observability (not `--algo exact`):
  --events-out <path>       write per-query observer events as JSON lines
  --metrics                 print a metrics summary table after the query

serve options:
  --addr <host:port>        listen address (default 127.0.0.1:7878; port 0 = any)
  --queue-depth <n>         bounded request queue size (default 64)
  --cache-capacity <n>      result-cache entries, 0 disables (default 256)
  --deadline-ms <n>         max queueing time before answering 503 (default 10000)
  --exec-threads <n>        shared query execution-pool size (default: all cores)
  --trace                   trace every query (otherwise only requests sending
                            an X-Swope-Trace header); see GET /debug/traces
  --slow-ms <n>             flight-recorder threshold for GET /debug/slow
                            (default 250)
  --access-log <path>       append one logfmt line per served request
  --keep-alive-ms <n>       idle keep-alive window before a connection is
                            closed (default 30000)
  --max-conns <n>           open-connection cap; extra clients get 503
                            (default 4096)
  --tenant-rps <f>          per-tenant request rate (token bucket keyed by
                            X-Swope-Api-Key; over-rate gets 429, default off)
  --tenant-burst <f>        per-tenant burst size (default 2x --tenant-rps)
  --peer <host:port>        shard peer to fan queries out to (repeatable;
                            makes this server a cluster coordinator)
  --peer-timeout-ms <n>     per-peer connect/io timeout (default 2000/10000)

out-of-core storage (serve, and any query command reading a .swop file):
  --mmap                    serve snapshots out-of-core: map the file and
                            read 65536-row pages in place, on demand,
                            instead of loading columns eagerly
  --store-budget-bytes <n>  bytes of the mapped snapshot kept resident; past
                            it the coldest pages are released to the OS
                            (default: unbounded; implies --mmap)"
    )
}

/// Which algorithm a query should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algo {
    /// SWOPE approximate query (the default).
    #[default]
    Swope,
    /// EntropyRank / EntropyFilter exact-by-sampling baseline.
    Rank,
    /// Full-scan exact baseline.
    Exact,
}

/// Parsed option bag shared by all commands.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `-k`.
    pub k: Option<usize>,
    /// `--eta`.
    pub eta: Option<f64>,
    /// `--target` (name or index).
    pub target: Option<String>,
    /// `--algo`.
    pub algo: Algo,
    /// `--epsilon`.
    pub epsilon: Option<f64>,
    /// `--pf`.
    pub pf: Option<f64>,
    /// `--threads`.
    pub threads: Option<usize>,
    /// `--seed`.
    pub seed: Option<u64>,
    /// `--max-support`.
    pub max_support: Option<u32>,
    /// `--scale` (gen).
    pub scale: Option<f64>,
    /// `--rows` (gen tiny).
    pub rows: Option<usize>,
    /// `--cols` (gen tiny).
    pub cols: Option<usize>,
    /// `--out` (gen).
    pub out: Option<String>,
    /// `--row-start`: first row of the query scope (inclusive).
    pub row_start: Option<usize>,
    /// `--row-end`: one past the last row of the query scope.
    pub row_end: Option<usize>,
    /// `--where`: `attr=value` equality predicate restricting the scope.
    pub where_clause: Option<String>,
    /// `--events-out`: JSONL observer event sink path.
    pub events_out: Option<String>,
    /// `--metrics`: print a metrics summary after the query.
    pub metrics: bool,
    /// `--addr` (serve): listen address.
    pub addr: Option<String>,
    /// `--queue-depth` (serve): bounded request queue size.
    pub queue_depth: Option<usize>,
    /// `--cache-capacity` (serve): result-cache entries.
    pub cache_capacity: Option<usize>,
    /// `--deadline-ms` (serve): max queueing milliseconds before 503.
    pub deadline_ms: Option<u64>,
    /// `--exec-threads` (serve): shared execution-pool size for queries
    /// asking for `threads > 1` (default: available parallelism).
    pub exec_threads: Option<usize>,
    /// `--trace` (serve): trace every query request.
    pub trace: bool,
    /// `--slow-ms` (serve): slow-query flight-recorder threshold.
    pub slow_ms: Option<u64>,
    /// `--access-log` (serve): per-request logfmt file path.
    pub access_log: Option<String>,
    /// `--keep-alive-ms` (serve): idle keep-alive window.
    pub keep_alive_ms: Option<u64>,
    /// `--max-conns` (serve): open-connection cap.
    pub max_conns: Option<usize>,
    /// `--tenant-rps` (serve): per-tenant token-bucket refill rate.
    pub tenant_rps: Option<f64>,
    /// `--tenant-burst` (serve): per-tenant token-bucket capacity.
    pub tenant_burst: Option<f64>,
    /// `--shards` (queries): shard-count for the count-merge path.
    pub shards: Option<usize>,
    /// `--at` (split): the row cut point.
    pub at: Option<usize>,
    /// `--peer` (serve, repeatable): shard peers to coordinate over.
    pub peers: Vec<String>,
    /// `--peer-timeout-ms` (serve): connect and io timeout per peer.
    pub peer_timeout_ms: Option<u64>,
    /// `--mmap`: open `.swop` files out-of-core through the page cache.
    pub mmap: bool,
    /// `--store-budget-bytes`: page-cache byte budget (implies `--mmap`).
    pub store_budget_bytes: Option<u64>,
}

impl Options {
    /// Whether out-of-core paging was requested: `--mmap`, or
    /// `--store-budget-bytes` (a budget without paging is meaningless,
    /// so it implies the mapping).
    pub fn paged(&self) -> bool {
        self.mmap || self.store_budget_bytes.is_some()
    }
}

/// Parses everything after the command word.
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-k" => o.k = Some(value(args, &mut i, "-k")?),
            "--eta" => o.eta = Some(value(args, &mut i, "--eta")?),
            "--target" => o.target = Some(raw_value(args, &mut i, "--target")?),
            "--epsilon" => o.epsilon = Some(value(args, &mut i, "--epsilon")?),
            "--pf" => o.pf = Some(value(args, &mut i, "--pf")?),
            "--threads" => o.threads = Some(value(args, &mut i, "--threads")?),
            "--seed" => o.seed = Some(value(args, &mut i, "--seed")?),
            "--max-support" => o.max_support = Some(value(args, &mut i, "--max-support")?),
            "--scale" => o.scale = Some(value(args, &mut i, "--scale")?),
            "--rows" => o.rows = Some(value(args, &mut i, "--rows")?),
            "--cols" => o.cols = Some(value(args, &mut i, "--cols")?),
            "--out" => o.out = Some(raw_value(args, &mut i, "--out")?),
            "--row-start" => o.row_start = Some(value(args, &mut i, "--row-start")?),
            "--row-end" => o.row_end = Some(value(args, &mut i, "--row-end")?),
            "--where" => o.where_clause = Some(raw_value(args, &mut i, "--where")?),
            "--events-out" => o.events_out = Some(raw_value(args, &mut i, "--events-out")?),
            "--metrics" => o.metrics = true,
            "--addr" => o.addr = Some(raw_value(args, &mut i, "--addr")?),
            "--queue-depth" => o.queue_depth = Some(value(args, &mut i, "--queue-depth")?),
            "--cache-capacity" => o.cache_capacity = Some(value(args, &mut i, "--cache-capacity")?),
            "--deadline-ms" => o.deadline_ms = Some(value(args, &mut i, "--deadline-ms")?),
            "--exec-threads" => o.exec_threads = Some(value(args, &mut i, "--exec-threads")?),
            "--trace" => o.trace = true,
            "--slow-ms" => o.slow_ms = Some(value(args, &mut i, "--slow-ms")?),
            "--access-log" => o.access_log = Some(raw_value(args, &mut i, "--access-log")?),
            "--keep-alive-ms" => o.keep_alive_ms = Some(value(args, &mut i, "--keep-alive-ms")?),
            "--max-conns" => o.max_conns = Some(value(args, &mut i, "--max-conns")?),
            "--tenant-rps" => o.tenant_rps = Some(value(args, &mut i, "--tenant-rps")?),
            "--tenant-burst" => o.tenant_burst = Some(value(args, &mut i, "--tenant-burst")?),
            "--shards" => o.shards = Some(value(args, &mut i, "--shards")?),
            "--at" => o.at = Some(value(args, &mut i, "--at")?),
            "--peer" => o.peers.push(raw_value(args, &mut i, "--peer")?),
            "--peer-timeout-ms" => {
                o.peer_timeout_ms = Some(value(args, &mut i, "--peer-timeout-ms")?)
            }
            "--mmap" => o.mmap = true,
            "--store-budget-bytes" => {
                o.store_budget_bytes = Some(value(args, &mut i, "--store-budget-bytes")?)
            }
            "--algo" => {
                let v = raw_value(args, &mut i, "--algo")?;
                o.algo = match v.as_str() {
                    "swope" => Algo::Swope,
                    "rank" => Algo::Rank,
                    "exact" => Algo::Exact,
                    other => return Err(format!("unknown algorithm {other:?}")),
                };
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option {flag:?}"));
            }
            positional => o.positional.push(positional.to_owned()),
        }
        i += 1;
    }
    Ok(o)
}

fn raw_value(args: &[String], i: &mut usize, name: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i).cloned().ok_or_else(|| format!("{name} requires a value"))
}

fn value<T: std::str::FromStr>(args: &[String], i: &mut usize, name: &str) -> Result<T, String> {
    let raw = raw_value(args, i, name)?;
    raw.parse().map_err(|_| format!("invalid value {raw:?} for {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Options, String> {
        let v: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        parse_options(&v)
    }

    #[test]
    fn parses_mixed_positional_and_flags() {
        let o = parse(&["data.csv", "-k", "5", "--epsilon", "0.2", "--algo", "rank"]).unwrap();
        assert_eq!(o.positional, vec!["data.csv"]);
        assert_eq!(o.k, Some(5));
        assert_eq!(o.epsilon, Some(0.2));
        assert_eq!(o.algo, Algo::Rank);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["-k", "notanumber"]).is_err());
        assert!(parse(&["-k"]).is_err());
        assert!(parse(&["--algo", "magic"]).is_err());
    }

    #[test]
    fn target_and_eta() {
        let o = parse(&["f.swop", "--target", "income", "--eta", "0.3"]).unwrap();
        assert_eq!(o.target.as_deref(), Some("income"));
        assert_eq!(o.eta, Some(0.3));
    }

    #[test]
    fn gen_options() {
        let o =
            parse(&["tiny", "--rows", "100", "--cols", "8", "--out", "t.swop", "--scale", "0.5"])
                .unwrap();
        assert_eq!(o.rows, Some(100));
        assert_eq!(o.cols, Some(8));
        assert_eq!(o.out.as_deref(), Some("t.swop"));
        assert_eq!(o.scale, Some(0.5));
    }

    #[test]
    fn scope_flags() {
        let o = parse(&[
            "d.swop",
            "-k",
            "2",
            "--row-start",
            "100",
            "--row-end",
            "900",
            "--where",
            "state=CA",
        ])
        .unwrap();
        assert_eq!(o.row_start, Some(100));
        assert_eq!(o.row_end, Some(900));
        assert_eq!(o.where_clause.as_deref(), Some("state=CA"));
        assert!(parse(&["--row-start", "early"]).is_err());
        assert!(parse(&["--where"]).is_err());
        let o = parse(&["d.swop"]).unwrap();
        assert_eq!((o.row_start, o.row_end), (None, None));
        assert!(o.where_clause.is_none());
    }

    #[test]
    fn observability_flags() {
        let o = parse(&["d.swop", "-k", "2", "--events-out", "ev.jsonl", "--metrics"]).unwrap();
        assert_eq!(o.events_out.as_deref(), Some("ev.jsonl"));
        assert!(o.metrics);
        assert!(parse(&["--events-out"]).is_err());
        let o = parse(&["d.swop"]).unwrap();
        assert!(o.events_out.is_none());
        assert!(!o.metrics);
    }

    #[test]
    fn serve_options() {
        let o = parse(&[
            "a.swop",
            "--addr",
            "127.0.0.1:0",
            "--queue-depth",
            "8",
            "--cache-capacity",
            "32",
            "--deadline-ms",
            "250",
            "--exec-threads",
            "3",
        ])
        .unwrap();
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(o.queue_depth, Some(8));
        assert_eq!(o.cache_capacity, Some(32));
        assert_eq!(o.deadline_ms, Some(250));
        assert_eq!(o.exec_threads, Some(3));
        assert!(parse(&["--queue-depth", "lots"]).is_err());
        assert!(parse(&["--addr"]).is_err());
    }

    #[test]
    fn serve_tracing_options() {
        let o =
            parse(&["a.swop", "--trace", "--slow-ms", "50", "--access-log", "req.log"]).unwrap();
        assert!(o.trace);
        assert_eq!(o.slow_ms, Some(50));
        assert_eq!(o.access_log.as_deref(), Some("req.log"));
        assert!(parse(&["--slow-ms", "fast"]).is_err());
        assert!(parse(&["--access-log"]).is_err());
        let o = parse(&["a.swop"]).unwrap();
        assert!(!o.trace);
        assert_eq!((o.slow_ms, o.access_log), (None, None));
    }

    #[test]
    fn serve_connection_options() {
        let o = parse(&[
            "a.swop",
            "--keep-alive-ms",
            "5000",
            "--max-conns",
            "128",
            "--tenant-rps",
            "2.5",
            "--tenant-burst",
            "10",
        ])
        .unwrap();
        assert_eq!(o.keep_alive_ms, Some(5000));
        assert_eq!(o.max_conns, Some(128));
        assert_eq!(o.tenant_rps, Some(2.5));
        assert_eq!(o.tenant_burst, Some(10.0));
        assert!(parse(&["--keep-alive-ms", "forever"]).is_err());
        assert!(parse(&["--max-conns"]).is_err());
        assert!(parse(&["--tenant-rps", "fast"]).is_err());
        let o = parse(&["a.swop"]).unwrap();
        assert!(o.keep_alive_ms.is_none() && o.max_conns.is_none());
        assert!(o.tenant_rps.is_none() && o.tenant_burst.is_none());
    }

    #[test]
    fn shard_and_peer_flags() {
        let o = parse(&["d.swop", "-k", "2", "--shards", "4"]).unwrap();
        assert_eq!(o.shards, Some(4));
        assert!(parse(&["--shards", "many"]).is_err());
        let o = parse(&[
            "a.swop",
            "--peer",
            "10.0.0.1:7878",
            "--peer",
            "10.0.0.2:7878",
            "--peer-timeout-ms",
            "500",
        ])
        .unwrap();
        assert_eq!(o.peers, vec!["10.0.0.1:7878", "10.0.0.2:7878"]);
        assert_eq!(o.peer_timeout_ms, Some(500));
        assert!(parse(&["--peer"]).is_err());
        let o = parse(&["d.swop"]).unwrap();
        assert!(o.shards.is_none());
        assert!(o.peers.is_empty());
        assert!(o.peer_timeout_ms.is_none());
    }

    #[test]
    fn pager_flags() {
        let o = parse(&["a.swop", "--mmap"]).unwrap();
        assert!(o.mmap && o.paged());
        assert!(o.store_budget_bytes.is_none());
        let o = parse(&["a.swop", "--store-budget-bytes", "1048576"]).unwrap();
        assert!(!o.mmap);
        assert_eq!(o.store_budget_bytes, Some(1_048_576));
        assert!(o.paged(), "a byte budget implies paging");
        assert!(parse(&["--store-budget-bytes", "plenty"]).is_err());
        assert!(parse(&["--store-budget-bytes"]).is_err());
        let o = parse(&["a.swop"]).unwrap();
        assert!(!o.paged());
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.algo, Algo::Swope);
        assert!(o.positional.is_empty());
        assert!(o.k.is_none());
    }
}
