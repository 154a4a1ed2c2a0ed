//! End-to-end tests driving the `swope` binary.

#[path = "../../columnar/tests/support/snapshot_v2.rs"]
mod snapshot_v2;

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use swope_obs::json::Json;
use swope_server::{Server, ServerConfig, ServerHandle};

fn swope(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_swope")).args(args).output().expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("swope-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// An in-process `swope serve` of `files` under a `max_support` cap: its
/// address, its remote control, and the thread serving.
fn serve(files: &[&str], max_support: u32) -> (String, ServerHandle, std::thread::JoinHandle<()>) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 1,
        exec_threads: 1,
        max_support,
        ..ServerConfig::default()
    };
    let server = Server::bind(config).unwrap();
    for file in files {
        server.registry().load_path(file).unwrap();
    }
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    (addr, handle, std::thread::spawn(move || server.run()))
}

/// The JSON body `GET target` is answered with.
fn get(addr: &str, target: &str) -> Json {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (_, body) = response.split_once("\r\n\r\n").expect("a complete response");
    Json::parse(body).unwrap()
}

/// `swope inspect <f> | head -1` over a file whose listing outgrows a
/// pipe's buffer: once the reader closes its end after one line, the
/// command ends quietly — no panic on stderr, a clean exit.
#[test]
fn a_closed_stdout_ends_a_command_quietly() {
    use std::io::BufRead;
    let path = tmp("wide.swop");
    let path = path.to_str().unwrap();
    let gen = swope(&["gen", "tiny", "--rows", "64", "--cols", "2000", "--out", path]);
    assert!(gen.status.success(), "{}", stderr(&gen));
    let mut child = Command::new(env!("CARGO_BIN_EXE_swope"))
        .args(["inspect", path])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut out = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    out.read_line(&mut line).unwrap();
    assert!(line.starts_with("rows: 64 "), "{line}");
    drop(out);
    let done = child.wait_with_output().unwrap();
    let err = stderr(&done);
    assert!(!err.contains("panicked") && !err.contains("Broken pipe"), "{err}");
    assert!(done.status.success(), "{:?}: {err}", done.status);
}

#[test]
fn help_prints_usage() {
    let o = swope(&["help"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("entropy-topk"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let o = swope(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));
    assert!(stderr(&o).contains("usage:"));
}

#[test]
fn gen_stats_and_queries_pipeline() {
    let path = tmp("pipeline.swop");
    let path_s = path.to_str().unwrap();

    let o = swope(&["gen", "tiny", "--rows", "4000", "--cols", "10", "--out", path_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("4000 rows x 10 columns"));

    let o = swope(&["stats", path_s]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("rows: 4000"));

    let o = swope(&["entropy-topk", path_s, "-k", "3"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("top-3 by empirical entropy"));
    assert_eq!(out.lines().filter(|l| l.starts_with(char::is_numeric)).count(), 3);

    let o = swope(&["entropy-filter", path_s, "--eta", "1.0", "--algo", "exact"]);
    assert!(o.status.success(), "{}", stderr(&o));

    let o = swope(&["mi-topk", path_s, "--target", "0", "-k", "2"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("mutual information"));

    let o = swope(&["entropy-profile", path_s]);
    assert!(o.status.success(), "{}", stderr(&o));

    let o = swope(&["compare", path_s, "-k", "3"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("agreement: 3/3"));
}

#[test]
fn inspect_reports_widths_and_savings() {
    let csv_path = tmp("inspect.csv");
    std::fs::write(&csv_path, "color,size\nred,s\nblue,m\nred,l\ngreen,s\n").unwrap();

    let o = swope(&["inspect", csv_path.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("rows: 4"), "{out}");
    assert!(out.contains("width"), "{out}");
    // Both columns have support <= 256, so they pack to 8-bit codes: 4
    // bytes each, and the footer reports the 75% saving vs all-u32.
    assert!(out.lines().filter(|l| l.contains(" 8b ")).count() == 2, "{out}");
    assert!(out.contains("total: 8 bytes packed (32 at u32; saves 24 bytes, 75.0%)"), "{out}");
}

#[test]
fn inspect_reports_sketch_and_degrades_without_one() {
    // CSV input has no snapshot to carry a sketch: inspect degrades to a
    // one-line "none" note instead of failing.
    let csv_path = tmp("sketchless.csv");
    std::fs::write(&csv_path, "color,size\nred,s\nblue,m\nred,l\n").unwrap();
    let o = swope(&["inspect", csv_path.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("sketch: none"), "{}", stdout(&o));

    // A v2 snapshot carries the sketch section: inspect reports its
    // footprint and each column's histogram layout.
    let swop = tmp("sketchful.swop");
    let p = swop.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "2000", "--cols", "4", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = swope(&["inspect", p]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("sketch: 1 page(s) x 4 column(s)"), "{out}");
    assert!(out.contains("bytes encoded"), "{out}");
    assert!(out.contains("compact") || out.contains("sparse"), "{out}");
}

#[test]
fn inspect_rejects_corrupt_sketch_section_with_one_line_error() {
    let swop = tmp("corrupt-sketch.swop");
    let p = swop.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "2000", "--cols", "4", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));
    // The sketch is the final section of a v2 snapshot and carries its
    // own trailing CRC; flipping a byte near the end of the file lands
    // inside it while every column section stays valid.
    let mut bytes = std::fs::read(&swop).unwrap();
    let last = bytes.len() - 5;
    bytes[last] ^= 0x40;
    std::fs::write(&swop, &bytes).unwrap();
    let o = swope(&["inspect", p]);
    assert!(!o.status.success());
    let err = stderr(&o);
    let first = err.lines().next().unwrap();
    assert!(first.starts_with("error: "), "{err}");
    assert!(first.contains("sketch"), "{err}");
}

#[test]
fn unreadable_snapshot_layouts_are_one_line_errors_naming_what_is_wrong() {
    let swop = tmp("unreadable.swop");
    let p = swop.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "2000", "--cols", "4", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));
    let good = std::fs::read(&swop).unwrap();
    // The flat pre-paging format's version number.
    let mut v1 = good.clone();
    v1[4] = 1;
    // Column 0's page stream (section table entry 1: offset at +8; the
    // stream follows the section's one-byte width tag) claiming 4096-row
    // pages, a geometry no writer ever produced.
    let mut small_pages = good.clone();
    let entry = 12 + 24;
    let at = u64::from_le_bytes(good[entry + 8..entry + 16].try_into().unwrap()) as usize + 1;
    assert_eq!(good[at..at + 4], 65_536u32.to_le_bytes(), "offset arithmetic drifted");
    small_pages[at..at + 4].copy_from_slice(&4096u32.to_le_bytes());
    for (bytes, want) in [(v1, "unsupported version 1"), (small_pages, "column 0: ")] {
        std::fs::write(&swop, &bytes).unwrap();
        for mode in [&[][..], &["--mmap"]] {
            let o = swope(&[&["entropy-topk", p, "-k", "2"], mode].concat());
            assert!(!o.status.success());
            let err = stderr(&o);
            let first = err.lines().next().unwrap();
            assert!(first.starts_with("error: ") && first.contains(want), "{mode:?}: {err}");
        }
    }
    assert!(stderr(&swope(&["entropy-topk", p])).contains("page size of 4096 rows"));
}

#[test]
fn a_v2_snapshot_answers_as_its_v3_rewrite_and_converts_to_it() {
    let v3 = tmp("layout-v3.swop");
    let o =
        swope(&["gen", "tiny", "--rows", "150000", "--cols", "4", "--out", v3.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    let v2 = tmp("layout-v2.swop");
    std::fs::write(&v2, snapshot_v2::v2_of(&std::fs::read(&v3).unwrap())).unwrap();
    let (v3, v2) = (v3.to_str().unwrap(), v2.to_str().unwrap());

    let inspect = stdout(&swope(&["inspect", v2]));
    assert!(inspect.contains("snapshot: v2, pages in row order"), "{inspect}");
    // One answer, wherever the columns live; a paged open of the v2 file
    // says once, on stderr, how to make its in-memory rewrite last.
    let query = ["entropy-topk", "-k", "2", "--seed", "5", "--row-start", "70000"];
    let ask =
        |file: &str, extra: &[&str]| swope(&[&query[..1], &[file], &query[1..], extra].concat());
    let want = ask(v3, &[]);
    assert!(want.status.success(), "{}", stderr(&want));
    for (file, extra) in [(v2, &[][..]), (v2, &["--mmap"][..]), (v3, &["--mmap"][..])] {
        let o = ask(file, extra);
        assert_eq!(stdout(&o), stdout(&want), "{file} {extra:?}");
        let notes: Vec<String> = stderr(&o).lines().map(str::to_owned).collect();
        let upgraded = file == v2 && !extra.is_empty();
        let convert = format!("`swope convert {v2} {v2}` rewrites the file");
        assert_eq!(notes.len(), usize::from(upgraded), "{file} {extra:?}: {notes:?}");
        assert!(!upgraded || notes[0].contains(&convert), "{notes:?}");
    }

    // `convert` writes the v3 bytes.
    let converted = tmp("layout-converted.swop");
    assert!(swope(&["convert", v2, converted.to_str().unwrap()]).status.success());
    assert!(std::fs::read(&converted).unwrap() == std::fs::read(v3).unwrap());
    let inspect = stdout(&swope(&["inspect", converted.to_str().unwrap()]));
    assert!(inspect.contains("snapshot: v3, pages in layout order (seed 0x"), "{inspect}");
}

#[test]
fn scoped_queries_restrict_rows_and_validate_flags() {
    let swop = tmp("scoped.swop");
    let p = swop.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "4000", "--cols", "6", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));

    // A scope covering every row answers identically to the unscoped run.
    let a = swope(&["entropy-topk", p, "-k", "3", "--seed", "7"]);
    let b = swope(&[
        "entropy-topk",
        p,
        "-k",
        "3",
        "--seed",
        "7",
        "--row-start",
        "0",
        "--row-end",
        "4000",
    ]);
    assert!(a.status.success() && b.status.success(), "{}", stderr(&b));
    assert_eq!(stdout(&a), stdout(&b), "full-range scope must match the unscoped query");

    // A sub-range samples from just the scoped rows.
    let o = swope(&["entropy-topk", p, "-k", "3", "--row-start", "1000", "--row-end", "1500"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    let sampled: usize =
        out.split("sampled ").nth(1).unwrap().split(' ').next().unwrap().parse().unwrap();
    assert!(sampled <= 500, "scope of 500 rows sampled {sampled}: {out}");

    // Predicate scopes accept numeric codes for dictionary-less columns.
    let o = swope(&["entropy-topk", p, "-k", "2", "--where", "0=1"]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Scopes exist on the adaptive loop; the exact baseline rejects them.
    let o = swope(&["entropy-topk", p, "-k", "2", "--row-start", "10", "--algo", "exact"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("not supported by --algo exact"), "{}", stderr(&o));

    // An inverted range is a one-line error from the core, not a panic.
    let o = swope(&["entropy-topk", p, "-k", "2", "--row-start", "300", "--row-end", "100"]);
    assert!(!o.status.success());
    assert!(stderr(&o).starts_with("error: "), "{}", stderr(&o));

    // One `where` grammar: each way a clause can miss is worded alike by
    // the CLI and over HTTP. A CSV's columns carry dictionaries, the
    // generated snapshot's none.
    let csv = tmp("scoped-labels.csv");
    let c = csv.to_str().unwrap();
    assert!(swope(&["convert", p, c]).status.success());
    let (addr, handle, thread) = serve(&[p, c], 1000);
    let labels = (c, "scoped-labels");
    let cases = [
        (labels, "0="),
        (labels, "=3"),
        (labels, "a=b=c"),
        (labels, "9=1"),
        (labels, "0=zz"),
        ((p, "scoped"), "0=zz"),
        ((p, "scoped"), "1"),
    ];
    for ((file, dataset), clause) in cases {
        let o = swope(&["entropy-topk", file, "-k", "2", "--where", clause]);
        let clause_param = clause.replace('=', "%3D");
        let served =
            get(&addr, &format!("/query/entropy-topk?dataset={dataset}&k=2&where={clause_param}"));
        let message = served.get("error").unwrap().as_str().unwrap();
        assert_eq!(stderr(&o).lines().next().unwrap(), format!("error: {message}"), "{clause}");
    }
    handle.shutdown();
    thread.join().unwrap();
}

/// A `where` value on a column with a dictionary is read as a label
/// first: on a CSV, whose codes follow first appearance, `1=0` selects
/// the rows whose value is "0", not the rows that got code 0 — in the
/// CLI and over HTTP alike.
#[test]
fn where_values_on_a_csv_are_labels_before_codes() {
    let csv = tmp("where-labels.csv");
    let c = csv.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "5000", "--cols", "6", "--out", c]);
    assert!(o.status.success(), "{}", stderr(&o));
    let text = std::fs::read_to_string(&csv).unwrap();
    let column = |v: &str| text.lines().skip(1).filter(|l| l.split(',').nth(1) == Some(v)).count();
    // Code 0 is the first row's label, which is not "0".
    let first = text.lines().nth(1).unwrap().split(',').nth(1).unwrap();
    assert_ne!(first, "0");
    let want = column("0");
    assert_ne!(want, column(first));
    let eps = ["--epsilon", "0.0005"];
    let o = swope(&[&["entropy-profile", c, "--where", "1=0"][..], &eps].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains(&format!("(sampled {want} rows in")), "{}", stdout(&o));
    let (addr, handle, thread) = serve(&[c], 1000);
    let served =
        get(&addr, "/query/entropy-profile?dataset=where-labels&where=1%3D0&epsilon=0.0005");
    handle.shutdown();
    thread.join().unwrap();
    let stats = served.get("stats").unwrap();
    assert_eq!(stats.get("sample_size").unwrap().as_u64(), Some(want as u64), "{served:?}");
}

#[test]
fn sharded_queries_match_unsharded_output_and_validate_flags() {
    let swop = tmp("sharded.swop");
    let p = swop.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "4000", "--cols", "6", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Every shard count prints byte-identical output — the count-merge
    // protocol is exact, not approximate.
    let baseline = swope(&["entropy-topk", p, "-k", "3", "--seed", "7"]);
    assert!(baseline.status.success(), "{}", stderr(&baseline));
    for shards in ["1", "2", "3", "7"] {
        let o = swope(&["entropy-topk", p, "-k", "3", "--seed", "7", "--shards", shards]);
        assert!(o.status.success(), "{}", stderr(&o));
        assert_eq!(stdout(&o), stdout(&baseline), "--shards {shards} diverged");
    }
    let baseline = swope(&["mi-topk", p, "--target", "0", "-k", "2", "--seed", "7"]);
    let o = swope(&["mi-topk", p, "--target", "0", "-k", "2", "--seed", "7", "--shards", "3"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert_eq!(stdout(&o), stdout(&baseline));

    // The exact scan has no shards, and shards cannot combine with scopes.
    let o = swope(&["entropy-topk", p, "-k", "2", "--shards", "2", "--algo", "exact"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("not supported by --algo exact"), "{}", stderr(&o));
    let o = swope(&["entropy-topk", p, "-k", "2", "--shards", "2", "--row-start", "5"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("cannot be combined"), "{}", stderr(&o));
    let o = swope(&["entropy-topk", p, "-k", "2", "--shards", "0"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("at least 1"), "{}", stderr(&o));
}

/// `--algo rank` is a rule on the adaptive loop, so every flag that
/// steers the loop steers it too.
#[test]
fn rank_takes_scopes_shards_observers_and_the_pager() {
    use swope_columnar::{Dataset, Residency};
    use swope_core::{run, Executor, NoopObserver, Rule, Scope, Shape, SwopeConfig};

    let swop = tmp("rank.swop");
    let p = swop.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "150000", "--cols", "6", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));

    // A scoped answer is `run` over the same scope, printed.
    let rank = ["entropy-topk", p, "-k", "3", "--algo", "rank", "--seed", "7"];
    let o = swope(&[&rank[..], &["--row-start", "0", "--row-end", "500"]].concat());
    assert!(o.status.success(), "{}", stderr(&o));
    let (ds, _) = Dataset::open(p, Residency::Heap).unwrap();
    let cfg = SwopeConfig::with_epsilon(0.1).with_seed(7);
    let want = run(
        &ds,
        &Shape::entropy(Rule::Rank { k: 3 }),
        &Scope::range(0, 500),
        None,
        &cfg,
        &mut NoopObserver,
        &Executor::sequential(),
    )
    .unwrap();
    assert!(want.stats.sample_size <= 500);
    let mut lines = vec![
        format!(
            "top-3 by empirical entropy (sampled {} rows in {} iteration(s)):",
            want.stats.sample_size, want.stats.iterations
        ),
        format!("{:<6} {:<24} {:>10} {:>10} {:>10}", "attr", "name", "estimate", "lower", "upper"),
    ];
    lines.extend(want.scores.iter().map(|s| {
        format!(
            "{:<6} {:<24} {:>10.4} {:>10.4} {:>10.4}",
            s.attr, s.name, s.estimate, s.lower, s.upper
        )
    }));
    assert_eq!(stdout(&o).lines().collect::<Vec<_>>(), lines);

    // Shards, the pager under a budget and the observers leave the
    // answer's bytes alone; EntropyFilter and the MI lifts likewise.
    let queries: [&[&str]; 4] = [
        &rank,
        &["entropy-filter", p, "--eta", "2.0", "--algo", "rank"],
        &["mi-topk", p, "--target", "0", "-k", "2", "--algo", "rank"],
        &["mi-filter", p, "--target", "0", "--eta", "0.1", "--algo", "rank"],
    ];
    let events = tmp("rank.jsonl");
    for query in queries {
        let heap = swope(query);
        assert!(heap.status.success(), "{}", stderr(&heap));
        let variants: [&[&str]; 3] = [
            &["--shards", "3"],
            &["--mmap", "--store-budget-bytes", "100000"],
            &["--events-out", events.to_str().unwrap(), "--metrics"],
        ];
        for extra in variants {
            let o = swope(&[query, extra].concat());
            assert!(o.status.success(), "{extra:?}: {}", stderr(&o));
            assert!(stdout(&o).starts_with(&stdout(&heap)), "{query:?} {extra:?} diverged");
            assert_eq!(stderr(&o), "", "{extra:?}");
        }
        // The observers saw the query the rule answers exactly.
        let log = std::fs::read_to_string(&events).unwrap();
        assert!(log.lines().next().unwrap().contains("\"event\":\"query_start\""), "{log}");
        assert!(log.contains("\"event\":\"attr_retired\""));
    }
}

/// The profile queries have neither a comparator rule nor a full scan, so
/// `--algo rank` and `--algo exact` are refused, not answered by SWOPE.
#[test]
fn profiles_refuse_rank_and_exact() {
    let swop = tmp("profile-algo.swop");
    let p = swop.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "2000", "--cols", "4", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));
    let queries: [&[&str]; 2] = [&["entropy-profile", p], &["mi-profile", p, "--target", "0"]];
    for query in queries {
        for algo in ["rank", "exact"] {
            let o = swope(&[query, &["--algo", algo, "--metrics"]].concat());
            assert!(!o.status.success(), "{query:?} --algo {algo} answered");
            assert!(stdout(&o).is_empty(), "{}", stdout(&o));
            let err = stderr(&o);
            let first = err.lines().next().unwrap();
            assert!(first.starts_with("error: profile queries"), "{err}");
            assert!(first.ends_with(&format!("are not supported by --algo {algo}")), "{err}");
        }
        let o = swope(&[query, &["--algo", "swope"]].concat());
        assert!(o.status.success(), "{}", stderr(&o));
    }
}

#[test]
fn split_cuts_rows_and_preserves_supports() {
    let u = tmp("split_u.swop");
    let a = tmp("split_a.swop");
    let b = tmp("split_b.swop");
    let (u_s, a_s, b_s) = (u.to_str().unwrap(), a.to_str().unwrap(), b.to_str().unwrap());
    let o = swope(&["gen", "tiny", "--rows", "3000", "--cols", "5", "--out", u_s]);
    assert!(o.status.success(), "{}", stderr(&o));

    let o = swope(&["split", u_s, a_s, b_s, "--at", "1234"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("1234 rows"), "{}", stdout(&o));
    assert!(stdout(&o).contains("1766 rows"), "{}", stdout(&o));

    // Each half keeps the union's per-column (name, support) pairs even
    // when a half observes fewer distinct values — the invariant that
    // lets `serve --peer` merge their counts exactly.
    let supports = |path: &str| -> Vec<(String, String)> {
        let out = stdout(&swope(&["stats", path]));
        out.lines()
            .skip(2)
            .map(|l| {
                let mut it = l.split_whitespace();
                (it.next().unwrap().to_owned(), it.next().unwrap().to_owned())
            })
            .collect()
    };
    let union_supports = supports(u_s);
    assert_eq!(supports(a_s), union_supports);
    assert_eq!(supports(b_s), union_supports);

    // The cut must fall strictly inside the rows, and --at is required.
    let o = swope(&["split", u_s, a_s, b_s, "--at", "0"]);
    assert!(!o.status.success());
    let o = swope(&["split", u_s, a_s, b_s, "--at", "3000"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("must fall inside"), "{}", stderr(&o));
    let o = swope(&["split", u_s, a_s, b_s]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--at is required"), "{}", stderr(&o));
}

#[test]
fn split_outputs_carry_sketches() {
    let u = tmp("split_sk_u.swop");
    let a = tmp("split_sk_a.swop");
    let b = tmp("split_sk_b.swop");
    let (u_s, a_s, b_s) = (u.to_str().unwrap(), a.to_str().unwrap(), b.to_str().unwrap());
    let o = swope(&["gen", "tiny", "--rows", "3000", "--cols", "4", "--out", u_s]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = swope(&["split", u_s, a_s, b_s, "--at", "1000"]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Both halves are full v2 snapshots: each carries its own freshly
    // built sketch section, so range/predicate scopes work on the shards
    // without a re-sketching pass.
    for half in [a_s, b_s] {
        let o = swope(&["inspect", half]);
        assert!(o.status.success(), "{}", stderr(&o));
        let out = stdout(&o);
        assert!(out.contains("sketch: 1 page(s) x 4 column(s)"), "{half}: {out}");
        assert!(!out.contains("sketch: none"), "{half}: {out}");
    }
    // Each half keeps the union's layout: a v4 snapshot that names its
    // frame. The union itself is a dataset of its own, and names none.
    let [ia, ib, iu] = [a_s, b_s, u_s].map(|path| stdout(&swope(&["inspect", path])));
    assert!(ia.contains("snapshot: v4, pages in layout order"), "{ia}");
    assert!(ia.contains("frame: rows 0..1000 of a 3000-row table"), "{ia}");
    assert!(ib.contains("frame: rows 1000..3000 of a 3000-row table"), "{ib}");
    assert!(iu.contains("snapshot: v3") && !iu.contains("frame:"), "{iu}");
}

#[test]
fn paged_queries_match_heap_output_and_inspect_reports_residency() {
    let swop = tmp("paged.swop");
    let p = swop.to_str().unwrap();
    // 100k rows x 3 u8 columns = 300,000 plain bytes across 6 pages.
    let o = swope(&["gen", "tiny", "--rows", "100000", "--cols", "3", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));

    // Inspect under --mmap loads lazily and reports page residency.
    let o = swope(&["inspect", p, "--mmap"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("paged: 3 column(s) via "), "{out}");
    assert!(out.contains("(unbounded)"), "{out}");

    // The same query answers byte-identically from the heap, from an
    // unbounded mmap, and from a budget tight enough to force eviction
    // (200,000 < 300,000 plain bytes, so at most 3 of 6 pages stay hot).
    let base = &["entropy-topk", p, "-k", "2", "--seed", "7", "--epsilon", "0.5"];
    let heap = swope(base);
    assert!(heap.status.success(), "{}", stderr(&heap));
    let mut mmap_args = base.to_vec();
    mmap_args.push("--mmap");
    let mmap = swope(&mmap_args);
    assert!(mmap.status.success(), "{}", stderr(&mmap));
    assert_eq!(stdout(&mmap), stdout(&heap), "--mmap diverged from heap output");
    let mut budget_args = base.to_vec();
    budget_args.extend(["--store-budget-bytes", "200000"]);
    let budget = swope(&budget_args);
    assert!(budget.status.success(), "{}", stderr(&budget));
    assert_eq!(stdout(&budget), stdout(&heap), "budgeted run diverged from heap output");
}

#[test]
fn convert_round_trips_csv_and_snapshot() {
    let csv_path = tmp("convert.csv");
    std::fs::write(&csv_path, "color,size\nred,s\nblue,m\nred,l\n").unwrap();
    let swop_path = tmp("convert.swop");
    let back_path = tmp("convert_back.csv");

    let o = swope(&["convert", csv_path.to_str().unwrap(), swop_path.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));
    let o = swope(&["convert", swop_path.to_str().unwrap(), back_path.to_str().unwrap()]);
    assert!(o.status.success(), "{}", stderr(&o));

    let original = std::fs::read_to_string(&csv_path).unwrap();
    let round_tripped = std::fs::read_to_string(&back_path).unwrap();
    assert_eq!(original, round_tripped);
}

#[test]
fn missing_required_options_error_cleanly() {
    let path = tmp("missing.swop");
    let o =
        swope(&["gen", "tiny", "--rows", "100", "--cols", "4", "--out", path.to_str().unwrap()]);
    assert!(o.status.success());
    let p = path.to_str().unwrap();

    let o = swope(&["entropy-topk", p]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("-k is required"));

    let o = swope(&["mi-topk", p, "-k", "2"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--target is required"));

    let o = swope(&["entropy-filter", p]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--eta is required"));
}

#[test]
fn malformed_flags_fail_with_one_line_error_and_usage() {
    let path = tmp("badflags.swop");
    let o =
        swope(&["gen", "tiny", "--rows", "100", "--cols", "4", "--out", path.to_str().unwrap()]);
    assert!(o.status.success());
    let p = path.to_str().unwrap();

    // Unknown flag.
    let o = swope(&["entropy-topk", p, "-k", "2", "--definitely-not-a-flag"]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(err.contains("error: unknown option \"--definitely-not-a-flag\""), "{err}");
    assert!(err.contains("usage:"), "{err}");
    assert!(stdout(&o).is_empty(), "errors must not pollute stdout");

    // Flag at the end with its value missing.
    let o = swope(&["mi-topk", p, "-k", "2", "--target"]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(err.contains("error: --target requires a value"), "{err}");
    assert!(err.contains("usage:"), "{err}");

    // Non-numeric value for a numeric flag.
    let o = swope(&["entropy-topk", p, "-k", "three"]);
    assert!(!o.status.success());
    let err = stderr(&o);
    assert!(err.contains("error: invalid value \"three\" for -k"), "{err}");
    assert!(err.contains("usage:"), "{err}");

    // The one-line error comes first, then a blank line, then usage.
    let mut lines = err.lines();
    assert!(lines.next().unwrap().starts_with("error: "));
    assert_eq!(lines.next(), Some(""));
    assert!(lines.next().unwrap().starts_with("usage:"));
}

/// A failure of what the arguments ask for — a file that does not open,
/// before or after `serve` binds — is its one `error:` line; an argv
/// that cannot be parsed still prints the usage after it.
#[test]
fn runtime_failures_print_one_line_and_argument_errors_the_usage() {
    let missing = tmp("no-such-file.swop");
    let _ = std::fs::remove_file(&missing);
    let m = missing.to_str().unwrap();
    for args in [
        vec!["entropy-topk", m, "-k", "2"],
        vec!["inspect", m],
        vec!["serve", m, "--addr", "127.0.0.1:0", "--threads", "1"],
    ] {
        let o = swope(&args);
        assert!(!o.status.success(), "{args:?}");
        let err = stderr(&o);
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.starts_with("error: ") && !err.contains("usage:"), "{args:?}: {err}");
    }
    for args in [vec!["entropy-topk", m, "--nope"], vec!["convert", m], vec![]] {
        let o = swope(&args);
        assert!(!o.status.success(), "{args:?}");
        let err = stderr(&o);
        let mut lines = err.lines();
        assert!(lines.next().unwrap().starts_with("error: "), "{args:?}: {err}");
        assert_eq!(lines.next(), Some(""), "{args:?}");
        assert!(lines.next().unwrap().starts_with("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn serve_answers_health_and_queries() {
    use std::io::{BufRead, BufReader, Read, Write};

    let path = tmp("serve.swop");
    let p = path.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "500", "--cols", "5", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));

    let mut child = Command::new(env!("CARGO_BIN_EXE_swope"))
        .args(["serve", p, "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");

    // The server prints its bound address once ready.
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            let mut err = String::new();
            let _ = child.stderr.take().unwrap().read_to_string(&mut err);
            panic!("server exited before listening: {err}");
        }
        if let Some(rest) = line.trim().strip_prefix("listening on http://") {
            break rest.to_owned();
        }
    };

    let request = |target: &str| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .write_all(
                format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
            )
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    };

    let health = request("/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.contains("\"datasets\":1"), "{health}");

    let query = request("/query/entropy-topk?dataset=serve&k=2");
    assert!(query.starts_with("HTTP/1.1 200"), "{query}");
    assert!(query.contains("\"query\":\"entropy_top_k\""), "{query}");

    let metrics = request("/metrics");
    assert!(metrics.contains("swope_http_requests_total"), "{metrics}");

    child.kill().unwrap();
    child.wait().unwrap();
}

#[test]
fn serve_access_log_records_requests_with_trace_ids() {
    use std::io::{BufRead, BufReader, Read, Write};

    let path = tmp("serve-log.swop");
    let p = path.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "400", "--cols", "4", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));
    let log_path = tmp("serve-access.log");
    std::fs::remove_file(&log_path).ok();

    let mut child = Command::new(env!("CARGO_BIN_EXE_swope"))
        .args([
            "serve",
            p,
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--slow-ms",
            "0",
            "--access-log",
            log_path.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");

    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            let mut err = String::new();
            let _ = child.stderr.take().unwrap().read_to_string(&mut err);
            panic!("server exited before listening: {err}");
        }
        if let Some(rest) = line.trim().strip_prefix("listening on http://") {
            break rest.to_owned();
        }
    };

    let request = |raw: &str| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    };

    let health = request("GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    let traced = request(
        "GET /query/entropy-topk?dataset=serve-log&k=1 HTTP/1.1\r\nHost: t\r\n\
         X-Swope-Trace: abc123\r\nConnection: close\r\n\r\n",
    );
    assert!(traced.starts_with("HTTP/1.1 200"), "{traced}");
    assert!(traced.contains("X-Swope-Trace: 0000000000abc123"), "{traced}");

    child.kill().unwrap();
    child.wait().unwrap();

    // Each served request left one flushed logfmt line.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let health_line = log
        .lines()
        .find(|l| l.contains("path=/healthz"))
        .unwrap_or_else(|| panic!("no /healthz line in:\n{log}"));
    assert!(health_line.contains("method=GET"), "{health_line}");
    assert!(health_line.contains("status=200"), "{health_line}");
    assert!(health_line.contains("trace=-"), "{health_line}");
    assert!(health_line.contains("dur_us="), "{health_line}");
    let query_line = log
        .lines()
        .find(|l| l.contains("path=/query/entropy-topk"))
        .unwrap_or_else(|| panic!("no query line in:\n{log}"));
    assert!(query_line.contains("trace=0000000000abc123"), "{query_line}");
    assert!(query_line.contains("cache=miss"), "{query_line}");
    assert!(query_line.contains("bytes="), "{query_line}");
    std::fs::remove_file(&log_path).ok();
}

#[test]
fn serve_access_log_numbers_pipelined_requests_on_one_connection() {
    use std::io::{BufRead, BufReader, Read, Write};

    let path = tmp("serve-pipeline.swop");
    let p = path.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "400", "--cols", "4", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));
    let log_path = tmp("serve-pipeline.log");
    std::fs::remove_file(&log_path).ok();

    let mut child = Command::new(env!("CARGO_BIN_EXE_swope"))
        .args([
            "serve",
            p,
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--access-log",
            log_path.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server spawns");

    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            let mut err = String::new();
            let _ = child.stderr.take().unwrap().read_to_string(&mut err);
            panic!("server exited before listening: {err}");
        }
        if let Some(rest) = line.trim().strip_prefix("listening on http://") {
            break rest.to_owned();
        }
    };

    // Three requests written back-to-back on one socket; the last one
    // closes, so reading to EOF collects all three responses in order.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /datasets HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /query/entropy-topk?dataset=serve-pipeline&k=1 HTTP/1.1\r\nHost: t\r\n\
              Connection: close\r\n\r\n",
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert_eq!(raw.matches("HTTP/1.1 200").count(), 3, "{raw}");

    child.kill().unwrap();
    child.wait().unwrap();

    // One logfmt line per request (not per connection), all carrying the
    // same conn id and 1-based request ordinals in arrival order.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 3, "expected one line per pipelined request:\n{log}");
    let field = |line: &str, key: &str| -> String {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key).map(str::to_owned))
            .unwrap_or_else(|| panic!("no {key} field in: {line}"))
    };
    let conn_ids: Vec<String> = lines.iter().map(|l| field(l, "conn=")).collect();
    assert!(conn_ids.iter().all(|c| c == &conn_ids[0]), "{log}");
    let ordinals: Vec<String> = lines.iter().map(|l| field(l, "req=")).collect();
    assert_eq!(ordinals, ["1", "2", "3"], "{log}");
    assert_eq!(field(lines[0], "path="), "/healthz");
    assert_eq!(field(lines[1], "path="), "/datasets");
    assert_eq!(field(lines[2], "path="), "/query/entropy-topk");
    std::fs::remove_file(&log_path).ok();
}

/// One query on one file gets one answer from `swope <query>` and from
/// `GET /query/<query>`, compared at full precision: the bounds from
/// `--events-out`, the sample size, the iterations and the rows scanned
/// — on inputs where the server's load builds a sketch the file lacks.
#[test]
fn cli_and_server_give_one_answer() {
    let swop = tmp("alike.swop");
    let csv = tmp("alike.csv");
    let (swop, csv) = (swop.to_str().unwrap(), csv.to_str().unwrap());
    let o = swope(&["gen", "tiny", "--rows", "70000", "--cols", "4", "--out", swop]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(swope(&["convert", swop, csv]).status.success());
    let events = tmp("alike.jsonl");
    let mi = ["mi-topk", "--target", "0", "-k", "2", "--seed", "7"];
    let cases: [(&str, u32, &[&str], &str); 3] = [
        // One whole page against 3 464 fringe rows.
        (
            csv,
            1000,
            &["entropy-topk", "-k", "2", "--seed", "7", "--row-start", "0", "--row-end", "69000"],
            "entropy-topk?k=2&seed=7&row_start=0&row_end=69000",
        ),
        // MI takes exact marginals from the sketch.
        (csv, 1000, &mi, "mi-topk?target=0&k=2&seed=7"),
        // Column 3 (support 111) is capped away, so the file's sketch is.
        (swop, 100, &mi, "mi-topk?target=0&k=2&seed=7"),
    ];
    for (file, cap, args, query) in cases {
        let cap_flag = cap.to_string();
        let flags = ["--max-support", &cap_flag, "--events-out", events.to_str().unwrap()];
        let o = swope(&[&args[..1], &[file], &args[1..], &flags].concat());
        assert!(o.status.success(), "{}", stderr(&o));
        let (addr, handle, thread) = serve(&[file], cap);
        let served = get(&addr, &format!("/query/{query}&dataset=alike"));
        handle.shutdown();
        thread.join().unwrap();

        let log = std::fs::read_to_string(&events).unwrap();
        let events: Vec<Json> = log.lines().map(|l| Json::parse(l).unwrap()).collect();
        let event = |name: &'static str| {
            events.iter().filter(move |e| e.get("event").unwrap().as_str() == Some(name))
        };
        let end = event("query_end").next().unwrap();
        for stat in ["sample_size", "iterations", "rows_scanned"] {
            let want = served.get("stats").unwrap().get(stat);
            assert_eq!(end.get(stat), want, "{query}: {stat}");
        }
        let Json::Arr(scores) = served.get("scores").unwrap() else { panic!("{served:?}") };
        let printed: Vec<String> = stdout(&o)
            .lines()
            .filter(|l| l.starts_with(char::is_numeric))
            .map(|l| {
                let words: Vec<&str> = l.split_whitespace().collect();
                [words[0], words[2], words[3], words[4]].join(" ")
            })
            .collect();
        assert_eq!(printed.len(), scores.len(), "{query}");
        for (line, score) in printed.iter().zip(scores) {
            let attr = score.get("attr").unwrap().as_u64().unwrap();
            let bound = |b: &str| score.get(b).unwrap().as_f64().unwrap();
            let want = format!(
                "{attr} {:.4} {:.4} {:.4}",
                bound("estimate"),
                bound("lower"),
                bound("upper")
            );
            assert_eq!(line, &want, "{query}");
            let retired = event("attr_retired")
                .find(|e| e.get("attr").unwrap().as_u64() == Some(attr))
                .unwrap();
            for b in ["lower", "upper"] {
                let got = retired.get(b).unwrap().as_f64().unwrap();
                assert_eq!(got.to_bits(), bound(b).to_bits(), "{query}: attr {attr} {b}");
            }
        }
    }
}

#[test]
fn target_by_name_resolves() {
    let path = tmp("byname.csv");
    std::fs::write(&path, "label,f1\n0,a\n1,b\n0,a\n1,b\n").unwrap();
    let o = swope(&["mi-topk", path.to_str().unwrap(), "--target", "label", "-k", "1"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("target: label"));
    let o = swope(&["mi-topk", path.to_str().unwrap(), "--target", "nope", "-k", "1"]);
    assert!(!o.status.success());
}

#[test]
fn events_out_and_metrics_produce_observability_output() {
    let path = tmp("observed.swop");
    let p = path.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "4000", "--cols", "8", "--out", p]);
    assert!(o.status.success(), "{}", stderr(&o));

    let events = tmp("observed.jsonl");
    let e = events.to_str().unwrap();
    let o = swope(&["entropy-topk", p, "-k", "3", "--events-out", e, "--metrics"]);
    assert!(o.status.success(), "{}", stderr(&o));
    // Metrics summary rendered after the query output.
    let out = stdout(&o);
    assert!(out.contains("rows_scanned_total"), "{out}");

    // The event log is JSONL: every line parses, lifecycle is complete.
    let log = std::fs::read_to_string(&events).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert!(lines.len() >= 3, "expected a lifecycle, got {} lines", lines.len());
    for l in &lines {
        assert!(l.starts_with('{') && l.ends_with('}'), "not a JSON object: {l}");
    }
    assert!(lines[0].contains("\"event\":\"query_start\""));
    assert!(lines.last().unwrap().contains("\"event\":\"query_end\""));
    assert!(log.contains("\"event\":\"attr_retired\""));

    // MI loops go through the same plumbing.
    let o = swope(&["mi-topk", p, "--target", "0", "-k", "2", "--metrics"]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("queries_total"));

    // The exact scan doesn't run the adaptive loop; flags warn, not fail.
    let o = swope(&["entropy-topk", p, "-k", "3", "--algo", "exact", "--metrics"]);
    assert!(o.status.success(), "{}", stderr(&o));
}

#[test]
fn events_out_unwritable_path_errors() {
    let path = tmp("observed_err.swop");
    let p = path.to_str().unwrap();
    let o = swope(&["gen", "tiny", "--rows", "500", "--cols", "4", "--out", p]);
    assert!(o.status.success());
    let o = swope(&["entropy-topk", p, "-k", "2", "--events-out", "/no/such/dir/x.jsonl"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("error"));
}

#[test]
fn nonexistent_file_errors() {
    let o = swope(&["stats", "/definitely/not/here.csv"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("error"));
}
