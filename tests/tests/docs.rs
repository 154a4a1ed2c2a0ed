//! The docs cite only what exists.
//!
//! README.md, DESIGN.md, EXPERIMENTS.md and `docs/*.md` point readers at
//! result files, micro-benches, source files and EXPERIMENTS.md
//! sections. Each kind of citation is checked against the tree:
//!
//! * a backticked `results/…` path names a file (a `*` or `<placeholder>`
//!   component must match at least one);
//! * a backticked `bench/<name>` names `crates/bench/benches/<name>.rs`;
//! * a backticked path with a `/` that ends in `.rs`, once a trailing
//!   `::item` or `:line` is cut, names a file from the repo root or from
//!   `crates/`;
//! * `EXPERIMENTS.md § "…"` is a prefix of one of its `##` headings.

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ sits in the repo root").into()
}

/// The checked documents as `(name, text)`.
fn docs(root: &Path) -> Vec<(String, String)> {
    let mut names: Vec<String> =
        ["README.md", "DESIGN.md", "EXPERIMENTS.md"].map(String::from).to_vec();
    for entry in fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if name.ends_with(".md") {
            names.push(format!("docs/{name}"));
        }
    }
    names
        .into_iter()
        .map(|name| {
            let text =
                fs::read_to_string(root.join(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, text)
        })
        .collect()
}

/// Inline code spans outside fenced blocks, with line breaks inside a
/// span read as spaces.
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push(' ');
        }
    }
    prose.split('`').skip(1).step_by(2).map(str::to_owned).collect()
}

/// `*` matches any run of characters; everything else is literal.
fn glob_match(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (0..=name.len() - head.len()).any(|i| {
                    name.is_char_boundary(head.len() + i)
                        && glob_match(tail, &name[head.len() + i..])
                })
        }
    }
}

/// Whether `pattern` (`/`-separated, `*` and `<placeholder>` components
/// allowed) names at least one existing path under `dir`.
fn resolves(dir: &Path, pattern: &str) -> bool {
    let (first, rest) = match pattern.split_once('/') {
        Some((first, rest)) => (first, Some(rest)),
        None => (pattern, None),
    };
    let mut component = String::new();
    let mut in_placeholder = false;
    for c in first.chars() {
        match c {
            '<' => in_placeholder = true,
            '>' if in_placeholder => {
                in_placeholder = false;
                component.push('*');
            }
            _ if !in_placeholder => component.push(c),
            _ => {}
        }
    }
    let Ok(entries) = fs::read_dir(dir) else { return false };
    entries.flatten().any(|entry| {
        let name = entry.file_name().to_string_lossy().into_owned();
        glob_match(&component, &name)
            && match rest {
                None | Some("") => true,
                Some(rest) => resolves(&entry.path(), rest),
            }
    })
}

/// The path a source-file citation names: a span with a `/` that ends
/// in `.rs` once a trailing `::item` or `:line` is cut.
fn source_path(span: &str) -> Option<&str> {
    let path = span.split("::").next()?;
    let path = match path.rsplit_once(':') {
        Some((file, line)) if line.bytes().all(|b| b.is_ascii_digit()) => file,
        _ => path,
    };
    (path.contains('/') && path.ends_with(".rs")).then_some(path)
}

/// The `##` headings of EXPERIMENTS.md.
fn experiments_sections(root: &Path) -> Vec<String> {
    let text = fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    text.lines().filter_map(|l| l.strip_prefix("## ")).map(str::to_owned).collect()
}

#[test]
fn every_cited_result_bench_and_section_exists() {
    let root = repo_root();
    let sections = experiments_sections(&root);
    let mut missing = Vec::new();
    let mut checked = 0;
    for (doc, text) in docs(&root) {
        for span in code_spans(&text) {
            if span.starts_with("results/") {
                checked += 1;
                if !resolves(&root, &span) {
                    missing.push(format!("{doc}: `{span}` matches no file"));
                }
            } else if let Some(name) = span.strip_prefix("bench/") {
                checked += 1;
                let bench = root.join("crates/bench/benches").join(format!("{name}.rs"));
                if !bench.is_file() {
                    missing.push(format!("{doc}: `{span}` has no crates/bench/benches/{name}.rs"));
                }
            } else if let Some(path) = source_path(&span) {
                checked += 1;
                if !root.join(path).is_file() && !root.join("crates").join(path).is_file() {
                    missing.push(format!("{doc}: `{span}` names no source file"));
                }
            }
        }
        let prose = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for cite in prose.split("EXPERIMENTS.md § \"").skip(1) {
            checked += 1;
            let title = cite.split('"').next().unwrap_or_default();
            if !sections.iter().any(|s| s.starts_with(title)) {
                missing.push(format!("{doc}: EXPERIMENTS.md § {title:?} is no section"));
            }
        }
    }
    assert!(checked > 10, "only {checked} citations found; is the scan broken?");
    assert!(missing.is_empty(), "dangling citations:\n{}", missing.join("\n"));
}
