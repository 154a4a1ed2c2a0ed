//! End-to-end tests driving the `figures` binary's argument checks.

use std::path::PathBuf;
use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("binary runs")
}

/// A fresh output directory holding one earlier result, `fig1.csv`.
fn out_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("swope-figures-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("fig1.csv"), "earlier result\n").unwrap();
    dir
}

/// The run failed with a usage error whose first line contains `message`,
/// and left the earlier result alone and nothing beside it.
fn refused_before_writing(o: &Output, dir: &PathBuf, message: &str) {
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(1), "{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with("error: ") && first.contains(message), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    let left: Vec<_> = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left, ["fig1.csv"]);
    assert_eq!(std::fs::read_to_string(dir.join("fig1.csv")).unwrap(), "earlier result\n");
}

#[test]
fn unknown_dataset_is_a_usage_error_naming_the_profiles() {
    let dir = out_dir("unknown-dataset");
    let o = figures(&["fig1", "--dataset", "cdcx", "--out", dir.to_str().unwrap()]);
    refused_before_writing(&o, &dir, "unknown dataset \"cdcx\" (profiles: cdc hus pus enem)");
}

#[test]
fn non_finite_scale_is_a_usage_error() {
    for scale in ["nan", "inf", "-inf"] {
        let dir = out_dir(&format!("scale-{scale}"));
        let o = figures(&[
            "fig1",
            "--scale",
            scale,
            "--dataset",
            "cdc",
            "--out",
            dir.to_str().unwrap(),
        ]);
        refused_before_writing(&o, &dir, "scale must be in (0, 1]");
    }
}
