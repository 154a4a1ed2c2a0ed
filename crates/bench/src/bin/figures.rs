//! Regenerates the SWOPE paper's tables and figures.
//!
//! ```text
//! figures -- all                 # every experiment
//! figures -- fig1 fig3           # specific figures
//! figures -- fig5 --scale 0.05 --targets 20 --seed 7 --out results
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use swope_bench::figures::Experiment;
use swope_bench::ExpConfig;
use swope_datagen::corpus::PAPER_SHAPES;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: figures <experiment...|all> [options]
experiments: table2 fig1..fig12 ext-threads ext-oneshot ext-m0
options:
  --scale <f64>    row scale vs the paper's datasets (default 1/64)
  --seed <u64>     data + sampling seed (default 0x5170)
  --targets <n>    MI target attributes to average over (default 5; paper used 20)
  --dataset <name> restrict to one profile (repeatable: cdc hus pus enem)
  --max-support <u> drop columns wider than this (default 1000, the paper's cap)
  --out <dir>      CSV output directory (default results/)";

fn run(args: &[String]) -> Result<(), String> {
    let mut cfg = ExpConfig::default();
    let mut experiments: Vec<Experiment> = Vec::new();
    let mut want_all = false;

    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        match a.as_str() {
            "all" => want_all = true,
            "--scale" => cfg.scale = parse_value(args, &mut i, "scale")?,
            "--seed" => cfg.seed = parse_value(args, &mut i, "seed")?,
            "--targets" => cfg.mi_targets = parse_value(args, &mut i, "targets")?,
            "--out" => {
                i += 1;
                cfg.out_dir = PathBuf::from(args.get(i).ok_or("--out requires a directory")?);
            }
            "--dataset" => {
                i += 1;
                cfg.only_datasets.push(args.get(i).ok_or("--dataset requires a name")?.clone());
            }
            "--max-support" => cfg.max_support = parse_value(args, &mut i, "max-support")?,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => {
                let exp = Experiment::parse(other)
                    .ok_or_else(|| format!("unknown experiment {other:?}"))?;
                if !experiments.contains(&exp) {
                    experiments.push(exp);
                }
            }
        }
        i += 1;
    }
    if !cfg.scale.is_finite() || cfg.scale <= 0.0 || cfg.scale > 1.0 {
        return Err(format!("scale must be in (0, 1], got {}", cfg.scale));
    }
    let profiles = PAPER_SHAPES.map(|s| s.name);
    if let Some(unknown) = cfg.only_datasets.iter().find(|d| !profiles.contains(&d.as_str())) {
        return Err(format!("unknown dataset {unknown:?} (profiles: {})", profiles.join(" ")));
    }
    if want_all {
        experiments = Experiment::all().collect();
    }
    if experiments.is_empty() {
        return Err("no experiment given".into());
    }

    println!(
        "config: scale = {} (pus ~ {} rows), seed = {}, MI targets = {}, out = {}",
        cfg.scale,
        (31_290_943.0 * cfg.scale) as u64,
        cfg.seed,
        cfg.mi_targets,
        cfg.out_dir.display()
    );
    println!();

    for exp in experiments {
        let rows = exp.run(&cfg);
        exp.report(&rows, &cfg).map_err(|e| format!("writing CSV: {e}"))?;
        println!();
    }
    println!("CSV + JSON reports written to {}", cfg.out_dir.display());
    Ok(())
}

fn parse_value<T: std::str::FromStr>(
    args: &[String],
    i: &mut usize,
    name: &str,
) -> Result<T, String> {
    *i += 1;
    args.get(*i)
        .ok_or_else(|| format!("--{name} requires a value"))?
        .parse()
        .map_err(|_| format!("invalid --{name} value {:?}", args[*i]))
}
