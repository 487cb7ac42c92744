//! `repro` — regenerate the paper's evaluation figures.
//!
//! ```text
//! repro [--fig 9|10|11|12|13|all] [--ablation sync|mapreduce|strength|splitter|linearize|apps|all]
//!       [--scale 0.01] [--threads 1,2,4,8] [--real-threads] [--csv PATH]
//! ```
//!
//! By default every figure runs at `--scale 0.01` of the paper's dataset
//! sizes with modeled thread scaling (suitable for single-core hosts);
//! pass `--real-threads` on a multi-core machine for wall-clock numbers
//! and `--scale 1.0` for the full-size datasets.

use std::fs::File;
use std::io::Write;

use cfr_bench::{
    ablation_mapreduce, ablation_par_linearize, ablation_splitter, ablation_strength,
    ablation_sync, extension_apps, fig09, fig10, fig11, fig12, fig13, Figure, Harness,
};
use freeride::ExecMode;

/// The paper's result figures.
const FIGURES: [u32; 5] = [9, 10, 11, 12, 13];

/// Every ablation `--ablation` accepts.
const ABLATIONS: [&str; 6] = [
    "sync",
    "mapreduce",
    "strength",
    "splitter",
    "linearize",
    "apps",
];

struct Options {
    figs: Vec<u32>,
    ablations: Vec<&'static str>,
    harness: Harness,
    /// `--csv` target, opened before any figure runs.
    csv: Option<(String, File)>,
}

fn parse_args() -> Result<Options, String> {
    let mut figs: Vec<u32> = Vec::new();
    let mut ablations: Vec<&'static str> = Vec::new();
    let mut harness = Harness::default();
    let mut csv = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => {
                let v = args.next().ok_or("--fig needs a value")?;
                if v == "all" {
                    figs = FIGURES.to_vec();
                } else {
                    match v.parse() {
                        Ok(f) if FIGURES.contains(&f) => figs.push(f),
                        _ => {
                            return Err(format!(
                                "no figure `{v}` in the paper's evaluation (9..13)"
                            ))
                        }
                    }
                }
            }
            "--ablation" => {
                let v = args.next().ok_or("--ablation needs a value")?;
                if v == "all" {
                    ablations = ABLATIONS.to_vec();
                } else {
                    let name = ABLATIONS
                        .iter()
                        .find(|a| **a == v)
                        .ok_or_else(|| format!("unknown ablation `{v}`"))?;
                    ablations.push(name);
                }
            }
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                harness.scale = v.parse().map_err(|_| format!("bad scale `{v}`"))?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                harness.threads = v
                    .split(',')
                    .map(|t| t.parse().map_err(|_| format!("bad thread count `{t}`")))
                    .collect::<Result<_, String>>()?;
            }
            "--real-threads" => harness.exec = ExecMode::Threads,
            "--csv" => csv = Some(args.next().ok_or("--csv needs a path")?),
            "--help" | "-h" => {
                println!(
                    "repro — regenerate the paper's figures\n\
                     \n\
                     --fig N          figure number (9..13) or `all`\n\
                     --ablation NAME  sync|mapreduce|strength|splitter|linearize|apps|all\n\
                     --scale S        dataset scale relative to the paper (default 0.01)\n\
                     --threads LIST   comma-separated thread counts (default 1,2,4,8)\n\
                     --real-threads   measure wall-clock with real OS threads\n\
                     --csv PATH       also write all rows as CSV"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if figs.is_empty() && ablations.is_empty() {
        figs = FIGURES.to_vec();
    }
    // Open the CSV now, so a bad path fails before any figure runs.
    let csv = match csv {
        Some(path) => {
            let file = File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
            Some((path, file))
        }
        None => None,
    };
    Ok(Options {
        figs,
        ablations,
        harness,
        csv,
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let mut figures: Vec<Figure> = Vec::new();
    for f in &opts.figs {
        eprintln!("running figure {f} at scale {} ...", opts.harness.scale);
        let fig = match f {
            9 => fig09(&opts.harness),
            10 => fig10(&opts.harness),
            11 => fig11(&opts.harness),
            12 => fig12(&opts.harness),
            _ => fig13(&opts.harness),
        };
        figures.push(fig);
    }
    let t = opts.harness.threads.iter().copied().max().unwrap_or(2);
    for a in &opts.ablations {
        eprintln!("running ablation {a} ...");
        let fig = match *a {
            "sync" => ablation_sync(20_000, 16, t),
            "mapreduce" => ablation_mapreduce(2_000_000, 64, t),
            "strength" => ablation_strength(5_000, 50),
            "splitter" => ablation_splitter(200_000, t),
            "linearize" => ablation_par_linearize(500_000, t),
            _ => extension_apps(50_000, t),
        };
        figures.push(fig);
    }

    for fig in &figures {
        println!("{}", fig.render());
    }

    if let Some((path, mut file)) = opts.csv {
        let out: String = figures.iter().map(Figure::to_csv).collect();
        if let Err(e) = file.write_all(out.as_bytes()) {
            eprintln!("error: write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
