//! `cfr` — run Chapel programs through the FREERIDE-targeting pipeline.
//!
//! ```text
//! cfr <program.chpl> [--opt 0|1|2] [--threads N] [--backend interp|compiled]
//!     [--interp] [--explain] [--print GLOBAL ...]
//! ```
//!
//! `--interp` bypasses translation (pure interpreter); `--explain`
//! prints what was offloaded, the backend that ran it (and why the
//! compiled one did not, if requested), and why the rest was not;
//! `--backend compiled` runs offloaded kernels natively through
//! cfr-codegen (falling back to the kernel interpreter, with a
//! recorded reason, when no usable rustc is present).

use std::process::ExitCode;

use chapel_freeride::{Interpreter, KernelBackend, OptLevel, Translator};

struct Options {
    file: String,
    opt: OptLevel,
    threads: usize,
    backend: KernelBackend,
    interp_only: bool,
    explain: bool,
    print: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut file = None;
    let mut opt = OptLevel::Opt2;
    let mut threads = 1usize;
    let mut backend = KernelBackend::Interpreted;
    let mut interp_only = false;
    let mut explain = false;
    let mut print = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--opt" => {
                opt = match args.next().as_deref() {
                    Some("0") => OptLevel::Generated,
                    Some("1") => OptLevel::Opt1,
                    Some("2") => OptLevel::Opt2,
                    other => return Err(format!("bad --opt {other:?} (expected 0, 1, or 2)")),
                };
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or("--threads needs a number")?;
            }
            "--backend" => {
                backend = args
                    .next()
                    .and_then(|b| b.parse().ok())
                    .ok_or("--backend needs `interp` or `compiled`")?;
            }
            "--interp" => interp_only = true,
            "--explain" => explain = true,
            "--print" => print.push(args.next().ok_or("--print needs a global name")?),
            "--help" | "-h" => {
                println!(
                    "cfr — run Chapel programs on the FREERIDE pipeline\n\
                     usage: cfr <program.chpl> [--opt 0|1|2] [--threads N] \
                     [--backend interp|compiled] [--interp] [--explain] [--print GLOBAL]"
                );
                std::process::exit(0);
            }
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        file: file.ok_or("no input file (try --help)")?,
        opt,
        threads,
        backend,
        interp_only,
        explain,
        print,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let src = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.file);
            return ExitCode::from(2);
        }
    };

    if opts.interp_only {
        match Interpreter::run_source(&src) {
            Ok(interp) => {
                for line in interp.output() {
                    println!("{line}");
                }
                for g in &opts.print {
                    match interp.global(g) {
                        Some(v) => println!("{g} = {v}"),
                        None => eprintln!("warning: no global `{g}`"),
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        }
    } else {
        if opts.backend == KernelBackend::Compiled {
            cfr_codegen::install();
        }
        let translator = Translator::new(opts.opt, opts.threads).backend(opts.backend);
        match translator.run_program(&src) {
            Ok(run) => {
                for line in run.interp.output() {
                    println!("{line}");
                }
                for g in &opts.print {
                    match run.global(g) {
                        Some(v) => println!("{g} = {v}"),
                        None => eprintln!("warning: no global `{g}`"),
                    }
                }
                if opts.explain {
                    eprintln!(
                        "\n--- translation report ({:?}, {} threads) ---",
                        opts.opt, opts.threads
                    );
                    for job in &run.jobs {
                        let backend = match &job.fallback {
                            Some(e) => {
                                let why = e.to_string();
                                let why = why.lines().next().unwrap_or_default();
                                format!("{}, fallback {}: {why}", job.backend, e.tag())
                            }
                            None => job.backend.to_string(),
                        };
                        eprintln!(
                            "offloaded stmt {}: {} (backend {backend}; linearize {:.3} ms, reduce {:.3} ms, {} splits)",
                            job.stmt_index,
                            job.kind,
                            job.linearize_ns as f64 / 1e6,
                            job.stats.total_reduce_ns() as f64 / 1e6,
                            job.stats.splits.len()
                        );
                    }
                    for r in &run.skipped {
                        eprintln!("interpreted stmt {}: {}", r.stmt_index, r.reason);
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        }
    }
}
