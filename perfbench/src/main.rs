//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <skew_q4|serve_window|road_sharded|all> --seed <n>
//!           --seconds <n> --trace <0|1> [--out-dir <dir>]
//! perfbench --emit-manifest
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! name each metric with its unit, the input digest, and the tail
//! percentiles used. `--workload all` runs each workload in its own child
//! process, so peak memory and set-up time are attributed per workload.
//! A failed ledger gate or trace-equality check exits with status 1.

use gcsm_perfbench::report::{manifest, RUN_SECONDS};
use gcsm_perfbench::{ledger::Tamper, RunConfig, Size, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1> \
         [--out-dir <dir>] | --emit-manifest",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad())?;
                if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out-dir" => a.out_dir = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Run every workload in its own child process.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return usage(&format!("cannot locate own executable: {e}")),
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                args.push(a.clone());
            }
        }
        args.extend(["--workload".to_string(), w.to_string()]);
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            Ok(_) => ok = false,
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--emit-manifest") {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let rc = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tamper: Tamper::default(),
    };
    let Some(out) = gcsm_perfbench::run(&args.workload, &rc, Size::Full) else {
        return usage(&format!("unknown workload {}", args.workload));
    };

    println!("workload {} seed {} digest {:016x}", out.workload, args.seed, out.digest);
    for n in &out.notes {
        println!("# {n}");
    }
    if let Some(tr) = &out.spans {
        let path = args.out_dir.join(format!("{}-seed{}.spans.json", out.workload, args.seed));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|_| std::fs::write(&path, tr.to_json()));
        match written {
            Ok(()) => println!("# {} spans written to {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let c = &out.counters;
    println!(
        "# counters: batches {} ΔM {} intersect_ops {} walk_ops {} shipped_bytes {}",
        c.batches, c.matches, c.intersect_ops, c.walk_ops, c.shipped_bytes
    );
    for m in &out.metrics {
        println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<28} {:>18.6} frac", "failed_frac", out.failed_frac());
    for e in &out.errors {
        eprintln!("perfbench: {e}");
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
