//! One command, one workload, one fresh process:
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload lambda_cold --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the
//! traced run (`--trace 1`) wraps every call into a layer in a span,
//! replays the pipelines stage by stage and prints the per-layer
//! metrics. The last line of standard output is the result object the
//! driver reads. See README.md for what each name means.

mod codegen;
mod dpf_path;
mod gen;
mod host;
mod lambda_path;
mod metrics;
mod trace;
mod util;

use metrics::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Target length of one measuring round. A run is many short rounds
/// and every reported timing is the best round's (see `util::highest`
/// for why not the median round's): the shorter the rounds, the likelier
/// one of them falls wholly inside a quiet phase of a shared host.
const ROUND: f64 = 0.1;
/// Spans a traced run keeps per thread. Traced rounds stop when half
/// are used (about 15 MB of JSONL), so no round runs with spans being
/// dropped and the trace file stays small.
pub const TRACE_SPANS: usize = 1 << 18;

/// What the command line asked for.
#[derive(Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Total measuring time, split evenly over the rounds.
    pub seconds: f64,
    pub trace: bool,
    /// This run's private directory for L2 artifacts and the trace
    /// file; removed when the run ends.
    pub scratch: PathBuf,
}

impl Config {
    /// Time spent in measuring rounds. A traced run spends two fifths
    /// of its time there (alternating untraced and traced rounds) and
    /// the rest in the per-layer probes.
    fn measuring(&self) -> f64 {
        self.seconds * if self.trace { 0.4 } else { 1.0 }
    }

    /// Rounds in this run: as many of about `ROUND` seconds as fit, and
    /// in a traced run at least one of each kind.
    pub fn rounds(&self) -> u32 {
        let least = if self.trace { 2 } else { 1 };
        ((self.measuring() / ROUND).round() as u32).max(least)
    }

    /// Length of one measuring round.
    pub fn round(&self) -> Duration {
        Duration::from_secs_f64(self.measuring() / f64::from(self.rounds()))
    }

    /// Time budget of one per-layer probe in a traced run.
    pub fn probe(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.025)
    }
}

/// Ends a traced run: spans to `trace-<workload>.jsonl` beside the run
/// directory (which is removed), self times into the report.
pub fn write_trace(cfg: &Config, tracers: &[(&str, Option<&trace::Tracer>)], out: &mut Outcome) {
    let path = cfg
        .scratch
        .with_file_name(format!("trace-{}.jsonl", cfg.workload));
    out.notes.extend(trace::finish(&path, tracers));
}

fn usage() -> String {
    format!(
        "usage: vcode-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--scratch <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        // Inside the package directory, so a run never writes outside
        // the checkout it was built in.
        scratch: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.scratch")),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}\n{}", usage());
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scratch" => cfg.scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", cfg.workload, usage()));
    }
    cfg.scratch.push(format!("run-{}", std::process::id()));
    Ok(cfg)
}

fn print_report(cfg: &Config, out: &Outcome, table: &[(&str, &str)]) {
    println!(
        "workload={} seed={} seconds={} rounds={} setups={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.rounds(),
        util::SETUPS,
        u8::from(cfg.trace)
    );
    for (name, value, samples) in &out.values {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|m| m.0 == *name)
            .map_or("", |m| m.1);
        println!("  {name:<40} {value:>18.4} {unit:<7} n={samples}");
    }
    let idle = table.iter().filter(|m| out.get(m.0).is_none()).count();
    if idle > 0 {
        println!("  {idle} other metrics read 0: their layers do no work on this workload");
    }
    for note in &out.notes {
        println!("  note: {note}");
    }
    println!("  attempted={} failed={}", out.attempted, out.failed);
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // A run with more load threads than cores measures the scheduler.
    let load_threads = if cfg.workload == "dpf_churn" { 2 } else { 1 };
    if load_threads > host::nproc() {
        eprintln!(
            "{} drives {load_threads} load threads but this host offers {} core(s): refusing to run",
            cfg.workload,
            host::nproc()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.scratch) {
        eprintln!("cannot create scratch {}: {e}", cfg.scratch.display());
        return ExitCode::from(2);
    }
    println!("{}", host::record(&cfg.scratch));

    let mut out = match cfg.workload.as_str() {
        "dpf_static" => dpf_path::run(&cfg, false),
        "dpf_churn" => dpf_path::run(&cfg, true),
        "lambda_cold" => lambda_path::run_cold(&cfg),
        "lambda_reuse" => lambda_path::run_reuse(&cfg),
        _ => codegen::run(&cfg),
    };
    out.set("peak_rss_kb", host::peak_rss_kb(), 1);
    // The trace file is kept beside (not inside) the run directory.
    let _ = std::fs::remove_dir_all(&cfg.scratch);

    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    print_report(&cfg, &out, table);
    let missing: Vec<&str> = END_TO_END
        .iter()
        .filter(|m| !cfg.trace && out.get(m.0).is_none())
        .map(|m| m.0)
        .collect();
    if !missing.is_empty() {
        eprintln!("harness bug: end-to-end metrics not produced: {missing:?}");
        return ExitCode::from(3);
    }
    println!("{}", metrics::result_line(&out, table, out.failed == 0));
    ExitCode::SUCCESS
}
