//! The metric names this benchmark prints, and the one result line the
//! driver reads. `BENCHMARK.json` lists the same names; the smoke test
//! fails when the two disagree.

use crate::util::{highest, lowest, median, Samples, SETUPS, WINDOWS};
use std::fmt::Write as _;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "dpf_static",
    "dpf_churn",
    "lambda_cold",
    "lambda_reuse",
    "codegen_sim",
];

/// End-to-end metrics `(name, unit)`: every workload reports every one,
/// from the untraced run. What "op" means per workload is in README.md.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("code_bytes_per_insn", "B/insn"),
    ("peak_rss_kb", "kB"),
];

/// Per-layer metrics `(name, unit)`, from the traced run. A workload
/// reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 84] = [
    // Every workload: latency of its request, in the untraced rounds.
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    // The DPF workloads: the read path.
    ("pkt_per_s", "1/s"),
    ("rcu.enter_ns", "ns"),
    ("rcu.publish_ns", "ns"),
    ("rcu.reclaim_ns", "ns"),
    ("dpf.service.batch_overhead_ns", "ns"),
    ("dpf.compile.native_ns_per_pkt", "ns"),
    ("dpf.mpf.interp_ns_per_pkt", "ns"),
    ("dpf.service.degraded_pkt_share", "share"),
    ("dpf.service.generations_published", "count"),
    ("dpf.service.retired_backlog_max", "count"),
    ("burst_p999_us", "us"),
    // dpf_static: the filter-count sweep.
    ("dpf.compile.native_ns_per_pkt_f16", "ns"),
    ("dpf.compile.native_ns_per_pkt_f64", "ns"),
    ("dpf.compile.native_ns_per_pkt_f256", "ns"),
    ("dpf.compile.native_ns_per_pkt_f512", "ns"),
    ("dpf.compile.native_ns_per_pkt_f1024", "ns"),
    ("dpf.compile.sweep_native_share", "share"),
    ("dpf.compile.compile_us_f16", "us"),
    ("dpf.compile.compile_us_f64", "us"),
    ("dpf.compile.compile_us_f256", "us"),
    ("dpf.compile.compile_us_f512", "us"),
    ("dpf.compile.compile_us_f1024", "us"),
    // dpf_churn: the install pipeline.
    ("install_p50_us", "us"),
    ("install_p99_us", "us"),
    ("dpf.service.insert_call_us", "us"),
    ("service.queue_wake_us", "us"),
    ("dpf.trie.build_us", "us"),
    ("dpf.compile.compile_us", "us"),
    ("dpf.compile.code_bytes", "B"),
    ("dpf_churn.writer_late_max_us", "us"),
    // lambda_cold: compile_cached's miss path.
    ("engine.encode_hash_ns", "ns"),
    ("cache.miss_probe_ns", "ns"),
    ("persist.probe_miss_us", "us"),
    ("x64.exec.alloc_ns", "ns"),
    ("engine.replay_ns_per_insn.x64", "ns"),
    ("x64.exec.seal_ns", "ns"),
    ("persist.store_us", "us"),
    ("cache.insert_ns", "ns"),
    ("cache.evictions", "count"),
    ("x64.call_first_ns", "ns"),
    // lambda_reuse: L1 hits and L2 loads.
    ("cache.hit_ns", "ns"),
    ("cache.l1_hit_share", "share"),
    ("persist.read_decode_us", "us"),
    ("persist.redecode_us", "us"),
    ("x64.exec.adopt_us", "us"),
    ("persist.load_us", "us"),
    ("x64.call_ns", "ns"),
    // dpf_churn, lambda_cold, lambda_reuse: how much of a request the
    // stages above explain.
    ("coverage", "share"),
    ("unattributed_us", "us"),
    // codegen_sim: emission and generated-code quality.
    ("emit_ns_per_insn", "ns"),
    ("compile_ns_per_insn", "ns"),
    ("sim_cycles", "count"),
    ("code_bytes", "B"),
    ("asm.emit_ns_per_insn.x64", "ns"),
    ("asm.emit_ns_per_insn.mips", "ns"),
    ("asm.emit_ns_per_insn.sparc", "ns"),
    ("asm.emit_ns_per_insn.alpha", "ns"),
    ("regalloc.getreg_ns", "ns"),
    ("engine.replay_ns_per_insn.mips", "ns"),
    ("engine.replay_ns_per_insn.sparc", "ns"),
    ("engine.replay_ns_per_insn.alpha", "ns"),
    ("code_bytes.x64", "B"),
    ("code_bytes.mips", "B"),
    ("code_bytes.sparc", "B"),
    ("code_bytes.alpha", "B"),
    ("sim.mips_cycles", "count"),
    ("sim.sparc_cycles", "count"),
    ("sim.alpha_cycles", "count"),
    ("sim.mips_insns", "count"),
    ("sim.sparc_insns", "count"),
    ("sim.alpha_insns", "count"),
    ("sim.host_ns_per_sim_insn", "ns"),
    ("interp.ns_per_insn", "ns"),
    ("tier2.optimize_ns_per_insn", "ns"),
    ("tier2.replay_ns_per_insn", "ns"),
    ("tier2.insns_eliminated", "count"),
    ("tier2.sim_cycles", "count"),
    ("tier1.x64_call_ns", "ns"),
    ("tier2.x64_call_ns", "ns"),
    ("tcc.compile_us", "us"),
    ("dcg.ns_per_insn", "ns"),
    // Every workload.
    ("trace_overhead_share", "share"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, with the oracle checks of set-up.
    pub attempted: u64,
    /// Oracle mismatches, compile errors and refused requests.
    pub failed: u64,
    /// Measured values `(name, value, samples behind it)`.
    pub values: Vec<(&'static str, f64, u64)>,
    /// Free-text findings for the report (quarantine errors, flags).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.push((name, value, samples));
    }

    /// Records what `util::per_call_ns` measured.
    pub fn probe(&mut self, name: &'static str, ns: f64) {
        self.set(name, ns, u64::from(WINDOWS));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.0 == name).map(|v| v.1)
    }

    /// Records how much of the sampled requests the stages replayed by
    /// hand explain: `coverage` = sum of stage times / end-to-end time,
    /// per request, and the remainder. Outside 0.9..=1.1 is flagged,
    /// not failed.
    pub fn set_coverage(&mut self, coverage: Vec<f64>, unattributed_us: Vec<f64>) {
        let n = coverage.len() as u64;
        if n == 0 {
            return;
        }
        let share = median(coverage);
        self.set("coverage", share, n);
        self.set("unattributed_us", median(unattributed_us), n);
        if !(0.9..=1.1).contains(&share) {
            self.notes.push(format!(
                "coverage {share:.2} is outside 0.9..=1.1: stages timed one by one from outside \
                 do not add up to the request; closing the gap needs spans inside the program"
            ));
        }
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 32 {
            self.notes.push(note);
        }
    }
}

/// What the measuring rounds of one run saw. A traced run alternates
/// untraced and traced rounds; an untraced run has only the former.
#[derive(Debug, Default)]
pub struct Rounds {
    /// `(traced, operations per second)`, in run order.
    rates: Vec<(bool, f64)>,
    /// Latency quantiles (p50, p99, p999) of each untraced round, us.
    quantiles: [Vec<f64>; 3],
}

impl Rounds {
    /// Records one round: its throughput and, for an untraced round, the
    /// quantiles of the latencies in `lat`, which is then emptied.
    pub fn push(&mut self, traced: bool, ops_per_s: f64, lat: &mut Samples) {
        self.rates.push((traced, ops_per_s));
        if !traced {
            for (q, v) in [0.5, 0.99, 0.999].into_iter().zip(&mut self.quantiles) {
                v.push(lat.quantile_us(q));
            }
        }
        lat.clear();
    }

    /// Untraced rounds recorded.
    pub fn untraced(&self) -> u64 {
        self.quantiles[0].len() as u64
    }

    /// The best untraced round's throughput (see `util::highest`).
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.rates.iter().filter(|r| !r.0).map(|r| r.1).collect();
        highest(&rates)
    }

    /// The best untraced round's p50, p99 and p999 latency in us.
    pub fn latency_us(&self) -> [f64; 3] {
        [0, 1, 2].map(|i| lowest(&self.quantiles[i]))
    }

    /// Sets the end-to-end metrics every workload derives from its
    /// rounds.
    pub fn end_to_end(&self, out: &mut Outcome, setup_s: f64) {
        out.set("setup_s", setup_s, u64::from(SETUPS));
        out.set("ops_per_s", self.ops_per_s(), self.untraced());
    }

    /// Sets `op_p50_us` and `op_p99_us`, the request latency a traced
    /// run reports from its untraced rounds.
    pub fn latency(&self, out: &mut Outcome) {
        let [p50, p99, _] = self.latency_us();
        out.set("op_p50_us", p50, self.untraced());
        out.set("op_p99_us", p99, self.untraced());
    }

    /// Sets `trace_overhead_share`: the median, over traced rounds, of
    /// the throughput lost against the untraced round just before —
    /// neighbours, so both saw the same phase of the host.
    pub fn trace_overhead(&self, out: &mut Outcome) {
        let lost: Vec<f64> = self
            .rates
            .windows(2)
            .filter(|w| !w[0].0 && w[1].0)
            .map(|w| 1.0 - w[1].1 / w[0].1)
            .collect();
        if !lost.is_empty() {
            let n = lost.len() as u64;
            out.set("trace_overhead_share", median(lost), n);
        }
    }
}

/// Formats `v` with all its digits but never as `NaN`/`inf` (which JSON
/// cannot carry): a non-finite value is a harness bug reported as -1.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// The driver's result line: every metric of `table`, by name, with its
/// unit. A per-layer metric the workload did not produce reads 0.
pub fn result_line(out: &Outcome, table: &[(&str, &str)], correct: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = out.get(name).unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        );
    }
    s.push_str("}}");
    s
}
