//! The repository benchmark.
//!
//! `laoram-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` a run reports the six end-to-end metrics of one
//! workload (tracing off). With `--trace 1` it reports the per-layer
//! metrics and prints the layer ledger. Either way the last stdout line
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` in this directory for the workloads and metrics.

mod alloc;
mod drive;
mod host;
mod ledger;
mod report;
mod serve;
mod spill;
mod train;

use std::time::{Duration, Instant};

use laoram_service::{FlightDump, ServiceStats, TelemetrySpec};
use oram_tree::DiskIoStats;

use report::{Latencies, LatencySummary, Metrics, OpCounts, Windowed};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The ORAM tables' own RNG seed. Fixed, so the workload seed changes
/// only the generated inputs the program receives.
pub const TABLE_SEED: u64 = 0x1A0_0BE7C;

/// A seed kept out of tuning: re-check any claimed gain on it too.
pub const HELD_OUT_SEED: u64 = 0x5EED_0B5E;

const WORKLOADS: [&str; 3] = ["train_dlrm_mem", "serve_xlmr_tcp", "spill_disk"];

/// Command-line options of one run.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    fn parse() -> Result<Opts, String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    });
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range"));
        }
        Ok(Opts { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
    }

    /// Warm-up before a measured window: excluded from set-up time and
    /// from the window.
    pub fn warmup(&self, window_s: f64) -> Duration {
        Duration::from_secs_f64((window_s * 0.15).clamp(0.3, 2.0))
    }
}

/// One measured window of a workload.
#[derive(Default)]
pub struct Phase {
    pub ops: OpCounts,
    pub latency: Latencies,
    /// Submission window: from the first submit to the deadline.
    pub window: Option<(Instant, Instant)>,
    pub elapsed_s: f64,
    /// Process CPU seconds (all threads) spent in the window.
    pub cpu_s: f64,
    /// Heap allocations in the window (counted in traced runs only).
    pub allocs: u64,
    /// Engine statistics at the end of the window (reset at its start).
    pub stats: Option<ServiceStats>,
    /// Disk backend I/O during the window.
    pub disk_io: Option<DiskIoStats>,
}

impl Phase {
    pub fn throughput(&self) -> f64 {
        self.ops.succeeded as f64 / self.elapsed_s.max(1e-9)
    }

    /// Robust figures across `k` sub-windows of the submission window
    /// (see [`Latencies::windowed`]).
    pub fn windowed(&self, k: usize) -> Windowed {
        let (start, end) = self.window.expect("phase window");
        self.latency.windowed(start, end, k)
    }

    /// Process CPU nanoseconds per completed op.
    pub fn cpu_ns_per_op(&self) -> f64 {
        self.cpu_s * 1e9 / self.ops.succeeded.max(1) as f64
    }

    /// Server-visible slot bytes (read + written, dummy and pad reads
    /// included) per genuine op.
    pub fn bytes_per_op(&self, slot_bytes: f64) -> f64 {
        let stats = self.stats.as_ref().expect("window statistics");
        stats.merged.total_slots_moved() as f64 * slot_bytes / self.ops.succeeded.max(1) as f64
    }
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// What an untraced run measured.
pub struct EndToEnd {
    pub setups: Vec<f64>,
    pub ops: OpCounts,
    /// Throughput is the median across the throughput phase's sub-windows.
    pub throughput: Windowed,
    /// p50 and p99 are the lower quartiles across the latency phase's
    /// sub-windows.
    pub latency: Windowed,
    /// Percentiles over every sample of the latency phase.
    pub overall: LatencySummary,
    pub bytes_per_op: f64,
    pub checked: u64,
    pub mismatches: u64,
    pub notes: Vec<String>,
}

impl EndToEnd {
    /// A workload whose latency window is also its throughput window,
    /// split into `k` sub-windows.
    pub fn from_phase(
        setups: Vec<f64>,
        phase: &Phase,
        k: usize,
        slot_bytes: f64,
        checked: u64,
        mismatches: u64,
    ) -> EndToEnd {
        let windowed = phase.windowed(k);
        EndToEnd {
            setups,
            ops: phase.ops,
            throughput: windowed.clone(),
            latency: windowed,
            overall: phase.latency.summary(),
            bytes_per_op: phase.bytes_per_op(slot_bytes),
            checked,
            mismatches,
            notes: Vec::new(),
        }
    }
}

/// What a traced run measured: per-layer metrics plus the ledger text.
pub struct Traced {
    pub metrics: Metrics,
    pub ops: OpCounts,
    pub checked: u64,
    pub mismatches: u64,
    pub lines: Vec<String>,
}

/// The telemetry a traced run enables: the engine's existing opt-in
/// registry and flight recorder, sized to keep a window's sync spans.
/// Failure dumps land in the build directory.
pub fn telemetry_spec() -> TelemetrySpec {
    TelemetrySpec::new().flight_spans(1 << 16).flight_dump_dir(host::build_dir())
}

/// Everything [`ledger::assemble`] needs from a workload's traced run.
pub struct TracedInputs {
    /// Untraced window of the end-to-end path (overhead and residual base).
    pub untraced: Phase,
    /// Traced in-process window.
    pub traced: Phase,
    pub dump: Option<FlightDump>,
    pub layers: ledger::Layers,
    pub slot_bytes: f64,
    pub row_bytes: u64,
    pub net: Option<ledger::NetLayer>,
    pub checked: u64,
    pub mismatches: u64,
    /// Ops of traced phases not otherwise passed in.
    pub extra_ops: OpCounts,
}

fn print_end_to_end(e2e: &EndToEnd, metrics: &mut Metrics) {
    let setup_s = report::median(&e2e.setups);
    let lat = &e2e.latency;
    if !lat.p99_supported {
        eprintln!(
            "error: a latency sub-window holds {} samples, fewer than 10 beyond p99",
            lat.min_count
        );
        std::process::exit(2);
    }
    let setups: Vec<String> = e2e.setups.iter().map(|s| format!("{s:.3}")).collect();
    metrics.set("setup_s", setup_s, "s");
    metrics.set("throughput_ops_s", e2e.throughput.throughput, "ops/s");
    metrics.set("latency_p50_ms", lat.p50_ns / 1e6, "ms");
    metrics.set("latency_p99_ms", lat.p99_ns / 1e6, "ms");
    metrics.set("bytes_per_op", e2e.bytes_per_op, "B/op");
    metrics.set("peak_rss_mb", host::peak_rss_mib(), "MiB");
    println!("setups: [{}] s (median of {})", setups.join(", "), e2e.setups.len());
    println!("ops: {}", e2e.ops.describe());
    println!("latency, whole window: {}", e2e.overall.describe());
    println!(
        "over {} sub-windows (at least {} latency samples each): median throughput, \
         lower-quartile p50 and p99",
        lat.windows, lat.min_count
    );
    let per: Vec<String> =
        e2e.throughput.per_window.iter().map(|(t, _)| format!("{t:.0}")).collect();
    println!("sub-window throughput (ops/s): {}", per.join(" "));
    let per: Vec<String> =
        lat.per_window.iter().map(|(_, p99)| format!("{:.3}", report::ms(*p99))).collect();
    println!("sub-window p99 (ms): {}", per.join(" "));
    for note in &e2e.notes {
        println!("{note}");
    }
    println!("output checks: {} checked, {} mismatched", e2e.checked, e2e.mismatches);
    for (name, value, unit) in metrics.iter() {
        let samples = match name.as_str() {
            "latency_p50_ms" | "latency_p99_ms" => format!(" ({} samples)", e2e.overall.count),
            "setup_s" => format!(" ({} set-ups)", e2e.setups.len()),
            _ => String::new(),
        };
        println!("{name:<18} {value:>14.4} {unit}{samples}");
    }
}

fn main() {
    let opts = match Opts::parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: laoram-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "# workload {} seed {} (held-out seed {HELD_OUT_SEED}) window {} s trace {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("# host: {}", host::fingerprint());
    let mut metrics = Metrics::default();
    let (ops, checked, mismatches) = if opts.trace {
        let traced = match opts.workload.as_str() {
            "train_dlrm_mem" => train::run_traced(&opts),
            "serve_xlmr_tcp" => serve::run_traced(&opts),
            _ => spill::run_traced(&opts),
        };
        for line in &traced.lines {
            println!("{line}");
        }
        metrics = traced.metrics;
        (traced.ops, traced.checked, traced.mismatches)
    } else {
        let e2e = match opts.workload.as_str() {
            "train_dlrm_mem" => train::run(&opts),
            "serve_xlmr_tcp" => serve::run(&opts),
            _ => spill::run(&opts),
        };
        print_end_to_end(&e2e, &mut metrics);
        (e2e.ops, e2e.checked, e2e.mismatches)
    };
    let correct = mismatches == 0 && checked > 0;
    if !correct {
        eprintln!(
            "error: {mismatches} of {checked} checked outputs differ from the reference model"
        );
    }
    println!("{}", metrics.result_line(correct, ops.attempted.max(1), ops.failed + ops.refused));
    if !correct {
        std::process::exit(1);
    }
}
