//! `train_dlrm_mem`: fused row-wise Adagrad training on an in-memory
//! DLRM table, closed loop over the batch API.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use laoram_core::BatchOp;
use laoram_service::{
    LaoramService, OptimizerLayout, Request, RowUpdate, ServiceConfig, StorageBackend, TableSpec,
};
use oram_tree::SLOT_HEADER_BYTES;
use oram_workloads::{synthetic_gradient, DlrmTraceConfig, Trace, TraceKind};

use crate::ledger::{self, ShardReplay, StoreKind};
use crate::report::OpCounts;
use crate::{EndToEnd, Opts, Phase, TABLE_SEED};

const ROWS: u32 = 65_536;
const DIM: u32 = 16;
const SUPERBLOCK: u32 = 8;
const SHARDS: u32 = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Rows per training step (one `submit` batch). Long steps average over
/// the scheduling stalls of a small shared host: on a 2-vCPU VM the
/// spread of step p99 across ten seeds was 2.3x larger at 256 rows.
const BATCH: usize = 1024;
/// Sub-windows of the measured window: five 4 s sub-windows keep over a
/// thousand steps in each, enough to support p99.
const SUB_WINDOWS: usize = 5;
/// Training steps kept in flight.
const IN_FLIGHT: usize = 2;
/// Trace positions generated per run; the stream wraps after this.
const TRACE_LEN: usize = 1 << 21;
/// Rows whose training the reference model replays (`row % SAMPLE == 0`).
const SAMPLE: u32 = 61;
const LR: f32 = 0.05;
const EPS: f32 = 1e-8;

fn layout() -> OptimizerLayout {
    OptimizerLayout::row_wise_adagrad(DIM)
}

fn table() -> TableSpec {
    TableSpec::new("dlrm", ROWS)
        .shards(SHARDS)
        .superblock_size(SUPERBLOCK)
        .row_bytes(layout().payload_bytes() as u32)
        .optimizer(layout())
        .backend(StorageBackend::InMemory)
        .seed(TABLE_SEED)
}

fn config() -> ServiceConfig {
    ServiceConfig::new().queue_depth(4).table(table())
}

fn slot_bytes() -> f64 {
    (SLOT_HEADER_BYTES + layout().payload_bytes()) as f64
}

/// The embedding a row starts training from (zero accumulator).
fn initial_row(row: u32) -> Box<[u8]> {
    let values: Vec<f32> =
        synthetic_gradient(row, u64::MAX, DIM as usize).iter().map(|v| v * 0.01).collect();
    layout().encode(&values, 0.0)
}

fn update(row: u32, step: u64) -> RowUpdate {
    RowUpdate::row_wise_adagrad(LR, EPS, synthetic_gradient(row, step, DIM as usize))
}

/// Batch positions of sampled rows and the pre-update payload each must
/// return.
type Sampled = Vec<(usize, Box<[u8]>)>;

/// The trainer: walks the trace, keeps `IN_FLIGHT` steps outstanding, and
/// checks every sampled row's pre-update payload against a `HashMap`
/// replay of `RowUpdate::apply`.
struct Trainer {
    trace: Vec<u32>,
    step: u64,
    model: HashMap<u32, Box<[u8]>>,
    /// Per in-flight batch: submit time, batch length, and the expected
    /// outputs of its sampled positions.
    inflight: VecDeque<(Instant, usize, Sampled)>,
    checked: u64,
    mismatches: u64,
}

impl Trainer {
    fn new(seed: u64) -> Self {
        let trace =
            Trace::generate(TraceKind::Dlrm(DlrmTraceConfig::default()), ROWS, TRACE_LEN, seed);
        Trainer {
            trace: trace.accesses().to_vec(),
            step: 0,
            model: HashMap::new(),
            inflight: VecDeque::new(),
            checked: 0,
            mismatches: 0,
        }
    }

    fn next_batch(&mut self) -> (Vec<Request>, Sampled) {
        let mut batch = Vec::with_capacity(BATCH);
        let mut expect = Vec::new();
        for pos in 0..BATCH {
            let row = self.trace[(self.step % TRACE_LEN as u64) as usize];
            let update = update(row, self.step);
            if row.is_multiple_of(SAMPLE) {
                let old = self.model.get(&row).cloned().unwrap_or_else(|| initial_row(row));
                self.model.insert(row, update.apply(layout(), Some(&old)));
                expect.push((pos, old));
            }
            batch.push(Request::fetch_update(0, row, update));
            self.step += 1;
        }
        (batch, expect)
    }

    /// Runs the closed loop until `deadline`, then drains.
    fn run(&mut self, service: &mut LaoramService, deadline: Instant) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        phase.window = Some((start, deadline));
        loop {
            let now = Instant::now();
            while now < deadline && self.inflight.len() < IN_FLIGHT {
                let (batch, expect) = self.next_batch();
                let len = batch.len();
                phase.ops.attempted += len as u64;
                let at = Instant::now();
                match service.submit(batch) {
                    Ok(_) => self.inflight.push_back((at, len, expect)),
                    Err(e) => {
                        eprintln!("train: submit failed: {e}");
                        phase.ops.failed += len as u64;
                        phase.latency.record_miss();
                    }
                }
            }
            let Some((at, len, expect)) = self.inflight.pop_front() else { break };
            match service.next_response() {
                Ok(response) => {
                    phase.latency.record_at(
                        Instant::now(),
                        at.elapsed().as_nanos() as u64,
                        len as u32,
                    );
                    phase.ops.succeeded += len as u64;
                    for (pos, old) in expect {
                        self.checked += 1;
                        if response.outputs.get(pos).and_then(Option::as_deref) != Some(&old[..]) {
                            self.mismatches += 1;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("train: step failed: {e}");
                    phase.ops.failed += len as u64;
                    phase.latency.record_miss();
                }
            }
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase
    }
}

/// Starts the engine and writes every row's initial embedding.
fn start_service(config: ServiceConfig) -> (LaoramService, f64) {
    let t = Instant::now();
    let mut service = LaoramService::start(config).expect("train: service start");
    crate::drive::preload(&mut service, ROWS, 4096, initial_row);
    (service, t.elapsed().as_secs_f64())
}

/// One window: warm up, reset the counters, measure.
fn measure(service: &mut LaoramService, trainer: &mut Trainer, opts: &Opts, seconds: f64) -> Phase {
    trainer.run(service, Instant::now() + opts.warmup(seconds));
    service.reset_stats().expect("train: reset stats");
    let (cpu, allocs) = (crate::process_cpu_s(), crate::alloc::allocations());
    let mut phase = trainer.run(service, Instant::now() + Duration::from_secs_f64(seconds));
    phase.cpu_s = crate::process_cpu_s() - cpu;
    phase.allocs = crate::alloc::allocations() - allocs;
    phase.stats = Some(service.stats());
    phase
}

pub fn run(opts: &Opts) -> EndToEnd {
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (service, s) = start_service(config());
        setups.push(s);
        service.shutdown().expect("train: shutdown");
    }
    let (mut service, s) = start_service(config());
    setups.push(s);
    let mut trainer = Trainer::new(opts.seed);
    let phase = measure(&mut service, &mut trainer, opts, opts.seconds);
    service.shutdown().expect("train: shutdown");
    EndToEnd::from_phase(
        setups,
        &phase,
        SUB_WINDOWS,
        slot_bytes(),
        trainer.checked,
        trainer.mismatches,
    )
}

pub fn run_traced(opts: &Opts) -> crate::Traced {
    let half = opts.seconds / 2.0;
    // Untraced reference window (for the tracing overhead and residual).
    let (mut service, _) = start_service(config());
    let mut trainer = Trainer::new(opts.seed);
    let untraced = measure(&mut service, &mut trainer, opts, half);
    service.shutdown().expect("train: shutdown");

    let (checked, mismatches) = (trainer.checked, trainer.mismatches);

    let (mut service, _) = start_service(config().telemetry(crate::telemetry_spec()));
    let mut trainer = Trainer::new(opts.seed);
    crate::alloc::enable();
    let traced = measure(&mut service, &mut trainer, opts, half);
    let dump = service.dump_flight_recorder("benchmark");
    service.shutdown().expect("train: shutdown");

    let stream = trainer_stream(opts.seed);
    let replay =
        ShardReplay::new(&table(), StoreKind::Arena, &stream, BATCH, |row, local, step| {
            BatchOp::FetchUpdate(local, update(row, step), layout())
        });
    let layers = ledger::replay_layers(&replay);
    ledger::assemble(crate::TracedInputs {
        untraced,
        traced,
        dump,
        layers,
        slot_bytes: slot_bytes(),
        row_bytes: layout().payload_bytes() as u64,
        net: None,
        checked: checked + trainer.checked,
        mismatches: mismatches + trainer.mismatches,
        extra_ops: OpCounts::default(),
    })
}

/// The trace as `(row, step)` pairs for the single-shard replays.
fn trainer_stream(seed: u64) -> Vec<(u32, u64)> {
    let trace = Trace::generate(
        TraceKind::Dlrm(DlrmTraceConfig::default()),
        ROWS,
        ledger::REPLAY_OPS,
        seed,
    );
    trace.accesses().iter().enumerate().map(|(i, &row)| (row, i as u64)).collect()
}
