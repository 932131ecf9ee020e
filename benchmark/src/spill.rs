//! `spill_disk`: half reads, half writes of a permutation stream against
//! a `DiskStore`-backed table, one thread, fixed window.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use laoram_core::BatchOp;
use laoram_service::{
    BatchPolicy, DiskBackendSpec, LaoramService, Request, ServiceConfig, Session, StorageBackend,
    TableSpec,
};
use oram_tree::{DiskIoStats, DiskStore};
use oram_workloads::{Trace, TraceKind};

use crate::drive::{self, Checker, Expected, Offer};
use crate::host::ScratchDir;
use crate::ledger::{self, ShardReplay, StoreKind};
use crate::report::OpCounts;
use crate::{EndToEnd, Opts, Phase, TABLE_SEED};

const ROWS: u32 = 65_536;
const ROW_BYTES: u32 = 64;
const SUPERBLOCK: u32 = 8;
const SHARDS: u32 = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests kept in flight by the single load thread.
const WINDOW: usize = 256;
/// Sub-windows of the measured window.
const SUB_WINDOWS: usize = 40;
/// Trace positions generated per run (several permutation epochs).
const TRACE_LEN: usize = 1 << 20;

fn table(dir: &std::path::Path) -> TableSpec {
    TableSpec::new("spill", ROWS)
        .shards(SHARDS)
        .superblock_size(SUPERBLOCK)
        .row_bytes(ROW_BYTES)
        .backend(StorageBackend::Disk(
            DiskBackendSpec::new(dir).snapshots(false).durable_sync(false),
        ))
        .seed(TABLE_SEED)
}

fn config(dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig::new()
        .queue_depth(4)
        .batch_policy(BatchPolicy::new().max_batch(WINDOW / 2).max_delay(Duration::from_millis(1)))
        .table(table(dir))
}

fn slot_bytes() -> f64 {
    DiskStore::slot_bytes_for(ROW_BYTES) as f64
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The op at stream position `pos`: a read, or a write of a payload
/// unique to (row, pos).
fn op_at(seed: u64, row: u32, pos: u64) -> Option<Box<[u8]>> {
    if mix(seed ^ pos.wrapping_mul(0xA24B_AED4_963E_E407)) & 1 == 0 {
        return None;
    }
    Some(payload(row, pos))
}

/// The row a set-up preloads (no stream position reaches `u64::MAX`).
fn initial_row(row: u32) -> Box<[u8]> {
    payload(row, u64::MAX)
}

fn payload(row: u32, pos: u64) -> Box<[u8]> {
    let mut bytes = Vec::with_capacity(ROW_BYTES as usize);
    let mut word = mix(u64::from(row) << 32 ^ pos);
    while bytes.len() < ROW_BYTES as usize {
        bytes.extend_from_slice(&word.to_le_bytes());
        word = mix(word);
    }
    bytes.into_boxed_slice()
}

/// The stream and its reference model: the last value written per row.
struct Spiller {
    seed: u64,
    trace: Vec<u32>,
    pos: u64,
    model: HashMap<u32, Box<[u8]>>,
}

impl Spiller {
    fn new(seed: u64) -> Self {
        let trace = Trace::generate(TraceKind::Permutation, ROWS, TRACE_LEN, seed);
        Spiller { seed, trace: trace.accesses().to_vec(), pos: 0, model: HashMap::new() }
    }

    fn next(&mut self) -> (Request, Expected) {
        let row = self.trace[(self.pos % TRACE_LEN as u64) as usize];
        let write = op_at(self.seed, row, self.pos);
        self.pos += 1;
        // Reads return the stored row; writes return the row they replace.
        let stored = self.model.get(&row).cloned().unwrap_or_else(|| initial_row(row));
        let expected = Expected::Exact(stored);
        let request = match write {
            Some(payload) => {
                self.model.insert(row, payload.clone());
                Request::write(0, row, payload)
            }
            None => Request::read(0, row),
        };
        (request, expected)
    }
}

fn io_delta(after: DiskIoStats, before: DiskIoStats) -> DiskIoStats {
    let mut d = after;
    d.reads -= before.reads;
    d.read_bytes -= before.read_bytes;
    d.writes -= before.writes;
    d.write_bytes -= before.write_bytes;
    d
}

fn disk_io(service: &LaoramService) -> DiskIoStats {
    service.table_status()[0].disk_io.unwrap_or_default()
}

/// Starts the engine on fresh shard files and writes every row once.
fn start_service(config: ServiceConfig) -> (LaoramService, f64) {
    let t = Instant::now();
    let mut service = LaoramService::start(config).expect("spill: service start");
    drive::preload(&mut service, ROWS, 4096, initial_row);
    (service, t.elapsed().as_secs_f64())
}

/// Warm up, reset the counters, and measure one closed-loop window.
fn measure(
    service: &mut LaoramService,
    session: &Session,
    spiller: &mut Spiller,
    checker: &mut Checker<'_>,
    opts: &Opts,
    seconds: f64,
) -> Phase {
    let sessions = std::slice::from_ref(session);
    let mut next = |_| spiller.next();
    let deadline = Instant::now() + opts.warmup(seconds);
    drive::sessions(service, sessions, &mut next, checker, Offer::Closed(WINDOW), deadline);
    service.reset_stats().expect("spill: reset stats");
    let io = disk_io(service);
    let (cpu, allocs) = (crate::process_cpu_s(), crate::alloc::allocations());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut phase, _) =
        drive::sessions(service, sessions, &mut next, checker, Offer::Closed(WINDOW), deadline);
    phase.cpu_s = crate::process_cpu_s() - cpu;
    phase.allocs = crate::alloc::allocations() - allocs;
    phase.stats = Some(service.stats());
    phase.disk_io = Some(io_delta(disk_io(service), io));
    phase
}

fn no_preload(_: u32, _: Option<&[u8]>) -> bool {
    false
}

pub fn run(opts: &Opts) -> EndToEnd {
    let scratch = ScratchDir::new("spill").expect("spill: scratch directory");
    let mut setups = Vec::new();
    for i in 1..SETUPS {
        let dir = scratch.path().join(format!("setup-{i}"));
        let (service, s) = start_service(config(&dir));
        setups.push(s);
        service.shutdown().expect("spill: shutdown");
        let _ = std::fs::remove_dir_all(dir);
    }
    let (mut service, s) = start_service(config(&scratch.path().join("measured")));
    setups.push(s);
    let session = service.session();
    let mut spiller = Spiller::new(opts.seed);
    let mut checker = Checker { verify_preloaded: &no_preload, checked: 0, mismatches: 0 };
    let phase = measure(&mut service, &session, &mut spiller, &mut checker, opts, opts.seconds);
    service.shutdown().expect("spill: shutdown");
    let io = phase.disk_io.unwrap_or_default();
    let ops = phase.ops.succeeded.max(1) as f64;
    let mut e2e = EndToEnd::from_phase(
        setups,
        &phase,
        SUB_WINDOWS,
        slot_bytes(),
        checker.checked,
        checker.mismatches,
    );
    e2e.notes.push(format!(
        "disk: {:.2} reads/op, {:.0} read B/op, {:.2} writes/op, {:.0} written B/op",
        io.reads as f64 / ops,
        io.read_bytes as f64 / ops,
        io.writes as f64 / ops,
        io.write_bytes as f64 / ops
    ));
    e2e
}

pub fn run_traced(opts: &Opts) -> crate::Traced {
    let half = opts.seconds / 2.0;
    let scratch = ScratchDir::new("spill").expect("spill: scratch directory");
    let mut checker = Checker { verify_preloaded: &no_preload, checked: 0, mismatches: 0 };

    let (mut service, _) = start_service(config(&scratch.path().join("untraced")));
    let session = service.session();
    let mut spiller = Spiller::new(opts.seed);
    let untraced = measure(&mut service, &session, &mut spiller, &mut checker, opts, half);
    service.shutdown().expect("spill: shutdown");

    let dir = scratch.path().join("traced");
    let (mut service, _) = start_service(config(&dir).telemetry(crate::telemetry_spec()));
    let session = service.session();
    let mut spiller = Spiller::new(opts.seed);
    crate::alloc::enable();
    let traced = measure(&mut service, &session, &mut spiller, &mut checker, opts, half);
    let dump = service.dump_flight_recorder("benchmark");
    service.shutdown().expect("spill: shutdown");

    let seed = opts.seed;
    let trace = Trace::generate(TraceKind::Permutation, ROWS, ledger::REPLAY_OPS, seed);
    let stream: Vec<(u32, u64)> =
        trace.accesses().iter().enumerate().map(|(i, &row)| (row, i as u64)).collect();
    let replay =
        ShardReplay::new(&table(&dir), StoreKind::Disk, &stream, WINDOW / 2, |row, local, pos| {
            match op_at(seed, row, pos) {
                Some(payload) => BatchOp::Write(local, payload),
                None => BatchOp::Read(local),
            }
        });
    let layers = ledger::replay_layers(&replay);
    ledger::assemble(crate::TracedInputs {
        untraced,
        traced,
        dump,
        layers,
        slot_bytes: slot_bytes(),
        row_bytes: u64::from(ROW_BYTES),
        net: None,
        checked: checker.checked,
        mismatches: checker.mismatches,
        extra_ops: OpCounts::default(),
    })
}
