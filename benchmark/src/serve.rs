//! `serve_xlmr_tcp`: XNLI token lookups of preloaded 4 KiB XLM-R rows
//! over two loopback connections to a `NetServer`.
//!
//! Phase 1 is a closed loop (throughput); phase 2 an open loop at the
//! fixed rate [`OPEN_RATE`] (latency from each request's scheduled send).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use laoram_core::BatchOp;
use laoram_net::frame::{ErrorCode, Frame, WireOp};
use laoram_net::{NetClient, NetEvent, NetReport, NetServer, NetServerConfig};
use laoram_service::{
    BatchPolicy, LaoramService, Request, ServiceConfig, StorageBackend, TableSpec,
};
use oram_tree::SLOT_HEADER_BYTES;
use oram_workloads::{ArrivalProcess, ArrivalSchedule, Trace, TraceKind, XnliTraceConfig};

use crate::drive::{self, Checker, Expected, Offer};
use crate::ledger::{self, NetLayer, ShardReplay, StoreKind};
use crate::report::{self, Latencies};
use crate::{EndToEnd, Opts, Phase, TABLE_SEED};

const ROWS: u32 = 65_536;
const ROW_BYTES: u32 = 4096;
const SUPERBLOCK: u32 = 32;
const SHARDS: u32 = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const CONNECTIONS: u64 = 2;
/// Requests in flight per connection in the closed loop: two full groups
/// over both connections, so the preprocessor can plan one while the
/// shards serve the other.
const WINDOW: usize = 64;
/// Offered load of the open loop, ops/s over both connections. Set below
/// the closed-loop capacity on a 2-CPU host so the queue stays bounded.
pub const OPEN_RATE: f64 = 6_000.0;
/// Sub-windows of each phase.
const SUB_WINDOWS: usize = 40;
/// Share of the window given to the closed loop; the open loop gets the rest.
const CLOSED_SHARE: f64 = 0.35;
/// Trace positions generated per connection; the stream wraps after this.
const TRACE_LEN: usize = 1 << 19;

fn table() -> TableSpec {
    TableSpec::new("xlmr", ROWS)
        .shards(SHARDS)
        .superblock_size(SUPERBLOCK)
        .row_bytes(ROW_BYTES)
        .backend(StorageBackend::InMemory)
        .seed(TABLE_SEED)
}

fn config() -> ServiceConfig {
    ServiceConfig::new()
        .queue_depth(4)
        // One group is one superblock per shard (S x shards = 64 requests).
        .batch_policy(BatchPolicy::new().max_batch(64).max_delay(Duration::from_millis(1)))
        .table(table())
}

fn net_config() -> NetServerConfig {
    NetServerConfig::default().reactors(1)
}

fn slot_bytes() -> f64 {
    (SLOT_HEADER_BYTES + ROW_BYTES as usize) as f64
}

fn word(row: u32, i: usize) -> u64 {
    let mut z = (u64::from(row) << 32 | i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A row's preload contents.
fn initial_row(row: u32) -> Box<[u8]> {
    (0..ROW_BYTES as usize / 8).flat_map(|i| word(row, i).to_le_bytes()).collect()
}

/// Whether `output` is exactly `row`'s preload contents.
fn is_preloaded(row: u32, output: Option<&[u8]>) -> bool {
    output.is_some_and(|bytes| {
        bytes.len() == ROW_BYTES as usize
            && bytes.chunks_exact(8).enumerate().all(|(i, w)| w == word(row, i).to_le_bytes())
    })
}

/// Wire size of a read request frame (see `Frame::encode_into`).
const REQUEST_FRAME_BYTES: usize = 4 + 1 + 8 + 4 + 4 + 1;

/// Wire size of a response frame carrying `output`.
fn response_frame_bytes(output: Option<&[u8]>) -> usize {
    4 + 1 + 8 + 1 + output.map_or(0, |o| 4 + o.len())
}

/// Per-connection stream of row ids.
fn stream(seed: u64, connection: u64, len: usize) -> Vec<u32> {
    let kind = TraceKind::Xnli(XnliTraceConfig::default());
    Trace::generate(kind, ROWS, len, seed.wrapping_add(connection * 7919)).accesses().to_vec()
}

/// What one connection (or the in-process load generator) saw.
#[derive(Default)]
struct Conn {
    phase: Phase,
    lateness: Latencies,
    checked: u64,
    mismatches: u64,
    wire_bytes: u64,
}

impl Conn {
    fn merge(&mut self, other: Conn) {
        self.phase.ops.add(other.phase.ops);
        self.phase.latency.extend(other.phase.latency);
        self.phase.elapsed_s = self.phase.elapsed_s.max(other.phase.elapsed_s);
        self.phase.window = match (self.phase.window, other.phase.window) {
            (Some((s1, e1)), Some((s2, e2))) => Some((s1.min(s2), e1.max(e2))),
            (a, b) => a.or(b),
        };
        self.lateness.extend(other.lateness);
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        self.wire_bytes += other.wire_bytes;
    }

    fn on_event(&mut self, event: &NetEvent, inflight: &mut HashMap<u64, (Instant, u32)>) {
        match event {
            NetEvent::Response { id, output } => {
                self.wire_bytes += response_frame_bytes(output.as_deref()) as u64;
                if let Some((origin, row)) = inflight.remove(id) {
                    self.phase.latency.record(origin.elapsed().as_nanos() as u64);
                    self.phase.ops.succeeded += 1;
                    self.checked += 1;
                    self.mismatches += u64::from(!is_preloaded(row, output.as_deref()));
                }
            }
            NetEvent::Error { id, code, message } => {
                if inflight.remove(id).is_some() {
                    self.phase.latency.record_miss();
                    match code {
                        ErrorCode::Overloaded | ErrorCode::TenantThrottled => {
                            self.phase.ops.refused += 1;
                        }
                        _ => {
                            eprintln!("serve: request {id} failed: {code:?} {message}");
                            self.phase.ops.failed += 1;
                        }
                    }
                }
            }
            NetEvent::Metrics { .. } => {}
        }
    }

    fn send(&mut self, client: &mut NetClient, id: u64, row: u32) {
        self.phase.ops.attempted += 1;
        self.wire_bytes += REQUEST_FRAME_BYTES as u64;
        client.queue_frame(&Frame::Request { id, table: 0, index: row, op: WireOp::Read });
    }
}

/// One connection's closed loop: `WINDOW` requests in flight until
/// `deadline`, then drain.
fn tcp_closed(
    addr: SocketAddr,
    tenant: u64,
    rows: &[u32],
    start_at: usize,
    deadline: Instant,
) -> Conn {
    let mut client = NetClient::connect(addr, tenant).expect("serve: connect");
    let mut conn = Conn::default();
    let mut inflight = HashMap::new();
    let start = Instant::now();
    conn.phase.window = Some((start, deadline));
    let mut next = 0usize;
    loop {
        if Instant::now() < deadline {
            while inflight.len() < WINDOW {
                let row = rows[(start_at + next) % rows.len()];
                inflight.insert(next as u64, (Instant::now(), row));
                conn.send(&mut client, next as u64, row);
                next += 1;
            }
            client.flush().expect("serve: flush");
        }
        if inflight.is_empty() {
            break;
        }
        let event = client.recv().expect("serve: recv");
        conn.on_event(&event, &mut inflight);
    }
    conn.phase.elapsed_s = start.elapsed().as_secs_f64();
    let _ = client.goodbye();
    conn
}

/// One connection's open loop: request `i` is due at `offsets[i]` after
/// the start; latency counts from the due time.
fn tcp_open(addr: SocketAddr, tenant: u64, rows: &[u32], start_at: usize, offsets: &[u64]) -> Conn {
    let mut client = NetClient::connect(addr, tenant).expect("serve: connect");
    let mut conn = Conn::default();
    let mut inflight = HashMap::new();
    let start = Instant::now();
    let end = start + Duration::from_nanos(offsets.last().map_or(0, |&o| o + 1));
    conn.phase.window = Some((start, end));
    for (i, &offset) in offsets.iter().enumerate() {
        let due = start + Duration::from_nanos(offset);
        // Socket receive timeouts round up to the kernel tick, so wait
        // for the due time with short sleeps and non-blocking receives.
        loop {
            while let Some(event) = client.try_recv().expect("serve: recv") {
                conn.on_event(&event, &mut inflight);
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_micros(100)));
        }
        conn.lateness.record(due.elapsed().as_nanos() as u64);
        let row = rows[(start_at + i) % rows.len()];
        inflight.insert(i as u64, (due, row));
        conn.send(&mut client, i as u64, row);
        client.flush().expect("serve: flush");
    }
    while !inflight.is_empty() {
        let event = client.recv().expect("serve: recv");
        conn.on_event(&event, &mut inflight);
    }
    conn.phase.elapsed_s = start.elapsed().as_secs_f64();
    let _ = client.goodbye();
    conn
}

/// The open-loop schedule of one connection: uniform arrivals at half
/// the offered rate, the two connections offset by half a gap.
fn schedule(connection: u64, seconds: f64) -> Vec<u64> {
    let rate = OPEN_RATE / CONNECTIONS as f64;
    let count = (rate * seconds) as usize;
    let shift = (1e9 / OPEN_RATE) as u64 * connection;
    let base = ArrivalSchedule::generate(ArrivalProcess::Uniform, rate, count, 0);
    base.offsets_ns().iter().map(|o| o + shift).collect()
}

/// Runs both connections of one TCP phase on their own threads.
fn tcp_phase(
    addr: SocketAddr,
    streams: &[Vec<u32>],
    cursor: &mut usize,
    open_seconds: Option<f64>,
    closed_deadline: Instant,
) -> Conn {
    let start_at = *cursor;
    let conns: Vec<Conn> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let rows = &streams[c as usize];
                scope.spawn(move || match open_seconds {
                    Some(s) => tcp_open(addr, c, rows, start_at, &schedule(c, s)),
                    None => tcp_closed(addr, c, rows, start_at, closed_deadline),
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("serve: connection thread")).collect()
    });
    let mut merged = Conn::default();
    for conn in conns {
        merged.merge(conn);
    }
    *cursor += (merged.phase.ops.attempted / CONNECTIONS) as usize + 1;
    merged
}

/// Engine start, preload, and the listening server.
fn setup(config: ServiceConfig) -> (NetServer, f64) {
    let t = Instant::now();
    let mut service = LaoramService::start(config).expect("serve: service start");
    drive::preload(&mut service, ROWS, 1024, initial_row);
    service.reset_stats().expect("serve: reset stats");
    let server = NetServer::start(service, net_config()).expect("serve: server start");
    (server, t.elapsed().as_secs_f64())
}

/// Warm-up, closed-loop phase, open-loop phase over TCP.
fn tcp_windows(
    server: &NetServer,
    opts: &Opts,
    seconds: f64,
    streams: &[Vec<u32>],
) -> (Conn, Conn, Conn) {
    let addr = server.local_addr();
    let mut cursor = 0usize;
    let warm = tcp_phase(addr, streams, &mut cursor, None, Instant::now() + opts.warmup(seconds));
    let (cpu, allocs) = (crate::process_cpu_s(), crate::alloc::allocations());
    let closed_s = seconds * CLOSED_SHARE;
    let mut closed = tcp_phase(
        addr,
        streams,
        &mut cursor,
        None,
        Instant::now() + Duration::from_secs_f64(closed_s),
    );
    closed.phase.cpu_s = crate::process_cpu_s() - cpu;
    closed.phase.allocs = crate::alloc::allocations() - allocs;
    let open = tcp_phase(addr, streams, &mut cursor, Some(seconds - closed_s), Instant::now());
    (warm, closed, open)
}

fn shutdown(server: NetServer) -> NetReport {
    server.shutdown().expect("serve: server shutdown")
}

pub fn run(opts: &Opts) -> EndToEnd {
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (server, s) = setup(config());
        setups.push(s);
        shutdown(server);
    }
    let (server, s) = setup(config());
    setups.push(s);
    let streams: Vec<Vec<u32>> =
        (0..CONNECTIONS).map(|c| stream(opts.seed, c, TRACE_LEN)).collect();
    let (warm, closed, open) = tcp_windows(&server, opts, opts.seconds, &streams);
    let report = shutdown(server);
    let served = warm.phase.ops.succeeded + closed.phase.ops.succeeded + open.phase.ops.succeeded;
    let slots = report.service.stats.merged.total_slots_moved() as f64;
    let mut ops = closed.phase.ops;
    ops.add(open.phase.ops);
    let late = open.lateness.summary();
    let notes = vec![
        format!(
            "phase 1 (closed, {} x {WINDOW} in flight): {} ops in {:.3} s",
            CONNECTIONS, closed.phase.ops.succeeded, closed.phase.elapsed_s
        ),
        format!("phase 2 (open, {OPEN_RATE} ops/s offered): {}", open.phase.ops.describe()),
        format!("generator lateness: {}", late.describe()),
    ];
    EndToEnd {
        setups,
        ops,
        throughput: closed.phase.windowed(SUB_WINDOWS),
        latency: open.phase.windowed(SUB_WINDOWS),
        overall: open.phase.latency.summary(),
        bytes_per_op: slots * slot_bytes() / served.max(1) as f64,
        checked: warm.checked + closed.checked + open.checked,
        mismatches: warm.mismatches + closed.mismatches + open.mismatches,
        notes,
    }
}

/// In-process closed and open windows through two engine sessions at the
/// TCP phases' shapes.
fn inprocess_windows(
    service: &mut LaoramService,
    opts: &Opts,
    seconds: f64,
    streams: &[Vec<u32>],
    checker: &mut Checker<'_>,
) -> (Phase, Phase) {
    let sessions: Vec<_> = (0..CONNECTIONS).map(|_| service.session()).collect();
    let mut cursors = vec![0usize; CONNECTIONS as usize];
    let mut next = |s: usize| {
        let row = streams[s][cursors[s] % streams[s].len()];
        cursors[s] += 1;
        (Request::read(0, row), Expected::Preloaded(row))
    };
    let closed = Offer::Closed(WINDOW * CONNECTIONS as usize);
    let warm = Instant::now() + opts.warmup(seconds);
    drive::sessions(service, &sessions, &mut next, checker, closed, warm);
    service.reset_stats().expect("serve: reset stats");
    let closed_s = seconds * CLOSED_SHARE;
    let (cpu, allocs) = (crate::process_cpu_s(), crate::alloc::allocations());
    let deadline = Instant::now() + Duration::from_secs_f64(closed_s);
    let (mut closed, _) = drive::sessions(service, &sessions, &mut next, checker, closed, deadline);
    closed.cpu_s = crate::process_cpu_s() - cpu;
    closed.allocs = crate::alloc::allocations() - allocs;
    closed.stats = Some(service.stats());
    let open_s = seconds - closed_s;
    let offsets = ArrivalSchedule::generate(
        ArrivalProcess::Uniform,
        OPEN_RATE,
        (OPEN_RATE * open_s) as usize,
        0,
    );
    // The schedule ends the phase; the deadline is only a backstop.
    let deadline = Instant::now() + Duration::from_secs_f64(open_s + 1.0);
    let offer = Offer::Open(offsets.offsets_ns());
    let (open, _) = drive::sessions(service, &sessions, &mut next, checker, offer, deadline);
    (closed, open)
}

pub fn run_traced(opts: &Opts) -> crate::Traced {
    let streams: Vec<Vec<u32>> =
        (0..CONNECTIONS).map(|c| stream(opts.seed, c, TRACE_LEN)).collect();
    let third = opts.seconds / 3.0;
    // Untraced TCP closed loop: the tracing-overhead and residual base.
    let (server, _) = setup(config());
    let (u_warm, untraced, u_open) = tcp_windows(&server, opts, third, &streams);
    shutdown(server);
    let untraced_checked = u_warm.checked + untraced.checked + u_open.checked;
    let untraced_mismatches = u_warm.mismatches + untraced.mismatches + u_open.mismatches;

    // Traced: in-process windows first, then the same engine behind TCP.
    let mut service = LaoramService::start(config().telemetry(crate::telemetry_spec()))
        .expect("serve: service start");
    drive::preload(&mut service, ROWS, 1024, initial_row);
    let mut checker = Checker { verify_preloaded: &is_preloaded, checked: 0, mismatches: 0 };
    crate::alloc::enable();
    let (traced, inproc_open) =
        inprocess_windows(&mut service, opts, third, &streams, &mut checker);
    let dump = service.dump_flight_recorder("benchmark");
    service.reset_stats().expect("serve: reset stats");
    let server = NetServer::start(service, net_config()).expect("serve: server start");
    let (warm, closed, open) = tcp_windows(&server, opts, third, &streams);
    let report = shutdown(server);

    let tcp_ops = warm.phase.ops.succeeded + closed.phase.ops.succeeded + open.phase.ops.succeeded;
    let net_p = open.phase.latency.summary();
    let in_p = inproc_open.latency.summary();
    let frames = report.frames_in + report.frames_out;
    let attempted =
        warm.phase.ops.attempted + closed.phase.ops.attempted + open.phase.ops.attempted;
    let refused = warm.phase.ops.refused + closed.phase.ops.refused + open.phase.ops.refused;
    let mut net_phase = closed.phase;
    // The engine's counters cover every TCP op since the hand-over.
    net_phase.stats = Some(report.service.stats.clone());
    let net = NetLayer {
        overhead_p50_ms: report::ms(net_p.p50_ns) - report::ms(in_p.p50_ns),
        overhead_p99_ms: report::ms(net_p.p99_ns) - report::ms(in_p.p99_ns),
        frames_per_op: frames as f64 / tcp_ops.max(1) as f64,
        wire_bytes_per_op: (warm.wire_bytes + closed.wire_bytes + open.wire_bytes) as f64
            / tcp_ops.max(1) as f64,
        refused_frac: refused as f64 / attempted.max(1) as f64,
        gen_late_p99_ms: report::ms(open.lateness.summary().p99_ns),
        phase: net_phase,
        stats_ops: tcp_ops,
    };
    let stream0: Vec<(u32, u64)> = streams[0][..ledger::REPLAY_OPS.min(TRACE_LEN)]
        .iter()
        .enumerate()
        .map(|(i, &row)| (row, i as u64))
        .collect();
    let replay = ShardReplay::new(&table(), StoreKind::Arena, &stream0, 256, |_, local, _| {
        BatchOp::Read(local)
    });
    let layers = ledger::replay_layers(&replay);
    let mut extra = inproc_open.ops;
    extra.add(open.phase.ops);
    ledger::assemble(crate::TracedInputs {
        untraced: untraced.phase,
        traced,
        dump,
        layers,
        slot_bytes: slot_bytes(),
        row_bytes: u64::from(ROW_BYTES),
        net: Some(net),
        checked: untraced_checked + checker.checked + warm.checked + closed.checked + open.checked,
        mismatches: untraced_mismatches
            + checker.mismatches
            + warm.mismatches
            + closed.mismatches
            + open.mismatches,
        extra_ops: extra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_sizes_match_the_encoder() {
        let request = Frame::Request { id: 7, table: 0, index: 9, op: WireOp::Read };
        assert_eq!(request.encode().len(), REQUEST_FRAME_BYTES);
        let row = initial_row(3);
        let response = Frame::Response { id: 7, output: Some(row.to_vec()) };
        assert_eq!(response.encode().len(), response_frame_bytes(Some(&row)));
        let empty = Frame::Response { id: 7, output: None };
        assert_eq!(empty.encode().len(), response_frame_bytes(None));
    }

    #[test]
    fn preload_contents_verify() {
        let row = initial_row(11);
        assert!(is_preloaded(11, Some(&row)));
        assert!(!is_preloaded(12, Some(&row)));
        assert!(!is_preloaded(11, None));
        let mut bad = row.to_vec();
        bad[4095] ^= 1;
        assert!(!is_preloaded(11, Some(&bad)));
    }
}
