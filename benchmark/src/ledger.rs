//! The layer ledger: standalone single-thread replays of each crate's
//! public path-I/O, access, and serve calls, timed from the benchmark's
//! own code, plus the engine's existing counters and spans.
//!
//! Rows run bottom-up — tree, protocol, core, service, net — in process
//! CPU nanoseconds per genuine op, so the difference between adjacent
//! rows is that layer's own cost.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use laoram_core::{BatchOp, LaOram, LaOramConfig, SuperblockPlanner};
use laoram_service::{TablePartition, TableSpec};
use memsim::{CostModel, Traffic};
use oram_protocol::{
    AccessObserver, AccessStats, PathOramClient, PathOramConfig, RecordingObserver, ServerOp,
};
use oram_tree::{
    ArenaStore, ArenaStoreConfig, Block, BlockId, BucketStore, DiskStore, DiskStoreConfig,
    DynBucketStore, LeafId, PathScratch,
};

use crate::host::ScratchDir;
use crate::report::{self, Metrics};
use crate::{Traced, TracedInputs};

/// Which server store the replays run on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    Arena,
    Disk,
}

/// Shard 0's share of a workload, ready to replay outside the engine.
pub struct ShardReplay {
    config: LaOramConfig,
    eviction: oram_protocol::EvictionConfig,
    seed: u64,
    capacity: u32,
    kind: StoreKind,
    /// Shard-local ops in stream order.
    ops: Vec<BatchOp>,
    /// Shard-local ops per planned window (one engine group's share).
    window: usize,
}

impl ShardReplay {
    /// Routes `stream` (row, step) with the table's own partition, keeps
    /// shard 0's ops, and builds that shard's LAORAM configuration the way
    /// the engine does.
    pub fn new(
        spec: &TableSpec,
        kind: StoreKind,
        stream: &[(u32, u64)],
        group_len: usize,
        make: impl Fn(u32, u32, u64) -> BatchOp,
    ) -> ShardReplay {
        let partition = TablePartition::for_spec(spec).expect("ledger: partition");
        let config = LaOramConfig::builder(partition.shard_size(0))
            .superblock_size(spec.superblock_size)
            .fat_tree(spec.fat_tree)
            .payloads(spec.payloads)
            .eviction(spec.eviction)
            .seed(spec.seed)
            .build()
            .expect("ledger: shard configuration");
        let ops = stream
            .iter()
            .filter_map(|&(row, step)| match partition.locate(row) {
                Some((0, local)) => Some(make(row, local, step)),
                _ => None,
            })
            .collect();
        let window = (group_len / partition.shards() as usize).max(1);
        ShardReplay {
            config,
            eviction: spec.eviction,
            seed: spec.seed,
            capacity: spec.row_bytes,
            kind,
            ops,
            window,
        }
    }

    fn store(&self, dir: &ScratchDir, name: &str) -> DynBucketStore {
        let geometry = self.config.geometry().expect("ledger: geometry");
        match self.kind {
            StoreKind::Arena => Box::new(ArenaStore::new(
                geometry,
                ArenaStoreConfig::new().payload_capacity(self.capacity),
            )),
            StoreKind::Disk => Box::new(disk_store(dir, name, geometry, self.capacity)),
        }
    }
}

fn disk_store(
    dir: &ScratchDir,
    name: &str,
    geometry: oram_tree::TreeGeometry,
    capacity: u32,
) -> DiskStore {
    // The engine's `DiskBackendSpec` defaults: 64 write-back paths, 256
    // readahead paths, non-durable sync.
    let config = DiskStoreConfig::new().payload_capacity(capacity);
    DiskStore::create(dir.path().join(name), geometry, config).expect("ledger: disk store")
}

/// An observer the replay can read back after the client is done.
struct Tap(Arc<Mutex<RecordingObserver>>);

impl AccessObserver for Tap {
    fn observe(&mut self, op: ServerOp) {
        self.0.lock().expect("tap lock").observe(op);
    }
}

/// Timed part of the core replay.
pub struct CoreReplay {
    pub ops: u64,
    pub plan_ns: f64,
    pub serve_ns: f64,
    pub allocs: u64,
    pub stats: AccessStats,
}

/// Timings and counts of the standalone replays.
pub struct Layers {
    pub kind: StoreKind,
    pub core: CoreReplay,
    /// Arena path I/O replay.
    pub tree: PathReplay,
    /// Disk path I/O replay, for disk-backed workloads.
    pub disk: Option<PathReplay>,
    pub protocol_accesses: u64,
    pub protocol_ns: f64,
    pub protocol_allocs: u64,
}

#[derive(Default, Clone, Copy)]
pub struct PathReplay {
    pub paths: u64,
    pub read_ns: f64,
    pub write_ns: f64,
    pub allocs: u64,
}

impl PathReplay {
    fn per_path(&self, total: f64) -> f64 {
        total / self.paths.max(1) as f64
    }
}

/// Runs the core, tree, and protocol replays. The first quarter of the
/// shard's ops warms each replay up untimed.
pub fn replay_layers(replay: &ShardReplay) -> Layers {
    let dir = ScratchDir::new("ledger").expect("ledger: scratch directory");
    let (core, recorded) = replay_core(replay, &dir);
    let geometry = replay.config.geometry().expect("ledger: geometry");
    let arena = ArenaStore::new(
        geometry.clone(),
        ArenaStoreConfig::new().payload_capacity(replay.capacity),
    );
    let blocks = replay.config.num_blocks();
    let tree = replay_paths(arena, blocks, &recorded, replay.capacity);
    let disk = (replay.kind == StoreKind::Disk).then(|| {
        let store = disk_store(&dir, "paths.oram", geometry, replay.capacity);
        replay_paths(store, blocks, &recorded, replay.capacity)
    });
    let (protocol_accesses, protocol_ns, protocol_allocs) = replay_protocol(replay, &dir);
    Layers { kind: replay.kind, core, tree, disk, protocol_accesses, protocol_ns, protocol_allocs }
}

/// `SuperblockPlanner::plan` + `LaOram::serve_batch` over shard 0's ops,
/// staging the next window before serving the current one as the
/// engine's shard workers do. Returns the timed part and the server
/// operations it made.
fn replay_core(replay: &ShardReplay, dir: &ScratchDir) -> (CoreReplay, Vec<ServerOp>) {
    let mut client = LaOram::with_store(replay.config.clone(), replay.store(dir, "core.oram"))
        .expect("ledger: core client");
    let num_leaves = client.geometry().num_leaves();
    let mut planner = SuperblockPlanner::for_config(&replay.config, num_leaves);
    let windows: Vec<&[BatchOp]> = replay.ops.chunks(replay.window).collect();
    let warm = windows.len() / 4;
    let indices = |w: &[BatchOp]| w.iter().map(BatchOp::index).collect::<Vec<u32>>();
    client.stage_plan(planner.plan(&indices(windows[0]))).expect("ledger: stage");
    let tap = Arc::new(Mutex::new(RecordingObserver::new()));
    let (mut plan_ns, mut serve_ns, mut ops, mut allocs) = (0f64, 0f64, 0u64, 0u64);
    for (i, window) in windows.iter().enumerate() {
        if i == warm {
            client.reset_stats();
            client.set_observer(Box::new(Tap(Arc::clone(&tap))));
        }
        let timed = i >= warm;
        let ops_in = window.to_vec();
        let a0 = crate::alloc::allocations();
        let t0 = Instant::now();
        client.advance_plan().expect("ledger: advance");
        let t1 = Instant::now();
        if let Some(next) = windows.get(i + 1) {
            let plan = planner.plan(&indices(next));
            client.stage_plan(plan).expect("ledger: stage");
        }
        let t2 = Instant::now();
        client.serve_batch(ops_in).expect("ledger: serve");
        let t3 = Instant::now();
        if timed {
            plan_ns += (t2 - t1).as_nanos() as f64;
            serve_ns += ((t1 - t0) + (t3 - t2)).as_nanos() as f64;
            ops += window.len() as u64;
            allocs += crate::alloc::allocations() - a0;
        }
    }
    let stats = client.stats().clone();
    drop(client);
    let recorded = Arc::try_unwrap(tap)
        .map_or_else(|_| Vec::new(), |m| m.into_inner().expect("tap lock").into_ops());
    (CoreReplay { ops, plan_ns, serve_ns, allocs, stats }, recorded)
}

/// `read_path_into` / `write_path_from` over the recorded leaf sequence
/// on a standalone store populated with one payload block per row.
fn replay_paths(
    mut store: impl BucketStore,
    blocks: u32,
    recorded: &[ServerOp],
    capacity: u32,
) -> PathReplay {
    let leaves = store.geometry().num_leaves();
    let payload = vec![0xA5u8; capacity as usize].into_boxed_slice();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for id in 0..blocks {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let leaf = LeafId::new((x % leaves) as u32);
        let _ = store.place_for_init(Block::with_data(BlockId::new(id), leaf, payload.clone()));
    }
    let _ = store.sync();
    let mut scratch = PathScratch::new();
    let mut out = PathReplay::default();
    for op in recorded {
        let a0 = crate::alloc::allocations();
        let t = Instant::now();
        match *op {
            ServerOp::ReadPath(leaf, _) => {
                store.read_path_into(leaf, &mut scratch);
                out.read_ns += t.elapsed().as_nanos() as f64;
                out.paths += 1;
            }
            ServerOp::WritePath(leaf) => {
                store.write_path_from(leaf, &mut scratch);
                scratch.clear();
                out.write_ns += t.elapsed().as_nanos() as f64;
            }
        }
        out.allocs += crate::alloc::allocations() - a0;
    }
    out
}

/// `PathOramClient::access` over shard 0's ops (plain Path ORAM: one path
/// read and write per access, no superblocks).
fn replay_protocol(replay: &ShardReplay, dir: &ScratchDir) -> (u64, f64, u64) {
    let config = PathOramConfig::new(replay.config.num_blocks())
        .with_profile(replay.config.profile())
        .with_payloads(true)
        .with_eviction(replay.eviction)
        .with_seed(replay.seed);
    let mut client = PathOramClient::with_store(config, replay.store(dir, "protocol.oram"))
        .expect("ledger: protocol client");
    let payload = vec![0x5Au8; replay.capacity as usize].into_boxed_slice();
    let ops = &replay.ops[..replay.ops.len().min(PROTOCOL_OPS)];
    let warm = ops.len() / 4;
    let (mut ns, mut allocs) = (0f64, 0u64);
    for (i, op) in ops.iter().enumerate() {
        let data = match op {
            BatchOp::Read(_) => None,
            _ => Some(payload.clone()),
        };
        let a0 = crate::alloc::allocations();
        let t = Instant::now();
        client.access(BlockId::new(op.index()), data, None).expect("ledger: access");
        if i >= warm {
            ns += t.elapsed().as_nanos() as f64;
            allocs += crate::alloc::allocations() - a0;
        }
    }
    ((ops.len() - warm) as u64, ns, allocs)
}

/// Accesses the protocol replay makes at most: plain Path ORAM pays a
/// path per access, so it needs far fewer ops than the superblock replay.
const PROTOCOL_OPS: usize = 20_000;

/// The net tier's share of a traced run (serve workload only).
pub struct NetLayer {
    pub overhead_p50_ms: f64,
    pub overhead_p99_ms: f64,
    pub frames_per_op: f64,
    pub wire_bytes_per_op: f64,
    pub refused_frac: f64,
    pub gen_late_p99_ms: f64,
    /// Traced TCP closed-loop window; its statistics cover every TCP op.
    pub phase: crate::Phase,
    /// Ops the window statistics cover.
    pub stats_ops: u64,
}

/// One ledger row.
struct Row {
    name: &'static str,
    ns_per_op: f64,
    allocs_per_op: f64,
    bytes_per_op: f64,
    path_reads_per_op: f64,
    dummy_reads_per_op: f64,
}

fn per(n: f64, ops: u64) -> f64 {
    n / ops.max(1) as f64
}

/// Builds the per-layer metrics and the ledger text of a traced run.
pub fn assemble(input: TracedInputs) -> Traced {
    let TracedInputs {
        untraced,
        traced,
        dump,
        layers,
        slot_bytes,
        row_bytes,
        net,
        checked,
        mismatches,
        extra_ops,
    } = input;
    let mut m = Metrics::default();
    let stats = traced.stats.as_ref().expect("traced window statistics");
    let merged = &stats.merged;
    let genuine = traced.ops.succeeded;
    let disk_workload = layers.kind == StoreKind::Disk;

    // oram-tree (arena, then disk).
    let t = &layers.tree;
    m.set("tree.read_path_ns", t.per_path(t.read_ns), "ns");
    m.set("tree.write_path_ns", t.per_path(t.write_ns), "ns");
    m.set("tree.allocs_per_path", t.per_path(t.allocs as f64), "allocs/path");
    let d = layers.disk.unwrap_or_default();
    m.set("disk.read_path_ns", d.per_path(d.read_ns), "ns");
    m.set("disk.write_path_ns", d.per_path(d.write_ns), "ns");
    let io = traced.disk_io.unwrap_or_default();
    m.set("disk.reads_per_op", per(io.reads as f64, genuine), "reads/op");
    m.set("disk.read_bytes_per_op", per(io.read_bytes as f64, genuine), "B/op");
    m.set("disk.writes_per_op", per(io.writes as f64, genuine), "writes/op");
    m.set("disk.write_bytes_per_op", per(io.write_bytes as f64, genuine), "B/op");
    let mut syncs: Vec<u64> = dump
        .iter()
        .flat_map(|d| d.spans.iter())
        .filter(|s| s.stage == "core.sync")
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    syncs.sort_unstable();
    let sync_p99 = if syncs.is_empty() { 0.0 } else { report::ms(report::quantile(&syncs, 0.99)) };
    m.set("disk.sync_p99_ms", sync_p99, "ms");

    // oram-protocol: standalone access cost; the engine's own counters.
    let access_ns = per(layers.protocol_ns, layers.protocol_accesses);
    m.set("protocol.access_ns", access_ns, "ns");
    m.set("protocol.path_reads_per_op", per(merged.path_reads as f64, genuine), "reads/op");
    m.set("protocol.dummy_reads_per_op", per(merged.dummy_reads as f64, genuine), "reads/op");
    m.set("protocol.stash_peak", merged.stash_peak as f64, "blocks");
    m.set("protocol.eviction_stalls", merged.eviction_stalls as f64, "count");

    // laoram-core.
    let plan_ns = per(layers.core.plan_ns, layers.core.ops);
    let serve_ns = per(layers.core.serve_ns, layers.core.ops);
    m.set("core.plan_ns_per_op", plan_ns, "ns/op");
    m.set("core.serve_ns_per_op", serve_ns, "ns/op");
    let real = merged.real_accesses;
    m.set("core.cache_hit_frac", per(merged.cache_hits as f64, real), "fraction");
    m.set("core.cold_miss_frac", per(merged.cold_misses as f64, real), "fraction");

    // laoram-service.
    let lat = &stats.request_latency;
    m.set("service.queue_wait_p50_ms", report::ms(lat.queue_wait.p50()), "ms");
    m.set("service.queue_wait_p99_ms", report::ms(lat.queue_wait.p99()), "ms");
    m.set("service.serve_p99_ms", report::ms(lat.service.p99()), "ms");
    m.set("service.prep_hidden_frac", stats.pipeline.overlap_fraction(), "fraction");
    let shard_ns: u64 = stats.shards.iter().map(|s| s.serve_ns).sum();
    let busy = shard_ns as f64 / (traced.elapsed_s * 1e9 * stats.shards.len().max(1) as f64);
    m.set("service.shard_busy_frac", busy, "fraction");
    m.set(
        "service.group_len_mean",
        per(stats.requests_completed as f64, stats.pipeline.batches),
        "ops",
    );
    m.set("service.skew_mean", stats.skew.mean_imbalance(), "ratio");
    let service_ns = traced.cpu_ns_per_op();
    m.set("service.engine_ns_per_op", service_ns - serve_ns - plan_ns, "ns/op");

    // laoram-net.
    let net_metrics = net.as_ref().map_or([0.0; 6], |n| {
        [
            n.overhead_p50_ms,
            n.overhead_p99_ms,
            n.frames_per_op,
            n.wire_bytes_per_op,
            n.refused_frac,
            n.gen_late_p99_ms,
        ]
    });
    for ((name, unit), value) in [
        ("net.overhead_p50_ms", "ms"),
        ("net.overhead_p99_ms", "ms"),
        ("net.frames_per_op", "frames/op"),
        ("net.wire_bytes_per_op", "B/op"),
        ("net.refused_frac", "fraction"),
        ("net.gen_late_p99_ms", "ms"),
    ]
    .into_iter()
    .zip(net_metrics)
    {
        m.set(name, value, unit);
    }

    // memsim: the paper's model beside the measured figures.
    let predicted_bytes = per(Traffic::from_stats(merged, row_bytes).total_bytes() as f64, genuine);
    let predicted_ns = CostModel::ddr4_pcie(row_bytes).latency_per_access(merged).as_nanos() as f64;
    m.set("memsim.predicted_bytes_per_op", predicted_bytes, "B/op");
    m.set("memsim.predicted_ns_per_op", predicted_ns, "ns/op");

    // Tracing overhead on the end-to-end path.
    let traced_top_tput = net.as_ref().map_or(traced.throughput(), |n| n.phase.throughput());
    m.set(
        "trace.overhead_frac",
        1.0 - traced_top_tput / untraced.throughput().max(1e-9),
        "fraction",
    );

    // The ledger rows.
    let cs = &layers.core.stats;
    let core_ops = layers.core.ops;
    let core_reads = per(cs.path_reads as f64, core_ops);
    let core_dummies = per(cs.dummy_reads as f64, core_ops);
    let core_bytes = per(cs.total_slots_moved() as f64 * slot_bytes, core_ops);
    let tree = if disk_workload { d } else { *t };
    let mut rows = vec![
        Row {
            name: if disk_workload { "tree(disk)" } else { "tree" },
            ns_per_op: per(tree.read_ns + tree.write_ns, core_ops),
            allocs_per_op: per(tree.allocs as f64, core_ops),
            bytes_per_op: core_bytes,
            path_reads_per_op: per(tree.paths as f64, core_ops),
            dummy_reads_per_op: core_dummies,
        },
        Row {
            name: "protocol",
            ns_per_op: access_ns * core_reads,
            allocs_per_op: per(layers.protocol_allocs as f64, layers.protocol_accesses)
                * core_reads,
            bytes_per_op: core_bytes,
            path_reads_per_op: core_reads,
            dummy_reads_per_op: core_dummies,
        },
        Row {
            name: "core",
            ns_per_op: plan_ns + serve_ns,
            allocs_per_op: per(layers.core.allocs as f64, core_ops),
            bytes_per_op: core_bytes,
            path_reads_per_op: core_reads,
            dummy_reads_per_op: core_dummies,
        },
        Row {
            name: "service",
            ns_per_op: service_ns,
            allocs_per_op: per(traced.allocs as f64, genuine),
            bytes_per_op: traced.bytes_per_op(slot_bytes),
            path_reads_per_op: per(merged.path_reads as f64, genuine),
            dummy_reads_per_op: per(merged.dummy_reads as f64, genuine),
        },
    ];
    if let Some(n) = &net {
        let s = &n.phase.stats.as_ref().expect("net window statistics").merged;
        rows.push(Row {
            name: "net",
            ns_per_op: n.phase.cpu_ns_per_op(),
            allocs_per_op: per(n.phase.allocs as f64, n.phase.ops.succeeded),
            bytes_per_op: per(s.total_slots_moved() as f64 * slot_bytes, n.stats_ops),
            path_reads_per_op: per(s.path_reads as f64, n.stats_ops),
            dummy_reads_per_op: per(s.dummy_reads as f64, n.stats_ops),
        });
    }
    let top = rows.last().map_or(0.0, |r| r.ns_per_op);
    let untraced_ns = untraced.cpu_ns_per_op();
    m.set("ledger.residual_ns_per_op", untraced_ns - top, "ns/op");

    let mut lines = vec![
        "# layer ledger: process CPU ns per genuine op; rows below `service` are single-thread \
         replays of shard 0"
            .to_owned(),
        format!(
            "{:<11} {:>12} {:>12} {:>10} {:>10} {:>13} {:>14}",
            "row",
            "ns/op",
            "layer ns/op",
            "allocs/op",
            "bytes/op",
            "path reads/op",
            "dummy reads/op"
        ),
    ];
    let mut below = 0.0;
    for row in &rows {
        lines.push(format!(
            "{:<11} {:>12.1} {:>12.1} {:>10.3} {:>10.1} {:>13.4} {:>14.4}",
            row.name,
            row.ns_per_op,
            row.ns_per_op - below,
            row.allocs_per_op,
            row.bytes_per_op,
            row.path_reads_per_op,
            row.dummy_reads_per_op
        ));
        below = row.ns_per_op;
    }
    lines.push(format!(
        "residual: untraced end-to-end {untraced_ns:.1} ns/op - top row {top:.1} ns/op = {:.1} \
         ns/op",
        untraced_ns - top
    ));
    lines.push(format!(
        "untraced window: {:.0} ops/s; traced window: {:.0} ops/s",
        untraced.throughput(),
        traced_top_tput
    ));
    lines.push(format!(
        "memsim: predicted {predicted_bytes:.1} B/op (measured {:.1} B/op with slot headers), \
         {predicted_ns:.1} ns/access",
        traced.bytes_per_op(slot_bytes)
    ));
    lines.push("# per-layer metrics (n/a = not exercised by this workload)".to_owned());
    for (name, value, unit) in m.iter() {
        let na = (name.starts_with("net.") && net.is_none())
            || (name.starts_with("disk.") && !disk_workload);
        if na {
            lines.push(format!("{name:<32} {:>14} {unit}", "n/a"));
        } else {
            lines.push(format!("{name:<32} {value:>14.4} {unit}"));
        }
    }

    let mut ops = untraced.ops;
    ops.add(traced.ops);
    ops.add(extra_ops);
    if let Some(n) = &net {
        ops.add(n.phase.ops);
    }
    Traced { metrics: m, ops, checked, mismatches, lines }
}

/// Shard-0 stream positions the core replay serves.
pub const REPLAY_OPS: usize = 160_000;
