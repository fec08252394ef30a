//! Traced run: the per-layer metrics.
//!
//! One round of the workload runs with its layer inputs recorded: the
//! blocks in broadcast order, the fleet (ids and positions) when each
//! block went out, and the fleet at sensing instants. Every layer is then called
//! through its public functions on those inputs, each call inside a span
//! (name, start, end, parent, work count). Spans stay in memory and are
//! written to `.bench_trace/<workload>-<seed>.tsv` when the run ends.

use crate::stats::Metric;
use crate::workload::{self, Probe, Round, Workload};
use nwade::{
    GuardAction, ImPersistence, ManagerAction, NwadeManager, NwadeMessage, StandbyManager,
    StandbyPolicy, VehicleGuard, WalRecord, FENCE_SHARD,
};
use nwade_aim::{PlanRequest, ReservationScheduler, Scheduler, SchedulerConfig};
use nwade_chain::{Block, BlockPackager, ChainCache};
use nwade_crypto::{CachingVerifier, Digest, MerkleTree, SignatureScheme};
use nwade_geometry::{GridIndex, Vec2};
use nwade_intersection::{build, Topology};
use nwade_sim::{CityGrid, SimConfig, Simulation};
use nwade_store::{MemBackend, Wal};
use nwade_traffic::{DemandGenerator, VehicleId};
use nwade_vanet::{Medium, NodeId, Recipient};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Ticks between recorded sensing instants (every 10th sensing pass).
const SENSE_EVERY: u64 = 50;
/// Algorithm 1 is replayed for every `GUARD_SAMPLE`-th vehicle to
/// receive a block, in order of first reception.
const GUARD_SAMPLE: usize = 4;
/// Builds of the topology and the demand per shard.
const SETUP_REPEATS: usize = 3;
/// Measured city ticks per thread count for the fan-out speed-up.
const SPEEDUP_TICKS: u64 = 200;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    work: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) {
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            work: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self, work: u64) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = self.origin.elapsed().as_secs_f64();
        self.spans[i].work = work;
    }

    /// Runs `f` inside a span; `work` reads the work count off its result.
    fn call<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> T,
        work: impl Fn(&T) -> u64,
    ) -> T {
        self.enter(name);
        let out = std::hint::black_box(f());
        self.exit(work(&out));
        out
    }

    /// Per span name: calls, total self time (seconds), total work.
    fn layers(&self) -> BTreeMap<&'static str, (u64, f64, u64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_insert((0, 0.0, 0));
            e.0 += 1;
            e.1 += s.end - s.start - c;
            e.2 += s.work;
        }
        out
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tparent\tname\tstart_us\tend_us\twork")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                f,
                "{i}\t{parent}\t{}\t{:.1}\t{:.1}\t{}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                s.work
            )?;
        }
        f.flush()
    }
}

/// Where each block went out from, with the fleet then.
struct Broadcast {
    index: u64,
    at: f64,
    fleet: Vec<(VehicleId, Vec2)>,
}

/// Records layer inputs during the traced round, and times the sensing
/// pass on a clone of the world at sensing instants.
struct Recorder<'t> {
    tracer: &'t mut Tracer,
    warm_up: f64,
    broadcasts: Vec<Vec<Broadcast>>,
    fleets: Vec<(f64, Vec<Vec2>)>,
    /// Host time spent recording, excluding the timed sensing passes.
    overhead_s: f64,
}

fn fleet_of(sim: &Simulation) -> Vec<(VehicleId, Vec2)> {
    sim.vehicle_snapshot()
        .into_iter()
        .map(|v| (v.0, v.1))
        .collect()
}

impl Probe for Recorder<'_> {
    fn after_tick(&mut self, shard: usize, sim: &Simulation, new_blocks: &[Block]) {
        let t = Instant::now();
        if !new_blocks.is_empty() {
            let fleet = fleet_of(sim);
            for b in new_blocks {
                self.broadcasts[shard].push(Broadcast {
                    index: b.index(),
                    at: sim.now(),
                    fleet: fleet.clone(),
                });
            }
        }
        let mut sensed = 0.0;
        if sim.now() > self.warm_up && sim.ticks_elapsed().is_multiple_of(SENSE_EVERY) {
            let mut copy = sim.clone();
            let fleet: Vec<Vec2> = fleet_of(sim).into_iter().map(|v| v.1).collect();
            let s = Instant::now();
            self.tracer.call(
                "sim.sense",
                || copy.force_sense_pass(),
                |_| fleet.len() as u64,
            );
            sensed = s.elapsed().as_secs_f64();
            self.fleets.push((sim.config().nwade.sensing_radius, fleet));
        }
        if sim.now() > self.warm_up {
            self.overhead_s += t.elapsed().as_secs_f64() - sensed;
        }
    }
}

/// Lets a shared scheme sit inside a [`CachingVerifier`].
struct Shared(Arc<dyn SignatureScheme>);

impl SignatureScheme for Shared {
    fn sign(&self, digest: &Digest) -> Vec<u8> {
        self.0.sign(digest)
    }

    fn verify(&self, digest: &Digest, signature: &[u8]) -> bool {
        self.0.verify(digest, signature)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn requests_of(block: &Block) -> Vec<PlanRequest> {
    block
        .plans()
        .iter()
        .map(|p| PlanRequest {
            id: p.id(),
            descriptor: p.descriptor().clone(),
            movement: p.movement(),
            position_s: p.profile().start_position(),
            speed: p.profile().start_speed(),
        })
        .collect()
}

fn build_manager(
    cfg: &SimConfig,
    topo: &Arc<Topology>,
    key: &Arc<dyn SignatureScheme>,
) -> NwadeManager {
    let sched = SchedulerConfig {
        limits: cfg.limits,
        threads: nwade_sim::engine::resolve_threads(cfg.engine),
        ..SchedulerConfig::default()
    };
    NwadeManager::new(
        topo.clone(),
        Box::new(ReservationScheduler::new(topo.clone(), sched)),
        key.clone(),
        cfg.nwade,
    )
}

/// Counts one shard's replay adds up beside its spans.
#[derive(Default)]
struct Replayed {
    /// Vehicles the replayed broadcasts reached.
    receptions: u64,
    /// Replayed vehicles whose Algorithm 1 rejected a block.
    rejections: u64,
    /// Encoded bytes of the shard's blocks.
    block_bytes: usize,
    /// Bytes of the shadow primary's WAL.
    wal_bytes: usize,
}

/// Replays every layer of one shard on the inputs its round recorded.
fn replay_shard(
    t: &mut Tracer,
    cfg: &SimConfig,
    chain: &[Block],
    broadcasts: &[Broadcast],
) -> Result<Replayed, String> {
    let mut out = Replayed::default();
    let mut topo = None;
    for _ in 0..SETUP_REPEATS {
        topo = Some(t.call(
            "intersection.build",
            || build(cfg.kind, &cfg.geometry),
            |tp| tp.movements().len() as u64,
        ));
    }
    let topo = Arc::new(topo.expect("built at least once"));
    for _ in 0..SETUP_REPEATS {
        t.call(
            "traffic.demand",
            || {
                DemandGenerator::new(cfg.density, cfg.turn_mix, cfg.initial_speed).generate(
                    &topo,
                    cfg.duration,
                    &mut StdRng::seed_from_u64(cfg.seed),
                )
            },
            |v| v.len() as u64,
        );
    }
    let key = t.call("crypto.keygen", || workload::im_key(cfg), |_| 1);

    // Crypto and chain, block by block in broadcast order.
    let mut cache = ChainCache::new(cfg.nwade.chain_cache_capacity);
    let mut packager = BlockPackager::new(key.clone());
    for b in chain {
        let leaves: Vec<Vec<u8>> = b.plans().iter().map(|p| p.encode()).collect();
        let n = leaves.len() as u64;
        t.call(
            "crypto.merkle",
            || MerkleTree::from_leaves(&leaves).root(),
            |_| n,
        );
        let digest = b.own_signing_digest();
        t.call("crypto.sign", || key.sign(&digest), |_| 1);
        t.call(
            "crypto.verify",
            || key.verify(&digest, b.signature()),
            |_| 1,
        );
        let plans = b.plans().to_vec();
        packager.restore_tip(b.prev_hash(), b.index());
        t.call(
            "chain.package",
            || packager.package(plans, b.timestamp()),
            |_| n,
        );
        t.call(
            "chain.verify",
            || cache.verify_block_cached(b, key.as_ref()),
            |_| n,
        )
        .map_err(|e| format!("block {} fails verification: {e:?}", b.index()))?;
        out.block_bytes += b.encode().len();
        cache
            .append(b.clone())
            .map_err(|e| format!("replayed chain does not link: {e:?}"))?;
    }

    // VANET and Algorithm 1: each block goes to the fleet as it stood when
    // the block went out. A sample of the vehicles it reaches replay their
    // receptions from the first to the last, and get served the back-fill
    // they ask for as a peer or the IM serves it. They share one memoizing
    // verifier as the fleet does.
    let verifier: Arc<dyn SignatureScheme> = Arc::new(CachingVerifier::new(Shared(key.clone())));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut met = HashSet::new();
    let mut guards: BTreeMap<u64, VehicleGuard> = BTreeMap::new();
    for cast in broadcasts {
        let Some(block) = chain.get(cast.index as usize) else {
            continue;
        };
        let mut medium: Medium<NwadeMessage> = Medium::new(cfg.medium.clone());
        medium.set_position(NodeId::Imu, Vec2::ZERO);
        for (id, p) in &cast.fleet {
            medium.set_position(NodeId::Vehicle(id.raw()), *p);
        }
        let message = NwadeMessage::Block(block.clone());
        let due = cast.at + cfg.medium.latency;
        let deliveries = t.call(
            "vanet.broadcast",
            || {
                medium.send(
                    NodeId::Imu,
                    Recipient::Broadcast,
                    nwade::messages::class::BLOCK,
                    message,
                    cast.at,
                    &mut rng,
                );
                medium.deliver_due(due)
            },
            |d| d.len() as u64,
        );
        out.receptions += deliveries.len() as u64;

        let in_world: HashSet<u64> = cast.fleet.iter().map(|(id, _)| id.raw()).collect();
        guards.retain(|id, _| in_world.contains(id));
        for d in deliveries.iter().filter(|d| !d.corrupted) {
            let NodeId::Vehicle(raw) = d.to else {
                continue;
            };
            let g = match guards.entry(raw) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    if !met.insert(raw) || (met.len() - 1) % GUARD_SAMPLE != 0 {
                        continue;
                    }
                    e.insert(VehicleGuard::new(
                        VehicleId::new(raw),
                        topo.clone(),
                        verifier.clone(),
                        cfg.nwade,
                    ))
                }
            };
            let cached = g.cache().current_plans().len() as u64;
            let actions = t.call("core.alg1", || g.on_block(block, d.at), |_| cached);
            for a in actions {
                if let GuardAction::RequestBlocks { from_index } = a {
                    let served: Vec<Block> = chain
                        .iter()
                        .skip(from_index as usize)
                        .take_while(|b| b.index() <= cast.index)
                        .take(cfg.nwade.block_backfill_limit)
                        .cloned()
                        .collect();
                    let n = served.len() as u64;
                    t.call(
                        "core.backfill",
                        || g.on_block_response(&served, d.at),
                        |_| n,
                    );
                }
            }
            if g.is_evacuating() {
                out.rejections += 1;
                guards.remove(&raw);
            }
        }
    }

    // Scheduler and IM window over the run's request batches, logging
    // to a primary WAL as the simulator does.
    let mut scheduler = ReservationScheduler::new(
        topo.clone(),
        SchedulerConfig {
            limits: cfg.limits,
            threads: nwade_sim::engine::resolve_threads(cfg.engine),
            ..SchedulerConfig::default()
        },
    );
    let mut manager = build_manager(cfg, &topo, &key);
    let primary = MemBackend::new();
    let (mut persist, _) = ImPersistence::attach(
        Box::new(primary.clone()),
        cfg.store.snapshot_every,
        &mut manager,
    )
    .map_err(|e| format!("attach: {e}"))?;
    for b in chain {
        let requests = requests_of(b);
        let now = b.timestamp();
        let n = requests.len() as u64;
        t.call("aim.schedule", || scheduler.schedule(&requests, now), |_| n);
        for a in b.anchors().iter().filter(|a| a.shard != FENCE_SHARD) {
            manager.note_neighbor_tip(a.shard, a.tip);
        }
        let logged = persist.window_start(now, &requests);
        let action = t.call(
            "core.window",
            || manager.on_window(&requests, now),
            |a| match a {
                Some(ManagerAction::BroadcastBlock(nb)) => nb.plans().len() as u64,
                _ => 0,
            },
        );
        let logged = logged.and_then(|()| match &action {
            Some(ManagerAction::BroadcastBlock(nb)) => persist
                .commit_block(nb, true)
                .and_then(|()| persist.broadcasted(nb.index())),
            _ => Ok(()),
        });
        logged
            .and_then(|()| persist.window_end(&manager).map(|_| ()))
            .map_err(|e| format!("primary WAL: {e}"))?;
    }

    // Store: the primary's records re-appended window by window; with a
    // standby, a follower and the standby tail the log as it grows.
    out.wal_bytes = primary.contents().len();
    let (_, log) = Wal::open(Box::new(primary.fork())).map_err(|e| format!("reopen: {e}"))?;
    let mut windows: Vec<Vec<Vec<u8>>> = Vec::new();
    for r in log.records {
        let starts = matches!(
            WalRecord::decode(&r),
            Some(WalRecord::WindowStart { .. } | WalRecord::EvacStart { .. })
        );
        match windows.last_mut() {
            Some(w) if !starts => w.push(r),
            _ => windows.push(vec![r]),
        }
    }
    let device = MemBackend::new();
    let (mut wal, _) = Wal::open(Box::new(device.clone())).map_err(|e| format!("open: {e}"))?;
    let mut follower = cfg
        .standby
        .enabled
        .then(|| Wal::follow(Box::new(device.clone())));
    let mut standby = cfg.standby.enabled.then(|| {
        StandbyManager::new(
            build_manager(cfg, &topo, &key),
            Wal::follow(Box::new(device.clone())),
            cfg.store.snapshot_every,
            StandbyPolicy {
                heartbeat_interval: cfg.standby.heartbeat_interval,
                miss_bound: cfg.standby.miss_bound,
                jitter: cfg.standby.jitter,
                salt: cfg.seed ^ 0x57A4_DB15,
            },
            0.0,
        )
    });
    for records in &windows {
        t.enter("store.append");
        for r in records {
            wal.append(r).map_err(|e| format!("append: {e}"))?;
        }
        wal.commit().map_err(|e| format!("commit: {e}"))?;
        t.exit(records.len() as u64);
        if let Some(f) = follower.as_mut() {
            t.enter("store.follow");
            let polled = f.pending().and_then(|_| f.poll());
            t.exit(polled.map_or(0, |p| p.len() as u64));
        }
        // The simulator runs this once per tick; between windows the log
        // does not grow, so one call per window has the same per-call cost.
        if let Some(s) = standby.as_mut() {
            let applied = s.records_applied();
            t.enter("core.standby_tick");
            let lag = s.lag_records().unwrap_or(0);
            let _ = s.poll();
            t.exit(lag);
            t.enter("core.standby_applied");
            t.exit(s.records_applied() - applied);
        }
    }
    Ok(out)
}

/// Neighbour pairs within sensing range, through the grid index.
fn grid_pass(t: &mut Tracer, radius: f64, fleet: &[Vec2]) {
    t.call(
        "geometry.grid",
        || {
            let mut grid = GridIndex::with_cell(radius);
            grid.rebuild(fleet);
            fleet
                .iter()
                .map(|p| grid.query(*p, radius).len().saturating_sub(1))
                .sum::<usize>()
        },
        |pairs| *pairs as u64,
    );
}

/// City tick time at one worker thread over two, from two identical
/// grids advanced in lock-step (alternating which ticks first).
fn shard_speedup(t: &mut Tracer, seed: u64) -> f64 {
    let mut one = CityGrid::new(workload::city_config(seed, 1));
    let mut two = CityGrid::new(workload::city_config(seed, 2));
    let warm = (Workload::City.warm_up() / one.config().base.dt).round() as u64;
    one.run_ticks(warm);
    two.run_ticks(warm);
    let (mut t1, mut t2) = (0.0, 0.0);
    for k in 0..SPEEDUP_TICKS {
        for first in [k % 2 == 0, k % 2 == 1] {
            let (grid, name, acc) = if first {
                (&mut one, "exec.city_tick_1", &mut t1)
            } else {
                (&mut two, "exec.city_tick_2", &mut t2)
            };
            let s = Instant::now();
            t.call(name, || grid.tick(), |_| 1);
            *acc += s.elapsed().as_secs_f64();
        }
    }
    t1 / t2
}

pub fn run(w: Workload, seed: u64) -> (bool, u64, u64, Vec<Metric>) {
    let mut tracer = Tracer::new();
    let mut problems = Vec::new();
    if let Err(e) = crate::checker::self_test() {
        problems.push(format!("checker self-test: {e}"));
    }
    let shards = if w == Workload::City { 4 } else { 1 };
    let mut rec = Recorder {
        tracer: &mut tracer,
        warm_up: w.warm_up(),
        broadcasts: (0..shards).map(|_| Vec::new()).collect(),
        fleets: Vec::new(),
        overhead_s: 0.0,
    };
    let mut round: Round = workload::run_round(w, workload::round_seed(seed, 0), &mut rec);
    let Recorder {
        broadcasts,
        fleets,
        overhead_s,
        ..
    } = rec;
    problems.append(&mut round.problems);

    let mut receptions = 0;
    let mut blocks = 0;
    let (mut block_bytes, mut wal_bytes_per_s) = (0, 0.0);
    for (i, cfg) in round.configs.iter().enumerate() {
        match replay_shard(&mut tracer, cfg, &round.chains[i], &broadcasts[i]) {
            Ok(r) => {
                eprintln!(
                    "shard {i}: {} block receptions replayed, {} Algorithm 1 rejections by \
                     replayed vehicles, {} WAL bytes",
                    r.receptions, r.rejections, r.wal_bytes
                );
                receptions += r.receptions;
                blocks += round.chains[i].len();
                block_bytes += r.block_bytes;
                wal_bytes_per_s += r.wal_bytes as f64 / cfg.duration / round.configs.len() as f64;
            }
            Err(e) => problems.push(format!("shard {i} replay: {e}")),
        }
    }
    for (radius, fleet) in &fleets {
        grid_pass(&mut tracer, *radius, fleet);
    }
    let speedup =
        (w == Workload::City).then(|| shard_speedup(&mut tracer, workload::round_seed(seed, 0)));
    if round.work.receptions > 0 && round.work.receptions != receptions {
        eprintln!(
            "note: {} block receptions in the run, {receptions} in the replay",
            round.work.receptions
        );
    }
    if receptions == 0 {
        problems.push("the replayed broadcasts reached no vehicle".into());
    }

    let layers = tracer.layers();
    let per_call_ms = |name: &str| layers.get(name).map_or(0.0, |l| 1e3 * l.1 / l.0 as f64);
    let work_per_call = |name: &str| layers.get(name).map_or(0.0, |l| l.2 as f64 / l.0 as f64);
    let standby_ratio = match (
        layers.get("core.standby_applied"),
        layers.get("core.standby_tick"),
    ) {
        (Some(a), Some(s)) if s.2 > 0 => a.2 as f64 / s.2 as f64,
        _ => 0.0,
    };
    let m = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        m("core.alg1_ms", "ms", per_call_ms("core.alg1")),
        m(
            "core.alg1_cached_plans",
            "plans/call",
            work_per_call("core.alg1"),
        ),
        m("core.block_receptions", "count", receptions as f64),
        m("core.window_ms", "ms", per_call_ms("core.window")),
        m(
            "core.window_plans",
            "plans/window",
            work_per_call("core.window"),
        ),
        m(
            "core.standby_tick_ms",
            "ms",
            per_call_ms("core.standby_tick"),
        ),
        m("core.standby_applied_per_scanned", "ratio", standby_ratio),
        m("aim.schedule_ms", "ms", per_call_ms("aim.schedule")),
        m("aim.requests", "count/batch", work_per_call("aim.schedule")),
        m("chain.package_ms", "ms", per_call_ms("chain.package")),
        m("chain.verify_ms", "ms", per_call_ms("chain.verify")),
        m(
            "chain.block_bytes",
            "bytes/block",
            block_bytes as f64 / blocks.max(1) as f64,
        ),
        m("crypto.sign_ms", "ms", per_call_ms("crypto.sign")),
        m("crypto.verify_ms", "ms", per_call_ms("crypto.verify")),
        m("crypto.merkle_ms", "ms", per_call_ms("crypto.merkle")),
        m("crypto.keygen_s", "s", per_call_ms("crypto.keygen") / 1e3),
        m("vanet.broadcast_ms", "ms", per_call_ms("vanet.broadcast")),
        m(
            "vanet.receivers",
            "count/block",
            work_per_call("vanet.broadcast"),
        ),
        m("sim.sense_ms", "ms", per_call_ms("sim.sense")),
        m(
            "sim.sense_observations",
            "count/pass",
            work_per_call("geometry.grid"),
        ),
        m("geometry.grid_ms", "ms", per_call_ms("geometry.grid")),
        m("store.append_ms", "ms", per_call_ms("store.append")),
        m("store.wal_bytes", "B/sim_s", wal_bytes_per_s),
        m("store.follow_ms", "ms", per_call_ms("store.follow")),
        m("exec.shard_speedup", "x", speedup.unwrap_or(0.0)),
        m(
            "intersection.build_ms",
            "ms",
            per_call_ms("intersection.build"),
        ),
        m("traffic.demand_ms", "ms", per_call_ms("traffic.demand")),
        m(
            "trace.tick_ms_per_sim_s",
            "ms/sim_s",
            1e3 * round.steady_host_s / round.steady_sim_s,
        ),
        m(
            "trace.host_ms_per_sim_s",
            "ms/sim_s",
            1e3 * (round.steady_host_s + overhead_s) / round.steady_sim_s,
        ),
    ];
    let path = std::path::Path::new(".bench_trace").join(format!("{}-{seed}.tsv", w.name()));
    if let Err(e) = tracer.write(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    (problems.is_empty(), round.attempted, round.failed, metrics)
}
