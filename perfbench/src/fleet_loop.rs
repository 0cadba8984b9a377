//! `fleet_loop`: the closed traffic loop.
//!
//! A 6-corridor chain `Network` (a fixed map with seeded traffic entering
//! every corridor) behind a `TraciServer`, a `CloudServer` coalescing for
//! 40 ms up to 64 waiters (the cosim test's settings), and a `FleetDriver`
//! replanning at most `nproc` vehicles per tick. One op is one
//! `FleetDriver::step`. The coalesce timer, the per-vehicle TraCI round
//! trips and the thread-per-replan wave dominate; DP work is small.
//!
//! The traced pass replicates `FleetDriver::step` here, from the same
//! public `TraciClient`/`CloudClient` calls with a span around each, and
//! its counters must equal the driver's exactly.

use crate::report::{nproc, timed_setup, Report, SETUP_REPS};
use crate::stats::{median, residual};
use crate::trace::Tracer;
use crate::twins;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use velopt_cloud::{CloudClient, CloudServer, ServerConfig, TripRequest};
use velopt_common::rng::SplitMix64;
use velopt_common::units::{Meters, Seconds, VehiclesPerHour};
use velopt_common::Result;
use velopt_core::dp::OptimizedProfile;
use velopt_cosim::{CosimConfig, FleetDriver, FleetStats};
use velopt_microsim::{CorridorSpec, Network, SimConfig};
use velopt_queue::QueueParams;
use velopt_road::{CorridorTemplate, Road};
use velopt_traci::{TraciClient, TraciServer};

/// Ticks per second of `--seconds` (see `trip_stream`). Each tick is 0.1
/// simulated seconds, and the simulated clock must stay well inside the
/// planner's 900 s horizon: `FleetDriver` departs each plan at the
/// absolute simulated time, and trips that cannot end by the horizon are
/// refused as infeasible. At 15 s a run ends near 590 simulated seconds.
const OPS_PER_SECOND: f64 = 300.0;
/// Seed of the chain's corridors.
const FLEET_MAP_SEED: u64 = 0x9E37_2026 ^ 0xF1EE;
/// Corridors in the chain.
const CORRIDORS: usize = 6;
/// Simulated seconds the network runs before the driver attaches, so the
/// chain carries traffic from the first tick.
const WARMUP_S: f64 = 120.0;
/// Vehicles entering each corridor of the chain per hour from outside it,
/// on top of the through traffic from upstream.
///
/// A run's cost follows its coalesce windows, one per corridor flip that
/// finds a vehicle to replan. Fed at the head alone (600 veh/h), the chain
/// thinned out downstream, since about a quarter of the vehicles turn off
/// at each light, so the tail corridors were often empty at a flip. How
/// many flips found a vehicle then depended on the seed, and `ops_per_s`
/// moved with it: 111 to 148 windows, 468 to 578 ticks/s over five seeds.
/// Fed everywhere, nearly every flip finds a vehicle. Each corridor carries
/// at most about 700 veh/h, below what a light green half the time
/// discharges, so queues (and the per-vehicle TraCI reads of every tick)
/// stay bounded over a run instead of growing through it.
const ARRIVALS_PER_HOUR: f64 = 300.0;
/// The untraced repeat run covers the first `1 / REPEAT_SHARE` of the
/// measured ticks.
const REPEAT_SHARE: usize = 4;
/// Steps the traced run times on a clone of the final network.
const TWIN_STEPS: usize = 2000;
/// `REQ_STATS` round trips timed after the traced pass.
const RTT_PROBES: usize = 200;
/// Driver ticks run during set-up.
const WARMUP_TICKS: usize = 200;
/// Idle time before the first set-up, outside every timing.
///
/// A tick is mostly thread wake-ups, and on a shared 2-vCPU VM they ran
/// slow for a while after another process had kept the CPUs busy: right
/// after a `route_query` or `trip_stream` run, a whole measured pass ran
/// at about 280 ticks/s against 360–410 otherwise. Idling first, even
/// for 5 s, brought the fast rate back.
const SETTLE: Duration = Duration::from_secs(5);

/// The driver's knobs: the defaults, with the wave capped at `nproc`.
fn cosim_config() -> CosimConfig {
    CosimConfig {
        max_replans_per_tick: nproc(),
        ..CosimConfig::default()
    }
}

/// Servers, the warmed network, and the driver (or its replica) attached
/// and run through the warm-up ticks.
struct Setup<L> {
    traci: TraciServer<Network>,
    cloud: CloudServer,
    fleet: L,
}

impl<L: Loop> Setup<L> {
    fn teardown(self) -> Result<()> {
        let Setup {
            mut traci,
            cloud,
            fleet,
        } = self;
        let closed = fleet.close();
        traci.shutdown();
        cloud.shutdown();
        closed
    }
}

fn setup<L: Loop>(
    seed: u64,
    attach: impl FnOnce(SocketAddr, SocketAddr, Vec<Road>) -> Result<L>,
) -> Result<Setup<L>> {
    // The map is fixed and the seed drives the traffic on it. The loop's
    // cost follows its replan storms, which follow the signals: with a
    // seeded map, a 15 s run sees too few light cycles for the storm rate
    // of one map to stand for another's. Light counts cycle 1..=4 and every
    // light runs 30 s red / 30 s green.
    let mut map = SplitMix64::new(FLEET_MAP_SEED);
    let roads = (0..CORRIDORS)
        .map(|i| {
            let lights = 1 + i % 4;
            CorridorTemplate {
                length: (600.0, 800.0),
                lights: (lights, lights),
                phase: (30.0, 30.0),
                stop_sign_probability: 0.0,
                limits_kmh: (50.0, 50.0),
                ..CorridorTemplate::default()
            }
            .generate(map.next_u64())
        })
        .collect::<Result<Vec<_>>>()?;
    let specs = roads
        .iter()
        .enumerate()
        .map(|(i, road)| {
            let mut spec = if i + 1 < CORRIDORS {
                CorridorSpec::through(road.clone(), i + 1)
            } else {
                CorridorSpec::terminal(road.clone())
            };
            spec.arrival_rate = VehiclesPerHour::new(ARRIVALS_PER_HOUR);
            spec.detectors = vec![Meters::new(25.0)];
            spec
        })
        .collect();
    let config = SimConfig {
        seed: SplitMix64::new(seed ^ 0xF1EE_75EED).next_u64(),
        ..SimConfig::default()
    };
    let mut net = Network::new(specs, 1, config)?;
    net.run_until(Seconds::new(WARMUP_S))?;
    let traci = TraciServer::spawn(net)?;
    let cloud = CloudServer::spawn_with(ServerConfig {
        compute_workers: nproc(),
        coalesce_window: Duration::from_millis(40),
        batch_max: 64,
        ..ServerConfig::default()
    })?;
    let mut fleet = attach(traci.addr(), cloud.addr(), roads)?;
    // The first ticks plan every vehicle already on the road: a start-up
    // burst, not the loop's steady state.
    for _ in 0..WARMUP_TICKS {
        fleet.tick()?;
    }
    Ok(Setup {
        traci,
        cloud,
        fleet,
    })
}

fn attach_driver(traci: SocketAddr, cloud: SocketAddr, roads: Vec<Road>) -> Result<FleetDriver> {
    FleetDriver::connect(traci, cloud, roads, cosim_config())
}

/// Server counters a pass moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CloudCounters {
    coalesce_hits: u64,
    coalesce_flights: u64,
    batch_flushes: u64,
    cache_hits: u64,
    connections: u64,
}

impl CloudCounters {
    fn of(cloud: &CloudServer) -> Self {
        let s = cloud.stats();
        Self {
            coalesce_hits: s.coalesce_hits(),
            coalesce_flights: s.coalesce_flights(),
            batch_flushes: s.batch_flushes(),
            cache_hits: s.cache_hits(),
            connections: s.connections(),
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            coalesce_hits: self.coalesce_hits - before.coalesce_hits,
            coalesce_flights: self.coalesce_flights - before.coalesce_flights,
            batch_flushes: self.batch_flushes - before.batch_flushes,
            cache_hits: self.cache_hits - before.cache_hits,
            connections: self.connections - before.connections,
        }
    }
}

/// Fleet counters moved between two snapshots.
fn fleet_since(after: FleetStats, before: FleetStats) -> FleetStats {
    FleetStats {
        ticks: after.ticks - before.ticks,
        flips: after.flips - before.flips,
        replans: after.replans - before.replans,
        plans_ok: after.plans_ok - before.plans_ok,
        plan_failures: after.plan_failures - before.plan_failures,
        commands: after.commands - before.commands,
    }
}

/// One pass of `n` ticks.
struct Pass {
    latencies: Vec<f64>,
    failed: u64,
    errors: Vec<String>,
    wall: f64,
    fleet: FleetStats,
    cloud: CloudCounters,
    /// Both counter sets after the first `checkpoint` ticks.
    at_checkpoint: (FleetStats, CloudCounters),
}

/// The driver or its traced replica: advances the loop one tick.
trait Loop {
    fn tick(&mut self) -> Result<()>;
    fn stats(&self) -> FleetStats;
    fn close(self) -> Result<()>;
}

impl Loop for FleetDriver {
    fn tick(&mut self) -> Result<()> {
        self.step()
    }
    fn stats(&self) -> FleetStats {
        FleetDriver::stats(self)
    }
    fn close(self) -> Result<()> {
        FleetDriver::close(self)
    }
}

/// Runs `n` ticks, snapshotting the counters after `checkpoint` of them.
fn drive<L: Loop>(s: &mut Setup<L>, n: usize, checkpoint: usize) -> Pass {
    let cloud_before = CloudCounters::of(&s.cloud);
    let fleet_before = s.fleet.stats();
    let snapshot = |s: &Setup<L>| {
        (
            fleet_since(s.fleet.stats(), fleet_before),
            CloudCounters::of(&s.cloud).since(cloud_before),
        )
    };
    let mut at_checkpoint = snapshot(s);
    let mut latencies = Vec::with_capacity(n);
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    for op in 0..n {
        if op == checkpoint {
            at_checkpoint = snapshot(s);
        }
        let failures_before = s.fleet.stats().plan_failures;
        let t0 = Instant::now();
        let outcome = s.fleet.tick();
        latencies.push(t0.elapsed().as_secs_f64());
        if let Err(e) = outcome {
            // The TraCI link is gone: every remaining tick fails too.
            errors.push(format!("tick {op}: {e}"));
            failed += (n - op) as u64;
            break;
        }
        if s.fleet.stats().plan_failures > failures_before {
            failed += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let (fleet, cloud) = snapshot(s);
    if checkpoint >= n {
        at_checkpoint = (fleet, cloud);
    }
    Pass {
        latencies,
        failed,
        errors,
        wall,
        fleet,
        cloud,
        at_checkpoint,
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report> {
    let n = (OPS_PER_SECOND * seconds).round().max(1.0) as usize;
    let mut report = Report::default();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);

    let checkpoint = n.div_ceil(REPEAT_SHARE);
    std::thread::sleep(SETTLE);
    let mut first = timed_setup(&mut setup_times, || setup(seed, attach_driver))?;
    let measured = drive(&mut first, n, checkpoint);
    first.teardown()?;
    report.ops(n as u64, measured.failed);
    for e in &measured.errors {
        report.note(format!("op failed: {e}"));
    }
    report.note(format!(
        "fleet {:?}, cloud {:?}",
        measured.fleet, measured.cloud
    ));

    // The second set-up repeats the run: its first quarter when untraced,
    // all of it through the traced replica otherwise. Its counters must
    // match the measured run's exactly.
    let (again, expected) = if traced {
        let mut second = timed_setup(&mut setup_times, || setup(seed, Replica::connect))?;
        second.fleet.start_trace();
        let sim_before = SimCounters::of(&second.traci.simulation().lock());
        let pass = drive(&mut second, n, n);
        layers(&mut report, &measured, &pass, &second, sim_before)?;
        second.teardown()?;
        report.ops(n as u64, pass.failed);
        (pass, (measured.fleet, measured.cloud))
    } else {
        let mut second = timed_setup(&mut setup_times, || setup(seed, attach_driver))?;
        let pass = drive(&mut second, checkpoint, checkpoint);
        second.teardown()?;
        (pass, measured.at_checkpoint)
    };
    let what = if traced {
        "traced replica"
    } else {
        "repeat run"
    };
    report.check(again.fleet == expected.0, 0, || {
        format!(
            "{what} fleet counters {:?} differ from {:?}",
            again.fleet, expected.0
        )
    });
    report.check(again.cloud == expected.1, 0, || {
        format!(
            "{what} cloud counters {:?} differ from {:?}",
            again.cloud, expected.1
        )
    });
    report.check(measured.fleet.plan_failures == 0, 0, || {
        format!("{} plans refused", measured.fleet.plan_failures)
    });
    report.note(format!("{what} repeated every fleet and coalesce counter"));
    while setup_times.len() < SETUP_REPS {
        timed_setup(&mut setup_times, || setup(seed, attach_driver))?.teardown()?;
    }
    report.end_to_end(&setup_times, &measured.latencies, measured.wall);
    Ok(report)
}

/// The microsim's own counters, read through the TraCI server's shared
/// handle on its `Network`.
#[derive(Debug, Clone, Copy)]
struct SimCounters {
    stepped: u64,
    handoffs: u64,
    simd_lanes: u64,
    scalar_lanes: u64,
    arena_grows: u64,
}

impl SimCounters {
    fn of(net: &Network) -> Self {
        let (stats, m) = (net.stats(), net.step_metrics());
        Self {
            stepped: stats.vehicles_stepped,
            handoffs: stats.handoffs,
            simd_lanes: m.simd_lanes,
            scalar_lanes: m.scalar_lanes,
            arena_grows: m.arena_grows,
        }
    }
}

fn layers(
    report: &mut Report,
    untraced: &Pass,
    pass: &Pass,
    s: &Setup<Replica>,
    sim_before: SimCounters,
) -> Result<()> {
    let replica = &s.fleet;
    let t = &replica.tracer;
    let ticks = pass.latencies.len();
    let step = t.samples_ms("traci.step");
    let read = t.samples_ms("traci.read");
    let wave = t.per_op_ms("cosim.wave");
    let flight = t.per_op_ms("cosim.flight");
    let solve = &replica.solve_ms;
    let command = t.per_op_ms("cosim.command");
    let coalesce_wait: Vec<f64> = flight
        .iter()
        .map(|(op, f)| residual(*f, &[solve.get(op).copied().unwrap_or(0.0)]))
        .collect();
    // Per tick, the wave and command time (zero on ticks without a wave).
    let tick_wave: Vec<f64> = (0..ticks)
        .map(|op| wave.get(&op).copied().unwrap_or(0.0) + command.get(&op).copied().unwrap_or(0.0))
        .collect();
    let p50 = median(&pass.latencies) * 1e3;
    let parts = [median(&step), median(&read), median(&tick_wave)];
    report.set("traci.step_ms", parts[0]);
    report.set("traci.read_ms", parts[1]);
    report.set(
        "traci.round_trips",
        replica.round_trips as f64 / ticks.max(1) as f64,
    );
    // Per wave, as means: most waves are answered from the plan cache in
    // well under a millisecond, so a median would hide the 40 ms windows.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    report.set(
        "cosim.wave_ms",
        mean(&wave.values().copied().collect::<Vec<_>>()),
    );
    report.set("cloud.coalesce_wait_ms", mean(&coalesce_wait));
    report.set(
        "cosim.command_ms",
        mean(&command.values().copied().collect::<Vec<_>>()),
    );
    report.set("cloud.coalesce_hits", pass.cloud.coalesce_hits as f64);
    report.set("cloud.coalesce_flights", pass.cloud.coalesce_flights as f64);
    report.set("cloud.batch_flushes", pass.cloud.batch_flushes as f64);
    report.set("cloud.cache_hits", pass.cloud.cache_hits as f64);
    report.set("cosim.replans", pass.fleet.replans as f64);
    report.set("cosim.connections", pass.cloud.connections as f64);
    report.set("trace.overhead_ms", p50 - median(&untraced.latencies) * 1e3);
    report.set("trace.residual_ms", p50 - parts.iter().sum::<f64>());
    report.note(format!(
        "traced tick p50 {p50:.3} ms = traci step {:.3} + reads {:.3} + wave and commands {:.3} \
         + residual {:.3}; {} waves",
        parts[0],
        parts[1],
        parts[2],
        p50 - parts.iter().sum::<f64>(),
        wave.len()
    ));

    // The served plans' own figures, and twins of the server's windows and
    // codec work on them.
    twins::report_dp(report, replica.served.iter().map(|(_, p)| &p.metrics));
    let mut windows = Vec::with_capacity(replica.served.len());
    let mut codec = Vec::with_capacity(replica.served.len());
    for (trip, profile) in &replica.served {
        windows.push(twins::windows_ms(trip)?);
        codec.push(twins::codec_ms(trip, profile)?);
    }
    if !windows.is_empty() {
        report.set("queue.windows_ms", median(&windows));
        report.set("protocol.codec_us", median(&codec) * 1e3);
    }
    // The reactor round trip, probed after the pass on its own connection.
    let mut client = CloudClient::connect(s.cloud.addr())?;
    let mut rtt = Vec::with_capacity(RTT_PROBES);
    for _ in 0..RTT_PROBES {
        let start = Instant::now();
        client.stats()?;
        rtt.push(start.elapsed().as_secs_f64() * 1e3);
    }
    report.set("cloud.rtt_ms", median(&rtt));

    // The microsim behind TraCI: its counters over the pass, and its step
    // time per vehicle from a clone of the final network stepped here.
    let (after, mut twin) = {
        let net = s.traci.simulation();
        let net = net.lock();
        (SimCounters::of(&net), net.clone())
    };
    let lanes =
        (after.simd_lanes - sim_before.simd_lanes) + (after.scalar_lanes - sim_before.scalar_lanes);
    report.set(
        "microsim.vehicles_stepped",
        (after.stepped - sim_before.stepped) as f64,
    );
    report.set(
        "microsim.handoffs",
        (after.handoffs - sim_before.handoffs) as f64,
    );
    report.set(
        "microsim.simd_lane_share",
        (after.simd_lanes - sim_before.simd_lanes) as f64 / lanes.max(1) as f64,
    );
    report.set(
        "microsim.arena_grows",
        (after.arena_grows - sim_before.arena_grows) as f64,
    );
    let stepped_before = twin.stats().vehicles_stepped;
    let start = Instant::now();
    for _ in 0..TWIN_STEPS {
        twin.step();
    }
    let ns = start.elapsed().as_secs_f64() * 1e9;
    let stepped = twin.stats().vehicles_stepped - stepped_before;
    report.set("microsim.ns_per_vehicle_step", ns / stepped.max(1) as f64);
    Ok(())
}

/// Per-corridor observation state, as `FleetDriver` keeps it.
struct Corridor {
    road: Road,
    signature: String,
    epoch: u64,
    epoch_time: f64,
    volume: u64,
}

/// One vehicle's planning connection, as `FleetDriver` keeps it.
struct Pilot {
    client: CloudClient,
    tenant: u32,
    planned: Option<(usize, u64)>,
}

/// `FleetDriver::step` rebuilt from the public TraCI and cloud clients,
/// with a span around every call.
struct Replica {
    traci: TraciClient,
    cloud_addr: SocketAddr,
    config: CosimConfig,
    corridors: Vec<Corridor>,
    pilots: HashMap<String, Pilot>,
    stats: FleetStats,
    tracer: Tracer,
    /// TraCI requests sent.
    round_trips: u64,
    /// Per wave (keyed by tick), the longest server-side solve among the
    /// plans it received, in ms.
    solve_ms: BTreeMap<usize, f64>,
    /// Every plan received, with the request it answered.
    served: Vec<(TripRequest, OptimizedProfile)>,
    /// Ticks run before tracing started; spans are keyed from there.
    base: u64,
}

impl Replica {
    fn connect(traci: SocketAddr, cloud_addr: SocketAddr, roads: Vec<Road>) -> Result<Self> {
        Ok(Self {
            traci: TraciClient::connect(traci)?,
            cloud_addr,
            config: cosim_config(),
            corridors: roads
                .into_iter()
                .map(|road| Corridor {
                    road,
                    signature: String::new(),
                    epoch: 0,
                    epoch_time: 0.0,
                    volume: 0,
                })
                .collect(),
            pilots: HashMap::new(),
            stats: FleetStats::default(),
            tracer: Tracer::new(Instant::now()),
            round_trips: 0,
            solve_ms: BTreeMap::new(),
            served: Vec::new(),
            base: 0,
        })
    }

    /// Drops what the warm-up ticks recorded; spans, round trips and solve
    /// times count from the next tick on.
    fn start_trace(&mut self) {
        self.tracer = Tracer::new(Instant::now());
        self.round_trips = 0;
        self.solve_ms.clear();
        self.served.clear();
        self.base = self.stats.ticks;
    }

    fn observe(&mut self, now: f64) -> Result<()> {
        for c in 0..self.corridors.len() {
            let lights = self.corridors[c].road.traffic_lights().len();
            let mut signature = String::new();
            for i in 0..lights {
                signature.push_str(&self.traci.traffic_light_state(&format!("tl{c}:{i}"))?);
            }
            let crossings = self.traci.induction_loop_count(&format!("loop{c}:0"))?;
            self.round_trips += lights as u64 + 1;
            let corridor = &mut self.corridors[c];
            corridor.volume += crossings.max(0) as u64;
            if corridor.signature != signature {
                if !corridor.signature.is_empty() {
                    corridor.epoch += 1;
                    corridor.epoch_time = now;
                    self.stats.flips += 1;
                }
                corridor.signature = signature;
            }
        }
        Ok(())
    }

    fn plan_wave(&mut self) -> Result<Vec<(String, usize)>> {
        let mut ids = self.traci.vehicle_ids()?;
        self.round_trips += 1;
        ids.sort();
        let live: HashSet<&String> = ids.iter().collect();
        self.pilots.retain(|id, _| live.contains(id));
        let mut wave = Vec::new();
        for id in ids {
            let (_, y) = self.traci.vehicle_position(&id)?;
            self.round_trips += 1;
            let corridor = y as usize;
            if corridor >= self.corridors.len() {
                continue;
            }
            let epoch = self.corridors[corridor].epoch;
            if self.pilots.get(&id).and_then(|p| p.planned) != Some((corridor, epoch)) {
                wave.push((id, corridor));
                if self.config.max_replans_per_tick > 0
                    && wave.len() >= self.config.max_replans_per_tick
                {
                    break;
                }
            }
        }
        Ok(wave)
    }

    fn corridor_request(&self, corridor: usize) -> TripRequest {
        let c = &self.corridors[corridor];
        let hours = c.epoch_time.max(1.0) / 3600.0;
        let quantum = self.config.rate_quantum.max(1.0);
        let rate = ((c.volume as f64 / hours) / quantum).round() * quantum;
        let rate = rate.clamp(quantum, 3600.0);
        TripRequest {
            road: c.road.clone(),
            departure: Seconds::new(c.epoch_time),
            rates: vec![VehiclesPerHour::new(rate); c.road.traffic_lights().len()],
            queue: QueueParams::us25_probe(),
            queue_aware: self.config.queue_aware,
        }
    }

    fn replan(&mut self, op: usize, wave: Vec<(String, usize)>) -> Result<()> {
        let wave_start = Instant::now();
        let requests: HashMap<usize, TripRequest> = wave
            .iter()
            .map(|(_, c)| *c)
            .collect::<HashSet<_>>()
            .into_iter()
            .map(|c| (c, self.corridor_request(c)))
            .collect();
        let mut flights = Vec::with_capacity(wave.len());
        for (id, corridor) in wave {
            let tenant = if self.config.tenant_per_corridor {
                corridor as u32
            } else {
                0
            };
            let pilot = match self.pilots.remove(&id) {
                Some(mut p) => {
                    if p.tenant != tenant {
                        p.client.hello(tenant)?;
                        p.tenant = tenant;
                    }
                    p
                }
                None => {
                    let mut client = CloudClient::connect(self.cloud_addr)?;
                    client.hello(tenant)?;
                    Pilot {
                        client,
                        tenant,
                        planned: None,
                    }
                }
            };
            flights.push((id, corridor, pilot));
        }
        self.stats.replans += flights.len() as u64;
        let flight_start = Instant::now();
        let results: Vec<(String, usize, Pilot, Result<OptimizedProfile>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = flights
                    .into_iter()
                    .map(|(id, corridor, mut pilot)| {
                        let request = &requests[&corridor];
                        scope.spawn(move || {
                            let outcome = pilot.client.request(request);
                            (id, corridor, pilot, outcome)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("replan thread panicked"))
                    .collect()
            });
        let wave_end = Instant::now();
        self.tracer.record("cosim.wave", op, wave_start, wave_end);
        self.tracer
            .record("cosim.flight", op, flight_start, wave_end);
        let solve_s = results
            .iter()
            .filter_map(|(_, _, _, r)| r.as_ref().ok())
            .map(|p| p.metrics.total_seconds())
            .fold(0.0, f64::max);
        self.solve_ms.insert(op, solve_s * 1e3);

        let command_start = Instant::now();
        for (id, corridor, mut pilot, outcome) in results {
            pilot.planned = Some((corridor, self.corridors[corridor].epoch));
            match outcome {
                Ok(profile) => {
                    self.stats.plans_ok += 1;
                    let (position, _) = self.traci.vehicle_position(&id)?;
                    let speed = speed_at(&profile, position).max(self.config.command_floor);
                    self.served.push((requests[&corridor].clone(), profile));
                    self.round_trips += 2;
                    if self.traci.set_vehicle_speed(&id, speed).is_ok() {
                        self.stats.commands += 1;
                    }
                }
                Err(_) => self.stats.plan_failures += 1,
            }
            self.pilots.insert(id, pilot);
        }
        self.tracer
            .record("cosim.command", op, command_start, Instant::now());
        Ok(())
    }
}

impl Loop for Replica {
    fn tick(&mut self) -> Result<()> {
        let op = (self.stats.ticks - self.base) as usize;
        let start = Instant::now();
        self.traci.simulation_step(0.0)?;
        self.stats.ticks += 1;
        let now = self.traci.simulation_time()?;
        self.round_trips += 2;
        let read_start = Instant::now();
        self.tracer.record("traci.step", op, start, read_start);
        self.observe(now)?;
        let wave = self.plan_wave()?;
        self.tracer
            .record("traci.read", op, read_start, Instant::now());
        if !wave.is_empty() {
            self.replan(op, wave)?;
        }
        Ok(())
    }

    fn stats(&self) -> FleetStats {
        self.stats
    }

    fn close(mut self) -> Result<()> {
        self.pilots.clear();
        self.traci.close()
    }
}

/// The planned speed at `position`, as `FleetDriver` reads it: the speed
/// of the last station at or before it.
fn speed_at(profile: &OptimizedProfile, position: f64) -> f64 {
    let mut speed = profile.speeds.first().map_or(0.0, |s| s.value());
    for (station, s) in profile.stations.iter().zip(&profile.speeds) {
        if station.value() <= position {
            speed = s.value();
        } else {
            break;
        }
    }
    speed
}
