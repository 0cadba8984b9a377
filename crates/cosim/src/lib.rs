//! **Fleet co-simulation**: every microsim EV replans through the cloud.
//!
//! The paper plans one EV's velocity profile against predicted queue
//! dynamics; the serving tier exists so *every* vehicle can do that at
//! once. This crate closes the loop between the two halves the repo
//! already has — the multi-corridor [`Network`](velopt_microsim::Network)
//! behind a [`TraciServer`](velopt_traci::TraciServer), and the sharded
//! [`CloudServer`](velopt_cloud::CloudServer) — with a [`FleetDriver`]
//! that, each tick:
//!
//! 1. **reads** signal phases (`tl<c>:<i>`) and loop-detector counts
//!    (`loop<c>:0`) over the TraCI protocol, and vehicle positions from a
//!    TraCI variable subscription delivered with the step (one round trip
//!    per vehicle when it first appears, not one per vehicle per tick),
//! 2. **replans** every vehicle whose corridor's `T_q` windows shifted —
//!    a phase flip restarts the queue clock, so all of that corridor's
//!    vehicles re-request at once (the correlated storm the cloud's
//!    coalescing layer exists for); each vehicle is its own
//!    [`CloudClient`] connection, greeted with
//!    the corridor index as its tenant id, and the wave is issued
//!    concurrently so identical requests are in flight together. Every
//!    request of a tick carries one wave tag (`REQ_TRIP_WAVE`), so a
//!    coalescing cloud flushes as soon as the whole wave has arrived
//!    instead of waiting out its window,
//! 3. **feeds back** each returned profile as a TraCI speed command for
//!    the vehicle's current position.
//!
//! Everything the driver does is a pure function of the seeded
//! simulation's state plus the (deterministic) plan responses, so fleet
//! counters — flips seen, replans issued, commands applied — are exactly
//! pinnable under a lockstep harness.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};
use velopt_cloud::{CloudClient, TripRequest, WaveTag};
use velopt_common::rng::SplitMix64;
use velopt_common::units::{Seconds, VehiclesPerHour};
use velopt_common::Result;
use velopt_core::dp::OptimizedProfile;
use velopt_queue::QueueParams;
use velopt_road::Road;
use velopt_traci::protocol::ids::VAR_POSITION;
use velopt_traci::{TraciClient, TraciValue};

/// Tuning knobs for the [`FleetDriver`].
#[derive(Debug, Clone)]
pub struct CosimConfig {
    /// Plan with the paper's queue-aware arrival windows (`true`, the
    /// default) or the green-only baseline.
    pub queue_aware: bool,
    /// Greet each vehicle's cloud connection with its corridor index as
    /// the tenant id, so per-tenant admission and stats buckets see the
    /// fleet as one tenant per corridor. `false` leaves every connection
    /// on the anonymous tenant 0.
    pub tenant_per_corridor: bool,
    /// Cap on replans issued per tick (`0` = unlimited). The cap is
    /// applied in sorted vehicle-id order, so it is deterministic.
    pub max_replans_per_tick: usize,
    /// Floor on commanded speeds in m/s: a plan whose local speed is
    /// below this commands the floor instead, so a vehicle is never
    /// ordered to park on the through lane.
    pub command_floor: f64,
    /// Granularity (vehicles/hour) the estimated arrival rates are
    /// rounded to before they enter a plan request. Coarser buckets keep
    /// the request key stable across ticks, which is what makes the
    /// cloud's plan cache and single-flight dedupe effective.
    pub rate_quantum: f64,
}

impl Default for CosimConfig {
    fn default() -> Self {
        Self {
            queue_aware: true,
            tenant_per_corridor: true,
            max_replans_per_tick: 0,
            command_floor: 1.0,
            rate_quantum: 100.0,
        }
    }
}

/// Lockstep counters describing what the driver has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Ticks driven.
    pub ticks: u64,
    /// Signal-phase flips observed across all corridors (each one shifts
    /// that corridor's `T_q` windows and triggers a replan storm).
    pub flips: u64,
    /// Plan requests issued to the cloud.
    pub replans: u64,
    /// Replans answered with a profile.
    pub plans_ok: u64,
    /// Replans the cloud refused (admission limits, invalid trips).
    pub plan_failures: u64,
    /// Speed commands applied over TraCI.
    pub commands: u64,
}

/// Per-corridor observation state.
struct Corridor {
    road: Road,
    /// Concatenated phase states of every light, as last observed.
    signature: String,
    /// Bumped on every signature change; vehicles replan when their
    /// planned epoch falls behind.
    epoch: u64,
    /// Sim time of the last flip — the shared departure time of the
    /// epoch's replan wave (identical departures are what coalesce).
    epoch_time: f64,
    /// Cumulative entrance-loop crossings, for the arrival-rate estimate.
    volume: u64,
}

/// One vehicle's planning connection plus what it last planned against.
struct Pilot {
    client: CloudClient,
    tenant: u32,
    /// `(corridor, epoch)` of the last successful (or failed) plan; the
    /// vehicle replans when its corridor moves past this.
    planned: Option<(usize, u64)>,
}

/// The fleet driver: one TraCI connection to the network simulation, one
/// cloud connection per vehicle.
pub struct FleetDriver {
    traci: TraciClient,
    cloud_addr: SocketAddr,
    config: CosimConfig,
    corridors: Vec<Corridor>,
    pilots: HashMap<String, Pilot>,
    stats: FleetStats,
    /// Base of this driver's wave ids (`nonce ^ tick`).
    nonce: u64,
    /// Vehicles with a live TraCI position subscription.
    subscribed: HashSet<String>,
    /// This tick's `(position, corridor)` per vehicle, as delivered with
    /// the step (or read directly on a vehicle's first tick).
    positions: HashMap<String, (f64, f64)>,
}

/// A wave-id base no other driver on the same cloud is likely to share:
/// the time, the process id and a per-process driver count, mixed. Wave
/// ids only steer when the cloud flushes, never what it answers.
fn driver_nonce() -> u64 {
    static DRIVERS: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let seed =
        nanos ^ (u64::from(std::process::id()) << 32) ^ DRIVERS.fetch_add(1, Ordering::Relaxed);
    SplitMix64::new(seed).next_u64()
}

impl FleetDriver {
    /// Connects to a TraCI server fronting a `Network` whose corridor
    /// roads are `roads` (in corridor order), and to the cloud at
    /// `cloud_addr`.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Io`] if the TraCI connection
    /// cannot be established.
    pub fn connect(
        traci_addr: SocketAddr,
        cloud_addr: SocketAddr,
        roads: Vec<Road>,
        config: CosimConfig,
    ) -> Result<Self> {
        let traci = TraciClient::connect(traci_addr)?;
        let corridors = roads
            .into_iter()
            .map(|road| Corridor {
                road,
                signature: String::new(),
                epoch: 0,
                epoch_time: 0.0,
                volume: 0,
            })
            .collect();
        Ok(Self {
            traci,
            cloud_addr,
            config,
            corridors,
            pilots: HashMap::new(),
            stats: FleetStats::default(),
            nonce: driver_nonce(),
            subscribed: HashSet::new(),
            positions: HashMap::new(),
        })
    }

    /// Counters so far.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Advances the simulation one step and closes the loop: observe,
    /// replan shifted corridors, command the fleet.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the TraCI link fails. Per-vehicle
    /// plan refusals are *not* errors; they count in
    /// [`FleetStats::plan_failures`].
    pub fn step(&mut self) -> Result<()> {
        let delivered = self.traci.simulation_step_collect(0.0)?;
        self.positions.clear();
        for result in delivered {
            if let Some(&TraciValue::Position2D(x, y)) = result.value_of(VAR_POSITION) {
                self.positions.insert(result.object, (x, y));
            }
        }
        self.stats.ticks += 1;
        let now = self.traci.simulation_time()?;
        self.observe(now)?;
        let wave = self.plan_wave()?;
        self.replan(wave, now)?;
        Ok(())
    }

    /// Runs `n` lockstep ticks.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Self::step`] error.
    pub fn run(&mut self, n: usize) -> Result<()> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Reads every corridor's signal phases and entrance-loop count,
    /// bumping the replan epoch of corridors whose phase state flipped.
    fn observe(&mut self, now: f64) -> Result<()> {
        for c in 0..self.corridors.len() {
            let lights = self.corridors[c].road.traffic_lights().len();
            let mut signature = String::new();
            for i in 0..lights {
                signature.push_str(&self.traci.traffic_light_state(&format!("tl{c}:{i}"))?);
            }
            let crossings = self.traci.induction_loop_count(&format!("loop{c}:0"))?;
            let corridor = &mut self.corridors[c];
            corridor.volume += crossings.max(0) as u64;
            if corridor.signature != signature {
                if !corridor.signature.is_empty() {
                    corridor.epoch += 1;
                    corridor.epoch_time = now;
                    self.stats.flips += 1;
                    telemetry::add("cosim.flips", 1);
                }
                corridor.signature = signature;
            }
        }
        Ok(())
    }

    /// Collects the vehicles whose corridor epoch moved past their last
    /// plan, in sorted-id order (deterministic, and stable under the
    /// `max_replans_per_tick` cap).
    fn plan_wave(&mut self) -> Result<Vec<(String, usize)>> {
        let mut ids = self.traci.vehicle_ids()?;
        ids.sort();
        // Vehicles that left the network take their connection and their
        // position subscription with them.
        let live: HashSet<&String> = ids.iter().collect();
        self.pilots.retain(|id, _| live.contains(id));
        let gone: Vec<String> = self
            .subscribed
            .iter()
            .filter(|id| !live.contains(id))
            .cloned()
            .collect();
        for id in gone {
            self.traci.subscribe_vehicle(&id, &[], 0.0, f64::MAX)?;
            self.subscribed.remove(&id);
        }

        let mut wave = Vec::new();
        for id in ids {
            let (_, y) = self.position(&id)?;
            let corridor = y as usize;
            if corridor >= self.corridors.len() {
                continue;
            }
            let epoch = self.corridors[corridor].epoch;
            let planned = self.pilots.get(&id).and_then(|p| p.planned);
            if planned != Some((corridor, epoch)) {
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

    /// `vehicle`'s `(position, corridor)` this tick: from the step's
    /// subscription results, or, on the vehicle's first tick, read directly
    /// and subscribed for the ticks after.
    fn position(&mut self, vehicle: &str) -> Result<(f64, f64)> {
        if let Some(&p) = self.positions.get(vehicle) {
            return Ok(p);
        }
        let p = self.traci.vehicle_position(vehicle)?;
        self.traci
            .subscribe_vehicle(vehicle, &[VAR_POSITION], 0.0, f64::MAX)?;
        self.subscribed.insert(vehicle.to_string());
        self.positions.insert(vehicle.to_string(), p);
        Ok(p)
    }

    /// The corridor's current plan request: shared by every vehicle of
    /// the epoch, so identical requests coalesce server-side.
    fn corridor_request(&self, corridor: usize) -> TripRequest {
        let c = &self.corridors[corridor];
        let hours = (c.epoch_time.max(1.0)) / 3600.0;
        let quantum = self.config.rate_quantum.max(1.0);
        let rate = ((c.volume as f64 / hours) / quantum).round() * quantum;
        let rate = rate.clamp(quantum, 3600.0);
        let lights = c.road.traffic_lights().len();
        TripRequest {
            road: c.road.clone(),
            departure: Seconds::new(c.epoch_time),
            rates: vec![VehiclesPerHour::new(rate); lights],
            queue: QueueParams::us25_probe(),
            queue_aware: self.config.queue_aware,
        }
    }

    /// Issues the wave's plan requests concurrently (one thread per
    /// vehicle, each on its own connection — the storm the coalescer
    /// sees), all under one wave tag, and feeds the profiles back as speed
    /// commands.
    fn replan(&mut self, wave: Vec<(String, usize)>, _now: f64) -> Result<()> {
        if wave.is_empty() {
            return Ok(());
        }
        // Per-corridor requests are built once and shared byte-for-byte.
        let requests: HashMap<usize, TripRequest> = wave
            .iter()
            .map(|(_, c)| *c)
            .collect::<HashSet<_>>()
            .into_iter()
            .map(|c| (c, self.corridor_request(c)))
            .collect();

        // Detach each planning connection (opening it on first use) so the
        // scoped threads own them mutably without aliasing the map.
        let mut flights: Vec<(String, usize, Pilot)> = Vec::with_capacity(wave.len());
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
        telemetry::add("cosim.replans", flights.len() as u64);
        let tag = WaveTag {
            id: self.nonce ^ self.stats.ticks,
            size: flights.len() as u32,
        };
        let results: Vec<(String, usize, Pilot, Result<OptimizedProfile>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = flights
                    .into_iter()
                    .map(|(id, corridor, mut pilot)| {
                        let request = &requests[&corridor];
                        scope.spawn(move || {
                            let outcome = pilot.client.request_in_wave(request, tag);
                            (id, corridor, pilot, outcome)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("replan thread panicked"))
                    .collect()
            });

        for (id, corridor, mut pilot, outcome) in results {
            // Failed plans still advance the epoch marker: a refused
            // tenant retries on the *next* window shift, not every tick.
            pilot.planned = Some((corridor, self.corridors[corridor].epoch));
            match outcome {
                Ok(profile) => {
                    self.stats.plans_ok += 1;
                    let (position, _) = self.position(&id)?;
                    let speed = Self::speed_at(&profile, position).max(self.config.command_floor);
                    // The vehicle may have exited between listing and now;
                    // a failed command is not an error, just not counted.
                    if self.traci.set_vehicle_speed(&id, speed).is_ok() {
                        self.stats.commands += 1;
                        telemetry::add("cosim.commands", 1);
                    }
                }
                Err(_) => {
                    self.stats.plan_failures += 1;
                    telemetry::add("cosim.plan_failures", 1);
                }
            }
            self.pilots.insert(id, pilot);
        }
        Ok(())
    }

    /// Ends the TraCI session (`CMD_CLOSE`, letting the simulation server
    /// tear down) and drops every planning connection.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Io`] if the close handshake fails.
    pub fn close(mut self) -> Result<()> {
        self.pilots.clear();
        self.traci.close()
    }

    /// The planned speed at `position`: the profile speed of the last
    /// station at or before it (the last station's speed past the end).
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
}

impl std::fmt::Debug for FleetDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetDriver")
            .field("cloud_addr", &self.cloud_addr)
            .field("corridors", &self.corridors.len())
            .field("pilots", &self.pilots.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velopt_cloud::{CloudServer, ServerConfig};
    use velopt_common::units::MetersPerSecond;
    use velopt_microsim::{CorridorSpec, Network, SimConfig};
    use velopt_road::CorridorTemplate;
    use velopt_traci::TraciServer;

    fn small_net(corridors: usize, seed: u64) -> (Network, Vec<Road>) {
        let template = CorridorTemplate {
            length: (600.0, 800.0),
            ..CorridorTemplate::default()
        };
        let roads: Vec<Road> = (0..corridors)
            .map(|i| template.generate(seed + i as u64).unwrap())
            .collect();
        let specs: Vec<CorridorSpec> = roads
            .iter()
            .enumerate()
            .map(|(i, road)| {
                let mut spec = if i + 1 < corridors {
                    CorridorSpec::through(road.clone(), i + 1)
                } else {
                    CorridorSpec::terminal(road.clone())
                };
                if i == 0 {
                    spec.arrival_rate = velopt_common::units::VehiclesPerHour::new(1200.0);
                }
                spec.detectors = vec![velopt_common::units::Meters::new(25.0)];
                spec
            })
            .collect();
        let net = Network::new(specs, 1, SimConfig::default()).unwrap();
        (net, roads)
    }

    /// The full closed loop: seeded network → TraCI → cloud (coalescing
    /// on) → speed commands, with deterministic fleet counters across two
    /// identical runs.
    #[test]
    fn closed_loop_replans_and_commands_deterministically() {
        let run = || {
            let (mut net, roads) = small_net(2, 77);
            net.spawn_ego(0, MetersPerSecond::new(10.0)).unwrap();
            let traci = TraciServer::spawn(net).unwrap();
            let cloud = CloudServer::spawn_with(ServerConfig {
                compute_workers: 2,
                coalesce_window: std::time::Duration::from_millis(40),
                batch_max: 64,
                ..ServerConfig::default()
            })
            .unwrap();
            let mut driver = FleetDriver::connect(
                traci.addr(),
                cloud.addr(),
                roads,
                CosimConfig {
                    max_replans_per_tick: 8,
                    ..CosimConfig::default()
                },
            )
            .unwrap();
            driver.run(40).unwrap();
            let stats = driver.stats();
            let coalesced = (
                cloud.stats().coalesce_hits(),
                cloud.stats().coalesce_flights(),
            );
            let causes = cloud.stats().flush_causes();
            driver.close().unwrap();
            cloud.shutdown();
            traci.join();
            (stats, coalesced, causes)
        };
        let (a, a_coalesce, a_causes) = run();
        let (b, b_coalesce, b_causes) = run();
        assert_eq!(a, b, "fleet counters must be lockstep-deterministic");
        assert!(a.ticks == 40);
        assert!(a.flips > 0, "signals must have flipped within 40 s");
        assert!(a.replans > 0, "flips must have triggered replans");
        assert_eq!(a.plan_failures, 0, "no admission limits configured");
        assert_eq!(a.plans_ok, a.replans);
        assert!(a.commands > 0, "profiles must come back as commands");
        // Identical corridor-mates share a request key: the server must
        // have observed at least one coalesced (or cached) duplicate
        // rather than solving per vehicle.
        assert!(
            a_coalesce.1 > 0,
            "coalescer never flushed a flight: {a_coalesce:?}"
        );
        assert_eq!(a_coalesce, b_coalesce, "server counters must repeat");
        // Every window closed on its completed wave (or on the count), never
        // on the 40 ms timer.
        assert_eq!(a_causes.deadline, 0, "{a_causes:?}");
        assert!(a_causes.wave > 0, "{a_causes:?}");
        assert_eq!(a_causes, b_causes, "flush causes must repeat");
    }

    /// A tenant ceiling refuses part of a storm without failing the
    /// driver; refusals land in `plan_failures`.
    #[test]
    fn admission_limit_refusals_are_counted_not_fatal() {
        let (mut net, roads) = small_net(1, 33);
        net.spawn_ego(0, MetersPerSecond::new(10.0)).unwrap();
        let traci = TraciServer::spawn(net).unwrap();
        let cloud = CloudServer::spawn_with(ServerConfig {
            compute_workers: 1,
            coalesce_window: std::time::Duration::from_millis(200),
            batch_max: 1024,
            tenant_max_inflight: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut driver =
            FleetDriver::connect(traci.addr(), cloud.addr(), roads, CosimConfig::default())
                .unwrap();
        driver.run(30).unwrap();
        let stats = driver.stats();
        assert!(stats.replans > 0);
        assert_eq!(stats.plans_ok + stats.plan_failures, stats.replans);
        if stats.plan_failures > 0 {
            assert!(cloud.stats().tenant_rejected(0) > 0);
        }
        driver.close().unwrap();
        cloud.shutdown();
        traci.join();
    }
}
