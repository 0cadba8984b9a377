//! `trip_stream`: the paper's pipeline over the wire.
//!
//! A closed loop of `nproc` connections against a `CloudServer` with
//! `nproc` compute workers and coalescing off. One op is a
//! `REQ_PREDICT_BATCH` for the corridor's lights followed by a `REQ_TRIP`
//! whose arrival rates are those forecasts. Every request is distinct (its
//! departure is drawn fresh), so the plan cache never hits: the DP, the QL
//! windows and the predictor do the work.

use crate::report::{nproc, timed_setup, Report, SETUP_REPS};
use crate::stats::{median, residual};
use crate::trace::Tracer;
use crate::twins;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use velopt_cloud::{
    CloudClient, CloudServer, PredictBatchRequest, PredictQuery, ServerConfig, TripRequest,
};
use velopt_common::rng::SplitMix64;
use velopt_common::units::{Seconds, VehiclesPerHour};
use velopt_common::{Error, Result};
use velopt_core::dp::OptimizedProfile;
use velopt_queue::QueueParams;
use velopt_road::{CorridorTemplate, Road};
use velopt_traffic::{VolumeGenerator, HOURS_PER_WEEK};

/// Ops per second of `--seconds`: the op count is fixed by the run length,
/// never by how fast the ops go. At 15 s a run makes 990 ops, just under
/// the 1000 at which the tail would move from p95 (49 samples beyond it)
/// to p99 (10 beyond it).
const OPS_PER_SECOND: f64 = 66.0;
/// Distinct corridors the ops cycle through.
const CORRIDORS: usize = 64;
/// Seed of those corridors.
const CORRIDORS_SEED: u64 = 0x9E37_2026 ^ 0x7121;
/// Lag window of each forecast query (hours).
const LAGS: usize = 12;
/// Weeks of the station's feed the server trains its predictor on.
const TRAIN_WEEKS: u32 = 2;
/// One op in this many is re-solved in process and compared bit for bit.
const CHECK_EVERY: u64 = 8;
/// Distinct ops each load connection sends during set-up, so the measured
/// ops meet warm threads and a warm allocator.
const WARMUP_PER_CONNECTION: usize = 4;

/// One op's inputs.
struct OpInput {
    corridor: usize,
    departure: f64,
    predict: PredictBatchRequest,
}

/// The seeded inputs: corridors, and per op the departure and the
/// forecast queries for each of its corridor's lights. The warm-up ops are
/// drawn from the same stream ahead of the measured ones.
struct Inputs {
    roads: Vec<Road>,
    warmup: Vec<OpInput>,
    ops: Vec<OpInput>,
}

impl Inputs {
    fn generate(seed: u64, n_ops: usize) -> Result<Self> {
        // The corridors are fixed and the seed draws the traffic on them:
        // departures and the detector histories the forecasts start from.
        // With seeded corridors the mean DP work per op moved by 10–15%
        // from seed to seed. Lengths are stratified over 1.5–3 km and light
        // counts cycle 2, 3, 4.
        let mut map = SplitMix64::new(CORRIDORS_SEED);
        let mut rng = SplitMix64::new(seed ^ 0x7121_5EED);
        let span = (3000.0 - 1500.0) / CORRIDORS as f64;
        let roads = (0..CORRIDORS)
            .map(|i| {
                let lo = 1500.0 + span * i as f64;
                let lights = 2 + i % 3;
                CorridorTemplate {
                    length: (lo, lo + span),
                    lights: (lights, lights),
                    ..CorridorTemplate::default()
                }
                .generate(map.next_u64())
            })
            .collect::<Result<Vec<_>>>()?;
        let station_seed = rng.next_u64() >> 16;
        // Histories come from the week after the training weeks, at
        // daytime hours, so every forecast is a plausible positive rate.
        let feed =
            VolumeGenerator::us25_station(station_seed).generate_weeks(TRAIN_WEEKS as usize + 1)?;
        let held_out = TRAIN_WEEKS as usize * HOURS_PER_WEEK;
        let warmup = WARMUP_PER_CONNECTION * nproc();
        let mut ops: Vec<OpInput> = (0..warmup + n_ops)
            .map(|i| {
                let corridor = i % CORRIDORS;
                let lights = roads[corridor].traffic_lights().len();
                let queries = (0..lights)
                    .map(|_| {
                        let day = (rng.next_u64() % 7) as usize;
                        let hour = 7 + (rng.next_u64() % 13) as usize;
                        let h = held_out + day * 24 + hour;
                        PredictQuery {
                            history: feed.samples()[h - LAGS..h].to_vec(),
                            hour_index: h as u64,
                        }
                    })
                    .collect();
                OpInput {
                    corridor,
                    departure: rng.uniform(0.0, 240.0),
                    predict: PredictBatchRequest {
                        station_seed,
                        train_weeks: TRAIN_WEEKS,
                        horizons: 1,
                        queries,
                    },
                }
            })
            .collect();
        let measured = ops.split_off(warmup);
        Ok(Self {
            roads,
            warmup: ops,
            ops: measured,
        })
    }

    fn trip(&self, op: &OpInput, rates: Vec<VehiclesPerHour>) -> TripRequest {
        TripRequest {
            road: self.roads[op.corridor].clone(),
            departure: Seconds::new(op.departure),
            rates,
            queue: QueueParams::us25_probe(),
            queue_aware: true,
        }
    }
}

/// A spawned server with its inputs, its predictor already trained.
struct Setup {
    server: CloudServer,
    inputs: Inputs,
}

fn setup(seed: u64, n_ops: usize) -> Result<Setup> {
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: nproc(),
        ..ServerConfig::default()
    })?;
    let inputs = Inputs::generate(seed, n_ops)?;
    // Warm-up: the first forecast trains the station's SAE predictor, then
    // every connection sends a few distinct ops of its own.
    CloudClient::connect(server.addr())?.predict_batch(&inputs.warmup[0].predict)?;
    let warm = drive(&server, &inputs, &inputs.warmup, false)?;
    if let Some(e) = warm.errors.first() {
        return Err(Error::protocol(format!("warm-up {e}")));
    }
    Ok(Setup { server, inputs })
}

/// What one op produced.
struct Served {
    latency: f64,
    rates: Vec<VehiclesPerHour>,
    profile: OptimizedProfile,
}

/// One measured pass over every op.
struct Pass {
    served: Vec<Option<Served>>,
    errors: Vec<String>,
    wall: f64,
    tracer: Tracer,
    cache_hits: u64,
}

fn one_op(
    client: &mut CloudClient,
    inputs: &Inputs,
    input: &OpInput,
    op: usize,
    tracer: Option<&mut Tracer>,
) -> Result<Served> {
    let start = Instant::now();
    let volumes = client.predict_batch(&input.predict)?;
    let forecast_end = Instant::now();
    let rates = volumes
        .iter()
        .map(|v| v.first().copied().map(VehiclesPerHour::new))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| Error::protocol("empty forecast"))?;
    let trip = inputs.trip(input, rates.clone());
    let trip_start = Instant::now();
    let profile = client.request(&trip)?;
    let end = Instant::now();
    if let Some(t) = tracer {
        t.record("traffic.predict", op, start, forecast_end);
        t.record("cloud.trip", op, trip_start, end);
        t.span("cloud.rtt", op, || client.stats())?;
    }
    Ok(Served {
        latency: end.duration_since(start).as_secs_f64(),
        rates,
        profile,
    })
}

/// Sends `ops` in a closed loop over `nproc` connections.
fn drive(server: &CloudServer, inputs: &Inputs, ops: &[OpInput], traced: bool) -> Result<Pass> {
    let n = ops.len();
    let hits_before = server.stats().cache_hits();
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let clients = (0..nproc())
        .map(|_| CloudClient::connect(server.addr()))
        .collect::<Result<Vec<_>>>()?;
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch);
                    let mut out = Vec::new();
                    loop {
                        let op = next.fetch_add(1, Ordering::Relaxed);
                        if op >= n {
                            break;
                        }
                        let t = traced.then_some(&mut tracer);
                        out.push((op, one_op(&mut client, inputs, &ops[op], op, t)));
                    }
                    (out, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut pass = Pass {
        served: (0..n).map(|_| None).collect(),
        errors: Vec::new(),
        wall,
        tracer: Tracer::new(epoch),
        cache_hits: server.stats().cache_hits() - hits_before,
    };
    for (ops, tracer) in results {
        pass.tracer.merge(tracer);
        for (op, outcome) in ops {
            match outcome {
                Ok(served) => pass.served[op] = Some(served),
                Err(e) => pass.errors.push(format!("op {op}: {e}")),
            }
        }
    }
    Ok(pass)
}

/// Whether op `op` of a seed's run is in the twin-checked sample.
fn sampled(seed: u64, op: usize) -> bool {
    let mut rng = SplitMix64::new(seed ^ 0xC4EC ^ (op as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64().is_multiple_of(CHECK_EVERY)
}

/// Re-solves the sampled ops in process, the way the server does, on
/// `nproc` threads. Returns the ops whose served plan differs.
fn twin_check(seed: u64, inputs: &Inputs, pass: &Pass) -> Result<(usize, Vec<usize>)> {
    let sample: Vec<usize> = (0..pass.served.len())
        .filter(|&op| sampled(seed, op) && pass.served[op].is_some())
        .collect();
    let chunk = sample.len().div_ceil(nproc()).max(1);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = sample
            .chunks(chunk)
            .map(|ops| {
                scope.spawn(move || -> Result<Vec<usize>> {
                    let mut bad = Vec::new();
                    for &op in ops {
                        let served = pass.served[op].as_ref().expect("sampled ops were served");
                        let trip = inputs.trip(&inputs.ops[op], served.rates.clone());
                        if !twins::same_plan(&twins::solve(&trip)?, &served.profile) {
                            bad.push(op);
                        }
                    }
                    Ok(bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("twin thread panicked"))
            .collect::<Result<Vec<_>>>()
    })?;
    Ok((sample.len(), results.into_iter().flatten().collect()))
}

/// Mean net charge per served plan, in mAh, summed in op order.
fn plan_energy_mah(pass: &Pass) -> f64 {
    let energies: Vec<f64> = pass
        .served
        .iter()
        .flatten()
        .map(|s| s.profile.total_energy.value() * 1e3)
        .collect();
    energies.iter().sum::<f64>() / energies.len().max(1) as f64
}

/// Counts failures of one pass and checks its cache bypass and its
/// sampled plans against the twin.
fn check_pass(report: &mut Report, seed: u64, s: &Setup, pass: &Pass) -> Result<()> {
    let n = pass.served.len() as u64;
    report.ops(n, pass.errors.len() as u64);
    for e in pass.errors.iter().take(5) {
        report.note(format!("op failed: {e}"));
    }
    report.check(pass.cache_hits == 0, pass.cache_hits, || {
        format!("{} plan-cache hits on distinct trips", pass.cache_hits)
    });
    let (checked, bad) = twin_check(seed, &s.inputs, pass)?;
    report.check(bad.is_empty(), bad.len() as u64, || {
        format!("served plans differ from the twin solve on ops {bad:?}")
    });
    report.note(format!(
        "{checked} of {n} plans bit-identical to a twin in-process solve"
    ));
    Ok(())
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report> {
    let n_ops = (OPS_PER_SECOND * seconds).round().max(1.0) as usize;
    let mut report = Report::default();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);

    let first = timed_setup(&mut setup_times, || setup(seed, n_ops))?;
    let untraced = drive(&first.server, &first.inputs, &first.inputs.ops, false)?;
    check_pass(&mut report, seed, &first, &untraced)?;
    first.server.shutdown();
    let energy = plan_energy_mah(&untraced);
    report.note(format!(
        "plan_energy_mah {energy:?} mAh (mean net charge per served plan, lower is better)"
    ));

    if traced {
        let second = timed_setup(&mut setup_times, || setup(seed, n_ops))?;
        let pass = drive(&second.server, &second.inputs, &second.inputs.ops, true)?;
        check_pass(&mut report, seed, &second, &pass)?;
        let same = untraced
            .served
            .iter()
            .zip(&pass.served)
            .all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => twins::same_plan(&a.profile, &b.profile),
                _ => false,
            });
        report.check(same, 0, || "traced pass served different plans".into());
        layers(&mut report, &second.inputs, &untraced, &pass)?;
        second.server.shutdown();
    }
    while setup_times.len() < SETUP_REPS {
        timed_setup(&mut setup_times, || setup(seed, n_ops))?
            .server
            .shutdown();
    }
    let latencies: Vec<f64> = untraced
        .served
        .iter()
        .flatten()
        .map(|s| s.latency)
        .collect();
    report.end_to_end(&setup_times, &latencies, untraced.wall);
    Ok(report)
}

/// Per-layer figures from the traced pass, with twin windows and codec
/// calls timed on the same inputs after the pass.
fn layers(report: &mut Report, inputs: &Inputs, untraced: &Pass, pass: &Pass) -> Result<()> {
    let predict = pass.tracer.per_op_ms("traffic.predict");
    let mut ops_ms = Vec::new();
    let mut windows_ms = Vec::new();
    let mut codec_ms = Vec::new();
    let mut dp_ms = Vec::new();
    let mut wait_ms = Vec::new();
    for (op, served) in pass.served.iter().enumerate() {
        let Some(served) = served else { continue };
        let trip = inputs.trip(&inputs.ops[op], served.rates.clone());
        let windows = twins::windows_ms(&trip)?;
        let codec = twins::codec_ms(&trip, &served.profile)?;
        let dp = served.profile.metrics.total_seconds() * 1e3;
        let op_ms = served.latency * 1e3;
        let forecast = predict.get(&op).copied().unwrap_or(0.0);
        wait_ms.push(residual(op_ms, &[forecast, windows, dp, codec]));
        ops_ms.push(op_ms);
        windows_ms.push(windows);
        codec_ms.push(codec);
        dp_ms.push(dp);
    }
    let predict_ms: Vec<f64> = predict.into_values().collect();
    let p50 = median(&ops_ms);
    let untraced_p50 = median(
        &untraced
            .served
            .iter()
            .flatten()
            .map(|s| s.latency * 1e3)
            .collect::<Vec<_>>(),
    );
    let parts = [
        median(&predict_ms),
        median(&windows_ms),
        median(&dp_ms),
        median(&codec_ms),
        median(&wait_ms),
    ];
    twins::report_dp(
        report,
        pass.served.iter().flatten().map(|s| &s.profile.metrics),
    );
    report.set("queue.windows_ms", parts[1]);
    report.set("traffic.predict_ms", parts[0]);
    report.set("protocol.codec_us", parts[3] * 1e3);
    report.set("cloud.rtt_ms", median(&pass.tracer.samples_ms("cloud.rtt")));
    report.set("cloud.wait_ms", parts[4]);
    report.set("cloud.cache_hits", pass.cache_hits as f64);
    report.set("trace.overhead_ms", p50 - untraced_p50);
    report.set("trace.residual_ms", p50 - parts.iter().sum::<f64>());
    report.note(format!(
        "traced op_p50 {p50:.3} ms = predict {:.3} + windows {:.3} + dp {:.3} + codec {:.3} \
         + wait {:.3} + residual {:.3}",
        parts[0],
        parts[1],
        parts[2],
        parts[3],
        parts[4],
        p50 - parts.iter().sum::<f64>()
    ));
    Ok(())
}
