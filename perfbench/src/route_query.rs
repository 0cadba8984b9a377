//! `route_query`: energy-optimal routing over the wire.
//!
//! `REQ_ROUTE` in a closed loop on one connection: the server's shared
//! router sits behind one mutex, so a second client would only queue. The
//! graph is `route_plan_64`'s 8×8 grid and every query is a distinct
//! seeded (origin, dest, departure) triple, so the route-frame cache never
//! hits: A*, the certified bounds and the edge-plan memo over the DP oracle
//! do the work.

use crate::report::{nproc, timed_setup, Report, SETUP_REPS};
use crate::stats::{median, residual};
use crate::trace::Tracer;
use crate::twins;
use std::collections::HashSet;
use std::time::Instant;
use velopt_cloud::{CloudClient, CloudServer, RouteNetRequest, RouteNetResponse, ServerConfig};
use velopt_common::rng::SplitMix64;
use velopt_common::units::Seconds;
use velopt_common::Result;
use velopt_core::route::{RouteConfig, RouteQuery, Router};
use velopt_road::{CorridorTemplate, NetworkTemplate, RoadGraph};

/// Ops per second of `--seconds` (see `trip_stream`).
const OPS_PER_SECOND: f64 = 66.0;
/// Queries routed during set-up, disjoint from the measured ones.
const WARMUP_QUERIES: usize = 32;
/// Departures are drawn from `[0, DEPART_SPAN)` seconds: wide enough that
/// most (corridor class, departure second) keys are new, so a query's cost
/// is its own oracle calls rather than what earlier queries left in the
/// memo.
const DEPART_SPAN: f64 = 3600.0;
/// The untraced run's twin replays the first `1 / REPLAY_SHARE` of the
/// measured queries; the traced run's replays all of them, timing each.
const REPLAY_SHARE: usize = 4;
/// Grid (Manhattan) distances of the queries, in junction hops.
const MIN_HOPS: usize = 2;
const MAX_HOPS: usize = 12;
/// `route_plan_64`'s graph seed (`BENCH_SEED ^ 0x207E`).
const ROUTE_PLAN_GRAPH_SEED: u64 = 0x9E37_2026 ^ 0x207E;

/// The grid the `route_plan_64` bench scenario routes over.
fn template() -> NetworkTemplate {
    NetworkTemplate {
        rows: 8,
        cols: 8,
        corridor: CorridorTemplate {
            length: (200.0, 400.0),
            lights: (0, 1),
            phase: (15.0, 25.0),
            stop_sign_probability: 0.3,
            max_grade_percent: 0.0,
            limits_kmh: (30.0, 50.0),
        },
        corridor_pool: 4,
    }
}

/// The graph and the seeded distinct queries over it: the warm-up prefix
/// first, then the measured ones.
struct Inputs {
    graph: RoadGraph,
    queries: Vec<RouteQuery>,
}

impl Inputs {
    fn generate(seed: u64, n_ops: usize) -> Result<Self> {
        let t = template();
        // The map is the `route_plan_64` scenario's graph; the seed draws
        // the trips over it. A seeded map would change the corridor pool's
        // four classes, and with them the cost of every oracle call.
        let graph = t.generate(ROUTE_PLAN_GRAPH_SEED)?;
        let mut rng = SplitMix64::new(seed ^ 0x207E_5EED);
        let mut seen = HashSet::new();
        let mut queries = Vec::with_capacity(WARMUP_QUERIES + n_ops);
        while queries.len() < WARMUP_QUERIES + n_ops {
            // Grid distances cycle through a fixed range, so every seed
            // asks for the same mix of short and long routes.
            let hops = MIN_HOPS + queries.len() % (MAX_HOPS - MIN_HOPS + 1);
            let (r, c) = (
                rng.next_u64() as usize % t.rows,
                rng.next_u64() as usize % t.cols,
            );
            let dests: Vec<(usize, usize)> = (0..t.rows)
                .flat_map(|r2| (0..t.cols).map(move |c2| (r2, c2)))
                .filter(|&(r2, c2)| r.abs_diff(r2) + c.abs_diff(c2) == hops)
                .collect();
            if dests.is_empty() {
                continue;
            }
            let (r2, c2) = dests[rng.next_u64() as usize % dests.len()];
            let (origin, dest) = (t.node_at(r, c), t.node_at(r2, c2));
            let depart = rng.uniform(0.0, DEPART_SPAN);
            if seen.insert((origin, dest, depart.to_bits())) {
                queries.push(RouteQuery {
                    origin,
                    dest,
                    depart: Seconds::new(depart),
                });
            }
        }
        Ok(Self { graph, queries })
    }

    fn request(&self, q: &RouteQuery) -> RouteNetRequest {
        RouteNetRequest::from_graph(&self.graph, q.origin, q.dest, q.depart)
    }

    fn measured(&self) -> &[RouteQuery] {
        &self.queries[WARMUP_QUERIES..]
    }
}

struct Setup {
    server: CloudServer,
    client: CloudClient,
    inputs: Inputs,
}

fn setup(seed: u64, n_ops: usize) -> Result<Setup> {
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: nproc(),
        ..ServerConfig::default()
    })?;
    let inputs = Inputs::generate(seed, n_ops)?;
    let mut client = CloudClient::connect(server.addr())?;
    for q in &inputs.queries[..WARMUP_QUERIES] {
        client.route(&inputs.request(q))?;
    }
    Ok(Setup {
        server,
        client,
        inputs,
    })
}

/// One measured pass over the measured queries.
struct Pass {
    responses: Vec<Option<RouteNetResponse>>,
    latencies: Vec<f64>,
    errors: Vec<String>,
    wall: f64,
    tracer: Tracer,
    cache_hits: u64,
    oracle_calls: u64,
    memo_hits: u64,
    edges_pruned: u64,
}

fn drive(s: &mut Setup, traced: bool) -> Result<Pass> {
    let stats = s.server.stats();
    let hits_before = stats.cache_hits() + stats.route_cache_hits();
    let search_before = stats.route_search();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let queries = s.inputs.measured();
    let mut responses = Vec::with_capacity(queries.len());
    let mut latencies = Vec::with_capacity(queries.len());
    let mut errors = Vec::new();
    let start = Instant::now();
    for (op, q) in queries.iter().enumerate() {
        let t0 = Instant::now();
        let outcome = s.client.route(&s.inputs.request(q));
        let t1 = Instant::now();
        match outcome {
            Ok(r) => {
                latencies.push(t1.duration_since(t0).as_secs_f64());
                responses.push(Some(r));
            }
            Err(e) => {
                errors.push(format!("query {op}: {e}"));
                responses.push(None);
            }
        }
        if traced {
            tracer.record("cloud.route", op, t0, t1);
            tracer.span("cloud.rtt", op, || s.client.stats())?;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let search = stats.route_search();
    Ok(Pass {
        responses,
        latencies,
        errors,
        wall,
        tracer,
        cache_hits: stats.cache_hits() + stats.route_cache_hits() - hits_before,
        oracle_calls: search.oracle_calls - search_before.oracle_calls,
        memo_hits: search.plan_memo_hits - search_before.plan_memo_hits,
        edges_pruned: search.edges_pruned - search_before.edges_pruned,
    })
}

/// A router built the way the server builds its shared one.
fn server_router() -> Result<Router> {
    Router::new(twins::server_optimizer()?, RouteConfig::default())
}

/// Bit-level response identity.
fn same_response(a: &RouteNetResponse, b: &RouteNetResponse) -> bool {
    let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    a.edges == b.edges
        && a.cost.to_bits() == b.cost.to_bits()
        && a.total_energy.value().to_bits() == b.total_energy.value().to_bits()
        && a.depart.value().to_bits() == b.depart.value().to_bits()
        && a.arrival.value().to_bits() == b.arrival.value().to_bits()
        && a.window_violations == b.window_violations
        && bits(a.stations.iter().map(|x| x.value()).collect())
            == bits(b.stations.iter().map(|x| x.value()).collect())
        && bits(a.speeds.iter().map(|x| x.value()).collect())
            == bits(b.speeds.iter().map(|x| x.value()).collect())
        && bits(a.times.iter().map(|x| x.value()).collect())
            == bits(b.times.iter().map(|x| x.value()).collect())
}

/// Replays the query sequence, warm-up included, on an in-process router
/// up to the first `count` measured queries. Returns the measured ops whose
/// response differs and each replayed query's plan time in ms.
fn twin_check(inputs: &Inputs, pass: &Pass, count: usize) -> Result<(Vec<usize>, Vec<f64>)> {
    let mut router = server_router()?;
    for q in &inputs.queries[..WARMUP_QUERIES] {
        router.plan(&inputs.graph, *q)?;
    }
    let mut bad = Vec::new();
    let mut plan_ms = Vec::with_capacity(pass.responses.len());
    for (op, q) in inputs.measured().iter().enumerate().take(count) {
        let start = Instant::now();
        let plan = router.plan(&inputs.graph, *q);
        plan_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match (plan, &pass.responses[op]) {
            (Ok(plan), Some(served)) => {
                if !same_response(&RouteNetResponse::from_plan(&plan), served) {
                    bad.push(op);
                }
            }
            (Err(_), None) => {}
            _ => bad.push(op),
        }
    }
    Ok((bad, plan_ms))
}

/// Checks one pass against a twin replay of its first `count` queries;
/// returns the twin's per-query plan times.
fn check_pass(report: &mut Report, inputs: &Inputs, pass: &Pass, count: usize) -> Result<Vec<f64>> {
    let n = pass.responses.len() as u64;
    report.ops(n, pass.errors.len() as u64);
    for e in pass.errors.iter().take(5) {
        report.note(format!("op failed: {e}"));
    }
    report.check(pass.cache_hits == 0, pass.cache_hits, || {
        format!("{} cache hits on distinct queries", pass.cache_hits)
    });
    let (bad, plan_ms) = twin_check(inputs, pass, count)?;
    report.check(bad.is_empty(), bad.len() as u64, || {
        format!("served routes differ from the twin Router::plan on ops {bad:?}")
    });
    report.note(format!(
        "{} of the first {} routes bit-identical to a twin Router::plan over the same sequence",
        plan_ms.len() - bad.len(),
        plan_ms.len()
    ));
    Ok(plan_ms)
}

fn plan_energy_mah(pass: &Pass) -> f64 {
    let energies: Vec<f64> = pass
        .responses
        .iter()
        .flatten()
        .map(|r| r.total_energy.value() * 1e3)
        .collect();
    energies.iter().sum::<f64>() / energies.len().max(1) as f64
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report> {
    let n_ops = (OPS_PER_SECOND * seconds).round().max(1.0) as usize;
    let mut report = Report::default();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);

    let mut first = timed_setup(&mut setup_times, || setup(seed, n_ops))?;
    let untraced = drive(&mut first, false)?;
    first.server.shutdown();
    check_pass(
        &mut report,
        &first.inputs,
        &untraced,
        n_ops.div_ceil(REPLAY_SHARE),
    )?;
    report.note(format!(
        "plan_energy_mah {:?} mAh (mean net charge per served route, lower is better)",
        plan_energy_mah(&untraced)
    ));
    report.note(format!(
        "per query: {:.2} oracle calls, {:.2} memo hits, {:.2} edges pruned",
        untraced.oracle_calls as f64 / n_ops as f64,
        untraced.memo_hits as f64 / n_ops as f64,
        untraced.edges_pruned as f64 / n_ops as f64
    ));

    if traced {
        let mut second = timed_setup(&mut setup_times, || setup(seed, n_ops))?;
        let pass = drive(&mut second, true)?;
        second.server.shutdown();
        let plan_ms = check_pass(&mut report, &second.inputs, &pass, n_ops)?;
        let same = untraced
            .responses
            .iter()
            .zip(&pass.responses)
            .all(|(a, b)| matches!((a, b), (Some(a), Some(b)) if same_response(a, b)));
        report.check(same, 0, || "traced pass served different routes".into());
        report.check(
            (pass.oracle_calls, pass.memo_hits) == (untraced.oracle_calls, untraced.memo_hits),
            0,
            || "route search counters differ between passes".into(),
        );
        layers(&mut report, &second.inputs, &untraced, &pass, &plan_ms)?;
    }
    while setup_times.len() < SETUP_REPS {
        timed_setup(&mut setup_times, || setup(seed, n_ops))?
            .server
            .shutdown();
    }
    report.end_to_end(&setup_times, &untraced.latencies, untraced.wall);
    Ok(report)
}

fn layers(
    report: &mut Report,
    inputs: &Inputs,
    untraced: &Pass,
    pass: &Pass,
    plan_ms: &[f64],
) -> Result<()> {
    let route_ms = pass.tracer.per_op_ms("cloud.route");
    let mut decode_ms = Vec::new();
    let mut codec_ms = Vec::new();
    let mut request_kb = Vec::new();
    let mut wait_ms = Vec::new();
    for (op, q) in inputs.measured().iter().enumerate() {
        let request = inputs.request(q);
        let start = Instant::now();
        let payload = request.encode();
        let mut codec = start.elapsed().as_secs_f64() * 1e3;
        request_kb.push(payload.len() as f64 / 1024.0);

        let start = Instant::now();
        let decoded = RouteNetRequest::decode(&mut payload.clone())?;
        std::hint::black_box(decoded.to_graph()?);
        let decode = start.elapsed().as_secs_f64() * 1e3;
        decode_ms.push(decode);

        let (Some(response), Some(&op_ms)) = (&pass.responses[op], route_ms.get(&op)) else {
            continue;
        };
        let start = Instant::now();
        std::hint::black_box(RouteNetResponse::decode(&mut response.encode())?);
        codec += start.elapsed().as_secs_f64() * 1e3;
        codec_ms.push(codec);
        wait_ms.push(residual(op_ms, &[plan_ms[op], decode, codec]));
    }
    let n = pass.responses.len().max(1) as f64;
    let ops_ms: Vec<f64> = route_ms.into_values().collect();
    let p50 = median(&ops_ms);
    let untraced_p50 = median(&untraced.latencies) * 1e3;
    let parts = [
        median(plan_ms),
        median(&decode_ms),
        median(&codec_ms),
        median(&wait_ms),
    ];
    report.set("route.plan_ms", parts[0]);
    report.set("route.decode_ms", parts[1]);
    report.set("route.request_kb", request_kb.iter().sum::<f64>() / n);
    report.set("route.oracle_calls", pass.oracle_calls as f64 / n);
    report.set("route.memo_hits", pass.memo_hits as f64 / n);
    report.set("route.edges_pruned", pass.edges_pruned as f64 / n);
    report.set("cloud.rtt_ms", median(&pass.tracer.samples_ms("cloud.rtt")));
    report.set("protocol.codec_us", parts[2] * 1e3);
    report.set("cloud.wait_ms", parts[3]);
    report.set("cloud.cache_hits", pass.cache_hits as f64);
    report.set("trace.overhead_ms", p50 - untraced_p50);
    report.set("trace.residual_ms", p50 - parts.iter().sum::<f64>());
    report.note(format!(
        "traced op_p50 {p50:.3} ms = plan {:.3} + decode {:.3} + codec {:.3} + wait {:.3} \
         + residual {:.3}",
        parts[0],
        parts[1],
        parts[2],
        parts[3],
        p50 - parts.iter().sum::<f64>()
    ));
    Ok(())
}
