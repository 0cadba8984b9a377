//! In-process twins of the server's per-trip work, for checks and for the
//! per-layer figures the server does not report.

use crate::report::Report;
use crate::stats::median;
use bytes::BytesMut;
use std::time::Instant;
use velopt_cloud::protocol::{decode_profile, encode_profile};
use velopt_cloud::TripRequest;
use velopt_common::units::MetersPerSecond;
use velopt_common::Result;
use velopt_core::dp::{DpConfig, DpOptimizer, OptimizedProfile, StartState};
use velopt_core::metrics::SolverMetrics;
use velopt_core::windows::queue_aware_constraints;
use velopt_ev_energy::{EnergyModel, RegenPolicy, VehicleParams};

/// The optimizer the server plans with: a fresh one per trip, and the one
/// its shared router wraps.
pub fn server_optimizer() -> Result<DpOptimizer> {
    let energy = EnergyModel::with_regen(
        VehicleParams::spark_ev(),
        RegenPolicy::Limited {
            efficiency: 0.6,
            cutoff: MetersPerSecond::new(1.5),
        },
    );
    DpOptimizer::new(energy, DpConfig::default())
}

/// Plans `trip` in process exactly as the server's `REQ_TRIP` handler does.
pub fn solve(trip: &TripRequest) -> Result<OptimizedProfile> {
    trip.validated()?;
    let optimizer = server_optimizer()?;
    let constraints = queue_aware_constraints(
        &trip.road,
        &trip.rates,
        trip.queue,
        optimizer.config().horizon,
    )?;
    optimizer.optimize_from(
        &trip.road,
        &constraints,
        StartState {
            time: trip.departure,
            ..StartState::default()
        },
    )
}

/// Bit-level plan identity: energy, trip time, stations, speeds, times.
pub fn same_plan(a: &OptimizedProfile, b: &OptimizedProfile) -> bool {
    fn bits<T>(xs: &[T], value: impl Fn(&T) -> f64) -> Vec<u64> {
        xs.iter().map(|x| value(x).to_bits()).collect()
    }
    a.total_energy.value().to_bits() == b.total_energy.value().to_bits()
        && a.trip_time.value().to_bits() == b.trip_time.value().to_bits()
        && a.window_violations == b.window_violations
        && bits(&a.stations, |x| x.value()) == bits(&b.stations, |x| x.value())
        && bits(&a.speeds, |x| x.value()) == bits(&b.speeds, |x| x.value())
        && bits(&a.times, |x| x.value()) == bits(&b.times, |x| x.value())
}

/// Milliseconds the server's QL window step takes for `trip`.
pub fn windows_ms(trip: &TripRequest) -> Result<f64> {
    let start = Instant::now();
    let constraints = queue_aware_constraints(
        &trip.road,
        &trip.rates,
        trip.queue,
        DpConfig::default().horizon,
    )?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(constraints);
    Ok(ms)
}

/// Milliseconds to encode and decode `trip` and its served `profile`: the
/// codec work on both ends of one `REQ_TRIP`.
pub fn codec_ms(trip: &TripRequest, profile: &OptimizedProfile) -> Result<f64> {
    let start = Instant::now();
    let mut payload = trip.encode();
    std::hint::black_box(TripRequest::decode(&mut payload)?);
    let mut buf = BytesMut::new();
    encode_profile(profile, &mut buf);
    std::hint::black_box(decode_profile(&mut buf.freeze())?);
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

/// Records the `dp.*` figures of served profiles: phase-time medians, and
/// per-solve means of the work counters.
pub fn report_dp<'a>(report: &mut Report, solves: impl Iterator<Item = &'a SolverMetrics>) {
    let (mut setup, mut solve) = (Vec::new(), Vec::new());
    let (mut expanded, mut evals, mut hits, mut lookups) = (0u64, 0u64, 0u64, 0u64);
    for m in solves {
        setup.push(m.setup_seconds * 1e3);
        solve.push((m.relax_seconds + m.backtrack_seconds) * 1e3);
        expanded += m.states_expanded;
        evals += m.energy_evals;
        hits += m.memo_hits;
        lookups += m.memo_hits + m.memo_misses;
    }
    if setup.is_empty() {
        return;
    }
    let n = setup.len() as f64;
    report.set("dp.setup_ms", median(&setup));
    report.set("dp.solve_ms", median(&solve));
    report.set("dp.states_expanded", expanded as f64 / n);
    report.set("dp.energy_evals", evals as f64 / n);
    report.set("dp.memo_hit_rate", hits as f64 / lookups.max(1) as f64);
}
