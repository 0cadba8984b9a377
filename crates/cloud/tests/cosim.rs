//! Co-simulation serving tests: the request-coalescing layer under the
//! correlated load the fleet driver produces — single-flight dedupe of a
//! replan storm, batch flushes on count, on timeout and on a completed
//! replan wave, per-tenant admission fairness, tenant stats attribution,
//! and bit-identity of coalesced plans against uncoalesced serving.
//!
//! This file is the `cargo test -p velopt-cloud --test cosim` CI gate.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use velopt_cloud::protocol::{
    decode_hello, decode_profile, encode_hello, read_frame, tags, write_frame, TripRequest,
};
use velopt_cloud::{CloudClient, CloudServer, FlushCauses, ServerConfig, WaveTag};

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
}

/// Sends one frame without waiting for the response.
fn send(stream: &mut TcpStream, tag: u8, payload: &[u8]) {
    let mut out = Vec::new();
    write_frame(&mut out, tag, payload).unwrap();
    stream.write_all(&out).unwrap();
}

/// Reads the next response frame.
fn recv(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let (tag, payload) = read_frame(stream).unwrap().expect("connection open");
    (tag, payload.to_vec())
}

/// Sends one frame and waits for its response.
fn round_trip(stream: &mut TcpStream, tag: u8, payload: &[u8]) -> (u8, Vec<u8>) {
    send(stream, tag, payload);
    recv(stream)
}

/// Opens a raw connection greeted as `tenant`.
fn connect_as(addr: SocketAddr, tenant: u32) -> TcpStream {
    let mut stream = connect(addr);
    let (tag, payload) = round_trip(&mut stream, tags::REQ_HELLO, &encode_hello(tenant));
    assert_eq!(tag, tags::RESP_HELLO);
    assert_eq!(decode_hello(&payload).unwrap(), tenant);
    stream
}

/// A replan storm: N vehicles upload the *same* trip in the same window.
/// Exactly one DP solve runs; every client receives bit-identical frames;
/// the coalesce counters are exact (not merely bounded).
#[test]
fn identical_storm_is_single_flighted() {
    const VEHICLES: usize = 8;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        coalesce_window: Duration::from_secs(30),
        batch_max: VEHICLES,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let trip = TripRequest::us25_at(90.0).encode();

    let barrier = Arc::new(Barrier::new(VEHICLES));
    let frames: Vec<(u8, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..VEHICLES)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let trip = trip.clone();
                scope.spawn(move || {
                    let mut stream = connect(addr);
                    barrier.wait();
                    round_trip(&mut stream, tags::REQ_TRIP, &trip)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (tag, payload) in &frames {
        assert_eq!(*tag, tags::RESP_PROFILE);
        assert_eq!(
            payload, &frames[0].1,
            "coalesced waiters must share one encoding"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.served(), VEHICLES as u64);
    assert_eq!(stats.coalesce_hits(), VEHICLES as u64 - 1);
    assert_eq!(stats.coalesce_flights(), 1);
    assert_eq!(stats.batch_flushes(), 1);
    // Dedupe is not the cache: nothing was answered from a prior plan.
    assert_eq!(stats.cache_hits(), 0);
    // The one solve that ran reports its relax-kernel dispatch mix: every
    // row went through exactly one kernel flavor, whichever the host
    // selected, so the combined row count is positive.
    let (simd_rows, scalar_rows) = stats.dp_simd_rows();
    assert!(
        simd_rows + scalar_rows > 0,
        "a fresh solve must report its kernel dispatch mix"
    );
    // Stateless per-request serving never engages warm-start repair.
    assert_eq!(stats.dp_repair(), (0, 0));
    server.shutdown();
}

/// Reaching `batch_max` waiters flushes immediately — distinct trips in
/// one window become one `optimize_batch` call, long before the (here
/// deliberately enormous) collection window would expire.
#[test]
fn distinct_requests_batch_flush_on_count() {
    const TRIPS: usize = 3;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        coalesce_window: Duration::from_secs(600),
        batch_max: TRIPS,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let start = Instant::now();
    let barrier = Arc::new(Barrier::new(TRIPS));
    let payloads: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TRIPS)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let trip = TripRequest::us25_at(i as f64 * 60.0).encode();
                    let mut stream = connect(addr);
                    barrier.wait();
                    let (tag, payload) = round_trip(&mut stream, tags::REQ_TRIP, &trip);
                    assert_eq!(tag, tags::RESP_PROFILE);
                    payload
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "count-triggered flush must not wait out the window"
    );
    assert_ne!(payloads[0], payloads[1], "distinct trips, distinct plans");

    let stats = server.stats();
    assert_eq!(stats.coalesce_flights(), TRIPS as u64);
    assert_eq!(stats.coalesce_hits(), 0);
    assert_eq!(stats.batch_flushes(), 1);
    server.shutdown();
}

/// A window that never fills still flushes when `coalesce_window`
/// elapses, and never *before* it: the flusher thread owns the deadline.
#[test]
fn underfull_window_flushes_on_timeout() {
    let window = Duration::from_millis(80);
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 1,
        coalesce_window: window,
        batch_max: 1000,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = connect(server.addr());

    let start = Instant::now();
    let (tag, _) = round_trip(
        &mut stream,
        tags::REQ_TRIP,
        &TripRequest::us25_at(30.0).encode(),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    assert!(
        start.elapsed() >= window,
        "a lone waiter can only be released by the deadline, got {:?}",
        start.elapsed()
    );
    let stats = server.stats();
    assert_eq!(stats.batch_flushes(), 1);
    assert_eq!(stats.coalesce_flights(), 1);
    assert_eq!(stats.coalesce_hits(), 0);
    server.shutdown();
}

/// Per-tenant admission: a tenant that floods the window gets refused
/// beyond its in-flight ceiling while another tenant's request sails
/// through the same window — greed cannot starve a neighbour.
#[test]
fn greedy_tenant_cannot_starve_another() {
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 1,
        coalesce_window: Duration::from_millis(400),
        batch_max: 1000,
        tenant_max_inflight: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let mut greedy_a = connect_as(addr, 1);
    let mut greedy_b = connect_as(addr, 1);
    let mut neighbour = connect_as(addr, 2);

    // The greedy tenant parks its one allowed waiter...
    send(
        &mut greedy_a,
        tags::REQ_TRIP,
        &TripRequest::us25_at(0.0).encode(),
    );
    std::thread::sleep(Duration::from_millis(100));
    // ...and its second, distinct request is refused immediately, inside
    // the still-open window.
    let refusal = Instant::now();
    send(
        &mut greedy_b,
        tags::REQ_TRIP,
        &TripRequest::us25_at(60.0).encode(),
    );
    let (tag, payload) = recv(&mut greedy_b);
    assert_eq!(tag, tags::RESP_ERROR);
    assert!(
        String::from_utf8_lossy(&payload).contains("admission limit"),
        "unexpected refusal: {}",
        String::from_utf8_lossy(&payload)
    );
    assert!(
        refusal.elapsed() < Duration::from_millis(300),
        "refusal must not wait for the flush"
    );
    // The other tenant is admitted into the very same window.
    send(
        &mut neighbour,
        tags::REQ_TRIP,
        &TripRequest::us25_at(120.0).encode(),
    );
    let (tag, _) = recv(&mut neighbour);
    assert_eq!(tag, tags::RESP_PROFILE);
    let (tag, _) = recv(&mut greedy_a);
    assert_eq!(tag, tags::RESP_PROFILE);

    let stats = server.stats();
    assert_eq!(stats.tenant_served(1), 1);
    assert_eq!(stats.tenant_rejected(1), 1);
    assert_eq!(stats.tenant_served(2), 1);
    assert_eq!(stats.tenant_rejected(2), 0);

    // The flush released tenant 1's admission slot: it may plan again.
    let (tag, _) = round_trip(
        &mut greedy_b,
        tags::REQ_TRIP,
        &TripRequest::us25_at(60.0).encode(),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    assert_eq!(server.stats().tenant_served(1), 2);
    server.shutdown();
}

/// Tenant stats attribution regression: when one coalesced solve fans out
/// to waiters of *different* tenants, each response lands in its own
/// tenant's served bucket — and a later plan-cache hit is attributed to
/// the requesting tenant, not the one whose miss populated the cache.
#[test]
fn coalesced_fanout_attributes_stats_per_tenant() {
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        coalesce_window: Duration::from_secs(30),
        batch_max: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let trip = TripRequest::us25_at(150.0).encode();

    let barrier = Arc::new(Barrier::new(2));
    let frames: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = [7u32, 9]
            .into_iter()
            .map(|tenant| {
                let barrier = Arc::clone(&barrier);
                let trip = trip.clone();
                scope.spawn(move || {
                    let mut stream = connect_as(addr, tenant);
                    barrier.wait();
                    let (tag, payload) = round_trip(&mut stream, tags::REQ_TRIP, &trip);
                    assert_eq!(tag, tags::RESP_PROFILE);
                    payload
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(frames[0], frames[1]);

    let stats = server.stats();
    assert_eq!(stats.coalesce_hits(), 1);
    assert_eq!(stats.coalesce_flights(), 1);
    assert_eq!(stats.tenant_served(7), 1);
    assert_eq!(stats.tenant_served(9), 1);
    assert_eq!(
        stats.tenant_served(0),
        0,
        "no leak into the anonymous bucket"
    );

    // Tenant 9 re-requests the now-cached trip: the hit is credited to
    // tenant 9 alone.
    let mut stream = connect_as(addr, 9);
    let (tag, payload) = round_trip(&mut stream, tags::REQ_TRIP, &trip);
    assert_eq!(tag, tags::RESP_PROFILE);
    assert_eq!(payload, frames[0]);
    let stats = server.stats();
    assert_eq!(stats.cache_hits(), 1);
    assert_eq!(stats.tenant_served(9), 2);
    assert_eq!(stats.tenant_served(7), 1);
    server.shutdown();
}

/// Acceptance: coalesced serving is bit-identical to uncoalesced serving
/// — same wire bytes, and the decoded profiles match down to
/// `f64::to_bits` on every sample.
#[test]
fn coalesced_plans_are_bit_identical_to_uncoalesced() {
    let trips: Vec<Vec<u8>> = [0.0, 45.0, 90.0]
        .iter()
        .map(|&d| TripRequest::us25_at(d).encode().to_vec())
        .collect();

    // Reference: a server with coalescing off (the default config).
    let reference_server = CloudServer::spawn(1).unwrap();
    let mut stream = connect(reference_server.addr());
    let reference: Vec<Vec<u8>> = trips
        .iter()
        .map(|t| {
            let (tag, payload) = round_trip(&mut stream, tags::REQ_TRIP, t);
            assert_eq!(tag, tags::RESP_PROFILE);
            payload
        })
        .collect();
    reference_server.shutdown();

    // Candidate: the same trips as one coalesced storm, three waiters per
    // trip.
    const WAITERS_PER_TRIP: usize = 3;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        coalesce_window: Duration::from_secs(30),
        batch_max: WAITERS_PER_TRIP * 3,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(WAITERS_PER_TRIP * trips.len()));
    let coalesced: Vec<(usize, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WAITERS_PER_TRIP * trips.len())
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                let trip_idx = i % trips.len();
                let trip = trips[trip_idx].clone();
                scope.spawn(move || {
                    let mut stream = connect(addr);
                    barrier.wait();
                    let (tag, payload) = round_trip(&mut stream, tags::REQ_TRIP, &trip);
                    assert_eq!(tag, tags::RESP_PROFILE);
                    (trip_idx, payload)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The wire frame carries solver metrics (timings, memo hits) that
    // legitimately differ between batch and single solving, so the
    // comparison is on the decoded *plan*: every station, speed, time,
    // and energy value must match down to the exact bit pattern.
    for (trip_idx, payload) in &coalesced {
        let mut bytes = bytes::Bytes::from(payload.clone());
        let candidate = decode_profile(&mut bytes).unwrap();
        let mut bytes = bytes::Bytes::from(reference[*trip_idx].clone());
        let expected = decode_profile(&mut bytes).unwrap();
        assert_eq!(candidate, expected, "plan differs for trip {trip_idx}");
        assert_eq!(candidate.stations.len(), expected.stations.len());
        for i in 0..candidate.stations.len() {
            assert_eq!(
                candidate.stations[i].value().to_bits(),
                expected.stations[i].value().to_bits()
            );
            assert_eq!(
                candidate.speeds[i].value().to_bits(),
                expected.speeds[i].value().to_bits()
            );
            assert_eq!(
                candidate.times[i].value().to_bits(),
                expected.times[i].value().to_bits()
            );
        }
        assert_eq!(
            candidate.total_energy.value().to_bits(),
            expected.total_energy.value().to_bits()
        );
        assert_eq!(
            candidate.trip_time.value().to_bits(),
            expected.trip_time.value().to_bits()
        );
        assert_eq!(candidate.window_violations, expected.window_violations);
    }
    let stats = server.stats();
    assert_eq!(stats.coalesce_flights(), trips.len() as u64);
    assert_eq!(
        stats.coalesce_hits(),
        (WAITERS_PER_TRIP as u64 - 1) * trips.len() as u64
    );
    server.shutdown();
}

/// Coalescing composes with the high-level client: a `CloudClient` that
/// greeted a tenant keeps its FIFO request/response discipline through
/// the coalescer, including across repeated (cached) requests.
#[test]
fn cloud_client_round_trips_through_the_coalescer() {
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 1,
        coalesce_window: Duration::from_millis(20),
        batch_max: 64,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = CloudClient::connect(server.addr()).unwrap();
    client.hello(4).unwrap();
    let trip = TripRequest::us25_at(15.0);
    let first = client.request(&trip).unwrap();
    let second = client.request(&trip).unwrap();
    assert_eq!(first, second);
    let stats = server.stats();
    assert_eq!(stats.served(), 2);
    assert_eq!(stats.cache_hits(), 1);
    assert_eq!(stats.tenant_served(4), 2);
    assert_eq!(stats.coalesce_flights(), 1);
    server.shutdown();
}

/// What one storm saw.
struct Storm {
    /// Response frames, each with its trip index.
    frames: Vec<(usize, Vec<u8>)>,
    wall: Duration,
    /// `(coalesce hits, flights, flushes, cache hits)`.
    counters: (u64, u64, u64, u64),
    causes: FlushCauses,
}

/// Runs a six-request storm over three distinct trips (two waiters each)
/// against a fresh server that coalesces for `window`, every request on
/// its own connection; with `wave` set, each is sent as `REQ_TRIP_WAVE`.
fn run_storm(window: Duration, wave: Option<WaveTag>) -> Storm {
    const TRIPS: usize = 3;
    const WAITERS: usize = 2 * TRIPS;
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        coalesce_window: window,
        batch_max: 64,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(WAITERS));
    let start = Instant::now();
    let frames: Vec<(usize, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WAITERS)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let trip = TripRequest::us25_at((i % TRIPS) as f64 * 45.0);
                    let mut stream = connect(addr);
                    barrier.wait();
                    let (tag, payload) = match wave {
                        Some(wave) => {
                            round_trip(&mut stream, tags::REQ_TRIP_WAVE, &wave.encode_trip(&trip))
                        }
                        None => round_trip(&mut stream, tags::REQ_TRIP, &trip.encode()),
                    };
                    assert_eq!(tag, tags::RESP_PROFILE);
                    (i % TRIPS, payload)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();
    let stats = server.stats();
    let storm = Storm {
        frames,
        wall,
        counters: (
            stats.coalesce_hits(),
            stats.coalesce_flights(),
            stats.batch_flushes(),
            stats.cache_hits(),
        ),
        causes: stats.flush_causes(),
    };
    server.shutdown();
    storm
}

/// The plan a `RESP_PROFILE` frame carries, as bit patterns: every
/// station, speed and time sample, the energy, the trip time and the
/// window violations. The frame's solver metrics are left out; their
/// timings, memo and arena counters depend on how a batch was spread over
/// the workers.
fn plan_bits(frame: &[u8]) -> Vec<u64> {
    let mut bytes = bytes::Bytes::from(frame.to_vec());
    let profile = decode_profile(&mut bytes).unwrap();
    assert!(bytes.is_empty());
    let mut bits = Vec::new();
    for i in 0..profile.stations.len() {
        bits.push(profile.stations[i].value().to_bits());
        bits.push(profile.speeds[i].value().to_bits());
        bits.push(profile.times[i].value().to_bits());
    }
    bits.push(profile.total_energy.value().to_bits());
    bits.push(profile.trip_time.value().to_bits());
    bits.push(profile.window_violations as u64);
    bits
}

/// A storm sent as one wave flushes the moment its last member arrives,
/// long before a 5 s window would close, and the window it closes holds
/// exactly what the timer's would: the same coalesce hits, flights and
/// flushes, byte-identical frames for the waiters of one key, and plans
/// bit-identical to the untagged storm's, whose only release is the
/// deadline.
#[test]
fn tagged_storm_flushes_on_completion_like_the_timer() {
    let window = Duration::from_secs(5);
    let untagged = run_storm(window, None);
    assert!(untagged.wall >= window, "{:?}", untagged.wall);
    assert_eq!(
        untagged.causes,
        FlushCauses {
            deadline: 1,
            ..FlushCauses::default()
        }
    );

    let wave = WaveTag {
        id: 0x5EED,
        size: 6,
    };
    let tagged = run_storm(window, Some(wave));
    assert!(
        tagged.wall < window,
        "a complete wave must not wait out the window: {:?}",
        tagged.wall
    );
    assert_eq!(
        tagged.causes,
        FlushCauses {
            wave: 1,
            ..FlushCauses::default()
        }
    );
    assert_eq!(tagged.counters, untagged.counters);
    assert_eq!(tagged.counters, (3, 3, 1, 0));

    let by_trip = |storm: &Storm, trip: usize| -> Vec<Vec<u8>> {
        storm
            .frames
            .iter()
            .filter(|(t, _)| *t == trip)
            .map(|(_, f)| f.clone())
            .collect()
    };
    for trip in 0..3 {
        let tagged = by_trip(&tagged, trip);
        let untagged = by_trip(&untagged, trip);
        assert_eq!(tagged.len(), 2);
        assert_eq!(tagged[0], tagged[1], "waiters of one key share one frame");
        assert_eq!(untagged[0], untagged[1]);
        assert_eq!(plan_bits(&tagged[0]), plan_bits(&untagged[0]));
    }
}

/// A wave that never completes is released by the deadline, and the
/// deadline flush forgets the wave: a straggler arriving afterwards under
/// the same tag starts a new count, so it waits out its own window
/// instead of completing a wave that is gone.
#[test]
fn wave_missing_a_member_falls_back_to_the_deadline() {
    let window = Duration::from_millis(300);
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        coalesce_window: window,
        batch_max: 64,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let wave = WaveTag { id: 11, size: 3 };

    let start = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..2 {
            scope.spawn(move || {
                let trip = TripRequest::us25_at(i as f64 * 30.0);
                let mut stream = connect(addr);
                let (tag, _) =
                    round_trip(&mut stream, tags::REQ_TRIP_WAVE, &wave.encode_trip(&trip));
                assert_eq!(tag, tags::RESP_PROFILE);
            });
        }
    });
    assert!(start.elapsed() >= window, "{:?}", start.elapsed());
    assert_eq!(
        server.stats().flush_causes(),
        FlushCauses {
            deadline: 1,
            ..FlushCauses::default()
        }
    );

    let mut straggler = connect(addr);
    let start = Instant::now();
    let (tag, _) = round_trip(
        &mut straggler,
        tags::REQ_TRIP_WAVE,
        &wave.encode_trip(&TripRequest::us25_at(60.0)),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    assert!(start.elapsed() >= window, "{:?}", start.elapsed());
    let stats = server.stats();
    assert_eq!(stats.flush_causes().deadline, 2);
    assert_eq!(stats.flush_causes().wave, 0);
    assert_eq!(stats.coalesce_flights(), 3);
    server.shutdown();
}

/// Members that never park still count toward their wave: one answered
/// from the plan cache and one refused at its tenant's admission limit
/// complete a three-member wave whose only parked member is then flushed
/// at once, nowhere near the 60 s window.
#[test]
fn cache_hits_and_refusals_complete_a_wave() {
    let window = Duration::from_secs(60);
    let server = CloudServer::spawn_with(ServerConfig {
        compute_workers: 2,
        coalesce_window: window,
        batch_max: 64,
        tenant_max_inflight: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let cached = TripRequest::us25_at(0.0);

    // A wave of one completes on arrival: it primes the cache at once.
    let mut primer = connect_as(addr, 5);
    let (tag, _) = round_trip(
        &mut primer,
        tags::REQ_TRIP_WAVE,
        &WaveTag { id: 1, size: 1 }.encode_trip(&cached),
    );
    assert_eq!(tag, tags::RESP_PROFILE);

    let wave = WaveTag { id: 2, size: 3 };
    let start = Instant::now();
    let mut parked = connect_as(addr, 1);
    send(
        &mut parked,
        tags::REQ_TRIP_WAVE,
        &wave.encode_trip(&TripRequest::us25_at(30.0)),
    );
    std::thread::sleep(Duration::from_millis(100));
    let mut hit = connect_as(addr, 2);
    let (tag, _) = round_trip(&mut hit, tags::REQ_TRIP_WAVE, &wave.encode_trip(&cached));
    assert_eq!(tag, tags::RESP_PROFILE);
    let mut refused = connect_as(addr, 1);
    let (tag, payload) = round_trip(
        &mut refused,
        tags::REQ_TRIP_WAVE,
        &wave.encode_trip(&TripRequest::us25_at(60.0)),
    );
    assert_eq!(tag, tags::RESP_ERROR);
    assert!(
        String::from_utf8_lossy(&payload).contains("admission limit"),
        "{}",
        String::from_utf8_lossy(&payload)
    );
    let (tag, _) = recv(&mut parked);
    assert_eq!(tag, tags::RESP_PROFILE);
    assert!(start.elapsed() < window / 2, "{:?}", start.elapsed());

    let stats = server.stats();
    assert_eq!(
        stats.flush_causes(),
        FlushCauses {
            wave: 2,
            ..FlushCauses::default()
        }
    );
    assert_eq!(stats.cache_hits(), 1);
    assert_eq!(stats.coalesce_flights(), 2);
    assert_eq!(stats.tenant_rejected(1), 1);
    assert_eq!(stats.tenant_served(1), 1);
    assert_eq!(stats.tenant_served(2), 1);
    server.shutdown();
}

/// With coalescing off, a wave frame is a plain trip: it is answered
/// with the same frame as `REQ_TRIP` (the second request below is a
/// cache hit on the first one's key), counts as a trip frame, and never
/// touches a window. A malformed wave tag is refused without closing the
/// connection.
#[test]
fn wave_frame_without_coalescing_is_a_plain_trip() {
    let server = CloudServer::spawn(1).unwrap();
    let mut stream = connect(server.addr());
    let trip = TripRequest::us25_at(15.0);

    let (tag, waved) = round_trip(
        &mut stream,
        tags::REQ_TRIP_WAVE,
        &WaveTag { id: 9, size: 4 }.encode_trip(&trip),
    );
    assert_eq!(tag, tags::RESP_PROFILE);
    let (tag, plain) = round_trip(&mut stream, tags::REQ_TRIP, &trip.encode());
    assert_eq!(tag, tags::RESP_PROFILE);
    assert_eq!(waved, plain);

    // Shorter than a tag, and a zero-member wave.
    for bad in [
        vec![0u8; 5],
        WaveTag { id: 3, size: 0 }.encode_trip(&trip).to_vec(),
    ] {
        let (tag, payload) = round_trip(&mut stream, tags::REQ_TRIP_WAVE, &bad);
        assert_eq!(
            tag,
            tags::RESP_ERROR,
            "{}",
            String::from_utf8_lossy(&payload)
        );
    }
    let (tag, again) = round_trip(&mut stream, tags::REQ_TRIP, &trip.encode());
    assert_eq!(tag, tags::RESP_PROFILE);
    assert_eq!(again, plain);

    let stats = server.stats();
    assert_eq!(stats.served(), 3);
    assert_eq!(stats.cache_hits(), 2);
    assert_eq!(stats.error_responses(), 2);
    assert_eq!(stats.frame_counts().trips, 5);
    assert_eq!(stats.frame_counts().unknown, 0);
    assert_eq!(stats.batch_flushes(), 0);
    server.shutdown();
}
