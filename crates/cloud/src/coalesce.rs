//! Request coalescing in front of the compute pool (DESIGN.md §13).
//!
//! Correlated demand is the serving tier's worst case: a signal flips and
//! every EV approaching that corridor replans *the same trip* in the same
//! tick. Without coalescing each replan is an independent DP solve; with
//! it, the worker pool routes `REQ_TRIP` jobs through a short collection
//! window that
//!
//! * **single-flights** identical requests — all waiters for one request
//!   key share one solve and receive clones of one encoded frame
//!   (`cloud.coalesce.hits`), and
//! * **batches** the distinct keys of a window into one
//!   [`DpOptimizer::optimize_batch`](velopt_core::dp::DpOptimizer::optimize_batch)
//!   call (`cloud.batch.size`/`cloud.batch.flushes`) instead of
//!   dispatching singles, and
//! * enforces a **per-tenant admission ceiling** so one greedy tenant
//!   cannot fill the window and starve the others
//!   (`cloud.tenant.rejected`).
//!
//! A window flushes for one of three causes ([`FlushCause`]):
//!
//! * **count** — it reaches `batch_max` waiters. The flush runs inline, on
//!   the worker that enqueued the last one, which makes the flush point
//!   (and therefore every coalesce counter) deterministic under a lockstep
//!   load;
//! * **wave** — every waiter carries a `REQ_TRIP_WAVE` tag and every wave
//!   the window holds has had all of its members submitted (parked, served
//!   from the cache, or refused by admission). Nothing more can join those
//!   waves, so waiting out the timer would only add latency; the flush
//!   runs inline on the worker that counted the last member;
//! * **deadline** — `coalesce_window` elapses, handled by a dedicated
//!   flusher thread parked on a condvar. This is the only release for
//!   untagged waiters below `batch_max`, and the fallback for a wave that
//!   lost a member.
//!
//! A wave flush closes a window earlier than the timer would, but with the
//! same requests inside, provided the wave arrives within one window: the
//! grouping, and with it every coalesce and cache counter, is the timer's.
//! A wave larger than `batch_max` still splits on count.
//!
//! Results are bit-identical to uncoalesced serving by construction:
//! `optimize_batch` is pinned bit-identical to sequential solves, each
//! distinct key is encoded exactly once with the same [`plan_frame`] path
//! the single-dispatch route uses, and waiters receive `Bytes` clones of
//! that one encoding.

use crate::protocol::{TripRequest, WaveTag};
use crate::reactor::{FrameBuf, Job, ShardHandle, ShardMsg};
use crate::server::{
    corridor_optimizer, error_frame, plan_frame, trip_constraints, CachedPlan, PlanCache,
    ServerStats,
};
use bytes::Bytes;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use velopt_core::batch::PlanRequest;
use velopt_core::dp::{SignalConstraint, StartState};

/// One parked request: enough to deliver a response frame to its
/// connection once the group's solve lands.
struct Waiter {
    shard: usize,
    conn: usize,
    gen: u64,
    tenant: u32,
}

/// All waiters for one request key (one canonical `TripRequest` encoding).
struct Group {
    key: Vec<u8>,
    payload: Bytes,
    waiters: Vec<Waiter>,
}

/// What released a coalescing window (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushCause {
    /// The window reached `batch_max` waiters.
    Count,
    /// `coalesce_window` elapsed.
    Deadline,
    /// Every wave the window held is complete.
    Wave,
}

/// Ceiling on the waves counted at once. A member of a wave past it is
/// treated as untagged, so only the count or the deadline releases it.
const MAX_TRACKED_WAVES: usize = 4096;

/// Submissions counted so far for one incomplete wave.
struct WaveCount {
    seen: u32,
    size: u32,
    /// Sequence number of the window open at the latest submission.
    window: u64,
}

/// The current collection window. Groups keep insertion order so the
/// batch handed to the solver is reproducible under lockstep load.
#[derive(Default)]
struct Window {
    groups: Vec<Group>,
    index: HashMap<Vec<u8>, usize>,
    waiters: usize,
    deadline: Option<Instant>,
    /// Waiters without a tracked wave: while any is parked, only the count
    /// or the deadline releases the window.
    untagged: usize,
    /// Waves with a member parked here that still miss members.
    open_waves: HashSet<u64>,
}

impl Window {
    fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Whether nothing the window holds can still gain a wave-mate.
    fn waves_complete(&self) -> bool {
        !self.is_empty() && self.untagged == 0 && self.open_waves.is_empty()
    }
}

#[derive(Default)]
struct State {
    window: Window,
    /// Sequence number of `window`, bumped each time a window is detached.
    seq: u64,
    /// Waiters currently parked per tenant — the admission counter.
    tenant_pending: HashMap<u32, usize>,
    /// Incomplete waves by id.
    waves: HashMap<u64, WaveCount>,
}

impl State {
    /// Counts one submission of `wave`; `parked` says whether it waits in
    /// the current window. A completed wave leaves the table and stops
    /// holding its window open.
    fn count_wave(&mut self, wave: WaveTag, parked: bool) {
        if self.waves.len() >= MAX_TRACKED_WAVES && !self.waves.contains_key(&wave.id) {
            if parked {
                self.window.untagged += 1;
            }
            return;
        }
        let seq = self.seq;
        let count = self.waves.entry(wave.id).or_insert(WaveCount {
            seen: 0,
            size: wave.size,
            window: seq,
        });
        count.seen += 1;
        count.window = seq;
        if count.seen >= count.size {
            self.waves.remove(&wave.id);
            self.window.open_waves.remove(&wave.id);
        } else if parked {
            self.window.open_waves.insert(wave.id);
        }
    }
}

/// The coalescing layer. Shared by the compute workers (which `submit`
/// into it) and the flusher thread (which handles timeout flushes).
pub(crate) struct Coalescer {
    window: Duration,
    batch_max: usize,
    tenant_max_inflight: usize,
    state: Mutex<State>,
    flush_cv: Condvar,
    stopped: AtomicBool,
    shards: Arc<Vec<ShardHandle>>,
    stats: Arc<ServerStats>,
    cache: Arc<PlanCache>,
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("window", &self.window)
            .field("batch_max", &self.batch_max)
            .field("tenant_max_inflight", &self.tenant_max_inflight)
            .finish_non_exhaustive()
    }
}

impl Coalescer {
    pub(crate) fn new(
        window: Duration,
        batch_max: usize,
        tenant_max_inflight: usize,
        shards: Arc<Vec<ShardHandle>>,
        stats: Arc<ServerStats>,
        cache: Arc<PlanCache>,
    ) -> Self {
        Self {
            window,
            batch_max: batch_max.max(1),
            tenant_max_inflight,
            state: Mutex::new(State::default()),
            flush_cv: Condvar::new(),
            stopped: AtomicBool::new(false),
            shards,
            stats,
            cache,
        }
    }

    /// Routes one `REQ_TRIP`/`REQ_TRIP_WAVE` job: cache hits are answered
    /// immediately, over-limit tenants are refused, everything else parks
    /// in the window. A wave member counts toward its wave on every one of
    /// these paths. Flushes inline when the window reaches `batch_max`, or
    /// when this submission completed the last wave it was waiting for.
    pub(crate) fn submit(&self, job: Job) {
        let key = job.payload.to_vec();
        let waiter = Waiter {
            shard: job.shard,
            conn: job.conn,
            gen: job.gen,
            tenant: job.tenant,
        };
        let cached = self.cache.read().get(&key).map(|hit| hit.frame.clone());
        if let Some(frame) = cached {
            self.stats.record_served(1);
            self.stats.record_plan_cache_hits(1);
            self.stats.record_tenant_served(waiter.tenant);
            self.respond(&waiter, FrameBuf::Shared(frame));
            if let Some(wave) = job.wave {
                let ready =
                    Self::count_unparked(&mut self.state.lock().expect("coalescer lock"), wave);
                if let Some(window) = ready {
                    self.flush(window, FlushCause::Wave);
                }
            }
            return;
        }
        let mut state = self.state.lock().expect("coalescer lock");
        if self.tenant_max_inflight > 0 {
            let pending = state
                .tenant_pending
                .get(&waiter.tenant)
                .copied()
                .unwrap_or(0);
            if pending >= self.tenant_max_inflight {
                let ready = job
                    .wave
                    .and_then(|wave| Self::count_unparked(&mut state, wave));
                drop(state);
                self.stats.record_tenant_rejected(waiter.tenant);
                let frame = error_frame(
                    &self.stats,
                    &self.shards[waiter.shard].pool,
                    &format!("tenant {} over its admission limit", waiter.tenant),
                );
                self.respond(&waiter, frame);
                if let Some(window) = ready {
                    self.flush(window, FlushCause::Wave);
                }
                return;
            }
        }
        *state.tenant_pending.entry(waiter.tenant).or_insert(0) += 1;
        let window = &mut state.window;
        match window.index.get(&key) {
            Some(&i) => window.groups[i].waiters.push(waiter),
            None => {
                window.index.insert(key.clone(), window.groups.len());
                window.groups.push(Group {
                    key,
                    payload: job.payload.clone(),
                    waiters: vec![waiter],
                });
            }
        }
        window.waiters += 1;
        if window.deadline.is_none() {
            window.deadline = Some(Instant::now() + self.window);
            self.flush_cv.notify_one();
        }
        match job.wave {
            Some(wave) => state.count_wave(wave, true),
            None => state.window.untagged += 1,
        }
        let ready = if state.window.waiters >= self.batch_max {
            Some((Self::take(&mut state, FlushCause::Count), FlushCause::Count))
        } else {
            Self::wave_ready(&mut state).map(|window| (window, FlushCause::Wave))
        };
        drop(state);
        if let Some((window, cause)) = ready {
            self.flush(window, cause);
        }
    }

    /// Counts a wave member that did not park (answered from the cache or
    /// refused), detaching the window if that completed its last open wave.
    fn count_unparked(state: &mut State, wave: WaveTag) -> Option<Window> {
        state.count_wave(wave, false);
        Self::wave_ready(state)
    }

    /// Detaches the current window if every wave it holds is complete.
    fn wave_ready(state: &mut State) -> Option<Window> {
        state
            .window
            .waves_complete()
            .then(|| Self::take(state, FlushCause::Wave))
    }

    /// Detaches the current window, releases its admission counts, and
    /// bounds the wave table. A deadline flush gives up on every wave still
    /// counting (the timer has released whatever they parked); any other
    /// flush drops the waves that saw no submission during the window it
    /// closes, and keeps the ones a count flush split mid-arrival.
    fn take(state: &mut State, cause: FlushCause) -> Window {
        let window = std::mem::take(&mut state.window);
        for group in &window.groups {
            for waiter in &group.waiters {
                if let Some(n) = state.tenant_pending.get_mut(&waiter.tenant) {
                    *n = n.saturating_sub(1);
                }
            }
        }
        let seq = state.seq;
        state.seq += 1;
        state
            .waves
            .retain(|_, wave| cause != FlushCause::Deadline && wave.window == seq);
        window
    }

    /// The flusher thread body: sleep until the open window's deadline
    /// (or until `submit` opens one), then flush whatever `batch_max`
    /// has not already claimed.
    pub(crate) fn run_flusher(&self) {
        let mut state = self.state.lock().expect("coalescer lock");
        loop {
            if self.stopped.load(Ordering::Acquire) {
                return;
            }
            match state.window.deadline {
                None => {
                    state = self.flush_cv.wait(state).expect("coalescer lock");
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        let window = Self::take(&mut state, FlushCause::Deadline);
                        drop(state);
                        self.flush(window, FlushCause::Deadline);
                        state = self.state.lock().expect("coalescer lock");
                    } else {
                        state = self
                            .flush_cv
                            .wait_timeout(state, deadline - now)
                            .expect("coalescer lock")
                            .0;
                    }
                }
            }
        }
    }

    /// Wakes and terminates the flusher. Called at server shutdown after
    /// the workers have exited, so nothing submits afterwards.
    pub(crate) fn stop(&self) {
        let _guard = self.state.lock().expect("coalescer lock");
        self.stopped.store(true, Ordering::Release);
        self.flush_cv.notify_all();
    }

    /// Solves a detached window — one `optimize_batch` over its distinct
    /// keys — and fans each group's single encoded frame out to all of
    /// its waiters.
    fn flush(&self, window: Window, cause: FlushCause) {
        if window.is_empty() {
            return;
        }
        let waiters_total = window.waiters as u64;
        let groups = window.groups;
        // Per-group outcome: the shared frame to fan out, or the error
        // message every waiter of the group receives.
        let mut outcomes: Vec<Option<std::result::Result<Bytes, String>>> =
            (0..groups.len()).map(|_| None).collect();

        // Late cache pass: a REQ_BATCH (or an earlier flush) may have
        // planned a group's trip since its first waiter parked.
        {
            let cache = self.cache.read();
            for (i, group) in groups.iter().enumerate() {
                if let Some(hit) = cache.get(&group.key) {
                    self.stats
                        .record_plan_cache_hits(group.waiters.len() as u64);
                    outcomes[i] = Some(Ok(hit.frame.clone()));
                }
            }
        }

        let mut flights = 0u64;
        match corridor_optimizer() {
            Ok(optimizer) => {
                // Decode and validate the misses; invalid trips become
                // error outcomes without sinking the window.
                let mut prepared: Vec<(usize, TripRequest, Vec<SignalConstraint>)> = Vec::new();
                for (i, group) in groups.iter().enumerate() {
                    if outcomes[i].is_some() {
                        continue;
                    }
                    let mut payload = group.payload.clone();
                    let decoded = TripRequest::decode(&mut payload).and_then(|trip| {
                        let constraints = trip_constraints(&trip, optimizer.config())?;
                        Ok((trip, constraints))
                    });
                    match decoded {
                        Ok((trip, constraints)) => prepared.push((i, trip, constraints)),
                        Err(e) => outcomes[i] = Some(Err(e.to_string())),
                    }
                }
                let requests: Vec<PlanRequest<'_>> = prepared
                    .iter()
                    .map(|(_, trip, constraints)| PlanRequest {
                        road: &trip.road,
                        signals: constraints,
                        start: StartState {
                            time: trip.departure,
                            ..StartState::default()
                        },
                    })
                    .collect();
                flights = requests.len() as u64;
                let plan_span = telemetry::span("cloud.plan_seconds");
                let planned = optimizer.optimize_batch(&requests);
                drop(plan_span);
                for ((i, _, _), result) in prepared.iter().zip(planned) {
                    match result {
                        Ok(profile) => {
                            self.stats.record_solve(&profile.metrics);
                            let frame = plan_frame(&profile);
                            self.cache.write().insert(
                                groups[*i].key.clone(),
                                CachedPlan {
                                    frame: frame.clone(),
                                    profile,
                                },
                            );
                            outcomes[*i] = Some(Ok(frame));
                        }
                        Err(e) => outcomes[*i] = Some(Err(e.to_string())),
                    }
                }
            }
            Err(e) => {
                let message = e.to_string();
                for outcome in &mut outcomes {
                    if outcome.is_none() {
                        *outcome = Some(Err(message.clone()));
                    }
                }
            }
        }
        self.stats
            .record_coalesce_flush(cause, waiters_total, groups.len() as u64, flights);

        for (group, outcome) in groups.iter().zip(&outcomes) {
            match outcome.as_ref().expect("every group resolved") {
                Ok(frame) => {
                    self.stats.record_served(group.waiters.len() as u64);
                    for waiter in &group.waiters {
                        self.stats.record_tenant_served(waiter.tenant);
                        self.respond(waiter, FrameBuf::Shared(frame.clone()));
                    }
                }
                Err(message) => {
                    for waiter in &group.waiters {
                        let frame =
                            error_frame(&self.stats, &self.shards[waiter.shard].pool, message);
                        self.respond(waiter, frame);
                    }
                }
            }
        }
    }

    /// Queues a response frame back to a waiter's shard. A failed send
    /// means the shard exited (shutdown); the frame is dropped with it.
    fn respond(&self, waiter: &Waiter, frame: FrameBuf) {
        let shard = &self.shards[waiter.shard];
        let delivered = shard
            .tx
            .send(ShardMsg::Response {
                conn: waiter.conn,
                gen: waiter.gen,
                frame,
            })
            .is_ok();
        if delivered {
            let _ = shard.waker.wake();
        }
    }
}
